"""The benchmark's own self-test, run with the suite.

``bench/`` calls, reads and patches names inside ``zsl_embed``. A change to
the package that removes or renames one of them, or changes how it is
called, fails here, not first in a benchmark run. The pinned names and
calling conventions are:

- ``EmbeddingModel.loss_and_grad(inputs, targets, active)`` and ``loss``,
  both called without ``rows``, plus ``embed`` and ``map_visual``;
- ``model.fusion.params`` including ``out.b3``, ``model.visual_map.params``
  and ``model.config``;
- ``Adam.params`` as a mapping, ``Adam.step`` and ``SgdMomentum.step``;
- ``TrainConfig(optimizer=...)`` and ``TrainHistory.losses``;
- ``prediction_distances``, ``hubness_skewness(dist, k)``, ``_run_cell``
  and ``ModalitySpec``;
- the CLI ``ablate`` keys ``train.optimizer`` and ``net.l2_lambda``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
