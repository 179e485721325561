"""The benchmark's own self-test, run with the suite.

``bench/`` calls and patches names inside ``zsl_embed`` (for instance
``evaluation.prediction_distances``, ``evaluation._run_cell``,
``SgdMomentum.step`` and the ``out.b3`` parameter). A change to the
package that removes or renames one of them fails here, not first in a
benchmark run.
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
