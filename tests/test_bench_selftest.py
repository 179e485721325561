"""The benchmark's own self-test, run with the suite.

``bench/`` calls, reads and patches names inside ``zsl_embed``. A change to
the package that removes or renames one of them, or changes how it is
called, fails here, not first in a benchmark run. The pinned names and
calling conventions are:

- ``network.init_model(config, seed)``, ``NetConfig(modality_dims,
  head_hidden=, head_out=, embed_dim=)`` and its fields ``modality_dims``,
  ``head_hidden``, ``head_out``, ``embed_dim``, ``direction`` and
  ``l2_lambda``, and ``network.S_TO_V``;
- ``EmbeddingModel.loss_and_grad(inputs, targets, active)`` and ``loss``,
  both called without ``rows``, plus ``embed`` and ``map_visual``;
- ``model.fusion.params`` including ``out.b3``, ``model.visual_map.params``
  and ``model.config``;
- ``Adam.params`` as a mapping, ``Adam.step`` and ``SgdMomentum.step``;
  tracing patches a method through its class's own ``__dict__``, so
  ``step`` must be defined on ``Adam`` and on ``SgdMomentum`` themselves,
  and ``loss_and_grad``, ``embed`` and ``map_visual`` on ``EmbeddingModel``;
- ``TrainConfig(optimizer=, lr=, batch_size=, epochs=, seed=)`` and
  ``TrainHistory.losses``;
- ``training.train(dataset, net, train_config, tags)``,
  ``save_checkpoint(model, path)`` and ``load_checkpoint(path)``;
- ``SynthConfig``'s fields ``n_classes``, ``n_seen``, ``samples_per_class``,
  ``latent_dim``, ``embed_dim``, ``modalities`` and ``seed``,
  ``ModalitySpec(tag, dim)`` and ``synthetic.generate(config)``;
- ``data.save_dataset(dataset, path)`` and ``load_dataset(path)``;
  ``Dataset.table(tag).matrix(ids)``, ``modality_dims()``, ``unseen`` and
  ``visual``/``test_visual`` with ``values``, ``labels``, ``rows`` and
  ``dim``;
- ``evaluation.evaluate(model, dataset, metric, tags)``, ``ablate``,
  ``emit_report``, ``prediction_distances``, ``hubness_skewness(dist, k)``
  and ``_run_cell``;
- ``EvalResult(top1, top5, per_class_top1, confusion, class_ids)``, its five
  fields in that positional order;
- ``MetricKind.ec(eta)``, ``MetricKind.euclidean()``,
  ``MetricKind.cosine()``, ``label()`` and ``kind``/``eta``, and
  ``metric.pairwise_distances(queries, prototypes, metric)``;
- ``cli.dispatch(argv)`` running ``ablate`` with the keys
  ``net.head_hidden``, ``net.head_out``, ``net.l2_lambda``,
  ``train.optimizer``, ``train.lr``, ``train.batch_size``,
  ``train.epochs``, ``train.seed`` and the three ``ablate.`` axes.
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
