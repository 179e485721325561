"""The three workloads: inputs made from a seed, one round of work, checks.

Each workload has a ``setup`` that turns the seed into inputs (and files
where the round reads them), a ``round`` that runs the timed operations
and returns their outputs, and a ``check`` that tests those outputs
against the benchmark's own computations in ``reference``. Sizes live in
scale objects so the self-test can run every path in seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import time
from itertools import combinations
from pathlib import Path

import numpy as np

import reference
from zsl_embed import cli, data, evaluation, metric, network, synthetic, training

TAGS = ("C", "I", "T", "W")


def _round_f32(a: np.ndarray) -> np.ndarray:
    """Values as the binary feature files store them."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


# ---------------------------------------------------------------------------
# small-grid: the ablation grid run the way ``zsl-embed ablate`` runs it


@dataclasses.dataclass(frozen=True)
class GridScale:
    epochs: int = 200
    subsets: tuple[tuple[str, ...], ...] | None = None  # None: all 15


class SmallGrid:
    directions = ("s2v", "v2s")
    metrics = ("ec:0.9", "euclidean")

    def __init__(self, scale: GridScale):
        self.scale = scale
        every = [c for k in range(1, 5) for c in combinations(TAGS, k)]
        self.subsets = scale.subsets or tuple(every)
        cells = len(self.subsets) * len(self.directions)
        # one dataset read, one training per cell, one evaluation per metric, one report write
        self.ops_per_round = 1 + cells + cells * len(self.metrics) + 1

    def setup(self, seed: int, workdir: Path) -> dict:
        ds = synthetic.generate(synthetic.SynthConfig(seed=seed))
        data_dir = workdir / "grid-data"
        data.save_dataset(ds, data_dir)
        lines = [
            "net.head_hidden = 32", "net.head_out = 48", "net.l2_lambda = 5e-4",
            "train.optimizer = adam", "train.lr = 3e-3", "train.batch_size = 64",
            f"train.epochs = {self.scale.epochs}", f"train.seed = {seed}",
            f"ablate.directions = {','.join(self.directions)}",
            f"ablate.metrics = {','.join(self.metrics)}",
            "ablate.subsets = " + ";".join("+".join(s) for s in self.subsets),
        ]
        config = workdir / "grid.cfg"
        config.write_text("\n".join(lines) + "\n")
        # warm-up: a short single-modality cell of the grid
        net = network.NetConfig(ds.modality_dims(), head_hidden=32, head_out=48, embed_dim=ds.visual.dim)
        tc = training.TrainConfig(lr=3e-3, batch_size=64, epochs=20, seed=seed)
        model, _ = training.train(ds, net, tc, ("W",))
        evaluation.evaluate(model, ds, metric.MetricKind.ec(0.9), ("W",))
        return {"data": data_dir, "config": config, "report": workdir / "grid.csv",
                "n_test": ds.test_visual.rows}

    def round(self, state: dict) -> str:
        argv = ["ablate", "--config", str(state["config"]), "--data", str(state["data"]),
                "--out", str(state["report"]), "--jobs", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.dispatch(argv)
        if code != 0:
            raise RuntimeError(f"zsl-embed ablate exited with {code}")
        return state["report"].read_text()

    def check(self, state: dict, report: str) -> list[str]:
        return reference.check_report(report, self.subsets, self.directions, self.metrics, state["n_test"])

    def summary(self, state: dict, round_s: list[float]) -> dict:
        return {"grid_s": float(np.median(round_s))}


# ---------------------------------------------------------------------------
# paper scale: CUB-sized split, 512/1024/2048 net, 300/2048/2048/1024-dim modalities


@dataclasses.dataclass(frozen=True)
class PaperScale:
    n_classes: int = 200
    n_seen: int = 150
    samples_per_class: int = 20
    latent_dim: int = 32
    embed_dim: int = 2048
    modality_dims: tuple[int, ...] = (2048, 2048, 1024, 300)  # C, I, T, W
    widths: tuple[int, int] = (512, 1024)
    epochs: int = 1
    batch_size: int = 256
    check_rows: int = 256

    def synth(self, seed: int) -> synthetic.SynthConfig:
        specs = tuple(synthetic.ModalitySpec(t, d) for t, d in zip(TAGS, self.modality_dims))
        return synthetic.SynthConfig(
            n_classes=self.n_classes, n_seen=self.n_seen, samples_per_class=self.samples_per_class,
            latent_dim=self.latent_dim, embed_dim=self.embed_dim, modalities=specs, seed=seed,
        )

    def net(self, ds) -> network.NetConfig:
        return network.NetConfig(ds.modality_dims(), head_hidden=self.widths[0],
                                 head_out=self.widths[1], embed_dim=self.embed_dim)


def _params(model) -> dict[str, np.ndarray]:
    params = dict(model.fusion.params)
    if model.visual_map is not None:
        params.update(model.visual_map.params)
    return params


class PaperTrain:
    ops_per_round = 2  # one training, one checkpoint write

    def __init__(self, scale: PaperScale):
        self.scale = scale

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.scale
        ds = synthetic.generate(s.synth(seed))
        net = s.net(ds)
        tc = training.TrainConfig(optimizer="adam", lr=1e-4, batch_size=s.batch_size, epochs=s.epochs, seed=seed)
        # the model train() starts from, and a fixed batch to score it on
        init = network.init_model(net, tc.seed)
        rows = np.sort(np.random.default_rng(seed).choice(ds.visual.rows, s.check_rows, replace=False))
        labels = ds.visual.labels[rows]
        batch = {t: ds.table(t).matrix(labels) for t in TAGS}
        targets = ds.visual.values[rows]
        init.loss_and_grad(batch, targets, TAGS)  # warm-up at full width
        return {"ds": ds, "net": net, "tc": tc, "init": _params(init), "batch": batch,
                "targets": targets, "ckpt": workdir / "paper-train.ckpt"}

    def round(self, state: dict) -> dict:
        model, history = training.train(state["ds"], state["net"], state["tc"], TAGS)
        training.save_checkpoint(model, state["ckpt"])
        return {"model": model, "losses": list(history.losses)}

    def check(self, state: dict, out: dict) -> list[str]:
        errors = []
        losses = out["losses"]
        if len(losses) != self.scale.epochs or not np.all(np.isfinite(losses)):
            errors.append(f"epoch losses not all finite: {losses}")
        lam = state["net"].l2_lambda
        args = (state["batch"], state["targets"], TAGS, lam)
        if "init_loss" not in state:
            state["init_loss"] = reference.s2v_loss(state["init"], *args)
        params = _params(out["model"])
        trained = reference.s2v_loss(params, *args)
        if not trained < state["init_loss"]:
            errors.append(f"fixed-batch loss {trained!r} not below its initial {state['init_loss']!r}")
        program = out["model"].loss(state["batch"], state["targets"], TAGS)
        errors += reference.check_loss("fixed batch", program, trained)
        loaded = training.load_checkpoint(state["ckpt"])
        errors += reference.check_bitwise_params(params, _params(loaded))
        return errors

    def summary(self, state: dict, round_s: list[float]) -> dict:
        samples = state["ds"].visual.rows * self.scale.epochs
        return {"train_samples_per_s": samples / float(np.median(round_s))}


class PaperEval:
    metrics = (metric.MetricKind.ec(0.9), metric.MetricKind.euclidean(), metric.MetricKind.cosine())
    # dataset read, checkpoint read, one evaluation per metric, one hubness scoring
    ops_per_round = 2 + len(metrics) + 1

    def __init__(self, scale: PaperScale):
        self.scale = scale

    def setup(self, seed: int, workdir: Path) -> dict:
        ds = synthetic.generate(self.scale.synth(seed))
        data_dir = workdir / "eval-data"
        data.save_dataset(ds, data_dir)
        model = network.init_model(self.scale.net(ds), seed)
        ckpt = workdir / "paper-eval.ckpt"
        training.save_checkpoint(model, ckpt)
        # warm-up: embed two prototypes and score a slice of the queries
        ids = sorted(ds.unseen)[:2]
        protos = model.embed({t: ds.table(t).matrix(ids) for t in TAGS}, TAGS)
        metric.pairwise_distances(ds.test_visual.values[:64], protos, self.metrics[0])
        return {"ds": ds, "params": _params(model), "data": data_dir, "ckpt": ckpt}

    def round(self, state: dict) -> dict:
        ds = data.load_dataset(state["data"])
        model = training.load_checkpoint(state["ckpt"])
        start = time.perf_counter()
        results = [evaluation.evaluate(model, ds, m, TAGS) for m in self.metrics]
        state.setdefault("evaluate_s", []).append(time.perf_counter() - start)
        dist, _ = evaluation.prediction_distances(model, ds, self.metrics[0], TAGS)
        hub = evaluation.hubness_skewness(dist, 1)
        return {"results": results, "hubness": hub}

    def own_rankings(self, state: dict) -> list[dict]:
        """The benchmark's own prototypes, distances and rankings, per metric."""
        ds = state["ds"]
        ids = sorted(ds.unseen)
        inputs = {t: _round_f32(ds.table(t).matrix(ids)) for t in TAGS}
        _, prototypes = reference.fused_and_embedded(state["params"], inputs, TAGS)
        queries = _round_f32(ds.test_visual.values)
        true_idx = np.searchsorted(ids, ds.test_visual.labels)
        return [reference.ranking(reference.distances(queries, prototypes, m.kind, m.eta), true_idx)
                for m in self.metrics]

    def check(self, state: dict, out: dict) -> list[str]:
        first = state.get("first")
        if first is not None:  # later rounds must repeat the first, which was checked in full
            same = (out["hubness"] == first["hubness"]) and all(
                a.top1 == b.top1 and a.top5 == b.top5 and np.array_equal(a.confusion, b.confusion)
                for a, b in zip(out["results"], first["results"])
            )
            return [] if same else ["a later round's scores differ from the first round's"]
        state["first"] = out
        if "own" not in state:
            state["own"] = self.own_rankings(state)
        n = state["ds"].test_visual.rows
        errors = []
        for m, own, result in zip(self.metrics, state["own"], out["results"]):
            errors += reference.check_eval(m.label(), own, result, n)
        ec = state["own"][0]
        errors += reference.check_hubness(out["hubness"], ec["top1"], ec["ties"], len(state["ds"].unseen))
        return errors

    def summary(self, state: dict, round_s: list[float]) -> dict:
        n = state["ds"].test_visual.rows
        scored = [n * len(self.metrics) / t for t in state["evaluate_s"]]
        ties = [int(own["ties"].sum()) for own in state.get("own", [])]
        return {"eval_s": float(np.median(round_s)), "queries_per_s": float(np.median(scored)),
                "near_ties": ties}


WORKLOADS = {"small-grid": SmallGrid, "paper-train": PaperTrain, "paper-eval": PaperEval}

FULL = {"small-grid": GridScale(), "paper-train": PaperScale(), "paper-eval": PaperScale()}

# every path, in seconds: the subsets the fusion check needs, a narrow paper net
_TINY_PAPER = PaperScale(n_classes=40, n_seen=30, samples_per_class=10, latent_dim=12, embed_dim=48,
                         modality_dims=(40, 36, 24, 12), widths=(16, 24), epochs=2, batch_size=32,
                         check_rows=32)
TINY = {
    "small-grid": GridScale(epochs=30, subsets=(("C",), ("I",), ("T",), ("W",), TAGS)),
    "paper-train": _TINY_PAPER,
    "paper-eval": _TINY_PAPER,
}
