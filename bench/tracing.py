"""Spans around calls into the zsl_embed layers, for the traced run.

While installed, the tracer replaces public functions and methods of the
package modules with wrappers that record one span per call: name,
start, end, parent span and the benchmark phase it ran in. Spans stay in
memory and are written out as JSON lines when the run ends. A span's self
time is its duration minus the time its direct children cover.
Uninstalling restores the original objects, so untraced rounds run the
unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from pathlib import Path

import zsl_embed
from zsl_embed import cli, data, evaluation, metric, network, synthetic, training

MODULES = (synthetic, data, network, training, metric, evaluation, cli)
MB = 1e6


def step_flop(config, tags, rows: int) -> int:
    """Dense-layer FLOPs of one loss_and_grad call, from the shapes alone.

    Each layer costs 2*rows*in*out for the forward product and as much
    again for the weight gradient and, where backprop needs it, for the
    input gradient. Elementwise work is not counted.
    """
    h, o, e = config.head_hidden, config.head_out, config.embed_dim

    def dense(n_in: int, n_out: int, input_grad: bool) -> int:
        return 2 * rows * n_in * n_out * (3 if input_grad else 2)

    flop = sum(dense(config.modality_dims[t], h, False) + dense(h, o, True) for t in tags)
    if config.direction == network.S_TO_V:
        return flop + dense(o, e, True)
    # v2s: the shared layer only runs forward; the visual map e->o->h->o trains
    return flop + 2 * rows * o * e + dense(e, o, False) + dense(o, h, True) + dense(h, o, True)


def _gflop(args, kwargs, result):
    model, _, targets, active = args[:4]
    tags = tuple(sorted(set(active)))
    return step_flop(model.config, tags, len(targets)) / 1e9


def _optimizer_mb(args, kwargs, result):
    opt = args[0]
    n_params = sum(p.size for p in opt.params.values())
    # Adam reads p, g, m, v and writes p, m, v; SGD reads p, g, u and writes p, u
    arrays = 7 if isinstance(opt, training.Adam) else 5
    return arrays * 8 * n_params / MB


def _dataset_mb(args, kwargs, result):
    return sum(f.stat().st_size for f in Path(args[0]).iterdir() if f.is_file()) / MB


def _checkpoint_mb(args, kwargs, result):
    return Path(args[1]).stat().st_size / MB


def _pairs(args, kwargs, result):
    return result.size


# (module, attribute, span name, per-call info, measure allocations)
TARGETS = (
    (synthetic, "generate", "synthetic.generate", None, False),
    (data, "save_dataset", "data.save_dataset", None, False),
    (data, "load_dataset", "data.load_dataset", _dataset_mb, False),
    (network, "EmbeddingModel.loss_and_grad", "network.loss_and_grad", _gflop, False),
    (network, "EmbeddingModel.embed", "network.embed", None, False),
    (network, "EmbeddingModel.map_visual", "network.embed", None, False),
    (training, "train", "training.train", None, False),
    (training, "Adam.step", "training.optimizer_step", _optimizer_mb, False),
    (training, "SgdMomentum.step", "training.optimizer_step", _optimizer_mb, False),
    (training, "save_checkpoint", "training.save_checkpoint", _checkpoint_mb, False),
    (training, "load_checkpoint", "training.load_checkpoint", None, False),
    (metric, "pairwise_distances", "metric.pairwise_distances", _pairs, True),
    (evaluation, "evaluate", "evaluation.evaluate", None, False),
    (evaluation, "hubness_skewness", "evaluation.hubness", None, False),
    (evaluation, "ablate", "evaluation.ablate", None, False),
    (evaluation, "_run_cell", "evaluation.cell", None, False),
    (evaluation, "emit_report", "evaluation.emit_report", None, False),
    (cli, "dispatch", "cli.dispatch", None, False),
)


class Tracer:
    """Collects spans; ``installed`` patches the package while it is open."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, phase, info, alloc_mb]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = ""

    def _wrap(self, name, fn, info, measure_alloc):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.phase, None, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            own_tracemalloc = measure_alloc and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0] if measure_alloc else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if measure_alloc:
                    span[6] = (tracemalloc.get_traced_memory()[1] - base) / MB
                if own_tracemalloc:
                    tracemalloc.stop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, phase: str):
        """Trace every call into the package made inside the block."""
        restore = []
        for module, attr, name, info, measure_alloc in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:  # a method: patch the class attribute
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                restore.append((owner, fn_name, original))
                setattr(owner, fn_name, self._wrap(name, original, info, measure_alloc))
                continue
            original = getattr(module, fn_name)
            wrapped = self._wrap(name, original, info, measure_alloc)
            for mod in (zsl_embed, *MODULES):  # every module that imported the name
                if vars(mod).get(fn_name) is original:
                    restore.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)
        self.phase = phase
        try:
            yield
        finally:
            self.phase = ""
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, phase, info, alloc) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "phase": phase, "info": info, "alloc_mb": alloc,
                }) + "\n")


def per_layer(spans: list[list], setup_phases: set[str], round_phases: set[str]) -> dict[str, float]:
    """Per-layer metrics: setup layers per setup, all others per traced round."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def select(name: str, phases: set[str]):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name and s[4] in phases]

    def dur(name, phases=round_phases):
        return sum(s[2] - s[1] for _, s in select(name, phases))

    def self_time(name):
        return sum(s[2] - s[1] - child_time[i] for i, s in select(name, round_phases))

    def infos(name, index=5):
        return [s[index] for _, s in select(name, round_phases)]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    n_rounds, n_setups = max(1, len(round_phases)), max(1, len(setup_phases))
    gflop = infos("network.loss_and_grad")
    grad_s = dur("network.loss_and_grad")
    cells = {}
    for _, s in select("evaluation.cell", round_phases):
        cells[s[4]] = max(cells.get(s[4], 0.0), s[2] - s[1])
    return {
        "synthetic.generate_s": dur("synthetic.generate", setup_phases) / n_setups,
        "data.save_dataset_s": dur("data.save_dataset", setup_phases) / n_setups,
        "data.load_dataset_s": dur("data.load_dataset") / n_rounds,
        "data.read_mb": sum(infos("data.load_dataset")) / n_rounds,
        "network.loss_and_grad_s": grad_s / n_rounds,
        "network.loss_and_grad_calls": len(gflop) / n_rounds,
        "network.step_gflop": mean(gflop),
        "network.gflop_per_s": sum(gflop) / grad_s if grad_s > 0 else 0.0,
        "network.embed_s": dur("network.embed") / n_rounds,
        "training.train_s": dur("training.train") / n_rounds,
        "training.optimizer_steps": len(infos("training.optimizer_step")) / n_rounds,
        "training.optimizer_step_s": dur("training.optimizer_step") / n_rounds,
        "training.loop_self_s": self_time("training.train") / n_rounds,
        "training.optimizer_mb_moved": mean(infos("training.optimizer_step")),
        "training.save_checkpoint_s": dur("training.save_checkpoint") / n_rounds,
        "training.checkpoint_mb": mean(infos("training.save_checkpoint")),
        "training.load_checkpoint_s": dur("training.load_checkpoint") / n_rounds,
        "metric.pairwise_distances_s": dur("metric.pairwise_distances") / n_rounds,
        "metric.pairwise_calls": len(infos("metric.pairwise_distances")) / n_rounds,
        "metric.pairs_scored": sum(infos("metric.pairwise_distances")) / n_rounds,
        "metric.temp_mb": max(infos("metric.pairwise_distances", 6), default=0.0),
        "evaluation.evaluate_s": dur("evaluation.evaluate") / n_rounds,
        "evaluation.evaluate_calls": len(infos("evaluation.evaluate")) / n_rounds,
        "evaluation.rank_self_s": self_time("evaluation.evaluate") / n_rounds,
        "evaluation.hubness_s": dur("evaluation.hubness") / n_rounds,
        "evaluation.ablate_s": dur("evaluation.ablate") / n_rounds,
        "evaluation.cell_s_max": mean(list(cells.values())),
        "cli.self_s": self_time("cli.dispatch") / n_rounds,
    }
