"""Command-line entry point.

Subcommands: ``synth`` (write a generated dataset), ``train`` (dataset ->
checkpoint + history CSV), ``eval`` (checkpoint + dataset -> accuracy),
``ablate`` (modality/direction/metric grid -> report), ``distance``
(one metric value, for debugging) and ``gradcheck`` (finite-difference
verification of the analytic gradients).

Settings come from an optional flat ``key = value`` config file with
section prefixes (``net.head_out``, ``train.lr``, ``synth.n_classes``,
``metric.eta``, ``ablate.directions``); command-line flags override file
values. The ``net``, ``train``, ``synth`` and ``metric`` keys are the
fields of ``NetConfig``, ``TrainConfig``, ``SynthConfig`` and ``MetricKind``
that have defaults; the ``ablate`` keys set the grid's axes, and an axis
left unset takes ``evaluation.ablate``'s default. Unknown keys are
rejected. The ``ZSL_EMBED_LOG`` environment variable (error, info, debug)
controls log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .data import Dataset, load_dataset, save_dataset
from .evaluation import AblationCell, ablate, emit_report, evaluate
from .metric import METRIC_KINDS, MetricKind, metric_distance
from .network import DIRECTIONS, NetConfig, gradient_check
from .synthetic import ModalitySpec, SynthConfig, generate
from .training import TrainConfig, load_checkpoint, save_checkpoint, save_history, train

log = logging.getLogger("zsl_embed")

GRADCHECK_TOLERANCE = 1e-6

_ABLATE_KEYS = {"subsets", "directions", "metrics"}


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(os.environ.get("ZSL_EMBED_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


# ---------------------------------------------------------------------------
# config file handling


def read_config_file(path: str) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config not found: {path}")
    entries: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in linenos:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key}, set on line {linenos[key]}")
        linenos[key] = lineno
        entries[key] = value.strip()
    _check_keys(path, entries)
    return entries


def _config_keys(cls) -> set[str]:
    """A config dataclass's fields that a file may set: those with a default."""
    return {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _check_keys(path: str, entries: dict[str, str]) -> None:
    known = {
        "net": _config_keys(NetConfig),
        "train": _config_keys(TrainConfig),
        "synth": _config_keys(SynthConfig),
        "metric": _config_keys(MetricKind),
        "ablate": _ABLATE_KEYS,
    }
    for key in entries:
        section, _, field = key.partition(".")
        if section not in known or field not in known[section]:
            raise ValueError(f"{path}: unknown config key: {key}")


def _parse_value(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"config key {key}: invalid value {value!r}") from None


def _parse_modality_specs(value: str) -> tuple[ModalitySpec, ...]:
    """Parse ``TAG:dim[:fraction[:sigma]]`` items separated by commas."""
    specs = []
    for item in value.split(","):
        parts = item.strip().split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(
                f"bad modality spec {item!r}, expected TAG:dim[:fraction[:sigma]]"
            )
        given = [_parse_value("synth.modalities", v, kind)
                 for v, kind in zip(parts[1:], (int, float, float))]
        specs.append(ModalitySpec(parts[0], *given))  # its defaults fill the parts not given
    return tuple(specs)


def _config_from(cls, section: str, entries: dict[str, str], **given):
    """Build ``cls`` from the ``section.field`` entries, then the given values that are not None.

    Each value parses as the type of its field's default; ``synth.modalities``
    as ``TAG:dim[:fraction[:sigma]]`` items.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kw = {}
    for key, value in entries.items():
        prefix, _, field = key.partition(".")
        if prefix != section:
            continue
        if key == "synth.modalities":
            kw[field] = _parse_modality_specs(value)
        else:
            kw[field] = _parse_value(key, value, type(defaults[field]))
    kw.update((field, value) for field, value in given.items() if value is not None)
    return cls(**kw)


def _net_config(
    entries: dict[str, str], dataset: Dataset, tags: tuple[str, ...] | None, direction: str | None
) -> NetConfig:
    """The net config for ``tags`` of the dataset; ``net.embed_dim`` must match its visual dim."""
    visual_dim = dataset.visual.dim
    config = _config_from(
        NetConfig, "net", {"net.embed_dim": str(visual_dim), **entries},
        modality_dims=dataset.modality_dims(tags), direction=direction,
    )
    if config.embed_dim != visual_dim:
        raise ValueError(
            f"net.embed_dim {config.embed_dim} does not match dataset visual dim {visual_dim}"
        )
    return config


def _parse_metric_label(label: str) -> MetricKind:
    label = label.strip()
    try:
        return MetricKind.from_label(label)
    except ValueError as exc:
        raise ValueError(f"config key ablate.metrics: bad label {label!r}: {exc}") from None


def _parse_tags(value: str) -> tuple[str, ...]:
    tags = tuple(t.strip() for t in value.split(",") if t.strip())
    if not tags:
        raise ValueError(f"no modality tags in {value!r}")
    return tags


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    entries = read_config_file(args.config) if args.config else {}
    config = _config_from(SynthConfig, "synth", entries, seed=args.seed)
    dataset = generate(config)
    save_dataset(dataset, args.out)
    log.info("generated dataset with seed %d", config.seed)
    print(
        f"wrote dataset: {config.n_classes} classes ({config.n_seen} seen), "
        f"{dataset.visual.rows} train / {dataset.test_visual.rows} test samples -> {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    entries = read_config_file(args.config) if args.config else {}
    dataset = load_dataset(args.data)
    tags = _parse_tags(args.modalities) if args.modalities else dataset.modality_tags
    net_config = _net_config(entries, dataset, tags, args.direction)
    train_config = _config_from(TrainConfig, "train", entries, seed=args.seed)
    log.info(
        "training %s on %d samples, %d epochs", "+".join(tags),
        dataset.visual.rows, train_config.epochs,
    )
    model, history = train(dataset, net_config, train_config, tags)
    out = Path(args.out)
    save_checkpoint(model, out)
    history_path = out.with_name(out.stem + "_history.csv")
    save_history(history, history_path)
    log.info("loss %.6g -> %.6g", history.losses[0], history.losses[-1])
    print(f"trained {len(history)} epochs -> {out} (history: {history_path})")
    return 0


def _cmd_eval(args) -> int:
    entries = read_config_file(args.config) if args.config else {}
    dataset = load_dataset(args.data)
    model = load_checkpoint(args.checkpoint)
    tags = model.config.check_active(
        _parse_tags(args.modalities) if args.modalities else model.config.tags
    )
    metric = _config_from(MetricKind, "metric", entries, kind=args.metric, eta=args.eta)
    result = evaluate(model, dataset, metric, tags)
    print(
        f"top1 {result.top1:.4f} top5 {result.top5:.4f} "
        f"({dataset.test_visual.rows} samples, {len(result.class_ids)} classes, "
        f"metric {metric.label()}, direction {model.direction})"
    )
    if args.out:
        emit_report([AblationCell(tags, model.direction, metric, result)], "csv", args.out)
    return 0


def _cmd_ablate(args) -> int:
    entries = read_config_file(args.config) if args.config else {}
    dataset = load_dataset(args.data)
    grid = {}
    if "ablate.subsets" in entries:
        grid["subsets"] = [_parse_tags(s.replace("+", ",")) for s in entries["ablate.subsets"].split(";")]
    if "ablate.directions" in entries:
        grid["directions"] = tuple(d.strip() for d in entries["ablate.directions"].split(","))
    if "ablate.metrics" in entries:
        metrics = tuple(_parse_metric_label(m) for m in entries["ablate.metrics"].split(","))
    else:
        metrics = (_config_from(MetricKind, "metric", entries), MetricKind.euclidean())
    net_config = _net_config(entries, dataset, None, None)
    train_config = _config_from(TrainConfig, "train", entries, seed=args.seed)
    log.info("ablation grid: %d jobs", args.jobs)
    cells = ablate(dataset, net_config, train_config, metrics=metrics, jobs=args.jobs, **grid)
    emit_report(cells, args.format, args.out)
    print(f"wrote {len(cells)} cells -> {args.out}")
    return 0


def _parse_vector(text: str) -> np.ndarray:
    try:
        vector = np.asarray([float(t) for t in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"bad vector {text!r}, expected comma-separated numbers") from None
    if not np.all(np.isfinite(vector)):
        raise ValueError(f"bad vector {text!r}, every component must be finite")
    return vector


def _cmd_distance(args) -> int:
    metric = _config_from(MetricKind, "metric", {}, kind=args.metric, eta=args.eta)
    a, b = _parse_vector(args.a), _parse_vector(args.b)
    print(f"{metric_distance(a, b, metric):.6f}")
    return 0


def _cmd_gradcheck(args) -> int:
    error = gradient_check(seed=args.seed if args.seed is not None else 0)
    print(f"max relative error {error:.3e}")
    return 0 if error < GRADCHECK_TOLERANCE else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsl-embed",
        description="Zero-shot embedding toolkit: synthesize data, train fusion "
        "embeddings, evaluate nearest-prototype classification, run ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    common(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train an embedding model on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--direction", choices=DIRECTIONS, help="embedding direction")
    p.add_argument("--modalities", help="comma-separated modality tags (default: all)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--metric", choices=METRIC_KINDS, help="distance metric")
    p.add_argument("--eta", type=float, help="cosine weight for the ec metric")
    p.add_argument("--modalities", help="comma-separated modality tags")
    p.add_argument("--out", help="optional CSV result path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="train and score a modality/direction/metric grid")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--jobs", type=int, default=1, help="parallel training processes")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("distance", help="compute one distance value")
    p.add_argument("--metric", choices=METRIC_KINDS, required=True)
    p.add_argument("--eta", type=float, help="cosine weight for the ec metric")
    p.add_argument("--a", required=True, help="first vector, comma-separated")
    p.add_argument("--b", required=True, help="second vector, comma-separated")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    p.add_argument("--seed", type=int, help="seed for the random instances")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the array's shape and size
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
