import dataclasses
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zsl_embed
from zsl_embed import evaluation
from zsl_embed.cli import _CONFIG_KEYS, _config_from, build_parser, dispatch, read_config_file
from zsl_embed.data import load_dataset
from zsl_embed.evaluation import REPORT_HEADER, AblationCell, EvalResult, cell_seed
from zsl_embed.metric import MetricKind
from zsl_embed.network import NetConfig, V_TO_S
from zsl_embed.synthetic import ModalitySpec, SynthConfig
from zsl_embed.training import TrainConfig, load_checkpoint

PIPELINE_CFG = """\
# small instance so the whole pipeline runs in seconds
synth.n_classes = 6
synth.n_seen = 4
synth.samples_per_class = 4
synth.latent_dim = 6
synth.embed_dim = 16
synth.modalities = A:5,B:4

net.head_hidden = 6
net.head_out = 8

train.epochs = 2
train.batch_size = 8
train.lr = 0.001

ablate.subsets = A;B;A+B
ablate.directions = s2v
ablate.metrics = ec:0.9
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(PIPELINE_CFG)
    return p


# ---------------------------------------------------------------------------
# small commands


def test_distance_ec(capsys):
    assert dispatch(["distance", "--metric", "ec", "--eta", "0.9",
                     "--a", "1,0", "--b", "1.6,0"]) == 0
    assert capsys.readouterr().out == "0.036000\n"


def test_distance_euclidean(capsys):
    assert dispatch(["distance", "--metric", "euclidean", "--a", "0,0", "--b", "3,4"]) == 0
    assert capsys.readouterr().out == "25.000000\n"


def test_distance_bad_vector(capsys):
    assert dispatch(["distance", "--metric", "euclidean", "--a", "1,oops", "--b", "0,0"]) == 1
    assert "bad vector" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["nan,0", "inf,0"])
def test_distance_rejects_a_non_finite_component(a, capsys):
    assert dispatch(["distance", "--metric", "ec", "--a", a, "--b", "1,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad vector {a!r}, every component must be finite\n"


@pytest.mark.parametrize(
    "metric, a, b",
    [
        ("ec:0.9", "1e200,1e200", "-1e200,-1e200"),
        ("cosine", "1e200,1e200", "1e200,1e200"),
        ("euclidean", "1e200", "-1e200"),
    ],
)
def test_distance_whose_square_overflows_is_an_error(metric, a, b, capsys):
    kind = metric.partition(":")[0]
    # pyproject.toml turns warnings into errors, so no RuntimeWarning may escape either
    assert dispatch(["distance", "--metric", kind, f"--a={a}", f"--b={b}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: non-finite {re.escape(metric)} distance (nan|inf) between --a and --b\n", captured.err)


def test_distance_vector_with_a_leading_minus_takes_the_equals_form(capsys):
    # (1 + 0.9) * 4: the vectors are opposite, 2 apart
    for argv in (["--a=-1,0", "--b", "1,0"], ["--a", "1,0", "--b=-1,0"]):
        assert dispatch(["distance", "--metric", "ec", *argv]) == 0
        assert capsys.readouterr().out == "7.600000\n"
    # without "=", argparse reads -1,0 as an option
    assert dispatch(["distance", "--metric", "ec", "--a", "-1,0", "--b", "1,0"]) == 2
    assert "argument --a: expected one argument" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    # 7 and 17 read the two largest errors of seeds 0-19, 2.9e-7 and 2.2e-7
    for seed in ("7", "17"):
        assert dispatch(["gradcheck", "--seed", seed]) == 0
        out = capsys.readouterr().out
        assert out.startswith("max relative error ")
        assert float(out.rsplit(" ", 1)[1]) < 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["synth", "--help"],
        ["train", "--help"],
        ["eval", "--help"],
        ["ablate", "--help"],
        ["distance", "--help"],
        ["gradcheck", "--help"],
    ],
)
def test_help_exits_zero(argv, capsys):
    assert dispatch(argv) == 0
    capsys.readouterr()


def test_unknown_subcommand():
    assert dispatch(["frobnicate"]) != 0


def test_unknown_flag():
    assert dispatch(["gradcheck", "--frobnicate"]) != 0


# ---------------------------------------------------------------------------
# config files


def test_config_not_found(capsys, tmp_path):
    assert dispatch(["synth", "--config", "missing.cfg", "--out", str(tmp_path / "d")]) == 1
    assert "error: config not found: missing.cfg" in capsys.readouterr().err


def test_unknown_config_key(capsys, tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("net.bogus = 3\n")
    assert dispatch(["synth", "--config", str(p), "--out", str(tmp_path / "d")]) == 1
    assert "unknown config key: net.bogus" in capsys.readouterr().err


def test_malformed_config_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("no equals sign here\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        read_config_file(str(p))


def test_duplicate_config_key(tmp_path):
    p = tmp_path / "dup.cfg"
    p.write_text("train.lr = 1e-3\ntrain.epochs = 2\n\ntrain.lr = 5\n")
    with pytest.raises(ValueError, match=r"dup.cfg:4: duplicate config key train.lr, set on line 1"):
        read_config_file(str(p))


def test_config_comments_and_blanks(tmp_path):
    p = tmp_path / "ok.cfg"
    p.write_text("\n# comment only\ntrain.lr = 0.5  # trailing comment\n\n")
    assert read_config_file(str(p)) == {"train.lr": "0.5"}


def config_text(value) -> str:
    """A config value as a file writes it; ``synth.modalities`` as ``TAG:dim`` items."""
    if isinstance(value, tuple):
        return ",".join(f"{m.tag}:{m.dim}" for m in value)
    return str(value)


@pytest.mark.parametrize(
    "cls, section, given",
    [(NetConfig, "net", {"modality_dims": {"A": 5}, "embed_dim": 7}), (TrainConfig, "train", {}),
     (SynthConfig, "synth", {}), (MetricKind, "metric", {})],
)
def test_every_config_field_is_a_key_and_its_default_parses_back(cls, section, given, tmp_path):
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    p = tmp_path / "defaults.cfg"
    p.write_text("".join(f"{section}.{f.name} = {config_text(f.default)}\n" for f in fields))
    entries = read_config_file(str(p))
    assert len(entries) == len(fields)
    assert _config_from(cls, section, entries, **given) == cls(**given)


def test_modality_specs_are_tag_dim_items(tmp_path, capsys):
    # spaces around a tag are not part of it, as for --modalities
    for value in ("W:12,C:10,I:11", "W :12, C: 10 , I :11"):
        assert _config_from(SynthConfig, "synth", {"synth.modalities": value}).modalities == (
            ModalitySpec("W", 12), ModalitySpec("C", 10), ModalitySpec("I", 11)
        ), value
    p = tmp_path / "bad.cfg"
    for value, message in [
        ("W:12:0.5", "bad modality spec 'W:12:0.5', expected TAG:dim"),
        ("W", "bad modality spec 'W', expected TAG:dim"),
        ("W:12,", "bad modality spec '', expected TAG:dim"),
        ("W:3,C:4,W:5", "duplicate modality tag 'W'"),
        ("W+X:3", "bad modality tag 'W+X'"),
        ("W X:3", "bad modality tag 'W X'"),
    ]:
        p.write_text(f"synth.modalities = {value}\n")
        assert dispatch(["synth", "--config", str(p), "--out", str(tmp_path / "d")]) == 1, value
        assert message in capsys.readouterr().err, value
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "line",
    ["train.l2_lambda = 0.1", "net.modality_dims = A:3", "train.lr_decay = 0.9", "train.beta1 = 0.9",
     "synth.visual_noise_sigma = 0.05", "net.embed_dim = 99"],
)
def test_config_rejects_keys_that_are_not_settable_fields(line, tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(line + "\n")
    with pytest.raises(ValueError, match=f"unknown config key: {line.split(' ')[0]}"):
        read_config_file(str(p))


def test_config_accepts_exactly_these_keys(tmp_path):
    # adding or removing a setting changes this list
    assert _CONFIG_KEYS == {
        "net": {"head_hidden", "head_out", "direction", "l2_lambda"},
        "train": {"optimizer", "lr", "batch_size", "epochs", "seed"},
        "synth": {"n_classes", "n_seen", "samples_per_class", "latent_dim", "embed_dim", "modalities", "seed"},
        "metric": {"kind", "eta"},
        "ablate": {"subsets", "directions", "metrics"},
    }
    keys = [f"{section}.{field}" for section, fields in _CONFIG_KEYS.items() for field in sorted(fields)]
    assert len(keys) == 21
    p = tmp_path / "all.cfg"
    p.write_text("".join(f"{key} = 1\n" for key in keys))
    assert list(read_config_file(str(p))) == keys


def test_config_given_values_override_the_file(tmp_path):
    p = tmp_path / "seed.cfg"
    p.write_text("train.seed = 3\ntrain.epochs = 7\n")
    entries = read_config_file(str(p))
    assert _config_from(TrainConfig, "train", entries, seed=None) == TrainConfig(seed=3, epochs=7)
    assert _config_from(TrainConfig, "train", entries, seed=9) == TrainConfig(seed=9, epochs=7)


def test_readme_config_example_parses(tmp_path):
    """Every README code block of ``key = value`` lines alone is a config file
    that reads back; the one after "Config files are flat" builds each config."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [[line for line in block.splitlines() if line.strip()] for block in readme.split("```")[1::2]]
    configs = [b for b in blocks if b and all(re.fullmatch(r"[\w.]+ = \S.*", line) for line in b)]
    assert len(configs) >= 2  # the config example and the Experiments grid.cfg
    for i, config in enumerate(configs):
        p = tmp_path / f"block{i}.cfg"
        p.write_text("\n".join(config) + "\n")
        read_config_file(str(p))
    example = readme.split("Config files are flat", 1)[1].split("```")[1]
    p = tmp_path / "readme.cfg"
    p.write_text(example)
    entries = read_config_file(str(p))
    assert {key.partition(".")[0] for key in entries} >= {"synth", "net", "train"}
    synth = _config_from(SynthConfig, "synth", entries)
    net = _config_from(NetConfig, "net", entries, modality_dims={m.tag: m.dim for m in synth.modalities},
                       embed_dim=synth.embed_dim)
    train = _config_from(TrainConfig, "train", entries)
    assert (synth.n_classes, net.head_out, train.epochs) == (24, 48, 200)


def test_readme_repo_paths_exist():
    root = Path(__file__).resolve().parents[1]
    cited = re.findall(r"\b(?:src|tests|scripts|bench)/[\w./-]*\w", (root / "README.md").read_text())
    assert cited
    assert [path for path in cited if not (root / path).exists()] == []


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [
        line.split("#", 1)[0]
        for block in readme.split("```")[1::2]
        for line in block.splitlines()
        if line.startswith("zsl-embed ")
    ]
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_a_non_finite_learning_rate(value, cfg_path, tmp_path, capsys):
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(PIPELINE_CFG.replace("train.epochs = 2", "train.epochs = 0").replace("0.001", value))
    ckpt = tmp_path / "m.ckpt"
    rc = dispatch(["train", "--config", str(bad), "--data", str(data), "--out", str(ckpt)])
    assert rc == 1
    assert f"lr must be positive and finite, got {value}" in capsys.readouterr().err
    assert not ckpt.exists()


# ---------------------------------------------------------------------------
# pipeline


def test_full_pipeline(cfg_path, tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    cfg = str(cfg_path)

    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    out = capsys.readouterr().out
    assert "wrote dataset" in out and "6 classes (4 seen)" in out
    for name in ("split.txt", "train_visual.zslf", "test_visual.zslf",
                 "semantic_A.zslf", "semantic_B.zslf"):
        assert (data / name).is_file(), name

    assert dispatch(["train", "--config", cfg, "--data", str(data),
                     "--out", str(ckpt)]) == 0
    assert "trained 2 epochs" in capsys.readouterr().out
    assert ckpt.is_file()
    history = (tmp_path / "model_history.csv").read_text().splitlines()
    assert history[0] == "epoch,loss,lr"
    assert len(history) == 3

    eval_csv = tmp_path / "eval.csv"
    assert dispatch(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--metric", "ec", "--eta", "0.9", "--out", str(eval_csv)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("top1 ") and " top5 " in out
    assert "metric ec:0.9" in out
    lines = eval_csv.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1].startswith("A+B,s2v,ec:0.9,")

    grid = tmp_path / "grid.csv"
    assert dispatch(["ablate", "--config", cfg, "--data", str(data),
                     "--out", str(grid)]) == 0
    assert "wrote 3 cells" in capsys.readouterr().out
    lines = grid.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert [l.split(",")[0] for l in lines[1:]] == ["A", "A+B", "B"]

    md = tmp_path / "grid.md"
    assert dispatch(["ablate", "--config", cfg, "--data", str(data),
                     "--out", str(md), "--format", "markdown"]) == 0
    capsys.readouterr()
    assert md.read_text().splitlines()[0].startswith("| modalities |")


def test_pipeline_reruns_are_byte_identical(cfg_path, tmp_path, capsys):
    cfg = str(cfg_path)
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0

    ckpts = []
    for name in ("m1.ckpt", "m2.ckpt"):
        path = tmp_path / name
        assert dispatch(["train", "--config", cfg, "--data", str(data),
                         "--out", str(path)]) == 0
        ckpts.append(path.read_bytes())
    assert ckpts[0] == ckpts[1]

    grids = []
    for name, jobs in (("g1.csv", "1"), ("g2.csv", "2")):
        path = tmp_path / name
        assert dispatch(["ablate", "--config", cfg, "--data", str(data),
                         "--out", str(path), "--jobs", jobs]) == 0
        grids.append(path.read_bytes())
    assert grids[0] == grids[1]
    capsys.readouterr()


def test_synth_seed_flag_changes_data(cfg_path, tmp_path, capsys):
    cfg = str(cfg_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert dispatch(["synth", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert dispatch(["synth", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    capsys.readouterr()
    assert (a / "train_visual.zslf").read_bytes() != (b / "train_visual.zslf").read_bytes()


def test_synth_over_a_dataset_with_other_modalities_is_refused(cfg_path, tmp_path, capsys):
    # load_dataset reads every semantic_<TAG>.zslf, so a table left from the old dataset would be
    # paired with the new one's features and split
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(data), "--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    other = tmp_path / "other.cfg"
    other.write_text(cfg_path.read_text().replace("synth.modalities = A:5,B:4", "synth.modalities = W:12"))
    capsys.readouterr()
    assert dispatch(["synth", "--config", str(other), "--out", str(data), "--seed", "2"]) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'semantic_A.zslf'}: a semantic table of a modality this dataset lacks; remove it first\n"
    )
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before  # nothing written, nothing deleted
    assert load_dataset(data).modality_tags == ("A", "B")
    # the same modalities again overwrite the dataset in place
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(data), "--seed", "2"]) == 0
    assert (data / "train_visual.zslf").read_bytes() != before["train_visual.zslf"]


def test_train_direction_flag(cfg_path, tmp_path, capsys):
    cfg = str(cfg_path)
    data = tmp_path / "data"
    ckpt = tmp_path / "v2s.ckpt"
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    assert dispatch(["train", "--config", cfg, "--data", str(data),
                     "--out", str(ckpt), "--direction", "v2s"]) == 0
    capsys.readouterr()
    model = load_checkpoint(ckpt)
    assert model.config.direction == V_TO_S
    assert any(name.startswith("vmap.") for name in model.params)


def test_eval_modality_subset_flag(cfg_path, tmp_path, capsys):
    cfg = str(cfg_path)
    data = tmp_path / "data"
    ckpt = tmp_path / "m.ckpt"
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    assert dispatch(["train", "--config", cfg, "--data", str(data),
                     "--out", str(ckpt)]) == 0
    assert dispatch(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--modalities", "A"]) == 0
    assert "top1 " in capsys.readouterr().out
    # an empty list names no modality; it does not mean all of them
    for value in ("", " , "):
        assert dispatch(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                         "--modalities", value]) == 1
        assert capsys.readouterr().err == f"error: no modality tags in {value!r}\n"
        assert dispatch(["train", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "n.ckpt"),
                         "--modalities", value]) == 1
        assert capsys.readouterr().err == f"error: no modality tags in {value!r}\n"
    assert not (tmp_path / "n.ckpt").exists()


def test_ablate_default_metrics_use_config_eta(tmp_path, capsys):
    cfg = tmp_path / "eta.cfg"
    cfg.write_text(PIPELINE_CFG.replace("ablate.metrics = ec:0.9\n", "metric.eta = 0.5\n"))
    data, grid = tmp_path / "data", tmp_path / "grid.csv"
    assert dispatch(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert dispatch(["ablate", "--config", str(cfg), "--data", str(data), "--out", str(grid)]) == 0
    capsys.readouterr()
    metrics = {line.split(",")[2] for line in grid.read_text().splitlines()[1:]}
    assert metrics == {"ec:0.5", "euclidean"}


@pytest.mark.parametrize("direction", ["s2v", "v2s"])
def test_ablate_default_directions_use_config_direction(direction, tmp_path, capsys):
    cfg = tmp_path / "direction.cfg"
    cfg.write_text(PIPELINE_CFG.replace("ablate.directions = s2v\n", f"net.direction = {direction}\n"))
    data, grid = tmp_path / "data", tmp_path / "grid.csv"
    assert dispatch(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert dispatch(["ablate", "--config", str(cfg), "--data", str(data), "--out", str(grid)]) == 0
    capsys.readouterr()
    rows = grid.read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in rows] == [direction] * 3


@pytest.mark.parametrize("kind, labels", [
    ("cosine", {"cosine", "euclidean"}),
    ("euclidean", {"euclidean"}),
])
def test_ablate_default_metrics_use_config_kind(kind, labels, tmp_path, capsys):
    cfg = tmp_path / "kind.cfg"
    cfg.write_text(PIPELINE_CFG.replace("ablate.metrics = ec:0.9\n", f"metric.kind = {kind}\n"))
    data, grid = tmp_path / "data", tmp_path / "grid.csv"
    assert dispatch(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert dispatch(["ablate", "--config", str(cfg), "--data", str(data), "--out", str(grid)]) == 0
    capsys.readouterr()
    rows = grid.read_text().splitlines()[1:]
    assert {line.split(",")[2] for line in rows} == labels
    assert len(rows) == 3 * len(labels)


def test_ablate_report_has_one_row_per_distinct_cell(tmp_path, capsys):
    cfg = tmp_path / "repeats.cfg"
    cfg.write_text(
        PIPELINE_CFG.replace("ablate.subsets = A;B;A+B", "ablate.subsets = A;A+B;B+A")
        .replace("ablate.directions = s2v", "ablate.directions = s2v,s2v")
        .replace("ablate.metrics = ec:0.9", "ablate.metrics = ec:0.9,ec")
    )
    data, csv, md = tmp_path / "data", tmp_path / "grid.csv", tmp_path / "grid.md"
    assert dispatch(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    for out, fmt in ((csv, "csv"), (md, "markdown")):
        assert dispatch(["ablate", "--config", str(cfg), "--data", str(data), "--out", str(out),
                         "--format", fmt]) == 0
    assert capsys.readouterr().out.count("wrote 2 cells") == 2
    rows = csv.read_text().splitlines()[1:]
    md_cells = [cell for line in md.read_text().splitlines()[2:]
                for cell in line.strip("| ").split(" | ")[1:] if cell != "-"]
    assert [row.split(",")[0] for row in rows] == ["A", "A+B"]
    assert len(rows) == len(md_cells) == 2


@pytest.mark.parametrize("flag", [["--direction", "s2v"], ["--metric", "ec"], ["--eta", "0.5"]])
def test_ablate_axes_come_only_from_the_config(flag, tmp_path, capsys):
    assert dispatch(["ablate", "--data", str(tmp_path), "--out", str(tmp_path / "g.csv"), *flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_eval_takes_no_seed(tmp_path, capsys):
    argv = ["eval", "--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(tmp_path)]
    assert dispatch([*argv, "--seed", "-5"]) == 2
    assert "unrecognized arguments: --seed -5" in capsys.readouterr().err


def test_eval_of_a_signalling_nan_feature_prints_only_its_error_line(cfg_path, tmp_path, capsys):
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    capsys.readouterr()
    feature = data / "test_visual.zslf"
    raw = bytearray(feature.read_bytes())
    (rows,) = struct.unpack_from("<Q", raw, 8)
    struct.pack_into("<I", raw, 24 + 8 * rows, 0x7FA00000)  # row 0's first value
    feature.write_bytes(bytes(raw))
    # a child process, so that numpy's cast warning would print as it does on the CLI
    src = str(Path(zsl_embed.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "zsl_embed.cli", "eval", "--checkpoint", str(tmp_path / "m.ckpt"),
         "--data", str(data)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {feature}: non-finite value at row 0\n"


def test_readme_experiments_grid_has_sixty_rows(tmp_path, monkeypatch, capsys):
    """README's Experiments grid.cfg sets no ablate. key, so ablate's defaults make the 15x2x2 grid."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    experiments = readme.split("## Experiments", 1)[1]
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(experiments.split("`grid.cfg`", 1)[1].split("```")[1])
    assert not any(key.startswith("ablate.") for key in read_config_file(str(cfg)))

    def untrained_cell(task, dataset=None):
        net, _, subset, metrics = task
        result = EvalResult(0.0, 0.0, {}, np.zeros((1, 1), dtype=np.int64), (0,))
        return [AblationCell(subset, net.direction, metric, result) for metric in metrics]

    monkeypatch.setattr(evaluation, "_run_cell", untrained_cell)
    data, grid = tmp_path / "data", tmp_path / "grid.csv"
    assert dispatch(["synth", "--seed", "1", "--out", str(data)]) == 0
    assert dispatch(["ablate", "--config", str(cfg), "--data", str(data), "--seed", "1",
                     "--out", str(grid)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in grid.read_text().splitlines()[1:]]
    assert len(rows) == 15 * 2 * 2
    assert len({r[0] for r in rows}) == 15
    assert {r[1] for r in rows} == {"s2v", "v2s"}
    assert {r[2] for r in rows} == {"ec:0.9", "euclidean"}


def test_negative_seed_is_an_error_that_names_it(cfg_path, tmp_path, capsys):
    cfg, data, ckpt = str(cfg_path), tmp_path / "data", tmp_path / "m.ckpt"
    assert dispatch(["synth", "--config", cfg, "--out", str(data), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: synth seed must be >= 0, got -1\n"
    assert not data.exists()
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    assert dispatch(["train", "--config", cfg, "--data", str(data), "--out", str(ckpt),
                     "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
    assert not ckpt.exists()
    grid = tmp_path / "grid.csv"
    assert dispatch(["ablate", "--config", cfg, "--data", str(data), "--out", str(grid),
                     "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: ablate seed must be in [0, 4294967296), got -1\n"
    assert not grid.exists()
    assert dispatch(["gradcheck", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: gradcheck seed must be >= 0, got -1\n"


DIVERGING_CFG = """\
net.head_hidden = 32
net.head_out = 48
train.optimizer = sgd
train.lr = 5
train.epochs = 2
ablate.subsets = W;C+I
ablate.directions = s2v,v2s
"""


def test_failing_ablate_cell_names_itself(tmp_path, capsys):
    data, cfg = tmp_path / "data", tmp_path / "div.cfg"
    cfg.write_text(DIVERGING_CFG)
    assert dispatch(["synth", "--seed", "1", "--out", str(data)]) == 0
    capsys.readouterr()
    errors = []
    for jobs in ("1", "2"):
        assert dispatch(["ablate", "--config", str(cfg), "--data", str(data), "--seed", "1",
                         "--jobs", jobs, "--out", str(tmp_path / "grid.csv")]) == 1
        errors.append(capsys.readouterr().err)
    cell = f"cell W s2v (seed {cell_seed(1, ('W',), 's2v')})"
    assert errors[0].startswith(f"error: {cell}: training diverged: loss ")
    assert errors[1] == errors[0]
    assert not (tmp_path / "grid.csv").exists()


def test_ablate_seed_must_fit_in_32_bits(cfg_path, tmp_path, capsys):
    cfg, data, grid = str(cfg_path), tmp_path / "data", tmp_path / "grid.csv"
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    ablate = ["ablate", "--config", cfg, "--data", str(data), "--out", str(grid), "--seed"]
    assert dispatch([*ablate, "4294967296"]) == 1
    assert capsys.readouterr().err == "error: ablate seed must be in [0, 4294967296), got 4294967296\n"
    assert not grid.exists()
    assert dispatch([*ablate, "4294967295"]) == 0
    assert len(grid.read_text().splitlines()) == 4


def test_eval_prints_one_metric_label_from_flags_or_config(cfg_path, tmp_path, capsys):
    cfg, data, ckpt = str(cfg_path), tmp_path / "data", tmp_path / "m.ckpt"
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    assert dispatch(["train", "--config", cfg, "--data", str(data), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    metric_cfg = tmp_path / "metric.cfg"
    for flags, lines, label in [
        ([], "", "ec:0.9"),
        (["--metric", "ec", "--eta", "0.5"], "metric.eta = 0.5\n", "ec:0.5"),
        (["--metric", "cosine", "--eta", "0.5"], "metric.kind = cosine\nmetric.eta = 0.5\n", "cosine"),
        (["--metric", "euclidean"], "metric.kind = euclidean\n", "euclidean"),
    ]:
        metric_cfg.write_text(lines)
        outs = []
        for argv in (flags, ["--config", str(metric_cfg)]):
            assert dispatch(["eval", "--checkpoint", str(ckpt), "--data", str(data), *argv]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert f", metric {label}, " in outs[0]


@pytest.mark.parametrize("label, detail", [
    ("ec:abc", "could not convert string to float: 'abc'"),
    ("bogus", "unknown metric kind 'bogus', expected one of"),
], ids=["bad-eta", "unknown-kind"])
def test_bad_ablate_metric_label_names_the_key(label, detail, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(PIPELINE_CFG.replace("ablate.metrics = ec:0.9", f"ablate.metrics = euclidean, {label}"))
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    assert dispatch(["ablate", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "grid.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key ablate.metrics: bad label {label!r}: {detail}")


def test_eval_out_row_names_the_evaluated_modalities(cfg_path, tmp_path, capsys):
    cfg = str(cfg_path)
    data, ckpt, out = tmp_path / "data", tmp_path / "m.ckpt", tmp_path / "e.csv"
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    assert dispatch(["train", "--config", cfg, "--data", str(data), "--out", str(ckpt)]) == 0
    assert dispatch(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--modalities", "A,A", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines()[1].startswith("A,s2v,ec:0.9,")


def test_out_of_memory_is_an_error_line(cfg_path, tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    message = "Unable to allocate 469. MiB for an array with shape (60000, 1024) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("zsl_embed.cli.train", exhausted)
    capsys.readouterr()
    argv = ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(tmp_path / "m.ckpt")]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_log_switch_turns_on_the_training_lines(cfg_path, tmp_path, monkeypatch, capsys, caplog):
    monkeypatch.delenv("ZSL_EMBED_LOG", raising=False)
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    argv = ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(tmp_path / "m.ckpt")]
    assert dispatch(argv) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "zsl_embed"] == []
    monkeypatch.setenv("ZSL_EMBED_LOG", "info")
    assert dispatch(argv) == 0
    lines = [r.getMessage() for r in caplog.records if r.name == "zsl_embed"]
    assert len(lines) == 2, lines
    assert re.fullmatch(r"training A\+B on \d+ samples, \d+ epochs", lines[0])
    assert re.fullmatch(r"loss \S+ -> \S+", lines[1])
    capsys.readouterr()


def test_log_env_values(monkeypatch, capsys):
    for value in ("debug", "nonsense"):
        monkeypatch.setenv("ZSL_EMBED_LOG", value)
        assert dispatch(["distance", "--metric", "euclidean", "--a", "1", "--b", "0"]) == 0
    capsys.readouterr()
