import numpy as np
import pytest

from zsl_embed.cli import dispatch, read_config_file
from zsl_embed.evaluation import REPORT_HEADER
from zsl_embed.network import V_TO_S
from zsl_embed.training import load_checkpoint

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


def test_gradcheck_passes(capsys):
    assert dispatch(["gradcheck", "--seed", "7"]) == 0
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


def test_config_comments_and_blanks(tmp_path):
    p = tmp_path / "ok.cfg"
    p.write_text("\n# comment only\ntrain.lr = 0.5  # trailing comment\n\n")
    assert read_config_file(str(p)) == {"train.lr": "0.5"}


def test_net_embed_dim_mismatch(cfg_path, tmp_path, capsys):
    data = tmp_path / "data"
    assert dispatch(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(PIPELINE_CFG + "net.embed_dim = 99\n")
    rc = dispatch(["train", "--config", str(bad), "--data", str(data),
                   "--out", str(tmp_path / "m.ckpt")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "does not match" in captured.err


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


def test_train_direction_flag(cfg_path, tmp_path, capsys):
    cfg = str(cfg_path)
    data = tmp_path / "data"
    ckpt = tmp_path / "v2s.ckpt"
    assert dispatch(["synth", "--config", cfg, "--out", str(data)]) == 0
    assert dispatch(["train", "--config", cfg, "--data", str(data),
                     "--out", str(ckpt), "--direction", "v2s"]) == 0
    capsys.readouterr()
    model = load_checkpoint(ckpt)
    assert model.direction == V_TO_S
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


def test_log_env_values(monkeypatch, capsys):
    for value in ("debug", "nonsense"):
        monkeypatch.setenv("ZSL_EMBED_LOG", value)
        assert dispatch(["distance", "--metric", "euclidean", "--a", "1", "--b", "0"]) == 0
    capsys.readouterr()
