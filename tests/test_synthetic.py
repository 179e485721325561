import math

import numpy as np
import pytest

from zsl_embed.synthetic import (
    DEFAULT_MODALITIES,
    ModalitySpec,
    SynthConfig,
    _coordinate_subsets,
    generate,
)


def test_modality_spec_validation():
    with pytest.raises(ValueError):
        ModalitySpec("", 4)
    with pytest.raises(ValueError):
        ModalitySpec("A", 0)
    with pytest.raises(ValueError):
        ModalitySpec("A", 4, information_fraction=0.0)
    with pytest.raises(ValueError):
        ModalitySpec("A", 4, information_fraction=1.1)
    with pytest.raises(ValueError):
        ModalitySpec("A", 4, noise_sigma=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="modality A: noise_sigma must be finite"):
            ModalitySpec("A", 4, noise_sigma=bad)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_classes=1, n_seen=0)
    with pytest.raises(ValueError):
        SynthConfig(n_seen=24)
    with pytest.raises(ValueError):
        SynthConfig(samples_per_class=0)
    with pytest.raises(ValueError):
        SynthConfig(modalities=())
    with pytest.raises(ValueError, match="duplicate"):
        SynthConfig(modalities=(ModalitySpec("W", 3), ModalitySpec("W", 4)))
    with pytest.raises(ValueError):
        SynthConfig(visual_noise_sigma=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="visual_noise_sigma must be finite"):
            SynthConfig(visual_noise_sigma=bad)


def test_generate_is_deterministic():
    a = generate(SynthConfig(seed=42))
    b = generate(SynthConfig(seed=42))
    assert a.visual.values.tobytes() == b.visual.values.tobytes()
    assert a.test_visual.values.tobytes() == b.test_visual.values.tobytes()
    assert a.seen == b.seen and a.unseen == b.unseen
    for ta, tb in zip(a.semantics, b.semantics):
        assert ta.modality == tb.modality
        assert ta.vectors.labels.tobytes() == tb.vectors.labels.tobytes()
        assert ta.vectors.values.tobytes() == tb.vectors.values.tobytes()


def test_generate_seed_changes_data():
    a = generate(SynthConfig(seed=0))
    b = generate(SynthConfig(seed=1))
    assert a.visual.values.tobytes() != b.visual.values.tobytes()


def test_default_shapes_and_split():
    cfg = SynthConfig()
    ds = generate(cfg)
    assert ds.visual.rows == cfg.n_seen * cfg.samples_per_class
    assert ds.test_visual.rows == (cfg.n_classes - cfg.n_seen) * cfg.samples_per_class
    assert ds.visual.dim == ds.test_visual.dim == cfg.embed_dim
    assert len(ds.seen) == cfg.n_seen
    assert len(ds.unseen) == cfg.n_classes - cfg.n_seen
    assert ds.seen | ds.unseen == set(range(cfg.n_classes))
    assert ds.modality_tags == ("C", "I", "T", "W")
    dims = ds.modality_dims()
    assert dims == {"C": 10, "I": 11, "T": 9, "W": 12}


def test_visual_features_non_negative():
    ds = generate(SynthConfig(seed=7, visual_noise_sigma=0.5))
    assert (ds.visual.values >= 0).all()
    assert (ds.test_visual.values >= 0).all()


def test_noiseless_visual_repeats_class_anchor_image():
    spec = (ModalitySpec("A", 8, noise_sigma=0.0),)
    cfg = SynthConfig(n_classes=4, n_seen=2, samples_per_class=3, latent_dim=6,
                      embed_dim=12, modalities=spec, visual_noise_sigma=0.0, seed=3)
    ds = generate(cfg)
    for m in (ds.visual, ds.test_visual):
        for cls in m.class_ids():
            rows = m.values[m.labels == cls]
            assert np.ptp(rows, axis=0).max() == 0.0


def test_noiseless_full_information_semantics_have_full_rank():
    # with fraction 1.0 and no noise the table is an injective linear image
    # of the class anchors, so the centered table has latent_dim rank
    spec = (ModalitySpec("A", 20, information_fraction=1.0, noise_sigma=0.0),)
    cfg = SynthConfig(n_classes=12, n_seen=8, samples_per_class=2, latent_dim=5,
                      embed_dim=16, modalities=spec, seed=11)
    ds = generate(cfg)
    table = ds.table("A").matrix(range(12))
    assert np.linalg.matrix_rank(table - table.mean(axis=0)) == 5


def test_coordinate_subsets_cover_and_balance():
    rng = np.random.default_rng(0)
    subsets = _coordinate_subsets(DEFAULT_MODALITIES, 16, rng)
    assert set(subsets) == {"W", "C", "I", "T"}
    coverage = np.zeros(16, dtype=int)
    for picked in subsets.values():
        assert len(picked) == 8
        assert sorted(picked.tolist()) == picked.tolist()
        coverage[picked] += 1
    # four halves of 16 coordinates: every coordinate seen exactly twice
    assert (coverage == 2).all()


def test_coordinate_subsets_small_fraction_still_nonempty():
    rng = np.random.default_rng(1)
    spec = (ModalitySpec("A", 3, information_fraction=0.01),)
    subsets = _coordinate_subsets(spec, 10, rng)
    assert len(subsets["A"]) == 1


def test_modalities_observe_different_coordinates():
    ds0 = generate(SynthConfig(seed=0))
    tables = {t.modality: t.matrix(sorted(ds0.seen | ds0.unseen)) for t in ds0.semantics}
    # distinct subsets + distinct projections: no two tables correlated
    flat = {tag: m.ravel() for tag, m in tables.items()}
    assert abs(np.corrcoef(flat["W"][:90], flat["C"][:90])[0, 1]) < 0.9
