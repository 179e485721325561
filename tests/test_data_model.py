import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsl_embed.data import (
    Dataset,
    FeatureMatrix,
    SemanticTable,
    class_prototypes,
    l2_normalize_rows,
    load_dataset,
    load_feature_matrix,
    load_semantic_table,
    load_split,
    make_dataset,
    save_dataset,
    save_feature_matrix,
    save_semantic_table,
    save_split,
)


def small_matrix():
    return FeatureMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([0, 1]))


def toy_dataset(n_mod=2):
    rng = np.random.default_rng(0)
    visual = FeatureMatrix(rng.uniform(0, 1, (6, 4)), np.array([0, 0, 1, 1, 2, 2]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (4, 4)), np.array([3, 3, 4, 4]))
    tables = [
        SemanticTable(tag, {c: rng.normal(size=3) for c in range(5)})
        for tag in ("A", "B")[:n_mod]
    ]
    return make_dataset(visual, test_visual, tables, {0, 1, 2}, {3, 4})


# ---------------------------------------------------------------------------
# containers


def test_feature_matrix_shape_and_labels():
    m = small_matrix()
    assert m.rows == 2 and m.dim == 3
    assert m.class_ids() == [0, 1]


def test_feature_matrix_rejects_nan():
    with pytest.raises(ValueError, match="non-finite value at row 0"):
        FeatureMatrix(np.array([[np.nan, 1.0]]), np.array([0]))


def test_feature_matrix_rejects_label_mismatch():
    with pytest.raises(ValueError, match="labels"):
        FeatureMatrix(np.ones((3, 2)), np.array([0, 1]))


def test_feature_matrix_is_read_only():
    m = small_matrix()
    with pytest.raises(ValueError):
        m.values[0, 0] = 9.0


def test_containers_leave_caller_arrays_writable():
    values, labels, vec = np.ones((2, 3)), np.array([0, 1]), np.ones(3)
    m = FeatureMatrix(values, labels)
    t = SemanticTable("A", {0: vec})
    assert values.flags.writeable and labels.flags.writeable and vec.flags.writeable
    values[0, 0] = labels[0] = vec[0] = 7
    # the containers hold their own frozen copies
    assert m.values[0, 0] == 1.0 and m.labels[0] == 0 and t.vectors[0][0] == 1.0
    assert not m.values.flags.writeable and not t.vectors[0].flags.writeable


def test_semantic_table_dim_consistency():
    with pytest.raises(ValueError, match="dim"):
        SemanticTable("W", {0: np.ones(3), 1: np.ones(4)})


def test_semantic_table_matrix_missing_class():
    table = SemanticTable("W", {0: np.ones(2)})
    with pytest.raises(ValueError, match="class 144 missing from modality W"):
        table.matrix([144])


def test_dataset_overlap_rejected():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([0]))
    with pytest.raises(ValueError, match="splits overlap"):
        make_dataset(
            visual,
            visual,
            [SemanticTable("W", {0: np.ones(2)})],
            seen={0},
            unseen={0},
        )


def test_dataset_semantic_coverage_message():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([0]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([144]))
    table = SemanticTable("W", {0: np.ones(2)})  # covers only the seen class
    with pytest.raises(ValueError, match="class 144 missing from modality W"):
        make_dataset(visual, test_visual, [table], {0}, {144})


def test_dataset_rejects_mislabeled_samples():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([7]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([1]))
    tables = [SemanticTable("W", {0: np.ones(2), 1: np.ones(2)})]
    with pytest.raises(ValueError, match="class 7"):
        make_dataset(visual, test_visual, tables, {0}, {1})


def test_dataset_rejects_extra_semantic_classes():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([0]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([1]))
    tables = [SemanticTable("W", {0: np.ones(2), 1: np.ones(2), 9: np.ones(2)})]
    with pytest.raises(ValueError, match="class 9 of modality W not in the split"):
        make_dataset(visual, test_visual, tables, {0}, {1})


def test_dataset_helpers():
    ds = toy_dataset()
    assert ds.modality_tags == ("A", "B")
    assert ds.modality_dims() == {"A": 3, "B": 3}
    batch = ds.semantic_batch(("A",), [3, 3, 4])
    assert batch["A"].shape == (3, 3)
    np.testing.assert_array_equal(batch["A"][0], batch["A"][1])


# ---------------------------------------------------------------------------
# prototypes and normalization


def test_class_prototypes_two_point_mean():
    m = FeatureMatrix(np.array([[1.0, 3.0], [3.0, 1.0]]), np.array([0, 0]))
    table = class_prototypes(m)
    np.testing.assert_array_equal(table.vectors[0], [2.0, 2.0])


def test_class_prototypes_multi_class():
    m = FeatureMatrix(
        np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 4.0]]), np.array([0, 0, 1])
    )
    table = class_prototypes(m)
    np.testing.assert_allclose(table.vectors[0], [0.5, 0.5])
    np.testing.assert_array_equal(table.vectors[1], [4.0, 4.0])


def test_class_prototypes_single_row_identity():
    m = FeatureMatrix(np.array([[5.0, 5.0, 5.0]]), np.array([1]))
    np.testing.assert_array_equal(class_prototypes(m).vectors[1], [5.0, 5.0, 5.0])


def test_class_prototypes_permutation_invariant():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(20, 4))
    labels = rng.integers(0, 3, size=20)
    perm = rng.permutation(20)
    a = class_prototypes(FeatureMatrix(values, labels))
    b = class_prototypes(FeatureMatrix(values[perm], labels[perm]))
    for cls in a.class_ids():
        np.testing.assert_allclose(a.vectors[cls], b.vectors[cls], rtol=1e-12)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_class_prototypes_match_loop_oracle(rows):
    values = np.array([r[1] for r in rows])
    labels = np.array([r[0] for r in rows])
    table = class_prototypes(FeatureMatrix(values, labels))
    for cls in sorted(set(labels.tolist())):
        member_rows = [r[1] for r in rows if r[0] == cls]
        expect = [sum(col) / len(member_rows) for col in zip(*member_rows)]
        np.testing.assert_allclose(table.vectors[cls], expect, rtol=1e-6, atol=1e-12)


def test_l2_normalize_rows_examples():
    m = FeatureMatrix(
        np.array([[3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]),
        np.array([0, 1, 2]),
    )
    out = l2_normalize_rows(m)
    np.testing.assert_allclose(out.values[0], [0.6, 0.8, 0.0, 0.0])
    np.testing.assert_array_equal(out.values[1], [0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(out.values[2], [0.5, 0.5, 0.5, 0.5])


def test_l2_normalize_rows_idempotent():
    rng = np.random.default_rng(5)
    m = FeatureMatrix(rng.normal(size=(10, 6)), np.zeros(10, dtype=int))
    once = l2_normalize_rows(m)
    twice = l2_normalize_rows(once)
    np.testing.assert_allclose(twice.values, once.values, rtol=1e-6)


# ---------------------------------------------------------------------------
# file formats


def test_csv_parse_example(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0,1.0,2.0,3.0\n1,4.0,5.0,6.0\n")
    m = load_feature_matrix(p, format="csv")
    assert m.rows == 2 and m.dim == 3
    assert m.labels.tolist() == [0, 1]
    np.testing.assert_array_equal(m.values, [[1, 2, 3], [4, 5, 6]])


def test_empty_file_malformed_header(tmp_path):
    p = tmp_path / "empty.zslf"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="malformed header"):
        load_feature_matrix(p)
    q = tmp_path / "empty.csv"
    q.write_text("")
    with pytest.raises(ValueError, match="malformed header"):
        load_feature_matrix(q, format="csv")


def test_binary_nan_payload_reports_row(tmp_path):
    header = struct.pack("<4sIQQ", b"ZSLF", 1, 1, 2)
    payload = struct.pack("<Q", 0) + struct.pack("<2f", 1.0, float("nan"))
    p = tmp_path / "bad.zslf"
    p.write_bytes(header + payload)
    with pytest.raises(ValueError, match="non-finite value at row 0"):
        load_feature_matrix(p)


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "bad.zslf"
    p.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(ValueError, match="malformed header"):
        load_feature_matrix(p)


def test_binary_unsupported_version(tmp_path):
    p = tmp_path / "bad.zslf"
    p.write_bytes(struct.pack("<4sIQQ", b"ZSLF", 999, 0, 1))
    with pytest.raises(ValueError, match="unsupported version"):
        load_feature_matrix(p)


def test_binary_truncated_payload(tmp_path):
    m = small_matrix()
    p = tmp_path / "m.zslf"
    save_feature_matrix(m, p)
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(ValueError, match="corrupted payload"):
        load_feature_matrix(p)


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
    m = FeatureMatrix(values, rng.integers(0, 9, size=7))
    p = tmp_path / "m.zslf"
    save_feature_matrix(m, p)
    back = load_feature_matrix(p)
    assert back.values.tobytes() == m.values.tobytes()
    assert back.labels.tolist() == m.labels.tolist()
    save_feature_matrix(back, tmp_path / "again.zslf")
    assert (tmp_path / "again.zslf").read_bytes() == p.read_bytes()


@settings(max_examples=25)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_binary_round_trip_random(rows, dim, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, dim)).astype(np.float32).astype(np.float64)
    m = FeatureMatrix(values, rng.integers(0, 50, size=rows))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.zslf"
        save_feature_matrix(m, p)
        back = load_feature_matrix(p)
    assert back.values.tobytes() == m.values.tobytes()


def test_csv_round_trip(tmp_path):
    m = small_matrix()
    p = tmp_path / "m.csv"
    save_feature_matrix(m, p, format="csv")
    back = load_feature_matrix(p, format="csv")
    np.testing.assert_array_equal(back.values, m.values)
    assert back.labels.tolist() == m.labels.tolist()


def test_save_binary_rejects_float32_overflow(tmp_path):
    m = FeatureMatrix(np.array([[1e300]]), np.array([0]))
    with pytest.raises(ValueError, match="overflows float32 at row 0"):
        save_feature_matrix(m, tmp_path / "m.zslf")


def test_semantic_table_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    table = SemanticTable(
        "C", {c: rng.normal(size=4).astype(np.float32).astype(np.float64) for c in (3, 1, 8)}
    )
    p = tmp_path / "semantic_C.zslf"
    save_semantic_table(table, p)
    back = load_semantic_table(p, "C")
    assert back.class_ids() == [1, 3, 8]
    for c in back.class_ids():
        np.testing.assert_array_equal(back.vectors[c], table.vectors[c])


def test_split_round_trip(tmp_path):
    p = tmp_path / "split.txt"
    save_split({0, 5, 2}, {7, 3}, p)
    assert p.read_text() == "seen: 0 2 5\nunseen: 3 7\n"
    seen, unseen = load_split(p)
    assert seen == {0, 2, 5} and unseen == {3, 7}


def test_split_malformed(tmp_path):
    p = tmp_path / "split.txt"
    p.write_text("nonsense\n")
    with pytest.raises(ValueError, match="malformed split file"):
        load_split(p)


def test_dataset_directory_round_trip(tmp_path):
    ds = toy_dataset()
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.seen == ds.seen and back.unseen == ds.unseen
    assert back.modality_tags == ds.modality_tags
    assert back.visual.labels.tolist() == ds.visual.labels.tolist()
    # float32 storage: loading once more reproduces the same bytes
    save_dataset(back, tmp_path / "ds2")
    for name in ("train_visual.zslf", "test_visual.zslf", "split.txt", "semantic_A.zslf"):
        assert (tmp_path / "ds" / name).read_bytes() == (tmp_path / "ds2" / name).read_bytes()


def test_load_dataset_missing_file(tmp_path):
    (tmp_path / "ds").mkdir()
    with pytest.raises(ValueError, match="missing dataset file"):
        load_dataset(tmp_path / "ds")
