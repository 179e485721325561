import re
import struct
import tempfile
import tracemalloc
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
    load_dataset,
    load_feature_matrix,
    load_split,
    save_dataset,
    save_feature_matrix,
    save_split,
)


def small_matrix():
    return FeatureMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([0, 1]))


def toy_dataset(n_mod=2):
    rng = np.random.default_rng(0)
    visual = FeatureMatrix(rng.uniform(0, 1, (6, 4)), np.array([0, 0, 1, 1, 2, 2]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (4, 4)), np.array([3, 3, 4, 4]))
    tables = [
        SemanticTable(tag, FeatureMatrix(rng.normal(size=(5, 3)), range(5)))
        for tag in ("A", "B")[:n_mod]
    ]
    return Dataset(visual, test_visual, tables, {0, 1, 2}, {3, 4})


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
    values, labels = np.ones((2, 3)), np.array([1, 0])
    m = FeatureMatrix(values, labels)
    t = SemanticTable("A", FeatureMatrix(values, labels))  # out of order: sorted into a new matrix
    assert values.flags.writeable and labels.flags.writeable
    values[0, 0] = labels[0] = 7
    # the containers hold their own frozen copies
    assert m.values[0, 0] == 1.0 and m.labels[0] == 1 and t.matrix([1])[0, 0] == 1.0
    assert not m.values.flags.writeable and not t.vectors.values.flags.writeable
    assert not t.vectors.labels.flags.writeable


def test_semantic_table_keeps_rows_in_ascending_class_order():
    rows = np.arange(12.0).reshape(4, 3)
    table = SemanticTable("W", FeatureMatrix(rows, [8, 1, 5, 3]))
    assert table.vectors.labels.tolist() == [1, 3, 5, 8]
    np.testing.assert_array_equal(table.vectors.values, rows[[1, 3, 2, 0]])
    np.testing.assert_array_equal(table.matrix([5, 8, 5]), rows[[2, 0, 2]])
    assert table.matrix(np.array([], dtype=np.int64)).shape == (0, 3)


def test_semantic_table_rejects_duplicate_classes_and_an_empty_matrix():
    with pytest.raises(ValueError, match="duplicate class 3 in semantic table for modality W"):
        SemanticTable("W", FeatureMatrix(np.ones((4, 2)), [3, 9, 1, 3]))
    with pytest.raises(ValueError, match="semantic table for modality W is empty"):
        SemanticTable("W", FeatureMatrix(np.ones((0, 2)), []))


def test_semantic_table_matrix_missing_class():
    table = SemanticTable("W", FeatureMatrix(np.ones((2, 2)), [0, 5]))
    for ids, missing in (([144], 144), ([0, 3, 7], 3), ([5, -1], -1), ([0, 6], 6)):
        with pytest.raises(ValueError, match=f"class {missing} missing from modality W"):
            table.matrix(ids)


def test_dataset_overlap_rejected():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([0]))
    with pytest.raises(ValueError, match="splits overlap"):
        Dataset(
            visual,
            visual,
            [SemanticTable("W", FeatureMatrix(np.ones((1, 2)), [0]))],
            seen={0},
            unseen={0},
        )


def test_dataset_semantic_coverage_message():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([0]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([144]))
    table = SemanticTable("W", FeatureMatrix(np.ones((1, 2)), [0]))  # covers only the seen class
    with pytest.raises(ValueError, match="class 144 missing from modality W"):
        Dataset(visual, test_visual, [table], {0}, {144})


def test_dataset_rejects_mislabeled_samples():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([7]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([1]))
    tables = [SemanticTable("W", FeatureMatrix(np.ones((2, 2)), [0, 1]))]
    with pytest.raises(ValueError, match="class 7"):
        Dataset(visual, test_visual, tables, {0}, {1})


def test_dataset_rejects_extra_semantic_classes():
    rng = np.random.default_rng(1)
    visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([0]))
    test_visual = FeatureMatrix(rng.uniform(0, 1, (1, 2)), np.array([1]))
    tables = [SemanticTable("W", FeatureMatrix(np.ones((3, 2)), [0, 1, 9]))]
    with pytest.raises(ValueError, match="class 9 of modality W not in the split"):
        Dataset(visual, test_visual, tables, {0}, {1})


def test_dataset_helpers():
    ds = toy_dataset()
    assert ds.modality_tags == ("A", "B")
    assert ds.modality_dims() == {"A": 3, "B": 3}


# ---------------------------------------------------------------------------
# prototypes


def test_class_prototypes_two_point_mean():
    m = FeatureMatrix(np.array([[1.0, 3.0], [3.0, 1.0]]), np.array([0, 0]))
    table = class_prototypes(m)
    np.testing.assert_array_equal(table.matrix([0])[0], [2.0, 2.0])


def test_class_prototypes_multi_class():
    m = FeatureMatrix(
        np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 4.0]]), np.array([0, 0, 1])
    )
    table = class_prototypes(m)
    np.testing.assert_allclose(table.matrix([0])[0], [0.5, 0.5])
    np.testing.assert_array_equal(table.matrix([1])[0], [4.0, 4.0])


def test_class_prototypes_single_row_identity():
    m = FeatureMatrix(np.array([[5.0, 5.0, 5.0]]), np.array([1]))
    np.testing.assert_array_equal(class_prototypes(m).matrix([1])[0], [5.0, 5.0, 5.0])


def test_class_prototypes_permutation_invariant():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(20, 4))
    labels = rng.integers(0, 3, size=20)
    perm = rng.permutation(20)
    a = class_prototypes(FeatureMatrix(values, labels))
    b = class_prototypes(FeatureMatrix(values[perm], labels[perm]))
    assert a.vectors.labels.tolist() == b.vectors.labels.tolist()
    np.testing.assert_allclose(a.vectors.values, b.vectors.values, rtol=1e-12)


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
        np.testing.assert_allclose(table.matrix([cls])[0], expect, rtol=1e-6, atol=1e-12)


# ---------------------------------------------------------------------------
# file formats


def test_empty_file_malformed_header(tmp_path):
    p = tmp_path / "empty.zslf"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="malformed header"):
        load_feature_matrix(p)


def test_binary_nan_payload_reports_row(tmp_path):
    # a quiet NaN, then a signalling one (0x7FA00000), whose cast to float64 sets
    # numpy's invalid flag: the error must still be the row's, not a warning
    header = struct.pack("<4sIQQ", b"ZSLF", 1, 1, 2)
    p = tmp_path / "bad.zslf"
    for nan in (0x7FC00000, 0x7FA00000):
        p.write_bytes(header + struct.pack("<Q", 0) + struct.pack("<fI", 1.0, nan))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: non-finite value at row 0$"):
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


def test_save_binary_rejects_float32_overflow(tmp_path):
    m = FeatureMatrix(np.array([[1e300]]), np.array([0]))
    with pytest.raises(ValueError, match="overflows float32 at row 0"):
        save_feature_matrix(m, tmp_path / "m.zslf")


def test_save_feature_matrix_writes_without_copying_the_payload(tmp_path):
    m = FeatureMatrix(np.random.default_rng(5).normal(size=(2000, 256)), np.arange(2000) % 7)
    tracemalloc.start()
    try:
        save_feature_matrix(m, tmp_path / "m.zslf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float32 payload is half the float64 matrix; the finiteness mask an eighth
    assert peak < 0.75 * m.values.nbytes
    back = load_feature_matrix(tmp_path / "m.zslf")
    assert back.values.tobytes() == m.values.astype(np.float32).astype(np.float64).tobytes()
    assert back.labels.tolist() == m.labels.tolist()


# truncate to a length, flip bits, or rewrite the header's row and dim counts
FEATURE_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("flip"), st.lists(st.integers(0, 10**7), min_size=1, max_size=4)),
    st.tuples(st.just("header"), st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))),
)


def mutate_feature_file(data: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return data[: arg % len(data)]
    if kind == "flip":
        out = bytearray(data)
        for bit in arg:
            bit %= 8 * len(data)
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    return data[:8] + struct.pack("<QQ", *arg) + data[24:]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 2**31 - 1), FEATURE_MUTATIONS)
def test_feature_reader_fuzz(rows, dim, seed, mutation):
    """A damaged file is rejected, or it is a valid file that re-saves to the same bytes."""
    rng = np.random.default_rng(seed)
    m = FeatureMatrix(rng.normal(size=(rows, dim)), rng.integers(0, 50, size=rows))
    with tempfile.TemporaryDirectory() as tmp:
        p, again = Path(tmp) / "m.zslf", Path(tmp) / "again.zslf"
        save_feature_matrix(m, p)
        data = mutate_feature_file(p.read_bytes(), mutation)
        p.write_bytes(data)
        tracemalloc.start()
        try:
            back = load_feature_matrix(p)
        except ValueError:
            back = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # a huge header is rejected before anything of its claimed size is allocated
        assert peak < 64 * 1024
        if back is not None:
            save_feature_matrix(back, again)
            assert again.read_bytes() == data


def test_feature_reader_rejects_huge_header_dims(tmp_path):
    p = tmp_path / "m.zslf"
    for rows, dim in ((2**40, 2**40), (0, 2**63)):
        p.write_bytes(struct.pack("<4sIQQ", b"ZSLF", 1, rows, dim))
        with pytest.raises(ValueError, match=r"m\.zslf: (corrupted payload|malformed header)"):
            load_feature_matrix(p)


def test_semantic_table_round_trip(tmp_path):
    ds = toy_dataset()
    rows = np.random.default_rng(2).normal(size=(5, 4)).astype(np.float32).astype(np.float64)
    table = SemanticTable("C", FeatureMatrix(rows, [3, 1, 4, 0, 2]))
    save_dataset(Dataset(ds.visual, ds.test_visual, [table], ds.seen, ds.unseen), tmp_path / "ds")
    back = load_dataset(tmp_path / "ds").table("C")
    assert back.vectors.labels.tolist() == [0, 1, 2, 3, 4]
    np.testing.assert_array_equal(back.vectors.values, table.vectors.values)
    # the rows' arrival order does not reach the file
    ordered = SemanticTable("C", FeatureMatrix(rows[[3, 1, 4, 0, 2]], range(5)))
    save_feature_matrix(ordered.vectors, tmp_path / "ordered.zslf")
    assert (tmp_path / "ordered.zslf").read_bytes() == (tmp_path / "ds" / "semantic_C.zslf").read_bytes()


def test_load_dataset_rejects_duplicate_semantic_classes(tmp_path):
    save_dataset(toy_dataset(), tmp_path / "ds")
    p = tmp_path / "ds" / "semantic_T.zslf"
    save_feature_matrix(FeatureMatrix(np.ones((3, 2)), [4, 2, 4]), p)
    with pytest.raises(ValueError, match=r"semantic_T\.zslf: duplicate class 4 in semantic table for modality T"):
        load_dataset(tmp_path / "ds")


def test_load_dataset_rejects_a_tag_that_does_not_read_back(tmp_path):
    # "A,X" would be two tags to --modalities and two fields to a csv report row
    save_dataset(toy_dataset(), tmp_path / "ds")
    (tmp_path / "ds" / "semantic_A.zslf").rename(tmp_path / "ds" / "semantic_A,X.zslf")
    with pytest.raises(ValueError, match=r"semantic_A,X\.zslf: bad modality tag 'A,X'"):
        load_dataset(tmp_path / "ds")
    for tag in ("", "A:X", "A+X", "A;X", "A#X", "A/X", "A X", "A\n"):
        with pytest.raises(ValueError, match="bad modality tag"):
            SemanticTable(tag, small_matrix())


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
