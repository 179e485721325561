"""Dataset containers and file formats for precomputed-feature experiments.

All containers are immutable after construction (they hold read-only
copies of the arrays they were given), so datasets can be shared freely
across worker processes.
File formats:

* binary feature file: magic ``ZSLF``, u32 LE version (=1), u64 LE rows,
  u64 LE dim, ``rows`` u64 LE class ids, then rows*dim float32 LE values
  in row-major order;
* CSV feature file: no header, one ``label,v1,...,vD`` line per sample;
* semantic table file: same layouts with one row per class;
* split file: two text lines, ``seen: 0 1 ...`` and ``unseen: 144 ...``.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

ModalityTag = str
ClassId = int

FEATURE_MAGIC = b"ZSLF"
FEATURE_VERSION = 1

_FEATURE_HEADER = struct.Struct("<4sIQQ")  # magic, version, rows, dim

TRAIN_VISUAL_FILE = "train_visual.zslf"
TEST_VISUAL_FILE = "test_visual.zslf"
SPLIT_FILE = "split.txt"
SEMANTIC_PREFIX = "semantic_"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Dense row-per-sample feature matrix with aligned integer class labels.

    Values are held as float64 regardless of on-disk precision; the binary
    format stores float32. Construction rejects non-finite values, negative
    labels and label/row count mismatches.
    """

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        # private copies: freezing must not touch the caller's arrays
        values = np.array(self.values, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        if values.ndim != 2:
            raise ValueError(f"feature values must be 2-D, got shape {values.shape}")
        if values.shape[1] < 1:
            raise ValueError("feature dimension must be positive")
        if labels.ndim != 1:
            raise ValueError("labels must be a flat sequence")
        if labels.shape[0] != values.shape[0]:
            raise ValueError(
                f"got {labels.shape[0]} labels for {values.shape[0]} rows"
            )
        if labels.size and int(labels.min()) < 0:
            raise ValueError("class labels must be non-negative")
        finite_rows = np.isfinite(values).all(axis=1)
        if not finite_rows.all():
            bad = int(np.flatnonzero(~finite_rows)[0])
            raise ValueError(f"non-finite value at row {bad}")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def class_ids(self) -> list[ClassId]:
        return [int(c) for c in np.unique(self.labels)]


@dataclasses.dataclass(frozen=True, eq=False)
class SemanticTable:
    """Per-class semantic vectors for one modality.

    ``vectors`` maps class id to a 1-D float64 vector; all vectors share
    the same dimension and every value is finite.
    """

    modality: ModalityTag
    vectors: dict[ClassId, np.ndarray]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise ValueError(f"semantic table for modality {self.modality} is empty")
        clean: dict[ClassId, np.ndarray] = {}
        dim = None
        for cls, vec in self.vectors.items():
            cls = int(cls)
            if cls < 0:
                raise ValueError("class ids must be non-negative")
            vec = np.array(vec, dtype=np.float64)  # a private copy, frozen below
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(
                    f"semantic vector for class {cls} must be a non-empty 1-D vector"
                )
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ValueError(
                    f"modality {self.modality}: class {cls} has dim {vec.size}, "
                    f"expected {dim}"
                )
            if not np.isfinite(vec).all():
                raise ValueError(
                    f"modality {self.modality}: non-finite value for class {cls}"
                )
            clean[cls] = _freeze(vec)
        object.__setattr__(self, "vectors", clean)

    @property
    def dim(self) -> int:
        return next(iter(self.vectors.values())).size

    def class_ids(self) -> list[ClassId]:
        return sorted(self.vectors)

    def matrix(self, class_ids: Iterable[ClassId]) -> np.ndarray:
        """Stack vectors for the given ids (repeats allowed) into a matrix."""
        try:
            return np.stack([self.vectors[int(c)] for c in class_ids])
        except KeyError as exc:
            raise ValueError(
                f"class {exc.args[0]} missing from modality {self.modality}"
            ) from None


@dataclasses.dataclass(frozen=True, eq=False)
class Dataset:
    """Visual features, per-modality semantic tables and a disjoint class split.

    Training samples must be labeled with seen classes, test samples with
    unseen classes, and every semantic table must cover exactly the union
    of both splits. Violations raise at construction; nothing is repaired
    silently.
    """

    visual: FeatureMatrix
    test_visual: FeatureMatrix
    semantics: tuple[SemanticTable, ...]
    seen: frozenset[ClassId]
    unseen: frozenset[ClassId]

    def __post_init__(self) -> None:
        seen = frozenset(int(c) for c in self.seen)
        unseen = frozenset(int(c) for c in self.unseen)
        semantics = tuple(self.semantics)
        object.__setattr__(self, "seen", seen)
        object.__setattr__(self, "unseen", unseen)
        object.__setattr__(self, "semantics", semantics)

        if not seen or not unseen:
            raise ValueError("both seen and unseen splits must be non-empty")
        overlap = seen & unseen
        if overlap:
            raise ValueError(f"splits overlap: classes {sorted(overlap)}")
        if self.visual.dim != self.test_visual.dim:
            raise ValueError(
                f"visual and test feature dimensions differ "
                f"({self.visual.dim} vs {self.test_visual.dim})"
            )
        for cls in self.visual.class_ids():
            if cls not in seen:
                raise ValueError(
                    f"training sample labeled with class {cls} not in seen split"
                )
        for cls in self.test_visual.class_ids():
            if cls not in unseen:
                raise ValueError(
                    f"test sample labeled with class {cls} not in unseen split"
                )

        if not semantics:
            raise ValueError("at least one semantic table is required")
        tags = [t.modality for t in semantics]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate modality tags: {sorted(tags)}")
        split = seen | unseen
        for table in semantics:
            covered = set(table.vectors)
            for cls in sorted(split - covered):
                raise ValueError(f"class {cls} missing from modality {table.modality}")
            for cls in sorted(covered - split):
                raise ValueError(
                    f"class {cls} of modality {table.modality} not in the split"
                )

    @property
    def modality_tags(self) -> tuple[ModalityTag, ...]:
        return tuple(sorted(t.modality for t in self.semantics))

    def table(self, tag: ModalityTag) -> SemanticTable:
        for t in self.semantics:
            if t.modality == tag:
                return t
        raise ValueError(f"no semantic table for modality {tag}")

    def modality_dims(self, tags: Iterable[ModalityTag] | None = None) -> dict[str, int]:
        tags = self.modality_tags if tags is None else tuple(tags)
        return {tag: self.table(tag).dim for tag in tags}

    def semantic_batch(
        self, tags: Iterable[ModalityTag], class_ids: Iterable[ClassId]
    ) -> dict[str, np.ndarray]:
        """Per-modality matrices with one row per requested class id."""
        ids = list(class_ids)
        return {tag: self.table(tag).matrix(ids) for tag in tags}


def make_dataset(
    visual: FeatureMatrix,
    test_visual: FeatureMatrix,
    semantics: Sequence[SemanticTable],
    seen: Iterable[ClassId],
    unseen: Iterable[ClassId],
) -> Dataset:
    """Assemble and validate a dataset; fails instead of repairing bad input."""
    return Dataset(visual, test_visual, tuple(semantics), frozenset(seen), frozenset(unseen))


def class_prototypes(features: FeatureMatrix, modality: ModalityTag = "avg") -> SemanticTable:
    """Arithmetic mean of the feature rows of each class."""
    if features.rows == 0:
        raise ValueError("cannot average an empty feature matrix")
    vectors = {}
    for cls in features.class_ids():
        vectors[cls] = features.values[features.labels == cls].mean(axis=0)
    return SemanticTable(modality, vectors)


def l2_normalize_rows(m: FeatureMatrix) -> FeatureMatrix:
    """Scale each row to unit L2 norm; zero rows pass through unchanged."""
    norms = np.linalg.norm(m.values, axis=1, keepdims=True)
    scaled = np.divide(m.values, norms, out=m.values.copy(), where=norms > 0)
    return FeatureMatrix(scaled, m.labels)


# ---------------------------------------------------------------------------
# file formats


def save_feature_matrix(m: FeatureMatrix, path: str | Path, format: str = "binary") -> None:
    """Write a feature matrix in the binary or CSV layout.

    The binary layout stores values as float32; values that would overflow
    float32 are rejected rather than silently saturated.
    """
    path = Path(path)
    if format == "binary":
        with np.errstate(over="ignore"):
            payload = m.values.astype("<f4")
        bad = ~np.isfinite(payload).all(axis=1)
        if bad.any():
            raise ValueError(
                f"value overflows float32 at row {int(np.flatnonzero(bad)[0])}"
            )
        buf = bytearray()
        buf += _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, m.rows, m.dim)
        buf += m.labels.astype("<u8").tobytes()
        buf += payload.tobytes()
        path.write_bytes(bytes(buf))
    elif format == "csv":
        lines = []
        for label, row in zip(m.labels, m.values):
            lines.append(f"{int(label)}," + ",".join(repr(float(v)) for v in row))
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {format!r}, expected 'binary' or 'csv'")


def load_feature_matrix(path: str | Path, format: str = "binary") -> FeatureMatrix:
    """Read a feature matrix, rejecting malformed or non-finite content."""
    path = Path(path)
    if format == "binary":
        return _load_binary(path.read_bytes(), str(path))
    if format == "csv":
        return _load_csv(path.read_text(), str(path))
    raise ValueError(f"unknown format {format!r}, expected 'binary' or 'csv'")


def _load_binary(data: bytes, name: str) -> FeatureMatrix:
    if len(data) < _FEATURE_HEADER.size:
        raise ValueError(f"{name}: malformed header (file too short)")
    magic, version, rows, dim = _FEATURE_HEADER.unpack_from(data)
    if magic != FEATURE_MAGIC:
        raise ValueError(f"{name}: malformed header (bad magic {magic!r})")
    if version != FEATURE_VERSION:
        raise ValueError(f"{name}: unsupported version {version}")
    if dim == 0:
        raise ValueError(f"{name}: malformed header (zero dimension)")
    expected = _FEATURE_HEADER.size + rows * 8 + rows * dim * 4
    if len(data) != expected:
        raise ValueError(
            f"{name}: corrupted payload (expected {expected} bytes, got {len(data)})"
        )
    off = _FEATURE_HEADER.size
    labels = np.frombuffer(data, dtype="<u8", count=rows, offset=off)
    if labels.size and labels.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{name}: class id out of range")
    off += rows * 8
    values = np.frombuffer(data, dtype="<f4", count=rows * dim, offset=off).reshape(rows, dim)
    finite_rows = np.isfinite(values).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise ValueError(f"{name}: non-finite value at row {bad}")
    return FeatureMatrix(values, labels)  # converted to float64 / int64 copies there


def _load_csv(text: str, name: str) -> FeatureMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{name}: malformed header (empty file)")
    labels: list[int] = []
    rows: list[list[float]] = []
    dim = None
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"{name}: malformed row {i} (need label and values)")
        try:
            label = int(parts[0])
        except ValueError:
            raise ValueError(f"{name}: malformed label at row {i}: {parts[0]!r}") from None
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError:
            raise ValueError(f"{name}: malformed value at row {i}") from None
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise ValueError(
                f"{name}: dimension mismatch at row {i} (expected {dim}, got {len(row)})"
            )
        labels.append(label)
        rows.append(row)
    values = np.asarray(rows, dtype=np.float64)
    finite_rows = np.isfinite(values).all(axis=1)
    if not finite_rows.all():
        bad = int(np.flatnonzero(~finite_rows)[0])
        raise ValueError(f"{name}: non-finite value at row {bad}")
    if any(l < 0 for l in labels):
        raise ValueError(f"{name}: negative class label")
    return FeatureMatrix(values, np.asarray(labels, dtype=np.int64))


def save_semantic_table(table: SemanticTable, path: str | Path, format: str = "binary") -> None:
    """Write a semantic table as a feature file with one row per class."""
    ids = table.class_ids()
    m = FeatureMatrix(table.matrix(ids), np.asarray(ids, dtype=np.int64))
    save_feature_matrix(m, path, format)


def load_semantic_table(
    path: str | Path, modality: ModalityTag, format: str = "binary"
) -> SemanticTable:
    """Read a per-class semantic table; duplicate class rows are rejected."""
    m = load_feature_matrix(path, format)
    vectors: dict[ClassId, np.ndarray] = {}
    for label, row in zip(m.labels, m.values):
        cls = int(label)
        if cls in vectors:
            raise ValueError(f"{path}: duplicate class {cls} in semantic table")
        vectors[cls] = row
    return SemanticTable(modality, vectors)


def save_split(seen: Iterable[ClassId], unseen: Iterable[ClassId], path: str | Path) -> None:
    seen_line = " ".join(str(int(c)) for c in sorted(seen))
    unseen_line = " ".join(str(int(c)) for c in sorted(unseen))
    Path(path).write_text(f"seen: {seen_line}\nunseen: {unseen_line}\n")


def load_split(path: str | Path) -> tuple[set[ClassId], set[ClassId]]:
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    if len(lines) != 2 or not lines[0].startswith("seen:") or not lines[1].startswith("unseen:"):
        raise ValueError(f"{path}: malformed split file")
    try:
        seen = {int(t) for t in lines[0][len("seen:"):].split()}
        unseen = {int(t) for t in lines[1][len("unseen:"):].split()}
    except ValueError:
        raise ValueError(f"{path}: malformed split file") from None
    return seen, unseen


def save_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write a dataset as binary feature files plus a split file.

    Layout: ``train_visual.zslf``, ``test_visual.zslf``, ``split.txt`` and
    one ``semantic_<TAG>.zslf`` per modality.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_feature_matrix(dataset.visual, directory / TRAIN_VISUAL_FILE)
    save_feature_matrix(dataset.test_visual, directory / TEST_VISUAL_FILE)
    save_split(dataset.seen, dataset.unseen, directory / SPLIT_FILE)
    for table in dataset.semantics:
        save_semantic_table(table, directory / f"{SEMANTIC_PREFIX}{table.modality}.zslf")


def load_dataset(directory: str | Path) -> Dataset:
    """Read a dataset directory written by :func:`save_dataset`."""
    directory = Path(directory)
    for required in (TRAIN_VISUAL_FILE, TEST_VISUAL_FILE, SPLIT_FILE):
        if not (directory / required).exists():
            raise ValueError(f"missing dataset file: {directory / required}")
    visual = load_feature_matrix(directory / TRAIN_VISUAL_FILE)
    test_visual = load_feature_matrix(directory / TEST_VISUAL_FILE)
    seen, unseen = load_split(directory / SPLIT_FILE)
    tables = []
    for path in sorted(directory.glob(f"{SEMANTIC_PREFIX}*.zslf")):
        tag = path.stem[len(SEMANTIC_PREFIX):]
        tables.append(load_semantic_table(path, tag))
    if not tables:
        raise ValueError(f"no semantic tables ({SEMANTIC_PREFIX}*.zslf) in {directory}")
    return make_dataset(visual, test_visual, tables, seen, unseen)
