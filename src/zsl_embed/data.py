"""Dataset containers and file formats for precomputed-feature experiments.

All containers are immutable after construction (they hold read-only
copies of the arrays they were given), so datasets can be shared freely
across worker processes. A modality's semantic table is one
``FeatureMatrix`` with a row per class, labelled with the class id.

File formats:

* binary feature file: magic ``ZSLF``, u32 LE version (=1), u64 LE rows,
  u64 LE dim, ``rows`` u64 LE class ids, then rows*dim float32 LE values
  in row-major order;
* semantic table file: a feature file with one row per class;
* split file: two text lines, ``seen: 0 1 ...`` and ``unseen: 144 ...``.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Iterable

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


def check_tag(tag: ModalityTag) -> None:
    """Reject an empty tag, or one with whitespace or a separator of ``--modalities``,
    ``TAG:dim``, subset labels, ``ablate.subsets``, config comments or file paths."""
    if not tag or any(c.isspace() or c in ",:+;#/" for c in tag):
        raise ValueError(f"bad modality tag {tag!r}: need a non-empty tag without whitespace or , : + ; # /")


def parse_modality_dims(text: str) -> dict[ModalityTag, int]:
    """Parse comma-separated ``TAG:dim`` items; spaces around a tag or dim are not part of it."""
    dims: dict[ModalityTag, int] = {}
    for item in text.split(","):
        tag, _, dim = (part.strip() for part in item.partition(":"))
        if tag in dims:
            raise ValueError(f"duplicate modality tag {tag!r} in {text!r}")
        try:
            dims[tag] = int(dim)
        except ValueError:
            raise ValueError(f"bad modality spec {item!r}, expected TAG:dim") from None
    return dims


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
        # private copies: freezing must not touch the caller's arrays; a signalling
        # NaN warns as it is cast, and the row check below names its row instead
        with np.errstate(invalid="ignore"):
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

    ``vectors`` holds one row per class, labelled with its class id. Each
    id appears once, and the rows are kept in ascending id order whatever
    order they arrive in. ``FeatureMatrix`` checks the values and ids, and
    ``check_tag`` the modality tag.
    """

    modality: ModalityTag
    vectors: FeatureMatrix

    def __post_init__(self) -> None:
        check_tag(self.modality)
        ids = self.vectors.labels
        if ids.size == 0:
            raise ValueError(f"semantic table for modality {self.modality} is empty")
        if (np.diff(ids) <= 0).any():  # not strictly ascending: sort, then look for repeats
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            repeated = ids[1:][ids[1:] == ids[:-1]]
            if repeated.size:
                raise ValueError(
                    f"duplicate class {repeated[0]} in semantic table for modality {self.modality}"
                )
            object.__setattr__(self, "vectors", FeatureMatrix(self.vectors.values[order], ids))

    def matrix(self, class_ids: Iterable[ClassId]) -> np.ndarray:
        """The rows of the given ids (repeats allowed), as a new matrix."""
        ids = np.fromiter(class_ids, dtype=np.int64)
        known = self.vectors.labels
        at = np.minimum(np.searchsorted(known, ids), known.size - 1)
        missing = known[at] != ids
        if missing.any():
            raise ValueError(f"class {ids[missing][0]} missing from modality {self.modality}")
        return self.vectors.values[at]


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
            covered = set(table.vectors.labels.tolist())
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
        return {tag: self.table(tag).vectors.dim for tag in tags}


def class_prototypes(features: FeatureMatrix) -> SemanticTable:
    """Arithmetic mean of the feature rows of each class, as a table tagged ``avg``."""
    if features.rows == 0:
        raise ValueError("cannot average an empty feature matrix")
    ids = np.unique(features.labels)
    means = [features.values[features.labels == cls].mean(axis=0) for cls in ids]
    return SemanticTable("avg", FeatureMatrix(np.stack(means), ids))


# ---------------------------------------------------------------------------
# file formats


def save_feature_matrix(m: FeatureMatrix, path: str | Path) -> None:
    """Write a feature matrix in the binary layout.

    Values are stored as float32; values that would overflow float32 are
    rejected rather than silently saturated.
    """
    with np.errstate(over="ignore"):
        payload = m.values.astype("<f4")
    bad = ~np.isfinite(payload).all(axis=1)
    if bad.any():
        raise ValueError(f"value overflows float32 at row {int(np.flatnonzero(bad)[0])}")
    with open(path, "wb") as f:
        f.write(_FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, m.rows, m.dim))
        f.write(m.labels.astype("<u8"))
        f.write(payload)


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    """Read a binary feature matrix, rejecting malformed or non-finite content.

    The header's row and dimension counts must match the file size before
    any array is built.
    """
    data = Path(path).read_bytes()
    if len(data) < _FEATURE_HEADER.size:
        raise ValueError(f"{path}: malformed header (file too short)")
    magic, version, rows, dim = _FEATURE_HEADER.unpack_from(data)
    if magic != FEATURE_MAGIC:
        raise ValueError(f"{path}: malformed header (bad magic {magic!r})")
    if version != FEATURE_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if not 0 < dim < 2**31:  # numpy cannot shape even an empty matrix much wider
        raise ValueError(f"{path}: malformed header (dimension {dim})")
    expected = _FEATURE_HEADER.size + rows * 8 + rows * dim * 4
    if len(data) != expected:
        raise ValueError(
            f"{path}: corrupted payload (expected {expected} bytes, got {len(data)})"
        )
    off = _FEATURE_HEADER.size
    labels = np.frombuffer(data, dtype="<u8", count=rows, offset=off)
    if labels.size and labels.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{path}: class id out of range")
    off += rows * 8
    values = np.frombuffer(data, dtype="<f4", count=rows * dim, offset=off).reshape(rows, dim)
    try:
        return FeatureMatrix(values, labels)  # converted to float64 / int64 copies there
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    one ``semantic_<TAG>.zslf`` per modality. Raises ValueError before any
    file is written if the directory holds another modality's table, which
    ``load_dataset`` would read back in.
    """
    directory = Path(directory)
    for path in sorted(directory.glob(f"{SEMANTIC_PREFIX}*.zslf")):
        if path.stem[len(SEMANTIC_PREFIX) :] not in dataset.modality_tags:
            raise ValueError(f"{path}: a semantic table of a modality this dataset lacks; remove it first")
    directory.mkdir(parents=True, exist_ok=True)
    save_feature_matrix(dataset.visual, directory / TRAIN_VISUAL_FILE)
    save_feature_matrix(dataset.test_visual, directory / TEST_VISUAL_FILE)
    save_split(dataset.seen, dataset.unseen, directory / SPLIT_FILE)
    for table in dataset.semantics:
        save_feature_matrix(table.vectors, directory / f"{SEMANTIC_PREFIX}{table.modality}.zslf")


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
        vectors = load_feature_matrix(path)
        try:
            tables.append(SemanticTable(path.stem[len(SEMANTIC_PREFIX):], vectors))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not tables:
        raise ValueError(f"no semantic tables ({SEMANTIC_PREFIX}*.zslf) in {directory}")
    return Dataset(visual, test_visual, tables, seen, unseen)
