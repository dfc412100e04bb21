"""Core domain types: relation vocabulary, label sets, logit rows, datasets.

Relation indices are 1-based; index 0 is reserved for the learned threshold
(TH) logit everywhere in the package, so a logit row of length R+1 can be
indexed directly by relation index. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import IO, Any, Iterator, Mapping

import numpy as np

from .errors import SchemaError

TH_INDEX = 0
DATASET_FORMAT = "cmm-dataset/1"
DIFFICULTIES = ("easy", "hard")


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only float64 array with arr's values that no caller can write.

    An array that already is one (read-only, owning its data) is returned
    as is; anything else is copied.
    """
    if arr.dtype == np.float64 and arr.base is None and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def require_int(name: str, value: Any, minimum: int) -> None:
    """ValueError unless value is an integer, not a bool, and >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def require_finite(name: str, value: Any) -> None:
    """ValueError unless value is a finite real number, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@contextlib.contextmanager
def open_atomic(path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a file for writing such that ``path`` appears complete or not at all.

    Writes go to a temporary file in the same directory, which replaces
    ``path`` when the block exits cleanly and is removed when it raises.
    Keyword arguments are passed to ``open``.
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class RelationSchema:
    """Relation vocabulary; th_index is always 0 and never names a relation."""

    relation_count: int
    relation_names: tuple[str, ...]
    th_index: int = TH_INDEX

    def __post_init__(self) -> None:
        object.__setattr__(self, "relation_names", tuple(self.relation_names))
        if self.relation_count < 1:
            raise SchemaError(f"relation_count must be >= 1, got {self.relation_count}")
        if self.th_index != TH_INDEX:
            raise SchemaError("th_index is fixed at 0")
        if len(self.relation_names) != self.relation_count:
            raise SchemaError(
                f"expected {self.relation_count} relation names, got {len(self.relation_names)}"
            )
        if len(set(self.relation_names)) != self.relation_count:
            raise SchemaError("relation names must be unique")

    @classmethod
    def with_default_names(cls, relation_count: int) -> "RelationSchema":
        names = tuple(f"R{i:02d}" for i in range(1, relation_count + 1))
        return cls(relation_count=relation_count, relation_names=names)

    def relation_indices(self) -> range:
        """Valid relation indices, 1..relation_count inclusive."""
        return range(1, self.relation_count + 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "relation_count": self.relation_count,
            "relation_names": list(self.relation_names),
            "th_index": self.th_index,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RelationSchema":
        names = d["relation_names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise TypeError(f"'relation_names' must be a list of strings, got {names!r}")
        return cls(
            relation_count=int(d["relation_count"]),
            relation_names=tuple(names),
            th_index=int(d.get("th_index", TH_INDEX)),
        )


@dataclass(frozen=True)
class LabelSet:
    """Positive relation indices for one pair; negatives are the complement.

    `negatives` may be passed explicitly (e.g. when reconstructing a
    suspect record for validation); when omitted it is derived as
    {1..R} minus positives.
    """

    relation_count: int
    positives: frozenset[int]
    negatives: frozenset[int] | None = None

    def __post_init__(self) -> None:
        pos = frozenset(int(r) for r in self.positives)
        object.__setattr__(self, "positives", pos)
        bad = sorted(r for r in pos if not 1 <= r <= self.relation_count)
        if bad:
            raise SchemaError(f"positive indices out of range [1, {self.relation_count}]: {bad}")
        if self.negatives is None:
            neg = frozenset(range(1, self.relation_count + 1)) - pos
        else:
            neg = frozenset(int(r) for r in self.negatives)
        object.__setattr__(self, "negatives", neg)

    def is_consistent(self) -> bool:
        """True when positives and negatives partition {1..R}."""
        full = frozenset(range(1, self.relation_count + 1))
        return (not self.positives & self.negatives) and (self.positives | self.negatives == full)


@dataclass(frozen=True)
class LogitRow:
    """One score vector of length R+1; values[0] is the threshold logit."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise SchemaError(f"logit row must be 1-D with length >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise SchemaError("logit row entries must be finite")
        object.__setattr__(self, "values", _readonly(arr))

    @property
    def relation_count(self) -> int:
        return self.values.size - 1

    @property
    def th(self) -> float:
        return float(self.values[TH_INDEX])


@dataclass(frozen=True)
class PairExample:
    """One entity-pair sample at the feature level.

    `labels` are the (possibly corrupted) training labels; `true_labels`
    are the generator's ground truth. `seen_in_train` lists relation
    indices whose facts are excluded by the Ign-F1 rule.
    """

    pair_id: str
    doc_id: str
    features: np.ndarray
    labels: LabelSet
    true_labels: LabelSet
    seen_in_train: frozenset[int] = frozenset()
    difficulty: str = "easy"
    corrupted: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.features, dtype=np.float64)
        if arr.ndim != 1:
            raise SchemaError(f"features must be 1-D, got shape {arr.shape} for {self.pair_id}")
        object.__setattr__(self, "features", _readonly(arr))
        seen = self.seen_in_train
        if type(seen) is not frozenset or any(type(r) is not int for r in seen):
            object.__setattr__(self, "seen_in_train", frozenset(int(r) for r in seen))
        if self.difficulty not in DIFFICULTIES:
            raise SchemaError(f"difficulty must be one of {DIFFICULTIES}, got {self.difficulty!r}")


@dataclass(frozen=True)
class Dataset:
    """A schema, its examples, and their partition into document groups."""

    schema: RelationSchema
    examples: tuple[PairExample, ...]
    document_ids: tuple[str, ...]
    manifest: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))
        object.__setattr__(self, "document_ids", tuple(self.document_ids))
        if len(set(self.document_ids)) != len(self.document_ids):
            raise SchemaError("document ids must be unique")

    @property
    def feature_dim(self) -> int:
        if not self.examples:
            return 0
        return self.examples[0].features.size

    def iter_documents(self) -> Iterator[tuple[str, list[PairExample]]]:
        """Yield (doc_id, examples) groups in declared document order."""
        by_doc: dict[str, list[PairExample]] = {d: [] for d in self.document_ids}
        for ex in self.examples:
            by_doc[ex.doc_id].append(ex)
        for doc_id in self.document_ids:
            yield doc_id, by_doc[doc_id]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, str], ...]


def _check_label_set(pair_id: str, name: str, labels: LabelSet, schema: RelationSchema,
                     out: list[tuple[str, str]]) -> None:
    if labels.relation_count != schema.relation_count:
        out.append((pair_id, f"{name}: relation_count {labels.relation_count} != schema "
                             f"{schema.relation_count}"))
        return
    overlap = labels.positives & labels.negatives
    if overlap:
        out.append((pair_id, f"{name}: positives and negatives overlap on {sorted(overlap)}"))
    full = frozenset(range(1, schema.relation_count + 1))
    missing = full - (labels.positives | labels.negatives)
    if missing:
        out.append((pair_id, f"{name}: indices {sorted(missing)} in neither positives "
                             f"nor negatives"))
    stray = (labels.positives | labels.negatives) - full
    if stray:
        out.append((pair_id, f"{name}: indices {sorted(stray)} outside [1, "
                             f"{schema.relation_count}]"))


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Check every dataset invariant; violations are report entries, not failures."""
    violations: list[tuple[str, str]] = []
    doc_ids = set(dataset.document_ids)
    seen_pair_ids: set[str] = set()
    feature_dim: int | None = None

    for ex in dataset.examples:
        if ex.pair_id in seen_pair_ids:
            violations.append((ex.pair_id, "duplicate pair_id"))
        seen_pair_ids.add(ex.pair_id)
        if ex.doc_id not in doc_ids:
            violations.append((ex.pair_id, f"doc_id {ex.doc_id!r} not in dataset documents"))
        if feature_dim is None:
            feature_dim = ex.features.size
        elif ex.features.size != feature_dim:
            violations.append((ex.pair_id, f"feature dim {ex.features.size} != {feature_dim}"))
        if not np.all(np.isfinite(ex.features)):
            violations.append((ex.pair_id, "non-finite feature values"))
        _check_label_set(ex.pair_id, "labels", ex.labels, dataset.schema, violations)
        _check_label_set(ex.pair_id, "true_labels", ex.true_labels, dataset.schema, violations)
        stray_seen = sorted(r for r in ex.seen_in_train
                            if not 1 <= r <= dataset.schema.relation_count)
        if stray_seen:
            violations.append((ex.pair_id, f"seen_in_train indices out of range: {stray_seen}"))
        if ex.corrupted and not (ex.true_labels.positives > ex.labels.positives):
            violations.append((ex.pair_id, "corrupted=true but true_labels.positives is not a "
                                           "proper superset of labels.positives"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


# --- JSONL serialization -------------------------------------------------
#
# One pair per line, keys in fixed order for byte-stable output; a header
# line carries the schema, document order, and manifest.

def _example_to_obj(ex: PairExample) -> dict[str, Any]:
    return {
        "pair_id": ex.pair_id,
        "doc_id": ex.doc_id,
        "features": [float(v) for v in ex.features],
        "positives": sorted(ex.labels.positives),
        "true_positives": sorted(ex.true_labels.positives),
        "seen_in_train": sorted(ex.seen_in_train),
        "difficulty": ex.difficulty,
        "corrupted": ex.corrupted,
    }


def dataset_to_lines(dataset: Dataset) -> Iterator[str]:
    header = {
        "format": DATASET_FORMAT,
        "schema": dataset.schema.to_dict(),
        "documents": list(dataset.document_ids),
        "manifest": dataset.manifest,
    }
    yield json.dumps(header, separators=(",", ":"))
    for ex in dataset.examples:
        yield json.dumps(_example_to_obj(ex), separators=(",", ":"))


def save_dataset_jsonl(dataset: Dataset, path: str) -> None:
    with open_atomic(path, "w", encoding="utf-8") as fh:
        for line in dataset_to_lines(dataset):
            fh.write(line)
            fh.write("\n")


def _relation_indices(value: Any, name: str, relation_count: int) -> frozenset[int]:
    """A JSON list of relation indices in 1..relation_count, as a frozenset."""
    if type(value) is not list or any(type(r) is not int for r in value):
        raise TypeError(f"{name!r} must be a list of integers, got {value!r}")
    stray = sorted(r for r in value if not 1 <= r <= relation_count)
    if stray:
        raise ValueError(f"{name!r} indices outside 1..{relation_count}: {stray}")
    return frozenset(value)


_NUMBER_TYPES = frozenset((int, float))


def _features(value: Any) -> np.ndarray:
    """A JSON list of numbers as a read-only float64 vector; TypeError on anything else."""
    if type(value) is not list or not _NUMBER_TYPES.issuperset(map(type, value)):
        raise TypeError(f"'features' must be a list of numbers, got {value!r:.80}")
    arr = np.array(value, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def load_dataset_jsonl(path: str) -> Dataset:
    """Read a dataset; SchemaError on any record the evaluation masks could not represent.

    Pairs with equal index lists share one ``LabelSet`` (and one
    ``seen_in_train`` set), built and checked once per distinct list.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise SchemaError(f"{path}: empty dataset file")
        try:
            header = json.loads(header_line)
            if not isinstance(header, dict):
                raise TypeError("header must be a JSON object")
            if header.get("format") != DATASET_FORMAT:
                raise ValueError(f"unsupported format tag {header.get('format')!r}")
            schema = RelationSchema.from_dict(header["schema"])
            document_ids = header["documents"]
            if not (isinstance(document_ids, list)
                    and all(isinstance(d, str) for d in document_ids)):
                raise TypeError("'documents' must be a list of strings")
            manifest = dict(header.get("manifest", {}))
        except (KeyError, TypeError, ValueError, SchemaError) as exc:
            raise SchemaError(f"{path}:1: malformed header ({type(exc).__name__}: {exc})") from exc
        r_count = schema.relation_count
        label_sets: dict[str, LabelSet] = {}
        seen_sets: dict[str, frozenset[int]] = {}

        def shared(cache: dict, obj: dict, name: str, build):
            """What build makes of the index list obj[name], once per distinct list.

            Keyed by repr, which tells [1], [1.0] and [true] apart where ==
            does not, so every distinct list is checked when first seen.
            """
            value = obj[name]
            key = repr(value)
            found = cache.get(key)
            if found is None:
                found = cache[key] = build(_relation_indices(value, name, r_count))
            return found

        label_set = partial(LabelSet, r_count)

        examples = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                pair_id, doc_id, corrupted = obj["pair_id"], obj["doc_id"], obj["corrupted"]
                if type(pair_id) is not str or type(doc_id) is not str:
                    raise TypeError(f"pair_id and doc_id must be strings, got {pair_id!r} "
                                    f"and {doc_id!r}")
                if type(corrupted) is not bool:
                    raise TypeError(f"'corrupted' must be true or false, got {corrupted!r}")
                examples.append(PairExample(
                    pair_id=pair_id,
                    doc_id=doc_id,
                    features=_features(obj["features"]),
                    labels=shared(label_sets, obj, "positives", label_set),
                    true_labels=shared(label_sets, obj, "true_positives", label_set),
                    seen_in_train=shared(seen_sets, obj, "seen_in_train", frozenset),
                    difficulty=obj["difficulty"],
                    corrupted=corrupted,
                ))
            except (KeyError, TypeError, ValueError, OverflowError, SchemaError) as exc:
                raise SchemaError(f"{path}:{lineno}: malformed pair record "
                                  f"({type(exc).__name__}: {exc})") from exc
    dataset = Dataset(schema=schema, examples=tuple(examples),
                      document_ids=tuple(document_ids), manifest=manifest)
    _check_loaded(path, dataset)
    return dataset


def _check_loaded(path: str, dataset: Dataset) -> None:
    """Whole-dataset checks, run once over all pairs rather than per line.

    They keep the (n, R) masks and the (n, F) feature matrix built from a
    loaded dataset equal to its per-pair records: pair ids are unique, every
    row has one length and every feature is finite. Index lists are checked
    per line, as each distinct list is first read.
    """
    examples = dataset.examples
    pair_ids = [ex.pair_id for ex in examples]
    if len(set(pair_ids)) != len(pair_ids):
        duplicate = next(p for p, count in Counter(pair_ids).items() if count > 1)
        raise SchemaError(f"{path}: duplicate pair_id {duplicate!r}")
    stray_docs = sorted({ex.doc_id for ex in examples} - set(dataset.document_ids))
    if stray_docs:
        raise SchemaError(f"{path}: doc_ids not listed in the header: {stray_docs[:3]}")
    lengths = sorted({ex.features.size for ex in examples})
    if len(lengths) > 1:
        raise SchemaError(f"{path}: feature lengths differ between pairs: {lengths}")
    if examples:
        finite = np.isfinite(np.stack([ex.features for ex in examples])).all(axis=1)
        if not finite.all():
            bad = examples[int(np.argmin(finite))].pair_id
            raise SchemaError(f"{path}: non-finite features in pair {bad!r}")


def split_by_documents(dataset: Dataset, n_train_documents: int) -> tuple[Dataset, Dataset]:
    """Split into (train, dev) on document boundaries: first n docs train, rest dev."""
    if not 0 < n_train_documents < len(dataset.document_ids):
        raise SchemaError(
            f"n_train_documents must be in (0, {len(dataset.document_ids)}), "
            f"got {n_train_documents}"
        )
    train_ids = dataset.document_ids[:n_train_documents]
    dev_ids = dataset.document_ids[n_train_documents:]
    train_set = frozenset(train_ids)
    train_ex = tuple(ex for ex in dataset.examples if ex.doc_id in train_set)
    dev_ex = tuple(ex for ex in dataset.examples if ex.doc_id not in train_set)

    def _mk(ids: tuple[str, ...], exs: tuple[PairExample, ...], role: str) -> Dataset:
        manifest = dict(dataset.manifest)
        manifest["split"] = {"role": role, "documents": [ids[0], ids[-1]], "count": len(ids)}
        return Dataset(schema=dataset.schema, examples=exs, document_ids=ids, manifest=manifest)

    return _mk(train_ids, train_ex, "train"), _mk(dev_ids, dev_ex, "dev")
