"""Core domain types: relation vocabulary, label sets, logit rows, datasets.

Relation indices are 1-based; index 0 is reserved for the learned threshold
(TH) logit everywhere in the package, so a logit row of length R+1 can be
indexed directly by relation index. A label set's negatives are derived as
the complement of its positives, so it always partitions 1..R. A dataset
is built from its pairs' columns (arrays), which its one constructor
checks, and builds per-pair ``PairExample`` records only on demand. All
types are immutable after construction and safe to share across threads.
Every artifact file is written through ``open_atomic``, by ``write_json``,
``write_csv`` or ``save_dataset_jsonl``, which also writes each dataset's
column sidecar.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
import zlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from itertools import chain, filterfalse, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

import numpy as np
import numpy.lib.format as npy
import orjson

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


_NUMBER_TYPES = frozenset((int, float))


def require_numbers(name: str, value: Any) -> None:
    """TypeError unless value is a list of JSON numbers: ints and floats, no bools."""
    if type(value) is not list or not _NUMBER_TYPES.issuperset(map(type, value)):
        raise TypeError(f"{name!r} must be a list of numbers, got {value!r:.80}")


def require_finite(name: str, value: Any) -> None:
    """ValueError unless value is a finite real number, not a bool, that fits a float."""
    try:
        finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
    except OverflowError:   # an integer beyond the float range
        finite = False
    if not finite:
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


def write_json(path, obj: Any) -> None:
    """``obj`` as compact JSON plus a newline, written atomically."""
    with open_atomic(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """A header line and one line per row through ``csv.writer``, written atomically."""
    with open_atomic(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "relation_names": list(self.relation_names)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RelationSchema":
        names = d["relation_names"]
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise TypeError(f"'relation_names' must be a list of strings, got {names!r}")
        relation_count, th_index = d["relation_count"], d.get("th_index", TH_INDEX)
        require_int("relation_count", relation_count, 1)
        require_int("th_index", th_index, TH_INDEX)
        return cls(relation_count=relation_count, relation_names=tuple(names),
                   th_index=th_index)


@dataclass(frozen=True)
class LabelSet:
    """Positive relation indices for one pair; `negatives` is always the rest of {1..R}."""

    relation_count: int
    positives: frozenset[int]
    negatives: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        pos = frozenset(int(r) for r in self.positives)
        object.__setattr__(self, "positives", pos)
        bad = sorted(r for r in pos if not 1 <= r <= self.relation_count)
        if bad:
            raise SchemaError(f"positive indices out of range [1, {self.relation_count}]: {bad}")
        object.__setattr__(self, "negatives", frozenset(range(1, self.relation_count + 1)) - pos)


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


_ID_COLUMNS = ("pair_ids", "doc_ids")
_MASK_COLUMNS = ("labels", "true_labels", "seen")
_COLUMNS = _ID_COLUMNS + ("features",) + _MASK_COLUMNS + ("hard", "corrupted")


def _mask(lengths: Sequence[int], indices: Sequence[int], relation_count: int) -> np.ndarray:
    """Boolean (n, R) mask of n = len(lengths) rows: row i sets column r-1 for each of
    the next lengths[i] relation indices r in indices."""
    mask = np.zeros((len(lengths), relation_count), dtype=bool)
    mask[np.repeat(np.arange(len(lengths)), lengths),
         np.array(indices, dtype=np.intp) - 1] = True
    return mask


def _index_lists(mask: np.ndarray) -> list[list[int]]:
    """The relation indices set in each row of a boolean (n, R) mask, ascending."""
    lists: list[list[int]] = [[] for _ in range(len(mask))]
    rows, cols = divmod(np.flatnonzero(mask), mask.shape[1])
    for i, r in zip(rows.tolist(), (cols + 1).tolist()):
        lists[i].append(r)
    return lists


def _require_strings(what: str, values) -> None:
    for value in values:
        if not isinstance(value, str):
            raise SchemaError(f"{what} must hold strings, got {value!r}")


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """A schema, its pairs as read-only columns, and the declared document order.

    Row i of each column is pair i: ``pair_ids`` and ``doc_ids`` (object
    arrays of str), ``features`` (N, F), the boolean (N, R) masks ``labels``
    (training labels), ``true_labels`` and ``seen`` (facts Ign-F1 removes),
    column r-1 holding relation r, and the flags ``hard`` and ``corrupted``.
    ``doc_index`` is each pair's position in ``document_ids``.

    ``Dataset(schema, document_ids, manifest, **columns)`` takes every column
    by name and checks them once: the shapes above, string document and pair
    ids, unique document and pair ids, declared doc ids, finite features, and
    corrupted pairs whose labels are a proper subset of their true labels.
    """

    schema: RelationSchema
    document_ids: tuple[str, ...]
    manifest: dict[str, Any]
    pair_ids: np.ndarray
    doc_ids: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    true_labels: np.ndarray
    seen: np.ndarray
    hard: np.ndarray
    corrupted: np.ndarray
    doc_index: np.ndarray

    def __init__(self, schema: RelationSchema, document_ids: Sequence[str],
                 manifest: dict[str, Any] | None = None, **columns: Any):
        if columns.keys() != set(_COLUMNS):
            raise TypeError(f"Dataset columns are {_COLUMNS}, got {tuple(columns)}")
        put = partial(object.__setattr__, self)
        put("schema", schema)
        put("document_ids", tuple(document_ids))
        put("manifest", {} if manifest is None else manifest)
        n = len(columns["pair_ids"])
        dtypes = {"features": np.float64, **dict.fromkeys(_ID_COLUMNS, object)}
        for name in _COLUMNS:
            arr = np.asarray(columns[name], dtype=dtypes.get(name, bool))
            if name == "features":
                ok, want = arr.ndim == 2 and len(arr) == n, f"({n}, F)"
            else:
                shape = (n, schema.relation_count) if name in _MASK_COLUMNS else (n,)
                ok, want = arr.shape == shape, str(shape)
            if not ok:
                raise SchemaError(f"column {name!r} has shape {arr.shape}, expected {want}")
            if name in _ID_COLUMNS:     # the loader reads ids back only as strings
                _require_strings(f"column {name!r}", arr)
            arr = arr.view()     # freezes the column, not an array the caller passed in
            arr.flags.writeable = False
            put(name, arr)
        _require_strings("document ids", self.document_ids)
        if len(set(self.document_ids)) != len(self.document_ids):
            raise SchemaError("document ids must be unique")
        if len(set(self.pair_ids)) != len(self.pair_ids):
            duplicate = next(p for p, count in Counter(self.pair_ids).items() if count > 1)
            raise SchemaError(f"duplicate pair_id {duplicate!r}")
        position = {doc_id: i for i, doc_id in enumerate(self.document_ids)}
        try:
            doc_index = np.array([position[d] for d in self.doc_ids], dtype=np.intp)
        except KeyError:
            stray = sorted(set(self.doc_ids) - set(position))
            raise SchemaError(f"doc_ids not listed in the documents: {stray[:3]}") from None
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            raise SchemaError(f"non-finite features in pair "
                              f"{self.pair_ids[int(np.argmin(finite))]!r}")
        bad = self.corrupted & ~((self.labels <= self.true_labels).all(axis=1)
                                 & (self.labels != self.true_labels).any(axis=1))
        if bad.any():
            raise SchemaError(f"pair {self.pair_ids[int(np.argmax(bad))]!r} is flagged corrupted "
                              f"but its labels are not a proper subset of its true labels")
        doc_index.flags.writeable = False
        put("doc_index", doc_index)

    def __len__(self) -> int:
        return len(self.pair_ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The per-pair columns by name, as the constructor takes them."""
        return {name: getattr(self, name) for name in _COLUMNS}

    @cached_property
    def examples(self) -> tuple[PairExample, ...]:
        """One PairExample per pair, built on first use; equal index lists share
        one ``LabelSet`` (or seen-in-train set)."""
        cache: dict[tuple[bool, bytes], Any] = {}
        label_set = partial(LabelSet, self.schema.relation_count)

        def shared(row: np.ndarray, build) -> Any:
            key = (build is frozenset, row.tobytes())
            if key not in cache:
                cache[key] = build(frozenset((np.flatnonzero(row) + 1).tolist()))
            return cache[key]

        return tuple(
            PairExample(pair_id=pair_id, doc_id=doc_id, features=x,
                        labels=shared(labels, label_set), true_labels=shared(true, label_set),
                        seen_in_train=shared(seen, frozenset), difficulty=DIFFICULTIES[hard],
                        corrupted=corrupted)
            for pair_id, doc_id, x, labels, true, seen, hard, corrupted in zip(
                self.pair_ids, self.doc_ids, self.features, self.labels, self.true_labels,
                self.seen, self.hard.tolist(), self.corrupted.tolist()))


# --- JSONL serialization -------------------------------------------------
#
# One pair per line, keys in fixed order for byte-stable output; a header
# line carries the schema, document order, and manifest. Both directions
# work on blocks of pairs, which bounds the memory a block's records take.

_BLOCK = 512
_pair_fields = itemgetter("pair_id", "doc_id", "features", "positives", "true_positives",
                          "seen_in_train", "difficulty", "corrupted")


def _orjson_rows(features: np.ndarray) -> np.ndarray:
    """Rows whose every value is 0.0 or has 1e-4 <= |x| < 1e16.

    ``orjson`` writes such a double as ``repr`` (and so ``json``) does; below
    or above that range ``json`` switches to exponent form (``1e-05``,
    ``1e+16``) where ``orjson`` writes ``0.00001`` or ``1e16``. NaN and the
    infinities fail the condition. Only boolean temporaries are made.
    """
    plain = features >= 1e-4
    plain |= features <= -1e-4
    plain &= features < 1e16
    plain &= features > -1e16
    plain |= features == 0.0
    return plain.all(axis=1)


def _plain_string(value: Any) -> bool:
    """True for a str that ``json`` writes unescaped, as ``orjson`` then does too."""
    return type(value) is str and encode_basestring_ascii(value) == f'"{value}"'


def _plain_ids(pair_ids: list, doc_ids: list) -> list[bool] | bool:
    """Per pair, whether both ids are ``_plain_string``s; True when all are.

    ``json`` escapes character by character, so the joined ids need no escape
    exactly when no id does; only when they do is each id checked alone.
    """
    ids = pair_ids + doc_ids
    if {str}.issuperset(map(type, ids)) and _plain_string("".join(ids)):
        return True
    return [_plain_string(p) and _plain_string(d) for p, d in zip(pair_ids, doc_ids)]


def _header_line(dataset: Dataset) -> str:
    return json.dumps({
        "format": DATASET_FORMAT,
        "schema": dataset.schema.to_dict(),
        "documents": list(dataset.document_ids),
        "pair_count": len(dataset),
        "manifest": dataset.manifest,
    }, separators=(",", ":"))


def _pair_blocks(dataset: Dataset) -> Iterator[bytes]:
    """The pair lines of each block, joined, each line ending in a newline.

    The blocks are of equal size, at most ``_BLOCK`` pairs. Each line is
    encoded alone: by one ``orjson.dumps`` when that gives the bytes ``json``
    would (every feature passes ``_orjson_rows`` and both ids are
    ``_plain_string``s), by ``json`` otherwise.
    """
    dumps = json.JSONEncoder(separators=(",", ":")).encode
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    # numpy runs once on whole columns, and the blocks are of one size, so a block
    # makes no small array and no short list: the ones it freed would stay cached
    # (by numpy and by the C allocator) where they were made and could keep a
    # grown heap from shrinking, which showed as 15 MiB more peak RSS
    features = np.ascontiguousarray(dataset.features)
    columns = (dataset.pair_ids.tolist(), dataset.doc_ids.tolist(), features,
               _index_lists(dataset.labels), _index_lists(dataset.true_labels),
               _index_lists(dataset.seen), dataset.hard.tolist(), dataset.corrupted.tolist(),
               _orjson_rows(features).tolist())
    n, count = len(dataset), -(-len(dataset) // _BLOCK)
    bounds = [n * i // count for i in range(count + 1)] if n else []
    for start, stop in zip(bounds, bounds[1:]):
        (pair_ids, doc_ids, rows, positives, true, seen, hard, corrupted,
         fast) = (column[start:stop] for column in columns)
        plain = _plain_ids(pair_ids, doc_ids)
        if plain is not True:
            fast = [f and p for f, p in zip(fast, plain)]
        lines = []
        for pair_id, doc_id, row, pos, tru, sn, hd, corr, ok in zip(
                pair_ids, doc_ids, rows, positives, true, seen, hard, corrupted, fast):
            record = {"pair_id": pair_id, "doc_id": doc_id, "features": row, "positives": pos,
                      "true_positives": tru, "seen_in_train": sn,
                      "difficulty": DIFFICULTIES[hd], "corrupted": corr}
            if ok:
                lines.append(orjson.dumps(record, option=option))
            else:
                record["features"] = row.tolist()
                lines.append(dumps(record).encode() + b"\n")
        yield b"".join(lines)


def save_dataset_jsonl(dataset: Dataset, path: str) -> None:
    """Write the dataset to path, atomically (``open_atomic``), each line as
    ``json.dumps`` with separators ``(",", ":")`` would: the header by ``json`` (its
    manifest may hold integers wider than 64 bits), then ``_pair_blocks``, one write
    per block; then the column sidecar bound to those bytes (``_save_sidecar``)."""
    length, crc = 0, 0
    with open_atomic(path, "wb") as fh:
        for text in chain([_header_line(dataset).encode() + b"\n"], _pair_blocks(dataset)):
            fh.write(text)
            length, crc = length + len(text), zlib.crc32(text, crc)
    _save_sidecar(dataset, path + SIDECAR_SUFFIX, length, crc)


# --- the column sidecar ------------------------------------------------------
#
# ``save_dataset_jsonl`` writes beside each file a copy of the dataset's
# columns that loads without parsing JSON: a magic line, a line holding the
# JSONL's byte length, its CRC-32 and the CRC-32 of the payload, and the
# payload, one .npy record (version 1.0, as ``np.save`` writes it, no
# pickles) per array of ``_sidecar_arrays``. The loader uses it only when
# every check of ``_sidecar_columns`` holds, and parses the JSONL otherwise.

SIDECAR_SUFFIX = ".columns"
_SIDECAR_MAGIC = b"cmm-columns/1\n"
_CHUNK = 1 << 20


def _utf8_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An id column as its UTF-8 bytes, joined, and the n + 1 int64 offsets of each
    id's bytes. A lone surrogate is kept (``surrogatepass``); the loader's strict
    decoding then refuses the sidecar, as the parser refuses the JSONL."""
    text = "".join(ids)
    data = text.encode("utf-8", "surrogatepass")
    # only ASCII text encodes to one byte per character
    lengths = (map(len, ids) if len(data) == len(text)
               else (len(i.encode("utf-8", "surrogatepass")) for i in ids))
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(lengths, np.int64, len(ids)), out=offsets[1:])
    return np.frombuffer(data, dtype=np.uint8), offsets


def _sidecar_arrays(dataset: Dataset) -> list[np.ndarray]:
    """The sidecar's records: features, the pair and document id offsets, the pair
    and document id bytes, labels, true_labels, seen, hard and corrupted."""
    (pair_bytes, pair_offsets), (doc_bytes, doc_offsets) = map(
        _utf8_ids, (dataset.pair_ids, dataset.doc_ids))
    return [np.ascontiguousarray(a) for a in (
        dataset.features, pair_offsets, doc_offsets, pair_bytes, doc_bytes, dataset.labels,
        dataset.true_labels, dataset.seen, dataset.hard, dataset.corrupted)]


def _record_specs(n: int, relation_count: int) -> list[tuple[str, tuple[int | None, ...]]]:
    """The dtype and shape of each of ``_sidecar_arrays`` for n pairs; None is any length."""
    return [("<f8", (n, None)), ("<i8", (n + 1,)), ("<i8", (n + 1,)), ("|u1", (None,)),
            ("|u1", (None,))] + [("|b1", (n, relation_count))] * 3 + [("|b1", (n,))] * 2


def _save_sidecar(dataset: Dataset, path: str, length: int, crc: int) -> None:
    """The column sidecar of a JSONL file of ``length`` bytes with CRC-32 ``crc``,
    written atomically. Each record is written from the array's own buffer."""
    records, payload_crc = [], 0
    for array in _sidecar_arrays(dataset):
        head = io.BytesIO()
        npy.write_array_header_1_0(head, npy.header_data_from_array_1_0(array))
        for part in (head.getvalue(), array):
            payload_crc = zlib.crc32(part, payload_crc)
            records.append(part)
    with open_atomic(path, "wb") as fh:
        fh.write(_SIDECAR_MAGIC + b"%d %d %d\n" % (length, crc, payload_crc))
        for part in records:
            fh.write(part)


def _file_crc(fh: IO[bytes]) -> int:
    """The CRC-32 of an open file's bytes from the start, read in 1 MiB chunks
    into one buffer."""
    fh.seek(0)
    crc, chunk = 0, bytearray(_CHUNK)
    while size := fh.readinto(chunk):
        crc = zlib.crc32(memoryview(chunk)[:size], crc)
    return crc


def _utf8_column(data: np.ndarray, offsets: np.ndarray) -> list[str]:
    """The ids ``_utf8_ids`` wrote; ValueError unless the offsets run from 0 to the
    end of the bytes without decreasing and each id is valid UTF-8."""
    if offsets[0] != 0 or offsets[-1] != len(data) or (np.diff(offsets) < 0).any():
        raise ValueError("id offsets do not cover the id bytes")
    raw, bounds = data.tobytes(), offsets.tolist()
    return [raw[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]


def _sidecar_columns(fh: IO[bytes], path: str, pair_count: int | None,
                     relation_count: int) -> dict[str, Any] | None:
    """The columns of the open JSONL file fh read from its sidecar, or None.

    None for a header that declares no pairs or no ``pair_count`` (older
    writers wrote no sidecar), and unless the sidecar exists, starts with
    the magic line, names fh's byte length and CRC-32 (fh is read again to
    hash it) and its own payload's CRC-32, and holds exactly the records
    ``_record_specs`` declares for the header's pair count and relation
    count, every boolean byte 0 or 1, and ids that read as ``_utf8_column``
    reads them. Each record's header is checked, and its size against the
    bytes left in the file, before its array is allocated; the data is read
    straight into that array.
    """
    if not pair_count:
        return None
    try:
        with open(path + SIDECAR_SUFFIX, "rb") as side:
            if side.readline(len(_SIDECAR_MAGIC)) != _SIDECAR_MAGIC:
                return None
            length, crc, payload_crc = map(int, side.readline(64).split())
            if length != os.fstat(fh.fileno()).st_size or _file_crc(fh) != crc:
                return None
            left, crc, arrays = os.fstat(side.fileno()).st_size - side.tell(), 0, []
            for dtype, want in _record_specs(pair_count, relation_count):
                prefix = side.read(10)      # magic, version, header length
                if prefix[:8] != npy.magic(1, 0):
                    return None
                head = prefix + side.read(int.from_bytes(prefix[8:], "little"))
                shape, fortran_order, found = npy.read_array_header_1_0(io.BytesIO(head[8:]))
                left -= len(head)
                if (found.str != dtype or fortran_order or len(shape) != len(want)
                        or any(w is not None and s != w for s, w in zip(shape, want))
                        or math.prod(shape) * found.itemsize > left):
                    return None
                array = np.empty(shape, found)
                left -= side.readinto(array)
                crc = zlib.crc32(array, zlib.crc32(head, crc))
                if dtype == "|b1" and array.view(np.uint8).max(initial=0) > 1:
                    return None
                arrays.append(array)
        if left or crc != payload_crc:
            return None
        (features, pair_offsets, doc_offsets, pair_bytes, doc_bytes, labels, true_labels,
         seen, hard, corrupted) = arrays
        return dict(pair_ids=_utf8_column(pair_bytes, pair_offsets),
                    doc_ids=_utf8_column(doc_bytes, doc_offsets), features=features,
                    labels=labels, true_labels=true_labels, seen=seen, hard=hard,
                    corrupted=corrupted)
    except (OSError, ValueError, TypeError):
        return None


def _clean_block(lines: list[bytes], first_lineno: int, relation_count: int,
                 path: str) -> tuple[dict[str, Any], set[int]]:
    """(a block's columns, the set of its feature lengths), blank lines skipped;
    SchemaError from ``_check_block`` unless every line is a pair record the
    columns can represent.

    Each column is checked at once: its set of types, the range of the
    relation indices, and the difficulties. The masks are (m, R) arrays, and
    ``features`` is an (m, F) array, or None when the rows' lengths differ
    (the loader rejects the file then, once every line has been checked).
    """
    try:
        records = list(map(_pair_fields, map(orjson.loads, filterfalse(bytes.isspace, lines))))
        (pair_ids, doc_ids, features, *index_lists, difficulty,
         corrupted) = zip(*records) if records else [()] * 8
        indices = list(chain.from_iterable(chain(*index_lists)))
        clean = ({str}.issuperset(map(type, pair_ids + doc_ids))
                 and {bool}.issuperset(map(type, corrupted))
                 and {list}.issuperset(map(type, chain(features, *index_lists)))
                 and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(features)))
                 and set(DIFFICULTIES).issuperset(difficulty)
                 and {int}.issuperset(map(type, indices))
                 and (not indices or 1 <= min(indices) and max(indices) <= relation_count))
    except (KeyError, TypeError, ValueError):
        clean = False     # orjson.JSONDecodeError is a ValueError
    if not clean:
        _check_block(lines, first_lineno, relation_count, path)
    widths = set(map(len, features))
    width = max(widths, default=0)
    features = None if len(widths) > 1 else np.fromiter(
        chain.from_iterable(features), dtype=np.float64,
        count=len(features) * width).reshape(len(features), width)
    # the three masks as the (3, m, R) rows of one
    masks = _mask(list(map(len, chain(*index_lists))), indices, relation_count).reshape(
        3, len(pair_ids), relation_count)
    ids = [np.array(column, dtype=object) for column in (pair_ids, doc_ids)]
    return dict(zip(_COLUMNS, (*ids, features, *masks, ["hard" == d for d in difficulty],
                               corrupted))), widths


def _check_block(lines: list[bytes], first_lineno: int, relation_count: int,
                 path: str) -> None:
    """SchemaError naming the first line of a block that is not a pair record the
    columns can represent, each line parsed and checked alone; blank lines are
    skipped."""
    for lineno, line in enumerate(lines, start=first_lineno):
        if line.isspace():
            continue
        try:
            obj = orjson.loads(line)
            pair_id, doc_id, corrupted = obj["pair_id"], obj["doc_id"], obj["corrupted"]
            if type(pair_id) is not str or type(doc_id) is not str:
                raise TypeError(f"pair_id and doc_id must be strings, got {pair_id!r} "
                                f"and {doc_id!r}")
            if type(corrupted) is not bool:
                raise TypeError(f"'corrupted' must be true or false, got {corrupted!r}")
            require_numbers("features", obj["features"])
            for name in ("positives", "true_positives", "seen_in_train"):
                value = obj[name]
                if type(value) is not list or any(type(r) is not int for r in value):
                    raise TypeError(f"{name!r} must be a list of integers, got {value!r}")
                stray = sorted(r for r in value if not 1 <= r <= relation_count)
                if stray:
                    raise ValueError(f"{name!r} indices outside 1..{relation_count}: {stray}")
            difficulty = obj["difficulty"]
            if difficulty not in DIFFICULTIES:
                raise ValueError(f"difficulty must be one of {DIFFICULTIES}, "
                                 f"got {difficulty!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{lineno}: malformed pair record "
                              f"({type(exc).__name__}: {exc})") from exc


def load_dataset_jsonl(path: str) -> Dataset:
    """Read a dataset; SchemaError on any record the columns could not represent.

    The file is read as bytes. The header line is decoded as UTF-8 and parsed
    with ``json``, which keeps integers of any width in its manifest; each
    pair line is parsed with ``orjson``, whose floats are the correctly
    rounded doubles ``json`` gives and which rejects invalid UTF-8, NaN,
    Infinity and numbers beyond the float range. A header's ``pair_count``,
    which the writer records, must equal the number of pair lines, so a file
    cut short at a line boundary does not load. Pair lines are read in
    blocks of ``_BLOCK``, each made columns by ``_clean_block``; a block with
    a fault is read again line by line by ``_check_block``, which names the
    first line at fault. Every line is checked before the blocks' feature
    lengths are compared.

    The pair lines are not parsed when the file's column sidecar passes
    ``_sidecar_columns`` and its columns make a ``Dataset``: that sidecar
    was written with these exact bytes, so it holds the columns the parse
    gives. A sidecar that fails is ignored.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line:
            raise SchemaError(f"{path}: empty dataset file")
        try:
            header = json.loads(header_line.decode("utf-8"))
            if not isinstance(header, dict):
                raise TypeError("header must be a JSON object")
            if header.get("format") != DATASET_FORMAT:
                raise ValueError(f"unsupported format tag {header.get('format')!r}")
            schema = RelationSchema.from_dict(header["schema"])
            document_ids = header["documents"]
            if not (isinstance(document_ids, list)
                    and all(isinstance(d, str) for d in document_ids)):
                raise TypeError("'documents' must be a list of strings")
            manifest = header.get("manifest", {})
            if not isinstance(manifest, dict):
                raise TypeError(f"'manifest' must be a JSON object, got {manifest!r:.80}")
            declared = header.get("pair_count")     # absent from files of older writers
            if "pair_count" in header:
                require_int("pair_count", declared, 0)
        except (KeyError, TypeError, ValueError, SchemaError) as exc:
            raise SchemaError(f"{path}:1: malformed header ({type(exc).__name__}: {exc})") from exc
        r_count = schema.relation_count
        columns = _sidecar_columns(fh, path, declared, r_count)
        if columns is not None:
            with contextlib.suppress(SchemaError):
                return Dataset(schema, document_ids, manifest, **columns)
        fh.seek(len(header_line))
        blocks, widths, lineno = [], set(), 2
        while lines := list(islice(fh, _BLOCK)):
            block, block_widths = _clean_block(lines, lineno, r_count, path)
            if len(block["pair_ids"]):
                blocks.append(block)
                widths |= block_widths
            lineno += len(lines)
    count = sum(len(block["pair_ids"]) for block in blocks)
    if declared is not None and declared != count:
        raise SchemaError(f"{path}:1: the header declares {declared} pairs, but the file "
                          f"holds {count} pair lines")
    if len(widths) > 1:
        raise SchemaError(f"{path}: feature lengths differ between pairs: {sorted(widths)}")
    blocks = blocks or [_clean_block([], 2, r_count, path)[0]]    # (0, 0) features, (0, R) masks
    try:
        return Dataset(schema, document_ids, manifest,
                       **{name: np.concatenate([block[name] for block in blocks])
                          for name in _COLUMNS})
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def split_by_documents(dataset: Dataset, n_train_documents: int) -> tuple[Dataset, Dataset]:
    """Split into (train, dev) on document boundaries: first n docs train, rest dev."""
    if not 0 < n_train_documents < len(dataset.document_ids):
        raise SchemaError(
            f"n_train_documents must be in (0, {len(dataset.document_ids)}), "
            f"got {n_train_documents}"
        )
    in_train = dataset.doc_index < n_train_documents

    def _mk(ids: tuple[str, ...], rows: np.ndarray, role: str) -> Dataset:
        manifest = dict(dataset.manifest)
        manifest["split"] = {"role": role, "documents": [ids[0], ids[-1]], "count": len(ids)}
        return Dataset(dataset.schema, ids, manifest,
                       **{name: col[rows] for name, col in dataset.columns.items()})

    return (_mk(dataset.document_ids[:n_train_documents], in_train, "train"),
            _mk(dataset.document_ids[n_train_documents:], ~in_train, "dev"))
