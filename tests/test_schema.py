import decimal
import io
import json
import math
import os
import zlib
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.lib.format as npy
import orjson
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmm import schema
from cmm.errors import SchemaError
from cmm.schema import (
    DATASET_FORMAT,
    SIDECAR_SUFFIX,
    Dataset,
    LabelSet,
    LogitRow,
    PairExample,
    RelationSchema,
    _BLOCK,
    _orjson_rows,
    load_dataset_jsonl,
    save_dataset_jsonl,
    split_by_documents,
)
from cmm.synthdata import GenConfig, generate, inject_false_negatives
from tests.test_cli import DATASET_MUTATIONS


def make_example(pair_id, doc_id, positives, relation_count=4, feature_dim=3,
                 true_positives=None, corrupted=False, seen=(), difficulty="easy",
                 features=None):
    if features is None:
        features = np.arange(feature_dim, dtype=float)
    labels = LabelSet(relation_count, frozenset(positives))
    true = LabelSet(relation_count,
                    frozenset(positives if true_positives is None else true_positives))
    return PairExample(pair_id=pair_id, doc_id=doc_id, features=features, labels=labels,
                       true_labels=true, seen_in_train=frozenset(seen),
                       difficulty=difficulty, corrupted=corrupted)


def masks(index_sets, relation_count):
    mask = np.zeros((len(index_sets), relation_count), dtype=bool)
    for i, indices in enumerate(index_sets):
        mask[i, [r - 1 for r in indices]] = True
    return mask


def record_columns(examples, relation_count=4):
    """The Dataset columns of PairExample records, one row per record."""
    return dict(
        pair_ids=[ex.pair_id for ex in examples], doc_ids=[ex.doc_id for ex in examples],
        features=np.array([ex.features for ex in examples]),
        labels=masks([ex.labels.positives for ex in examples], relation_count),
        true_labels=masks([ex.true_labels.positives for ex in examples], relation_count),
        seen=masks([ex.seen_in_train for ex in examples], relation_count),
        hard=[ex.difficulty == "hard" for ex in examples],
        corrupted=[ex.corrupted for ex in examples])


def make_dataset(examples, relation_count=4):
    """A Dataset of PairExample records, documents declared in first-seen order."""
    return Dataset(RelationSchema.with_default_names(relation_count),
                   list(dict.fromkeys(ex.doc_id for ex in examples)), {"generator": {"seed": 1}},
                   **record_columns(examples, relation_count))


# Decimal text that float repr never writes: 17-40 significant digits, exponents
# from -330 (below the smallest subnormal) to 308
LONG_DECIMALS = st.builds(
    lambda sign, digits, exponent: f"{sign}{digits[0]}.{digits[1:]}e{exponent}",
    st.sampled_from(["", "-"]), st.text("0123456789", min_size=17, max_size=40),
    st.integers(-330, 308)).filter(lambda t: math.isfinite(float(t)))


@st.composite
def near_halfway(draw):
    """Text at or next to the exact midpoint of two adjacent doubles."""
    low = draw(st.floats(0.0, allow_infinity=False))
    high = math.nextafter(low, math.inf)
    assume(math.isfinite(high))
    with decimal.localcontext(decimal.Context(prec=1200)):
        mid = (decimal.Decimal(low) + decimal.Decimal(high)) / 2
    digits = draw(st.integers(17, 40))
    rounding = draw(st.sampled_from([None, decimal.ROUND_DOWN, decimal.ROUND_UP]))
    if rounding is not None:
        mid = decimal.Context(prec=digits, rounding=rounding).plus(mid)
    return f"{mid:e}"


NEAR_HALFWAY = near_halfway()


# Doubles orjson writes as repr does (see cmm.schema._orjson_rows), drawn often
# enough that the writer's orjson branch runs
PLAIN_DOUBLES = st.one_of(st.floats(1e-4, 1e16, exclude_max=True),
                          st.floats(-1e16, -1e-4, exclude_min=True))
FINITE_DOUBLES = st.one_of(PLAIN_DOUBLES, st.floats(allow_nan=False, allow_infinity=False))
# One row per value: either side of both guard bounds, and the extremes
WRITER_EDGE_VALUES = [[v] for v in (
    0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-4, float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0)))]
# Characters json escapes (quote, backslash, controls, DEL) or writes as \u
# escapes (non-ASCII), beside ones both writers leave alone
ID_TEXT = st.one_of(st.text("ab:09", min_size=1, max_size=6),
                    st.text(st.sampled_from('a:"\\\x00\n\x1f\x7f\xe9\u4e2d\U0001f600'),
                            max_size=6),
                    st.text(max_size=6))
AWKWARD_IDS = ['q"uote', "back\\slash", "tab\t", "nul\x00", "del\x7f", "caf\xe9",
               "\u4e2d", "\U0001f600", ""]


@st.composite
def writer_datasets(draw):
    """(features, pair_ids, doc_ids) of 1-5 pairs with 1-4 finite features each."""
    n, width = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    features = draw(st.lists(st.lists(FINITE_DOUBLES, min_size=width, max_size=width),
                             min_size=n, max_size=n))
    pair_ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
    documents = draw(st.lists(ID_TEXT, min_size=1, max_size=3, unique=True))
    return features, pair_ids, draw(st.lists(st.sampled_from(documents), min_size=n, max_size=n))


WRITER_DATASETS = writer_datasets()


def writer_dataset(features, pair_ids, doc_ids):
    """A Dataset at R=4 of these columns; pair i has positive 1 + i % 4 and is hard for odd i."""
    n = len(pair_ids)
    labels = masks([{1 + i % 4} for i in range(n)], 4)
    return Dataset(RelationSchema.with_default_names(4), list(dict.fromkeys(doc_ids)),
                   {"generator": {"seed": 1}}, pair_ids=pair_ids, doc_ids=doc_ids,
                   features=features, labels=labels, true_labels=labels,
                   seen=masks([{4}] * n, 4), hard=[i % 2 for i in range(n)], corrupted=[False] * n)


def write_records(path, records):
    """A file of one document "d0" at R=4 and one line per record (dicts of JSON
    fields over defaults)."""
    header = {"format": DATASET_FORMAT, "schema": RelationSchema.with_default_names(4).to_dict(),
              "documents": ["d0"], "manifest": {}}
    defaults = {"doc_id": "d0", "features": [0.0, 1.0, 2.0], "positives": [],
                "true_positives": [], "seen_in_train": [], "difficulty": "easy",
                "corrupted": False}
    lines = [header] + [{**defaults, "pair_id": f"d0:{i}", **rec}
                        for i, rec in enumerate(records)]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


class TestRelationSchema:
    def test_default_names_unique(self):
        schema = RelationSchema.with_default_names(12)
        assert schema.relation_count == 12
        assert len(set(schema.relation_names)) == 12
        assert schema.th_index == 0

    def test_rejects_bad_counts(self):
        with pytest.raises(SchemaError):
            RelationSchema(relation_count=0, relation_names=())
        with pytest.raises(SchemaError):
            RelationSchema(relation_count=2, relation_names=("a",))
        with pytest.raises(SchemaError):
            RelationSchema(relation_count=2, relation_names=("a", "a"))
        with pytest.raises(SchemaError):
            RelationSchema(relation_count=1, relation_names=("a",), th_index=1)

    def test_round_trip(self):
        schema = RelationSchema.with_default_names(5)
        assert RelationSchema.from_dict(schema.to_dict()) == schema

    @pytest.mark.parametrize("field,value,names", [
        ("relation_count", 2.9, 2), ("relation_count", True, 1), ("relation_count", "2", 2),
        ("th_index", 0.7, 2)])
    def test_from_dict_requires_integers(self, field, value, names):
        d = {**RelationSchema.with_default_names(names).to_dict(), field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RelationSchema.from_dict(d)


class TestLabelSet:
    def test_complement_derivation(self):
        ls = LabelSet(5, frozenset({2, 4}))
        assert ls.negatives == frozenset({1, 3, 5})

    def test_empty_positives_full_negatives(self):
        ls = LabelSet(3, frozenset())
        assert ls.negatives == frozenset({1, 2, 3})
        assert len(ls.positives) + len(ls.negatives) == 3

    def test_partition_size_is_relation_count(self):
        for pos in [set(), {1}, {1, 2, 3}, {3, 7}]:
            ls = LabelSet(7, frozenset(pos))
            assert len(ls.positives) + len(ls.negatives) == 7
            assert not ls.positives & ls.negatives

    def test_out_of_range_positive_rejected(self):
        with pytest.raises(SchemaError):
            LabelSet(3, frozenset({0}))
        with pytest.raises(SchemaError):
            LabelSet(3, frozenset({4}))


class TestLogitRow:
    def test_th_and_length(self):
        row = LogitRow([0.3, 0.5, 0.1])
        assert row.th == 0.3
        assert row.relation_count == 2

    def test_rejects_non_finite(self):
        with pytest.raises(SchemaError):
            LogitRow([0.0, np.inf])
        with pytest.raises(SchemaError):
            LogitRow([np.nan, 0.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(SchemaError):
            LogitRow([1.0])
        with pytest.raises(SchemaError):
            LogitRow(np.zeros((2, 2)))

    def test_values_read_only(self):
        row = LogitRow([0.0, 1.0])
        with pytest.raises(ValueError):
            row.values[0] = 5.0


def round_trip(ds, tmp_path):
    """ds saved and loaded, from its sidecar when it has pairs; the load must equal
    the parse of the file with the sidecar deleted."""
    path = tmp_path / "round_trip.jsonl"
    save_dataset_jsonl(ds, str(path))
    assert sidecar_in_use(path) == (len(ds) > 0)
    loaded = load_dataset_jsonl(str(path))
    assert load_outcome(lambda _: loaded, path) == parsed_outcome(path)
    return loaded


def saved_lines(ds, path):
    """The lines of the file that ``save_dataset_jsonl`` writes for ds at path."""
    save_dataset_jsonl(ds, str(path))
    return path.read_text().splitlines()


def sidecar_in_use(path):
    """Whether the file's sidecar passes every check the loader makes of it."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        return schema._sidecar_columns(fh, str(path), header["pair_count"],
                                       header["schema"]["relation_count"]) is not None


def parsed_outcome(path):
    """``load_outcome`` of the file with its sidecar deleted: every pair line parsed."""
    Path(f"{path}{SIDECAR_SUFFIX}").unlink(missing_ok=True)
    return load_outcome(load_dataset_jsonl, path)


class TestValidateDataset:
    """The checks a Dataset runs once when it is built, from records or from a file."""

    def test_well_formed_passes(self, tmp_path):
        examples = [make_example(f"d0:{i}", "d0", {1 + i % 3}) for i in range(10)]
        ds = make_dataset(examples)
        assert len(ds) == 10
        assert saved_lines(round_trip(ds, tmp_path), tmp_path / "again.jsonl") == saved_lines(
            ds, tmp_path / "ds.jsonl")

    def test_corrupted_without_demotion_reported(self, tmp_path):
        ex = make_example("d0:c", "d0", {1}, true_positives={1}, corrupted=True)
        with pytest.raises(SchemaError, match="'d0:c' is flagged corrupted"):
            make_dataset([ex])
        path = tmp_path / "d.jsonl"
        save_dataset_jsonl(make_dataset([make_example("d0:c", "d0", {1})]), str(path))
        path.write_text(path.read_text().replace('"corrupted":false', '"corrupted":true'))
        with pytest.raises(SchemaError, match=f"{path}: pair 'd0:c' is flagged corrupted"):
            load_dataset_jsonl(str(path))

    def test_corrupted_with_proper_superset_ok(self, tmp_path):
        ex = make_example("d0:c", "d0", {1}, true_positives={1, 2}, corrupted=True)
        loaded = round_trip(make_dataset([ex]), tmp_path).examples[0]
        assert loaded.corrupted
        assert loaded.labels.positives == {1} and loaded.true_labels.positives == {1, 2}

    def test_feature_dim_mismatch_reported(self, tmp_path):
        path = write_records(tmp_path / "d.jsonl", [{"features": [0.0, 1.0, 2.0]},
                                                    {"features": [0.0, 1.0, 2.0, 3.0]}])
        with pytest.raises(SchemaError,
                           match=r"d.jsonl: feature lengths differ between pairs: \[3, 4\]"):
            load_dataset_jsonl(path)

    def test_duplicate_pair_id_reported(self):
        examples = [make_example("d0:0", "d0", {1}), make_example("d0:0", "d0", {2})]
        with pytest.raises(SchemaError, match="duplicate pair_id 'd0:0'"):
            make_dataset(examples)

    def test_pure_function(self, tmp_path):
        examples = [make_example(f"d0:{i}", "d0", {1}, seen=(1,)) for i in range(4)]
        first, second = make_dataset(examples), make_dataset(examples)
        for name, column in first.columns.items():
            assert np.array_equal(column, second.columns[name])
            assert not column.flags.writeable
        assert examples[0].seen_in_train == frozenset({1})
        again = round_trip(first, tmp_path)
        assert saved_lines(again, tmp_path / "again.jsonl") == saved_lines(
            first, tmp_path / "first.jsonl")

    def test_columns_frozen_without_freezing_the_callers_arrays(self):
        columns = record_columns([make_example("d0:0", "d0", {1}), make_example("d0:1", "d0", {2})])
        features, labels = columns["features"], columns["labels"]
        ds = Dataset(RelationSchema.with_default_names(4), ["d0"], **columns)
        assert np.shares_memory(ds.features, features) and np.shares_memory(ds.labels, labels)
        features[0, 0], labels[0, 0] = 7.0, False      # the caller's arrays stay writable
        for column in (ds.features, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = column[0, 0]

    def test_undeclared_doc_id_reported(self):
        columns = record_columns([make_example("d9:0", "d9", {1})])
        with pytest.raises(SchemaError, match=r"doc_ids not listed in the documents: \['d9'\]"):
            Dataset(RelationSchema.with_default_names(4), ["d0"], **columns)

    @pytest.mark.parametrize("column, value, documents, message", [
        ("pair_ids", [1, 2], ["d0"], r"column 'pair_ids' must hold strings, got 1$"),
        ("pair_ids", ["d0:0", None], ["d0"], r"column 'pair_ids' must hold strings, got None$"),
        ("doc_ids", [0, 0], [0], r"column 'doc_ids' must hold strings, got 0$"),
        ("doc_ids", ["d0", "d0"], ["d0", 7], r"document ids must hold strings, got 7$"),
    ], ids=["int_pair_ids", "none_pair_id", "int_doc_ids", "int_document_id"])
    def test_non_string_ids_rejected(self, column, value, documents, message):
        # such ids would be saved as JSON numbers, which the loader rejects
        columns = record_columns([make_example("d0:0", "d0", {1}), make_example("d0:1", "d0", {2})])
        columns[column] = value
        with pytest.raises(SchemaError, match=message):
            Dataset(RelationSchema.with_default_names(4), documents, **columns)

    def test_non_finite_features_reported(self):
        examples = [make_example("d0:0", "d0", {1}),
                    make_example("d0:1", "d0", {1}, features=np.array([0.0, np.inf, 1.0]))]
        with pytest.raises(SchemaError, match="non-finite features in pair 'd0:1'"):
            make_dataset(examples)

    def test_records_the_masks_cannot_hold_reported(self, tmp_path):
        stray_seen = write_records(tmp_path / "seen.jsonl", [{"positives": [1],
                                                              "seen_in_train": [5]}])
        with pytest.raises(SchemaError, match=r"seen.jsonl:2: .*'seen_in_train' indices "
                                              r"outside 1..4: \[5\]"):
            load_dataset_jsonl(stray_seen)
        wide = write_records(tmp_path / "wide.jsonl", [{"positives": [5], "true_positives": [5]}])
        with pytest.raises(SchemaError, match=r"wide.jsonl:2: .*'positives' indices "
                                              r"outside 1..4: \[5\]"):
            load_dataset_jsonl(wide)

    # case: (column, value in a two-pair dataset at R=4, message)
    COLUMN_SHAPES = {
        "pair_ids_2d": ("pair_ids", [["a", "b"], ["c", "d"]],
                        r"'pair_ids' has shape \(2, 2\), expected \(2,\)"),
        "doc_ids_rows": ("doc_ids", ["d0"] * 3, r"'doc_ids' has shape \(3,\), expected \(2,\)"),
        "features_rows": ("features", np.zeros((3, 3)),
                          r"'features' has shape \(3, 3\), expected \(2, F\)"),
        "features_1d": ("features", np.zeros(2), r"'features' has shape \(2,\), expected \(2, F\)"),
        "labels_width": ("labels", np.zeros((2, 5), bool),
                         r"'labels' has shape \(2, 5\), expected \(2, 4\)"),
        "true_labels_rows": ("true_labels", np.zeros((1, 4), bool),
                             r"'true_labels' has shape \(1, 4\), expected \(2, 4\)"),
        "seen_1d": ("seen", np.zeros(2, bool), r"'seen' has shape \(2,\), expected \(2, 4\)"),
        "hard_rows": ("hard", [False], r"'hard' has shape \(1,\), expected \(2,\)"),
        "corrupted_2d": ("corrupted", [[False], [False]],
                         r"'corrupted' has shape \(2, 1\), expected \(2,\)"),
    }

    @pytest.mark.parametrize("case", sorted(COLUMN_SHAPES))
    def test_column_shapes_checked(self, case):
        name, value, message = self.COLUMN_SHAPES[case]
        columns = record_columns([make_example("d0:0", "d0", {1}), make_example("d0:1", "d0", {2})])
        columns[name] = value
        with pytest.raises(SchemaError, match=message):
            Dataset(RelationSchema.with_default_names(4), ["d0"], **columns)

    def test_every_column_named_once(self):
        columns = record_columns([make_example("d0:0", "d0", {1})])
        with pytest.raises(TypeError, match="columns"):
            Dataset(RelationSchema.with_default_names(4), ["d0"],
                    **{k: v for k, v in columns.items() if k != "seen"})
        with pytest.raises(TypeError, match="columns"):
            Dataset(RelationSchema.with_default_names(4), ["d0"], **columns, weights=[1.0])


class TestJsonl:
    def test_round_trip_and_byte_stability(self, tmp_path):
        examples = [
            make_example("d0:0", "d0", {1, 3}, seen=(1,), difficulty="hard"),
            make_example("d0:1", "d0", set()),
            make_example("d1:0", "d1", {2}, true_positives={2, 4}, corrupted=True),
        ]
        ds = make_dataset(examples)
        loaded = round_trip(ds, tmp_path)
        assert loaded.schema == ds.schema
        assert loaded.document_ids == ds.document_ids
        assert loaded.manifest == ds.manifest
        # second save is byte-identical, its sidecar too
        path, path2 = tmp_path / "data.jsonl", tmp_path / "data2.jsonl"
        save_dataset_jsonl(ds, str(path))
        save_dataset_jsonl(loaded, str(path2))
        for suffix in ("", SIDECAR_SUFFIX):
            assert Path(f"{path}{suffix}").read_bytes() == Path(f"{path2}{suffix}").read_bytes()

    def test_equal_positives_share_one_label_set(self, tmp_path):
        examples = [
            make_example("d0:0", "d0", {1, 3}, seen=(2,)),
            make_example("d0:1", "d0", {2}, true_positives={2, 4}, corrupted=True),
            make_example("d1:0", "d1", {1, 3}, seen=(2,)),
            make_example("d1:1", "d1", {4}),
            make_example("d1:2", "d1", {2, 4}),
        ]
        path = tmp_path / "data.jsonl"
        save_dataset_jsonl(make_dataset(examples), str(path))
        loaded = load_dataset_jsonl(str(path)).examples
        assert loaded[0].labels is loaded[2].labels is loaded[0].true_labels
        assert loaded[1].true_labels is loaded[4].labels
        assert loaded[1].labels is not loaded[3].labels      # equal length, other index
        assert loaded[0].seen_in_train == frozenset({2})
        again = tmp_path / "again.jsonl"
        save_dataset_jsonl(load_dataset_jsonl(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_pairs_share_seen_sets_and_keep_their_feature_rows(self, tmp_path):
        examples = [make_example("d0:0", "d0", {1}, seen=(1, 3)),
                    make_example("d0:1", "d0", {2}, seen=(1, 3))]
        path = tmp_path / "data.jsonl"
        save_dataset_jsonl(make_dataset(examples), str(path))
        loaded = load_dataset_jsonl(str(path)).examples
        assert loaded[0].seen_in_train is loaded[1].seen_in_train
        for ex in loaded:
            assert ex.features.base is None and not ex.features.flags.writeable

    def test_owned_read_only_features_are_not_copied(self):
        frozen = np.arange(3, dtype=np.float64)
        frozen.flags.writeable = False
        assert make_example("p", "d", {1}, features=frozen).features is frozen
        writable = np.arange(3, dtype=np.float64)
        kept = make_example("p", "d", {1}, features=writable).features
        writable[0] = 9.0
        assert kept[0] == 0.0 and not kept.flags.writeable
        view = frozen[:]                    # read-only, but a view: copied
        assert make_example("p", "d", {1}, features=view).features is not view

    def test_line_key_order_fixed(self, tmp_path):
        ds = make_dataset([make_example("d0:0", "d0", {1})])
        body = saved_lines(ds, tmp_path / "d.jsonl")[1]
        keys = ["pair_id", "doc_id", "features", "positives", "true_positives",
                "seen_in_train", "difficulty", "corrupted"]
        positions = [body.index(f'"{k}"') for k in keys]
        assert positions == sorted(positions)

    def test_float_features_survive_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal(7)
        ds = make_dataset([make_example("d0:0", "d0", {1}, feature_dim=7, features=feats)])
        path = tmp_path / "d.jsonl"
        save_dataset_jsonl(ds, str(path))
        loaded = load_dataset_jsonl(str(path))
        assert np.array_equal(loaded.examples[0].features, feats)

    @settings(max_examples=200)
    @example([5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0, -0.0,
              1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
    def test_every_finite_double_round_trips_bitwise(self, tmp_path_factory, values):
        feats = np.array(values, dtype=np.float64)
        ds = make_dataset([make_example("d0:0", "d0", {1}, feature_dim=len(values),
                                        features=feats)])
        loaded = round_trip(ds, tmp_path_factory.getbasetemp()).features[0]
        assert loaded.view(np.uint64).tolist() == feats.view(np.uint64).tolist()

    @settings(max_examples=200)
    @given(st.lists(st.one_of(LONG_DECIMALS, NEAR_HALFWAY), min_size=1, max_size=8))
    def test_decimal_text_parses_like_float(self, tmp_path_factory, tokens):
        path = tmp_path_factory.getbasetemp() / "decimals.jsonl"
        write_records(path, [{"features": "@"}])
        path.write_text(path.read_text().replace('"@"', "[" + ",".join(tokens) + "]"))
        loaded = load_dataset_jsonl(str(path)).features[0]
        expected = np.array([float(t) for t in tokens])
        assert loaded.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_benchmark_shaped_file_loads_as_stdlib_json_reads_it(self, tmp_path):
        loaded = round_trip(benchmark_shaped_train(), tmp_path).columns
        reference = stdlib_json_columns(tmp_path / "round_trip.jsonl")
        assert loaded.keys() == reference.keys()
        for name, column in reference.items():
            assert loaded[name].dtype == column.dtype, name
            assert loaded[name].shape == column.shape, name
            if column.dtype == np.float64:
                column, loaded[name] = column.view(np.uint64), loaded[name].view(np.uint64)
            assert np.array_equal(loaded[name], column), name

    @settings(max_examples=300)
    @example((WRITER_EDGE_VALUES, [f"p{i}" for i in range(len(WRITER_EDGE_VALUES))],
              ["d0"] * len(WRITER_EDGE_VALUES)))
    @example(([[0.5]] * len(AWKWARD_IDS), AWKWARD_IDS, AWKWARD_IDS))
    @given(WRITER_DATASETS)
    def test_writer_equals_stdlib_json(self, tmp_path_factory, drawn):
        features, pair_ids, doc_ids = drawn
        path = tmp_path_factory.getbasetemp() / "writer.jsonl"
        for layout in (np.ascontiguousarray, np.asfortranarray):
            ds = writer_dataset(layout(features, dtype=np.float64), pair_ids, doc_ids)
            assert saved_lines(ds, path) == stdlib_json_lines(ds)

    @settings(max_examples=500)
    @example(1e-4)
    @example(-1e-4)
    @example(float(np.nextafter(1e16, 0)))
    @example(-float(np.nextafter(1e16, 0)))
    @example(0.0)
    @example(-0.0)
    @given(FINITE_DOUBLES)
    def test_admitted_doubles_are_written_as_repr(self, x):
        if _orjson_rows(np.array([[x]]))[0]:
            assert orjson.dumps(x) == repr(x).encode()
            assert orjson.dumps(np.array([x]), option=orjson.OPT_SERIALIZE_NUMPY) == (
                f"[{x!r}]".encode())

    def test_guard_bounds(self):
        below, top = float(np.nextafter(1e-4, 0)), 1e16
        admitted = [0.0, -0.0, 1e-4, -1e-4, float(np.nextafter(top, 0)), -1.0]
        rejected = [below, -below, 5e-324, top, -top, 1.7976931348623157e308, np.nan, np.inf,
                    -np.inf]
        values = np.array(admitted + rejected)[:, None]
        assert _orjson_rows(values).tolist() == [True] * len(admitted) + [False] * len(rejected)

    def test_benchmark_shaped_rows_take_the_orjson_path(self, tmp_path, monkeypatch):
        ds = benchmark_shaped_train()
        rows = orjson_encoded_records(monkeypatch)
        monkeypatch.setattr("cmm.schema._BLOCK", 1000)     # three blocks of 850 pairs
        assert saved_lines(ds, tmp_path / "d.jsonl") == stdlib_json_lines(ds)
        assert len(rows) >= 0.99 * len(ds)


def orjson_encoded_records(monkeypatch):
    """The records the writer encodes with orjson from now on, collected as it
    passes them, one pair record per ``orjson.dumps`` call."""
    dumps, records = orjson.dumps, []

    def counting(obj, *args, **kwargs):
        assert type(obj) is dict and "features" in obj, obj
        records.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr("cmm.schema.orjson.dumps", counting)
    return records


def benchmark_shaped_train():
    """The benchmark's train split at 20 documents: seed 2024, 30% false negatives."""
    shape = dict(n_documents=20, pairs_per_document=150, relation_count=20, feature_dim=64,
                 positive_rate=0.03, hard_fraction=0.25, teacher_margin=2.0,
                 seen_in_train_rate=0.35, seed=2024)
    train, _ = split_by_documents(generate(GenConfig(**shape)), 17)
    return inject_false_negatives(train, 0.3, seed=2024)


def stdlib_json_lines(ds):
    """A dataset's JSONL lines as the standard library's json writes them, from its columns."""
    dumps = partial(json.dumps, separators=(",", ":"))
    header = dumps({"format": DATASET_FORMAT, "schema": ds.schema.to_dict(),
                    "documents": list(ds.document_ids), "pair_count": len(ds),
                    "manifest": ds.manifest})

    def indices(row):
        return (np.flatnonzero(row) + 1).tolist()

    return [header] + [
        dumps({"pair_id": pair_id, "doc_id": doc_id, "features": x.tolist(),
               "positives": indices(labels), "true_positives": indices(true),
               "seen_in_train": indices(seen), "difficulty": "hard" if hard else "easy",
               "corrupted": bool(corrupted)})
        for pair_id, doc_id, x, labels, true, seen, hard, corrupted in zip(
            ds.pair_ids, ds.doc_ids, ds.features, ds.labels, ds.true_labels, ds.seen, ds.hard,
            ds.corrupted)]


def stdlib_json_columns(path):
    """A dataset file's columns, each line parsed with the standard library's json."""
    with open(path, encoding="utf-8") as fh:
        header, *pairs = map(json.loads, fh)
    r_count = header["schema"]["relation_count"]
    column = {"pair_ids": "pair_id", "doc_ids": "doc_id", "labels": "positives",
              "true_labels": "true_positives", "seen": "seen_in_train"}
    return {
        **{name: np.array([p[column[name]] for p in pairs], dtype=object)
           for name in ("pair_ids", "doc_ids")},
        "features": np.array([p["features"] for p in pairs], dtype=np.float64),
        **{name: masks([p[column[name]] for p in pairs], r_count)
           for name in ("labels", "true_labels", "seen")},
        "hard": np.array([p["difficulty"] == "hard" for p in pairs]),
        "corrupted": np.array([p["corrupted"] for p in pairs]),
    }


# --- the per-line codec the block codec replaced, kept as its reference -----

def reference_pair_lines(ds):
    """A dataset's pair lines as the per-line writer wrote them: each line alone
    through ``orjson`` when its features pass ``_orjson_rows`` and both ids are
    strings ``json`` leaves unescaped, through ``json`` otherwise."""
    dumps = json.JSONEncoder(separators=(",", ":")).encode

    def plain(value):
        return type(value) is str and json.dumps(value) == f'"{value}"'

    def indices(row):
        return (np.flatnonzero(row) + 1).tolist()

    lines = []
    features = np.ascontiguousarray(ds.features)
    for pair_id, doc_id, row, fast, labels, true, seen, hard, corrupted in zip(
            ds.pair_ids, ds.doc_ids, features, _orjson_rows(features).tolist(), ds.labels,
            ds.true_labels, ds.seen, ds.hard.tolist(), ds.corrupted.tolist()):
        record = {"pair_id": pair_id, "doc_id": doc_id, "features": row,
                  "positives": indices(labels), "true_positives": indices(true),
                  "seen_in_train": indices(seen), "difficulty": "hard" if hard else "easy",
                  "corrupted": corrupted}
        if fast and plain(pair_id) and plain(doc_id):
            lines.append(orjson.dumps(record, option=orjson.OPT_SERIALIZE_NUMPY).decode())
        else:
            record["features"] = row.tolist()
            lines.append(dumps(record))
    return lines


def reference_load(path):
    """A dataset file read as the per-line loader read it: each pair line parsed
    and checked alone, in file order, and the rows stacked at the end."""
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
            manifest = dict(header.get("manifest", {}))
        except (KeyError, TypeError, ValueError, SchemaError) as exc:
            raise SchemaError(f"{path}:1: malformed header ({type(exc).__name__}: {exc})") from exc
        r_count = schema.relation_count

        def indices(obj, name):
            value = obj[name]
            if type(value) is not list or any(type(r) is not int for r in value):
                raise TypeError(f"{name!r} must be a list of integers, got {value!r}")
            stray = sorted(r for r in value if not 1 <= r <= r_count)
            if stray:
                raise ValueError(f"{name!r} indices outside 1..{r_count}: {stray}")
            return value

        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = orjson.loads(line)
                pair_id, doc_id, corrupted = obj["pair_id"], obj["doc_id"], obj["corrupted"]
                if type(pair_id) is not str or type(doc_id) is not str:
                    raise TypeError(f"pair_id and doc_id must be strings, got {pair_id!r} "
                                    f"and {doc_id!r}")
                if type(corrupted) is not bool:
                    raise TypeError(f"'corrupted' must be true or false, got {corrupted!r}")
                x = obj["features"]
                if type(x) is not list or not {int, float}.issuperset(map(type, x)):
                    raise TypeError(f"'features' must be a list of numbers, got {x!r:.80}")
                row = (np.array(x, dtype=np.float64), indices(obj, "positives"),
                       indices(obj, "true_positives"), indices(obj, "seen_in_train"))
                difficulty = obj["difficulty"]
                if difficulty not in ("easy", "hard"):
                    raise ValueError(f"difficulty must be one of ('easy', 'hard'), "
                                     f"got {difficulty!r}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"{path}:{lineno}: malformed pair record "
                                  f"({type(exc).__name__}: {exc})") from exc
            rows.append((pair_id, doc_id) + row + (difficulty == "hard", corrupted))
    pair_ids, doc_ids, features, labels, true, seen, hard, corrupted = (
        [list(column) for column in zip(*rows)] if rows else [[]] * 8)
    try:
        widths = sorted({len(x) for x in features})
        if len(widths) > 1:
            raise SchemaError(f"feature lengths differ between pairs: {widths}")
        return Dataset(schema, document_ids, manifest, pair_ids=pair_ids, doc_ids=doc_ids,
                       features=np.stack(features) if features else np.zeros((0, 0)),
                       labels=masks(labels, r_count), true_labels=masks(true, r_count),
                       seen=masks(seen, r_count), hard=hard, corrupted=corrupted)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


@st.composite
def codec_cases(draw):
    """(dataset, block size, mutation name or None, pair line it starts at, blank line
    position or None): 4-9 pairs of 3-4 features at R=4, json-fallback rows and
    awkward ids included; every mutation finds the pairs and features it edits."""
    n, width = draw(st.integers(4, 9)), draw(st.integers(3, 4))
    features = draw(st.lists(st.lists(FINITE_DOUBLES, min_size=width, max_size=width),
                             min_size=n, max_size=n))
    pair_ids = draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True))
    documents = draw(st.lists(ID_TEXT, min_size=1, max_size=3, unique=True))
    doc_ids = draw(st.lists(st.sampled_from(documents), min_size=n, max_size=n))
    index_sets = st.lists(st.frozensets(st.integers(1, 4)), min_size=n, max_size=n)
    labels, hidden, seen = draw(index_sets), draw(index_sets), draw(index_sets)
    true = [pos | extra for pos, extra in zip(labels, hidden)]
    ds = Dataset(RelationSchema.with_default_names(4), list(dict.fromkeys(doc_ids)),
                 {"generator": {"seed": 1}}, pair_ids=pair_ids, doc_ids=doc_ids,
                 features=np.array(features), labels=masks(labels, 4),
                 true_labels=masks(true, 4), seen=masks(seen, 4),
                 hard=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                 corrupted=[t != p for p, t in zip(labels, true)])
    return (ds, draw(st.integers(1, 4)),
            draw(st.sampled_from([None] + sorted(DATASET_MUTATIONS))),
            draw(st.integers(0, n - 1)), draw(st.none() | st.integers(0, n)))


def load_outcome(load, path):
    """A loaded dataset's header fields and columns (floats as bits), or the error text."""
    try:
        ds = load(str(path))
    except SchemaError as exc:
        return str(exc)
    columns = {name: (column.dtype.str, column.shape,
                      column.tolist() if column.dtype == object else column.tobytes())
               for name, column in ds.columns.items()}
    return ds.schema, ds.document_ids, ds.manifest, columns


class TestBlockCodec:
    """The block codec against the per-line codec it replaced (``reference_pair_lines``,
    ``reference_load``): the same bytes, the same columns or the same error text."""

    @settings(max_examples=300)
    @given(codec_cases())
    def test_codec_equals_per_line_reference(self, tmp_path_factory, case):
        ds, block, mutation, shift, blank = case
        path = tmp_path_factory.getbasetemp() / "codec.jsonl"
        with mock.patch("cmm.schema._BLOCK", block):
            save_dataset_jsonl(ds, str(path))
            saved = path.read_bytes()
            header, *lines = path.read_text().splitlines()
            assert lines == reference_pair_lines(ds)
            if mutation is not None:
                pairs = [json.loads(line) for line in lines]
                DATASET_MUTATIONS[mutation](pairs[shift:] + pairs[:shift])
                lines = [json.dumps(p) if p != json.loads(line) else line
                         for p, line in zip(pairs, lines)]
            if blank is not None:
                lines.insert(blank, "  ")
            path.write_text("\n".join([header] + lines) + "\n")
            assert sidecar_in_use(path) == (path.read_bytes() == saved)
            reference = load_outcome(reference_load, path)
            assert load_outcome(load_dataset_jsonl, path) == reference == parsed_outcome(path)

    @pytest.mark.parametrize("where", ["first_line", "last_line", "second_block_first_line"])
    def test_bad_line_at_a_block_boundary_named(self, tmp_path, where):
        good = json.dumps({"pair_id": "?", "doc_id": "d0", "features": [0.0, 1.0, 2.0],
                           "positives": [], "true_positives": [], "seen_in_train": [],
                           "difficulty": "easy", "corrupted": False})
        lines = [good.replace("?", f"d0:{i}") for i in range(2 * _BLOCK + 3)]
        bad = {"first_line": 1, "last_line": len(lines) - 1,
               "second_block_first_line": _BLOCK}[where]
        lines[bad - 1] = ""                  # a blank line just before the bad one
        lines[bad] = lines[bad].replace('"positives": []', '"positives": [9]')
        header = {"format": DATASET_FORMAT,
                  "schema": RelationSchema.with_default_names(4).to_dict(),
                  "documents": ["d0"], "manifest": {}}
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join([json.dumps(header)] + lines) + "\n")
        message = (f"{path}:{bad + 2}: malformed pair record "
                   f"(ValueError: 'positives' indices outside 1..4: [9])")
        with pytest.raises(SchemaError) as raised:
            load_dataset_jsonl(str(path))
        assert str(raised.value) == message == load_outcome(reference_load, path)

    def test_bad_line_named_before_ragged_features_of_an_earlier_block(self, tmp_path):
        path = write_records(tmp_path / "d.jsonl", [{}, {"features": [0.0, 1.0]}, {}, {},
                                                    {"difficulty": "medium"}, {}])
        message = (f"{path}:6: malformed pair record (ValueError: difficulty must be one "
                   f"of ('easy', 'hard'), got 'medium')")
        with mock.patch("cmm.schema._BLOCK", 2), pytest.raises(SchemaError) as raised:
            load_dataset_jsonl(path)
        assert str(raised.value) == message == load_outcome(reference_load, path)

    def test_pair_count_rejects_every_cut_and_an_extra_line(self, tmp_path):
        ds = make_dataset([make_example(f"d0:{i}", "d0", {1 + i % 3}) for i in range(7)])
        path = tmp_path / "d.jsonl"
        save_dataset_jsonl(ds, str(path))
        header, *pairs = path.read_text().splitlines(keepends=True)
        assert json.loads(header)["pair_count"] == 7
        extra = pairs[-1].replace('"d0:6"', '"d0:7"')
        for kept in [pairs[:k] for k in range(7)] + [pairs + [extra]]:
            path.write_text(header + "".join(kept))
            with pytest.raises(SchemaError) as raised:
                load_dataset_jsonl(str(path))
            assert str(raised.value) == (f"{path}:1: the header declares 7 pairs, but the "
                                         f"file holds {len(kept)} pair lines")
        path.write_text(header + "".join(pairs) + "\n")      # a blank line is no pair
        assert saved_lines(load_dataset_jsonl(str(path)), tmp_path / "again.jsonl") == (
            header + "".join(pairs)).splitlines()
        without = {k: v for k, v in json.loads(header).items() if k != "pair_count"}
        path.write_text(json.dumps(without) + "\n" + "".join(pairs[:3]))
        assert len(load_dataset_jsonl(str(path))) == 3          # older files keep loading

    def test_integer_features_load_as_the_reference_does(self, tmp_path):
        path = write_records(tmp_path / "d.jsonl", [{"features": [2 ** 64 - 1, -2 ** 63, 3]},
                                                    {"features": [0.5, 2 ** 53 + 1, -7]}])
        loaded = load_outcome(load_dataset_jsonl, path)
        assert not isinstance(loaded, str)
        assert loaded == load_outcome(reference_load, path)

    def test_ids_of_brace_and_comma_take_the_orjson_path(self, tmp_path, monkeypatch):
        # the plain characters of a record separator, but no '"', which only escaped
        # can occur inside an id
        ids = ["}", "{", ",", "},{", "a},{pair_id:b", ",{}"]
        ds = writer_dataset([[0.5, -1.5]] * len(ids), ids, ["d},{"] * len(ids))
        rows = orjson_encoded_records(monkeypatch)
        assert saved_lines(ds, tmp_path / "d.jsonl") == stdlib_json_lines(ds)
        assert [row["pair_id"] for row in rows] == ids
        again = round_trip(ds, tmp_path)
        assert saved_lines(again, tmp_path / "again.jsonl") == stdlib_json_lines(ds)


SIDECAR_MAGIC = b"cmm-columns/1\n"
TRIPPED = []


def _trip():
    TRIPPED.append(True)
    return "tripped"


class Tripwire:
    """An object whose unpickling is recorded in TRIPPED."""

    def __reduce__(self):
        return _trip, ()


def npy_payload(arrays, allow_pickle=False):
    """``np.save`` of each array, one after the other."""
    payload = io.BytesIO()
    for array in arrays:
        np.save(payload, array, allow_pickle=allow_pickle)
    return payload.getvalue()


def sidecar_bytes(jsonl, payload):
    """A sidecar of this payload bound to these JSONL bytes."""
    return SIDECAR_MAGIC + b"%d %d %d\n" % (len(jsonl), zlib.crc32(jsonl),
                                             zlib.crc32(payload)) + payload


def sidecar_ds(n=3):
    """n pairs at R=4 whose ids hold NUL and a character beyond the BMP."""
    ids = ["p\x00", "\U0001f600", "", "c", "\x00"][:n]
    return writer_dataset([[0.5, -1.5 * i] for i in range(n)], ids,
                          ["d\x00", "d0", "d0", "d0", "d\x00"][:n])


def flipped(data, position):
    data = bytearray(data)
    data[position] ^= 0x01
    return bytes(data)


def with_arrays(edit):
    """A sidecar of the sidecar dataset's arrays after ``edit(arrays)``, CRCs recomputed."""
    def build(jsonl, side):
        arrays = [array.copy() for array in schema._sidecar_arrays(sidecar_ds())]
        edit(arrays)
        return sidecar_bytes(jsonl, npy_payload(arrays))
    return build


def bool_byte_two(arrays):
    arrays[5].view(np.uint8)[0, 0] = 2


def offsets_past_the_bytes(arrays):
    arrays[1][-1] += 1


def features_wider_than_the_file(jsonl, side):
    """A sidecar whose first record declares 3 x 10**12 features (24 TB) and holds none."""
    head = io.BytesIO()
    npy.write_array_header_1_0(head, {"descr": "<f8", "fortran_order": False,
                                      "shape": (3, 10 ** 12)})
    rest = npy_payload(schema._sidecar_arrays(sidecar_ds())[1:])
    return sidecar_bytes(jsonl, head.getvalue() + rest)


def foreign_record_magic(jsonl, side):
    payload = side[payload_head(side):]
    return sidecar_bytes(jsonl, payload.replace(b"NUMPY", b"NUMPZ", 1))


def payload_head(side):
    return side.index(b"\n", len(SIDECAR_MAGIC)) + 1


def first_feature_byte(side):
    """The position of the first feature's lowest byte: after the first record's
    magic, version, header length and header."""
    head = payload_head(side)
    return head + 10 + int.from_bytes(side[head + 8:head + 10], "little")


# every sidecar the loader must refuse, built from the JSONL bytes and the sidecar
# save_dataset_jsonl wrote for ``sidecar_ds()``; None deletes it
REFUSED_SIDECARS = {
    "missing": lambda jsonl, side: None,
    "empty": lambda jsonl, side: b"",
    "cut_in_magic": lambda jsonl, side: side[:5],
    "cut_in_header": lambda jsonl, side: side[:len(SIDECAR_MAGIC) + 3],
    "cut_in_payload": lambda jsonl, side: side[:len(side) // 2],
    "one_byte_short": lambda jsonl, side: side[:-1],
    "flipped_feature_byte": lambda jsonl, side: flipped(side, first_feature_byte(side)),
    "flipped_last_byte": lambda jsonl, side: flipped(side, len(side) - 1),
    "flipped_length": lambda jsonl, side: flipped(side, len(SIDECAR_MAGIC)),
    "wrong_magic": lambda jsonl, side: b"cmm-columns/2\n" + side[len(SIDECAR_MAGIC):],
    "extra_byte": lambda jsonl, side: sidecar_bytes(jsonl, side[payload_head(side):] + b"\0"),
    "byte_past_the_crc": lambda jsonl, side: side + b"\0",
    "features_wider_than_the_file": features_wider_than_the_file,
    "foreign_record_magic": foreign_record_magic,
    "columns_the_dataset_refuses": with_arrays(lambda a: a[9].__setitem__(0, True)),
    "more_pairs": lambda jsonl, side: sidecar_bytes(
        jsonl, npy_payload(schema._sidecar_arrays(sidecar_ds(5)))),
    "big_endian_features": with_arrays(lambda a: a.__setitem__(0, a[0].astype(">f8"))),
    "pickled_objects": lambda jsonl, side: sidecar_bytes(jsonl, npy_payload(
        [np.array([[Tripwire(), Tripwire()]] * 3, dtype=object)]
        + schema._sidecar_arrays(sidecar_ds())[1:], allow_pickle=True)),
    "bool_byte_two": with_arrays(bool_byte_two),
    "offsets_past_the_bytes": with_arrays(offsets_past_the_bytes),
}


def parsed_load(path):
    """(``load_outcome`` of the file, whether a pair line was parsed)."""
    with mock.patch("cmm.schema._clean_block", wraps=schema._clean_block) as spy:
        outcome = load_outcome(load_dataset_jsonl, path)
    return outcome, spy.called


class TestColumnSidecar:
    """A dataset loads from its sidecar only when the sidecar is bound to the file's
    bytes and well formed; otherwise the pair lines are parsed, with no error."""

    def test_sidecar_is_np_save_records_and_skips_the_parse(self, tmp_path):
        ds, path = sidecar_ds(), tmp_path / "d.jsonl"
        save_dataset_jsonl(ds, str(path))
        side = Path(f"{path}{SIDECAR_SUFFIX}").read_bytes()
        assert side == sidecar_bytes(path.read_bytes(), npy_payload(schema._sidecar_arrays(ds)))
        outcome, parsed = parsed_load(path)
        assert not parsed and not isinstance(outcome, str)
        assert outcome == load_outcome(reference_load, path) == parsed_outcome(path)
        assert outcome[3]["pair_ids"][2] == ["p\x00", "\U0001f600", ""]

    @pytest.mark.parametrize("case", sorted(REFUSED_SIDECARS))
    def test_refused_sidecar_falls_back_to_the_parse(self, tmp_path, case):
        ds, path = sidecar_ds(), tmp_path / "d.jsonl"
        save_dataset_jsonl(ds, str(path))
        side_path = Path(f"{path}{SIDECAR_SUFFIX}")
        side = REFUSED_SIDECARS[case](path.read_bytes(), side_path.read_bytes())
        if side is None:
            side_path.unlink()
        else:
            side_path.write_bytes(side)
        TRIPPED.clear()
        outcome, parsed = parsed_load(path)
        assert parsed and not TRIPPED
        assert outcome == load_outcome(reference_load, path)
        assert saved_lines(load_dataset_jsonl(str(path)), tmp_path / "again.jsonl") == (
            saved_lines(ds, tmp_path / "ds.jsonl"))

    def test_same_length_edit_with_the_mtime_restored_is_parsed(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset_jsonl(sidecar_ds(), str(path))
        before, data = os.stat(path), path.read_bytes()
        path.write_bytes(data.replace(b'"difficulty":"easy"', b'"difficulty":"hard"', 1))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        outcome, parsed = parsed_load(path)
        assert parsed and outcome == load_outcome(reference_load, path)
        assert load_dataset_jsonl(str(path)).hard.tolist() == [True, True, False]

    def test_lone_surrogate_id_fails_as_the_parse_does(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_dataset_jsonl(writer_dataset([[0.5]], ["\ud800"], ["d0"]), str(path))
        with_sidecar = load_outcome(load_dataset_jsonl, path)
        assert isinstance(with_sidecar, str) and "surrogate" in with_sidecar
        assert with_sidecar == parsed_outcome(path)

    def test_empty_dataset_is_parsed(self, tmp_path):
        ds = writer_dataset(np.zeros((0, 2)), [], [])
        assert len(round_trip(ds, tmp_path)) == 0

    @settings(max_examples=100)
    @example(([[0.5]] * len(AWKWARD_IDS), AWKWARD_IDS, AWKWARD_IDS))
    @example(([[1.0], [2.0]], ["\x00", "a\x00"], ["\U0001f600\x00", "\x00"]))
    @given(WRITER_DATASETS)
    def test_sidecar_load_equals_the_parse(self, tmp_path_factory, drawn):
        loaded = round_trip(writer_dataset(*drawn), tmp_path_factory.getbasetemp())
        assert list(loaded.pair_ids) == drawn[1] and list(loaded.doc_ids) == drawn[2]


class TestSplit:
    def test_split_partitions_documents(self):
        examples = [make_example(f"d{j}:{i}", f"d{j}", {1}) for j in range(5) for i in range(3)]
        ds = make_dataset(examples)
        train, dev = split_by_documents(ds, 3)
        assert train.document_ids == ("d0", "d1", "d2")
        assert dev.document_ids == ("d3", "d4")
        assert len(train.examples) == 9 and len(dev.examples) == 6
        assert train.manifest["split"]["role"] == "train"
        assert dev.manifest["split"]["role"] == "dev"

    def test_split_bounds(self):
        ds = make_dataset([make_example("d0:0", "d0", {1})])
        with pytest.raises(SchemaError):
            split_by_documents(ds, 1)
