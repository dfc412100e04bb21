import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmm.errors import NumericError, SchemaError
from cmm.evaluation import (
    CURVE_HEADER,
    POSITIVES_HEADER,
    curve_export,
    decode,
    decode_counts,
    default_d_grid,
    ign_f1,
    mask_metrics,
    micro_f1,
    positive_count_trace,
)
from cmm.loss import GAMMA_GRID
from cmm.schema import LogitRow, write_csv


def brute_force_f1(predictions, gold, seen=None):
    """Oracle: loop over every (pair, relation) fact and count."""
    seen = seen or {}
    tp = fp = fn = 0
    for pair_id in gold:
        excl = seen.get(pair_id, frozenset())
        pred = {r for r in predictions[pair_id] if r not in excl}
        gld = {r for r in gold[pair_id] if r not in excl}
        for r in pred:
            if r in gld:
                tp += 1
            else:
                fp += 1
        for r in gld:
            if r not in pred:
                fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return tp, fp, fn, precision, recall, f1


def random_instance(rng, max_pairs=60, max_relations=8):
    n_pairs = int(rng.integers(1, max_pairs))
    r_count = int(rng.integers(1, max_relations))
    gold = {}
    predictions = {}
    seen = {}
    for i in range(n_pairs):
        pid = f"p{i}"
        gold[pid] = frozenset(int(r) for r in range(1, r_count + 1)
                              if rng.random() < 0.25)
        predictions[pid] = frozenset(int(r) for r in range(1, r_count + 1)
                                     if rng.random() < 0.25)
        seen[pid] = frozenset(int(r) for r in range(1, r_count + 1)
                              if rng.random() < 0.2)
    return predictions, gold, seen


class TestDecode:
    def test_strict_rule(self):
        assert decode(LogitRow([0.3, 0.5, 0.1])) == frozenset({1})

    def test_all_below_threshold_is_na(self):
        assert decode(LogitRow([0.9, 0.5, 0.1, -2.0])) == frozenset()

    def test_tie_not_predicted(self):
        assert decode(LogitRow([0.3, 0.3, 0.6])) == frozenset({2})

    def test_decode_counts_matches_per_row_decode(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((50, 6))
        total = sum(len(decode(row)) for row in t)
        assert decode_counts(t) == total


class TestMicroF1:
    def test_perfect_prediction(self):
        gold = {"a": frozenset({1}), "b": frozenset({2, 3})}
        rec = micro_f1(gold, gold)
        assert rec.precision == rec.recall == rec.f1 == 1.0

    def test_all_na_with_gold_positives(self):
        gold = {"a": frozenset({1}), "b": frozenset({2})}
        preds = {"a": frozenset(), "b": frozenset()}
        rec = micro_f1(preds, gold)
        assert rec.recall == 0.0
        assert rec.f1 == 0.0

    def test_counted_example(self):
        # 2 TP, 1 FP, 1 FN -> P = R = F1 = 2/3
        gold = {"a": frozenset({1, 2}), "b": frozenset({3})}
        preds = {"a": frozenset({1, 2}), "b": frozenset({4})}
        rec = micro_f1(preds, gold)
        assert (rec.tp, rec.fp, rec.fn) == (2, 1, 1)
        assert rec.precision == pytest.approx(2 / 3)
        assert rec.recall == pytest.approx(2 / 3)
        assert rec.f1 == pytest.approx(2 / 3)

    def test_pair_set_mismatch(self):
        with pytest.raises(SchemaError):
            micro_f1({"a": frozenset()}, {"b": frozenset()})

    def test_zero_zero_convention(self):
        rec = micro_f1({"a": frozenset()}, {"a": frozenset()})
        assert rec.precision == rec.recall == rec.f1 == 0.0


class TestIgnF1:
    def test_no_flags_equals_micro_bitwise(self):
        rng = np.random.default_rng(1)
        preds, gold, _ = random_instance(rng)
        empty = {pid: frozenset() for pid in gold}
        assert ign_f1(preds, gold, empty) == micro_f1(preds, gold)
        assert ign_f1(preds, gold, {}) == micro_f1(preds, gold)

    def test_all_gold_flagged_gives_zero(self):
        gold = {"a": frozenset({1, 2}), "b": frozenset({3})}
        preds = {"a": frozenset({1}), "b": frozenset({3})}
        rec = ign_f1(preds, gold, dict(gold))
        assert rec.f1 == 0.0
        assert rec.ign_f1 == 0.0
        assert rec.tp == 0

    def test_mixed_flags_match_filter_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            preds, gold, seen = random_instance(rng)
            rec = ign_f1(preds, gold, seen)
            tp, fp, fn, p, r, f1 = brute_force_f1(preds, gold, seen)
            assert (rec.tp, rec.fp, rec.fn) == (tp, fp, fn)
            assert rec.f1 == pytest.approx(f1, abs=1e-12)

    def test_randomized_micro_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            preds, gold, _ = random_instance(rng)
            rec = micro_f1(preds, gold)
            tp, fp, fn, p, r, f1 = brute_force_f1(preds, gold)
            assert (rec.tp, rec.fp, rec.fn) == (tp, fp, fn)
            assert rec.precision == pytest.approx(p, abs=1e-12)
            assert rec.recall == pytest.approx(r, abs=1e-12)
            assert rec.f1 == pytest.approx(f1, abs=1e-12)


def mask_rows(mask):
    """Per-row relation sets of an (n, R) mask, keyed like a prediction dict."""
    return {f"p{i}": frozenset(int(j) + 1 for j in np.flatnonzero(row))
            for i, row in enumerate(mask)}


@st.composite
def scored_masks(draw):
    """Integer-grid logits (ties with TH are common) with gold and seen masks."""
    n = draw(st.integers(0, 12))
    r_count = draw(st.integers(1, 6))
    logits = draw(arrays(np.int64, (n, r_count + 1), elements=st.integers(-2, 2)))
    gold = draw(arrays(np.bool_, (n, r_count)))
    seen = draw(arrays(np.bool_, (n, r_count)))
    return logits.astype(np.float64), gold, seen


class TestMaskMetrics:
    @given(scored_masks())
    @example((np.zeros((0, 4)), np.zeros((0, 3), bool), np.zeros((0, 3), bool)))
    @example((np.array([[0.0, 1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 1.0, 2.0]]),
              np.array([[False, False], [True, False], [True, True]]),      # an empty row
              np.array([[False, False], [True, True], [False, False]])))    # an all-seen row
    def test_equals_dict_reference(self, instance):
        logits, gold, seen = instance
        predictions = {f"p{i}": decode(row) for i, row in enumerate(logits)}
        micro = micro_f1(predictions, mask_rows(gold))
        ign = ign_f1(predictions, mask_rows(gold), mask_rows(seen))
        rec = mask_metrics(logits, gold, seen)
        assert (rec.tp, rec.fp, rec.fn) == (micro.tp, micro.fp, micro.fn)
        assert (rec.precision, rec.recall, rec.f1) == (micro.precision, micro.recall, micro.f1)
        assert rec.ign_f1 == ign.f1
        assert rec.tp + rec.fp == decode_counts(logits)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            mask_metrics(np.zeros((2, 4)), np.zeros((2, 2), bool), np.zeros((2, 2), bool))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_logit_rejected(self, value):
        # inf > inf is false: an all-infinite row would decode as NA and score as such
        logits = np.zeros((2, 3))
        logits[1, 0] = value
        with pytest.raises(NumericError, match="not all finite"):
            mask_metrics(logits, np.ones((2, 2), bool), np.zeros((2, 2), bool))


class TestGoldExtraction:
    def test_sources(self):
        """Training and `cmm eval` score against these mask columns directly."""
        from tests.test_schema import make_dataset, make_example
        ds = make_dataset([make_example("d0:0", "d0", {1}, true_positives={1, 2},
                                        corrupted=True, seen=(1,))])
        assert mask_rows(ds.labels)["p0"] == frozenset({1})
        assert mask_rows(ds.true_labels)["p0"] == frozenset({1, 2})
        assert mask_rows(ds.seen)["p0"] == frozenset({1})
        assert ds.labels.shape == ds.true_labels.shape == ds.seen.shape == (1, 4)


class FakeRecord:
    def __init__(self, epoch, positives):
        self.epoch = epoch
        self.dev_positives = positives


class TestPositiveCountTrace:
    def test_single_arm_rows_in_epoch_order(self):
        rows = positive_count_trace({"cmm": [FakeRecord(e, 10 * e) for e in range(1, 6)]})
        assert rows == [(e, "cmm", 10 * e) for e in range(1, 6)]

    def test_two_arms_grouped(self):
        traces = {"cmm": [FakeRecord(1, 5)], "plain_margin": [FakeRecord(1, 2)]}
        rows = positive_count_trace(traces)
        assert rows == [(1, "cmm", 5), (1, "plain_margin", 2)]

    def test_empty_trace_empty_table(self):
        assert positive_count_trace({"cmm": []}) == []

    def test_csv_export(self, tmp_path):
        path = tmp_path / "pos.csv"
        write_csv(path, POSITIVES_HEADER, [(1, "cmm", 5), (2, "cmm", 9)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,arm,positives"
        assert lines[1] == "1,cmm,5"


class TestCurveExport:
    def test_default_grid_row_count(self):
        rows = curve_export()
        assert len(rows) == len(GAMMA_GRID) * 201

    def test_value_at_zero_gamma_one(self):
        rows = curve_export(gammas=(1.0,), d_grid=[0.0])
        assert rows[0][2] == pytest.approx(1.1736001944781467, abs=1e-9)

    def test_gamma_zero_is_log_sigmoid(self):
        grid = default_d_grid()
        rows = curve_export(gammas=(0.0,), d_grid=grid)
        for (d, _, value) in rows:
            assert value == float(np.logaddexp(0.0, -d))

    def test_d5_values_small(self):
        rows = curve_export(d_grid=[5.0])
        assert all(value < 0.05 for _, _, value in rows)

    def test_strictly_decreasing_in_d(self):
        grid = default_d_grid()
        for gamma in GAMMA_GRID:
            values = [v for _, _, v in curve_export(gammas=(gamma,), d_grid=grid)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_gamma(self):
        grid = default_d_grid()
        by_gamma = {g: [v for _, _, v in curve_export(gammas=(g,), d_grid=grid)]
                    for g in GAMMA_GRID}
        for g1, g2 in zip(GAMMA_GRID, GAMMA_GRID[1:]):
            assert all(a < b for a, b in zip(by_gamma[g1], by_gamma[g2]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            curve_export(d_grid=[1.0, 0.5])
        with pytest.raises(ValueError):
            curve_export(d_grid=[0.0, np.inf])

    def test_csv_export(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_csv(path, CURVE_HEADER, curve_export(gammas=(1.0,), d_grid=[-0.05, 0.0, 0.05]))
        lines = path.read_text().splitlines()
        assert lines[0] == "d,gamma,loss_pos"
        assert len(lines) == 4
        assert lines[2].startswith("0.0,1.0,")

    def test_default_grid_shape(self):
        grid = default_d_grid()
        assert grid.size == 201
        assert grid[0] == -5.0 and grid[-1] == 5.0
        assert grid[101] == 0.05
