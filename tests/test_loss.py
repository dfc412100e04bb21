"""Loss values and gradients against an independent high-precision oracle.

The oracle below reimplements the loss arithmetic with mpmath at 50 digits,
straight from the definitions, sharing no code with the package. Expected
constants in the example tests were frozen from this oracle.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cmm.errors import NumericError, SchemaError
from cmm.loss import (
    GAMMA_GRID,
    M_GRID,
    LossConfig,
    atl_reference_grad,
    atl_reference_loss,
    batch_rows,
    clamp_distance,
    cmm_loss,
    cmm_loss_grad,
    cmm_positive_term,
    _cmm_arms,
    _negative_terms,
    cmm_rescale,
    get_loss,
    margin_distances,
    plain_margin_grad,
    plain_margin_loss,
    register_loss,
    sigmoid,
)
from cmm.schema import LabelSet, LogitRow

mp.mp.dps = 50


def oracle_sigmoid(d):
    return 1 / (1 + mp.e ** (-mp.mpf(d)))


def oracle_positive_term(d, gamma):
    q = mp.log(oracle_sigmoid(d))
    return -((1 - q) ** mp.mpf(gamma) * q)


def oracle_negative_term(d, m):
    return -mp.log(min(oracle_sigmoid(d) + mp.mpf(m), mp.mpf(1)))


def oracle_cmm_loss(values, positives, gamma, m):
    th = mp.mpf(values[0])
    total = mp.mpf(0)
    for r in range(1, len(values)):
        if r in positives:
            total += oracle_positive_term(mp.mpf(values[r]) - th, gamma)
        else:
            total += oracle_negative_term(th - mp.mpf(values[r]), m)
    return total


def oracle_plain_loss(values, positives):
    th = mp.mpf(values[0])
    total = mp.mpf(0)
    for r in range(1, len(values)):
        d = mp.mpf(values[r]) - th
        total += -d if r in positives else d
    return total


def oracle_atl_loss(values, positives):
    v = [mp.mpf(x) for x in values]
    th = v[0]
    pos = [v[r] for r in range(1, len(v)) if r in positives]
    neg = [v[r] for r in range(1, len(v)) if r not in positives]
    total = mp.mpf(0)
    if pos:
        z1 = mp.log(sum(mp.e ** x for x in pos + [th]))
        total += sum(z1 - x for x in pos)
    return total + mp.log(sum(mp.e ** x for x in neg + [th])) - th


def oracle_grad(loss, values, h=mp.mpf("1e-20")):
    """50-digit central difference of an oracle loss(values) over every coordinate."""
    v = [mp.mpf(x) for x in values]
    grad = []
    for i in range(len(v)):
        up, dn = list(v), list(v)
        up[i] += h
        dn[i] -= h
        grad.append((loss(up) - loss(dn)) / (2 * h))
    return grad


# frozen from the oracle above
POS_TERM_D0_G1 = 1.1736001944781467
POS_TERM_D0_G2 = 1.9870778603852777
POS_TERM_D2_G1 = 0.14303873103029743
RESCALE_D0_POS = -0.6931471805599453
RESCALE_D0_NEG_M02 = -0.3566749439387324
GRAD_POS_D0_G1 = -1.1931471805599454
LOG_TWO = 0.6931471805599453


def cfg_cmm(gamma=1.0, m=0.2):
    return LossConfig(kind="cmm", gamma=gamma, m=m)


class TestLossConfig:
    def test_defaults_valid(self):
        cfg = LossConfig()
        assert cfg.kind == "cmm"
        assert cfg.aggregation == "per_document_sum"

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"},
        {"gamma": -0.5},
        {"gamma": float("nan")},
        {"m": 0.0},
        {"m": 1.0},
        {"m": float("inf")},
        {"aggregation": "weird"},
        {"kind": "plugin"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)


class TestMarginDistances:
    def test_direct_substitution(self):
        row = LogitRow([0.3, 0.5, 0.1])
        ds = margin_distances(row, LabelSet(2, frozenset({1})))
        assert ds.d_pos == pytest.approx({1: 0.2})
        assert ds.d_neg == pytest.approx({2: 0.2})

    def test_all_equal_logits_zero_distances(self):
        row = LogitRow([0.7, 0.7, 0.7, 0.7])
        ds = margin_distances(row, LabelSet(3, frozenset({2})))
        assert all(v == 0.0 for v in ds.d_pos.values())
        assert all(v == 0.0 for v in ds.d_neg.values())

    def test_constant_shift_cancels(self):
        values = np.array([0.3, 0.5, 0.1, -0.4])
        labels = LabelSet(3, frozenset({1, 3}))
        base = margin_distances(LogitRow(values), labels)
        shifted = margin_distances(LogitRow(values + 2.5), labels)
        assert base.d_pos == pytest.approx(shifted.d_pos)
        assert base.d_neg == pytest.approx(shifted.d_neg)

    def test_keys_match_label_sets(self):
        labels = LabelSet(4, frozenset({2, 4}))
        ds = margin_distances(LogitRow([0.0, 1.0, 2.0, 3.0, 4.0]), labels)
        assert set(ds.d_pos) == {2, 4}
        assert set(ds.d_neg) == {1, 3}

    def test_length_mismatch_raises(self):
        with pytest.raises(SchemaError):
            margin_distances(LogitRow([0.0, 1.0]), LabelSet(3, frozenset()))


class TestPlainMargin:
    def test_two_term_sum(self):
        # d_pos={1: 1.0}, d_neg={2: 0.5} -> -1.5
        row = LogitRow([0.0, 1.0, -0.5])
        assert plain_margin_loss(row, LabelSet(2, frozenset({1}))) == pytest.approx(-1.5)

    def test_zero_case(self):
        row = LogitRow([0.0, 0.0, 0.0])
        assert plain_margin_loss(row, LabelSet(2, frozenset({1}))) == 0.0

    def test_single_negative_distance_positive_loss(self):
        # d_pos={1: -2.0}, no negatives -> 2.0
        row = LogitRow([0.0, -2.0])
        assert plain_margin_loss(row, LabelSet(1, frozenset({1}))) == pytest.approx(2.0)

    def test_grad_entries(self):
        row = LogitRow([0.0, 1.0, -0.5, 0.3])
        grad = plain_margin_grad(row, LabelSet(3, frozenset({1})))
        assert grad[1] == -1.0
        assert grad[2] == 1.0 and grad[3] == 1.0
        assert grad[0] == 1 - 2


class TestCmmRescale:
    def test_positive_at_zero(self):
        assert cmm_rescale(0.0, "positive") == pytest.approx(RESCALE_D0_POS, abs=1e-12)
        assert abs(cmm_rescale(0.0, "positive") - float(mp.log(oracle_sigmoid(0)))) < 1e-15

    def test_negative_at_zero(self):
        got = cmm_rescale(0.0, "negative", 0.2)
        assert got == pytest.approx(RESCALE_D0_NEG_M02, abs=1e-12)
        # the loss term is the negated rescale value
        assert abs(got + float(oracle_negative_term(0, "0.2"))) < 1e-15

    def test_negative_clamps_to_exact_zero(self):
        # sigma(2) ~ 0.8808, so sigma(2) + 0.2 > 1
        assert cmm_rescale(2.0, "negative", 0.2) == 0.0
        assert math.copysign(1.0, cmm_rescale(3.0, "negative", 0.2)) == 1.0  # +0.0

    def test_negative_requires_m(self):
        with pytest.raises(ValueError):
            cmm_rescale(0.0, "negative")
        with pytest.raises(ValueError):
            cmm_rescale(0.0, "negative", 1.5)

    def test_unknown_side(self):
        with pytest.raises(ValueError):
            cmm_rescale(0.0, "sideways", 0.2)

    @pytest.mark.parametrize("m", M_GRID)
    def test_matches_oracle_across_distances(self, m):
        for d in np.linspace(-20.0, 20.0, 81):
            got = cmm_rescale(float(d), "negative", m)
            want = -float(oracle_negative_term(float(d), str(m)))
            assert abs(got - want) < 1e-12


class TestCmmLoss:
    def test_single_positive_d0_gamma1(self):
        row = LogitRow([0.0, 0.0])
        got = cmm_loss(row, LabelSet(1, frozenset({1})), cfg_cmm(gamma=1.0))
        assert abs(got - POS_TERM_D0_G1) < 1e-9
        assert abs(got - float(oracle_positive_term(0, 1))) < 1e-9

    def test_single_positive_d0_gamma2(self):
        row = LogitRow([0.0, 0.0])
        got = cmm_loss(row, LabelSet(1, frozenset({1})), cfg_cmm(gamma=2.0))
        assert abs(got - POS_TERM_D0_G2) < 1e-9
        assert abs(got - float(oracle_positive_term(0, 2))) < 1e-9

    def test_single_clamped_negative_is_zero(self):
        row = LogitRow([2.0, 0.0])  # d_neg = 2, sigma(2)+0.2 > 1
        got = cmm_loss(row, LabelSet(1, frozenset()), cfg_cmm(gamma=1.0, m=0.2))
        assert got == 0.0

    def test_single_positive_d2_gamma1(self):
        row = LogitRow([0.0, 2.0])
        got = cmm_loss(row, LabelSet(1, frozenset({1})), cfg_cmm(gamma=1.0))
        assert abs(got - POS_TERM_D2_G1) < 1e-9

    def test_matches_oracle_on_random_rows(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            r_count = int(rng.integers(1, 7))
            values = rng.uniform(-8, 8, r_count + 1)
            positives = frozenset(int(r) for r in range(1, r_count + 1)
                                  if rng.random() < 0.4)
            gamma = float(rng.choice(GAMMA_GRID))
            m = float(rng.choice(M_GRID))
            got = cmm_loss(LogitRow(values), LabelSet(r_count, positives),
                           cfg_cmm(gamma, m))
            want = float(oracle_cmm_loss([str(v) for v in values], positives,
                                         str(gamma), str(m)))
            assert abs(got - want) < 1e-9

    def test_requires_cmm_kind(self):
        with pytest.raises(ValueError):
            cmm_loss(LogitRow([0.0, 1.0]), LabelSet(1, frozenset()),
                     LossConfig(kind="plain_margin"))

    def test_non_finite_raises_numeric_error(self):
        with pytest.raises(NumericError):
            cmm_loss(np.array([0.0, np.nan]), LabelSet(1, frozenset()), cfg_cmm())


class TestCmmLossGrad:
    def test_single_positive_d0_gamma1(self):
        row = LogitRow([0.0, 0.0])
        grad = cmm_loss_grad(row, LabelSet(1, frozenset({1})), cfg_cmm(gamma=1.0))
        assert abs(grad[1] - GRAD_POS_D0_G1) < 1e-9
        assert abs(grad[0] + GRAD_POS_D0_G1) < 1e-9

    def test_clamped_negative_grad_exactly_zero(self):
        row = LogitRow([2.0, 0.0, 0.0])
        grad = cmm_loss_grad(row, LabelSet(2, frozenset()), cfg_cmm(gamma=1.0, m=0.2))
        assert grad[1] == 0.0 and grad[2] == 0.0
        assert grad[0] == 0.0  # both negatives clamped, no TH contribution

    def test_th_accumulates_opposite_signs(self):
        row = LogitRow([0.0, 0.1, -0.1])
        labels = LabelSet(2, frozenset({1}))
        grad = cmm_loss_grad(row, labels, cfg_cmm(gamma=1.0, m=0.1))
        # positive pushes TH down from its own perspective (+ on TH), the
        # unclamped negative pushes it the other way
        assert grad[1] < 0.0
        assert grad[2] > 0.0


class TestAtlReference:
    def test_saturated_separation_loss_near_zero(self):
        # a positive far above TH and negatives far below; with several tied
        # positives the first softmax term has a k*log(k) floor instead
        row = LogitRow([0.0, 30.0, -30.0, -30.0])
        got = atl_reference_loss(row, LabelSet(3, frozenset({1})))
        assert 0.0 <= got < 1e-6

    def test_symmetric_single_positive(self):
        row = LogitRow([1.3, 1.3])
        got = atl_reference_loss(row, LabelSet(1, frozenset({1})))
        assert abs(got - LOG_TWO) < 1e-12

    def test_random_rows_finite_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            r_count = int(rng.integers(1, 8))
            values = rng.uniform(-6, 6, r_count + 1)
            positives = frozenset(int(r) for r in range(1, r_count + 1)
                                  if rng.random() < 0.4)
            got = atl_reference_loss(LogitRow(values), LabelSet(r_count, positives))
            assert math.isfinite(got)
            assert got >= 0.0

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(25):
            r_count = int(rng.integers(1, 6))
            values = rng.uniform(-4, 4, r_count + 1)
            positives = frozenset(int(r) for r in range(1, r_count + 1)
                                  if rng.random() < 0.5)
            labels = LabelSet(r_count, positives)
            grad = atl_reference_grad(values, labels)
            for i in range(r_count + 1):
                up = values.copy(); up[i] += h
                dn = values.copy(); dn[i] -= h
                num = (atl_reference_loss(up, labels) - atl_reference_loss(dn, labels)) / (2 * h)
                assert abs(grad[i] - num) < 1e-6

    def test_empty_positive_set(self):
        row = LogitRow([0.0, -1.0, 1.0])
        got = atl_reference_loss(row, LabelSet(2, frozenset()))
        # only the negatives-plus-TH part remains
        assert got == pytest.approx(float(
            mp.log(mp.e ** -1 + mp.e ** 1 + 1) - 0), abs=1e-12)


ORACLES = {
    "cmm": lambda v, pos, cfg: oracle_cmm_loss(v, pos, cfg.gamma, cfg.m),
    "plain_margin": lambda v, pos, cfg: oracle_plain_loss(v, pos),
    "atl_reference": lambda v, pos, cfg: oracle_atl_loss(v, pos),
}


class TestBatchRows:
    """batch_rows is the only composition of each kind, so it is checked against
    the 50-digit oracles, values and gradients, rather than other package code."""

    @pytest.mark.parametrize("kind", ["cmm", "plain_margin", "atl_reference"])
    def test_matches_row_operations(self, kind):
        rng = np.random.default_rng(9)
        oracle = ORACLES[kind]
        for trial in range(50):
            r_count = int(rng.integers(1, 9))
            n = 0 if trial == 0 else int(rng.integers(1, 6))
            t = rng.uniform(-8, 8, (n, r_count + 1))
            mask = rng.random((n, r_count)) < 0.35
            cfg = LossConfig(kind=kind, gamma=float(rng.choice(GAMMA_GRID)),
                             m=float(rng.choice(M_GRID)))
            rows, grads = batch_rows(kind, t, mask, cfg, need_grad=True)
            assert rows.shape == (n,) and grads.shape == (n, r_count + 1)
            for i in range(n):
                values = [float(x) for x in t[i]]     # mpf(float) is exact
                positives = frozenset(int(j + 1) for j in np.flatnonzero(mask[i]))
                assert abs(rows[i] - float(oracle(values, positives, cfg))) < 1e-9
                want = oracle_grad(lambda v: oracle(v, positives, cfg), values)
                assert np.all(np.abs(grads[i] - np.array([float(g) for g in want])) < 1e-8)


class TestLiveOnlyNegatives:
    """The negative side evaluates only entries short of the clamp; NaN stays live."""

    def test_nan_logit_propagates(self):
        t = np.array([[0.0, 1.0, np.nan, -3.0], [0.0, 1.0, -3.0, -3.0]])
        mask = np.array([[True, False, False], [True, False, False]])
        rows, grads = batch_rows("cmm", t, mask, cfg_cmm(), need_grad=True)
        assert np.isnan(rows[0]) and np.isnan(grads[0, 2]) and np.isnan(grads[0, 0])
        assert np.all(np.isfinite(rows[1:])) and np.all(np.isfinite(grads[1:]))
        assert math.isnan(cmm_rescale(float("nan"), "negative", 0.2))

    @pytest.mark.parametrize("live", [False, True], ids=["all_clamped", "none_clamped"])
    def test_extremes_match_oracle(self, live):
        rng = np.random.default_rng(5)
        for m in M_GRID:
            c = clamp_distance(m)
            # every negative's distance t_TH - t_r sits 0.5..8 past or short of the clamp
            offsets = rng.uniform(0.5, 8.0, (4, 5))
            t = np.concatenate([np.zeros((4, 1)), offsets - c if live else -c - offsets], axis=1)
            mask = np.zeros((4, 5), dtype=bool)
            mask[1, 2] = mask[3, [0, 4]] = True
            cfg = cfg_cmm(gamma=1.4, m=m)
            rows, grads = batch_rows("cmm", t, mask, cfg, need_grad=True)
            neg = grads[:, 1:][~mask]
            assert np.all(neg != 0.0) if live else np.all(neg == 0.0)
            for i in range(4):
                values = [float(x) for x in t[i]]
                positives = frozenset(int(j + 1) for j in np.flatnonzero(mask[i]))
                loss = lambda v: oracle_cmm_loss(v, positives, "1.4", str(m))  # noqa: E731
                assert abs(rows[i] - float(loss(values))) < 1e-9
                want = np.array([float(g) for g in oracle_grad(loss, values)])
                assert np.all(np.abs(grads[i] - want) < 1e-8)

    @pytest.mark.parametrize("d", [-3.0, 0.7, 1.5, 6.0])
    def test_zero_d_matches_oracle(self, d):
        """One distance, as a one-element stack of one arm."""
        m = 0.2                                   # clamp at log 4 ~ 1.386
        _, arm_m, clamp = _cmm_arms([cfg_cmm(m=m)])
        grad = np.empty((1, 1, 2))      # written: dterm/dt_r = -dterm/dd, after the TH column
        term = _negative_terms(np.full((1, 1, 1), d), arm_m, clamp, grad_out=grad)
        assert term.shape == (1, 1, 1)
        term, dterm = float(term[0, 0, 0]), -float(grad[0, 0, 1])
        assert abs(term - float(oracle_negative_term(d, "0.2"))) < 1e-12
        h = mp.mpf("1e-20")
        want = (oracle_negative_term(mp.mpf(d) + h, "0.2")
                - oracle_negative_term(mp.mpf(d) - h, "0.2")) / (2 * h)
        assert abs(dterm - float(want)) < 1e-12
        rescaled = cmm_rescale(d, "negative", m)
        assert rescaled == -term
        if d >= clamp_distance(m):
            assert math.copysign(1.0, rescaled) == 1.0      # +0.0, not -0.0


def two_exp_sigmoid(d):
    """The sigmoid with one exponential per branch, each on clipped input."""
    pos = 1.0 / (1.0 + np.exp(-np.maximum(d, 0.0)))
    en = np.exp(np.minimum(d, 0.0))
    return np.where(d >= 0.0, pos, en / (1.0 + en))


def two_exp_negative_terms(d, m):
    """Live negative terms -q and their derivatives by the logit, s(1-s)/(s+m), with
    e^d taken on the low side and e^-d on the high side by two exponentials."""
    low = d <= 0.0
    en, ep = np.exp(np.minimum(d, 0.0)), np.exp(-np.maximum(d, 0.0))
    q = np.where(low, np.log(m + (1.0 + m) * en) - np.log1p(en),
                 np.log1p(m + m * ep) - np.log1p(ep))
    s = np.where(low, en / (1.0 + en), 1.0 / (1.0 + ep))
    return -q, (s * (1.0 - s)) / (s + m)


def awkward_distances(size):
    """Signed zeros, subnormals, infinities, NaN and |d| from 1e-320 up to 1e308."""
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
             -np.nan, 1e308, -1e308, 1.7976931348623157e308, 36.0, -36.0, 710.0, -746.0]
    magnitudes = np.exp(rng.uniform(-737.0, 709.0, size)) * rng.choice([-1.0, 1.0], size)
    return np.concatenate([edges, rng.standard_normal(size) * 10.0, magnitudes,
                           rng.uniform(-1.0, 1.0, size) * 1e308])


class TestOneExponential:
    """``sigmoid`` and ``_negative_terms`` take one e^-|d| where each branch took its
    own exponential; the bits are the same, the sign of zero and NaN payloads too."""

    def test_sigmoid_equals_two_exponentials(self):
        d = awkward_distances(20_000)
        with np.errstate(all="ignore"):
            got, want = sigmoid(d), two_exp_sigmoid(d)
        assert np.signbit(d[np.isnan(d)]).any()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ms", [[1e-6], [0.2], [0.4999], [1e-6, 0.2, 0.4999]],
                             ids=["1e-6", "0.2", "0.4999", "per_arm"])
    def test_negative_terms_equal_two_exponentials(self, ms):
        values = awkward_distances(6_000)
        d = np.stack([values[: len(values) // 10 * 10].reshape(-1, 10)] * len(ms))
        _, m, clamp = _cmm_arms([cfg_cmm(m=value) for value in ms])
        grad = np.full(d.shape[:-1] + (11,), 7.0)
        with np.errstate(all="ignore"):
            term = _negative_terms(d, m, clamp, grad_out=grad)
            live = ~(d >= clamp)
            want_term, want_grad = np.zeros(d.shape), np.full(d.shape, -0.0)
            want_term[live], want_grad[live] = two_exp_negative_terms(
                d[live], np.broadcast_to(m, d.shape)[live])
        assert live.any() and (~live).any() and np.isnan(d).any()
        assert term.tobytes() == want_term.tobytes()
        assert np.ascontiguousarray(grad[..., 1:]).tobytes() == want_grad.tobytes()
        assert (grad[..., 0] == 7.0).all()      # the TH column is the caller's


class TestLabelPartition:
    """The kernels score every non-positive relation as a negative. A label set
    partitions its own 1..R, so one over another R than the row's would leave
    a relation out or name one the row lacks; it is rejected, not rescored."""

    @pytest.mark.parametrize("fn", [
        plain_margin_loss, plain_margin_grad, atl_reference_loss, atl_reference_grad,
        lambda lg, lb: cmm_loss(lg, lb, cfg_cmm()),
        lambda lg, lb: cmm_loss_grad(lg, lb, cfg_cmm()),
    ], ids=["plain", "plain_grad", "atl", "atl_grad", "cmm", "cmm_grad"])
    @pytest.mark.parametrize("labels", [
        LabelSet(2, frozenset({1})),
        LabelSet(4, frozenset({1})),
    ], ids=["missing", "stray"])
    def test_non_partition_rejected(self, fn, labels):
        with pytest.raises(SchemaError):
            fn(np.array([0.0, 1.0, 2.0, 3.0]), labels)


class TestPluginRegistry:
    def test_register_and_resolve(self):
        register_loss("unit_test_loss", lambda lg, lb, cfg: 0.0,
                      lambda lg, lb, cfg: np.zeros(np.asarray(lg).size))
        fns = get_loss(LossConfig(kind="plugin", plugin="unit_test_loss"))
        assert fns.value(np.zeros(3), LabelSet(2, frozenset()), None) == 0.0

    def test_unknown_plugin(self):
        with pytest.raises(ValueError):
            get_loss(LossConfig(kind="plugin", plugin="never_registered"))

    def test_cannot_shadow_builtin(self):
        with pytest.raises(ValueError):
            register_loss("cmm", lambda *a: 0.0, lambda *a: None)

    def test_builtin_resolution(self):
        assert get_loss(LossConfig(kind="cmm")).value is cmm_loss
        assert get_loss(LossConfig(kind="cmm")).grad is cmm_loss_grad


class TestPositiveTermHelper:
    def test_matches_oracle(self):
        for gamma in GAMMA_GRID:
            for d in (-3.0, -1.0, 0.0, 0.5, 2.0, 5.0):
                got = float(cmm_positive_term(d, gamma))
                assert abs(got - float(oracle_positive_term(d, str(gamma)))) < 1e-12

    def test_clamp_distance_value(self):
        assert clamp_distance(0.2) == pytest.approx(1.3862943611198906, abs=1e-15)
