"""Property tests for the loss family: invariances, monotonicity, clamping."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmm.encoder import _packed
from cmm.evaluation import decode
from cmm.loss import (
    GAMMA_GRID,
    M_GRID,
    LossConfig,
    _cmm_arms,
    _cmm_rows,
    _logsumexp_rows,
    _positive_terms,
    batch_rows,
    clamp_distance,
    cmm_loss,
    cmm_loss_grad,
    cmm_positive_term,
    cmm_rescale,
    margin_distances,
    plain_margin_loss,
)
from cmm.schema import LabelSet

finite_logits = st.lists(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False), min_size=2, max_size=9,
)
gammas = st.sampled_from(GAMMA_GRID)
ms = st.sampled_from(M_GRID)
distances = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


@st.composite
def rows_with_labels(draw):
    values = np.array(draw(finite_logits))
    r_count = values.size - 1
    if draw(st.booleans()) and draw(st.integers(0, 4)) == 0:
        positives: frozenset[int] = frozenset()
    else:
        positives = frozenset(
            r for r in range(1, r_count + 1) if draw(st.integers(0, 2)) == 0
        )
    return values, LabelSet(r_count, positives)


def softplus(x):
    return float(np.logaddexp(0.0, x))


class TestNonnegativity:
    @given(rows_with_labels(), gammas, ms)
    def test_cmm_loss_nonnegative(self, row_labels, gamma, m):
        values, labels = row_labels
        cfg = LossConfig(kind="cmm", gamma=gamma, m=m)
        assert cmm_loss(values, labels, cfg) >= 0.0


class TestShiftInvariance:
    @given(rows_with_labels(), st.floats(min_value=-50.0, max_value=50.0), gammas, ms)
    def test_losses_and_distances_shift_invariant(self, row_labels, c, gamma, m):
        values, labels = row_labels
        cfg = LossConfig(kind="cmm", gamma=gamma, m=m)
        shifted = values + c
        base_d = margin_distances(values, labels)
        shift_d = margin_distances(shifted, labels)
        for r, v in base_d.d_pos.items():
            assert shift_d.d_pos[r] == pytest.approx(v, abs=1e-9)
        for r, v in base_d.d_neg.items():
            assert shift_d.d_neg[r] == pytest.approx(v, abs=1e-9)
        assert plain_margin_loss(shifted, labels) == pytest.approx(
            plain_margin_loss(values, labels), abs=1e-8)
        assert cmm_loss(shifted, labels, cfg) == pytest.approx(
            cmm_loss(values, labels, cfg), abs=1e-8)
        assert np.allclose(cmm_loss_grad(shifted, labels, cfg),
                           cmm_loss_grad(values, labels, cfg), atol=1e-8)

    @given(finite_logits, st.floats(min_value=-50.0, max_value=50.0))
    def test_decode_shift_invariant(self, values, c):
        values = np.array(values)
        # avoid near-tie logits whose comparison can legitimately flip after
        # a rounded shift
        assume(np.all(np.abs(values[1:] - values[0]) > 1e-6))
        assert decode(values + c) == decode(values)


class TestPositiveSide:
    @given(distances, distances, gammas)
    def test_strictly_decreasing_in_distance(self, d1, d2, gamma):
        assume(abs(d1 - d2) > 1e-7)
        lo, hi = min(d1, d2), max(d1, d2)
        assert float(cmm_positive_term(lo, gamma)) > float(cmm_positive_term(hi, gamma))

    @given(distances, st.sampled_from([(1.0, 1.2), (1.2, 1.4), (1.4, 1.6), (1.6, 2.0),
                                       (1.0, 2.0)]))
    def test_gamma_ordering(self, d, pair):
        # the focusing exponent only amplifies: larger gamma, larger term
        g1, g2 = pair
        t1 = float(cmm_positive_term(d, g1))
        t2 = float(cmm_positive_term(d, g2))
        assert t1 > 0.0
        assert t1 < t2

    @given(distances)
    def test_gamma_zero_reduces_to_log_sigmoid(self, d):
        assert float(cmm_positive_term(d, 0.0)) == softplus(-d)


class TestNegativeSide:
    @given(distances, ms)
    def test_clamped_region_exactly_zero(self, d, m):
        dc = clamp_distance(m)
        assume(d >= dc)
        assert cmm_rescale(d, "negative", m) == 0.0
        # a single clamped negative: zero loss, zero gradient everywhere
        values = np.array([d, 0.0])
        labels = LabelSet(1, frozenset())
        cfg = LossConfig(kind="cmm", gamma=1.0, m=m)
        assert cmm_loss(values, labels, cfg) == 0.0
        assert np.all(cmm_loss_grad(values, labels, cfg) == 0.0)

    @given(distances, distances, ms)
    def test_non_increasing_below_clamp(self, d1, d2, m):
        dc = clamp_distance(m)
        lo, hi = min(d1, d2), max(d1, d2)
        assume(hi < dc and hi - lo > 1e-9)
        q_lo = cmm_rescale(lo, "negative", m)
        q_hi = cmm_rescale(hi, "negative", m)
        assert -q_lo >= -q_hi

    @given(distances, ms)
    def test_rescale_range(self, d, m):
        q = cmm_rescale(d, "negative", m)
        assert q <= 0.0
        # open lower bound; fp only saturates to log(m) beyond d ~ -40
        assert q > np.log(m)

    @given(distances, st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_m_to_zero_reduces_to_log_sigmoid(self, d, m):
        assume(d < clamp_distance(m) - 1.0)
        term = -cmm_rescale(d, "negative", m)
        target = softplus(-d)
        # -log(sigma(d)+m) sits below -log(sigma(d)) by at most m/sigma(d)
        gap = target - term
        assert 0.0 <= gap <= m * (1.0 + np.exp(-d)) + 1e-12


class TestDecode:
    @given(finite_logits)
    def test_matches_brute_force(self, values):
        values = np.array(values)
        want = {r for r in range(1, values.size) if values[r] > values[0]}
        assert decode(values) == frozenset(want)

    @given(finite_logits)
    def test_ties_go_negative(self, values):
        values = np.array(values)
        values[1] = values[0]
        assert 1 not in decode(values)


def logit_entries(arm_ms):
    """Logits that, beside a TH logit of +-0.0, put a negative's distance exactly
    at each arm's clamp and one ulp either side of it; plus +-0.0, NaN and
    ordinary values."""
    special = [0.0, -0.0, math.nan]
    for m in arm_ms:
        c = clamp_distance(m)
        special += [-c, math.nextafter(-c, -math.inf), math.nextafter(-c, math.inf)]
    return st.one_of(st.sampled_from(special), st.floats(-30.0, 30.0))


@st.composite
def logit_stacks(draw, arm_ms, min_rows=0, max_relations=6):
    """(K, n, R+1) logits for K = len(arm_ms) arms and a (K, n, R) positive mask."""
    k, n = len(arm_ms), draw(st.integers(min_rows, 4))
    r = draw(st.integers(1, max_relations))
    entry = logit_entries(arm_ms)
    t = np.empty((k, n, r + 1))
    t[..., 0] = draw(arrays(np.float64, (k, n), elements=st.one_of(
        st.sampled_from([0.0, -0.0]), entry)))
    t[..., 1:] = draw(arrays(np.float64, (k, n, r), elements=entry))
    return t, draw(arrays(bool, (k, n, r)))


@st.composite
def cmm_stacks(draw, max_arms, max_relations=6, unique=False):
    """A (K, n, R+1) logit stack, its (K, n, R) positive mask and one cmm config
    per arm, the arms' gammas and ms drawn from the grids."""
    arm_ms = draw(st.lists(ms, min_size=1, max_size=max_arms, unique=unique))
    t, mask = draw(logit_stacks(arm_ms, max_relations=max_relations))
    arm_gammas = draw(st.lists(gammas, min_size=len(arm_ms), max_size=len(arm_ms),
                               unique=unique))
    return t, mask, [LossConfig(gamma=g, m=m) for g, m in zip(arm_gammas, arm_ms)]


def edge_stack(mask):
    """Logits from [-5, 5) for the (K, n, R) positive mask, arm k with the
    grids' k-th gamma and m."""
    k, n, r = mask.shape
    t = np.random.default_rng(0).uniform(-5.0, 5.0, (k, n, r + 1))
    return t, mask, [LossConfig(gamma=GAMMA_GRID[i], m=M_GRID[i]) for i in range(k)]


def with_edge_stacks(test):
    """Run ``test`` also on the stacks the flat positions of the positives
    could get wrong: no rows (an arm span of 0), no positive, R = 1, and
    K = 3 arms of which the middle one holds every positive."""
    for mask in (np.zeros((3, 0, 4), dtype=bool), np.zeros((2, 3, 4), dtype=bool),
                 np.array([[[True], [False], [True]], [[False], [True], [True]]]),
                 (np.arange(3) == 1)[:, None, None] & np.ones((3, 3, 4), dtype=bool)):
        test = example(stack=edge_stack(mask))(test)
    return test


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()      # NaN payloads and the sign of zero too


class TestValueGradientSplit:
    """A kernel asked for its gradient alone returns the same bits as when it
    computes the values too, and the values do not depend on the gradient."""

    @pytest.mark.parametrize("kind", ["cmm", "plain_margin", "atl_reference"])
    @given(data=st.data(), gamma=gammas, m=ms)
    def test_batch_rows_gradient_alone_is_bit_identical(self, kind, data, gamma, m):
        t, mask = data.draw(logit_stacks([m]))
        cfg = LossConfig(kind=kind, gamma=gamma, m=m)
        with np.errstate(all="ignore"):
            rows, grad = batch_rows(kind, t[0], mask[0], cfg, need_grad=True)
            no_rows, alone = batch_rows(kind, t[0], mask[0], cfg, need_grad=True,
                                        need_value=False)
            value_only, no_grad = batch_rows(kind, t[0], mask[0], cfg, need_grad=False)
        assert no_rows is None and no_grad is None
        assert_same_bits(alone, grad)
        assert_same_bits(value_only, rows)

    @given(data=st.data(), arm_ms=st.lists(ms, min_size=1, max_size=4))
    def test_stacked_cmm_gradient_alone_is_bit_identical(self, data, arm_ms):
        """The trainer's call: per-arm gamma, m and clamp on a (K, n, R+1) stack."""
        t, mask = data.draw(logit_stacks(arm_ms, min_rows=1))
        pos = np.flatnonzero(mask)
        arm_gammas = data.draw(st.lists(gammas, min_size=len(arm_ms), max_size=len(arm_ms)))
        arms = _cmm_arms([LossConfig(gamma=g, m=m) for g, m in zip(arm_gammas, arm_ms)])
        out = np.empty_like(t)
        with np.errstate(all="ignore"):
            rows, grad = _cmm_rows(t, pos, *arms, need_grad=True)
            no_rows, alone = _cmm_rows(t, pos, *arms, need_grad=True, grad_out=out,
                                       need_value=False)
            value_only, _ = _cmm_rows(t, pos, *arms, need_grad=False)
        assert no_rows is None and alone is out
        assert_same_bits(alone, grad)
        assert_same_bits(value_only, rows)


class TestStackedArms:
    @given(stack=cmm_stacks(max_arms=4, unique=True))
    @with_edge_stacks
    def test_each_arm_equals_batch_rows_alone(self, stack):
        """One K-arm kernel call, each arm with its own gamma and m, scores every
        arm's rows as ``batch_rows`` scores that arm alone, to the bit."""
        t, mask, cfgs = stack
        # a division by zero, such as by the arm span of a stack without rows, raises
        with np.errstate(all="ignore", divide="raise"):
            rows, grad = _cmm_rows(t, np.flatnonzero(mask), *_cmm_arms(cfgs), need_grad=True)
            for k, cfg in enumerate(cfgs):
                alone_rows, alone_grad = batch_rows("cmm", t[k], mask[k], cfg, need_grad=True)
                assert_same_bits(rows[k], alone_rows)
                assert_same_bits(grad[k], alone_grad)


def dense_atl_rows(t, pos_mask, need_grad):
    """The ATL kernel with both softmaxes on every row, a row without
    positives included."""
    th_col = np.ones((t.shape[0], 1), dtype=bool)
    a1 = np.where(np.concatenate([th_col, pos_mask], axis=1), t, -np.inf)
    a2 = np.where(np.concatenate([th_col, ~pos_mask], axis=1), t, -np.inf)
    z1, z2 = _logsumexp_rows(a1), _logsumexp_rows(a2)
    n_pos = pos_mask.sum(axis=1)
    rows = (n_pos * z1 - np.where(pos_mask, t[:, 1:], 0.0).sum(axis=1)) + (z2 - t[:, 0])
    if not need_grad:
        return rows, None
    grad = n_pos[:, None] * np.exp(a1 - z1[:, None]) + np.exp(a2 - z2[:, None])
    grad[:, 1:] -= pos_mask
    grad[:, 0] -= 1.0
    return rows, grad


def dense_cmm_grad(t, pos_idx, gamma, m, clamp):
    """The cmm gradient composed densely: every negative's derivative -gn
    (+0.0 where clamped, so -0.0 after the flip), the positives' scattered
    over it through the ``np.nonzero`` tuple ``pos_idx`` of the mask, not the
    kernel's flat positions, and the TH column as minus the row sum."""
    dist = t[..., 1:] - t[..., :1]
    d = -dist
    en, ep = np.exp(np.minimum(d, 0.0)), np.exp(-np.maximum(d, 0.0))
    s = np.where(d <= 0.0, en / (1.0 + en), 1.0 / (1.0 + ep))
    gn = np.where(~(d >= clamp), -(s * (1.0 - s)) / (s + m), 0.0)
    _, gp = _positive_terms(dist[pos_idx], gamma[pos_idx[0]], need_grad=True, need_value=False)
    ddist = -gn
    ddist[pos_idx] = gp
    grad = np.empty(t.shape)
    grad[..., 1:] = ddist
    grad[..., 0] = -ddist.sum(axis=-1)
    return grad


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def atl_batches(draw):
    """(n, R+1) finite logits, +-0.0 among them, up to 1e3 in magnitude, and an
    (n, R) mask whose rows hold no, one, several or all positives."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3),
                      st.floats(-5.0, 5.0))
    t = draw(arrays(np.float64, (n, r + 1), elements=entry))
    mask = np.zeros((n, r), dtype=bool)
    for i in range(n):
        count = draw(st.sampled_from([0, 1, r, draw(st.integers(0, r))]))
        mask[i, draw(st.permutations(range(r)))[:count]] = True
    return t, mask


class TestLabelOnlyKernels:
    """The kernels that work from label-only arrays, and the cmm gradient
    written straight into its output, give the bits of their dense
    compositions."""

    @given(atl_batches(), st.booleans())
    def test_atl_matches_dense_kernel(self, batch, need_value):
        t, mask = batch
        want_rows, want_grad = dense_atl_rows(t, mask, need_grad=True)
        rows, grad = batch_rows("atl_reference", t, mask, LossConfig(kind="atl_reference"),
                                need_grad=True, need_value=need_value)
        assert same_bits(grad, want_grad)
        if need_value:
            assert same_bits(rows, want_rows)
        value_only, _ = batch_rows("atl_reference", t, mask, LossConfig(kind="atl_reference"),
                                   need_grad=False)
        assert same_bits(value_only, want_rows)

    @given(atl_batches())
    def test_cached_plain_margin_gradient(self, batch):
        t, mask = batch
        cached = _packed(np.zeros((len(t), 1)), mask, ["plain_margin"]).labels["plain_margin"][0]
        _, grad = batch_rows("plain_margin", t, mask, LossConfig(kind="plain_margin"),
                             need_grad=True)
        want = np.empty(t.shape)
        want[:, 1:] = np.where(mask, -1.0, 1.0)
        want[:, 0] = -want[:, 1:].copy().sum(axis=1)
        assert same_bits(cached, grad) and same_bits(grad, want)

    @given(stack=cmm_stacks(max_arms=3, max_relations=40))
    @with_edge_stacks
    def test_cmm_gradient_matches_dense_composition(self, stack):
        t, mask, cfgs = stack
        arms = _cmm_arms(cfgs)
        # a division by zero, such as by the arm span of a stack without rows, raises
        with np.errstate(all="ignore", divide="raise"):
            want = dense_cmm_grad(t, np.nonzero(mask), *arms)
            _, grad = _cmm_rows(t, np.flatnonzero(mask), *arms, need_grad=True,
                                need_value=False)
        assert same_bits(grad, want)
