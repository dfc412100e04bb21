import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmm.gradcheck
from cmm.errors import NumericError
from cmm.gradcheck import (_decode, _Draws, _raw_words, check_gradients, finite_difference,
                           relative_error)
from cmm.loss import LossConfig, batch_rows, clamp_distance, cmm_loss, cmm_loss_grad
from cmm.schema import LabelSet, LogitRow


def cfg_cmm(gamma=1.0, m=0.2):
    return LossConfig(kind="cmm", gamma=gamma, m=m)


def batch_value(kind, labels, cfg):
    """The rows of a probe matrix scored by batch_rows under one label set."""
    mask = np.zeros(labels.relation_count, dtype=bool)
    mask[[r - 1 for r in labels.positives]] = True

    def value(probes):
        probe_mask = np.broadcast_to(mask, (len(probes), mask.size))
        return batch_rows(kind, probes, probe_mask, cfg, need_grad=False)[0]
    return value


def row_by_row_difference(values, labels, cfg, step):
    """Central differences of the public cmm_loss, one coordinate at a time."""
    grad = np.zeros_like(values)
    for i in range(values.size):
        probe = values.copy()
        probe[i] = values[i] + step
        up = cmm_loss(probe, labels, cfg)
        probe[i] = values[i] - step
        down = cmm_loss(probe, labels, cfg)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"non-finite loss evaluation at coordinate {i}")
        grad[i] = (up - down) / (2.0 * step)
    return grad


class TestFiniteDifference:
    def test_constant_loss_zero_vector(self):
        grad = finite_difference(lambda probes: np.full(len(probes), 3.25),
                                 LogitRow([0.1, 0.2, 0.3]))
        assert np.all(grad == 0.0)

    def test_plain_margin_hand_gradient(self):
        # one positive and one negative: relation entries are -1 and +1, and
        # their opposite-sign TH contributions cancel to 0
        labels = LabelSet(2, frozenset({1}))
        grad = finite_difference(batch_value("plain_margin", labels, None),
                                 LogitRow([0.4, 1.0, -0.3]))
        assert grad[1] == pytest.approx(-1.0, abs=1e-9)
        assert grad[2] == pytest.approx(1.0, abs=1e-9)
        assert grad[0] == pytest.approx(0.0, abs=1e-9)

    def test_cmm_matches_analytic_at_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            r_count = int(rng.integers(1, 8))
            values = rng.uniform(-8, 8, r_count + 1)
            positives = frozenset(int(r) for r in range(1, r_count + 1)
                                  if rng.random() < 0.4)
            labels = LabelSet(r_count, positives)
            cfg = cfg_cmm(gamma=float(rng.choice([1.0, 1.2, 2.0])),
                          m=float(rng.choice([0.1, 0.3])))
            numeric = finite_difference(batch_value("cmm", labels, cfg), LogitRow(values))
            analytic = cmm_loss_grad(values, labels, cfg)
            assert np.all(relative_error(analytic, numeric) < 1e-5)

    def test_rejects_bad_step(self):
        for step in (0.0, -1e-5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="step"):
                finite_difference(lambda probes: np.zeros(len(probes)), LogitRow([0.0, 1.0]),
                                  step=step)

    def test_non_finite_loss_names_coordinate(self):
        def exploding(probes):
            return np.where(probes[:, 1:].max(axis=1) > 0.5, np.inf, 0.0)

        # coordinates 1 and 2 both blow up; the first is named
        with pytest.raises(NumericError, match="coordinate 1$"):
            finite_difference(exploding, LogitRow([0.0, 0.5, 0.5]))

    def test_one_value_call_on_all_probes(self):
        calls = []

        def value(probes):
            calls.append(probes.copy())
            return probes.sum(axis=1)

        values = np.array([0.25, -1.0, 3.0])
        finite_difference(value, values, step=0.5)
        assert len(calls) == 1
        expected = np.vstack([values + 0.5 * np.eye(3), values - 0.5 * np.eye(3)])
        assert np.array_equal(calls[0], expected)

    def test_stack_equals_each_row(self):
        rng = np.random.default_rng(8)
        stack = rng.uniform(-3.0, 3.0, (2, 3, 5))
        labels, cfg = LabelSet(4, frozenset({2})), cfg_cmm(1.4, 0.3)
        value = batch_value("cmm", labels, cfg)
        stacked = finite_difference(lambda probes: value(probes.reshape(-1, 5)).reshape(2, 3, 10),
                                    stack, step=1e-4)
        assert stacked.shape == (2, 3, 5)
        for index in np.ndindex(2, 3):
            assert np.array_equal(stacked[index], finite_difference(value, stack[index], 1e-4))

    def test_non_finite_names_first_row_of_stack(self):
        def exploding(probes):
            # row 1 blows up at coordinate 2, row 2 at coordinate 0
            scores = np.zeros(probes.shape[:-1])
            scores[1, 2] = np.nan
            scores[2, 3 + 0] = np.inf
            return scores

        with pytest.raises(NumericError, match="coordinate 2$") as info:
            finite_difference(exploding, np.zeros((3, 3)))
        assert info.value.row == 1

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(r_count=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           step=st.sampled_from([1e-7, 1e-5, 1e-3, 0.05]),
           positive_rate=st.sampled_from([0.0, 0.35, 1.0]),
           near_clamp=st.booleans(), gamma=st.sampled_from([1.0, 1.4, 2.0]),
           m=st.sampled_from([0.1, 0.2, 0.4]))
    def test_batched_equals_row_by_row_bit_for_bit(self, r_count, seed, step, positive_rate,
                                                    near_clamp, gamma, m):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-8.0, 8.0, r_count + 1)
        if near_clamp:      # negatives within 10 steps of the clamp distance
            values[1:] = values[0] - clamp_distance(m) + rng.uniform(-10 * step, 10 * step,
                                                                     r_count)
        positives = frozenset((np.flatnonzero(rng.random(r_count) < positive_rate) + 1).tolist())
        labels, cfg = LabelSet(r_count, positives), cfg_cmm(gamma, m)
        batched = finite_difference(batch_value("cmm", labels, cfg), values, step=step)
        assert np.array_equal(batched, row_by_row_difference(values, labels, cfg, step))


def draw_trials(trials, seed, gammas=(1.0, 1.2, 1.4, 1.6, 2.0), ms=(0.1, 0.2, 0.3, 0.4),
                logit_range=(-8.0, 8.0), relation_counts=(2, 3, 4, 6, 8, 10)):
    """(values, labels, cfg) of each trial, drawn one value at a time as check_gradients does."""
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        r_count = int(relation_counts[rng.integers(len(relation_counts))])
        values = rng.uniform(*logit_range, size=r_count + 1)
        if rng.random() < 0.2:
            positives = frozenset()
        else:
            positives = frozenset(r for r in range(1, r_count + 1) if rng.random() < 0.35)
        cfg = cfg_cmm(gamma=float(gammas[rng.integers(len(gammas))]),
                      m=float(ms[rng.integers(len(ms))]))
        yield values, LabelSet(r_count, positives), cfg


def per_coordinate_report(trials, tolerance, seed, step=1e-5, **draw):
    """check_gradients(...).to_dict() as computed one trial, one coordinate and one
    negative at a time."""
    max_err, excluded, failures = 0.0, 0, []
    for trial, (values, labels, cfg) in enumerate(draw_trials(trials, seed, **draw)):
        r_count, positives = labels.relation_count, labels.positives
        analytic = cmm_loss_grad(values, labels, cfg)
        numeric = row_by_row_difference(values, labels, cfg, step)
        skip = np.zeros(r_count + 1, dtype=bool)
        for r in sorted(labels.negatives):
            if abs((values[0] - values[r]) - clamp_distance(cfg.m)) <= 10.0 * step:
                skip[r] = skip[0] = True
        excluded += int(skip.sum())
        trial_err = 0.0
        for i in range(r_count + 1):
            if not skip[i]:
                a, n = float(analytic[i]), float(numeric[i])
                trial_err = max(trial_err, abs(a - n) / max(1.0, abs(a), abs(n)))
        max_err = max(max_err, trial_err)
        if trial_err > tolerance:
            failures.append({
                "trial": trial, "relation_count": r_count, "gamma": cfg.gamma, "m": cfg.m,
                "logits": [float(v) for v in values], "positives": sorted(positives),
                "analytic": [float(v) for v in analytic], "numeric": [float(v) for v in numeric],
                "rel_error": trial_err})
    return {"trials": trials, "tolerance": tolerance, "seed": seed, "step": step,
            "max_rel_error": max_err, "excluded_coords": excluded,
            "n_failures": len(failures), "failures": failures}


def kernel_calls(monkeypatch):
    """Record (need_grad, logits shape) of every kernel call cmm.gradcheck makes."""
    calls, original = [], cmm.gradcheck._cmm_rows

    def recorded(t, *args, need_grad, **kwargs):
        calls.append((need_grad, t.shape))
        return original(t, *args, need_grad=need_grad, **kwargs)

    monkeypatch.setattr(cmm.gradcheck, "_cmm_rows", recorded)
    return calls


class TestAgainstPerCoordinateOracle:
    @pytest.mark.parametrize("kwargs", [
        {"trials": 300, "tolerance": 1e-5, "seed": 2024},
        {"trials": 300, "tolerance": 1e-5, "seed": 20240},
        {"trials": 300, "tolerance": 10.0, "seed": 5, "ms": (0.2,),
         "logit_range": (-1.5, 1.5), "step": 0.05},
        {"trials": 200, "tolerance": 0.0, "seed": 2024},
        {"trials": 200, "tolerance": 1e-5, "seed": 77, "relation_counts": (7,)},
        {"trials": 120, "tolerance": 1e-5, "seed": 78, "relation_counts": (1, 2, 64, 5)},
    ], ids=["seed_2024", "seed_20240", "widened_band", "tolerance_0", "one_relation_count",
            "mixed_relation_counts"])
    def test_report_equals_per_coordinate_algorithm(self, kwargs):
        expected = per_coordinate_report(**kwargs)
        assert check_gradients(**kwargs).to_dict() == expected
        if kwargs["tolerance"] == 0.0:
            assert expected["n_failures"] > 0
        if "step" in kwargs:
            assert expected["excluded_coords"] > 0

    def test_extreme_logit_range_raises_as_per_coordinate_algorithm(self):
        kwargs = {"trials": 30, "tolerance": 1e-5, "seed": 6,
                  "logit_range": (-8e307, 8e307), "relation_counts": (1, 2, 64, 5)}
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as expected:
                per_coordinate_report(**kwargs)
            with pytest.raises(NumericError) as raised:
                check_gradients(**kwargs)
        assert str(raised.value) == str(expected.value)

    def test_non_finite_probe_named_for_first_trial_in_trial_order(self, monkeypatch):
        # a trial whose TH logit exceeds 6 scores inf on its last coordinate's up
        # probe; trial order and relation-count order disagree on the first one
        kwargs = {"trials": 60, "seed": 4, "relation_counts": (1, 2, 64, 5)}
        draws = list(draw_trials(kwargs["trials"], kwargs["seed"],
                                 relation_counts=kwargs["relation_counts"]))
        bad = [labels.relation_count for values, labels, _ in draws if values[0] > 6.0]
        first_seen = list(dict.fromkeys(labels.relation_count for _, labels, _ in draws))
        assert min(bad, key=first_seen.index) != bad[0]
        original = cmm.gradcheck._cmm_rows

        def poisoned(t, *args, need_grad, **kwargs):
            rows, grads = original(t, *args, need_grad=need_grad, **kwargs)
            if not need_grad:
                n = t.shape[-1]
                rows[t[:, -1, 0] > 6.0, n - 1] = np.inf
            return rows, grads

        monkeypatch.setattr(cmm.gradcheck, "_cmm_rows", poisoned)
        with pytest.raises(NumericError, match=f"coordinate {bad[0]}$"):
            check_gradients(**kwargs)

    def test_one_value_call_per_relation_count(self, monkeypatch):
        calls = kernel_calls(monkeypatch)
        report = check_gradients(trials=40, seed=3)
        assert report.ok
        sizes = [labels.relation_count + 1 for _, labels, _ in draw_trials(40, 3)]
        value_calls = [shape for need_grad, shape in calls if not need_grad]
        assert sorted(shape[0] for shape in value_calls) == sorted(
            sizes.count(n) for n in set(sizes))
        for t, k, n in value_calls:
            assert k == 2 * n and t == sizes.count(n)
        assert sorted(shape for need_grad, shape in calls if need_grad) == sorted(
            (sizes.count(n), 1, n) for n in set(sizes))

    @pytest.mark.parametrize("cap", [3 * 2 * 11 * 11, 1])
    def test_chunks_bounded_and_report_unchanged(self, monkeypatch, cap):
        kwargs = {"trials": 120, "tolerance": 0.0, "seed": 2024}
        expected = check_gradients(**kwargs).to_dict()
        calls = kernel_calls(monkeypatch)
        monkeypatch.setattr(cmm.gradcheck, "PROBE_STACK_FLOATS", cap)
        assert check_gradients(**kwargs).to_dict() == expected
        sizes = [labels.relation_count + 1 for _, labels, _ in draw_trials(120, 2024)]
        value_calls = [shape for need_grad, shape in calls if not need_grad]
        # one value call per (relation count, chunk) whose probe rows total 2n per trial
        assert sum(t * k for t, k, _ in value_calls) == sum(2 * n for n in sizes)
        for t, k, n in value_calls:
            assert k == 2 * n and t * k * n <= max(cap, k * n)
        if cap == 1:
            assert len(value_calls) == kwargs["trials"]
        else:
            assert len(value_calls) > len(set(sizes))


def decoded_trials(trials, seed, block=5, words=None, gammas=(1.0, 1.2, 1.4, 1.6, 2.0),
                   ms=(0.1, 0.2, 0.3, 0.4), logit_range=(-8.0, 8.0),
                   relation_counts=(2, 3, 4, 6, 8, 10)):
    """(values, positives, gamma, m) of each trial decoded from its raw words, drawn
    ``block`` trials at a time as check_gradients draws them, or from the given
    raw words of trials 0, 1, ..."""
    draws = _Draws(tuple(relation_counts), *logit_range, (len(gammas), len(ms)), 0.2, 0.35)
    width = 2 * max(relation_counts) + 4
    blocks = ([(0, words)] if words is not None else
              [(first, _raw_words(seed, range(first, min(trials, first + block)), width))
               for first in range(0, trials, block)])
    for first, block_words in blocks:
        r_counts, logits, positives, arms = _decode(block_words, seed, first, draws)
        for r_count, values, mask, arm in zip(r_counts, logits, positives, arms):
            labels = frozenset((np.flatnonzero(mask[:r_count]) + 1).tolist())
            yield (values[:r_count + 1].tolist(), labels, gammas[arm // len(ms)],
                   ms[arm % len(ms)])


def reference_trials(trials, seed, **draw):
    """decoded_trials' tuples from draw_trials, one default_rng per trial."""
    return [(values.tolist(), labels.positives, cfg.gamma, cfg.m)
            for values, labels, cfg in draw_trials(trials, seed, **draw)]


class TestTrialRngs:
    """Trials are decoded from PCG64 words computed in arrays; default_rng is the reference."""

    SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 100 + 3)
    TRIALS = (0, 1, 999, 2 ** 32 - 1, 2 ** 32, 2 ** 64)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_default_rng_at_word_boundaries(self, seed):
        # one call holds trial indices of one, two and three 32-bit words
        expected = [np.random.default_rng((seed, t)).bit_generator.random_raw(30)
                    for t in self.TRIALS]
        assert np.array_equal(_raw_words(seed, self.TRIALS, 30), expected)

    @pytest.mark.parametrize("draw", [
        {}, {"relation_counts": (1, 1024)}, {"relation_counts": (7,)},
        {"gammas": (2.0,), "ms": (0.3,)}, {"relation_counts": (5,), "gammas": (1.0,), "ms": (0.1,)},
        {"logit_range": (-1.5, 1.5), "ms": (0.2,)},
    ], ids=["defaults", "one_and_1024", "one_relation_count", "one_arm", "one_of_each",
            "narrow_range"])
    def test_decoded_draws_equal_default_rng_draws(self, draw):
        assert list(decoded_trials(41, 2 ** 64 + 1, **draw)) == reference_trials(
            41, 2 ** 64 + 1, **draw)

    def blocked_run(self, monkeypatch, budget):
        """First trials of the blocks check_gradients draws at this word budget; the
        report must equal the per-coordinate one, whose failures (every trial at
        tolerance 0) are in trial order."""
        kwargs = {"trials": 13, "tolerance": 0.0, "seed": 2 ** 64 + 1}
        expected = per_coordinate_report(**kwargs)
        calls, original = [], cmm.gradcheck._raw_words

        def recorded(seed, trials, width):
            calls.append(trials[0])
            return original(seed, trials, width)

        monkeypatch.setattr(cmm.gradcheck, "_raw_words", recorded)
        monkeypatch.setattr(cmm.gradcheck, "WORD_BLOCK", budget)
        assert check_gradients(**kwargs).to_dict() == expected
        return calls

    def test_streams_across_seed_blocks(self, monkeypatch):
        # a default trial needs 24 words
        assert self.blocked_run(monkeypatch, 3 * 24 + 1) == [0, 3, 6, 9, 12]

    def test_one_trial_per_block_below_one_trials_words(self, monkeypatch):
        assert self.blocked_run(monkeypatch, 1) == list(range(13))

    def test_non_finite_probe_named_for_first_trial_across_blocks(self, monkeypatch):
        # a trial whose TH logit exceeds 6 scores inf on its last coordinate's up probe.
        # In blocks of 20 trials the first block has none, and the second scores
        # relation count 1 (trial 27) before the first such trial's 5 (trial 20)
        kwargs = {"trials": 60, "seed": 15, "relation_counts": (1, 2, 64, 5)}
        bad = [(trial, labels.relation_count) for trial, (values, labels, _)
               in enumerate(draw_trials(**kwargs)) if values[0] > 6.0]
        assert bad[0] == (20, 5) and (27, 1) in bad
        original = cmm.gradcheck._cmm_rows

        def poisoned(t, *args, need_grad, **kwargs):
            rows, grads = original(t, *args, need_grad=need_grad, **kwargs)
            if not need_grad:
                rows[t[:, -1, 0] > 6.0, t.shape[-1] - 1] = np.inf
            return rows, grads

        monkeypatch.setattr(cmm.gradcheck, "_cmm_rows", poisoned)
        monkeypatch.setattr(cmm.gradcheck, "WORD_BLOCK", 20 * (2 * 64 + 4))
        with pytest.raises(NumericError, match="coordinate 5$"):
            check_gradients(**kwargs)

    @pytest.mark.parametrize("half", ["low", "high"])
    def test_possible_rejection_redraws_the_trial(self, half):
        # the relation-count draw takes word 0's low half and the gamma draw its high
        # half; a half of 0 gives Lemire's product 0 < k, where numpy may draw again
        seed, trial = 8, 4
        words = _raw_words(seed, range(12), 24)
        expected = reference_trials(12, seed)
        words[trial, 0] &= np.uint64(0xFFFFFFFF00000000 if half == "low" else 0xFFFFFFFF)
        assert list(decoded_trials(12, seed, words=words)) == expected
        # read as written, the zeroed half would draw relation count 2 or gamma 1.0
        values, _, gamma, _ = expected[trial]
        assert len(values) != 3 if half == "low" else gamma != 1.0


class TestCheckGradients:
    def test_small_run_passes(self):
        report = check_gradients(trials=50, tolerance=1e-5, seed=17)
        assert report.ok
        assert report.max_rel_error < 1e-5
        assert report.failures == ()

    def test_deterministic_given_seed(self):
        a = check_gradients(trials=25, tolerance=1e-5, seed=4)
        b = check_gradients(trials=25, tolerance=1e-5, seed=4)
        assert a == b

    def test_zero_tolerance_fails_every_trial(self):
        report = check_gradients(trials=5, tolerance=0.0, seed=9)
        assert len(report.failures) == report.trials
        assert not report.ok

    def test_failures_iff_above_tolerance(self):
        ok_report = check_gradients(trials=40, tolerance=1e-5, seed=2)
        assert (len(ok_report.failures) > 0) == (ok_report.max_rel_error > 1e-5)

    def test_clamp_boundary_exclusions_counted(self):
        # widen the exclusion band (10x step) so draws near the m=0.2 clamp
        # distance actually land in it; tolerance is irrelevant here
        report = check_gradients(trials=100, tolerance=10.0, seed=5,
                                 ms=(0.2,), logit_range=(-1.5, 1.5), step=0.05)
        assert report.ok
        assert report.excluded_coords > 0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            check_gradients(trials=0)

    def test_report_serializable(self):
        import json
        report = check_gradients(trials=3, tolerance=0.0, seed=1)
        obj = report.to_dict()
        dumped = json.dumps(obj)
        assert json.loads(dumped)["n_failures"] == 3
        assert obj["failures"][0]["trial"] == 0

    def test_includes_empty_positive_sets(self):
        report = check_gradients(trials=60, tolerance=1e-5, seed=12,
                                 empty_positive_rate=1.0)
        assert report.ok
