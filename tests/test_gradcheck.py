import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmm.gradcheck
from cmm.errors import NumericError
from cmm.gradcheck import check_gradients, finite_difference, relative_error
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


def per_coordinate_report(trials, tolerance, seed, gammas=(1.0, 1.2, 1.4, 1.6, 2.0),
                          ms=(0.1, 0.2, 0.3, 0.4), logit_range=(-8.0, 8.0),
                          relation_counts=(2, 3, 4, 6, 8, 10), step=1e-5):
    """check_gradients(...).to_dict() as computed one coordinate and one negative at a time."""
    max_err, excluded, failures = 0.0, 0, []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        r_count = int(relation_counts[rng.integers(len(relation_counts))])
        values = rng.uniform(*logit_range, size=r_count + 1)
        if rng.random() < 0.2:
            positives = frozenset()
        else:
            positives = frozenset(r for r in range(1, r_count + 1) if rng.random() < 0.35)
        labels = LabelSet(r_count, positives)
        cfg = cfg_cmm(gamma=float(gammas[rng.integers(len(gammas))]),
                      m=float(ms[rng.integers(len(ms))]))
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


class TestAgainstPerCoordinateOracle:
    @pytest.mark.parametrize("kwargs", [
        {"trials": 300, "tolerance": 1e-5, "seed": 2024},
        {"trials": 300, "tolerance": 1e-5, "seed": 20240},
        {"trials": 300, "tolerance": 10.0, "seed": 5, "ms": (0.2,),
         "logit_range": (-1.5, 1.5), "step": 0.05},
        {"trials": 200, "tolerance": 0.0, "seed": 2024},
    ], ids=["seed_2024", "seed_20240", "widened_band", "tolerance_0"])
    def test_report_equals_per_coordinate_algorithm(self, kwargs):
        expected = per_coordinate_report(**kwargs)
        assert check_gradients(**kwargs).to_dict() == expected
        if kwargs["tolerance"] == 0.0:
            assert expected["n_failures"] > 0
        if "step" in kwargs:
            assert expected["excluded_coords"] > 0

    def test_one_value_call_per_trial(self, monkeypatch):
        shapes = []
        original = cmm.gradcheck.batch_rows

        def counted(kind, probes, *args, **kwargs):
            shapes.append(probes.shape)
            return original(kind, probes, *args, **kwargs)

        monkeypatch.setattr(cmm.gradcheck, "batch_rows", counted)
        report = check_gradients(trials=40, seed=3)
        assert report.ok
        assert len(shapes) == 40
        assert all(k == 2 * n for k, n in shapes)


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
