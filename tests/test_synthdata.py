import os
from collections import Counter

import numpy as np
import pytest

from cmm.errors import GenerationError
from cmm.schema import SIDECAR_SUFFIX, load_dataset_jsonl, save_dataset_jsonl
from cmm.synthdata import (
    GenConfig,
    PRESETS,
    distribution_report,
    generate,
    inject_false_negatives,
    preset_config,
    teacher_matrix,
    zipf_quotas,
)


def small_config(**overrides):
    base = dict(n_documents=40, pairs_per_document=80, relation_count=12, feature_dim=24,
                positive_rate=0.05, hard_fraction=0.3, teacher_margin=1.0, seed=7)
    base.update(overrides)
    return GenConfig(**base)


def saved_bytes(dataset, path):
    """The bytes of the file that ``save_dataset_jsonl`` writes for dataset at path."""
    save_dataset_jsonl(dataset, str(path))
    return path.read_bytes()


def assert_round_trips(dataset, tmp_path):
    """Saving and loading passes the loader's checks and saves the same bytes again,
    loaded from the column sidecar and again by parsing, with the sidecar deleted."""
    path = tmp_path / "round_trip.jsonl"
    saved = saved_bytes(dataset, path)
    assert saved_bytes(load_dataset_jsonl(str(path)), tmp_path / "again.jsonl") == saved
    os.unlink(f"{path}{SIDECAR_SUFFIX}")
    assert saved_bytes(load_dataset_jsonl(str(path)), tmp_path / "again.jsonl") == saved


def brute_force_report(dataset):
    """Independent rescan used as the oracle for distribution_report."""
    counts = [0] * (dataset.schema.relation_count + 1)
    pos_pairs = 0
    hard = 0
    corrupted = 0
    for ex in dataset.examples:
        got_any = False
        for r in range(1, dataset.schema.relation_count + 1):
            if r in ex.labels.positives:
                counts[r] += 1
                got_any = True
        pos_pairs += int(got_any)
        hard += int(ex.difficulty == "hard")
        corrupted += int(ex.corrupted)
    total = sum(counts)
    return {
        "n_pairs": len(dataset.examples),
        "n_positive_pairs": pos_pairs,
        "n_facts": total,
        "counts": {r: counts[r] for r in range(1, dataset.schema.relation_count + 1)},
        "n_hard": hard,
        "n_corrupted": corrupted,
    }


class TestZipfQuotas:
    def test_sums_to_total(self):
        for total in (0, 1, 17, 1000):
            quotas = zipf_quotas(total, 20, 1.6)
            assert quotas.sum() == total

    def test_monotone_nonincreasing(self):
        quotas = zipf_quotas(5000, 20, 1.6)
        assert all(quotas[i] >= quotas[i + 1] for i in range(19))

    def test_default_exponent_band_at_r20(self):
        quotas = zipf_quotas(1500, 20, 1.6)
        shares = quotas / quotas.sum()
        assert shares[0] > 0.23
        assert shares[-1] < 0.005


class TestGenerate:
    def test_deterministic_byte_identical(self, tmp_path):
        cfg = small_config()
        assert saved_bytes(generate(cfg), tmp_path / "a.jsonl") == saved_bytes(
            generate(cfg), tmp_path / "b.jsonl")

    def test_seed_changes_output(self, tmp_path):
        assert saved_bytes(generate(small_config(seed=1)), tmp_path / "a.jsonl") != saved_bytes(
            generate(small_config(seed=2)), tmp_path / "b.jsonl")

    def test_valid_and_uncorrupted(self, tmp_path):
        ds = generate(small_config())
        assert_round_trips(ds, tmp_path)
        assert np.array_equal(ds.labels, ds.true_labels) and not ds.corrupted.any()
        assert all(ex.labels.positives == ex.true_labels.positives for ex in ds.examples)
        assert all(not ex.corrupted for ex in ds.examples)

    def test_positive_fraction_within_band(self):
        cfg = small_config()
        report = distribution_report(generate(cfg))
        rel = abs(report.positive_pair_fraction - cfg.positive_rate) / cfg.positive_rate
        assert rel <= 0.1

    def test_document_structure(self):
        cfg = small_config(n_documents=5, pairs_per_document=11)
        ds = generate(cfg)
        assert len(ds.document_ids) == 5
        assert Counter(ds.doc_ids) == dict.fromkeys(ds.document_ids, 11)
        assert np.array_equal(ds.doc_index, np.repeat(np.arange(5), 11))

    def test_manifest_regenerates_identically(self, tmp_path):
        ds = generate(small_config())
        cfg = GenConfig(**ds.manifest["generator"])
        again = generate(cfg)
        assert saved_bytes(ds, tmp_path / "a.jsonl") == saved_bytes(again, tmp_path / "b.jsonl")

    def test_easy_positive_scores_clear_margin(self):
        cfg = small_config(hard_fraction=0.0)
        ds = generate(cfg)
        teacher = teacher_matrix(cfg)
        for ex in ds.examples:
            scores = teacher @ ex.features
            for r in ex.labels.positives:
                assert scores[r - 1] >= cfg.teacher_margin - 1e-9
            for r in ex.labels.negatives:
                assert scores[r - 1] <= -cfg.teacher_margin + 1e-9

    def test_hard_pairs_inside_half_margin_with_sign_labels(self):
        cfg = small_config(hard_fraction=1.0)
        ds = generate(cfg)
        teacher = teacher_matrix(cfg)
        for ex in ds.examples[:200]:
            assert ex.difficulty == "hard"
            scores = teacher @ ex.features
            assert np.all(np.abs(scores) <= cfg.teacher_margin / 2 + 1e-9)
            decoded = frozenset(int(r + 1) for r in np.nonzero(scores > 0)[0])
            assert decoded == ex.labels.positives

    def test_difficulty_mix_matches_fraction(self):
        cfg = small_config(hard_fraction=0.25)
        report = distribution_report(generate(cfg))
        assert report.n_hard == round(0.25 * report.n_pairs)

    def test_seen_flags_subset_of_positives(self):
        ds = generate(small_config(seen_in_train_rate=0.5))
        assert any(ex.seen_in_train for ex in ds.examples)
        for ex in ds.examples:
            assert ex.seen_in_train <= ex.true_labels.positives

    def test_seen_rate_extremes(self):
        none = generate(small_config(seen_in_train_rate=0.0))
        assert all(not ex.seen_in_train for ex in none.examples)
        full = generate(small_config(seen_in_train_rate=1.0))
        for ex in full.examples:
            assert ex.seen_in_train == ex.true_labels.positives

    def test_unreachable_rate_raises(self):
        cfg = small_config(n_documents=1, pairs_per_document=10, positive_rate=0.001)
        with pytest.raises(GenerationError, match="positive_rate"):
            generate(cfg)

    def test_feature_dim_below_relations_raises(self):
        cfg = small_config(feature_dim=6, relation_count=12)
        with pytest.raises(GenerationError, match="feature_dim"):
            generate(cfg)


class TestPresets:
    def test_preset_rates(self):
        assert PRESETS["docred-mixed"].positive_rate == 0.0318
        assert PRESETS["re-docred"].positive_rate == 0.0709

    def test_preset_overrides(self):
        cfg = preset_config("docred-mixed", n_documents=10, seed=5)
        assert cfg.n_documents == 10
        assert cfg.seed == 5
        assert cfg.positive_rate == 0.0318

    def test_unknown_preset(self):
        with pytest.raises(GenerationError):
            preset_config("imagenet")


class TestInjectFalseNegatives:
    def test_rate_zero_is_identity(self):
        ds = generate(small_config())
        out = inject_false_negatives(ds, 0.0, seed=3)
        assert [ex.labels.positives for ex in out.examples] == \
               [ex.labels.positives for ex in ds.examples]
        assert all(not ex.corrupted for ex in out.examples)

    def test_high_rate_demotes_almost_everything(self):
        ds = generate(small_config())
        out = inject_false_negatives(ds, 0.999, seed=3)
        remaining = sum(len(ex.labels.positives) for ex in out.examples)
        original = sum(len(ex.true_labels.positives) for ex in out.examples)
        assert remaining < 0.05 * original
        assert original == sum(len(ex.true_labels.positives) for ex in ds.examples)

    def test_demotion_count_concentrates(self):
        # ~10k positive facts at rate 0.3: binomial concentration keeps the
        # demoted count well inside [2800, 3200] per 10k
        cfg = GenConfig(n_documents=203, pairs_per_document=150, relation_count=6,
                        feature_dim=12, positive_rate=0.3, seed=1)
        ds = generate(cfg)
        total_facts = sum(len(ex.labels.positives) for ex in ds.examples)
        out = inject_false_negatives(ds, 0.3, seed=9)
        demoted = sum(len(ex.true_labels.positives) - len(ex.labels.positives)
                      for ex in out.examples)
        assert out.manifest["false_negatives"]["demoted_facts"] == demoted
        assert 0.28 * total_facts <= demoted <= 0.32 * total_facts

    def test_only_shrinks_labels_never_true_labels(self, tmp_path):
        ds = generate(small_config())
        out = inject_false_negatives(ds, 0.5, seed=2)
        for before, after in zip(ds.examples, out.examples):
            assert after.labels.positives <= before.labels.positives
            assert after.true_labels.positives == before.true_labels.positives
            assert after.corrupted == (after.labels.positives < after.true_labels.positives)
        assert_round_trips(out, tmp_path)

    def test_deterministic(self, tmp_path):
        ds = generate(small_config())
        a = inject_false_negatives(ds, 0.4, seed=5)
        b = inject_false_negatives(ds, 0.4, seed=5)
        assert saved_bytes(a, tmp_path / "a.jsonl") == saved_bytes(b, tmp_path / "b.jsonl")

    def test_rejects_rate_one(self):
        ds = generate(small_config())
        with pytest.raises(GenerationError):
            inject_false_negatives(ds, 1.0, seed=0)

    def test_rejects_already_corrupted(self):
        ds = inject_false_negatives(generate(small_config()), 0.5, seed=0)
        with pytest.raises(GenerationError, match="already corrupted"):
            inject_false_negatives(ds, 0.1, seed=1)


class TestDistributionReport:
    def test_matches_brute_force_rescan(self):
        ds = inject_false_negatives(generate(small_config()), 0.3, seed=4)
        report = distribution_report(ds)
        oracle = brute_force_report(ds)
        assert report.n_pairs == oracle["n_pairs"]
        assert report.n_positive_pairs == oracle["n_positive_pairs"]
        assert report.n_facts == oracle["n_facts"]
        assert report.n_hard == oracle["n_hard"]
        assert report.n_corrupted == oracle["n_corrupted"]
        got_counts = {r: c for r, c, _ in report.shares}
        assert got_counts == oracle["counts"]
        assert report.head_share == max(oracle["counts"].values()) / oracle["n_facts"]
        assert report.tail_share == min(oracle["counts"].values()) / oracle["n_facts"]

    def test_shares_sorted_descending(self):
        report = distribution_report(generate(small_config()))
        counts = [c for _, c, _ in report.shares]
        assert counts == sorted(counts, reverse=True)

    def test_degenerate_no_positives(self):
        ds = inject_false_negatives(generate(small_config()), 0.999999, seed=0)
        # force a fully empty view by rebuilding with everything demoted
        from cmm.schema import Dataset
        ds_empty = Dataset(ds.schema, ds.document_ids, dict(ds.manifest),
                           **{**ds.columns, "labels": np.zeros_like(ds.labels),
                              "corrupted": ds.true_labels.any(axis=1)})
        report = distribution_report(ds_empty)
        assert report.positive_pair_fraction == 0.0
        assert report.n_facts == 0
        assert all(share == 0.0 for _, _, share in report.shares)
        assert report.head_share == 0.0 and report.tail_share == 0.0

    def test_report_serializable(self):
        import json
        report = distribution_report(generate(small_config()))
        assert json.loads(json.dumps(report.to_dict()))["n_pairs"] == report.n_pairs
