"""The columnar Dataset against per-pair references kept in this file.

Small generated datasets go through the saver, the loader, the lazily built
``examples``, the masks, the distribution report, false-negative injection
and training, and each result is compared with a per-pair computation.
"""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmm.encoder import TrainConfig, _pack_documents, train
from cmm.loss import LossConfig
from cmm.schema import (DATASET_FORMAT, LabelSet, dataset_to_lines, load_dataset_jsonl,
                        save_dataset_jsonl)
from cmm.synthdata import GenConfig, distribution_report, generate, inject_false_negatives

# n_pairs is a multiple of 4, so both positive rates are realized exactly
SMALL_CONFIGS = st.builds(
    GenConfig,
    n_documents=st.integers(1, 5),
    pairs_per_document=st.sampled_from([8, 12, 20, 40]),
    relation_count=st.integers(1, 6),
    feature_dim=st.integers(6, 9),
    positive_rate=st.sampled_from([0.25, 0.5]),
    hard_fraction=st.floats(0.0, 1.0),
    seen_in_train_rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32),
)
RATES = st.sampled_from([0.0, 0.3, 0.7])
EQUIVALENCE = settings(max_examples=25, deadline=None, derandomize=True)


def generated(cfg: GenConfig, rate: float):
    dataset = generate(cfg)
    return inject_false_negatives(dataset, rate, seed=cfg.seed) if rate else dataset


def pair_line(ex) -> str:
    """The per-pair serializer: one record's line, keys in file order."""
    return json.dumps({
        "pair_id": ex.pair_id,
        "doc_id": ex.doc_id,
        "features": [float(v) for v in ex.features],
        "positives": sorted(ex.labels.positives),
        "true_positives": sorted(ex.true_labels.positives),
        "seen_in_train": sorted(ex.seen_in_train),
        "difficulty": ex.difficulty,
        "corrupted": ex.corrupted,
    }, separators=(",", ":"))


def scalar_injection(dataset, rate: float, seed: int):
    """The per-pair draw loop: one rng.random() per positive fact, pairs in order,
    relations ascending. Returns the records and the demoted count."""
    rng = np.random.default_rng(seed)
    examples, demoted = [], 0
    for ex in dataset.examples:
        demote = frozenset(r for r in sorted(ex.labels.positives) if rng.random() < rate)
        demoted += len(demote)
        if demote:
            ex = replace(ex, labels=LabelSet(ex.labels.relation_count,
                                             ex.labels.positives - demote), corrupted=True)
        examples.append(ex)
    return examples, demoted


def read_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh][1:]


class TestColumnarEquivalence:
    @EQUIVALENCE
    @given(SMALL_CONFIGS, RATES)
    def test_save_equals_per_pair_serializer(self, cfg, rate):
        ds = generated(cfg, rate)
        header = json.dumps({"format": DATASET_FORMAT, "schema": ds.schema.to_dict(),
                             "documents": list(ds.document_ids), "pair_count": len(ds),
                             "manifest": ds.manifest}, separators=(",", ":"))
        assert list(dataset_to_lines(ds)) == [header] + [pair_line(ex) for ex in ds.examples]

    @EQUIVALENCE
    @given(SMALL_CONFIGS, RATES)
    def test_load_then_save_is_byte_identical(self, tmp_path_factory, cfg, rate):
        ds = generated(cfg, rate)
        first = tmp_path_factory.mktemp("rt") / "a.jsonl"
        second = first.with_name("b.jsonl")
        save_dataset_jsonl(ds, str(first))
        loaded = load_dataset_jsonl(str(first))
        save_dataset_jsonl(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()
        for name, column in ds.columns.items():
            assert np.array_equal(loaded.columns[name], column), name
        assert np.array_equal(loaded.doc_index, ds.doc_index)

    @EQUIVALENCE
    @given(SMALL_CONFIGS, RATES)
    def test_examples_equal_the_per_pair_records(self, tmp_path_factory, cfg, rate):
        ds = generated(cfg, rate)
        path = tmp_path_factory.mktemp("ex") / "d.jsonl"
        save_dataset_jsonl(ds, str(path))
        records = read_records(path)
        assert len(ds.examples) == len(records) == len(ds)
        for ex, rec in zip(ds.examples, records):
            assert (ex.pair_id, ex.doc_id, ex.difficulty, ex.corrupted) == (
                rec["pair_id"], rec["doc_id"], rec["difficulty"], rec["corrupted"])
            assert np.array_equal(ex.features, rec["features"])
            assert ex.labels.positives == set(rec["positives"])
            assert ex.true_labels.positives == set(rec["true_positives"])
            assert ex.seen_in_train == set(rec["seen_in_train"])

    @EQUIVALENCE
    @given(SMALL_CONFIGS, RATES)
    def test_masks_and_report_equal_brute_force_recounts(self, cfg, rate):
        ds = generated(cfg, rate)
        r_count = ds.schema.relation_count
        for source in ("labels", "true_labels"):
            gold, seen = getattr(ds, source), ds.seen
            for i, ex in enumerate(ds.examples):
                for r in range(1, r_count + 1):
                    assert gold[i, r - 1] == (r in getattr(ex, source).positives)
                    assert seen[i, r - 1] == (r in ex.seen_in_train)
        report = distribution_report(ds)
        counts = {r: sum(r in ex.labels.positives for ex in ds.examples)
                  for r in range(1, r_count + 1)}
        assert {r: c for r, c, _ in report.shares} == counts
        assert report.n_facts == sum(counts.values())
        assert report.n_positive_pairs == sum(bool(ex.labels.positives) for ex in ds.examples)
        assert report.n_hard == sum(ex.difficulty == "hard" for ex in ds.examples)
        assert report.n_corrupted == sum(ex.corrupted for ex in ds.examples)

    @EQUIVALENCE
    @given(SMALL_CONFIGS, st.floats(0.0, 0.99), st.integers(0, 2 ** 32))
    def test_injection_equals_the_scalar_draw_loop(self, cfg, rate, seed):
        ds = generated(cfg, 0.0)
        out = inject_false_negatives(ds, rate, seed)
        expected, demoted = scalar_injection(ds, rate, seed)
        assert out.manifest["false_negatives"]["demoted_facts"] == demoted
        assert [pair_line(ex) for ex in out.examples] == [pair_line(ex) for ex in expected]


class TestInterleavedDocuments:
    def test_trains_like_its_document_sorted_copy(self, tmp_path):
        """Pairs of interleaved documents, plus a declared document with no pairs,
        group by document in declared order, each keeping its file order."""
        cfg = GenConfig(n_documents=5, pairs_per_document=12, relation_count=4,
                        feature_dim=8, positive_rate=0.25, seed=11)
        ds = inject_false_negatives(generate(cfg), 0.3, seed=2)
        lines = list(dataset_to_lines(ds))
        header = json.loads(lines[0])
        header["documents"].insert(2, "no-pairs")
        head = json.dumps(header, separators=(",", ":"))
        by_doc = [lines[1 + d * 12: 1 + (d + 1) * 12] for d in range(5)]
        interleaved = [doc[i] for i in range(12) for doc in reversed(by_doc)]
        sorted_path, inter_path = tmp_path / "sorted.jsonl", tmp_path / "inter.jsonl"
        sorted_path.write_text("\n".join([head] + lines[1:]) + "\n")
        inter_path.write_text("\n".join([head] + interleaved) + "\n")
        dev = load_dataset_jsonl(str(sorted_path))
        losses = [LossConfig(kind="cmm", gamma=1.0, m=0.2),
                  LossConfig(kind="atl_reference"), LossConfig(kind="plain_margin")]
        cfgs = [TrainConfig(loss=loss, epochs=3, seed=4, accumulate_documents=2,
                            architecture="one_hidden", hidden_dim=5) for loss in losses]
        runs = [train(load_dataset_jsonl(str(path)), dev, cfgs)
                for path in (sorted_path, inter_path)]
        for (params_a, trace_a), (params_b, trace_b) in zip(*runs):
            assert np.array_equal(params_a.flat, params_b.flat)
            assert trace_a == trace_b

    def test_document_ordered_batches_view_the_columns(self, tmp_path):
        ds = generate(GenConfig(n_documents=3, pairs_per_document=8, relation_count=4,
                                feature_dim=6, positive_rate=0.25, seed=5))
        lines = list(dataset_to_lines(ds))
        path = tmp_path / "reversed.jsonl"
        path.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n")
        for data, shared in ((ds, True), (load_dataset_jsonl(str(path)), False)):
            docs = _pack_documents(data, ["cmm", "plain_margin"])
            assert [np.shares_memory(d.features, data.features)
                    and np.shares_memory(d.pos_mask, data.labels) for d in docs] == [shared] * 3
            assert not any(d.features.flags.writeable or d.pos_mask.flags.writeable
                           for d in docs)
