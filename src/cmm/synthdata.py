"""Synthetic long-tail multi-label datasets with a hidden linear teacher.

The generator reproduces the statistics that make document-level relation
corpora hard at desk scale: extreme positive-pair sparsity (about 3.18% of
pairs positive in the `docred-mixed` preset, 7.09% in `re-docred`), a
Zipf-shaped relation frequency profile whose head relation carries >23% of
facts while the tail carries <0.5%, a mix of easy (margin-separated) and
hard (near-boundary) pairs, and optional injection of false-negative label
noise on top of intact ground truth.

Labels are produced by a hidden teacher with orthonormal rows, so the
intended labels are always realizable by a linear model: a pair's score for
relation r is exactly the teacher projection, set to +/-(margin + slack)
for easy pairs and to +/-uniform(0, margin/2) for hard pairs, with the sign
fixed by the assigned label. Relation counts are allocated by quota
(largest-remainder rounding of the Zipf weights), which keeps the realized
calibration exact and deterministic rather than merely expected.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from .errors import GenerationError
from .schema import (Dataset, LabelSet, PairExample, RelationSchema, require_finite,
                     require_int)

# Tuned once at |R|=20: head share ~0.42, tail share ~0.0035, inside the
# calibration bands with slack on both sides.
DEFAULT_ZIPF_EXPONENT = 1.6
# Fraction of positive pairs that carry a second relation.
SECOND_RELATION_RATE = 0.1
# Scale of the feature noise orthogonal to the teacher span.
NOISE_SCALE = 1.0


@dataclass(frozen=True)
class GenConfig:
    n_documents: int
    pairs_per_document: int
    relation_count: int = 20
    feature_dim: int = 64
    positive_rate: float = 0.0318
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    hard_fraction: float = 0.25
    teacher_margin: float = 1.0
    false_negative_rate: float = 0.0
    seen_in_train_rate: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            for name in ("n_documents", "pairs_per_document", "relation_count", "feature_dim",
                         "seed"):
                require_int(name, getattr(self, name), 0)
            for name in ("positive_rate", "zipf_exponent", "hard_fraction", "teacher_margin",
                         "false_negative_rate", "seen_in_train_rate"):
                require_finite(name, getattr(self, name))
        except ValueError as exc:
            raise GenerationError(str(exc)) from None
        if self.n_documents < 1 or self.pairs_per_document < 1:
            raise GenerationError("n_documents and pairs_per_document must be >= 1")
        if self.relation_count < 1:
            raise GenerationError("relation_count must be >= 1")
        if not 0.0 < self.positive_rate < 1.0:
            raise GenerationError(f"positive_rate must be in (0, 1), got {self.positive_rate}")
        if self.zipf_exponent <= 0.0:
            raise GenerationError(f"zipf_exponent must be > 0, got {self.zipf_exponent}")
        if not 0.0 <= self.hard_fraction <= 1.0:
            raise GenerationError(f"hard_fraction must be in [0, 1], got {self.hard_fraction}")
        if self.teacher_margin <= 0.0:
            raise GenerationError(f"teacher_margin must be > 0, got {self.teacher_margin}")
        if not 0.0 <= self.false_negative_rate < 1.0:
            raise GenerationError("false_negative_rate must be in [0, 1)")
        if not 0.0 <= self.seen_in_train_rate <= 1.0:
            raise GenerationError("seen_in_train_rate must be in [0, 1]")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


PRESETS: dict[str, GenConfig] = {
    "docred-mixed": GenConfig(n_documents=300, pairs_per_document=150, positive_rate=0.0318),
    "re-docred": GenConfig(n_documents=300, pairs_per_document=150, positive_rate=0.0709),
}


def preset_config(name: str, **overrides: Any) -> GenConfig:
    try:
        base = PRESETS[name]
    except KeyError:
        raise GenerationError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return replace(base, **overrides) if overrides else base


def zipf_quotas(total: int, relation_count: int, exponent: float) -> np.ndarray:
    """Allocate `total` facts over relation ranks by largest-remainder rounding."""
    ranks = np.arange(1, relation_count + 1, dtype=np.float64)
    weights = ranks ** -exponent
    exact = total * weights / weights.sum()
    quotas = np.floor(exact).astype(np.int64)
    shortfall = total - int(quotas.sum())
    if shortfall > 0:
        remainders = exact - quotas
        # stable tie-break: larger remainder first, then lower rank
        order = np.lexsort((ranks, -remainders))
        quotas[order[:shortfall]] += 1
    return quotas


def _orthonormal_teacher(rng: np.random.Generator, relation_count: int,
                         feature_dim: int) -> np.ndarray:
    if feature_dim < relation_count:
        raise GenerationError(
            f"feature_dim ({feature_dim}) must be >= relation_count ({relation_count}) "
            f"for an orthonormal teacher"
        )
    raw = rng.standard_normal((feature_dim, relation_count))
    q, _ = np.linalg.qr(raw)
    return q.T  # (R, F), orthonormal rows


def _assign_facts(rng: np.random.Generator, cfg: GenConfig,
                  n_pairs: int) -> tuple[np.ndarray, list[frozenset[int]], np.ndarray]:
    """Pick positive slots, their relation sets, and hard slots."""
    n_pos = round(cfg.positive_rate * n_pairs)
    if n_pos == 0 or abs(n_pos / n_pairs - cfg.positive_rate) > 0.1 * cfg.positive_rate:
        raise GenerationError(
            f"positive_rate {cfg.positive_rate} is not realizable within +/-10% over "
            f"{n_pairs} pairs (closest achievable fraction {n_pos / n_pairs:.6f})"
        )
    n_extra = round(SECOND_RELATION_RATE * n_pos)
    quotas = zipf_quotas(n_pos + n_extra, cfg.relation_count, cfg.zipf_exponent)
    facts = np.repeat(np.arange(1, cfg.relation_count + 1), quotas)
    rng.shuffle(facts)
    primary = facts[:n_pos].copy()
    extras = facts[n_pos:].copy()
    for j in range(len(extras)):
        if extras[j] != primary[j]:
            continue
        for k in range(len(extras)):
            if extras[k] != primary[j] and extras[j] != primary[k]:
                extras[j], extras[k] = extras[k], extras[j]
                break
    label_sets = []
    for j in range(n_pos):
        positives = {int(primary[j])}
        if j < len(extras) and int(extras[j]) != int(primary[j]):
            positives.add(int(extras[j]))
        label_sets.append(frozenset(positives))

    pos_slots = rng.permutation(n_pairs)[:n_pos]
    n_hard = round(cfg.hard_fraction * n_pairs)
    hard_mask = np.zeros(n_pairs, dtype=bool)
    hard_mask[rng.permutation(n_pairs)[:n_hard]] = True
    return pos_slots, label_sets, hard_mask


def teacher_matrix(cfg: GenConfig) -> np.ndarray:
    """The hidden teacher rows (R, F) a config generates; for oracle-side checks."""
    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(1)
    return _orthonormal_teacher(np.random.default_rng(streams[0]),
                                cfg.relation_count, cfg.feature_dim)


def generate(cfg: GenConfig) -> Dataset:
    """Generate a dataset deterministically from cfg; labels are uncorrupted.

    False negatives are not injected here even when cfg carries a nonzero
    rate; apply inject_false_negatives (the CLI pipeline does) so that the
    ground-truth view stays available.
    """
    n_pairs = cfg.n_documents * cfg.pairs_per_document
    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(2 + cfg.n_documents)
    teacher = _orthonormal_teacher(np.random.default_rng(streams[0]),
                                   cfg.relation_count, cfg.feature_dim)
    pos_slots, label_sets, hard_mask = _assign_facts(np.random.default_rng(streams[1]),
                                                     cfg, n_pairs)
    positives_by_slot: dict[int, frozenset[int]] = {
        int(slot): label_sets[j] for j, slot in enumerate(pos_slots)
    }

    schema = RelationSchema.with_default_names(cfg.relation_count)
    r_count, ppd = cfg.relation_count, cfg.pairs_per_document
    examples: list[PairExample] = []
    document_ids: list[str] = []
    empty = frozenset()

    for d in range(cfg.n_documents):
        doc_id = f"doc{d:05d}"
        document_ids.append(doc_id)
        rng = np.random.default_rng(streams[2 + d])
        base = d * ppd

        pos_mask = np.zeros((ppd, r_count), dtype=bool)
        doc_positives: list[frozenset[int]] = []
        for i in range(ppd):
            positives = positives_by_slot.get(base + i, empty)
            doc_positives.append(positives)
            for r in positives:
                pos_mask[i, r - 1] = True
        hard = hard_mask[base:base + ppd]

        mag_easy = cfg.teacher_margin + rng.exponential(cfg.teacher_margin, (ppd, r_count))
        mag_hard = rng.uniform(0.0, cfg.teacher_margin / 2.0, (ppd, r_count))
        scores = np.where(pos_mask, 1.0, -1.0) * np.where(hard[:, None], mag_hard, mag_easy)

        noise = NOISE_SCALE * rng.standard_normal((ppd, cfg.feature_dim))
        noise -= (noise @ teacher.T) @ teacher
        features = scores @ teacher + noise

        seen_draws = rng.random((ppd, r_count)) < cfg.seen_in_train_rate

        for i in range(ppd):
            positives = doc_positives[i]
            labels = LabelSet(r_count, positives)
            seen = frozenset(r for r in positives if seen_draws[i, r - 1])
            examples.append(PairExample(
                pair_id=f"{doc_id}:{i:04d}",
                doc_id=doc_id,
                features=features[i],
                labels=labels,
                true_labels=labels,
                seen_in_train=seen,
                difficulty="hard" if hard[i] else "easy",
                corrupted=False,
            ))

    manifest = {"generator": cfg.to_dict()}
    return Dataset(schema=schema, examples=tuple(examples),
                   document_ids=tuple(document_ids), manifest=manifest)


def inject_false_negatives(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Independently demote each positive fact to negative with probability rate.

    Training labels shrink; ground truth and seen-in-train flags are left
    untouched, and affected pairs are flagged corrupted.
    """
    if not 0.0 <= rate < 1.0:
        raise GenerationError(f"false-negative rate must be in [0, 1), got {rate}")
    for ex in dataset.examples:
        if ex.labels.positives != ex.true_labels.positives:
            raise GenerationError(
                f"dataset already corrupted (pair {ex.pair_id}); injection expects "
                f"labels == true_labels"
            )
    rng = np.random.default_rng(seed)
    new_examples = []
    demoted_facts = 0
    for ex in dataset.examples:
        demote = frozenset(r for r in sorted(ex.labels.positives) if rng.random() < rate)
        if not demote:
            new_examples.append(ex)
            continue
        demoted_facts += len(demote)
        new_examples.append(replace(
            ex,
            labels=LabelSet(ex.labels.relation_count, ex.labels.positives - demote),
            corrupted=True,
        ))
    manifest = dict(dataset.manifest)
    manifest["false_negatives"] = {"rate": rate, "seed": seed, "demoted_facts": demoted_facts}
    return Dataset(schema=dataset.schema, examples=tuple(new_examples),
                   document_ids=dataset.document_ids, manifest=manifest)


@dataclass(frozen=True)
class DistributionReport:
    n_pairs: int
    n_positive_pairs: int
    positive_pair_fraction: float
    n_facts: int
    shares: tuple[tuple[int, int, float], ...]   # (relation, count, share), descending
    head_share: float
    tail_share: float
    n_easy: int
    n_hard: int
    n_corrupted: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_pairs": self.n_pairs,
            "n_positive_pairs": self.n_positive_pairs,
            "positive_pair_fraction": self.positive_pair_fraction,
            "n_facts": self.n_facts,
            "shares": [{"relation": r, "count": c, "share": s} for r, c, s in self.shares],
            "head_share": self.head_share,
            "tail_share": self.tail_share,
            "n_easy": self.n_easy,
            "n_hard": self.n_hard,
            "n_corrupted": self.n_corrupted,
        }


def distribution_report(dataset: Dataset) -> DistributionReport:
    """Label statistics of the training view; recomputable by brute-force scan."""
    r_count = dataset.schema.relation_count
    counts = {r: 0 for r in range(1, r_count + 1)}
    n_positive_pairs = 0
    n_hard = 0
    n_corrupted = 0
    for ex in dataset.examples:
        if ex.labels.positives:
            n_positive_pairs += 1
        for r in ex.labels.positives:
            counts[r] += 1
        if ex.difficulty == "hard":
            n_hard += 1
        if ex.corrupted:
            n_corrupted += 1
    n_pairs = len(dataset.examples)
    n_facts = sum(counts.values())
    shares = tuple(sorted(
        ((r, c, c / n_facts if n_facts else 0.0) for r, c in counts.items()),
        key=lambda item: (-item[1], item[0]),
    ))
    return DistributionReport(
        n_pairs=n_pairs,
        n_positive_pairs=n_positive_pairs,
        positive_pair_fraction=n_positive_pairs / n_pairs if n_pairs else 0.0,
        n_facts=n_facts,
        shares=shares,
        head_share=shares[0][2] if shares else 0.0,
        tail_share=shares[-1][2] if shares else 0.0,
        n_easy=n_pairs - n_hard,
        n_hard=n_hard,
        n_corrupted=n_corrupted,
    )
