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

Generation writes each document's block into dataset columns allocated
once; injection and the distribution report work on the label masks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from .errors import GenerationError
from .schema import Dataset, RelationSchema, require_finite, require_int

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
                  n_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The boolean (n_pairs, R) positive mask and the (n_pairs,) hard flags."""
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

    pos_slots = rng.permutation(n_pairs)[:n_pos]
    positives = np.zeros((n_pairs, cfg.relation_count), dtype=bool)
    positives[pos_slots, primary - 1] = True
    # an extra equal to its slot's primary relation adds nothing
    positives[pos_slots[:len(extras)], extras - 1] = True
    n_hard = round(cfg.hard_fraction * n_pairs)
    hard_mask = np.zeros(n_pairs, dtype=bool)
    hard_mask[rng.permutation(n_pairs)[:n_hard]] = True
    return positives, hard_mask


def teacher_matrix(cfg: GenConfig) -> np.ndarray:
    """The hidden teacher rows (R, F) a config generates, drawn from the first
    child of the seed's SeedSequence, as ``generate`` draws them."""
    stream = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    return _orthonormal_teacher(np.random.default_rng(stream), cfg.relation_count,
                                cfg.feature_dim)


def generate(cfg: GenConfig) -> Dataset:
    """Generate a dataset deterministically from cfg; labels are uncorrupted.

    False negatives are not injected here even when cfg carries a nonzero
    rate; apply inject_false_negatives (the CLI pipeline does) so that the
    ground-truth view stays available.
    """
    n_pairs = cfg.n_documents * cfg.pairs_per_document
    r_count, ppd = cfg.relation_count, cfg.pairs_per_document
    try:    # first, so that sizes numpy refuses fail before any work
        features = np.empty((n_pairs, cfg.feature_dim))
        seen = np.empty((n_pairs, r_count), dtype=bool)
    except (ValueError, MemoryError) as exc:
        raise GenerationError(f"cannot hold {n_pairs} pairs of {cfg.feature_dim} features "
                              f"({type(exc).__name__}: {exc})") from None
    streams = np.random.SeedSequence(cfg.seed).spawn(2 + cfg.n_documents)
    teacher = teacher_matrix(cfg)     # drawn from streams[0]
    positives, hard_mask = _assign_facts(np.random.default_rng(streams[1]), cfg, n_pairs)

    for d in range(cfg.n_documents):
        rng = np.random.default_rng(streams[2 + d])
        block = slice(d * ppd, (d + 1) * ppd)
        pos_mask, hard = positives[block], hard_mask[block]

        mag_easy = cfg.teacher_margin + rng.exponential(cfg.teacher_margin, (ppd, r_count))
        mag_hard = rng.uniform(0.0, cfg.teacher_margin / 2.0, (ppd, r_count))
        scores = np.where(pos_mask, 1.0, -1.0) * np.where(hard[:, None], mag_hard, mag_easy)

        noise = NOISE_SCALE * rng.standard_normal((ppd, cfg.feature_dim))
        noise -= (noise @ teacher.T) @ teacher
        features[block] = scores @ teacher + noise

        seen[block] = pos_mask & (rng.random((ppd, r_count)) < cfg.seen_in_train_rate)

    document_ids = [f"doc{d:05d}" for d in range(cfg.n_documents)]
    return Dataset(
        RelationSchema.with_default_names(r_count), document_ids, {"generator": cfg.to_dict()},
        pair_ids=[f"{doc_id}:{i:04d}" for doc_id in document_ids for i in range(ppd)],
        doc_ids=np.repeat(np.array(document_ids, dtype=object), ppd),
        features=features, labels=positives, true_labels=positives, seen=seen,
        hard=hard_mask, corrupted=np.zeros(n_pairs, dtype=bool))


def inject_false_negatives(dataset: Dataset, rate: float, seed: int) -> Dataset:
    """Independently demote each positive fact to negative with probability rate.

    Training labels shrink; ground truth and seen-in-train flags are left
    untouched, and affected pairs are flagged corrupted. The facts draw in
    (pair, relation) order, one uniform each from one stream.
    """
    if not 0.0 <= rate < 1.0:
        raise GenerationError(f"false-negative rate must be in [0, 1), got {rate}")
    differs = (dataset.labels != dataset.true_labels).any(axis=1)
    if differs.any():
        raise GenerationError(
            f"dataset already corrupted (pair {dataset.pair_ids[int(np.argmax(differs))]}); "
            f"injection expects labels == true_labels"
        )
    rows, cols = divmod(np.flatnonzero(dataset.labels), dataset.labels.shape[1])
    demote = np.random.default_rng(seed).random(rows.size) < rate
    labels = dataset.labels.copy()
    labels[rows[demote], cols[demote]] = False
    corrupted = dataset.corrupted.copy()
    corrupted[rows[demote]] = True
    manifest = dict(dataset.manifest)
    manifest["false_negatives"] = {"rate": rate, "seed": seed,
                                   "demoted_facts": int(np.count_nonzero(demote))}
    return Dataset(dataset.schema, dataset.document_ids, manifest,
                   **{**dataset.columns, "labels": labels, "corrupted": corrupted})


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
        return {**asdict(self), "shares": [{"relation": r, "count": c, "share": s}
                                           for r, c, s in self.shares]}


def distribution_report(dataset: Dataset) -> DistributionReport:
    """Label statistics of the training view, as column sums of its masks."""
    counts = dataset.labels.sum(axis=0).tolist()
    n_pairs = len(dataset)
    n_positive_pairs = int(np.count_nonzero(dataset.labels.any(axis=1)))
    n_hard = int(np.count_nonzero(dataset.hard))
    n_facts = sum(counts)
    shares = tuple(sorted(
        ((r, c, c / n_facts if n_facts else 0.0) for r, c in enumerate(counts, start=1)),
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
        n_corrupted=int(np.count_nonzero(dataset.corrupted)),
    )
