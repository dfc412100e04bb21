"""Concentrated margin maximization for adaptive-threshold multi-label classification.

A logit row of length R+1 carries a learned threshold (TH) logit at index 0
and one logit per relation at indices 1..R; relations whose logits exceed
the TH logit are decoded positive. The package provides the concentrated
margin loss with verified analytic gradients, plain-margin and
adaptive-threshold-softmax comparison arms, a finite-difference gradient
checker, a small trainable encoder with from-scratch AdamW, a calibrated
long-tail synthetic data generator, micro/Ign-F1 evaluation, and a
JSON-config CLI (see cmm.cli).
"""

from .errors import CmmError, ConfigError, GenerationError, NumericError, SchemaError
from .loss import (
    GAMMA_GRID,
    M_GRID,
    DistanceSet,
    LossConfig,
    atl_reference_grad,
    atl_reference_loss,
    clamp_distance,
    cmm_loss,
    cmm_loss_grad,
    cmm_rescale,
    get_loss,
    margin_distances,
    plain_margin_grad,
    plain_margin_loss,
    register_loss,
)
from .schema import (
    Dataset,
    LabelSet,
    LogitRow,
    PairExample,
    RelationSchema,
    load_dataset_jsonl,
    save_dataset_jsonl,
    split_by_documents,
)

__all__ = [
    "CmmError", "ConfigError", "GenerationError", "NumericError", "SchemaError",
    "GAMMA_GRID", "M_GRID", "DistanceSet", "LossConfig",
    "atl_reference_grad", "atl_reference_loss", "clamp_distance",
    "cmm_loss", "cmm_loss_grad", "cmm_rescale", "get_loss",
    "margin_distances", "plain_margin_grad", "plain_margin_loss", "register_loss",
    "Dataset", "LabelSet", "LogitRow", "PairExample", "RelationSchema",
    "load_dataset_jsonl", "save_dataset_jsonl", "split_by_documents",
]

__version__ = "0.1.0"
