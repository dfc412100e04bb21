import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmm.cli import _cfg_as_dict
from cmm.encoder import (
    EncoderParams,
    TrainConfig,
    _Arms,
    _packed,
    _views,
    adamw_step,
    encode_batch,
    init_adamw_state,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
    train,
)
from cmm.errors import NumericError, SchemaError
from cmm.loss import LossConfig
from cmm.schema import Dataset, LabelSet, RelationSchema


def linear_params(w, b):
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return EncoderParams(architecture="linear", feature_dim=w.shape[1],
                         relation_count=w.shape[0] - 1, hidden_dim=0,
                         tensors={"W": w, "b": b})


def train_config(kind="cmm", **kwargs):
    loss = LossConfig(kind=kind, gamma=kwargs.pop("gamma", 1.0), m=kwargs.pop("m", 0.2))
    return TrainConfig(loss=loss, epochs=kwargs.pop("epochs", 1), **kwargs)


def toy_dataset(seed=0, n_docs=20, pairs_per_doc=10, relation_count=2, feature_dim=6,
                margin=2.0):
    """Linearly separable set: labels follow the sign of fixed teacher rows."""
    rng = np.random.default_rng(seed)
    teacher = rng.standard_normal((relation_count, feature_dim))
    teacher /= np.linalg.norm(teacher, axis=1, keepdims=True)
    features, labels = [], []
    for _ in range(n_docs * pairs_per_doc):
        scores = rng.uniform(0.5, 2.0, relation_count) * margin
        signs = np.where(rng.random(relation_count) < 0.3, 1.0, -1.0)
        features.append((signs * scores) @ teacher + 0.05 * rng.standard_normal(feature_dim))
        labels.append(signs > 0)
    doc_ids = [f"d{d:03d}" for d in range(n_docs)]
    labels = np.array(labels, dtype=bool).reshape(-1, relation_count)
    return Dataset(RelationSchema.with_default_names(relation_count), doc_ids,
                   pair_ids=[f"{doc_id}:{i}" for doc_id in doc_ids for i in range(pairs_per_doc)],
                   doc_ids=np.repeat(doc_ids, pairs_per_doc).astype(object),
                   features=np.array(features).reshape(-1, feature_dim), labels=labels,
                   true_labels=labels, seen=np.zeros_like(labels),
                   hard=np.zeros(len(labels), bool), corrupted=np.zeros(len(labels), bool))


def one_row(params, x):
    """encode_batch on the one-row batch of feature vector x."""
    return encode_batch(params, np.asarray(x, dtype=np.float64)[None, :])[0]


class TestEncode:
    def test_zero_weights_return_bias(self):
        params = linear_params(np.zeros((3, 4)), [0.5, 0.25, -0.75])
        assert np.array_equal(one_row(params, np.ones(4)), [0.5, 0.25, -0.75])

    def test_identity_map(self):
        params = linear_params(np.eye(3), np.zeros(3))
        assert np.array_equal(one_row(params, [1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_matches_explicit_dot_products(self):
        rng = np.random.default_rng(7)
        params = init_encoder("linear", feature_dim=9, relation_count=4, seed=3)
        x = rng.standard_normal(9)
        row = one_row(params, x)
        for i in range(5):
            expected = sum(params.tensors["W"][i, j] * x[j] for j in range(9))
            expected += params.tensors["b"][i]
            assert row[i] == pytest.approx(expected, abs=1e-12)

    def test_one_hidden_matches_manual_forward(self):
        params = init_encoder("one_hidden", feature_dim=5, relation_count=3,
                              hidden_dim=4, seed=1)
        x = np.random.default_rng(2).standard_normal(5)
        h = np.tanh(params.tensors["W1"] @ x + params.tensors["b1"])
        expected = params.tensors["W2"] @ h + params.tensors["b2"]
        assert np.allclose(one_row(params, x), expected, atol=1e-12)

    def test_output_dim_always_relations_plus_one(self):
        for arch in ("linear", "one_hidden"):
            params = init_encoder(arch, feature_dim=6, relation_count=5, seed=0)
            assert encode_batch(params, np.zeros((1, 6))).shape == (1, 6)

    def test_dimension_mismatch(self):
        params = init_encoder("linear", feature_dim=4, relation_count=2, seed=0)
        for features in (np.zeros((1, 5)), np.zeros(4), np.zeros((1, 1, 4))):
            with pytest.raises(SchemaError):
                encode_batch(params, features)

    def test_batch_matches_single(self):
        params = init_encoder("one_hidden", feature_dim=5, relation_count=3, seed=5)
        x = np.random.default_rng(4).standard_normal((7, 5))
        batch = encode_batch(params, x)
        for i in range(7):
            assert np.allclose(batch[i], one_row(params, x[i]), atol=1e-12)


def step_grads(params, x, pos_mask, losses):
    """The arms of one stacked step from ``params`` and copies of their gradients
    on the batch (x, pos_mask); cmm arms come first, as ``train`` orders them."""
    arms = _Arms(params, losses)
    arms.step_grads(_packed(x, pos_mask, arms.kinds))
    return arms, {name: g.copy() for name, g in arms.grads.items()}


class TestBackward:
    """The trainer's backward pass, ``_Arms.step_grads``, on a stack of arms."""

    def test_all_clamped_negatives_zero_gradients(self):
        params = linear_params(np.zeros((3, 4)), [5.0, -5.0, -5.0])
        # no positives, and every d_neg = 10 >> clamp
        _, grads = step_grads(params, np.ones((1, 4)), np.zeros((1, 2), bool),
                              [LossConfig(kind="cmm", m=0.2)])
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_linear_chain_rule_outer_product(self):
        from cmm.loss import cmm_loss_grad
        params = init_encoder("linear", feature_dim=6, relation_count=3, seed=8)
        x = np.random.default_rng(9).standard_normal(6)
        cfg = LossConfig(kind="cmm", gamma=1.4, m=0.3)
        _, grads = step_grads(params, x[None, :], np.array([[False, True, False]]), [cfg])
        g_row = cmm_loss_grad(one_row(params, x), LabelSet(3, frozenset({2})), cfg)
        assert np.allclose(grads["W"][0], np.outer(g_row, x), atol=1e-12)
        assert np.allclose(grads["b"][0], g_row, atol=1e-12)

    @pytest.mark.parametrize("arch,kind", [
        ("linear", "cmm"), ("one_hidden", "cmm"),
        ("linear", "plain_margin"), ("one_hidden", "atl_reference"),
    ])
    def test_matches_parameter_space_finite_differences(self, arch, kind):
        """Every arm's gradient against a central difference of its summed batch
        loss; the stack holds two cmm arms, plain_margin and atl_reference, plus
        a global_mean arm of ``kind``, whose loss is the batch mean."""
        rng = np.random.default_rng(13)
        params = init_encoder(arch, feature_dim=5, relation_count=3, hidden_dim=4, seed=13)
        x = rng.standard_normal((6, 5))
        pos_mask = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0], [1, 1, 1], [0, 0, 1], [0, 0, 0]],
                            dtype=bool)
        losses = sorted([LossConfig(kind="cmm", gamma=1.2, m=0.2),
                         LossConfig(kind="cmm", gamma=2.0, m=0.4),
                         LossConfig(kind="plain_margin"), LossConfig(kind="atl_reference"),
                         LossConfig(kind=kind, gamma=1.4, m=0.3, aggregation="global_mean")],
                        key=lambda loss: loss.kind != "cmm")
        arms, _ = step_grads(params, x, pos_mask, losses)
        analytic = arms.g.copy()
        doc = _packed(x, pos_mask, arms.kinds)
        scale = np.array([1.0 / len(x) if loss.aggregation == "global_mean" else 1.0
                          for loss in losses])
        h = 1e-6
        for j in range(arms.p.shape[1]):    # coordinate j of every arm at once
            saved = arms.p[:, j].copy()
            arms.p[:, j] = saved + h
            up = arms.step_grads(doc)
            arms.p[:, j] = saved - h
            down = arms.step_grads(doc)
            arms.p[:, j] = saved
            numeric = (up - down) / (2 * h) * scale
            denom = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic[:, j])))
            assert np.all(np.abs(analytic[:, j] - numeric) / denom < 1e-4), j


class TestPackedDocuments:
    def test_label_arrays_built_read_only_for_present_kinds(self):
        x, mask = np.ones((3, 2)), np.array([[1, 0], [0, 0], [1, 1]], dtype=bool)
        assert _packed(x, mask, ["cmm", "cmm"]).labels == {}
        doc = _packed(x, mask, ["cmm", "plain_margin", "atl_reference"])
        assert set(doc.labels) == {"plain_margin", "atl_reference"}
        cached = [a for arrays in doc.labels.values() for a in arrays] + list(doc.stacked_pos)
        assert all(not a.flags.writeable for a in cached)
        (plain_grad,) = doc.labels["plain_margin"]
        with pytest.raises(ValueError, match="read-only"):
            plain_grad /= len(x)      # a global_mean division on the cache, not on a copy
        assert x.flags.writeable and mask.flags.writeable   # the caller's arrays stay as given

    def test_global_mean_step_leaves_cache_intact(self):
        params = init_encoder("linear", feature_dim=2, relation_count=2, seed=3)
        x, mask = np.ones((3, 2)), np.array([[1, 0], [0, 0], [1, 1]], dtype=bool)
        arms = _Arms(params, [LossConfig(kind="plain_margin", aggregation="global_mean")])
        doc = _packed(x, mask, arms.kinds)
        before = doc.labels["plain_margin"][0].copy()
        arms.step_grads(doc, need_loss=False)
        arms.step_grads(doc, need_loss=False)
        assert np.array_equal(doc.labels["plain_margin"][0], before)


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        params = init_encoder("linear", feature_dim=3, relation_count=2, seed=0)
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        cfg = train_config(weight_decay=0.0)
        params, state = adamw_step(params, grads, cfg, init_adamw_state(params))
        for name in params.tensors:
            assert np.array_equal(params.tensors[name], before[name])
        assert state.step == 1

    def test_zero_grad_decay_only_update(self):
        params = init_encoder("linear", feature_dim=3, relation_count=2, seed=1)
        params.tensors["b"][:] = 0.5
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        cfg = train_config(weight_decay=0.01, learning_rate=0.1)
        params, _ = adamw_step(params, grads, cfg, init_adamw_state(params))
        # weights shrink by exactly (1 - lr*wd); biases are not decayed
        assert np.array_equal(params.tensors["W"], before["W"] * (1.0 - 0.001))
        assert np.array_equal(params.tensors["b"], before["b"])

    def test_unit_gradient_first_step(self):
        params = linear_params(np.zeros((3, 2)), np.zeros(3))
        grads = {"W": np.ones((3, 2)), "b": np.ones(3)}
        cfg = train_config(learning_rate=1e-3)
        params, _ = adamw_step(params, grads, cfg, init_adamw_state(params))
        # bias-corrected m/sqrt(v) is exactly 1 at step one, so each
        # parameter moves by -lr/(1+eps)
        expected = -1e-3 / (1.0 + 1e-8)
        assert np.allclose(params.tensors["W"], expected, atol=1e-15)
        assert np.allclose(params.tensors["b"], expected, atol=1e-15)

    def test_non_finite_gradient_rejected(self):
        params = init_encoder("linear", feature_dim=2, relation_count=1, seed=0)
        grads = {"W": np.full((2, 2), np.nan), "b": np.zeros(2)}
        with pytest.raises(NumericError):
            adamw_step(params, grads, train_config(), init_adamw_state(params))

    def test_step_counter_and_bias_correction(self):
        params = linear_params(np.zeros((2, 2)), np.zeros(2))
        cfg = train_config(learning_rate=0.01, weight_decay=0.0)
        state = init_adamw_state(params)
        for expected_step in (1, 2, 3):
            grads = {"W": np.ones((2, 2)), "b": np.ones(2)}
            params, state = adamw_step(params, grads, cfg, state)
            assert state.step == expected_step
        # constant gradient: every update is -lr (up to eps), independent of step
        assert np.allclose(params.tensors["W"], -3 * 0.01, atol=1e-6)


def reference_adamw(tensors, grads, m, v, step, cfg, decayed):
    """The per-tensor AdamW loop, in place: the reference the fused update must equal."""
    c1 = 1.0 - cfg.beta1 ** step
    c2 = 1.0 - cfg.beta2 ** step
    for name, p in tensors.items():
        g = grads[name]
        if cfg.weight_decay != 0.0 and name in decayed:
            p *= 1.0 - cfg.learning_rate * cfg.weight_decay
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * g
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * g * g
        p -= cfg.learning_rate * (m[name] / c1) / (np.sqrt(v[name] / c2) + cfg.epsilon)


class TestFlatAdamW:
    """Parameters and moments live in one vector each; the update is one fused pass."""

    def test_equals_per_tensor_loop(self):
        params = init_encoder("one_hidden", feature_dim=5, relation_count=3,
                              hidden_dim=4, seed=3)
        ref = {k: v.copy() for k, v in params.tensors.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
        cfg = train_config(learning_rate=0.05, weight_decay=0.1)
        state = init_adamw_state(params)
        rng = np.random.default_rng(0)
        for step in range(1, 6):
            grads = {k: rng.standard_normal(v.shape) for k, v in ref.items()}
            params, state = adamw_step(params, grads, cfg, state)
            reference_adamw(ref, grads, ref_m, ref_v, step, cfg, ("W1", "W2"))
        m, v = _views(state.m[0], params.shapes), _views(state.v[0], params.shapes)
        for name in ref:
            assert np.array_equal(params.tensors[name], ref[name]), name
            assert np.array_equal(m[name], ref_m[name]), name
            assert np.array_equal(v[name], ref_v[name]), name

    def test_stacked_arms_equal_per_tensor_loop_per_arm(self):
        """``_Arms.apply``, the trainer's update, moves each of K=3 stacked arms as
        the per-tensor reference moves that arm alone."""
        self.check_arms_against_reference(3)

    @pytest.mark.parametrize("n_arms", [1, 6, 22])
    def test_arms_reuse_scratch_and_equal_per_tensor_loop(self, n_arms):
        self.check_arms_against_reference(n_arms)

    @staticmethod
    def check_arms_against_reference(n_arms):
        """Five ``_Arms.apply`` steps (each reusing the arms' scratch blocks) against
        ``reference_adamw`` on each arm alone: p, m and v bit for bit."""
        params = init_encoder("one_hidden", feature_dim=5, relation_count=3,
                              hidden_dim=4, seed=3)
        arms = _Arms(params, [LossConfig(kind="cmm", m=0.2 + 0.02 * k) for k in range(n_arms - 1)]
                     + [LossConfig(kind="plain_margin")])
        refs = [{k: v.copy() for k, v in params.tensors.items()} for _ in range(n_arms)]
        ref_m = [{k: np.zeros_like(v) for k, v in ref.items()} for ref in refs]
        ref_v = [{k: np.zeros_like(v) for k, v in ref.items()} for ref in refs]
        cfg = train_config(learning_rate=0.05, weight_decay=0.1)
        rng = np.random.default_rng(0)
        for step in range(1, 6):
            arms.g[:] = rng.standard_normal(arms.g.shape)
            for k in range(n_arms):
                reference_adamw(refs[k], {n: g[k] for n, g in arms.grads.items()}, ref_m[k],
                                ref_v[k], step, cfg, ("W1", "W2"))
            arms.apply(cfg)
        shapes = params.shapes
        m, v = _views(arms.opt.m, shapes), _views(arms.opt.v, shapes)
        for k in range(n_arms):
            for name in shapes:
                assert np.array_equal(arms.params[name][k], refs[k][name]), (k, name)
                assert np.array_equal(m[name][k], ref_m[k][name]), (k, name)
                assert np.array_equal(v[name][k], ref_v[k][name]), (k, name)

    def test_one_hidden_decays_weights_not_biases(self):
        params = init_encoder("one_hidden", feature_dim=3, relation_count=2,
                              hidden_dim=4, seed=1)
        params.tensors["b1"][:] = 0.5
        params.tensors["b2"][:] = -0.25
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        cfg = train_config(weight_decay=0.01, learning_rate=0.1)
        params, _ = adamw_step(params, grads, cfg, init_adamw_state(params))
        for name in ("W1", "W2"):
            assert np.array_equal(params.tensors[name], before[name] * (1.0 - 0.001))
        for name in ("b1", "b2"):
            assert np.array_equal(params.tensors[name], before[name])

    def test_in_place_writes_seen_by_next_step(self):
        params = init_encoder("linear", feature_dim=2, relation_count=1, seed=0)
        state = init_adamw_state(params)
        cfg = train_config(learning_rate=1e-3, weight_decay=0.0)
        unit = {"W": np.ones((2, 2)), "b": np.ones(2)}
        expected = 0.5 - 1e-3 / (1.0 + 1e-8)
        params.tensors["b"][:] = 0.5
        params, state = adamw_step(params, unit, cfg, state)
        assert np.array_equal(params.tensors["b"], np.full(2, expected))
        assert np.shares_memory(params.tensors["b"], params.flat)
        params.tensors["W"][:] = 0.0
        # restart W's moments: its next move is -lr again
        _views(state.m[0], params.shapes)["W"][:] = 0.0
        _views(state.v[0], params.shapes)["W"][:] = 0.0
        params, state = adamw_step(params, unit, cfg, state)
        c1, c2 = 1.0 - 0.9 ** 2, 1.0 - 0.999 ** 2
        want = -1e-3 * (0.1 / c1) / (np.sqrt(0.001 / c2) + 1e-8)
        assert np.allclose(params.tensors["W"], want, rtol=1e-12, atol=0.0)

    def test_copy_shares_no_memory(self):
        params = init_encoder("one_hidden", feature_dim=3, relation_count=2,
                              hidden_dim=2, seed=4)
        clone = params.copy()
        assert not np.shares_memory(clone.flat, params.flat)
        for name in params.parameter_names:
            assert not np.shares_memory(clone.tensors[name], params.tensors[name])
            assert np.array_equal(clone.tensors[name], params.tensors[name])
        clone.tensors["W1"][0, 0] += 1.0
        assert clone.tensors["W1"][0, 0] != params.tensors["W1"][0, 0]

    def test_non_finite_gradient_names_the_tensor(self):
        params = init_encoder("one_hidden", feature_dim=2, relation_count=1,
                              hidden_dim=2, seed=0)
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["b2"][1] = np.inf
        state = init_adamw_state(params)
        with pytest.raises(NumericError, match="'b2'"):
            adamw_step(params, grads, train_config(), state)
        assert state.step == 0      # rejected before anything moved

    def test_parameter_names_must_match_architecture(self):
        with pytest.raises(SchemaError):
            EncoderParams(architecture="linear", feature_dim=2, relation_count=1,
                          hidden_dim=0, tensors={"W": np.zeros((2, 2))})

    def test_tensor_shapes_must_match_architecture(self):
        with pytest.raises(SchemaError, match="do not match the declared linear"):
            EncoderParams(architecture="linear", feature_dim=2, relation_count=1,
                          hidden_dim=0, tensors={"W": np.zeros((5, 3)), "b": np.zeros(7)})


class TestTrain:
    def test_loss_decreases_on_separable_toy(self):
        ds = toy_dataset(seed=0, n_docs=20, pairs_per_doc=10)
        cfg = train_config(epochs=20, seed=0, learning_rate=0.01)
        _, trace = train(ds, ds, cfg)
        assert trace[-1].train_loss < trace[0].train_loss
        assert trace[-1].dev_f1 > 0.8

    def test_bit_identical_given_seed(self):
        ds = toy_dataset(seed=1)
        cfg = train_config(epochs=4, seed=3)
        params_a, trace_a = train(ds, ds, cfg)
        params_b, trace_b = train(ds, ds, cfg)
        assert trace_a == trace_b
        for name in params_a.tensors:
            assert np.array_equal(params_a.tensors[name], params_b.tensors[name])

    def test_seed_changes_run(self):
        ds = toy_dataset(seed=1)
        _, trace_a = train(ds, ds, train_config(epochs=3, seed=0))
        _, trace_b = train(ds, ds, train_config(epochs=3, seed=1))
        assert trace_a != trace_b

    def test_eval_every_controls_trace_grid(self):
        ds = toy_dataset(seed=2, n_docs=6)
        _, trace = train(ds, ds, train_config(epochs=7, eval_every=3, seed=0))
        assert [r.epoch for r in trace] == [3, 6, 7]

    def test_trace_epochs_strictly_increasing(self):
        ds = toy_dataset(seed=2, n_docs=6)
        _, trace = train(ds, ds, train_config(epochs=6, eval_every=2, seed=0))
        epochs = [r.epoch for r in trace]
        assert epochs == sorted(set(epochs))

    def test_empty_dataset_rejected(self):
        empty = toy_dataset(n_docs=0)
        with pytest.raises(SchemaError):
            train(empty, empty, train_config(epochs=1))

    def test_schema_mismatch_rejected(self):
        ds = toy_dataset(seed=1, relation_count=2)
        dev = toy_dataset(seed=1, relation_count=3)
        with pytest.raises(SchemaError):
            train(ds, dev, train_config(epochs=1))

    def test_feature_width_mismatch_rejected_before_training(self, monkeypatch):
        import cmm.encoder
        ds = toy_dataset(seed=1, feature_dim=6)
        dev = toy_dataset(seed=1, feature_dim=8)
        monkeypatch.setattr(cmm.encoder, "_pack_documents",
                            lambda *a: pytest.fail("training started"))
        with pytest.raises(SchemaError, match="feature width"):
            train(ds, dev, train_config(epochs=1))

    def test_accumulation_and_global_mean_run(self):
        ds = toy_dataset(seed=4, n_docs=8)
        loss = LossConfig(kind="cmm", gamma=1.0, m=0.2, aggregation="global_mean")
        cfg = TrainConfig(loss=loss, epochs=2, seed=0, accumulate_documents=3)
        _, trace = train(ds, ds, cfg)
        assert len(trace) == 2

    def test_plugin_loss_trains(self):
        from cmm.loss import register_loss, plain_margin_loss, plain_margin_grad
        register_loss("shifted_plain", lambda lg, lb, cfg: plain_margin_loss(lg, lb) + 1.0,
                      lambda lg, lb, cfg: plain_margin_grad(lg, lb))
        ds = toy_dataset(seed=5, n_docs=4, pairs_per_doc=5, relation_count=4)
        loss = LossConfig(kind="plugin", plugin="shifted_plain")
        _, trace = train(ds, ds, TrainConfig(loss=loss, epochs=3, seed=0, learning_rate=0.03))
        _, plain = train(ds, ds, TrainConfig(loss=LossConfig(kind="plain_margin"), epochs=3,
                                             seed=0, learning_rate=0.03))
        # the plugin sees label sets rebuilt from the mask rows: with the same
        # gradient it must follow the plain arm exactly, its loss shifted by 1
        assert len(trace) == len(plain) == 3
        assert len({r.dev_positives for r in plain}) == 3    # the arms do move
        for got, want in zip(trace, plain):
            assert (got.dev_f1, got.dev_positives) == (want.dev_f1, want.dev_positives)
            assert got.train_loss == pytest.approx(want.train_loss + 1.0, rel=0, abs=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_encoder("one_hidden", feature_dim=4, relation_count=3,
                              hidden_dim=5, seed=6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), params, config={"epochs": 3})
        loaded, state, config = load_checkpoint(str(path))
        assert loaded.architecture == "one_hidden"
        assert state is None and config == {"epochs": 3}
        for name in params.parameter_names:
            assert np.array_equal(loaded.tensors[name], params.tensors[name])

    # sha256 of the files written as `cmm train` (a TrainConfig as the config) and
    # the benchmark's set-up (config None) call save_checkpoint
    CHECKPOINT_BYTES = {
        ("one_hidden", "set_up"):
            "907eb52add660df14a56831fc0a25bd88306f2c729815879d305880e907d0c86",
        ("one_hidden", "train"):
            "bb957a4efc00f52fdc5110cb47937b94a6a4c5b79623a9bb21d238746299689c",
        ("linear", "set_up"):
            "c3d345e4082535eaf15de58c1ecc0794524ac113ac9ff6b73a8d0da862cd3d55",
        ("linear", "train"):
            "61a6b0d87515d5b8cffb4a942e8a5802c62a6b7cbcae45dc31b9fe897c913821",
    }

    @pytest.mark.parametrize("architecture, caller", list(CHECKPOINT_BYTES))
    def test_checkpoint_bytes_pinned(self, tmp_path, architecture, caller):
        params = (init_encoder("one_hidden", feature_dim=4, relation_count=3, hidden_dim=5,
                               seed=6) if architecture == "one_hidden" else
                  init_encoder("linear", feature_dim=3, relation_count=2, seed=0))
        path = tmp_path / "ckpt.json"
        if caller == "train":
            config = _cfg_as_dict(TrainConfig(loss=LossConfig(kind="cmm", gamma=1.2, m=0.3),
                                              epochs=4, seed=1))
            save_checkpoint(str(path), params, config=config)
        else:
            save_checkpoint(str(path), params, None)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            self.CHECKPOINT_BYTES[architecture, caller])

    def test_checkpoint_without_optimizer(self, tmp_path):
        params = init_encoder("linear", feature_dim=3, relation_count=2, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), params, None)
        loaded, state, _ = load_checkpoint(str(path))
        assert state is None
        assert np.array_equal(loaded.tensors["W"], params.tensors["W"])

    @settings(max_examples=200, deadline=None)
    @given(architecture=st.sampled_from(["linear", "one_hidden", "two_hidden"]),
           dims=st.tuples(st.integers(-1, 3), st.integers(0, 3), st.integers(0, 3)),
           data=st.data())
    def test_every_constructible_encoder_round_trips(self, tmp_path_factory, architecture,
                                                     dims, data):
        """EncoderParams constructs exactly when its architecture, dimensions, tensor
        names and shapes are valid and its values finite (ValueError for a bad
        dimension, SchemaError otherwise), and then survives
        save_checkpoint and load_checkpoint unchanged."""
        feature_dim, relation_count, hidden_dim = dims
        out = relation_count + 1
        declared = ({"W": (out, feature_dim), "b": (out,)} if architecture == "linear" else
                    {"W1": (hidden_dim, feature_dim), "b1": (hidden_dim,),
                     "W2": (out, hidden_dim), "b2": (out,)})
        tensors = {}
        for name, shape in declared.items():
            choice = data.draw(st.sampled_from(["declared"] * 7 + ["reversed", "other",
                                                                   "missing"]), label=name)
            if choice == "missing":
                continue
            if choice == "reversed":    # the declared size in another shape
                shape = shape[::-1] if len(shape) == 2 else shape + (1,)
            if choice == "other" or min(shape) < 0:
                shape = data.draw(st.tuples(*[st.integers(0, 4)] * len(shape)), label=name)
            tensors[name] = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)),
                                      label=name)
        sized = [t for t in tensors.values() if t.size]
        if sized and data.draw(st.integers(0, 9), label="poison") == 0:
            sized[0].flat[0] = np.inf
        build = dict(architecture=architecture, feature_dim=feature_dim,
                     relation_count=relation_count, hidden_dim=hidden_dim, tensors=tensors)
        if feature_dim < 0 or relation_count < 1:
            error = ValueError
        elif architecture == "two_hidden" or not (
                {n: t.shape for n, t in tensors.items()} == declared
                and all(np.isfinite(t).all() for t in tensors.values())):
            error = SchemaError
        else:
            error = None
        if error is not None:
            with pytest.raises(error):
                EncoderParams(**build)
            return
        params = EncoderParams(**build)
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(str(path), params)
        loaded, state, _ = load_checkpoint(str(path))
        assert (loaded.architecture, loaded.feature_dim, loaded.relation_count,
                loaded.hidden_dim) == (architecture, feature_dim, relation_count, hidden_dim)
        assert loaded.tensors.keys() == tensors.keys()
        for name, t in tensors.items():
            assert np.array_equal(loaded.tensors[name], t), name
        assert state is None

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other/9"}')
        with pytest.raises(SchemaError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("field, value", [
        ("step", 0), ("step", 2.7), ("step", "5"), ("step", True), ("step", -3),
        ("step", None), ("m", float("nan")), ("v", float("inf")), ("m", float("-inf"))])
    def test_ignores_optimizer_section(self, tmp_path, field, value):
        """An older writer's optimizer section (step and per-tensor moments), valid or
        not, is ignored: the file loads as it does without the section."""
        params = init_encoder("linear", feature_dim=3, relation_count=2, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(str(path), params, config={"epochs": 3})
        section = {"step": 0, **{key: [{"name": name, "data": [0.0] * t.size}
                                       for name, t in params.tensors.items()]
                                 for key in ("m", "v")}}
        if field == "step":
            section["step"] = value
        else:
            section[field][0]["data"][0] = value
        path.write_text(json.dumps({**json.loads(path.read_text()), "optimizer": section}))
        loaded, state, config = load_checkpoint(str(path))
        assert state is None and config == {"epochs": 3}
        assert loaded.tensors.keys() == params.tensors.keys()
        for name, t in params.tensors.items():
            assert np.array_equal(loaded.tensors[name], t), name


class TestInit:
    def test_init_bounds_and_zero_biases(self):
        params = init_encoder("linear", feature_dim=16, relation_count=4, seed=2)
        bound = 1.0 / np.sqrt(16)
        assert np.all(np.abs(params.tensors["W"]) <= bound)
        assert np.all(params.tensors["b"] == 0.0)

    def test_init_deterministic(self):
        a = init_encoder("one_hidden", feature_dim=6, relation_count=3, seed=11)
        b = init_encoder("one_hidden", feature_dim=6, relation_count=3, seed=11)
        for name in a.parameter_names:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_unknown_architecture(self):
        with pytest.raises(ValueError):
            init_encoder("transformer", feature_dim=4, relation_count=2)

    @pytest.mark.parametrize("architecture, feature_dim, hidden_dim, weight", [
        ("linear", 0, 64, "W"), ("one_hidden", 0, 5, "W1"), ("one_hidden", 3, 0, "W2")])
    def test_fan_in_zero_rejected(self, architecture, feature_dim, hidden_dim, weight):
        with pytest.raises(ValueError) as info:
            init_encoder(architecture, feature_dim, 2, hidden_dim=hidden_dim)
        assert str(info.value).startswith(f"weight {weight!r} of shape ")
        assert "fan-in 0" in str(info.value) and "\n" not in str(info.value)


def _nan_after(calls):
    """A plugin gradient: plain margin for ``calls`` rows, then NaN."""
    from cmm.loss import plain_margin_grad
    seen = []

    def grad(logits, labels, cfg):
        seen.append(None)
        g = plain_margin_grad(logits, labels)
        return g if len(seen) <= calls else np.full_like(g, np.nan)
    return grad


def lockstep_arms():
    """cmm arms with different gamma/m plus plain, ATL and a plugin arm, interleaved."""
    from cmm.loss import plain_margin_grad, plain_margin_loss, register_loss
    register_loss("lockstep_plain", lambda lg, lb, cfg: plain_margin_loss(lg, lb) + 0.5,
                  lambda lg, lb, cfg: plain_margin_grad(lg, lb))
    return [LossConfig(kind="plain_margin"), LossConfig(kind="cmm", gamma=1.0, m=0.2),
            LossConfig(kind="atl_reference"), LossConfig(kind="cmm", gamma=2.0, m=0.4),
            LossConfig(kind="plugin", plugin="lockstep_plain"),
            LossConfig(kind="cmm", gamma=1.4, m=0.1)]


class TestLockstep:
    """Arms trained together equal the same arms trained one by one, bit for bit."""

    def assert_lockstep_equals_separate(self, ds, dev, base, losses):
        cfgs = [replace(base, loss=loss) for loss in losses]
        together = train(ds, dev, cfgs)
        assert len(together) == len(cfgs)
        for cfg, (params, trace) in zip(cfgs, together):
            alone, alone_trace = train(ds, dev, cfg)
            assert trace == alone_trace, cfg.loss
            assert params.parameter_names == alone.parameter_names
            for name in params.parameter_names:
                assert np.array_equal(params.tensors[name], alone.tensors[name]), (cfg.loss, name)
        flats = [params.flat for params, _ in together]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(flats) for b in flats[:i])
        return together

    def test_mixed_kinds_linear(self):
        ds, dev = toy_dataset(seed=7, n_docs=8, relation_count=4), toy_dataset(seed=8, n_docs=3,
                                                                               relation_count=4)
        base = TrainConfig(loss=LossConfig(), epochs=3, seed=2, eval_every=1, learning_rate=0.02)
        together = self.assert_lockstep_equals_separate(ds, dev, base, lockstep_arms())
        # the arms differ, except that the plugin follows the plain arm exactly
        assert len({p.tensors["W"].tobytes() for p, _ in together}) == len(together) - 1
        plain, plugin = together[0][1], together[4][1]
        assert [r.train_loss for r in plugin] == pytest.approx(
            [r.train_loss + 0.5 for r in plain], rel=0, abs=1e-12)

    def test_one_hidden(self):
        ds = toy_dataset(seed=9, n_docs=6, relation_count=3)
        base = TrainConfig(loss=LossConfig(), epochs=2, seed=1, architecture="one_hidden",
                           hidden_dim=5, learning_rate=0.01)
        self.assert_lockstep_equals_separate(ds, ds, base, lockstep_arms())

    def test_accumulate_two_documents(self):
        ds = toy_dataset(seed=10, n_docs=7, relation_count=3)
        base = TrainConfig(loss=LossConfig(), epochs=2, seed=4, accumulate_documents=2)
        self.assert_lockstep_equals_separate(ds, ds, base, lockstep_arms())

    def test_global_mean_and_zero_decay(self):
        ds = toy_dataset(seed=11, n_docs=6, relation_count=3)
        base = TrainConfig(loss=LossConfig(), epochs=2, seed=0, weight_decay=0.0)
        losses = [replace(loss, aggregation="global_mean") for loss in lockstep_arms()]
        # per-document sums beside global means in one lockstep run
        self.assert_lockstep_equals_separate(ds, ds, base, losses + lockstep_arms()[:2])

    def test_twenty_two_arms_at_benchmark_width(self):
        """The full gamma x m grid plus both baselines: 22 arms at |R| = 20, F = 64."""
        from cmm.loss import GAMMA_GRID, M_GRID
        ds = toy_dataset(seed=12, n_docs=4, pairs_per_doc=30, relation_count=20,
                         feature_dim=64)
        base = TrainConfig(loss=LossConfig(), epochs=2, seed=3, learning_rate=0.01)
        losses = ([LossConfig(kind="cmm", gamma=g, m=m) for g in GAMMA_GRID for m in M_GRID]
                  + [LossConfig(kind="plain_margin"), LossConfig(kind="atl_reference")])
        assert len(losses) == 22
        self.assert_lockstep_equals_separate(ds, ds, base, losses)

    @pytest.mark.parametrize("field, value", [("seed", 1), ("epochs", 3), ("learning_rate", 0.1),
                                              ("architecture", "one_hidden")])
    def test_configs_differing_beyond_loss_raise(self, field, value):
        ds = toy_dataset(seed=1, n_docs=2)
        base = train_config(epochs=2)
        with pytest.raises(ValueError, match="only in 'loss'"):
            train(ds, ds, [base, replace(base, **{field: value})])

    def test_empty_sequence_raises(self):
        ds = toy_dataset(seed=1, n_docs=2)
        with pytest.raises(ValueError):
            train(ds, ds, [])

    def test_non_finite_arm_names_its_kind(self):
        from cmm.loss import register_loss, plain_margin_loss
        register_loss("nan_later", lambda lg, lb, cfg: plain_margin_loss(lg, lb), _nan_after(30))
        ds = toy_dataset(seed=2, n_docs=6, pairs_per_doc=5)
        base = train_config(epochs=2)
        with pytest.raises(NumericError, match="plugin arm"):
            train(ds, ds, [base, replace(base, loss=LossConfig(kind="plugin",
                                                               plugin="nan_later"))])


class TestRecordedEpochs:
    """Loss values are computed only in epochs that record a trace row; the
    gradient-only steps of the other epochs move the parameters exactly alike."""

    @pytest.mark.parametrize("architecture, accumulate", [("linear", 1), ("one_hidden", 2)])
    def test_eval_cadence_leaves_parameters_and_records_unchanged(self, architecture,
                                                                  accumulate):
        ds = toy_dataset(seed=13, n_docs=7, relation_count=4)
        dev = toy_dataset(seed=14, n_docs=3, relation_count=4)
        base = TrainConfig(loss=LossConfig(), epochs=4, seed=5, learning_rate=0.02,
                           architecture=architecture, hidden_dim=5,
                           accumulate_documents=accumulate)
        runs = {every: train(ds, dev, [replace(base, eval_every=every, loss=loss)
                                       for loss in lockstep_arms()])
                for every in (1, 2, base.epochs)}
        expected_epochs = {1: [1, 2, 3, 4], 2: [2, 4], 4: [4]}
        for every, results in runs.items():
            for (params, trace), (ref, ref_trace) in zip(results, runs[1]):
                for name in params.parameter_names:
                    assert np.array_equal(params.tensors[name], ref.tensors[name]), (every, name)
                assert [r.epoch for r in trace] == expected_epochs[every]
                by_epoch = {r.epoch: r for r in ref_trace}
                assert all(r == by_epoch[r.epoch] for r in trace), every

    def test_plugin_value_called_in_recorded_epochs_only(self):
        from cmm.loss import plain_margin_grad, plain_margin_loss, register_loss
        calls = {"value": 0, "grad": 0}

        def value(logits, labels, cfg):
            calls["value"] += 1
            return plain_margin_loss(logits, labels)

        def grad(logits, labels, cfg):
            calls["grad"] += 1
            return plain_margin_grad(logits, labels)
        register_loss("counting_plain", value, grad)
        ds = toy_dataset(seed=15, n_docs=5, pairs_per_doc=4)
        loss = LossConfig(kind="plugin", plugin="counting_plain")
        _, trace = train(ds, ds, TrainConfig(loss=loss, epochs=3, eval_every=3))
        assert [r.epoch for r in trace] == [3]
        assert calls == {"value": len(ds), "grad": 3 * len(ds)}


class TestConfigTypes:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("epochs", True), ("seed", -1), ("seed", 1.5), ("eval_every", 1.5),
        ("accumulate_documents", 1.5), ("hidden_dim", 1.5)])
    def test_integer_fields_reject(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(loss=LossConfig(), **{"epochs": 1, field: value})

    @pytest.mark.parametrize("hidden_dim", [-1, 0])
    def test_one_hidden_needs_a_hidden_unit(self, hidden_dim):
        with pytest.raises(ValueError, match="hidden_dim"):
            TrainConfig(loss=LossConfig(), epochs=1, architecture="one_hidden",
                        hidden_dim=hidden_dim)
        TrainConfig(loss=LossConfig(), epochs=1, hidden_dim=0)      # linear has none

    def test_numpy_integers_accepted(self):
        assert TrainConfig(loss=LossConfig(), epochs=np.int64(2), seed=np.int32(1)).epochs == 2
