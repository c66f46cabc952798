"""Encoder forward pass, parameter accounting, and checkpoints."""

import numpy as np
import pytest
from scipy.special import erf

from tinysound import model, train
from tinysound.errors import CheckpointError, ConfigError

from conftest import assert_grads_close, finite_difference_grads

TINY86 = model.ModelConfig(input_dim=128, seq_len=86, hidden=16, layers=1,
                           heads=2, classes=6)
TINY430 = model.ModelConfig(input_dim=128, seq_len=430, hidden=16, layers=1,
                            heads=2, classes=6)


def small_cfg(**overrides):
    base = dict(input_dim=6, seq_len=5, hidden=8, layers=2, heads=2, classes=3,
                dropout_rate=0.0)
    base.update(overrides)
    return model.ModelConfig(**base)


def oracle_logits(params, batch):
    """Plain eval-mode encoder: every layer at every position, batch norm unfolded."""
    cfg, w = params.cfg, {k: v.astype(np.float64) for k, v in params.tensors.items()}

    def lin(x, p):
        return x @ w[p + "_w"].T + w[p + "_b"]

    def ln(x, p):
        xhat = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-12)
        return w[p + "_g"] * xhat + w[p + "_b"]

    if cfg.input_mode == "continuous":
        xhat = (batch - w["bn_running_mean"][:, None]) / np.sqrt(w["bn_running_var"][:, None] + 1e-5)
        x = lin(w["bn_gamma"][:, None] * xhat + w["bn_beta"][:, None], "map")
    else:
        x = w["tok_emb"][batch] + (w["pos_emb"] if cfg.use_positional else 0.0)
    x = ln(x + w["seg_emb"][0], "emb_ln")
    b, seq, h = x.shape
    for layer in range(cfg.layers):
        p = f"layer{0 if cfg.share_layers else layer}_"
        q, k, v = (lin(x, p + n).reshape(b, seq, cfg.heads, -1).transpose(0, 2, 1, 3)
                   for n in "qkv")
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(cfg.hidden // cfg.heads)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        ctx = (e / e.sum(-1, keepdims=True)) @ v
        x = ln(x + lin(ctx.transpose(0, 2, 1, 3).reshape(b, seq, h), p + "o"), p + "attn_ln")
        pre = lin(x, p + "ffn_in")
        x = ln(x + lin(0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0))), p + "ffn_out"), p + "ffn_ln")
    return lin(np.tanh(lin(x[:, 0], "pooler")), "cls")


def attention_probs(backwards):
    """Attention probabilities of each layer, (B, heads, L, L), that a training
    forward's backwards keep; the last layer's are (B, heads, 1, L)."""
    return [back.probs for back in backwards if hasattr(back, "probs")]


def perturbed_params(cfg, seed):
    """Every tensor random (positive running variances), so no term vanishes."""
    rng = np.random.default_rng(seed)
    tensors = {name: rng.normal(0.0, 0.3, shape).astype(np.float32)
               for name, shape in model.param_shapes(cfg).items()}
    if cfg.input_mode == "continuous":
        tensors["bn_running_mean"] += 2.0
        tensors["bn_running_var"] = rng.uniform(0.5, 3.0, cfg.seq_len).astype(np.float32)
    return model.ModelParams(cfg, tensors)


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(hidden=16, heads=3)

    def test_continuous_forbids_positional(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(input_mode="continuous", use_positional=True)

    def test_tokens_defaults_to_positional(self):
        cfg = model.ModelConfig(input_mode="tokens", input_dim=32)
        assert cfg.use_positional is True

    def test_ffn_dim_is_4h(self):
        assert small_cfg(hidden=24, heads=2).ffn_dim == 96


class TestInit:
    def test_shapes_match_config(self):
        cfg = small_cfg()
        params = model.init_model(cfg, np.random.default_rng(0))
        for name, shape in model.param_shapes(cfg).items():
            assert params.tensors[name].shape == shape

    def test_same_seed_identical(self):
        cfg = small_cfg()
        a = model.init_model(cfg, np.random.default_rng(5))
        b = model.init_model(cfg, np.random.default_rng(5))
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_weights_truncated_at_two_sigma(self):
        params = model.init_model(TINY430, np.random.default_rng(1))
        assert np.max(np.abs(params.tensors["map_w"])) <= 2 * 0.02

    def test_norm_scales_one_biases_zero(self):
        params = model.init_model(small_cfg(), np.random.default_rng(2))
        np.testing.assert_array_equal(params.tensors["bn_gamma"], 1.0)
        np.testing.assert_array_equal(params.tensors["bn_running_var"], 1.0)
        np.testing.assert_array_equal(params.tensors["bn_running_mean"], 0.0)
        np.testing.assert_array_equal(params.tensors["map_b"], 0.0)
        np.testing.assert_array_equal(params.tensors["emb_ln_g"], 1.0)


class TestForward:
    def test_attention_rows_sum_to_one(self):
        cfg = small_cfg()
        params = model.init_model(cfg, np.random.default_rng(3))
        batch = np.random.default_rng(4).normal(size=(2, 5, 6))
        _, trace = model.forward(params, batch, training=True, freeze_stats=True)
        assert len(attention_probs(trace)) == cfg.layers
        for probs in attention_probs(trace):
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_zero_input_zero_classifier_equal_logits(self):
        cfg = small_cfg()
        params = model.init_model(cfg, np.random.default_rng(5))
        params.tensors["cls_w"][...] = 0.0
        params.tensors["cls_b"][...] = 0.0
        logits = model.forward(params, np.zeros((3, 5, 6)), training=False)
        np.testing.assert_allclose(logits - logits[:, :1], 0.0, atol=1e-12)

    def test_batch_permutation_permutes_logits(self):
        cfg = small_cfg()
        params = model.init_model(cfg, np.random.default_rng(6))
        batch = np.random.default_rng(7).normal(size=(4, 5, 6))
        perm = np.array([2, 0, 3, 1])
        base = model.forward(params, batch, training=False)
        shuffled = model.forward(params, batch[perm], training=False)
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_eval_batch_size_invariant(self):
        cfg = small_cfg()
        params = model.init_model(cfg, np.random.default_rng(8))
        batch = np.random.default_rng(9).normal(size=(6, 5, 6))
        full = model.forward(params, batch, training=False)
        singles = np.concatenate(
            [model.forward(params, batch[i : i + 1], training=False) for i in range(6)])
        np.testing.assert_allclose(full, singles, atol=1e-6)

    def test_shape_mismatch_reports_dimensions(self):
        params = model.init_model(small_cfg(), np.random.default_rng(10))
        with pytest.raises(ValueError, match="expected batch"):
            model.forward(params, np.zeros((2, 4, 6)), training=False)

    def test_training_without_rng_rejected_when_dropout(self):
        cfg = small_cfg(dropout_rate=0.1)
        params = model.init_model(cfg, np.random.default_rng(11))
        with pytest.raises(ValueError, match="rng"):
            model.forward(params, np.zeros((1, 5, 6)), training=True)

    def test_train_equals_eval_with_frozen_stats_no_dropout(self):
        cfg = small_cfg()
        params = model.init_model(cfg, np.random.default_rng(12))
        batch = np.random.default_rng(13).normal(size=(3, 5, 6))
        eval_logits = model.forward(params, batch, training=False)
        train_logits, _ = model.forward(params, batch, training=True, freeze_stats=True)
        np.testing.assert_array_equal(train_logits, eval_logits)

    def test_tokens_mode_forward(self):
        cfg = small_cfg(input_mode="tokens", input_dim=20)
        params = model.init_model(cfg, np.random.default_rng(14))
        ids = np.random.default_rng(15).integers(0, 20, size=(2, 5))
        logits = model.forward(params, ids, training=False)
        assert logits.shape == (2, 3)
        with pytest.raises(ValueError, match="vocabulary"):
            model.forward(params, np.full((1, 5), 20), training=False)

    @pytest.mark.parametrize("overrides", [
        {"layers": 1},
        {"layers": 2},
        {"layers": 3, "share_layers": True},
        {"input_mode": "tokens", "input_dim": 20, "use_positional": True},
    ])
    def test_matches_full_sequence_oracle(self, overrides):
        cfg = small_cfg(seq_len=9, **overrides)
        params = perturbed_params(cfg, 30)
        rng = np.random.default_rng(31)
        if cfg.input_mode == "tokens":
            batch = rng.integers(0, cfg.input_dim, size=(4, 9))
        else:
            batch = 2.0 + 1.5 * rng.normal(size=(4, 9, 6))
        logits = model.forward(params, batch, training=False)
        np.testing.assert_allclose(logits, oracle_logits(params, batch), rtol=0, atol=1e-12)

    def test_last_layer_attends_from_position_zero_only(self):
        cfg = small_cfg(layers=2)
        params = model.init_model(cfg, np.random.default_rng(32))
        batch = np.random.default_rng(33).normal(size=(3, 5, 6))
        _, trace = model.forward(params, batch, training=True, freeze_stats=True)
        assert attention_probs(trace)[0].shape == (3, cfg.heads, 5, 5)
        assert attention_probs(trace)[-1].shape == (3, cfg.heads, 1, 5)

    def test_running_stats_follow_the_unfolded_update(self):
        cfg = small_cfg()
        params = perturbed_params(cfg, 34)
        rm = params.tensors["bn_running_mean"].copy()
        rv = params.tensors["bn_running_var"].copy()
        batch = 2.0 + 1.5 * np.random.default_rng(35).normal(size=(3, 5, 6))
        model.forward(params, batch, training=True)
        n = batch.shape[0] * batch.shape[2]
        mean, var = batch.mean(axis=(0, 2)), batch.var(axis=(0, 2))
        np.testing.assert_array_equal(params.tensors["bn_running_mean"],
                                      (0.9 * rm + 0.1 * mean).astype(np.float32))
        np.testing.assert_array_equal(params.tensors["bn_running_var"],
                                      (0.9 * rv + 0.1 * (var * n / (n - 1))).astype(np.float32))

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.1])
    def test_two_layer_gradients_match_finite_differences(self, dropout_rate):
        cfg = small_cfg(seq_len=4, layers=2, dropout_rate=dropout_rate)
        params = perturbed_params(cfg, 36)  # init-scale weights would hide small terms
        batch = np.random.default_rng(37).normal(size=(2, 4, 6))
        labels = np.array([0, 2])
        logits, trace = model.forward(params, batch, training=True,
                                      rng=np.random.default_rng(3))
        _, dlogits = train.cross_entropy(logits, labels)
        grads = model.backward(params, trace, dlogits)
        fd = finite_difference_grads(cfg, params, batch, labels, seed=3)
        assert_grads_close(grads, fd)

    def test_share_layers_applies_block_repeatedly(self):
        shared1 = small_cfg(layers=1, share_layers=True)
        shared3 = small_cfg(layers=3, share_layers=True)
        p1 = model.init_model(shared1, np.random.default_rng(16))
        p3 = model.ModelParams(shared3, {k: v.copy() for k, v in p1.tensors.items()})
        batch = np.random.default_rng(17).normal(size=(2, 5, 6))
        a = model.forward(p1, batch, training=False)
        b = model.forward(p3, batch, training=False)
        assert not np.allclose(a, b)  # same weights, applied 1x vs 3x


def closed_form_params(cfg):
    """Learnable count by the closed form
    2L + (F*H + H) + 2H + 2H + blocks*(12H^2 + 13H) + (H^2 + H) + (H*C + C),
    whose input part is F*H (+ L*H positional) in tokens mode."""
    h, c = cfg.hidden, cfg.classes
    if cfg.input_mode == "continuous":
        input_part = 2 * cfg.seq_len + (cfg.input_dim * h + h)
    else:
        input_part = cfg.input_dim * h + (cfg.seq_len * h if cfg.use_positional else 0)
    return (input_part + 2 * h + 2 * h + cfg.n_layer_blocks * (12 * h * h + 13 * h)
            + (h * h + h) + (h * c + c))


class TestCountParams:
    @pytest.mark.parametrize("mode,use_positional", [("continuous", None), ("tokens", None),
                                                     ("tokens", False)])
    @pytest.mark.parametrize("share_layers", [False, True])
    @pytest.mark.parametrize("hidden,layers,heads", [(4, 1, 1), (8, 2, 2), (16, 3, 4),
                                                      (24, 4, 3)])
    def test_matches_closed_form(self, mode, use_positional, share_layers, hidden, layers,
                                 heads):
        cfg = model.ModelConfig(input_mode=mode, input_dim=11, seq_len=7, hidden=hidden,
                                layers=layers, heads=heads, classes=5,
                                use_positional=use_positional, share_layers=share_layers)
        assert model.count_params(cfg) == closed_form_params(cfg)

    def test_table_values(self):
        assert model.count_params(TINY86) == 5954
        assert model.count_params(TINY430) == 6642

    def test_fixed_part_plus_2l(self):
        fixed = model.count_params(TINY86) - 2 * 86
        assert fixed == 5782
        assert model.count_params(TINY430) == fixed + 2 * 430

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_allocation_tally(self, seed):
        rng = np.random.default_rng(seed)
        heads = int(rng.integers(1, 4))
        mode = rng.choice(["continuous", "tokens"])
        cfg = model.ModelConfig(
            input_mode=mode,
            input_dim=int(rng.integers(4, 40)),
            seq_len=int(rng.integers(2, 60)),
            hidden=heads * int(rng.integers(2, 8)),
            layers=int(rng.integers(1, 4)),
            heads=heads,
            classes=int(rng.integers(2, 12)),
            share_layers=bool(rng.integers(0, 2)),
        )
        params = model.init_model(cfg, rng)
        tally = sum(params.tensors[n].size for n in model.learnable_names(cfg))
        assert model.count_params(cfg) == tally

    def test_share_layers_count_independent_of_depth(self):
        a = model.count_params(small_cfg(layers=1, share_layers=True))
        b = model.count_params(small_cfg(layers=8, share_layers=True))
        assert a == b


class TestMultAdds:
    def test_mapping_total_is_lfh(self):
        parts = model.mult_add_breakdown(TINY430, model.TOTAL)
        assert parts["mapping"] == 430 * 128 * 16

    def test_total_exceeds_per_position(self):
        assert model.count_mult_adds(TINY430, model.TOTAL) > model.count_mult_adds(
            TINY430, model.PER_POSITION)

    def test_per_position_values(self):
        # our convention gives 5,902 for the reference tiny config; external
        # counting tools report 5,982 under a convention we cannot reproduce
        assert model.count_mult_adds(TINY430, model.PER_POSITION) == 5902
        assert model.count_mult_adds(TINY86, model.PER_POSITION) == 5902 - (430 - 86)

    def test_total_is_the_architectural_count(self):
        assert model.count_mult_adds(TINY430, model.TOTAL) == 8_173_792

    @pytest.mark.parametrize("layers", [1, 3])
    def test_executed_hand_formula(self, layers):
        cfg = model.ModelConfig(input_dim=128, seq_len=430, hidden=16, layers=layers,
                                heads=2, classes=6, share_layers=layers > 1)
        L, F, H, C = 430, 128, 16, 6
        last = (2 * L * H + L * F * H      # folded batch norm, mapping
                + 2 * L * H * H + 2 * H * H  # K, V at every position; Q, O at one
                + 2 * L * H + 8 * H * H      # scores and values of one query; FFN
                + H * H + H * C)             # pooler, classifier
        full_layer = 12 * L * H * H + 2 * L * L * H
        assert model.count_mult_adds(cfg, model.EXECUTED) == last + (layers - 1) * full_layer
        if layers == 1:
            assert model.count_mult_adds(cfg, model.EXECUTED) == 1_131_232

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            model.count_mult_adds(TINY430, "flops")


class TestCheckpoint:
    def test_save_load_save_identical_bytes(self, tmp_path):
        params = model.init_model(small_cfg(), np.random.default_rng(20))
        p1, p2 = tmp_path / "a.tsck", tmp_path / "b.tsck"
        model.save_checkpoint(p1, params, step=17, metadata={"note": "x"})
        ck = model.load_checkpoint(p1)
        model.save_checkpoint(p2, ck.params, ck.opt_tensors, ck.step, ck.metadata)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_roundtrip(self, tmp_path):
        cfg = small_cfg()
        params = model.init_model(cfg, np.random.default_rng(21))
        path = tmp_path / "m.tsck"
        model.save_checkpoint(path, params)
        loaded = model.load_checkpoint(path).params
        batch = np.random.default_rng(22).normal(size=(2, 5, 6))
        np.testing.assert_array_equal(
            model.forward(params, batch), model.forward(loaded, batch))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tsck"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            model.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        params = model.init_model(small_cfg(), np.random.default_rng(23))
        path = tmp_path / "v.tsck"
        model.save_checkpoint(path, params)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            model.load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        params = model.init_model(small_cfg(), np.random.default_rng(24))
        path = tmp_path / "t.tsck"
        model.save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            model.load_checkpoint(path)

    def test_opt_state_roundtrip(self, tmp_path):
        params = model.init_model(small_cfg(), np.random.default_rng(25))
        opt = {"m__cls_b": np.arange(3, dtype=np.float32)}
        path = tmp_path / "o.tsck"
        model.save_checkpoint(path, params, opt, step=9)
        ck = model.load_checkpoint(path)
        assert ck.step == 9
        np.testing.assert_array_equal(ck.opt_tensors["m__cls_b"], opt["m__cls_b"])
