"""Encoder forward pass, parameter accounting, and checkpoints."""

import struct
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from scipy.special import erf

from tinysound import _binio, model, train
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
        x = w["tok_emb"][batch] + w["pos_emb"]
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


def attention_probs(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the attention probabilities it computed, one
    (B, heads, n_queries, L) array per attention sublayer in call order: what
    ``model.softmax`` returns, which in a forward only attention calls."""
    recorded, softmax = [], model.softmax

    def recording_softmax(x):
        recorded.append(softmax(x))
        return recorded[-1]

    with mock.patch.object(model, "softmax", recording_softmax):
        return fn(*args, **kwargs), recorded


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
        _, layers = attention_probs(model.forward, params, batch, training=True)
        assert len(layers) == cfg.layers
        for probs in layers:
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
        {"input_mode": "tokens", "input_dim": 20},
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
        _, layers = attention_probs(model.forward, params, batch, training=True)
        assert layers[0].shape == (3, cfg.heads, 5, 5)
        assert layers[-1].shape == (3, cfg.heads, 1, 5)

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

    @staticmethod
    def _db_like_step(seed):
        """A default-config model and a B=16 batch like log-mel features in dB."""
        params = model.init_model(model.ModelConfig(), np.random.default_rng(seed))
        batch = -50.0 + 30.0 * np.random.default_rng(seed + 1).standard_normal((16, 430, 128))
        return params, batch

    def test_batch_moments_keep_their_digits_on_db_like_data(self):
        _, batch = self._db_like_step(40)
        mean, var = model._batch_moments(batch)
        want_mean, want_var = batch.mean(axis=(0, 2)), batch.var(axis=(0, 2))
        rel = lambda got, want: np.max(np.abs(got - want) / np.abs(want))
        assert rel(mean, want_mean) <= 2e-15
        assert rel(var, want_var) <= 2e-15
        # a one-pass E[x^2] - E[x]^2 cancels away digits at a mean of -50
        one_pass = np.einsum("blf,blf->l", batch, batch) / (16 * 128) - want_mean**2
        assert rel(one_pass, want_var) > 2e-15

    def test_forward_peak_and_backward_rise_each_stay_below_the_batch(self):
        params, batch = self._db_like_step(43)
        labels = np.arange(16) % params.cfg.classes

        def step():
            logits, trace = model.forward(params, batch, training=True,
                                          rng=np.random.default_rng(44))
            kept = tracemalloc.get_traced_memory()[0]
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            model.backward(params, trace, train.cross_entropy(logits, labels)[1])
            return forward_peak, tracemalloc.get_traced_memory()[1] - kept

        step()  # caches and allocator state outside the measurement
        tracemalloc.start()
        try:
            forward_peak, backward_rise = step()
        finally:
            tracemalloc.stop()
        # batch-norm moments run first, with nothing kept yet: a (B, L, F)
        # temporary there, or anywhere in the backward, passes the batch's size
        assert forward_peak < batch.nbytes
        assert backward_rise < batch.nbytes

    def test_whole_step_peaks_below_the_batch(self):
        params, batch = self._db_like_step(45)
        examples = [model.Example(x) for x in batch]  # as a ClipStore keeps them
        labels = np.arange(16) % params.cfg.classes

        def step():
            logits, trace = model.forward(params, examples, training=True,
                                          rng=np.random.default_rng(46))
            model.backward(params, trace, train.cross_entropy(logits, labels)[1])

        step()  # caches and allocator state outside the measurement
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch.nbytes  # nothing stacks the examples or copies one

    def test_cached_examples_give_the_bytes_of_their_stacked_array(self):
        cfg = small_cfg(dropout_rate=0.1)
        batch = 2.0 + 1.5 * np.random.default_rng(47).normal(size=(4, 5, 6))
        labels = np.array([0, 2, 1, 1])
        runs = []
        for inputs in ([model.Example(x) for x in batch], batch):
            params = perturbed_params(cfg, 48)
            logits, trace = model.forward(params, inputs, training=True,
                                          rng=np.random.default_rng(49))
            grads = model.backward(params, trace, train.cross_entropy(logits, labels)[1])
            runs.append([logits, *grads.values(), params.tensors["bn_running_mean"],
                         params.tensors["bn_running_var"]])
        assert [a.tobytes() for a in runs[0]] == [a.tobytes() for a in runs[1]]

    @pytest.mark.parametrize("heads, layers, share_layers", [
        (1, 1, False), (2, 1, False), (4, 1, False), (2, 2, True)])
    def test_one_query_attention_is_row_zero_of_the_full_sublayer(
            self, monkeypatch, heads, layers, share_layers):
        cfg = small_cfg(seq_len=7, hidden=8, heads=heads, layers=layers,
                        share_layers=share_layers)
        params = perturbed_params(cfg, 50)
        batch = np.random.default_rng(51).normal(size=(3, 7, 6))
        calls, sublayer = [], model._attention_sublayer
        monkeypatch.setattr(model, "_attention_sublayer",
                            lambda *a: calls.append(a) or sublayer(*a))
        logits, trace = model.forward(params, batch, training=True)
        grads = model.backward(params, trace, train.cross_entropy(logits, [0, 1, 2])[1])
        # the last layer's key bias learns only where an earlier layer shares it
        assert np.any(grads["layer0_k_b"] != 0.0) == share_layers
        if not share_layers:
            assert np.all(grads[f"layer{layers - 1}_k_b"] == 0.0)

        w, p, x, _, _, n_queries = calls[-1]  # the last layer's call
        assert n_queries == 1
        dy0 = np.random.default_rng(52).normal(size=(3, cfg.hidden))
        out = {}
        for n in (1, cfg.seq_len):
            (y, back), [probs] = attention_probs(
                sublayer, w, p, x, heads, lambda z: (z, lambda dy, grads: dy), n)
            dy = np.zeros((3, n, cfg.hidden))
            dy[:, 0] = dy0  # nothing past row 0 reaches the classifier
            grads = {k: np.zeros_like(v) for k, v in w.items() if k.startswith(p)}
            dx = back(dy, grads)
            assert probs.shape == (3, heads, n, cfg.seq_len)
            out[n] = {"y": y[:, :1], "dx": dx, **grads}
        one, full = out[1], out[cfg.seq_len]
        # a weight gradient that cancels to a small value keeps the rounding of
        # its terms, so its error is bounded by the sublayer's largest gradient
        largest = max(np.max(np.abs(v)) for k, v in full.items() if k.startswith(p))
        for name in one:
            scale = largest if name.startswith(p) else np.max(np.abs(full[name]))
            np.testing.assert_allclose(one[name], full[name], rtol=1e-13, atol=1e-13 * scale,
                                       err_msg=name)
        # q·b_k is one constant per head, which softmax drops: 0 with one query
        assert np.all(one[p + "k_b"] == 0.0)

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
    whose input part is F*H + L*H (token and position tables) in tokens mode."""
    h, c = cfg.hidden, cfg.classes
    if cfg.input_mode == "continuous":
        input_part = 2 * cfg.seq_len + (cfg.input_dim * h + h)
    else:
        input_part = cfg.input_dim * h + cfg.seq_len * h
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
        # read back from a config block with no use_positional key (None) or one that
        # says false: readers ignore it, as a token model always has a position table
        cfg = model.ModelConfig(input_mode=mode, input_dim=11, seq_len=7, hidden=hidden,
                                layers=layers, heads=heads, classes=5, share_layers=share_layers)
        block = {**asdict(cfg), **({} if use_positional is None
                                   else {"use_positional": use_positional})}
        prefix = b"TSCK" + struct.pack("<I", 1) + _binio.json_block(block) + _binio.json_block({})
        _, read, _ = model._read_prefix(prefix, b"TSCK", 1)
        assert read == cfg
        assert model.count_params(read) == closed_form_params(cfg)

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

    def test_total_is_the_architectural_count(self):
        assert model.count_mult_adds(TINY430, model.TOTAL) == 8_173_792

    @pytest.mark.parametrize("layers", [1, 3])
    def test_executed_hand_formula(self, layers):
        cfg = model.ModelConfig(input_dim=128, seq_len=430, hidden=16, layers=layers,
                                heads=2, classes=6, share_layers=layers > 1)
        L, F, H, C, heads = 430, 128, 16, 6, 2
        last = (2 * L * H + L * F * H      # folded batch norm, mapping
                + 4 * H * H                  # Q, O, W_k,h^T q_h, (probs x) W_v,h^T: no K, V
                + 2 * heads * L * H + 8 * H * H  # scores and weighted sums per head; FFN
                + H * H + H * C)             # pooler, classifier
        full_layer = 12 * L * H * H + 2 * L * L * H
        assert model.count_mult_adds(cfg, model.EXECUTED) == last + (layers - 1) * full_layer
        if layers == 1:
            assert model.count_mult_adds(cfg, model.EXECUTED) == 925_344

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


def _tensors_with(name, value):
    params = model.init_model(small_cfg(), np.random.default_rng(0))
    return model.ModelParams(params.cfg, {**params.tensors, name: value})


def _token_forward(batch):
    cfg = model.ModelConfig(input_mode=model.TOKENS, input_dim=10, seq_len=5, hidden=8,
                            layers=1, heads=2, classes=3)
    return model.forward(model.init_model(cfg, np.random.default_rng(0)), batch)


@pytest.mark.parametrize("build, error, named", [
    (lambda: small_cfg(input_mode="waveform"), ConfigError, "input_mode .* got 'waveform'"),
    (lambda: _tensors_with("cls_b", np.zeros(7, np.float32)), ConfigError,
     r"cls_b has shape \(7,\)"),
    (lambda: _tensors_with("cls_b", np.full(small_cfg().classes, np.nan, np.float32)),
     ConfigError, "cls_b contains NaN"),
    (lambda: _token_forward(np.zeros((2, 6), np.int64)), ValueError,
     r"token batch of shape \(B, 5\), got \(2, 6\)"),
    (lambda: small_cfg(dropout_rate=1.0), ConfigError, r"^dropout_rate must be in \[0, 1\)"),
], ids=["unknown-input-mode", "tensor-wrong-shape", "tensor-nan", "token-batch-wrong-shape",
        "dropout-of-one"])
def test_model_raise_sites_name_their_field(build, error, named):
    with pytest.raises(error, match=named) as raised:
        build()
    assert raised.type is error
