"""Dynamic int8 quantization, quantized inference, and benchmarking."""

import json

import numpy as np
import pytest

from tinysound import deploy, model, train
from tinysound.errors import CheckpointError

TINY = model.ModelConfig(input_dim=128, seq_len=430, hidden=16, layers=1,
                         heads=2, classes=6)


def tiny_params(seed=1):
    return model.init_model(TINY, np.random.default_rng(seed))


class TestQuantizeDynamic:
    def test_example_values(self):
        params = tiny_params()
        params.tensors["cls_w"][...] = 0.0
        params.tensors["cls_w"][0, 0] = 0.5
        params.tensors["cls_w"][0, 1] = -1.0
        q = deploy.quantize_dynamic(params)
        assert q.scales["cls_w"] == pytest.approx(1.0 / 127.0)
        assert q.int8_weights["cls_w"][0, 0] == 64  # 63.5 rounds half away
        assert q.int8_weights["cls_w"][0, 1] == -127

    def test_dequantization_error_bounded(self):
        params = tiny_params(2)
        q = deploy.quantize_dynamic(params)
        deq = q.dequantize()
        for name, scale in q.scales.items():
            err = np.abs(deq.tensors[name].astype(np.float64)
                         - params.tensors[name].astype(np.float64))
            assert err.max() <= scale / 2 + 1e-9, name

    def test_all_zero_tensor_degenerate_rule(self):
        params = tiny_params(3)
        params.tensors["pooler_w"][...] = 0.0
        q = deploy.quantize_dynamic(params)
        assert q.scales["pooler_w"] == 1.0
        np.testing.assert_array_equal(q.int8_weights["pooler_w"], 0)

    def test_int8_range(self):
        q = deploy.quantize_dynamic(tiny_params(4))
        for tensor in q.int8_weights.values():
            assert np.abs(tensor.astype(np.int64)).max() <= 127

    def test_idempotent(self):
        q1 = deploy.quantize_dynamic(tiny_params(5))
        q2 = deploy.quantize_dynamic(q1.dequantize())
        for name in q1.int8_weights:
            np.testing.assert_array_equal(q1.int8_weights[name], q2.int8_weights[name])
            assert q1.scales[name] == q2.scales[name]

    def test_storage_quarter_of_float(self):
        params = tiny_params(6)
        q = deploy.quantize_dynamic(params)
        assert deploy.weight_payload_bytes(q) * 4 == deploy.weight_payload_bytes(params)


class TestQforward:
    def test_argmax_agreement(self):
        params = tiny_params(7)
        q = deploy.quantize_dynamic(params)
        rng = np.random.default_rng(8)
        agree = 0
        for _ in range(4):
            batch = rng.normal(size=(50, 430, 128))
            f32 = model.forward(params, batch)
            int8 = deploy.qforward(q, batch)
            agree += int((f32.argmax(1) == int8.argmax(1)).sum())
        assert agree >= 0.95 * 200

    def test_deterministic(self):
        q = deploy.quantize_dynamic(tiny_params(9))
        batch = np.random.default_rng(10).normal(size=(2, 430, 128))
        np.testing.assert_array_equal(deploy.qforward(q, batch), deploy.qforward(q, batch))

    def test_zero_input_keeps_symmetric_logits(self):
        params = tiny_params(11)
        params.tensors["cls_w"][...] = 0.0
        params.tensors["cls_b"][...] = 0.0
        q = deploy.quantize_dynamic(params)
        logits = deploy.qforward(q, np.zeros((2, 430, 128)))
        np.testing.assert_allclose(logits - logits[:, :1], 0.0, atol=1e-12)

    def test_logit_deviation_within_regression_bound(self):
        # measured on the reference tiny config at init scale; frozen here
        params = tiny_params(12)
        q = deploy.quantize_dynamic(params)
        batch = np.random.default_rng(13).normal(size=(20, 430, 128))
        dev = np.abs(model.forward(params, batch) - deploy.qforward(q, batch)).max()
        assert dev < 5e-3


class TestQuantizedFile:
    def test_roundtrip(self, tmp_path):
        q = deploy.quantize_dynamic(tiny_params(14))
        path = tmp_path / "m.tscq"
        deploy.save_quantized(path, q)
        loaded = deploy.load_quantized(path)
        assert loaded.cfg == q.cfg
        for name in q.int8_weights:
            np.testing.assert_array_equal(loaded.int8_weights[name], q.int8_weights[name])
            assert loaded.scales[name] == pytest.approx(q.scales[name], rel=1e-7)
        for name in q.float_tensors:
            np.testing.assert_array_equal(loaded.float_tensors[name], q.float_tensors[name])

    def test_checkpoint_small_enough_for_microcontroller(self, tmp_path):
        q = deploy.quantize_dynamic(tiny_params(15))
        path = tmp_path / "m.tscq"
        deploy.save_quantized(path, q)
        assert path.stat().st_size <= 256 * 1024

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tscq"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            deploy.load_quantized(path)

    def test_truncation_rejected(self, tmp_path):
        q = deploy.quantize_dynamic(tiny_params(16))
        path = tmp_path / "t.tscq"
        deploy.save_quantized(path, q)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError):
            deploy.load_quantized(path)


class TestBench:
    def _pipeline(self):
        return train.PipelineConfig()  # mel, 128 bands, hop 512

    def test_report_structure(self):
        report = deploy.bench(tiny_params(17), self._pipeline(), 220500)
        assert report.runs == 10
        assert report.min_ms <= report.mean_ms <= report.max_ms
        assert report.param_count == 6642
        assert report.serialized_bytes > 0
        line = report.to_json_line()
        assert '"runs": 10' in line

    def test_serialized_bytes_of_a_trained_tsck_and_a_tscq(self, tmp_path):
        # a TSCK is re-encoded from its weights alone, without the Adam
        # moments, step and metadata of the file; a TSCQ counts whole
        params, meta = tiny_params(22), {"epoch": 3, "val_acc": 0.5}
        tsck = tmp_path / "best.tsck"
        model.save_checkpoint(tsck, params, train.zero_moments(params), step=40, metadata=meta)
        report = deploy.bench(model.load_checkpoint(tsck).params, self._pipeline(), 220500)
        assert report.serialized_bytes == len(model.encode_checkpoint(params))
        assert report.serialized_bytes < tsck.stat().st_size / 2
        tscq = tmp_path / "best.tscq"
        deploy.save_quantized(tscq, deploy.quantize_dynamic(params, meta))
        report = deploy.bench(deploy.load_quantized(tscq), self._pipeline(), 220500)
        assert report.serialized_bytes == tscq.stat().st_size

    def test_order_statistics_and_first_call(self):
        report = deploy.bench(tiny_params(21), self._pipeline(), 220500)
        assert report.min_ms <= report.median_ms <= report.p90_ms <= report.max_ms
        assert report.first_call_ms > 0
        assert {"median_ms", "p90_ms", "first_call_ms"} <= set(json.loads(report.to_json_line()))

    def test_tiny_model_faster_than_large(self):
        pipeline = self._pipeline()
        tiny = deploy.bench(tiny_params(18), pipeline, 220500)
        large_cfg = model.ModelConfig(
            input_dim=128, seq_len=86, hidden=256, layers=16, heads=16,
            classes=50, share_layers=True)
        large_params = model.init_model(large_cfg, np.random.default_rng(19))
        large = deploy.bench(large_params, pipeline, 44100)
        assert large.param_count > 900_000
        assert tiny.mean_ms < large.mean_ms

    def test_quantized_latency_comparable(self):
        # dequantize-once inference keeps quantized latency within 10% of f32
        large_cfg = model.ModelConfig(
            input_dim=128, seq_len=86, hidden=256, layers=16, heads=16,
            classes=50, share_layers=True)
        params = model.init_model(large_cfg, np.random.default_rng(20))
        pipeline, quantized = self._pipeline(), deploy.quantize_dynamic(params)
        # alternating rounds share out whatever else the machine is running
        f32_ms, q_ms = [], []
        for _ in range(4):
            f32_ms.append(deploy.bench(params, pipeline, 44100).min_ms)
            q_ms.append(deploy.bench(quantized, pipeline, 44100).min_ms)
        assert min(q_ms) <= min(f32_ms) * 1.1
