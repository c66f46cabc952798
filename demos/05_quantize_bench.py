"""
Quantization and size accounting
--------------------------------

Takes the reference tiny configuration, quantizes every linear weight to
int8 with one symmetric scale per tensor, and compares prediction
agreement against the float path and serialized sizes against the 256 KB
microcontroller budget. Latency is measured end to end, from WAV bytes, by
``python3 perfbench/run.py --workload infer``.
"""

import tempfile
from pathlib import Path

import numpy as np

from tinysound import deploy, model

cfg = model.ModelConfig(input_dim=128, seq_len=430, hidden=16, layers=1,
                        heads=2, classes=6)
params = model.init_model(cfg, np.random.default_rng(1))
print(f"model: {model.count_params(cfg):,} parameters")
print(f"mult-adds per forward pass: {model.count_mult_adds(cfg, model.TOTAL):,}")

qparams = deploy.quantize_dynamic(params)
ratio = deploy.weight_payload_bytes(qparams) / deploy.weight_payload_bytes(params)
print(f"\nint8 weight payload: {deploy.weight_payload_bytes(qparams)} bytes "
      f"({ratio:.0%} of float32)")

# How often does the quantized model agree with the float one?
rng = np.random.default_rng(9)
agree = total = 0
for _ in range(5):
    batch = rng.normal(size=(100, 430, 128))
    f32 = model.forward(params, batch).argmax(axis=1)
    int8 = deploy.qforward(qparams, batch).argmax(axis=1)
    agree += int((f32 == int8).sum())
    total += batch.shape[0]
print(f"argmax agreement: {agree}/{total}")

with tempfile.TemporaryDirectory() as tmp:
    fpath = Path(tmp) / "model.tsck"
    qpath = Path(tmp) / "model.tscq"
    model.save_checkpoint(fpath, params)
    deploy.save_quantized(qpath, qparams)
    print(f"float checkpoint:     {fpath.stat().st_size:6d} bytes")
    print(f"quantized checkpoint: {qpath.stat().st_size:6d} bytes "
          f"(budget: {256 * 1024})")
