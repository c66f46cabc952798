"""The four binary formats (TSCK, TSCQ, TSFM, TSCV): byte-exact encodings and
typed failures on malformed files."""

import hashlib
import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinysound import audio_io, cli, deploy, dsp, model, tokenizer as tok
from tinysound.audio_io import AudioClip
from tinysound.errors import CheckpointError, DecodeError

from conftest import SR, sine

CFG = model.ModelConfig(input_dim=6, seq_len=5, hidden=4, layers=1, heads=2, classes=3)
META = {"class_names": ["a", "b", "c"], "epoch": 2, "val_acc": 0.5}


def golden_files(tmp_path) -> dict:
    """One seeded file per format; returns suffix -> path."""
    params = model.init_model(CFG, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    opt = {f"{p}__{n}": rng.normal(size=params.tensors[n].shape).astype(np.float32)
           for p in ("m", "v") for n in ("cls_w", "cls_b")}
    paths = {s: tmp_path / f"g{s}" for s in (".tsck", ".tscq", ".tsfm", ".tscv")}
    model.save_checkpoint(paths[".tsck"], params, opt, step=17, metadata=META)
    deploy.save_quantized(paths[".tscq"], deploy.quantize_dynamic(params, metadata=META))
    dsp.save_features(paths[".tsfm"], rng.normal(size=(5, 7)), dsp.MFCC)
    vocab = tok.CurveVocab(tok.CurveSpec(curve_len=4, resolution=16, top_k=10, mode=tok.RELATIVE),
                           [(0, 1, 2, 3), (3, 2, 1, 0), (15, 0, 15, 0)])
    tok.save_vocab(paths[".tscv"], vocab)
    return paths


# SHA-256 of each golden file: the on-disk formats must not change.
GOLDEN_SHA256 = {
    ".tsck": "f4b3dca3a618689e599acb215a9b48fcfe06a891dc2fad7e1208d30fc42a4653",
    ".tscq": "1cab7fc378676d75b3004f975b6181d1440611b31132e86e9d2b8aeeb16cdb6b",
    ".tsfm": "d1f34ef2d7fecda0e1379891f169e3283114c14ff20012685a703f8e2bac88a2",
    ".tscv": "a21b979aea89692cb90c944263345779fd19720ecadd7904f85c5ad100fa2c08",
}


@pytest.mark.parametrize("suffix", sorted(GOLDEN_SHA256))
def test_encodings_byte_identical_to_pinned_digests(tmp_path, suffix):
    data = golden_files(tmp_path)[suffix].read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[suffix]


# ---------------------------------------------------------------------------
# Hand-built malformed checkpoints
# ---------------------------------------------------------------------------

def json_block(obj) -> bytes:
    blob = json.dumps(obj).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def name_block(raw: bytes) -> bytes:
    return struct.pack("<H", len(raw)) + raw


def tsck_bytes(cfg_block=None, meta_block=None, entries=()) -> bytes:
    """A TSCK file whose tensor table holds the given raw entries."""
    return (b"TSCK" + struct.pack("<I", 1)
            + json_block(asdict(CFG) if cfg_block is None else cfg_block)
            + json_block({} if meta_block is None else meta_block)
            + struct.pack("<QI", 0, len(entries)) + b"".join(entries) + b"\x00")


def tscq_bytes(cfg_block) -> bytes:
    return b"TSCQ" + struct.pack("<I", 1) + json_block(cfg_block) + json_block({}) + b"\x00" * 4


def load_tsck(tmp_path, data: bytes):
    path = tmp_path / "bad.tsck"
    path.write_bytes(data)
    return model.load_checkpoint(path)


class TestTypedFailures:
    def test_unknown_config_key_in_tsck(self, tmp_path):
        with pytest.raises(CheckpointError, match="config"):
            load_tsck(tmp_path, tsck_bytes(dict(asdict(CFG), colour="red")))

    def test_unknown_config_key_in_tscq(self, tmp_path):
        path = tmp_path / "bad.tscq"
        path.write_bytes(tscq_bytes(dict(asdict(CFG), colour="red")))
        with pytest.raises(CheckpointError, match="config"):
            deploy.load_quantized(path)

    def test_quantize_cli_exits_two_on_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.tsck"
        path.write_bytes(tsck_bytes(dict(asdict(CFG), colour="red")))
        assert cli.main(["quantize", "--ckpt", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("hidden", ["4", 4.0])
    def test_non_integer_hidden(self, tmp_path, hidden):
        with pytest.raises(CheckpointError, match="hidden"):
            load_tsck(tmp_path, tsck_bytes(dict(asdict(CFG), hidden=hidden)))

    def test_u32_max_dims_in_tensor_entry(self, tmp_path):
        entry = name_block(b"map_w") + struct.pack("<BII", 2, 0xFFFFFFFF, 0xFFFFFFFF)
        with pytest.raises(CheckpointError, match="truncated"):
            load_tsck(tmp_path, tsck_bytes(entries=[entry]))

    def test_u32_max_dims_in_feature_header(self, tmp_path):
        path = tmp_path / "bad.tsfm"
        path.write_bytes(b"TSFM" + struct.pack("<IIB", 0xFFFFFFFF, 0xFFFFFFFF, 0) + b"\x00" * 8)
        with pytest.raises(DecodeError, match="truncated"):
            dsp.load_features(path)

    def test_invalid_utf8_tensor_name(self, tmp_path):
        entry = name_block(b"\xff\xfe") + struct.pack("<BI", 1, 1) + b"\x00" * 4
        with pytest.raises(CheckpointError, match="utf-8"):
            load_tsck(tmp_path, tsck_bytes(entries=[entry]))

    def test_metadata_block_must_be_an_object(self, tmp_path):
        with pytest.raises(CheckpointError, match="metadata"):
            load_tsck(tmp_path, tsck_bytes(meta_block=["not", "an", "object"]))

    def test_class_names_must_match_class_count(self, tmp_path):
        with pytest.raises(CheckpointError, match="class_names"):
            load_tsck(tmp_path, tsck_bytes(meta_block={"class_names": ["only one"]}))


FAST_KEYS = dict(feature="mel", n_fft=512, win_length=512, hop_length=512,
                 n_mels=32, window_samples=8192)


class TestPredictRejectsBadMetadata:
    """predict loads the checkpoint after extracting features, so the model
    here matches the pipeline and only the metadata is wrong."""

    @pytest.mark.parametrize("metadata", [["a", "b", "c"], {"class_names": ["only one"]}])
    def test_exit_code_two(self, tmp_path, capsys, metadata):
        pipeline = cli.pipeline_config(cli.Config({k: str(v) for k, v in FAST_KEYS.items()}))
        mcfg = pipeline.model_config(FAST_KEYS["window_samples"], classes=3)
        params = model.init_model(mcfg, np.random.default_rng(0))
        ckpt = tmp_path / "m.tsck"
        model.save_checkpoint(ckpt, params, metadata=metadata)
        wav = tmp_path / "x.wav"
        audio_io.write_wav(wav, AudioClip(sine(440, 0.5), SR))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in FAST_KEYS.items()))
        assert cli.main(["predict", str(wav), "--config", str(cfg), "--ckpt", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# Damaged files: each decoder returns a usable object or its own error class
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def valid_bytes(tmp_path_factory) -> dict:
    """Bytes of one small valid file per format, keyed by suffix."""
    return {s: p.read_bytes() for s, p in golden_files(tmp_path_factory.mktemp("valid")).items()}


def _resave_checkpoint(path, ck):
    model.save_checkpoint(path, ck.params, ck.opt_tensors, ck.step, ck.metadata)
    model.load_checkpoint(path)


def _resave_quantized(path, q):
    deploy.save_quantized(path, q)
    deploy.load_quantized(path)


def _check_features(path, loaded):
    feats, _ = loaded
    assert feats.ndim == 2 and np.all(np.isfinite(feats))


def _resave_vocab(path, vocab):
    tok.save_vocab(path, vocab)
    tok.load_vocab(path)


LOADERS = {
    ".tsck": (model.load_checkpoint, CheckpointError, _resave_checkpoint),
    ".tscq": (deploy.load_quantized, CheckpointError, _resave_quantized),
    ".tsfm": (dsp.load_features, DecodeError, _check_features),
    ".tscv": (tok.load_vocab, DecodeError, _resave_vocab),
}


def _flip(data: bytes, pos: int, mask: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def damaged(valid: bytes):
    """Random bytes (bare or after the valid file's first 8 bytes), truncations
    and single-byte flips of a valid file."""
    n = len(valid)
    return st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=n).map(lambda tail: valid[:8] + tail),
        st.integers(0, n - 1).map(lambda k: valid[:k]),
        st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(lambda t: _flip(valid, *t)),
    )


@pytest.mark.parametrize("suffix", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_format_error(tmp_path_factory, valid_bytes, suffix, data):
    load, error, check = LOADERS[suffix]
    path = tmp_path_factory.getbasetemp() / f"damaged{suffix}"
    path.write_bytes(data.draw(damaged(valid_bytes[suffix])))
    try:
        loaded = load(path)
    except error:
        return
    check(tmp_path_factory.getbasetemp() / f"resaved{suffix}", loaded)
