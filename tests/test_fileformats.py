"""The three binary formats (TSCK, TSCQ, TSCV): byte-exact encodings and
typed failures on malformed files."""

import hashlib
import json
import os
import struct
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinysound import audio_io, cli, deploy, model, tokenizer as tok, train
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
    paths = {s: tmp_path / f"g{s}" for s in (".tsck", ".tscq", ".tscv")}
    model.save_checkpoint(paths[".tsck"], params, opt, step=17, metadata=META)
    deploy.save_quantized(paths[".tscq"], deploy.quantize_dynamic(params, metadata=META))
    vocab = tok.CurveVocab(tok.CurveSpec(curve_len=4, resolution=16, top_k=10, mode=tok.RELATIVE),
                           [(0, 1, 2, 3), (3, 2, 1, 0), (15, 0, 15, 0)])
    tok.save_vocab(paths[".tscv"], vocab)
    return paths


# SHA-256 of each golden file: the on-disk formats must not change.
GOLDEN_SHA256 = {
    ".tsck": "f4b3dca3a618689e599acb215a9b48fcfe06a891dc2fad7e1208d30fc42a4653",
    ".tscq": "1cab7fc378676d75b3004f975b6181d1440611b31132e86e9d2b8aeeb16cdb6b",
    ".tscv": "a21b979aea89692cb90c944263345779fd19720ecadd7904f85c5ad100fa2c08",
}


@pytest.mark.parametrize("suffix", sorted(GOLDEN_SHA256))
def test_encodings_byte_identical_to_pinned_digests(tmp_path, suffix):
    data = golden_files(tmp_path)[suffix].read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256[suffix]


def test_saves_leave_no_tmp_file(tmp_path):
    golden_files(tmp_path)
    audio_io.write_wav(tmp_path / "g.wav", AudioClip(sine(440, 0.1), SR))
    train.write_metrics_csv(tmp_path / "g.csv", [{"epoch": 0, "train_loss": 1.0, "val_acc": 0.5}])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "g.csv", "g.tsck", "g.tscq", "g.tscv", "g.wav"]


def test_failed_replace_keeps_the_old_file(tmp_path, monkeypatch):
    path = golden_files(tmp_path)[".tsck"]
    old = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        model.save_checkpoint(path, model.init_model(CFG, np.random.default_rng(9)))
    assert path.read_bytes() == old
    assert not path.with_name(path.name + ".tmp").exists()


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

    def test_invalid_utf8_tensor_name(self, tmp_path):
        entry = name_block(b"\xff\xfe") + struct.pack("<BI", 1, 1) + b"\x00" * 4
        with pytest.raises(CheckpointError, match="utf-8"):
            load_tsck(tmp_path, tsck_bytes(entries=[entry]))

    def test_tensor_named_twice_in_tsck(self, tmp_path):
        params = model.init_model(CFG, np.random.default_rng(7))
        entries = [model._entry_bytes(n, t) for n, t in [*params.tensors.items(),
                                                          ("cls_b", params.tensors["cls_b"])]]
        with pytest.raises(CheckpointError, match="tensor cls_b appears twice"):
            load_tsck(tmp_path, tsck_bytes(entries=entries))

    def test_tensor_named_twice_in_tscq(self, tmp_path):
        # an int8 cls_w and a stale float32 copy of it, which encode_quantized writes back
        params = model.init_model(CFG, np.random.default_rng(7))
        q = deploy.quantize_dynamic(params)
        path = tmp_path / "bad.tscq"
        deploy.save_quantized(path, replace(q, float_tensors={**q.float_tensors,
                                                              "cls_w": params.tensors["cls_w"]}))
        with pytest.raises(CheckpointError, match="tensor cls_w appears twice"):
            deploy.load_quantized(path)

    def test_metadata_block_must_be_an_object(self, tmp_path):
        with pytest.raises(CheckpointError, match="metadata"):
            load_tsck(tmp_path, tsck_bytes(meta_block=["not", "an", "object"]))

    def test_class_names_must_match_class_count(self, tmp_path):
        with pytest.raises(CheckpointError, match="class_names"):
            load_tsck(tmp_path, tsck_bytes(meta_block={"class_names": ["only one"]}))

    @pytest.mark.parametrize("scale", [3e38, np.inf, np.nan, 0.0, -1.0])
    def test_tscq_scale_must_be_finite_positive_and_in_range(self, tmp_path, scale):
        valid = golden_files(tmp_path)[".tscq"].read_bytes()
        head = name_block(b"cls_w") + struct.pack("<B", model._I8)
        at = valid.index(head) + len(head)
        load_tscq_rejecting_scale(tmp_path, valid[:at] + struct.pack("<f", scale) + valid[at + 4:])

    def test_tscq_flip_into_an_overflowing_scale(self, tmp_path):
        # found by the damaged-file property test: layer0_ffn_in_w's scale
        # becomes 2.7e37, and 127 times that passes float32's range
        valid = golden_files(tmp_path)[".tscq"].read_bytes()
        load_tscq_rejecting_scale(tmp_path, _flip(valid, 1351, 68))


TOKEN_CFG = replace(CFG, input_mode="tokens", input_dim=10)


class TestUsePositionalKey:
    """The config block's ``use_positional``: written as ``input_mode == "tokens"``,
    dropped on reading."""

    @pytest.mark.parametrize("cfg", [CFG, TOKEN_CFG], ids=["continuous", "tokens"])
    def test_written_true_for_token_models(self, cfg):
        data = model.encode_checkpoint(model.init_model(cfg, np.random.default_rng(7)))
        (size,) = struct.unpack_from("<I", data, 8)
        block = json.loads(data[12 : 12 + size])
        assert block == {**asdict(cfg), "use_positional": cfg.input_mode == "tokens"}

    def test_block_without_it_loads(self, tmp_path):
        params = model.init_model(TOKEN_CFG, np.random.default_rng(7))
        entries = [model._entry_bytes(n, t) for n, t in params.tensors.items()]
        loaded = load_tsck(tmp_path, tsck_bytes(asdict(TOKEN_CFG), entries=entries)).params
        assert loaded.cfg == TOKEN_CFG
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], tensor)

    @pytest.mark.parametrize("suffix", [".tsck", ".tscq"])
    def test_token_file_without_positions_names_pos_emb(self, tmp_path, suffix):
        # as a writer that let token models go without positions would have saved one
        params = model.init_model(TOKEN_CFG, np.random.default_rng(7))
        block = {**asdict(TOKEN_CFG), "use_positional": False}
        path = tmp_path / f"bad{suffix}"
        if suffix == ".tsck":
            path.write_bytes(tsck_bytes(block, entries=[
                model._entry_bytes(n, t) for n, t in params.tensors.items() if n != "pos_emb"]))
            load = model.load_checkpoint
        else:
            q = deploy.quantize_dynamic(params)
            entries = [model._entry_bytes(n, t, model._F32)
                       for n, t in q.float_tensors.items() if n != "pos_emb"]
            entries += [model._entry_bytes(n, t, model._I8, q.scales[n])
                        for n, t in q.int8_weights.items()]
            path.write_bytes(tscq_bytes(block)[:-4] + struct.pack("<I", len(entries))
                             + b"".join(entries))
            load = deploy.load_quantized
        with pytest.raises(CheckpointError, match=r"tensors: .*missing \{'pos_emb'\}"):
            load(path)


def load_tscq_rejecting_scale(tmp_path, data: bytes) -> None:
    path = tmp_path / "bad.tscq"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CheckpointError, match="scale"):
            deploy.load_quantized(path)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


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


def _resave_vocab(path, vocab):
    tok.save_vocab(path, vocab)
    tok.load_vocab(path)


LOADERS = {
    ".tsck": (model.load_checkpoint, CheckpointError, _resave_checkpoint),
    ".tscq": (deploy.load_quantized, CheckpointError, _resave_quantized),
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
