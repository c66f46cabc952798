"""Curve quantization, vocabulary building, tokenization, coverage."""

import hashlib
import struct
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinysound import audio_io, cli, tokenizer as tok
from tinysound.audio_io import AudioClip
from tinysound.errors import ConfigError, DecodeError

SR = 44100


def levels_to_wave(levels, resolution=64):
    """Waveform whose quantization recovers the given levels exactly."""
    return (np.asarray(levels, dtype=np.float64) + 0.5) / resolution * 2.0 - 1.0


def vocab_ids(vocab) -> dict[tuple[int, ...], int]:
    """Token id of each vocabulary curve: its rank after the special tokens."""
    return {curve: tok.N_SPECIAL + rank for rank, curve in enumerate(vocab.curves)}


def coverage(vocab, corpus) -> tok.CoverageStats:
    """Both coverage fractions of ``vocab`` over a corpus: of its stride-1
    curves, and of the tokens ``tokenize`` emits."""
    keys = np.concatenate([tok._curve_keys(clip, vocab.spec, 1) for clip in corpus])
    ids = np.concatenate([tok.tokenize(clip, vocab)[1:] for clip in corpus])
    known = lambda a: int(np.count_nonzero(a != tok.UNK_ID))
    return tok.CoverageStats(known(vocab._lookup_keys(keys)) / keys.size,
                             known(ids) / ids.size if ids.size else 0.0, np.unique(keys).size)


def relative_shift(span) -> tuple[int, ...]:
    """Shift a window so its minimum value becomes zero."""
    span = tuple(int(v) for v in span)
    if not span:
        raise ValueError("cannot shift an empty span")
    low = min(span)
    return tuple(v - low for v in span)


def walk_corpus(n_clips=12, length=1500, seed=3, resolution=64):
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n_clips):
        steps = rng.normal(0, 0.01, size=length)
        corpus.append(AudioClip(np.clip(np.cumsum(steps), -1, 1), SR))
    return corpus


class TestQuantize:
    def test_edges_and_midpoint(self):
        clip = AudioClip(np.array([-1.0, 1.0, 0.0]), SR)
        np.testing.assert_array_equal(tok.quantize_signal(clip, 64), [0, 63, 32])

    def test_clamps_out_of_range(self):
        clip = AudioClip(np.array([-2.0, 2.0]), SR)
        np.testing.assert_array_equal(tok.quantize_signal(clip, 64), [0, 63])

    @given(st.integers(0, 2**31 - 1), st.one_of(st.integers(2, 256), st.integers(2, 2**62)))
    @settings(max_examples=40, deadline=None)
    def test_levels_always_in_range(self, seed, resolution):
        x = np.random.default_rng(seed).uniform(-1.2, 1.2, size=100)
        levels = tok.quantize_signal(AudioClip(x, SR), resolution)
        assert levels.min() >= 0 and levels.max() < resolution
        reference = np.floor((np.clip(x, -1.0, 1.0) + 1.0) / 2.0 * resolution).astype(np.int64)
        np.testing.assert_array_equal(levels, np.minimum(reference, resolution - 1))


class TestRelativeShift:
    def test_example(self):
        assert relative_shift((5, 7, 5)) == (0, 2, 0)

    def test_zero_min_is_identity(self):
        assert relative_shift((0, 3, 1)) == (0, 3, 1)

    def test_constant_span_all_zero(self):
        assert relative_shift((9, 9, 9, 9)) == (0, 0, 0, 0)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_min_is_always_zero(self, span):
        assert min(relative_shift(tuple(span))) == 0


class TestBuildVocab:
    @pytest.mark.parametrize("mode", [tok.ABSOLUTE, tok.RELATIVE])
    def test_generator_read_once_and_no_clip_kept(self, mode):
        waves = [clip.samples for clip in walk_corpus(6, 1500)]
        spec = tok.CurveSpec(curve_len=4, top_k=300, mode=mode)
        refs, first_dead_at_last = [], []

        def corpus():
            for samples in waves:
                if len(refs) == len(waves) - 1:
                    first_dead_at_last.append(refs[0]() is None)
                clip = AudioClip(samples, SR)
                refs.append(weakref.ref(clip))
                yield clip
                del clip

        clips = corpus()
        vocab, stats = tok.build_curve_vocab(clips, spec)
        want_vocab, want_stats = tok.build_curve_vocab([AudioClip(w, SR) for w in waves], spec)
        assert vocab.curves == want_vocab.curves and stats == want_stats
        assert len(refs) == len(waves) and next(clips, None) is None
        assert first_dead_at_last == [True]

    def test_constant_clip_single_curve(self):
        clip = AudioClip(np.zeros(100), SR)
        spec = tok.CurveSpec(curve_len=8, top_k=10)
        vocab, stats = tok.build_curve_vocab([clip], spec)
        assert len(vocab) == 1
        assert stats.distinct_curves == 1
        assert stats.vocab_coverage == 1.0

    def test_uncapped_vocab_full_coverage(self):
        corpus = walk_corpus(4, 400)
        spec = tok.CurveSpec(curve_len=8, top_k=10**6)
        vocab, stats = tok.build_curve_vocab(corpus, spec)
        assert stats.vocab_coverage == 1.0
        assert stats.token_coverage == 1.0
        assert len(vocab) == stats.distinct_curves

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            tok.build_curve_vocab([], tok.CurveSpec())

    def test_rank_order_by_count_then_lexicographic(self):
        # 3 windows of curve A=(0,0), 3 of B=(1,1), 1 of C=(2,2): tie A/B
        levels = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        clip = AudioClip(levels_to_wave(levels), SR)
        spec = tok.CurveSpec(curve_len=2, top_k=2)
        vocab, _ = tok.build_curve_vocab([clip], spec)
        # (0,0) and (1,1) both appear 3x; lexicographic tie-break keeps order stable
        assert vocab.curves == [(0, 0), (1, 1)]

    def test_corpus_without_a_window_rejected(self):
        with pytest.raises(ValueError, match="no window"):
            tok.build_curve_vocab([AudioClip(np.zeros(7), SR)], tok.CurveSpec(curve_len=8))

    def test_deterministic_ids_across_rebuilds(self):
        corpus = walk_corpus(6, 600)
        spec = tok.CurveSpec(curve_len=8, top_k=100)
        v1, _ = tok.build_curve_vocab(corpus, spec)
        v2, _ = tok.build_curve_vocab(corpus, spec)
        assert v1.curves == v2.curves


class TestTokenize:
    def test_length_rule(self):
        vocab, _ = tok.build_curve_vocab([AudioClip(np.zeros(64), SR)], tok.CurveSpec())
        ids = tok.tokenize(AudioClip(np.zeros(4096), SR), vocab)
        assert ids.size == 513  # 4096/8 windows plus CLS
        assert ids[0] == tok.CLS_ID

    def test_closure_zero_unk(self):
        corpus = walk_corpus(6, 800)
        vocab, _ = tok.build_curve_vocab(corpus, tok.CurveSpec(top_k=10**6))
        wave = np.concatenate([levels_to_wave(c) for c in vocab.curves[:64]])
        ids = tok.tokenize(AudioClip(wave, SR), vocab)
        assert np.count_nonzero(ids[1:] == tok.UNK_ID) == 0

    def test_unknown_curves_all_unk(self):
        vocab = tok.CurveVocab(tok.CurveSpec(curve_len=4), [(0, 1, 2, 3)])
        wave = levels_to_wave([60, 60, 60, 60] * 5)
        ids = tok.tokenize(AudioClip(wave, SR), vocab)
        assert ids[0] == tok.CLS_ID
        assert np.all(ids[1:] == tok.UNK_ID)

    def test_ids_always_valid(self):
        corpus = walk_corpus(5, 500)
        vocab, _ = tok.build_curve_vocab(corpus, tok.CurveSpec(top_k=50))
        for clip in corpus:
            ids = tok.tokenize(clip, vocab)
            assert ids.min() >= 0 and ids.max() < vocab.vocab_size

    def test_relative_mode_offset_invariant(self):
        rng = np.random.default_rng(8)
        levels = rng.integers(10, 40, size=400)
        spec = tok.CurveSpec(curve_len=8, top_k=10**6, mode=tok.RELATIVE)
        vocab, _ = tok.build_curve_vocab([AudioClip(levels_to_wave(levels), SR)], spec)
        base = tok.tokenize(AudioClip(levels_to_wave(levels), SR), vocab)
        shifted = tok.tokenize(AudioClip(levels_to_wave(levels + 7), SR), vocab)
        np.testing.assert_array_equal(base, shifted)


class TestCoverage:
    def test_training_corpus_full_when_uncapped(self):
        corpus = walk_corpus(4, 300)
        vocab, _ = tok.build_curve_vocab(corpus, tok.CurveSpec(top_k=10**6))
        stats = coverage(vocab, corpus)
        assert stats.token_coverage == 1.0

    def test_disjoint_corpus_zero(self):
        vocab = tok.CurveVocab(tok.CurveSpec(curve_len=4), [(0, 0, 0, 0)])
        novel = AudioClip(levels_to_wave([30, 40, 50, 60] * 10), SR)
        stats = coverage(vocab, [novel])
        assert stats.token_coverage == 0.0

    def test_relative_beats_absolute_brute_force(self):
        """Merging offset-equivalent curves concentrates counts in the top-k."""
        corpus = walk_corpus(10, 1200, seed=17)
        cap = 200
        abs_vocab, abs_stats = tok.build_curve_vocab(
            corpus, tok.CurveSpec(top_k=cap, mode=tok.ABSOLUTE))
        rel_vocab, rel_stats = tok.build_curve_vocab(
            corpus, tok.CurveSpec(top_k=cap, mode=tok.RELATIVE))

        # independent brute-force recount with plain dict/loops
        def brute(mode):
            counts = {}
            total = 0
            for clip in corpus:
                levels = tok.quantize_signal(clip, 64).tolist()
                for i in range(len(levels) - 7):
                    win = tuple(levels[i : i + 8])
                    if mode == tok.RELATIVE:
                        low = min(win)
                        win = tuple(v - low for v in win)
                    counts[win] = counts.get(win, 0) + 1
                    total += 1
            top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
            return sum(c for _, c in top) / total

        assert abs(abs_stats.vocab_coverage - brute(tok.ABSOLUTE)) < 1e-12
        assert abs(rel_stats.vocab_coverage - brute(tok.RELATIVE)) < 1e-12
        assert rel_stats.vocab_coverage >= abs_stats.vocab_coverage

    def test_token_coverage_matches_brute_force(self):
        corpus = walk_corpus(5, 640, seed=23)
        vocab, stats = tok.build_curve_vocab(corpus, tok.CurveSpec(top_k=80))
        ids = vocab_ids(vocab)
        known = 0
        emitted = 0
        for clip in corpus:
            levels = tok.quantize_signal(clip, 64).tolist()
            for i in range(0, len(levels) - 7, 8):
                emitted += 1
                if tuple(levels[i : i + 8]) in ids:
                    known += 1
        assert stats.token_coverage == known / emitted


class TestVocabFile:
    def test_roundtrip(self, tmp_path):
        corpus = walk_corpus(4, 500)
        vocab, _ = tok.build_curve_vocab(corpus, tok.CurveSpec(top_k=64))
        path = tmp_path / "v.tscv"
        tok.save_vocab(path, vocab)
        loaded = tok.load_vocab(path)
        assert loaded.spec == vocab.spec
        assert loaded.curves == vocab.curves
        for clip in corpus:
            np.testing.assert_array_equal(tok.tokenize(clip, loaded), tok.tokenize(clip, vocab))

    def test_truncated_rejected(self, tmp_path):
        corpus = walk_corpus(2, 200)
        vocab, _ = tok.build_curve_vocab(corpus, tok.CurveSpec(top_k=16))
        path = tmp_path / "v.tscv"
        tok.save_vocab(path, vocab)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DecodeError):
            tok.load_vocab(path)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            tok.CurveSpec(curve_len=0)
        with pytest.raises(ConfigError):
            tok.CurveSpec(resolution=1)
        with pytest.raises(ConfigError):
            tok.CurveSpec(mode="both")
        with pytest.raises(ConfigError, match="^top_k must be >= 1"):
            tok.CurveSpec(top_k=0)

    @pytest.mark.parametrize("curve_len,resolution", [(63, 2), (8, 256), (8, 235), (11, 64),
                                                      (2**32 - 1, 64)])
    def test_key_bound_rejected(self, curve_len, resolution):
        with pytest.raises(ConfigError, match=r"2\*\*63"):
            tok.CurveSpec(curve_len=curve_len, resolution=resolution)

    @pytest.mark.parametrize("curve_len,resolution", [(62, 2), (8, 234), (7, 256), (10, 64)])
    def test_key_bound_largest_accepted(self, curve_len, resolution):
        spec = tok.CurveSpec(curve_len=curve_len, resolution=resolution)
        top = (resolution - 1,) * curve_len
        vocab = tok.CurveVocab(spec, [top, (0,) * curve_len])
        wave = levels_to_wave(top + (0,) * curve_len + (0,) * (curve_len - 1) + (1,), resolution)
        np.testing.assert_array_equal(tok.tokenize(AudioClip(wave, SR), vocab),
                                      [tok.CLS_ID, tok.N_SPECIAL, tok.N_SPECIAL + 1, tok.UNK_ID])

    @pytest.mark.parametrize("mode", [tok.ABSOLUTE, tok.RELATIVE])
    @pytest.mark.parametrize("curve_len,resolution", [(10, 64), (7, 256), (62, 2)])
    def test_keys_at_the_bound_match_python_ints(self, curve_len, resolution, mode):
        spec = tok.CurveSpec(curve_len=curve_len, resolution=resolution, mode=mode)
        rng = np.random.default_rng(curve_len)
        # the largest key, then a top run cut by a 0 (the largest relative key), then noise
        levels = ([resolution - 1] * curve_len + [0] + [resolution - 1] * curve_len
                  + rng.integers(0, resolution, size=5 * curve_len).tolist())
        clip = AudioClip(levels_to_wave(levels, resolution), SR)
        for stride in (1, curve_len):
            want = []
            for i in range(0, len(levels) - curve_len + 1, stride):
                win = levels[i : i + curve_len]
                low = min(win) if mode == tok.RELATIVE else 0
                want.append(sum((v - low) * resolution ** (curve_len - 1 - j)
                                for j, v in enumerate(win)))
            assert tok._curve_keys(clip, spec, stride).tolist() == want
        assert max(want) < 2**63 and (mode == tok.RELATIVE or want[0] == resolution**curve_len - 1)

    @pytest.mark.parametrize("curve_len,resolution", [(8, 256), (2**32 - 1, 2)])
    def test_header_beyond_key_bound_is_decode_error(self, tmp_path, curve_len, resolution):
        path = tmp_path / "v.tscv"
        path.write_bytes(b"TSCV" + struct.pack("<IIIBI", curve_len, resolution, 10, 0, 0))
        with pytest.raises(DecodeError, match=r"2\*\*63"):
            tok.load_vocab(path)

    # each error reports the offset of the field it was reading: the magic at 0,
    # curve_len, resolution and top_k at 4, the mode byte at 16, the count at 17
    # and the curves at 21
    @pytest.mark.parametrize("data, offset", [
        (b"TSCK" + struct.pack("<IIIBI", 8, 64, 10, 0, 0), 0),
        (b"TSCV" + struct.pack("<III", 8, 300, 10), 4),
        (b"TSCV" + struct.pack("<IIIB", 8, 64, 10, 7), 16),
        (b"TSCV" + struct.pack("<IIIB", 8, 64, 10, 0) + b"\x02\x00", 17),
        (b"TSCV" + struct.pack("<IIIBI", 8, 64, 10, 0, 2) + bytes(11), 21),
    ], ids=["magic", "resolution", "mode", "cut-count", "cut-curves"])
    def test_decode_error_reports_the_field_offset(self, tmp_path, data, offset):
        path = tmp_path / "v.tscv"
        path.write_bytes(data)
        with pytest.raises(DecodeError, match=rf"\(at byte offset {offset}\)$") as raised:
            tok.load_vocab(path)
        assert raised.value.offset == offset

    @pytest.mark.parametrize("curves", [
        [(0, 1, 2)],  # wrong length
        [(0, 1, 2, 3), (0, 1)],  # ragged
        [(0, 1, 2, -1)],
        [(0, 1, 2, 64)],
        [(0, 1, 2, 3), (0, 1, 2, 3)],
        [(i, 0, 0, 0) for i in range(11)],  # more than top_k
    ])
    def test_bad_curves_rejected(self, curves):
        with pytest.raises(ConfigError):
            tok.CurveVocab(tok.CurveSpec(curve_len=4, top_k=10), curves)


# ---------------------------------------------------------------------------
# The integer-key implementation against a tuple/Counter/dict oracle
# ---------------------------------------------------------------------------

def oracle(corpus, spec):
    """Curves, CoverageStats and a tokenize function, by tuples and dicts."""
    def windows(clip, stride):
        levels = tok.quantize_signal(clip, spec.resolution).tolist()
        for i in range(0, len(levels) - spec.curve_len + 1, stride):
            win = levels[i : i + spec.curve_len]
            yield tuple(v - min(win) for v in win) if spec.mode == tok.RELATIVE else tuple(win)

    counts = Counter(win for clip in corpus for win in windows(clip, 1))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[: spec.top_k]
    curves = [curve for curve, _ in ranked]
    ids = {curve: tok.N_SPECIAL + rank for rank, curve in enumerate(curves)}

    def tokenize(clip):
        return [tok.CLS_ID] + [ids.get(w, tok.UNK_ID) for w in windows(clip, spec.curve_len)]

    total = sum(counts.values())
    tokens = [i for clip in corpus for i in tokenize(clip)[1:]]
    known = sum(i != tok.UNK_ID for i in tokens)
    stats = tok.CoverageStats(sum(c for _, c in ranked) / total if total else 0.0,
                              known / len(tokens) if tokens else 0.0, len(counts))
    return curves, stats, tokenize


@st.composite
def specs(draw):
    curve_len = draw(st.integers(1, 8))
    top = 256
    while top**curve_len >= 2**63:
        top -= 1
    return tok.CurveSpec(curve_len, draw(st.integers(2, top)), draw(st.integers(1, 6)),
                         draw(st.sampled_from([tok.ABSOLUTE, tok.RELATIVE])))


@st.composite
def clips(draw, resolution):
    """Waves over a few adjacent levels, so curves repeat and counts tie."""
    low = draw(st.integers(0, resolution - 1))
    levels = draw(st.lists(st.integers(low, min(low + 2, resolution - 1)), max_size=40))
    return AudioClip(levels_to_wave(levels, resolution), SR)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matches_tuple_oracle(data):
    spec = data.draw(specs())
    corpus = data.draw(st.lists(clips(spec.resolution), max_size=4))
    probe = data.draw(clips(spec.resolution))
    curves, stats, tokenize = oracle(corpus, spec)
    if not curves:
        with pytest.raises(ValueError, match="empty corpus" if not corpus else "no window"):
            tok.build_curve_vocab(corpus, spec)
        return
    vocab, got = tok.build_curve_vocab(corpus, spec)
    assert vocab.curves == curves
    assert got == stats
    assert coverage(vocab, corpus) == stats
    with tempfile.TemporaryDirectory() as tmp:  # the TSCV file's constructor call, too
        tok.save_vocab(Path(tmp) / "v.tscv", vocab)
        loaded = tok.load_vocab(Path(tmp) / "v.tscv")
    assert all(np.array_equal(getattr(loaded, name), getattr(vocab, name))
               for name in ("levels", "_sorted_keys", "_sorted_ids"))
    for clip in corpus + [probe]:
        got = tok.tokenize(clip, vocab).tolist()
        assert got == tokenize(clip) == tok.tokenize(clip, loaded).tolist()


# ---------------------------------------------------------------------------
# build-vocab end to end, pinned to the output of the tuple implementation
# ---------------------------------------------------------------------------

# SHA-256 of the TSCV file and the stats line, per mode, taken with the
# Counter-of-tuples tokenizer that the integer keys replaced.
BUILD_VOCAB_GOLDEN = {
    tok.ABSOLUTE: ("df8475753c17f1bef4a21fdd5fffb5cffd7dada782c41656c8d2224f8df71ddd",
                   "vocab of 150 curves (absolute) from 9375 distinct; "
                   "vocab_coverage=0.5687 token_coverage=0.5671"),
    tok.RELATIVE: ("bd25aab67feb6cf30617111e4937d0f9f574a92d754b317b85e55ed86a5162ac",
                   "vocab of 150 curves (relative) from 1059 distinct; "
                   "vocab_coverage=0.8637 token_coverage=0.8637"),
}


@pytest.fixture(scope="module")
def walk_dataset(tmp_path_factory):
    """Two classes of three PCM16 random walks, 0.25 s each, from integer steps."""
    root = tmp_path_factory.mktemp("walks")
    rng = np.random.default_rng(11)
    for name in ("a", "b"):
        (root / name).mkdir()
        for i in range(3):
            pcm = np.clip(np.cumsum(rng.integers(-2500, 2501, size=11025)), -32768, 32767)
            audio_io.write_wav(root / name / f"{name}{i}.wav", AudioClip(pcm / 32768.0, SR))
    return root


@pytest.mark.parametrize("mode", sorted(BUILD_VOCAB_GOLDEN))
def test_build_vocab_output_pinned(walk_dataset, tmp_path, capsys, mode):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data_root = {walk_dataset}\nlayout = folder_per_class\ncurve_len = 6\n"
                   f"resolution = 32\ntop_k = 150\ncurve_mode = {mode}\n")
    out = tmp_path / "v.tscv"
    assert cli.main(["build-vocab", "--config", str(cfg), "--out", str(out)]) == 0
    digest, line = BUILD_VOCAB_GOLDEN[mode]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.splitlines()[0] == line


@pytest.mark.parametrize("resolution", [257, 1024])
def test_tokenizer_raise_sites_name_their_field(tmp_path, resolution):
    vocab = tok.CurveVocab(tok.CurveSpec(curve_len=2, resolution=resolution),
                           [(0, resolution - 1)])
    with pytest.raises(ConfigError, match="resolution must be <= 256") as raised:
        tok.save_vocab(tmp_path / "v.tscv", vocab)
    assert raised.type is ConfigError
    assert not (tmp_path / "v.tscv").exists()
