"""Curve quantization, vocabulary building, tokenization, coverage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinysound import tokenizer as tok
from tinysound.audio_io import AudioClip
from tinysound.errors import ConfigError, DecodeError

SR = 44100


def levels_to_wave(levels, resolution=64):
    """Waveform whose quantization recovers the given levels exactly."""
    return (np.asarray(levels, dtype=np.float64) + 0.5) / resolution * 2.0 - 1.0


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

    @given(st.integers(0, 2**31 - 1), st.integers(2, 256))
    @settings(max_examples=40, deadline=None)
    def test_levels_always_in_range(self, seed, resolution):
        x = np.random.default_rng(seed).uniform(-1.2, 1.2, size=100)
        levels = tok.quantize_signal(AudioClip(x, SR), resolution)
        assert levels.min() >= 0 and levels.max() < resolution


class TestRelativeShift:
    def test_example(self):
        assert tok.relative_shift((5, 7, 5)) == (0, 2, 0)

    def test_zero_min_is_identity(self):
        assert tok.relative_shift((0, 3, 1)) == (0, 3, 1)

    def test_constant_span_all_zero(self):
        assert tok.relative_shift((9, 9, 9, 9)) == (0, 0, 0, 0)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_min_is_always_zero(self, span):
        assert min(tok.relative_shift(tuple(span))) == 0


class TestBuildVocab:
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

    def test_deterministic_ids_across_rebuilds(self):
        corpus = walk_corpus(6, 600)
        spec = tok.CurveSpec(curve_len=8, top_k=100)
        v1, _ = tok.build_curve_vocab(corpus, spec)
        v2, _ = tok.build_curve_vocab(corpus, spec)
        assert v1.curves == v2.curves
        assert v1.ids == v2.ids


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
        stats = tok.coverage(vocab, corpus)
        assert stats.token_coverage == 1.0

    def test_disjoint_corpus_zero(self):
        vocab = tok.CurveVocab(tok.CurveSpec(curve_len=4), [(0, 0, 0, 0)])
        novel = AudioClip(levels_to_wave([30, 40, 50, 60] * 10), SR)
        stats = tok.coverage(vocab, [novel])
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
        known = 0
        emitted = 0
        for clip in corpus:
            levels = tok.quantize_signal(clip, 64).tolist()
            for i in range(0, len(levels) - 7, 8):
                emitted += 1
                if tuple(levels[i : i + 8]) in vocab.ids:
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
        assert loaded.ids == vocab.ids

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
