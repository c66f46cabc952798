"""Spectral features: STFT/iSTFT, mel filterbank, MFCC, reshaping."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from tinysound import dsp
from tinysound.audio_io import AudioClip
from tinysound.errors import ConfigError

from conftest import SR, sine

CFG = dsp.SpectrogramConfig()  # 1024 fft, hop 512, 128 mels, 44.1 kHz


def white_noise(n, seed=0, scale=0.1):
    return scale * np.random.default_rng(seed).normal(size=n)


class TestConfig:
    def test_rejects_window_longer_than_fft(self):
        with pytest.raises(ConfigError):
            dsp.SpectrogramConfig(n_fft=512, win_length=1024)

    def test_rejects_too_many_mels(self):
        # n_fft // 2 + 1 bands is the most a spectrum of n_fft bins can hold
        cfg = dsp.SpectrogramConfig(n_fft=64, win_length=64, n_mels=33)
        assert np.isfinite(dsp.mel_spectrogram(AudioClip(white_noise(SR), SR), cfg)).all()
        with pytest.raises(ConfigError, match=r"^n_mels 34 exceeds n_fft/2\+1 = 33$"):
            dsp.SpectrogramConfig(n_fft=64, win_length=64, n_mels=34)

    def test_rejects_bad_hop(self):
        with pytest.raises(ConfigError):
            dsp.SpectrogramConfig(hop_length=0)

    @pytest.mark.parametrize("field, value", [("win_length", 0), ("win_length", -600),
                                              ("n_mels", 0), ("n_mels", -1)])
    def test_rejects_nonpositive_window_and_mels(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            dsp.SpectrogramConfig(**{field: value})


class TestStft:
    def test_bin_centered_sine_peaks_at_its_bin(self):
        freq = 10 * SR / CFG.n_fft
        mags = np.abs(dsp.stft(sine(freq), CFG))
        assert np.all(mags[5:-5].argmax(axis=1) == 10)

    def test_zero_signal_zero_spectrogram(self):
        spec = dsp.stft(np.zeros(8192), CFG)
        np.testing.assert_array_equal(spec, 0)

    def test_frame_count_matches_hop_rule(self):
        spec = dsp.stft(np.zeros(220500), CFG)
        assert spec.shape == (430, CFG.n_bins)
        assert dsp.frame_count(44100, 512) == 86

    def test_linearity(self):
        x = white_noise(9000, seed=4)
        a = dsp.stft(2.5 * x, CFG)
        b = 2.5 * dsp.stft(x, CFG)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_parseval_within_five_percent(self):
        x = white_noise(44100, seed=8)
        spec = dsp.stft(x, CFG)
        window = dsp.hann_window(CFG.win_length)
        pad = CFG.n_fft // 2
        padded = np.pad(x, pad, mode="reflect")
        windowed_power = sum(
            np.sum((padded[k * CFG.hop_length : k * CFG.hop_length + CFG.n_fft] * window) ** 2)
            for k in range(spec.shape[0])
        )
        mags2 = np.abs(spec) ** 2
        onesided = mags2.copy()
        onesided[:, 1:-1] *= 2  # fold negative frequencies of the real FFT
        spectral_power = onesided.sum() / CFG.n_fft
        assert abs(spectral_power - windowed_power) / windowed_power < 0.05


class TestIstft:
    def test_white_noise_roundtrip(self):
        x = white_noise(44100, seed=1)
        rec = dsp.istft(dsp.stft(x, CFG), CFG, x.size)
        interior = slice(CFG.n_fft, 43000)
        err = rec[interior] - x[interior]
        assert np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(x[interior] ** 2)) < 1e-4

    def test_zero_spectrogram_gives_zero_signal(self):
        spec = dsp.stft(np.zeros(8192), CFG)
        np.testing.assert_array_equal(dsp.istft(spec, CFG, 8192), 0)

    def test_sine_roundtrip_preserves_frequency(self):
        x = sine(880.0)
        rec = dsp.istft(dsp.stft(x, CFG), CFG, x.size)
        spec = np.abs(np.fft.rfft(rec[2048:-2048] * np.hanning(rec.size - 4096)))
        peak = spec.argmax() * SR / (rec.size - 4096)
        assert abs(peak - 880.0) < 3.0

    @pytest.mark.parametrize("n_fft, hop, win", [(2048, 512, 2048), (1024, 512, 1024),
                                                 (1024, 300, 900), (256, 400, 256)])
    @pytest.mark.parametrize("n_frames", [1, 64, 65, 200])
    @pytest.mark.parametrize("n_samples", [None, 5000])
    def test_bytes_equal_the_whole_array_oracle(self, n_fft, hop, win, n_frames, n_samples):
        cfg = dsp.SpectrogramConfig(n_fft=n_fft, hop_length=hop, win_length=win, n_mels=1,
                                    log_scale=False)
        rng = np.random.default_rng(n_frames)
        shape = (n_frames, cfg.n_bins)
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        n_out = n_frames * hop if n_samples is None else n_samples
        got = dsp.istft(data, cfg, n_out)
        assert got.tobytes() == whole_array_istft(data, cfg, n_out).tobytes()


def whole_array_istft(spec, cfg, n_out):
    """The inverse STFT as first written, one (frames x n_fft) irfft: the
    oracle for the blocked one."""
    frames = np.fft.irfft(spec, n=cfg.n_fft, axis=1)
    window = dsp._padded_window(cfg)
    n_frames = frames.shape[0]
    pad = cfg.n_fft // 2
    total = (n_frames - 1) * cfg.hop_length + cfg.n_fft if n_frames else cfg.n_fft
    acc = np.zeros(total)
    norm = np.zeros(total)
    for k in range(n_frames):
        start = k * cfg.hop_length
        acc[start : start + cfg.n_fft] += frames[k] * window
        norm[start : start + cfg.n_fft] += window**2
    covered = norm > 1e-10
    acc[covered] /= norm[covered]
    out = np.zeros(n_out)
    avail = min(n_out, max(0, total - pad))
    out[:avail] = acc[pad : pad + avail]
    return out


class TestMelFilterbank:
    def test_rows_nonnegative_single_peak(self):
        fb = dsp.mel_filterbank(CFG)
        assert np.all(fb >= 0)
        for row in fb:
            assert np.count_nonzero(row == row.max()) == 1

    def test_centers_strictly_increasing(self):
        edges = dsp.mel_to_hz(np.linspace(0, dsp.hz_to_mel(SR / 2), CFG.n_mels + 2))
        centers = edges[1:-1]
        assert np.all(np.diff(centers) > 0)

    def test_flat_spectrum_response_has_no_zeros(self):
        fb = dsp.mel_filterbank(CFG)
        response = fb @ np.ones(CFG.n_bins)
        assert np.all(response > 0)

    def test_too_many_mels_rejected(self):
        with pytest.raises(ConfigError):
            dsp.SpectrogramConfig(n_fft=128, win_length=128, n_mels=100)

    def test_cached_per_config_and_read_only(self):
        fb = dsp.mel_filterbank(CFG)
        assert dsp.mel_filterbank(CFG) is fb
        np.testing.assert_array_equal(fb, dsp.mel_filterbank.__wrapped__(CFG))
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_mel_spectrogram_equals_fresh_filterbank(self):
        clip = AudioClip(white_noise(44100), SR)
        cfg = dsp.SpectrogramConfig(log_scale=False)
        power = np.abs(dsp.stft(clip.samples, cfg)) ** 2
        expected = (scipy.sparse.csr_array(dsp.mel_filterbank.__wrapped__(cfg)) @ power.T).T
        for _ in range(2):  # first call builds the filterbank, second reuses it
            np.testing.assert_array_equal(dsp.mel_spectrogram(clip, cfg), expected)


class TestMelSpectrogram:
    def test_five_second_shape(self):
        feats = dsp.mel_spectrogram(AudioClip(white_noise(220500), SR), CFG)
        assert feats.shape == (430, 128)

    def test_one_second_shape(self):
        feats = dsp.mel_spectrogram(AudioClip(white_noise(44100), SR), CFG)
        assert feats.shape == (86, 128)

    def test_silence_is_flat_floor(self):
        feats = dsp.mel_spectrogram(AudioClip(np.zeros(44100), SR), CFG)
        assert np.all(feats == feats.flat[0])

    def test_pure_tone_argmax_at_nearest_band(self):
        # tested on bands wide enough to span several FFT bins; below ~band 20
        # the 43 Hz bin grid is coarser than the filter spacing
        centers = dsp.mel_to_hz(np.linspace(0, dsp.hz_to_mel(SR / 2), CFG.n_mels + 2))[1:-1]
        for band in (20, 40, 64, 90, 120):
            feats = dsp.mel_spectrogram(AudioClip(sine(centers[band]), SR), CFG)
            interior = feats[5:-5]
            assert np.all(interior.argmax(axis=1) == band), f"band {band}"

    @pytest.mark.parametrize("featurize", [dsp.mel_spectrogram, dsp.mfcc])
    def test_rejects_clip_at_another_rate(self, featurize):
        # the filterbank is built for 44.1 kHz: read against it, a 1 kHz
        # tone at 16 kHz would peak in mel band 63 instead of 31
        clip = AudioClip(sine(1000.0, 0.5, sr=16000), 16000)
        with pytest.raises(ValueError, match="44100 Hz.*16000 Hz"):
            featurize(clip, CFG)


    @pytest.mark.parametrize("cfg, n_empty", [
        (dsp.SpectrogramConfig(log_scale=False), 0),
        (dsp.SpectrogramConfig(n_fft=512, win_length=512, n_mels=32, log_scale=False), 0),
        (dsp.SpectrogramConfig(n_fft=2048, win_length=2048, log_scale=False), 0),
        (dsp.SpectrogramConfig(n_fft=256, win_length=256, n_mels=128, log_scale=False), 32),
    ], ids=["default", "fft512-mels32", "fft2048", "fft256-mels128"])
    def test_matches_dense_filterbank_product(self, cfg, n_empty):
        clip = AudioClip(white_noise(SR), SR)
        power = np.abs(dsp.stft(clip.samples, cfg)) ** 2
        fb = dsp.mel_filterbank(cfg)
        mel = dsp.mel_spectrogram(clip, cfg)
        assert mel.flags.c_contiguous
        np.testing.assert_allclose(mel, power @ fb.T, rtol=1e-12, atol=0)
        empty = ~fb.any(axis=1)  # bands narrower than the bin spacing
        assert np.count_nonzero(empty) == n_empty
        assert np.all(mel[:, empty] == 0.0)

    def test_bytes_independent_of_blas_threads(self):
        code = ("import hashlib, numpy as np; from tinysound import dsp; "
                "from tinysound.audio_io import AudioClip; "
                "x = np.random.default_rng(7).uniform(-1, 1, 5 * 44100); "
                "mel = dsp.mel_spectrogram(AudioClip(x, 44100), dsp.SpectrogramConfig()); "
                "print(hashlib.sha256(mel.tobytes()).hexdigest())")
        src = str(Path(dsp.__file__).parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True, timeout=120)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_threads_on_cold_cache_match_serial(self):
        clip = AudioClip(white_noise(SR), SR)
        cfg = dsp.SpectrogramConfig(n_fft=512, win_length=512, n_mels=40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                dsp.mel_filterbank.cache_clear()
                dsp._mel_filterbank_csr.cache_clear()
                start = threading.Barrier(4, timeout=30)

                def featurize():
                    start.wait()
                    return dsp.mel_spectrogram(clip, cfg).tobytes()

                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(featurize) for _ in range(4)]
                    results = [f.result(timeout=60) for f in futures]
                serial = dsp.mel_spectrogram(clip, cfg).tobytes()
                assert results == [serial] * 4
        finally:
            sys.setswitchinterval(interval)
        csr = dsp._mel_filterbank_csr(cfg)
        fresh = scipy.sparse.csr_array(dsp.mel_filterbank.__wrapped__(cfg))
        for name in ("data", "indices", "indptr"):
            arr = getattr(csr, name)
            np.testing.assert_array_equal(arr, getattr(fresh, name))
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    @pytest.mark.parametrize("log_scale", [False, True])
    @pytest.mark.parametrize("frames", [1, 63, 64, 65, 129, 430])
    def test_blocks_equal_whole_clip_product(self, frames, log_scale):
        cfg = dsp.SpectrogramConfig(log_scale=log_scale)
        x = white_noise(frames * cfg.hop_length + 17, seed=frames)
        power = np.abs(dsp.stft(x, cfg)) ** 2
        expected = np.ascontiguousarray((dsp._mel_filterbank_csr(cfg) @ power.T).T)
        if log_scale:
            expected = dsp.power_to_db(expected)
        mel = dsp.mel_spectrogram(AudioClip(x, SR), cfg)
        assert mel.shape == (frames, cfg.n_mels) and mel.flags.c_contiguous
        assert mel.tobytes() == expected.tobytes()


class TestMfcc:
    def test_dct_matrix_orthonormal(self):
        mat = dsp.dct_matrix(128)
        np.testing.assert_allclose(mat.T @ mat, np.eye(128), atol=1e-9)

    def test_dct_matrix_cached_and_read_only(self):
        mat = dsp.dct_matrix(40)
        assert dsp.dct_matrix(40) is mat
        np.testing.assert_array_equal(mat, dsp.dct_matrix.__wrapped__(40))
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_constant_frame_concentrates_in_dc(self):
        c = -3.7
        coeffs = dsp.dct_matrix(128) @ np.full(128, c)
        assert abs(coeffs[0] - c * np.sqrt(128)) < 1e-9
        np.testing.assert_allclose(coeffs[1:], 0, atol=1e-9)

    def test_shape_five_seconds(self):
        feats = dsp.mfcc(AudioClip(white_noise(220500), SR), CFG, 128)
        assert feats.shape == (430, 128)

    def test_coefficient_truncation(self):
        feats = dsp.mfcc(AudioClip(white_noise(44100), SR), CFG, 13)
        assert feats.shape == (86, 13)

    def test_too_many_coeffs_rejected(self):
        with pytest.raises(ConfigError):
            dsp.mfcc(AudioClip(white_noise(4096), SR), CFG, 200)


class TestDownsampleColumns:
    def test_factor_one_identity(self):
        feats = dsp.mel_spectrogram(AudioClip(white_noise(44100), SR), CFG)
        assert dsp.downsample_columns(feats, 1) is feats

    def test_factor_three_ceil(self):
        feats = np.zeros((430, 4))
        assert dsp.downsample_columns(feats, 3).shape == (144, 4)
        # a centered 431-frame count would floor to 143; we keep ceil(430/3)

    def test_factor_two(self):
        feats = np.zeros((430, 4))
        assert dsp.downsample_columns(feats, 2).shape == (215, 4)

    def test_keeps_every_nth_frame(self):
        data = np.arange(20, dtype=float).reshape(10, 2)
        np.testing.assert_array_equal(dsp.downsample_columns(data, 4), data[[0, 4, 8]])

    def test_rejects_zero(self):
        feats = np.zeros((4, 4))
        with pytest.raises(ValueError):
            dsp.downsample_columns(feats, 0)


class TestReshapeAmplitudes:
    def test_row_major_layout(self):
        clip = AudioClip(np.array([1, 2, 3, 4, 5, 6]) / 10.0, SR)
        feats = dsp.reshape_amplitudes(clip, 2, 3)
        np.testing.assert_array_equal(feats, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])

    def test_512_square_consumes_262144_samples(self):
        clip = AudioClip(np.zeros(262144), SR)
        assert dsp.reshape_amplitudes(clip, 512, 512).shape == (512, 512)
        with pytest.raises(ValueError):
            dsp.reshape_amplitudes(AudioClip(np.zeros(262143), SR), 512, 512)

    def test_flatten_inverts_prefix(self):
        x = white_noise(100, seed=9)
        feats = dsp.reshape_amplitudes(AudioClip(x, SR), 7, 9)
        np.testing.assert_array_equal(feats.ravel(), x[:63])


class TestNormalize01:
    def test_example(self):
        feats = np.array([[0.0, 5.0], [10.0, 5.0]])
        np.testing.assert_array_equal(dsp.normalize01(feats), [[0.0, 0.5], [1.0, 0.5]])

    def test_constant_matrix_maps_to_zeros(self):
        feats = np.full((3, 3), 7.0)
        np.testing.assert_array_equal(dsp.normalize01(feats), 0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_range_property(self, seed):
        data = np.random.default_rng(seed).normal(size=(5, 7))
        out = dsp.normalize01(data)
        assert out.min() == 0.0
        assert out.max() == 1.0



_EMPTY = AudioClip(np.zeros(0), SR)


@pytest.mark.parametrize("call", [
    lambda cfg: dsp.stft(np.zeros(0), cfg),
    lambda cfg: dsp.mel_spectrogram(_EMPTY, cfg),
    lambda cfg: dsp.mfcc(_EMPTY, cfg, 13),
], ids=["stft", "mel", "mfcc"])
def test_empty_signal_is_a_value_error_naming_the_signal(call):
    with pytest.raises(ValueError, match="empty signal") as raised:
        call(dsp.SpectrogramConfig())
    assert raised.type is ValueError


@pytest.mark.parametrize("n", [1, 511])  # below hop_length = 512
def test_signal_shorter_than_one_hop_gives_no_frame(n):
    cfg, clip = dsp.SpectrogramConfig(), AudioClip(np.ones(n) * 0.5, SR)
    assert dsp.stft(clip.samples, cfg).shape == (0, cfg.n_fft // 2 + 1)
    assert dsp.mel_spectrogram(clip, cfg).shape == (0, cfg.n_mels)
    assert dsp.mfcc(clip, cfg, 13).shape == (0, 13)
