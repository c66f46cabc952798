"""WAV parsing, resampling, manifest loading, and slicing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tinysound import audio_io
from tinysound.audio_io import (AudioClip, decode_wav, encode_wav, load_manifest, random_slice,
                                resample, sinc_resample)
from tinysound.errors import DecodeError, ManifestError, UnsupportedFormatError

from conftest import SR, sine


def pcm16_wav(samples_i16, channels=1, sample_rate=44100) -> bytes:
    body = np.asarray(samples_i16, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                                    sample_rate * 2 * channels, 2 * channels, 16)
    header += b"data" + struct.pack("<I", len(body))
    return header + body


class TestDecodeWav:
    def test_int16_scaling(self):
        clip = decode_wav(pcm16_wav([0, 16384, -32768]))
        np.testing.assert_array_equal(clip.samples, [0.0, 0.5, -1.0])
        assert clip.sample_rate == 44100

    def test_stereo_mean_mixdown(self):
        left, right = 16384, -16384  # 0.5 and -0.5
        clip = decode_wav(pcm16_wav([left, right], channels=2))
        np.testing.assert_array_equal(clip.samples, [0.0])

    def test_float32_payload(self):
        body = np.array([0.25, -0.75], dtype="<f4").tobytes()
        data = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        data += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 48000, 48000 * 4, 4, 32)
        data += b"data" + struct.pack("<I", len(body)) + body
        clip = decode_wav(data)
        np.testing.assert_allclose(clip.samples, [0.25, -0.75])
        assert clip.sample_rate == 48000

    def test_bad_riff_magic_names_offset(self):
        with pytest.raises(DecodeError) as err:
            decode_wav(b"JUNK" + pcm16_wav([0])[4:])
        assert err.value.offset == 0

    def test_bad_wave_magic_names_offset(self):
        data = bytearray(pcm16_wav([0]))
        data[8:12] = b"AIFF"
        with pytest.raises(DecodeError) as err:
            decode_wav(bytes(data))
        assert err.value.offset == 8

    def test_unsupported_bit_depth(self):
        data = bytearray(pcm16_wav([0, 0]))
        data[34:36] = struct.pack("<H", 8)  # bits-per-sample field
        with pytest.raises(UnsupportedFormatError):
            decode_wav(bytes(data))

    def test_truncated_data_chunk(self):
        data = pcm16_wav([1, 2, 3, 4])
        with pytest.raises(DecodeError):
            decode_wav(data[:-3])

    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_fuzz_pcm_always_within_unit_range(self, values):
        clip = decode_wav(pcm16_wav(values))
        assert np.max(np.abs(clip.samples)) <= 1.0
        np.testing.assert_array_equal(clip.samples, np.array(values) / 32768.0)

    def test_encode_decode_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-32768, 32768, size=500).astype(np.int16)
        clip = decode_wav(pcm16_wav(values))
        again = decode_wav(encode_wav(clip))
        np.testing.assert_array_equal(clip.samples, again.samples)

    @pytest.mark.parametrize("rate", [0, 100, audio_io.MIN_WAV_RATE - 1,
                                      audio_io.MAX_WAV_RATE + 1, 2**32 - 1])
    def test_rate_out_of_range_rejected(self, rate):
        with pytest.raises(UnsupportedFormatError, match="sampling rate"):
            decode_wav(_wav_with_fmt(1, 1, rate, 16, b"\0\0\1\0"))

    @pytest.mark.parametrize("rate", [audio_io.MIN_WAV_RATE, audio_io.MAX_WAV_RATE])
    def test_rate_range_inclusive(self, rate):
        assert decode_wav(_wav_with_fmt(1, 1, rate, 16, b"\0\0\1\0")).sample_rate == rate


def _flip(data: bytes, pos: int, mask: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def _wav_with_fmt(tag, channels, rate, bits, body) -> bytes:
    data = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    data += b"fmt " + struct.pack("<IHHIIHH", 16, tag, channels, rate, 0, 0, bits)
    return data + b"data" + struct.pack("<I", len(body)) + body


_VALID_WAVS = [pcm16_wav([0, 12000, -32768, 32767, 5], channels=1, sample_rate=22050),
               _wav_with_fmt(3, 2, 48000, 32, np.array([0.5, -0.25, 1.0, 0.0], "<f4").tobytes())]


def damaged_wav():
    """Random bytes, truncations and single-byte flips of valid WAVs, and
    WAVs whose fmt fields (tag, channels, rate, bits) are arbitrary."""
    def damage(valid):
        n = len(valid)
        return st.one_of(
            st.binary(max_size=n).map(lambda tail: valid[:12] + tail),
            st.integers(0, n - 1).map(lambda k: valid[:k]),
            st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(lambda t: _flip(valid, *t)),
        )
    fields = st.tuples(st.sampled_from([1, 3, 0xFFFE]) | st.integers(0, 0xFFFF),
                       st.integers(0, 3), st.integers(0, 2**32 - 1),
                       st.sampled_from([16, 32]) | st.integers(0, 0xFFFF),
                       st.binary(max_size=16))
    return st.one_of(st.binary(max_size=64), fields.map(lambda f: _wav_with_fmt(*f)),
                     *map(damage, _VALID_WAVS))


@settings(max_examples=500, deadline=None)
@given(damaged_wav())
def test_damaged_wav_decodes_or_raises_decode_error(data):
    try:
        clip = decode_wav(data)
    except DecodeError:
        return
    assert audio_io.MIN_WAV_RATE <= clip.sample_rate <= audio_io.MAX_WAV_RATE
    assert np.all(np.isfinite(clip.samples))


class TestAudioClip:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 44100)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)

    def test_samples_immutable(self):
        clip = AudioClip(np.zeros(4), 44100)
        with pytest.raises(ValueError):
            clip.samples[0] = 1.0


class TestResample:
    def test_same_rate_is_identity(self):
        clip = AudioClip(sine(440, 0.1), SR)
        out = resample(clip, SR)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_sine_peak_survives_upsampling(self):
        clip = AudioClip(sine(1000.0, 1.0, sr=22050), 22050)
        out = resample(clip, 44100)
        assert len(out) == 44100
        spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out))))
        peak_hz = spec.argmax() * 44100 / len(out)
        assert abs(peak_hz - 1000.0) <= 44100 / len(out)  # within one bin

    def test_dc_preserved(self):
        clip = AudioClip(np.full(2000, 0.3), 8000)
        out = resample(clip, 12000)
        interior = out.samples[200:-200]
        np.testing.assert_allclose(interior, 0.3, atol=1e-3)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3000)
        clip = AudioClip(x, 22050)
        scaled = AudioClip(0.37 * x, 22050)
        a = resample(scaled, 44100).samples
        b = 0.37 * resample(clip, 44100).samples
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_output_length_rule(self):
        clip = AudioClip(np.zeros(1001), 16000)
        assert len(resample(clip, 44100)) == round(1001 * 44100 / 16000)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            resample(AudioClip(np.zeros(10), 8000), 0)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_rejects_bad_ratio(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            sinc_resample(np.zeros(10), ratio)

    @pytest.mark.parametrize("ratio, n_out", [
        (2.0, None), (44100 / 48000, None), (16000 / 48000, None),
        (2 ** (-2.3 / 12), None), (44100 / 48000, 1500), (2 ** (-2.3 / 12), 700),
    ])
    def test_matches_direct_kaiser_sinc(self, ratio, n_out):
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 1200)
        got = sinc_resample(x, ratio, n_out)
        want = direct_kaiser_sinc_resample(x, ratio, n_out)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_stopband_rejects_tone_above_new_nyquist(self):
        # 12 kHz is above 8 kHz, the Nyquist rate after 48 -> 16 kHz; what
        # survives would alias to 4 kHz
        tone = AudioClip(sine(12000.0, 1.0, amp=1.0, sr=48000), 48000)
        out = resample(tone, 16000).samples[200:-200]
        rms_in = 1.0 / np.sqrt(2.0)
        assert 20 * np.log10(np.sqrt(np.mean(out ** 2)) / rms_in) <= -60.0


def direct_kaiser_sinc_resample(x, ratio, n_out=None):
    """Reference: the Kaiser-windowed sinc (beta 8.6, 32 taps) evaluated at
    every (output sample, tap) pair, with taps outside the input read as 0."""
    if n_out is None:
        n_out = int(round(x.size * ratio))
    cutoff = min(1.0, ratio)
    half = int(np.ceil(16 / cutoff))
    centers = np.arange(n_out) / ratio
    idx = np.floor(centers).astype(np.int64)[:, None] + np.arange(-half + 1, half + 1)
    offsets = centers[:, None] - idx
    u = offsets / half
    window = np.zeros_like(offsets)
    inside = np.abs(u) <= 1.0
    window[inside] = np.i0(8.6 * np.sqrt(1.0 - u[inside] ** 2)) / np.i0(8.6)
    kernel = cutoff * np.sinc(cutoff * offsets) * window
    valid = (idx >= 0) & (idx < x.size)
    return np.sum(np.where(valid, x[np.clip(idx, 0, x.size - 1)], 0.0) * kernel, axis=1)


class TestLoadAudio:
    def test_brings_file_to_target_rate(self, tmp_path):
        path = tmp_path / "low.wav"
        audio_io.write_wav(path, AudioClip(sine(440, 0.2, sr=22050), 22050))
        clip = audio_io.load_audio(path)
        assert clip.sample_rate == audio_io.TARGET_RATE
        np.testing.assert_array_equal(
            clip.samples, resample(audio_io.read_wav(path), audio_io.TARGET_RATE).samples)
        assert clip.source_id == str(path)

    def test_target_rate_file_unchanged(self, tmp_path):
        path = tmp_path / "native.wav"
        audio_io.write_wav(path, AudioClip(sine(440, 0.1), SR))
        np.testing.assert_array_equal(audio_io.load_audio(path).samples,
                                      audio_io.read_wav(path).samples)


class TestManifest:
    def test_folder_layout_sorted_classes(self, small_dataset):
        manifest = load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
        assert manifest.class_names == ("clicks", "noise", "tone")
        assert len(manifest) == 24
        paths = [str(e.path) for e in manifest.entries]
        assert paths == sorted(paths)
        assert all(e.fold == -1 for e in manifest.entries)

    def test_empty_directory(self, tmp_path):
        manifest = load_manifest(tmp_path, audio_io.FOLDER_PER_CLASS)
        assert len(manifest) == 0
        assert manifest.class_names == ()

    def test_empty_class_folder_warns(self, tmp_path):
        (tmp_path / "quiet").mkdir()
        with pytest.warns(UserWarning):
            manifest = load_manifest(tmp_path, audio_io.FOLDER_PER_CLASS)
        assert manifest.class_names == ("quiet",)

    def test_missing_root(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "nope", audio_io.FOLDER_PER_CLASS)

    def _write_csv_tree(self, root, rows):
        (root / "meta").mkdir(parents=True)
        (root / "audio").mkdir()
        lines = ["filename,fold,target,category"] + rows
        (root / "meta" / "esc50.csv").write_text("\n".join(lines) + "\n")
        for row in rows:
            name = row.split(",")[0]
            audio_io.write_wav(root / "audio" / name, AudioClip(np.zeros(64), SR))

    def test_csv_layout(self, tmp_path):
        self._write_csv_tree(tmp_path, [
            "b.wav,1,0,dog", "a.wav,2,1,rain", "c.wav,5,0,dog",
        ])
        manifest = load_manifest(tmp_path, audio_io.CSV_MANIFEST)
        assert manifest.class_names == ("dog", "rain")
        assert [e.path.name for e in manifest.entries] == ["a.wav", "b.wav", "c.wav"]
        assert [e.fold for e in manifest.entries] == [2, 1, 5]
        assert [e.label for e in manifest.entries] == [1, 0, 0]

    def test_csv_bad_row_reports_line(self, tmp_path):
        self._write_csv_tree(tmp_path, ["a.wav,1,0,dog"])
        csv_path = tmp_path / "meta" / "esc50.csv"
        csv_path.write_text(csv_path.read_text() + "b.wav,notanint,0,dog\n")
        audio_io.write_wav(tmp_path / "audio" / "b.wav", AudioClip(np.zeros(8), SR))
        with pytest.raises(ManifestError, match="row 3"):
            load_manifest(tmp_path, audio_io.CSV_MANIFEST)

    def test_csv_missing_file_rejected(self, tmp_path):
        self._write_csv_tree(tmp_path, ["a.wav,1,0,dog"])
        (tmp_path / "audio" / "a.wav").unlink()
        with pytest.raises(ManifestError, match="missing"):
            load_manifest(tmp_path, audio_io.CSV_MANIFEST)

    def test_deterministic_across_runs(self, small_dataset):
        a = load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
        b = load_manifest(small_dataset, audio_io.FOLDER_PER_CLASS)
        assert a == b


class TestRandomSlice:
    def test_exact_length_returns_whole_clip(self):
        clip = AudioClip(np.arange(100) / 100.0, SR)
        out = random_slice(clip, 100, np.random.default_rng(0))
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_short_clip_zero_padded(self):
        clip = AudioClip(np.ones(1000), SR)
        out = random_slice(clip, 1500, np.random.default_rng(0))
        np.testing.assert_array_equal(out.samples[:1000], 1.0)
        np.testing.assert_array_equal(out.samples[1000:], 0.0)

    def test_fixed_seed_reproducible(self):
        clip = AudioClip(np.random.default_rng(3).normal(size=5000), SR)
        a = random_slice(clip, 800, np.random.default_rng(42))
        b = random_slice(clip, 800, np.random.default_rng(42))
        np.testing.assert_array_equal(a.samples, b.samples)

    @given(st.integers(1, 400), st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_output_length_always_exact(self, clip_len, n_samples, seed):
        clip = AudioClip(np.ones(clip_len), SR)
        out = random_slice(clip, n_samples, np.random.default_rng(seed))
        assert len(out) == n_samples

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            random_slice(AudioClip(np.zeros(4), SR), 0, np.random.default_rng(0))
