"""The eleven waveform augmentations and the pipeline applicator."""

import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings, strategies as st

from tinysound import augment, dsp
from tinysound.augment import AugmentSpec, apply_pipeline
from tinysound.errors import ConfigError

from conftest import SR, sine


def rng(seed=0):
    return np.random.default_rng(seed)


def dominant_freq(x, sr=SR):
    spec = np.abs(np.fft.rfft(x * np.hanning(x.size)))
    return spec.argmax() * sr / x.size


class TestAmplitudeClip:
    def test_threshold_at_peak_is_identity(self):
        x = sine(500, 0.05)
        np.testing.assert_array_equal(
            augment.amplitude_clip(x, rng(), threshold=np.max(np.abs(x))), x)

    def test_clamp_definition(self):
        x = np.array([0.0, 1.0, -1.0])
        np.testing.assert_array_equal(
            augment.amplitude_clip(x, rng(), threshold=0.75), [0.0, 0.75, -0.75])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_raises_peak(self, seed):
        x = np.random.default_rng(seed).normal(size=300)
        out = augment.amplitude_clip(x, np.random.default_rng(seed + 1))
        assert np.max(np.abs(out)) <= np.max(np.abs(x)) + 1e-12


class TestAmplify:
    def test_unit_gain_identity(self):
        x = sine(500, 0.02)
        np.testing.assert_array_equal(augment.amplify(x, rng(), gain=1.0), x)

    def test_half_gain(self):
        x = sine(500, 0.02)
        np.testing.assert_allclose(augment.amplify(x, rng(), gain=0.5), 0.5 * x)

    def test_rms_scales_with_gain(self):
        x = rng(7).normal(size=5000)
        g = 1.31
        out = augment.amplify(x, rng(), gain=g)
        assert abs(np.sqrt(np.mean(out**2)) - g * np.sqrt(np.mean(x**2))) < 1e-9


class TestEcho:
    def test_impulse_becomes_two(self):
        x = np.zeros(10000)
        x[0] = 1.0
        out = augment.echo(x, rng(), delay=4410)
        assert out[0] == 1.0 and out[4410] == 1.0
        assert np.count_nonzero(out) == 2

    def test_delay_index_identity(self):
        x = rng(3).normal(size=20000)
        out = augment.echo(x, rng(), delay=4410)
        assert out[10000] == x[10000] + x[10000 - 4410]  # source index 5590

    def test_zero_signal_stays_zero(self):
        np.testing.assert_array_equal(augment.echo(np.zeros(5000), rng()), 0)

    def test_delay_range(self):
        draws = {int(rng(s).integers(*augment.ECHO_DELAY_RANGE)) for s in range(50)}
        assert all(882 <= d <= 17640 for d in draws)


class TestLowpass:
    def test_dc_gain_unity(self):
        out = augment.lowpass(np.full(SR, 0.5), rng(), cutoff=0.1)
        assert abs(out[-1] - 0.5) < 1e-3

    def test_minus_three_db_at_cutoff(self):
        cutoff = 0.12
        tone = sine(cutoff * SR / 2, 4.0)
        out = augment.lowpass(tone, rng(), cutoff=cutoff)
        ratio = np.sqrt(np.mean(out[2 * SR:] ** 2) / np.mean(tone[2 * SR:] ** 2))
        assert abs(ratio - 2 ** -0.5) / 2 ** -0.5 < 0.05

    def test_fifth_order_rolloff(self):
        cutoff = 0.1
        tone = sine(4 * cutoff * SR / 2, 4.0)
        out = augment.lowpass(tone, rng(), cutoff=cutoff)
        atten = 20 * np.log10(np.sqrt(np.mean(out[2 * SR:] ** 2) / np.mean(tone[2 * SR:] ** 2)))
        assert atten < -30.0

    def test_click_tail_has_no_subnormal_sample(self):
        # the IIR tail decays into subnormals over silence, which slow every later transform
        click = np.zeros(SR)
        click[0] = 1.0
        out = augment.lowpass(click, rng(), cutoff=0.05)
        assert not np.any((out != 0) & (np.abs(out) < np.finfo(float).tiny))


class TestPitchShift:
    def test_zero_shift_near_identity(self):
        x = sine(440, 1.0)
        out = augment.pitch_shift(x, rng(), semitones=0.0)
        interior = slice(2048, -2048)
        err = out[interior] - x[interior]
        assert np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(x[interior] ** 2)) < 1e-3

    def test_octave_shift_doubles_frequency(self):
        out = augment.pitch_shift(sine(440, 1.0), rng(), semitones=12.0)
        assert abs(dominant_freq(out) - 880.0) / 880.0 < 0.02

    def test_length_preserved(self):
        x = sine(440, 0.7)
        for s in (0.5, 2.3, 4.0):
            assert augment.pitch_shift(x, rng(), semitones=s).size == x.size

    def test_resamples_by_a_small_fraction_near_the_shift(self, monkeypatch):
        # 12*log2(1 + 1/512) lies midway between 1 and 257/256, the widest
        # gap between fractions with denominator <= 256 in [1, 2^(4/12)]
        calls = []

        def fake_resample(x, up, down):
            calls.append((up, down))
            return np.zeros(round(x.size * up / down))

        monkeypatch.setattr(augment, "time_stretch", lambda x, rate: np.zeros(round(x.size / rate)))
        monkeypatch.setattr(augment, "sinc_resample", fake_resample)
        grid = np.append(np.linspace(0.0, 4.0, 801)[1:], 12 * np.log2(1 + 1 / 512))
        for s in grid:
            calls.clear()
            augment.pitch_shift(np.zeros(4410), rng(), semitones=s)
            (up, down), = calls or [(1, 1)]  # a factor of 1 returns a copy
            assert isinstance(up, int) and isinstance(down, int)
            assert 0 < up <= 256
            assert abs(1200 * np.log2(up / down) + 100 * s) <= 3.4


class TestPartialErase:
    def test_zero_fraction_identity(self):
        x = sine(300, 0.1)
        np.testing.assert_array_equal(augment.partial_erase(x, rng(), fraction=0.0), x)

    def test_untouched_region_bit_identical(self):
        x = rng(5).normal(size=20000)
        out = augment.partial_erase(x, rng(11), fraction=0.2)
        changed = np.flatnonzero(out != x)
        assert changed.size > 0
        assert changed.size == round(0.2 * x.size)
        assert np.array_equal(changed, np.arange(changed[0], changed[0] + changed.size))

    def test_replacement_variance_matches_input_std(self):
        x = rng(6).normal(size=50000) * 0.4
        out = augment.partial_erase(x, rng(12), fraction=0.3)
        region = np.flatnonzero(out != x)
        noise = out[region]
        assert abs(np.var(noise) - np.var(x)) / np.var(x) < 0.2


class TestSpeedAdjust:
    def test_unit_rate_identity(self):
        x = sine(440, 1.0)
        out = augment.speed_adjust(x, rng(), rate=1.0)
        np.testing.assert_array_equal(out, x)

    def test_pitch_preserved_at_any_rate(self):
        x = sine(440, 1.0)
        for r in (0.5, 0.8, 1.25, 1.5):
            out = augment.speed_adjust(x, rng(), rate=r)
            assert out.size == x.size
            content = out[: int(x.size / max(1.0, r)) - 4096]
            assert abs(dominant_freq(content) - 440.0) / 440.0 < 0.02, f"rate {r}"

    @pytest.mark.parametrize("rate", [0.5, 0.55, 0.87])
    def test_trimmed_synthesis_equals_the_whole_stretch(self, rate):
        # a rate below 1 stretches past the input length; speed_adjust synthesizes only
        # the frames its kept samples need
        x = rng(21).uniform(-1.0, 1.0, 50_001)
        whole = augment._fit_length(augment.time_stretch(x, rate), x.size)
        assert augment.speed_adjust(x, rng(), rate=rate).tobytes() == whole.tobytes()


def loop_time_stretch(x, rate):
    """The phase vocoder as first written, with angles, a wrapped phase advance and
    a complex exp per step: the oracle for the phasor one."""
    n_target = int(round(x.size / rate))
    cfg = dsp.SpectrogramConfig(n_fft=2048, hop_length=512, win_length=2048)
    spec = dsp.stft(x, cfg)
    steps = np.arange(0.0, spec.shape[0], rate)
    spec = np.vstack([spec, np.zeros((2, spec.shape[1]), dtype=spec.dtype)])
    magnitudes = np.abs(spec)
    phases = np.angle(spec)
    advance = 2.0 * np.pi * 512 * np.arange(spec.shape[1]) / 2048
    out = np.empty((steps.size, spec.shape[1]), dtype=np.complex128)
    accumulator = phases[0].copy()
    for i, step in enumerate(steps):
        k = int(step)
        frac = step - k
        mag = (1.0 - frac) * magnitudes[k] + frac * magnitudes[k + 1]
        out[i] = mag * np.exp(1j * accumulator)
        delta = phases[k + 1] - phases[k] - advance
        delta -= 2.0 * np.pi * np.round(delta / (2.0 * np.pi))
        accumulator += advance + delta
    stretched = dsp.istft(out, cfg, steps.size * 512)
    return augment._fit_length(stretched, n_target)


def assert_near_the_loop_oracle(x, rate):
    # the oracle's accumulated angle reaches about 1e6 rad, where one ulp is about
    # 1e-10: the phasor form cannot match it bit for bit
    got, want = augment.time_stretch(x, rate), loop_time_stretch(x, rate)
    assert got.shape == want.shape and np.all(np.isfinite(got))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-8 * np.max(np.abs(want), initial=0.0)


def subnormal_tail(n=SR):
    x = rng(22).uniform(-1.0, 1.0, n)
    x[n // 2 :] *= 1e-310  # about 41,000 STFT bins of a 1 s clip get a subnormal magnitude
    return x


class TestTimeStretch:
    @pytest.mark.parametrize("rate", [0.5, 0.87, 1 / 1.26, 1.5])
    @pytest.mark.parametrize("n", [513, 2048, 30_001, 220_500])
    def test_bytes_equal_the_loop_oracle(self, rate, n):
        assert_near_the_loop_oracle(np.random.default_rng(n).uniform(-1.0, 1.0, n), rate)

    @pytest.mark.parametrize("rate", [0.55, 1.3])
    @pytest.mark.parametrize("kind", ["partly_zero", "subnormal_tail", "deep_subnormal_tail",
                                      "scaled_1e300"])
    def test_extreme_inputs_stay_finite_near_the_oracle(self, kind, rate):
        x = rng(23).uniform(-1.0, 1.0, SR)
        if kind == "partly_zero":
            x[SR // 4 : SR // 2] = 0.0
        elif kind == "subnormal_tail":
            x = subnormal_tail()
        elif kind == "deep_subnormal_tail":
            x[SR // 8 :] *= 1e-323  # a few ulps: X/|X| is far from unit length here
        else:
            x *= 1e300
        assert_near_the_loop_oracle(x, rate)

    @pytest.mark.parametrize("kind, arg, bound_mb", [
        ("time_stretch", 0.55, 33.5), ("time_stretch", 0.8, 25.5), ("time_stretch", 1.45, 17.8),
        ("pitch_shift", 2.5, 24.5), ("hpss", "harmonic", 18.5),
    ])
    def test_peak_on_a_five_second_clip(self, kind, arg, bound_mb):
        # the angle form's peaks; the phasor form keeps one unit array and frees it,
        # with the magnitudes, before the inverse STFT. hpss: the partition form's
        # peak, which a median network holds only if its workspace stays blocked
        def call(x):
            if kind == "time_stretch":
                return augment.time_stretch(x, arg)
            if kind == "hpss":
                return augment.hpss(x, rng(), branch=arg)
            return augment.pitch_shift(x, rng(), semitones=arg)

        x = rng(24).uniform(-0.9, 0.9, 5 * SR)
        call(x)  # builds any cached window outside the measurement
        tracemalloc.start()
        try:
            call(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6


class TestAddNoise:
    def test_zero_sigma_identity(self):
        x = sine(200, 0.1)
        np.testing.assert_array_equal(augment.add_noise(x, rng(), sigma=0.0), x)

    def test_residual_statistics(self):
        x = sine(200, 3.0)
        sigma = 0.03
        out = augment.add_noise(x, rng(21), sigma=sigma)
        residual = out - x
        assert abs(residual.mean()) < 3 * sigma / np.sqrt(residual.size)
        assert abs(np.var(residual) - sigma**2) / sigma**2 < 0.1


class TestHpss:
    def test_masks_sum_to_one(self):
        x = rng(2).normal(size=44100) * 0.2
        cfg = dsp.SpectrogramConfig(n_fft=1024, hop_length=512, win_length=1024,
                                    n_mels=1, log_scale=False)
        mags = np.abs(dsp.stft(x, cfg))
        mask_h, mask_p = augment.hpss_masks(mags)
        np.testing.assert_allclose(mask_h + mask_p, 1.0, atol=1e-6)

    def test_sine_energy_goes_harmonic(self):
        x = sine(440, 1.0)
        energy = np.sum(x**2)
        harm = augment.hpss(x, rng(), branch="harmonic")
        perc = augment.hpss(x, rng(), branch="percussive")
        assert np.sum(harm**2) / energy >= 0.8
        assert np.sum(perc**2) / energy < 0.2

    def test_click_energy_goes_percussive(self):
        x = np.zeros(44100)
        x[22050] = 1.0
        energy = np.sum(x**2)
        assert np.sum(augment.hpss(x, rng(), branch="percussive") ** 2) / energy >= 0.8
        assert np.sum(augment.hpss(x, rng(), branch="harmonic") ** 2) / energy < 0.2

    def test_coin_picks_a_branch(self):
        x = sine(440, 0.5)
        out = augment.hpss(x, rng(9))
        h = augment.hpss(x, rng(), branch="harmonic")
        p = augment.hpss(x, rng(), branch="percussive")
        assert np.array_equal(out, h) or np.array_equal(out, p)

    @staticmethod
    def soft_masks(harm, perc):
        h2, p2 = harm**2, perc**2
        denom = h2 + p2 + 1e-10
        return h2 / denom, p2 / denom

    @pytest.mark.parametrize("frames", [1, *range(3, 41), 430])
    def test_masks_match_median_filter_oracle(self, frames):
        mags = np.abs(rng(frames).normal(size=(frames, 513)))
        k = 17
        want = self.soft_masks(
            scipy.ndimage.median_filter(mags, size=(k, 1), mode="reflect"),
            scipy.ndimage.median_filter(mags, size=(1, k), mode="reflect"))
        got = augment.hpss_masks(mags)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("pair", [(0.7, 0.3), (0.3, 0.7)])
    def test_two_frames_follow_the_reflect_window(self, pair):
        # Mirrored, the frames a b repeat as ... b a | a b | b a ..., so each
        # 17-frame window holds its own center value 9 times: the time median
        # of two frames is the input itself, in either order. (scipy's
        # median_filter maps [0.7, 0.3] to [0.3, 0.3] here.)
        mags = np.array(pair)[:, None] * np.linspace(1.0, 2.0, 513)
        want = self.soft_masks(
            mags, scipy.ndimage.median_filter(mags, size=(1, 17), mode="reflect"))
        got = augment.hpss_masks(mags)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_median_network_is_exact_on_every_zero_one_window(self):
        # the zero-one principle: a min/max network that selects the 9th of 17
        # on every 0/1 window selects it on every real one
        rows = (np.arange(2**17)[:, None] >> np.arange(17) & 1).astype(np.float64)
        want = rows.sum(1) >= 9
        np.testing.assert_array_equal(augment._median_filter(rows, 1)[:, 8], want)
        np.testing.assert_array_equal(augment._median_filter(rows.T, 0)[8], want)

    @pytest.mark.parametrize("frames", [1, 3, 17, 430])
    def test_median_network_keeps_ties(self, frames):
        quantized = np.round(np.abs(rng(frames).normal(size=(frames, 513)))).clip(0, 2)
        assert (quantized == 0).any()
        for mags in (quantized, np.full((frames, 513), 0.25)):
            for axis, size in ((0, (17, 1)), (1, (1, 17))):
                np.testing.assert_array_equal(
                    augment._median_filter(mags, axis),
                    scipy.ndimage.median_filter(mags, size=size, mode="reflect"))


class TestBitwiseDownsample:
    def test_exact_grid_point_fixed(self):
        assert augment.bitwise_downsample(np.array([0.5]), rng(), resolution=40)[0] == 0.5

    def test_floor_rule(self):
        out = augment.bitwise_downsample(np.array([0.333]), rng(), resolution=100)
        assert abs(out[0] - 0.33) < 1e-12

    def test_distinct_values_bounded(self):
        x = rng(13).uniform(-1, 1, size=50000)
        for res in (40, 70, 100):
            out = augment.bitwise_downsample(x, rng(), resolution=res)
            assert np.unique(out).size <= 2 * res + 1

    def test_idempotent_with_same_resolution(self):
        x = rng(14).uniform(-1, 1, size=10000)
        once = augment.bitwise_downsample(x, rng(), resolution=49)
        twice = augment.bitwise_downsample(once, rng(), resolution=49)
        np.testing.assert_array_equal(once, twice)


class TestSamplerateDownsample:
    def test_example(self):
        out = augment.samplerate_downsample(np.array([1.0, 2.0, 3.0, 4.0]), rng(), factor=2)
        np.testing.assert_array_equal(out, [1.0, 1.0, 3.0, 3.0])

    def test_run_count_bounded(self):
        x = rng(15).normal(size=1000)
        for k in range(2, 10):
            out = augment.samplerate_downsample(x, rng(), factor=k)
            runs = 1 + np.count_nonzero(np.diff(out))
            assert runs <= -(-x.size // k)

    def test_idempotent_with_same_factor(self):
        x = rng(16).normal(size=997)
        once = augment.samplerate_downsample(x, rng(), factor=5)
        np.testing.assert_array_equal(
            augment.samplerate_downsample(once, rng(), factor=5), once)


class TestInvariants:
    """Cross-cutting contracts: length, determinism, finiteness."""

    @pytest.mark.parametrize("kind", list(augment.AUGMENTATIONS))
    def test_length_preserved(self, kind):
        x = rng(17).normal(size=30011) * 0.4
        out = augment.AUGMENTATIONS[kind](x, rng(1))
        assert out.size == x.size

    @pytest.mark.parametrize("kind", list(augment.AUGMENTATIONS))
    def test_empty_signal_stays_empty(self, kind):
        out = augment.AUGMENTATIONS[kind](np.zeros(0), rng(1))
        assert out.dtype == np.float64 and out.shape == (0,)

    @pytest.mark.parametrize("kind", list(augment.AUGMENTATIONS))
    def test_deterministic_given_seed(self, kind):
        x = rng(18).normal(size=12007) * 0.4
        a = augment.AUGMENTATIONS[kind](x, np.random.default_rng(77))
        b = augment.AUGMENTATIONS[kind](x, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", list(augment.AUGMENTATIONS))
    def test_finite_output(self, kind):
        for x in (np.clip(rng(19).normal(size=8191), -1, 1), subnormal_tail(8191)):
            out = augment.AUGMENTATIONS[kind](x, rng(2))
            assert np.all(np.isfinite(out))


class TestPipeline:
    def test_zero_probability_identity(self):
        x = sine(600, 0.3)
        specs = [AugmentSpec(kind, 0.0) for kind in augment.AUGMENTATIONS]
        np.testing.assert_array_equal(apply_pipeline(x, specs, rng(3)), x)

    def test_zero_probability_spec_is_no_spec(self):
        # it takes no draw, so every later spec sees the same stream
        x = rng(21).normal(size=SR) * 0.3
        specs = augment.default_pipeline(0.5)
        off = [AugmentSpec(s.kind, 0.0) if s.kind == "echo" else s for s in specs]
        without = [s for s in specs if s.kind != "echo"]
        assert len(without) == len(off) - 1
        out_off, out_without = (apply_pipeline(x, s, rng(3)) for s in (off, without))
        assert out_off.tobytes() == out_without.tobytes()

    def test_fixed_seed_deterministic(self):
        x = rng(20).normal(size=44100) * 0.3
        specs = augment.default_pipeline(0.5)
        a = apply_pipeline(x, specs, np.random.default_rng(123))
        b = apply_pipeline(x, specs, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_always_applied_changes_signal(self):
        x = sine(600, 0.5)
        out = apply_pipeline(x, [AugmentSpec("add_noise", 1.0)], rng(4))
        assert out.size == x.size
        assert not np.array_equal(out, x)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AugmentSpec("reverse", 0.5)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            AugmentSpec("echo", 1.5)


@pytest.mark.parametrize("call, named", [
    (lambda: augment.time_stretch(sine(440, 0.1), 0.0), "rate must be positive, got 0.0"),
    (lambda: augment.time_stretch(sine(440, 0.1), -1.0), "rate must be positive, got -1.0"),
    (lambda: augment.hpss(sine(440, 0.1), rng(0), branch="vocal"), "branch .* got 'vocal'"),
], ids=["stretch-rate-zero", "stretch-rate-negative", "unknown-hpss-branch"])
def test_augment_raise_sites_name_their_field(call, named):
    with pytest.raises(ValueError, match=named) as raised:
        call()
    assert raised.type is ValueError
