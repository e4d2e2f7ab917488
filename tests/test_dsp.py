"""Spectrograms, Lomb-Scargle PSD and R-peak detection."""

import signal

import numpy as np
import pytest

from ecgstress.dsp import (
    SpectrogramParams,
    detect_r_peaks,
    lomb_scargle,
    normalize_spectrogram,
    rr_intervals,
    stft_spectrogram,
)
from ecgstress.signal_core import EcgRecording
from oracles import frame_stft, loop_detect_r_peaks, synth_beat_count, synth_ecg


class TestSpectrogramParams:
    def test_defaults(self):
        p = SpectrogramParams()
        assert (p.window_len, p.hop, p.freq_bins) == (64, 16, 33)

    def test_hop_exceeds_window(self):
        with pytest.raises(ValueError):
            SpectrogramParams(window_len=8, hop=16)

    def test_unknown_window_fn(self):
        with pytest.raises(ValueError):
            SpectrogramParams(window_fn="boxcar")


class TestStft:
    def test_zero_input(self):
        spec = stft_spectrogram(np.zeros(256), SpectrogramParams())
        assert spec.shape == (33, 13)
        assert np.all(spec == 0)

    def test_sinusoid_peak_bin(self):
        fs, f0 = 256.0, 32.0
        t = np.arange(256) / fs
        spec = stft_spectrogram(np.sin(2 * np.pi * f0 * t), SpectrogramParams())
        # 32 Hz at M=64, fs=256 lands on bin 32*64/256 = 8
        assert np.all(np.argmax(spec, axis=0) == 8)

    def test_frame_count(self):
        spec = stft_spectrogram(np.ones(256), SpectrogramParams())
        assert spec.shape == (33, 13)

    def test_too_short(self):
        with pytest.raises(ValueError):
            stft_spectrogram(np.zeros(32), SpectrogramParams())

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(256)
        params = SpectrogramParams()
        spec = stft_spectrogram(x, params)
        w = np.hanning(64)
        for l in range(spec.shape[1]):
            frame = x[l * 16 : l * 16 + 64] * w
            oracle = np.abs(np.fft.fft(frame)[:33]) ** 2
            np.testing.assert_allclose(spec[:, l], oracle, rtol=1e-9, atol=1e-12)

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(21)
        w = np.hanning(64)
        for _ in range(10):
            frame = rng.standard_normal(64) * w
            two_sided = np.abs(np.fft.fft(frame)) ** 2
            lhs = two_sided.sum()
            rhs = 64 * np.sum(frame**2)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    def test_nonnegative_finite(self):
        rng = np.random.default_rng(2)
        spec = stft_spectrogram(rng.standard_normal(512) * 100, SpectrogramParams())
        assert np.all(spec >= 0)
        assert np.all(np.isfinite(spec))

    @pytest.mark.parametrize("length", [64, 79, 256, 1000])
    @pytest.mark.parametrize(
        "params",
        [SpectrogramParams(), SpectrogramParams(window_len=32, hop=5)],
        ids=["default", "hop5"],
    )
    def test_matches_per_frame_oracle(self, length, params):
        x = np.random.default_rng(length).standard_normal(length)
        np.testing.assert_array_equal(stft_spectrogram(x, params), frame_stft(x, params))


    @pytest.mark.parametrize(
        "params", [SpectrogramParams(), SpectrogramParams(window_len=32, hop=5)], ids=["default", "hop5"]
    )
    def test_batch_matches_one_signal_at_a_time(self, params):
        x = np.random.default_rng(7).standard_normal((2, 3, 256)) * 50
        batch = stft_spectrogram(x, params)
        assert batch.shape == (2, 3, params.freq_bins, (256 - params.window_len) // params.hop + 1)
        for i in np.ndindex(2, 3):
            np.testing.assert_array_equal(batch[i], stft_spectrogram(x[i], params))
        np.testing.assert_array_equal(
            normalize_spectrogram(batch),
            [[normalize_spectrogram(stft_spectrogram(x[i, j], params)) for j in range(3)]
             for i in range(2)],
        )


class TestNormalize:
    def test_range(self):
        rng = np.random.default_rng(4)
        spec = stft_spectrogram(rng.standard_normal(256), SpectrogramParams())
        img = normalize_spectrogram(spec)
        assert img.min() == 0.0
        assert img.max() == 1.0

    def test_constant_maps_to_zeros(self):
        spec = stft_spectrogram(np.zeros(256), SpectrogramParams())
        assert np.all(normalize_spectrogram(spec) == 0)

    def test_each_image_scaled_on_its_own(self):
        x = np.random.default_rng(5).standard_normal((3, 256)) * np.array([[1.0], [0.0], [30.0]])
        images = normalize_spectrogram(stft_spectrogram(x, SpectrogramParams()))
        assert images.min(axis=(1, 2)).tolist() == [0.0, 0.0, 0.0]
        assert images.max(axis=(1, 2)).tolist() == [1.0, 0.0, 1.0]


class TestLombScargle:
    def test_constant_series(self):
        t = np.arange(30) * 0.9
        psd = lomb_scargle(t, np.full(30, 0.85), np.linspace(0.01, 0.4, 64))
        assert np.all(psd <= 1e-12)

    def test_uniform_sinusoid_peak(self):
        fs, n, f0 = 4.0, 256, 0.5
        t = np.arange(n) / fs
        y = np.sin(2 * np.pi * f0 * t)
        freqs = np.fft.rfftfreq(n, 1 / fs)[1:]
        psd = lomb_scargle(t, y, freqs)
        periodogram = np.abs(np.fft.rfft(y - y.mean())[1:]) ** 2
        assert freqs[np.argmax(psd)] == freqs[np.argmax(periodogram)]

    def test_alternating_rr_peak(self):
        rr = np.tile([0.8, 0.9], 20)
        t = np.cumsum(rr)
        freqs = np.linspace(0.05, 1.0, 400)
        psd = lomb_scargle(t, rr, freqs)
        peak = freqs[np.argmax(psd)]
        assert abs(peak - 1.0 / (2 * 0.85)) < 0.03

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lomb_scargle([0, 1], [1.0, 2.0], [0.1])
        with pytest.raises(ValueError):
            lomb_scargle([0, 1, 1], [1.0, 2.0, 3.0], [0.1])
        with pytest.raises(ValueError):
            lomb_scargle([0, 1, 2], [1.0, 2.0, 3.0], [0.0, 0.1])


class TestDetectRPeaks:
    def test_level0_beat_count(self):
        rec, _ = synth_ecg(0, 60.0, 256.0, 7)
        peaks = detect_r_peaks(rec)
        truth = synth_beat_count(0, 60.0, 256.0, 7)
        assert abs(len(peaks) - truth) <= 2

    def test_all_zero_signal(self):
        rec = EcgRecording("s", 256.0, np.zeros(2560))
        assert detect_r_peaks(rec) == []

    def test_level2_median_rr(self):
        rec, _ = synth_ecg(2, 60.0, 256.0, 7)
        peaks = detect_r_peaks(rec)
        _, rr = rr_intervals(peaks, 256.0)
        assert abs(np.median(rr) - 0.5) < 0.05

    def test_ascending_with_refractory_gap(self):
        rec, _ = synth_ecg(2, 30.0, 256.0, 3)
        peaks = np.array(detect_r_peaks(rec))
        gaps = np.diff(peaks)
        assert np.all(gaps > 0)
        assert np.all(gaps >= int(round(0.2 * 256)))

    def test_too_short_recording(self):
        rec = EcgRecording("s", 256.0, np.zeros(256))
        with pytest.raises(ValueError):
            detect_r_peaks(rec)

    @pytest.mark.parametrize("fs", [1.0, 2.0, 2.4])
    def test_ends_below_2_5_hz(self, fs):
        """There round(0.2 * fs) is 0 samples; the scan still ends, its peaks ascending and
        at least 200 ms apart. The oracle is not called: it once hung here too."""

        def expire(signum, frame):
            raise TimeoutError(f"detect_r_peaks at {fs} Hz still running after 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            for seed in range(20):
                x = np.random.default_rng([seed, 2]).standard_normal(20)
                peaks = detect_r_peaks(EcgRecording("s", fs, x))
                assert np.all(np.diff(peaks) / fs >= 0.2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("kind", ["random", "plateau", "sparse_spikes", "flat", "synth"])
    @pytest.mark.parametrize("fs", [100.0, 256.0])
    def test_matches_sample_loop(self, kind, fs):
        for seed in range(40):
            rng = np.random.default_rng([seed, int(fs)])
            n = int(fs * rng.uniform(2.0, 12.0))
            if kind == "random":
                x = rng.standard_normal(n)
            elif kind == "plateau":  # rounding leaves runs of equal energy
                x = np.round(rng.standard_normal(n) * rng.uniform(0.5, 3.0)) / 2
            elif kind == "sparse_spikes":
                x, spikes = np.zeros(n), rng.integers(1, 12)
                x[rng.choice(n, size=spikes, replace=False)] = rng.uniform(-3.0, 3.0, spikes)
            elif kind == "flat":
                x = np.full(n, rng.uniform(-1.0, 1.0))
            else:
                x = synth_ecg(seed % 3, n / fs, fs, seed)[0].samples
            rec = EcgRecording("s", fs, x)
            assert detect_r_peaks(rec) == loop_detect_r_peaks(rec)


class TestRrIntervals:
    def test_basic(self):
        times, rr = rr_intervals([0, 256, 512], 256.0)
        np.testing.assert_allclose(rr, [1.0, 1.0])
        np.testing.assert_allclose(times, [1.0, 2.0])

    def test_half_second(self):
        _, rr = rr_intervals([0, 128], 256.0)
        np.testing.assert_allclose(rr, [0.5])

    def test_single_peak(self):
        with pytest.raises(ValueError):
            rr_intervals([100], 256.0)
