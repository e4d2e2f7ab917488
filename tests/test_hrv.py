"""Time- and frequency-domain HRV features."""

import numpy as np
import pytest

from ecgstress.hrv import (
    BAND_SLICES,
    FEATURE_NAMES,
    FREQ_GRID,
    HF_BAND,
    LF_BAND,
    VLF_BAND,
    InsufficientBeatsError,
    _band_slice,
    freq_features,
    hrv_vector,
    time_features,
)
from ecgstress.signal_core import Window, segment_windows
from oracles import mask_freq_features, synth_ecg


class TestTimeFeatures:
    def test_constant_rr(self):
        hr, rmssd, avnn, sdnn, pnn50 = time_features([1.0, 1.0, 1.0, 1.0])
        assert (hr, avnn, sdnn, rmssd, pnn50) == (60.0, 1000.0, 0.0, 0.0, 0.0)

    def test_alternating_rr(self):
        hr, rmssd, avnn, sdnn, pnn50 = time_features([0.8, 0.9, 0.8, 0.9])
        assert avnn == pytest.approx(850.0)
        assert rmssd == pytest.approx(100.0)
        assert pnn50 == 100.0

    def test_fast_rr(self):
        hr, *_ = time_features([0.5, 0.5])
        assert hr == pytest.approx(120.0)

    def test_too_few_intervals(self):
        with pytest.raises(InsufficientBeatsError):
            time_features([1.0])

    def test_two_intervals_use_single_diff(self):
        _, rmssd, _, _, pnn50 = time_features([0.8, 0.9])
        assert rmssd == pytest.approx(100.0)
        assert pnn50 == 100.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        rr = 0.8 + 0.1 * rng.random(20)
        base = time_features(rr)
        shifted = time_features(rr + 0.3)
        # rmssd, sdnn, pnn50 unchanged; hr and avnn move
        assert shifted[1] == pytest.approx(base[1], rel=1e-9)
        assert shifted[3] == pytest.approx(base[3], rel=1e-9)
        assert shifted[4] == base[4]
        assert shifted[0] != base[0]
        assert shifted[2] != base[2]

    def test_pnn50_threshold(self):
        # 46.875 ms difference (exactly representable) is below the 50 ms bar
        *_, below = time_features([0.5, 0.546875])
        assert below == 0.0
        # 62.5 ms difference is above it
        *_, above = time_features([0.5, 0.5625])
        assert above == 100.0


def _modulated_rr(mod_hz: float, n: int = 120) -> tuple[np.ndarray, np.ndarray]:
    rr = np.empty(n)
    t = 0.0
    times = np.empty(n)
    for i in range(n):
        rr[i] = 0.8 + 0.05 * np.sin(2 * np.pi * mod_hz * t)
        t += rr[i]
        times[i] = t
    return times, rr


class TestFreqFeatures:
    def test_constant_rr(self):
        rr = np.full(20, 0.8)
        vlf, lf, hf, tp = freq_features(np.cumsum(rr), rr)
        assert max(vlf, lf, hf, tp) <= 1e-10

    def test_lf_modulation(self):
        times, rr = _modulated_rr(0.10)
        vlf, lf, hf, tp = freq_features(times, rr)
        assert lf > hf and lf > vlf

    def test_hf_modulation(self):
        times, rr = _modulated_rr(0.25)
        vlf, lf, hf, tp = freq_features(times, rr)
        assert hf > lf and hf > vlf

    def test_band_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rr = 0.8 + 0.1 * rng.random(40)
            vlf, lf, hf, tp = freq_features(np.cumsum(rr), rr)
            assert vlf + lf + hf <= tp + 1e-9

    def test_too_few_intervals(self):
        with pytest.raises(InsufficientBeatsError):
            freq_features([1.0, 2.0], [1.0, 1.0])


def _grid_edges():
    """(lo, hi) bands around grid points: on a point, one ulp either side of it, between
    two points, past either end, and bands of 0, 1 and 2 points."""
    g = FREQ_GRID
    out = [(lo, hi) for lo, hi in (VLF_BAND, LF_BAND, HF_BAND)]
    for k in (0, 1, 47, 48, 188, 189, 510, 511):
        for lo in (g[k], np.nextafter(g[k], -1), np.nextafter(g[k], 1)):
            for hi in (g[k], g[min(k + 1, 511)], np.nextafter(g[min(k + 1, 511)], -1), g[-1] + 1):
                out.append((lo, hi))
    out += [(0.0, g[0] / 2), (g[-1] * 2, 1.0), ((g[3] + g[4]) / 2, (g[4] + g[5]) / 2), (0.2, 0.1)]
    return out


class TestBandSlices:
    """The band slices hold exactly the grid points lo <= f <= hi, and band powers
    integrated over them equal those integrated over masks, bit for bit."""

    def test_slice_is_the_mask(self):
        for lo, hi in _grid_edges():
            mask = (FREQ_GRID >= lo) & (FREQ_GRID <= hi)
            got = np.arange(len(FREQ_GRID))[_band_slice(lo, hi)]
            assert got.tolist() == np.flatnonzero(mask).tolist(), (lo, hi)

    def test_bands(self):
        assert BAND_SLICES == tuple(_band_slice(*b) for b in (VLF_BAND, LF_BAND, HF_BAND))
        for s in BAND_SLICES:
            assert s.stop - s.start >= 2

    def test_powers_equal_masked_integrals(self):
        rng = np.random.default_rng(21)
        series = [_modulated_rr(f) for f in (0.01, 0.04, 0.10, 0.15, 0.25, 0.40)]
        for n in (4, 7, 40):
            rr = 0.6 + 0.4 * rng.random(n)
            series.append((np.cumsum(rr), rr))
        for times, rr in series:
            assert freq_features(times, rr) == mask_freq_features(times, rr)


class TestHrvVector:
    def _window(self, level, seed=7):
        rec, track = synth_ecg(level, 12.0, 256.0, seed)
        windows = segment_windows(rec, track, 4.0)
        return windows[1]

    def test_level0_heart_rate(self):
        vec = hrv_vector(self._window(0), 256.0)
        assert vec is not None
        hr = vec[FEATURE_NAMES.index("hr_bpm")]
        assert 50.0 <= hr <= 70.0

    def test_level_monotonic(self):
        v0 = hrv_vector(self._window(0), 256.0)
        v2 = hrv_vector(self._window(2), 256.0)
        assert v2[0] > v0[0]

    def test_zero_window_skipped(self):
        w = Window("s", 0, 1024, 0, np.zeros(1024))
        assert hrv_vector(w, 256.0) is None

    def test_vector_length(self):
        vec = hrv_vector(self._window(1), 256.0)
        assert vec.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(vec))
