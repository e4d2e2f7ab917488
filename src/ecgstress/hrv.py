"""Time- and frequency-domain HRV features for the classical baseline path."""

from __future__ import annotations

import logging

import numpy as np

from .dsp import detect_r_peaks, lomb_scargle, rr_intervals
from .signal_core import EcgRecording, Task, Window

log = logging.getLogger(__name__)

FEATURE_NAMES = (
    "hr_bpm",
    "rmssd_ms",
    "avnn_ms",
    "sdnn_ms",
    "pnn50_pct",
    "vlf_power",
    "lf_power",
    "hf_power",
    "tp_power",
)

VLF_BAND = (0.0033, 0.04)
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.40)
FREQ_GRID = np.linspace(0.0033, 0.40, 512)


class InsufficientBeatsError(ValueError):
    pass


def time_features(rr_s):
    """HR, RMSSD, AVNN, SDNN and pNN50 from RR intervals in seconds.

    SDNN uses the population standard deviation. pNN50 counts successive
    differences strictly greater than 50 ms.
    """
    rr = np.asarray(rr_s, dtype=np.float64)
    if len(rr) < 2:
        raise InsufficientBeatsError(f"need at least 2 RR intervals, got {len(rr)}")
    rr_ms = rr * 1000.0
    avnn = float(np.mean(rr_ms))
    hr = 60000.0 / avnn
    sdnn = float(np.std(rr_ms))
    diffs = np.diff(rr_ms)
    rmssd = float(np.sqrt(np.mean(diffs**2)))
    pnn50 = float(100.0 * np.mean(np.abs(diffs) > 50.0))
    return hr, rmssd, avnn, sdnn, pnn50


def freq_features(times_s, rr_s):
    """VLF/LF/HF band powers and total power from a Lomb-Scargle PSD.

    Band powers are trapezoidal integrals over the fixed 0.0033-0.40 Hz grid;
    total power integrates the whole grid.
    """
    rr = np.asarray(rr_s, dtype=np.float64)
    if len(rr) < 3:
        raise InsufficientBeatsError(f"need at least 3 RR intervals, got {len(rr)}")
    power = lomb_scargle(times_s, rr, FREQ_GRID)

    def band_power(lo, hi):
        mask = (FREQ_GRID >= lo) & (FREQ_GRID <= hi)
        if mask.sum() < 2:
            return 0.0
        return float(np.trapezoid(power[mask], FREQ_GRID[mask]))

    vlf = band_power(*VLF_BAND)
    lf = band_power(*LF_BAND)
    hf = band_power(*HF_BAND)
    tp = float(np.trapezoid(power, FREQ_GRID))
    return vlf, lf, hf, tp


def hrv_vector(window: Window, fs: float) -> np.ndarray | None:
    """9-feature HRV vector for one window in FEATURE_NAMES order, or None when too few beats.

    Windows with fewer than 3 detected peaks are skipped (logged), never
    imputed.
    """
    rec = EcgRecording(
        subject_id=window.subject_id,
        sample_rate_hz=fs,
        samples=window.samples,
        task=Task.OTHER,
    )
    peaks = detect_r_peaks(rec)
    # freq_features needs >= 3 intervals, i.e. >= 4 peaks
    if len(peaks) < 4:
        log.info(
            "skipping window %s@%d: only %d peaks detected",
            window.subject_id,
            window.start_sample,
            len(peaks),
        )
        return None
    times_s, rr_s = rr_intervals(peaks, fs)
    return np.array([*time_features(rr_s), *freq_features(times_s, rr_s)])
