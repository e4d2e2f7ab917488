"""Signal transforms: STFT spectrograms, Lomb-Scargle PSD and R-peak detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class SpectrogramParams:
    window_len: int = 64
    hop: int = 16

    def __post_init__(self):
        if type(self.window_len) is not int or type(self.hop) is not int:
            raise ValueError(
                f"window_len and hop must be integers, got {self.window_len!r} and {self.hop!r}"
            )
        if self.window_len <= 0 or self.hop <= 0:
            raise ValueError("window_len and hop must be positive")
        if self.hop > self.window_len:
            raise ValueError(f"hop ({self.hop}) must not exceed window_len ({self.window_len})")


def stft_spectrogram(samples, params: SpectrogramParams) -> np.ndarray:
    """One-sided power spectrograms [..., window_len // 2 + 1, frames] of signals [..., samples].

    Each entry is |DFT of the Hann-windowed frame|^2. Frame l covers samples
    [l*hop, l*hop + window_len); the frame count is
    floor((samples - window_len) / hop) + 1.
    """
    x = np.asarray(samples, dtype=np.float64)
    M, hop = params.window_len, params.hop
    if x.shape[-1] < M:
        raise ValueError(f"input length {x.shape[-1]} is shorter than window_len {M}")
    frames = sliding_window_view(x, M, axis=-1)[..., ::hop, :] * np.hanning(M)
    power = np.abs(np.fft.rfft(frames, axis=-1)) ** 2
    return np.ascontiguousarray(np.swapaxes(power, -1, -2))


def normalize_spectrogram(spec) -> np.ndarray:
    """Log-compress and min-max scale each image (the last two axes) to [0, 1] for the CNN.

    A constant image maps to zeros.
    """
    img = np.log1p(spec)
    lo = img.min(axis=(-2, -1), keepdims=True)
    span = img.max(axis=(-2, -1), keepdims=True) - lo
    flat = span < 1e-30
    return np.where(flat, 0.0, (img - lo) / np.where(flat, 1.0, span))


def lomb_scargle(times_s, values, freqs_hz) -> np.ndarray:
    """Classic normalized Lomb-Scargle periodogram of a mean-centered series, at freqs_hz."""
    t = np.asarray(times_s, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    f = np.asarray(freqs_hz, dtype=np.float64)
    if len(t) < 3:
        raise ValueError(f"need at least 3 samples, got {len(t)}")
    if len(t) != len(y):
        raise ValueError("times and values must have equal length")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly ascending (duplicates not allowed)")
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")

    yc = y - y.mean()
    var = np.sum(yc**2) / (len(y) - 1)
    # A (numerically) constant series has no spectral content; bail out
    # before the 1/var normalization can amplify centering roundoff.
    if var <= 1e-24 * max(1.0, float(np.mean(y**2))):
        return np.zeros(len(f))
    omega = 2.0 * np.pi * f[:, None]  # [F, 1]
    # Time offset tau makes the estimator invariant to time shifts
    tau = np.arctan2(np.sum(np.sin(2 * omega * t), axis=1), np.sum(np.cos(2 * omega * t), axis=1)) / (
        2.0 * omega[:, 0]
    )
    arg = omega * (t - tau[:, None])
    c, s = np.cos(arg), np.sin(arg)
    cc = np.maximum(np.sum(c**2, axis=1), 1e-300)
    ss = np.maximum(np.sum(s**2, axis=1), 1e-300)
    power = 0.5 * (np.sum(yc * c, axis=1) ** 2 / cc + np.sum(yc * s, axis=1) ** 2 / ss) / var
    return np.maximum(power, 0.0)


_INTEGRATION_S = 0.150
_REFRACTORY_S = 0.200
MIN_DETECTION_S = 2.0  # the shortest signal, in seconds, detect_r_peaks takes


def detect_r_peaks(samples, fs: float) -> list[int]:
    """Detect R peaks in finite samples taken at fs Hz via difference/square/integrate
    with an adaptive threshold.

    Returns ascending sample indices; an empty list for flat or sub-threshold
    signals. Consecutive peaks are at least 200 ms apart.
    """
    x = np.asarray(samples, dtype=np.float64)
    if len(x) / fs < MIN_DETECTION_S:
        raise ValueError(f"signal must be at least {MIN_DETECTION_S:g} seconds long")

    deriv = np.empty_like(x)
    deriv[1:] = np.diff(x)
    deriv[0] = 0.0
    energy = deriv**2
    win = max(1, int(round(_INTEGRATION_S * fs)))
    kernel = np.ones(win) / win
    integrated = np.convolve(energy, kernel, mode="same")

    if integrated.max() < 1e-12:
        return []

    # At least one sample, or below 2.5 Hz the scan would find the same peak forever
    refractory = max(1, int(round(_REFRACTORY_S * fs)))
    # Adaptive threshold: a running fraction of recent peak energy
    running_peak = integrated[: int(2 * fs)].max()
    threshold = 0.45 * running_peak
    # Only a local maximum of the energy can start a peak; scan those in order
    inner = integrated[1:-1]
    candidates = 1 + np.flatnonzero((inner >= integrated[:-2]) & (inner >= integrated[2:]))
    heights = integrated[candidates]
    n = len(integrated)
    peaks = []
    j = 0
    while True:
        above = np.flatnonzero(heights[j:] > threshold)
        if not len(above):
            return peaks
        j += int(above[0])
        i = int(candidates[j])
        lo = max(0, i - win)
        hi = min(n, i + win)
        peak_idx = lo + int(np.argmax(np.abs(x[lo:hi])))
        if peaks and peak_idx - peaks[-1] < refractory:
            j += 1
            continue
        peaks.append(peak_idx)
        local_max = integrated[lo:hi].max()
        running_peak = 0.875 * running_peak + 0.125 * local_max
        threshold = 0.45 * running_peak
        # Resume at the first candidate past the refractory period
        j = int(np.searchsorted(candidates, max(i, peak_idx) + refractory))


def rr_intervals(peaks, fs: float):
    """RR intervals and their end-timestamps from peak sample indices."""
    peaks = np.asarray(peaks, dtype=np.int64)
    if len(peaks) < 2:
        raise ValueError(f"need at least 2 peaks for RR intervals, got {len(peaks)}")
    rr_s = np.diff(peaks) / fs
    times_s = peaks[1:] / fs
    return times_s, rr_s
