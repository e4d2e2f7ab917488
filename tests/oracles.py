"""Test-only reference implementations and fixture helpers.

`numeric_gradient` is a central finite difference. The other CNN functions
are the engine's earlier layer passes: the `sliding_window_view` im2col
convolution forward, whose output is a transposed view of the GEMM; the
convolution input gradient from an im2col copy of the zero-padded output
gradient against the flipped filters; a max-pool that takes `argmax` over
a `(…, p·p)` copy of each block and scatters the gradient back by
`np.indices` fancy indexing; and a global average pool that adds one
position at a time. Each takes the layer it stands in for as `self`, so a
test can install it as that layer class's `forward` or `backward`. The max-pool pair keeps its argmax in its own attribute, so
its forward and backward are installed together.

`loop_train_linear_svm`, `knn_predict`, `loop_compute_metrics`,
`frame_stft`, `loop_detect_r_peaks` and `loop_krippendorff_alpha` are the
earlier loop forms of the whole-array SVM, KNN, metrics, STFT, R-peak scan
and ordinal alpha: one class, one query row, one confusion cell, one frame,
one sample and one item at a time. `one_lambda_train_linear_svm` is the SVM trainer before it
took a λ grid: all classes of one λ per call, the reference the stacked grid
must match bit for bit. `mask_freq_features` is the HRV band integration
before its bands became slices: a boolean mask of the grid per band and call.
`synth_ecg` is the seeded pulse-train recording
every fixture is built from; `hinge_objective`, `level_at`,
`synth_beat_count` and `save_recording` are helpers only tests use.
`bundle_as_v1` writes a bundle document back in format version 1, whose
arrays are nested JSON lists.
"""

from __future__ import annotations

import base64
import csv
import json
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ecgstress.evaluation import Metrics
from ecgstress.signal_core import (
    UNLABELED,
    EcgRecording,
    LabelSegment,
    LabelTrack,
    Task,
)


def numeric_gradient(fn, x, eps=1e-5):
    """Central finite-difference gradient of scalar fn at array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = fn()
        x[idx] = orig - eps
        fm = fn()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


def sliding_window_conv1d_forward(self, x):
    n, c, length = x.shape
    k = self.kernel
    lout = length - k + 1
    xw = sliding_window_view(x, k, axis=2)  # (N,C,Lout,K)
    self._xcol = np.ascontiguousarray(xw.transpose(0, 2, 1, 3)).reshape(n * lout, c * k)
    y = self._xcol @ self.w.reshape(self.w.shape[0], -1).T
    return y.reshape(n, lout, -1).transpose(0, 2, 1) + self.b[None, :, None]


def sliding_window_conv2d_forward(self, x):
    n, c, h, wdt = x.shape
    k, p = self.kernel, self.pad
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    xw = sliding_window_view(xp, (k, k), axis=(2, 3))  # (N,C,H,W,K,K)
    self._xcol = np.ascontiguousarray(xw.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * h * wdt, c * k * k
    )
    y = self._xcol @ self.w.reshape(self.w.shape[0], -1).T
    return y.reshape(n, h, wdt, -1).transpose(0, 3, 1, 2) + self.b[None, :, None, None]


def im2col_conv1d_backward(self, gy, need_gx=True):
    n, o, lout = gy.shape
    c, k = self.w.shape[1:]
    length = lout + k - 1
    gy_mat = np.ascontiguousarray(gy.transpose(0, 2, 1)).reshape(n * lout, o)
    self.gw[...] = (gy_mat.T @ self._xcol).reshape(self.w.shape)
    self.gb[...] = gy.sum(axis=(0, 2))
    gyp = np.pad(gy, ((0, 0), (0, 0), (k - 1, k - 1)))
    gyw = sliding_window_view(gyp, k, axis=2)  # (N,O,Lin,K)
    gycol = np.ascontiguousarray(gyw.transpose(0, 2, 1, 3)).reshape(n * length, o * k)
    wflip = np.ascontiguousarray(self.w[:, :, ::-1].transpose(1, 0, 2)).reshape(c, o * k)
    return (gycol @ wflip.T).reshape(n, length, c).transpose(0, 2, 1)


def im2col_conv2d_backward(self, gy, need_gx=True):
    n, o, h, wdt = gy.shape
    c, k = self.w.shape[1:3]
    p = k // 2
    gy_mat = np.ascontiguousarray(gy.transpose(0, 2, 3, 1)).reshape(n * h * wdt, o)
    self.gw[...] = (gy_mat.T @ self._xcol).reshape(self.w.shape)
    self.gb[...] = gy.sum(axis=(0, 2, 3))
    gyp = np.pad(gy, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
    gyw = sliding_window_view(gyp, (k, k), axis=(2, 3))  # (N,O,H+2p,W+2p,K,K)
    hp, wp = h + 2 * p, wdt + 2 * p
    gycol = np.ascontiguousarray(gyw.transpose(0, 2, 3, 1, 4, 5)).reshape(n * hp * wp, o * k * k)
    wflip = np.ascontiguousarray(self.w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(
        c, o * k * k
    )
    gxp = (gycol @ wflip.T).reshape(n, hp, wp, c).transpose(0, 3, 1, 2)
    return gxp[:, :, p : p + h, p : p + wdt]


def argmax_maxpool1d_forward(self, x):
    n, c, length = x.shape
    lout = length // 2
    self._oracle_in_shape = x.shape
    xr = x[:, :, : lout * 2].reshape(n, c, lout, 2)
    self._oracle_arg = xr.argmax(axis=3)
    return np.take_along_axis(xr, self._oracle_arg[..., None], axis=3)[..., 0]


def indices_maxpool1d_backward(self, gy, need_gx=True):
    n, c, length = self._oracle_in_shape
    lout = gy.shape[2]
    gx = np.zeros((n, c, lout, 2))
    idx = np.indices((n, c, lout))
    gx[idx[0], idx[1], idx[2], self._oracle_arg] = gy
    out = np.zeros(self._oracle_in_shape)
    out[:, :, : lout * 2] = gx.reshape(n, c, lout * 2)
    return out


def argmax_maxpool2d_forward(self, x):
    n, c, h, w = x.shape
    p = 2
    ho, wo = h // p, w // p
    self._oracle_in_shape = x.shape
    xr = x[:, :, : ho * p, : wo * p].reshape(n, c, ho, p, wo, p)
    xr = xr.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, p * p)
    self._oracle_arg = xr.argmax(axis=4)
    return np.take_along_axis(xr, self._oracle_arg[..., None], axis=4)[..., 0]


def indices_maxpool2d_backward(self, gy, need_gx=True):
    n, c, h, w = self._oracle_in_shape
    p = 2
    ho, wo = gy.shape[2], gy.shape[3]
    gx = np.zeros((n, c, ho, wo, p * p))
    idx = np.indices((n, c, ho, wo))
    gx[idx[0], idx[1], idx[2], idx[3], self._oracle_arg] = gy
    gx = gx.reshape(n, c, ho, wo, p, p).transpose(0, 1, 2, 4, 3, 5)
    out = np.zeros(self._oracle_in_shape)
    out[:, :, : ho * p, : wo * p] = gx.reshape(n, c, ho * p, wo * p)
    return out


def sequential_global_avg_pool2d_forward(self, x):
    """Each channel's mean, its H*W values added one at a time in row-major order."""
    n, c, h, w = x.shape
    total = np.zeros((n, c))
    for i in range(h):
        for j in range(w):
            total += x[:, :, i, j]
    return total / (h * w)


def level_at(track: LabelTrack, t: float) -> int:
    """Level of the segment of track that covers time t, else UNLABELED."""
    for seg in track.segments:
        if seg.start_s <= t < seg.end_s:
            return seg.level
    return UNLABELED


def hinge_objective(X, y_signed, w, b, lam):
    margins = np.maximum(0.0, 1.0 - y_signed * (X @ w + b))
    return lam / 2.0 * float(w @ w) + float(margins.mean())


def loop_train_linear_svm(X, y, lam=0.01, epochs=200, learning_rate=0.1):
    """(weights [classes, d], biases [classes]), one class against the rest at a time."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n_classes = int(y.max()) + 1
    d = X.shape[1]
    weights = np.zeros((n_classes, d))
    biases = np.zeros(n_classes)
    n = len(X)
    for c in range(n_classes):
        y_signed = np.where(y == c, 1.0, -1.0)
        w = np.zeros(d)
        b = 0.0
        for step in range(epochs):
            lr = learning_rate / (1.0 + 0.01 * step)
            margin = y_signed * (X @ w + b)
            active = margin < 1.0
            gw = lam * w - (y_signed[active, None] * X[active]).sum(axis=0) / n
            gb = -y_signed[active].sum() / n
            w -= lr * gw
            b -= lr * gb
        weights[c] = w
        biases[c] = b
    return weights, biases


def one_lambda_train_linear_svm(X, y, lam=0.01, epochs=200, learning_rate=0.1):
    """(weights [classes, d], biases [classes]) of one λ, all classes at once."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    Y = np.where(y[:, None] == np.arange(y.max() + 1), 1.0, -1.0)  # (n, classes)
    n = len(X)
    W = np.zeros((X.shape[1], Y.shape[1]))
    b = np.zeros(Y.shape[1])
    for step in range(epochs):
        lr = learning_rate / (1.0 + 0.01 * step)
        A = np.where(Y * (X @ W + b) < 1.0, Y, 0.0)  # active hinge terms
        W -= lr * (lam * W - X.T @ A / n)
        b -= lr * (-A.sum(axis=0) / n)
    return np.ascontiguousarray(W.T), b


def knn_predict(train_X, train_y, x, k: int) -> int:
    """Majority vote over the k nearest neighbors of one query row."""
    train_X = np.asarray(train_X, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    dists = np.linalg.norm(train_X - np.asarray(x, dtype=np.float64), axis=1)
    nearest = np.argsort(dists, kind="stable")[:k]
    return int(np.argmax(np.bincount(train_y[nearest])))


def loop_compute_metrics(preds, truth, class_count: int) -> Metrics:
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    for t, p in zip(truth, preds):
        confusion[t, p] += 1
    precisions, recalls, f1s = [], [], []
    for c in range(class_count):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return Metrics(
        accuracy=float(np.trace(confusion) / confusion.sum()),
        precision_macro=float(np.mean(precisions)),
        recall_macro=float(np.mean(recalls)),
        f1_macro=float(np.mean(f1s)),
        confusion=confusion,
    )


def frame_stft(samples, params) -> np.ndarray:
    """Power spectrogram values [bins, frames], one frame sliced at a time."""
    x = np.asarray(samples, dtype=np.float64)
    M, hop = params.window_len, params.hop
    n_frames = (len(x) - M) // hop + 1
    w = np.hanning(M)
    frames = np.stack([x[l * hop : l * hop + M] * w for l in range(n_frames)])
    return (np.abs(np.fft.rfft(frames, axis=1)) ** 2).T


def loop_detect_r_peaks(rec: EcgRecording) -> list[int]:
    """detect_r_peaks with its threshold tested at every sample in turn."""
    fs = rec.sample_rate_hz
    if rec.duration_s < 2.0:
        raise ValueError("recording must be at least 2 seconds long")
    x = rec.samples
    deriv = np.empty_like(x)
    deriv[1:] = np.diff(x)
    deriv[0] = 0.0
    win = max(1, int(round(0.150 * fs)))
    integrated = np.convolve(deriv**2, np.ones(win) / win, mode="same")
    if integrated.max() < 1e-12:
        return []
    refractory = max(1, int(round(0.200 * fs)))
    running_peak = integrated[: int(2 * fs)].max()
    threshold = 0.45 * running_peak
    peaks = []
    i = 1
    n = len(integrated)
    while i < n - 1:
        if (
            integrated[i] > threshold
            and integrated[i] >= integrated[i - 1]
            and integrated[i] >= integrated[i + 1]
        ):
            lo = max(0, i - win)
            hi = min(n, i + win)
            peak_idx = lo + int(np.argmax(np.abs(x[lo:hi])))
            if not peaks or peak_idx - peaks[-1] >= refractory:
                peaks.append(peak_idx)
                local_max = integrated[lo:hi].max()
                running_peak = 0.875 * running_peak + 0.125 * local_max
                threshold = 0.45 * running_peak
                i = max(i, peak_idx) + refractory
                continue
        i += 1
    return peaks


def mask_freq_features(times_s, rr_s):
    """hrv.freq_features with each band masked out of the grid on every call."""
    from ecgstress.hrv import FREQ_GRID, HF_BAND, LF_BAND, VLF_BAND, lomb_scargle

    power = lomb_scargle(times_s, np.asarray(rr_s, dtype=np.float64), FREQ_GRID)

    def band_power(lo, hi):
        mask = (FREQ_GRID >= lo) & (FREQ_GRID <= hi)
        if mask.sum() < 2:
            return 0.0
        return float(np.trapezoid(power[mask], FREQ_GRID[mask]))

    bands = tuple(band_power(*band) for band in (VLF_BAND, LF_BAND, HF_BAND))
    return (*bands, float(np.trapezoid(power, FREQ_GRID)))


def loop_krippendorff_alpha(tracks: list[LabelTrack]) -> float:
    """Ordinal alpha, unlabeled counted as the lowest value, one item at a time."""
    units = [[t.segments[i].level for t in tracks] for i in range(len(tracks[0].segments))]
    values = sorted({v for unit in units for v in unit})
    v_index = {v: i for i, v in enumerate(values)}
    k = len(values)

    coincidence = np.zeros((k, k))
    for unit in units:
        counts = np.zeros(k)
        for v in unit:
            counts[v_index[v]] += 1
        coincidence += (np.outer(counts, counts) - np.diag(counts)) / (len(unit) - 1)

    margins = coincidence.sum(axis=0)
    delta = np.zeros((k, k))
    for c in range(k):
        for g in range(c + 1, k):
            cum = margins[c : g + 1].sum() - (margins[c] + margins[g]) / 2.0
            delta[c, g] = delta[g, c] = cum**2

    d_observed = sum(
        coincidence[c, g] * delta[c, g] for c in range(k) for g in range(c + 1, k)
    )
    d_expected = sum(
        margins[c] * margins[g] * delta[c, g] for c in range(k) for g in range(c + 1, k)
    )
    if d_expected == 0:
        return 1.0
    return float(1.0 - (margins.sum() - 1.0) * d_observed / d_expected)


# Synthetic generator parameters: mean heart rate per stress level, chosen so the
# classes are separable by beat rate alone.
LEVEL_MEAN_HR_BPM = {0: 60.0, 1: 90.0, 2: 120.0}
_RR_JITTER_FRAC = 0.03
_NOISE_STD_MV = 0.02
_SPIKE_WIDTH_S = 0.02
_SPIKE_AMP_MV = 1.0
_TWAVE_AMP_MV = 0.3
_TWAVE_WIDTH_S = 0.05
_TWAVE_DELAY_FRAC = 0.35


def synth_ecg(class_level: int, duration_s: float, fs: float, seed: int):
    """Deterministic pulse-train ECG surrogate for one stress level.

    Returns (EcgRecording, LabelTrack) where the track labels the full
    duration with class_level. Beat rate is 60/90/120 bpm for levels 0/1/2
    with seeded RR jitter and additive Gaussian noise.
    """
    if class_level not in LEVEL_MEAN_HR_BPM:
        raise ValueError(f"class_level must be 0, 1 or 2, got {class_level}")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, class_level, 0x5EC6])
    mean_rr = 60.0 / LEVEL_MEAN_HR_BPM[class_level]

    beat_times = []
    t = mean_rr * (0.5 + 0.2 * rng.random())
    while t < duration_s:
        beat_times.append(t)
        t += mean_rr * (1.0 + _RR_JITTER_FRAC * rng.standard_normal())
    beat_times = np.array(beat_times)

    n = int(round(duration_s * fs))
    time = np.arange(n) / fs
    samples = np.zeros(n)

    def add_bump(center, amp, width):
        # Truncated Gaussian support keeps this O(n_beats * width)
        lo = max(0, int((center - 4 * width) * fs))
        hi = min(n, int((center + 4 * width) * fs) + 1)
        samples[lo:hi] += amp * np.exp(-0.5 * ((time[lo:hi] - center) / width) ** 2)

    # Each beat is an R spike followed by a T-wave bump whose delay scales
    # with the RR interval, mimicking rate-dependent QT shortening; the
    # R-to-T spacing gives every window a beat-rate cue even when it holds a
    # single beat.
    for bt in beat_times:
        add_bump(bt, _SPIKE_AMP_MV, _SPIKE_WIDTH_S)
        add_bump(bt + _TWAVE_DELAY_FRAC * mean_rr, _TWAVE_AMP_MV, _TWAVE_WIDTH_S)
    samples += _NOISE_STD_MV * rng.standard_normal(n)

    rec = EcgRecording(
        subject_id=f"synth-{class_level}-{seed}",
        sample_rate_hz=float(fs),
        samples=samples,
        task=Task.OTHER,
    )
    track = LabelTrack(
        rater_id="consensus",
        segments=(LabelSegment(0.0, duration_s, class_level),),
    )
    return rec, track


def synth_beat_count(class_level: int, duration_s: float, fs: float, seed: int) -> int:
    """Ground-truth beat count of synth_ecg with identical arguments."""
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, class_level, 0x5EC6])
    mean_rr = 60.0 / LEVEL_MEAN_HR_BPM[class_level]
    count = 0
    t = mean_rr * (0.5 + 0.2 * rng.random())
    while t < duration_s:
        count += 1
        t += mean_rr * (1.0 + _RR_JITTER_FRAC * rng.standard_normal())
    return count


def save_recording(rec: EcgRecording, signal_path, meta_path) -> None:
    """Inverse of load_recording; used for fixtures and round-trip checks."""
    with open(signal_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "value_mv"])
        for i, v in enumerate(rec.samples):
            writer.writerow([i, repr(float(v))])
    Path(meta_path).write_text(
        json.dumps(
            {
                "subject_id": rec.subject_id,
                "sample_rate_hz": rec.sample_rate_hz,
                "task": rec.task.value,
            },
            indent=2,
        )
    )


def bundle_as_v1(doc: dict) -> dict:
    """A format-2 bundle document with every array object written as the nested
    list that format 1 stored, and format_version 1."""

    def v1(value):
        if isinstance(value, dict) and set(value) == {"dtype", "shape", "b64"}:
            data = base64.b64decode(value["b64"], validate=True)
            return np.frombuffer(data, dtype=value["dtype"]).reshape(value["shape"]).tolist()
        if isinstance(value, dict):
            return {k: v1(v) for k, v in value.items()}
        if isinstance(value, list):
            return [v1(v) for v in value]
        return value

    return {**v1(doc), "format_version": 1}
