"""Per-fold training and evaluation pipelines for every method tag."""

from __future__ import annotations

import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from . import classifiers, fusion, neuralnet
from .dsp import SpectrogramParams, normalize_spectrogram, stft_spectrogram
from .evaluation import Metrics, RunResult, compute_metrics, mean_metrics
from .hrv import FEATURE_NAMES, hrv_vector
from .neuralnet import TrainConfig
from .signal_core import Dataset


class PipelineError(RuntimeError):
    """Wraps a sub-module failure with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    method: str = "fusion_weighted"
    window_seconds: float = 1.0  # deep methods; HRV methods use hrv_window_seconds
    hrv_window_seconds: float = 4.0
    feature_dim: int = 32
    spectrogram: SpectrogramParams = field(default_factory=SpectrogramParams)
    cnn_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=30))
    svm_lambda_grid: tuple = (1e-3, 1e-2, 1e-1, 1.0)
    svm_epochs: int = 200
    knn_k_grid: tuple = (1, 3, 5, 7)
    seed: int = 0
    class_count: int = 3
    # Asymmetric-noise ablation: corrupt one modality with seeded noise
    corrupt_modality: str | None = None  # None, "raw" or "spectrogram"
    corrupt_noise_std: float = 0.0

    def snapshot(self) -> dict:
        d = asdict(self)
        d["svm_lambda_grid"] = list(self.svm_lambda_grid)
        d["knn_k_grid"] = list(self.knn_k_grid)
        return d


def fold_seed(global_seed: int, subject_id: str) -> int:
    """Deterministic per-fold seed derived from the global seed and subject."""
    return (global_seed ^ zlib.crc32(subject_id.encode())) & 0x7FFFFFFF


def _with_noise(x: np.ndarray, windows, cfg: PipelineConfig, modality: str, stream: int):
    """x plus seeded noise, each window's row its own, if cfg corrupts this modality."""
    if cfg.corrupt_modality != modality or not cfg.corrupt_noise_std > 0:
        return x
    noise = [
        np.random.default_rng(
            [cfg.seed & 0xFFFFFFFF, zlib.crc32(w.subject_id.encode()), w.start_sample, stream]
        ).standard_normal(x.shape[1:])
        for w in windows
    ]
    return x + cfg.corrupt_noise_std * np.stack(noise)


def windows_to_snippets(windows, cfg: PipelineConfig) -> np.ndarray:
    """Raw 1-second snippets shaped (N, 1, L) for the 1D CNN."""
    snippets = np.stack([w.samples for w in windows])
    return _with_noise(snippets, windows, cfg, "raw", 0xA1)[:, None, :]


def windows_to_images(windows, cfg: PipelineConfig) -> np.ndarray:
    """Normalized spectrogram images shaped (N, 1, bins, frames) for the 2D CNN."""
    spectrograms = stft_spectrogram(np.stack([w.samples for w in windows]), cfg.spectrogram)
    images = _with_noise(normalize_spectrogram(spectrograms), windows, cfg, "spectrogram", 0xA2)
    return images[:, None, :, :]


def labels_of(windows) -> np.ndarray:
    return np.array([w.label for w in windows], dtype=np.int64)


def _inner_split(n: int, seed: int):
    """Seeded 80/20 split of training-fold indices for grid search."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x6B1D])
    order = rng.permutation(n)
    cut = max(1, int(round(0.8 * n)))
    if cut >= n:
        cut = n - 1
    return order[:cut], order[cut:]


def _fit_svm(X, y, cfg: PipelineConfig, seed: int) -> dict:
    """Pick the hinge regularizer from the grid on an inner 80/20 split.

    One call trains the whole grid on the inner split; a second trains the
    chosen λ on every row.
    """
    tr, va = _inner_split(len(X), seed)
    grid = tuple(cfg.svm_lambda_grid)
    best_lam = grid[0]
    if len(np.unique(y[tr])) >= 2 and len(va) > 0:
        models = classifiers.train_linear_svm(
            X[tr], y[tr], lam=grid, epochs=cfg.svm_epochs, seed=seed
        )
        scores = [float(np.mean(classifiers.svm_predict(m, X[va]) == y[va])) for m in models]
        best_lam = grid[scores.index(max(scores))]  # the first best on a tie
    model = classifiers.train_linear_svm(X, y, lam=best_lam, epochs=cfg.svm_epochs, seed=seed)
    return {"svm": model, "svm_lambda": best_lam}


def _fit_knn(X, y, cfg: PipelineConfig, seed: int) -> dict:
    tr, va = _inner_split(len(X), seed)

    def accuracy(k):
        return float(np.mean(classifiers.knn_predict_batch(X[tr], y[tr], X[va], k) == y[va]))

    usable = [k for k in cfg.knn_k_grid if k <= len(tr)]
    best_k = max(usable, key=accuracy, default=cfg.knn_k_grid[0])  # the first best on a tie
    # Keyed by the argument names of classifiers.knn_predict_batch
    return {"knn": {"train_X": X, "train_y": y, "k": best_k}}


def _train_cnn(kind: str, x, y, cfg: PipelineConfig, seed: int) -> neuralnet.Model:
    """Build the 1D or 2D CNN for input tensor x and train it on labels y."""
    if kind == "cnn1d":
        model = neuralnet.build_cnn1d(input_len=x.shape[2], feature_dim=cfg.feature_dim, seed=seed)
    else:
        model = neuralnet.build_cnn2d(
            input_shape=x.shape[2:], feature_dim=cfg.feature_dim, seed=seed
        )
    try:
        neuralnet.train(model, x, y, TrainConfig(**{**asdict(cfg.cnn_train), "seed": seed}))
    except neuralnet.TrainingError as exc:
        raise PipelineError("cnn-training", exc) from exc
    return model


def _one_hot(labels, class_count: int) -> np.ndarray:
    return np.eye(class_count)[labels]


def _fuse(f1, f2, weights) -> np.ndarray:
    return fusion.average_fuse(f1, f2) if weights is None else fusion.weighted_fuse(f1, f2, weights)


def fusion_predict(components: dict, rows) -> np.ndarray:
    """Predicted levels of fusion feature rows, a (snippets, images) pair."""
    snippets, images = rows
    f1 = neuralnet.extract_features(components["cnn1d"], snippets)
    f2 = neuralnet.extract_features(components["cnn2d"], images)
    fused = _fuse(f1, f2, components.get("fusion_weights"))
    return classifiers.svm_predict(components["svm"], components["stats"].transform(fused))


def hrv_matrix(windows, fs: float):
    """HRV feature rows of the windows, and which of them yielded one (the rest stay zero)."""
    X = np.zeros((len(windows), len(FEATURE_NAMES)))
    valid = np.zeros(len(windows), dtype=bool)
    for i, w in enumerate(windows):
        vector = hrv_vector(w, fs)
        if vector is not None:
            X[i], valid[i] = vector, True
    return X, valid


class Method(NamedTuple):
    """How one method featurizes, trains, predicts and persists.

    features(windows, cfg, fs) -> (rows, valid): one feature row per window (a
    tuple of arrays for fusion), each depending on its own window alone, and
    a mask that is False where the window yields no row (an HRV window
    without enough beats).
    fit(rows, labels, cfg, seed) -> components, trained on valid rows only.
    predict(components, rows, cfg) -> proba[N, classes] of valid rows.
    `components` are the keys predict reads, i.e. what a bundle must hold.
    """

    window: str  # the PipelineConfig field holding this method's window length
    components: tuple
    features: Callable
    fit: Callable
    predict: Callable

    def window_seconds(self, cfg: PipelineConfig) -> float:
        return getattr(cfg, self.window)


def _every_window(to_rows) -> Callable:
    """features() of a method for which every window yields a row."""
    return lambda windows, cfg, fs: (to_rows(windows, cfg), np.ones(len(windows), dtype=bool))


def _cnn_method(kind: str, to_tensor) -> Method:
    def fit(x, y, cfg, seed):
        return {kind: _train_cnn(kind, x, y, cfg, seed)}

    def predict(components, x, cfg):
        return neuralnet.predict_proba(components[kind], x)

    return Method("window_seconds", (kind,), _every_window(to_tensor), fit, predict)


def _fusion_method(weighted: bool) -> Method:
    def to_rows(windows, cfg):
        return windows_to_snippets(windows, cfg), windows_to_images(windows, cfg)

    def fit(rows, y, cfg, seed):
        snippets, images = rows
        cnn1d = _train_cnn("cnn1d", snippets, y, cfg, seed)
        cnn2d = _train_cnn("cnn2d", images, y, cfg, seed)
        f1 = neuralnet.extract_features(cnn1d, snippets)
        f2 = neuralnet.extract_features(cnn2d, images)
        weights = fusion.compute_fusion_weights(f1, f2) if weighted else None
        fused_std, stats = classifiers.standardize_fit(_fuse(f1, f2, weights))
        parts = {"cnn1d": cnn1d, "cnn2d": cnn2d, "fusion_weights": weights, "stats": stats}
        return {**parts, **_fit_svm(fused_std, y, cfg, seed)}

    def predict(components, rows, cfg):
        return _one_hot(fusion_predict(components, rows), cfg.class_count)

    weights = ("fusion_weights",) if weighted else ()
    components = ("cnn1d", "cnn2d", *weights, "stats", "svm")
    return Method("window_seconds", components, _every_window(to_rows), fit, predict)


def _hrv_method(key: str, fit_classifier, classify) -> Method:
    def fit(X, y, cfg, seed):
        X_std, stats = classifiers.standardize_fit(X)
        return {"stats": stats, **fit_classifier(X_std, y, cfg, seed)}

    def predict(components, X, cfg):
        labels = classify(components[key], components["stats"].transform(X))
        return _one_hot(labels, cfg.class_count)

    def features(windows, cfg, fs):
        return hrv_matrix(windows, fs)

    return Method("hrv_window_seconds", ("stats", key), features, fit, predict)


# Functions are looked up by module attribute at call time, so wrappers put
# on those attributes (as tracing does) see every call made through the table.
METHODS = {
    "cnn1d": _cnn_method("cnn1d", lambda windows, cfg: windows_to_snippets(windows, cfg)),
    "cnn2d": _cnn_method("cnn2d", lambda windows, cfg: windows_to_images(windows, cfg)),
    "fusion_weighted": _fusion_method(weighted=True),
    "fusion_avg": _fusion_method(weighted=False),
    "svm_hrv": _hrv_method("svm", _fit_svm, lambda svm, X: classifiers.svm_predict(svm, X)),
    "knn_hrv": _hrv_method(
        "knn", _fit_knn, lambda knn, X: classifiers.knn_predict_batch(X=X, **knn)
    ),
}


def method_spec(method: str) -> Method:
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    return METHODS[method]


class Rows(NamedTuple):
    """The configured method's feature rows of some windows (see Method.features),
    which windows yielded one, and the windows' labels."""

    x: np.ndarray | tuple
    valid: np.ndarray
    labels: np.ndarray

    def take(self, mask) -> Rows:
        x = tuple(a[mask] for a in self.x) if isinstance(self.x, tuple) else self.x[mask]
        return Rows(x, self.valid[mask], self.labels[mask])

    def kept(self) -> Rows:
        """The valid rows; the rows themselves, not a copy, when every row is valid."""
        return self if self.valid.all() else self.take(self.valid)


def featurize(windows, cfg: PipelineConfig, fs: float) -> Rows:
    return Rows(*method_spec(cfg.method).features(windows, cfg, fs), labels_of(windows))


def fit_rows(rows: Rows, cfg: PipelineConfig, seed: int) -> dict:
    """Train every component of the configured method on the valid rows only."""
    if not rows.valid.any():
        raise PipelineError("hrv-features", ValueError("no window yielded enough beats"))
    kept = rows.kept()
    return method_spec(cfg.method).fit(kept.x, kept.labels, cfg, seed)


def predict_rows(components: dict, rows: Rows, cfg: PipelineConfig) -> np.ndarray:
    """proba[N, classes] of the rows; a row that is not valid holds no prediction (zeros)."""
    proba = np.zeros((len(rows.valid), cfg.class_count))
    if rows.valid.any():
        predict = method_spec(cfg.method).predict
        proba[rows.valid] = predict(components, rows.kept().x, cfg)
    return proba


def run_pipeline(test_subject: str, train: Rows, test: Rows, cfg: PipelineConfig) -> Metrics:
    """Train on one fold's training rows; report metrics on its test subject's rows."""
    components = fit_rows(train, cfg, fold_seed(cfg.seed, test_subject))
    if not test.valid.any():
        raise PipelineError("predict", ValueError("no test window yielded a prediction"))
    proba = predict_rows(components, test, cfg)[test.valid]
    return compute_metrics(np.argmax(proba, axis=1), test.labels[test.valid], cfg.class_count)


def evaluate_loso(data: Dataset, cfg: PipelineConfig, fs: float, jobs: int = 1) -> RunResult:
    """LOSO evaluation of the configured method: one fold per subject, in subject order.

    Every window is featurized once; each fold trains on the other subjects'
    rows and is tested on its own subject's rows.
    """
    subjects = data.subjects
    if len(subjects) < 2:
        raise ValueError(f"LOSO needs at least 2 subjects, got {len(subjects)}")
    rows = featurize(data.windows, cfg, fs)
    owner = np.array([w.subject_id for w in data.windows])
    tasks = ((s, rows.take(owner != s), rows.take(owner == s), cfg) for s in subjects)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(subjects))) as pool:
            metrics = pool.starmap(run_pipeline, tasks)
    else:
        metrics = [run_pipeline(*task) for task in tasks]
    return RunResult(
        method=cfg.method,
        per_fold=tuple(zip(subjects, metrics)),
        mean=mean_metrics(metrics),
        seed=cfg.seed,
        config_snapshot=cfg.snapshot(),
    )
