"""Per-fold training and evaluation pipelines for every method tag."""

from __future__ import annotations

import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from . import classifiers, fusion, neuralnet
from .dsp import SpectrogramParams, normalize_spectrogram, stft_spectrogram
from .evaluation import Fold, Metrics, RunResult, compute_metrics, loso_split, mean_metrics
from .hrv import hrv_vector
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


def _with_noise(arrays, windows, cfg: PipelineConfig, modality: str, stream: int) -> list:
    """The windows' arrays, each plus seeded noise of its own if cfg corrupts this modality."""
    if cfg.corrupt_modality != modality or not cfg.corrupt_noise_std > 0:
        return arrays
    noisy = []
    for a, w in zip(arrays, windows):
        rng = np.random.default_rng(
            [cfg.seed & 0xFFFFFFFF, zlib.crc32(w.subject_id.encode()), w.start_sample, stream]
        )
        noisy.append(a + cfg.corrupt_noise_std * rng.standard_normal(a.shape))
    return noisy


def windows_to_snippets(windows, cfg: PipelineConfig) -> np.ndarray:
    """Raw 1-second snippets shaped (N, 1, L) for the 1D CNN."""
    snippets = _with_noise([w.samples for w in windows], windows, cfg, "raw", 0xA1)
    return np.stack(snippets)[:, None, :]


def windows_to_images(windows, cfg: PipelineConfig) -> np.ndarray:
    """Normalized spectrogram images shaped (N, 1, bins, frames) for the 2D CNN."""
    imgs = [normalize_spectrogram(stft_spectrogram(w.samples, cfg.spectrogram)) for w in windows]
    return np.stack(_with_noise(imgs, windows, cfg, "spectrogram", 0xA2))[:, None, :, :]


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
    """Pick the hinge regularizer from the grid on an inner 80/20 split."""
    tr, va = _inner_split(len(X), seed)

    def accuracy(lam):
        model = classifiers.train_linear_svm(
            X[tr], y[tr], lam=lam, epochs=cfg.svm_epochs, seed=seed
        )
        return float(np.mean(classifiers.svm_predict(model, X[va]) == y[va]))

    best_lam = cfg.svm_lambda_grid[0]
    if len(np.unique(y[tr])) >= 2 and len(va) > 0:
        best_lam = max(cfg.svm_lambda_grid, key=accuracy)  # the first best on a tie
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


def fusion_predict(components: dict, windows, cfg: PipelineConfig) -> np.ndarray:
    f1 = neuralnet.extract_features(components["cnn1d"], windows_to_snippets(windows, cfg))
    f2 = neuralnet.extract_features(components["cnn2d"], windows_to_images(windows, cfg))
    fused = _fuse(f1, f2, components.get("fusion_weights"))
    return classifiers.svm_predict(components["svm"], components["stats"].transform(fused))


def _hrv_vectors(windows, fs: float, vectors=None):
    """HRV vectors of the windows that yield one (None if none does), and their mask.

    `vectors`, if given, are the windows' hrv_vector results, already computed.
    """
    if vectors is None:
        vectors = [hrv_vector(w, fs) for w in windows]
    valid = np.array([v is not None for v in vectors], dtype=bool)
    rows = [v for v in vectors if v is not None]
    return (np.stack(rows) if rows else None), valid


def hrv_matrix(windows, fs: float, vectors=None):
    """HRV feature matrix plus the labels of the windows that produced one."""
    X, valid = _hrv_vectors(windows, fs, vectors)
    if X is None:
        raise PipelineError("hrv-features", ValueError("no window yielded enough beats"))
    return X, labels_of(windows)[valid]


class Method(NamedTuple):
    """How one method trains, predicts and persists.

    fit(train_windows, cfg, seed, fs, vectors) -> components, fitted on those windows only.
    predict(components, windows, cfg, fs, vectors) -> (proba[N, classes], valid[N]); a
    row with valid False (an HRV window without enough beats) holds no prediction.
    `components` are the keys predict reads, i.e. what a bundle must hold.
    per_window(window, fs), if set, depends on that window alone, so a LOSO run
    computes it once per window; fit and predict then get the results for their
    windows, in order, as `vectors` (None: compute them).
    """

    window: str  # the PipelineConfig field holding this method's window length
    components: tuple
    fit: Callable
    predict: Callable
    per_window: Callable | None = None

    def window_seconds(self, cfg: PipelineConfig) -> float:
        return getattr(cfg, self.window)


def _cnn_method(kind: str, to_tensor) -> Method:
    def fit(windows, cfg, seed, fs, vectors=None):
        return {kind: _train_cnn(kind, to_tensor(windows, cfg), labels_of(windows), cfg, seed)}

    def predict(components, windows, cfg, fs, vectors=None):
        proba = neuralnet.predict_proba(components[kind], to_tensor(windows, cfg))
        return proba, np.ones(len(windows), dtype=bool)

    return Method("window_seconds", (kind,), fit, predict)


def _fusion_method(weighted: bool) -> Method:
    def fit(windows, cfg, seed, fs, vectors=None):
        y = labels_of(windows)
        snippets = windows_to_snippets(windows, cfg)
        images = windows_to_images(windows, cfg)
        cnn1d = _train_cnn("cnn1d", snippets, y, cfg, seed)
        cnn2d = _train_cnn("cnn2d", images, y, cfg, seed)
        f1 = neuralnet.extract_features(cnn1d, snippets)
        f2 = neuralnet.extract_features(cnn2d, images)
        weights = fusion.compute_fusion_weights(f1, f2) if weighted else None
        fused_std, stats = classifiers.standardize_fit(_fuse(f1, f2, weights))
        parts = {"cnn1d": cnn1d, "cnn2d": cnn2d, "fusion_weights": weights, "stats": stats}
        return {**parts, **_fit_svm(fused_std, y, cfg, seed)}

    def predict(components, windows, cfg, fs, vectors=None):
        labels = fusion_predict(components, windows, cfg)
        return _one_hot(labels, cfg.class_count), np.ones(len(windows), dtype=bool)

    weights = ("fusion_weights",) if weighted else ()
    return Method("window_seconds", ("cnn1d", "cnn2d", *weights, "stats", "svm"), fit, predict)


def _hrv_method(key: str, fit_classifier, classify) -> Method:
    def fit(windows, cfg, seed, fs, vectors=None):
        X, y = hrv_matrix(windows, fs, vectors)
        X_std, stats = classifiers.standardize_fit(X)
        return {"stats": stats, **fit_classifier(X_std, y, cfg, seed)}

    def predict(components, windows, cfg, fs, vectors=None):
        X, valid = _hrv_vectors(windows, fs, vectors)
        proba = np.zeros((len(windows), cfg.class_count))
        if X is not None:
            labels = classify(components[key], components["stats"].transform(X))
            proba[valid] = _one_hot(labels, cfg.class_count)
        return proba, valid

    return Method(
        "hrv_window_seconds", ("stats", key), fit, predict, lambda w, fs: hrv_vector(w, fs)
    )


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


def train_fold_components(fold: Fold, cfg: PipelineConfig, fs: float, vectors=None) -> dict:
    """Train every component of the configured method on the training fold only."""
    fit = method_spec(cfg.method).fit
    return fit(fold.train_windows, cfg, fold_seed(cfg.seed, fold.test_subject), fs, vectors)


def run_pipeline(fold: Fold, cfg: PipelineConfig, fs: float, vectors=(None, None)) -> Metrics:
    """Train on the fold's training windows; report metrics on the test subject.

    `vectors` are the per_window results of the training and of the test
    windows, if already computed (see Method).
    """
    train_vectors, test_vectors = vectors
    components = train_fold_components(fold, cfg, fs, train_vectors)
    predict = method_spec(cfg.method).predict
    proba, valid = predict(components, fold.test_windows, cfg, fs, test_vectors)
    if not valid.any():
        raise PipelineError("predict", ValueError("no test window yielded a prediction"))
    truth = labels_of(fold.test_windows)[valid]
    return compute_metrics(np.argmax(proba[valid], axis=1), truth, cfg.class_count)


def _run_fold(args):
    fold, cfg, fs, vectors = args
    return fold.test_subject, run_pipeline(fold, cfg, fs, vectors)


def _fold_vectors(data: Dataset, folds, per_window, fs: float) -> list:
    """Each fold's (training, test) per_window results, each window computed once."""
    if per_window is None:
        return [(None, None)] * len(folds)
    by_id = {id(w): per_window(w, fs) for w in data.windows}
    return [
        ([by_id[id(w)] for w in fold.train_windows], [by_id[id(w)] for w in fold.test_windows])
        for fold in folds
    ]


def evaluate_loso(data: Dataset, cfg: PipelineConfig, fs: float, jobs: int = 1) -> RunResult:
    """LOSO evaluation of the configured method over all subjects."""
    folds = loso_split(data)
    vectors = _fold_vectors(data, folds, method_spec(cfg.method).per_window, fs)
    tasks = [(fold, cfg, fs, v) for fold, v in zip(folds, vectors)]
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            per_fold = pool.map(_run_fold, tasks)
    else:
        per_fold = [_run_fold(t) for t in tasks]
    per_fold.sort(key=lambda sm: sm[0])
    return RunResult(
        method=cfg.method,
        per_fold=tuple(per_fold),
        mean=mean_metrics([m for _, m in per_fold]),
        seed=cfg.seed,
        config_snapshot=cfg.snapshot(),
    )
