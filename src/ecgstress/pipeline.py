"""Per-fold training and evaluation pipelines for every method tag."""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from . import classifiers, fusion, neuralnet
from .dsp import SpectrogramParams, normalize_spectrogram, stft_spectrogram
from .evaluation import Metrics, RunResult, compute_metrics, mean_metrics
from .hrv import FEATURE_NAMES, hrv_vector
from .jobs import one_blas_thread, run_jobs
from .neuralnet import TrainConfig
from .signal_core import LEVELS, Dataset


class PipelineError(RuntimeError):
    """Wraps a sub-module failure with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage, self.cause = stage, cause

    def __reduce__(self):  # so that a CNN queue helper can send it back
        return type(self), (self.stage, self.cause)


@dataclass
class PipelineConfig:
    method: str = "fusion_weighted"
    window_seconds: float = 1.0  # deep methods; HRV methods use hrv_window_seconds
    hrv_window_seconds: float = 4.0
    feature_dim: int = 32
    spectrogram: SpectrogramParams = field(default_factory=SpectrogramParams)
    cnn_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=30))
    svm_lambda_grid: tuple = (1e-3, 1e-2, 1e-1, 1.0)
    knn_k_grid: tuple = (1, 3, 5, 7)
    seed: int = 0
    # Asymmetric-noise ablation: corrupt one modality with seeded noise
    corrupt_modality: str | None = None  # None, "raw" or "spectrogram"
    corrupt_noise_std: float = 0.0

    def __post_init__(self):
        for name in ("window_seconds", "hrv_window_seconds"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be at least 1, got {self.feature_dim}")
        grid = self.svm_lambda_grid
        if not all(0 < lam < math.inf for lam in grid):
            raise ValueError(f"svm_lambda_grid values must be finite and positive, got {grid}")
        if min(self.knn_k_grid) < 1:
            raise ValueError(f"knn_k_grid values must be at least 1, got {self.knn_k_grid}")
        if self.corrupt_modality not in (None, "raw", "spectrogram"):
            raise ValueError(
                "corrupt_modality must be none, raw or spectrogram, "
                f"got {self.corrupt_modality!r}"
            )
        if not 0 <= self.corrupt_noise_std < math.inf:
            raise ValueError(
                f"corrupt_noise_std must be finite and nonnegative, got {self.corrupt_noise_std}"
            )
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'")


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
        models = classifiers.train_linear_svm(X[tr], y[tr], lam=grid)
        scores = [float(np.mean(classifiers.svm_predict(m, X[va]) == y[va])) for m in models]
        best_lam = grid[scores.index(max(scores))]  # the first best on a tie
    model = classifiers.train_linear_svm(X, y, lam=best_lam)
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


def train_cnns(rows: Rows, folds: list, cfg: PipelineConfig, helpers: int) -> list[dict]:
    """{kind: trained CNN} of each (mask, seed) fold: one CNN per non-"hrv" input of
    the configured method, trained on that input's array, on the valid rows of
    `rows` that the fold's mask selects.

    In serial order, fold by fold and cnn1d before cnn2d, the trainings are the
    jobs of one queue (see jobs.run_jobs), worked by this process and up to
    `helpers` forked helper processes, every cnn2d job first: cnn2d trains about
    2.5 times as long as cnn1d, and longest first leaves the least idle time at
    the end (Graham, SIAM J. Appl. Math. 1969). A helper is a process, not a
    thread, because a training step is many small numpy calls that hold the GIL
    for much of the step: two threads wait on each other, and how long depends
    on how soon the host wakes the waiting one. The caller holds the BLAS pin
    and gives helpers only under it, so each helper starts with one BLAS thread.
    Each training depends on its (kind, rows, seed) alone, so the models are the
    same with any number of helpers. A job copies its fold's rows of its own
    input when it starts, so only the running jobs' copies are held at once.
    """
    inputs = dict(zip(METHODS[cfg.method].inputs, rows.x))
    # (fold, kind, the rows it trains on, seed) in serial order
    jobs = [(f, kind, mask & rows.valid, seed) for f, (mask, seed) in enumerate(folds)
            for kind in inputs if kind != "hrv"]

    def train(i):
        _, kind, keep, seed = jobs[i]
        return _train_cnn(kind, inputs[kind][keep], rows.labels[keep], cfg, seed)

    models = run_jobs(train, len(jobs), helpers, key=lambda i: jobs[i][1] != "cnn2d")
    trained = [{} for _ in folds]
    for (f, kind, *_), model in zip(jobs, models):
        trained[f][kind] = model
    return trained


def _one_hot(labels) -> np.ndarray:
    return np.eye(len(LEVELS))[labels]


def _fuse(f1, f2, weights) -> np.ndarray:
    return fusion.average_fuse(f1, f2) if weights is None else fusion.weighted_fuse(f1, f2, weights)


def fusion_predict(components: dict, rows) -> np.ndarray:
    """Predicted levels of fusion feature rows, a (snippets, images) pair."""
    snippets, images = rows
    f1 = neuralnet.extract_features(components["cnn1d"], snippets)
    f2 = neuralnet.extract_features(components["cnn2d"], images)
    fused = _fuse(f1, f2, components.get("fusion_weights"))
    return classifiers.svm_predict(components["svm"], components["stats"].transform(fused))


# Windows per job of hrv_matrix's queue: a window takes about 0.5 ms, so a job
# is long next to taking it from the queue, and the last job leaves one process
# idle only briefly
_HRV_CHUNK = 16
# Fewest chunks for which the queue forks: a fresh `predict` of 5 chunks ran
# faster without a helper in most pairs, one of 6 with it
_MIN_FORK_CHUNKS = 6


def hrv_matrix(windows, fs: float, helpers: int = 1):
    """HRV feature rows of the windows, and which of them yielded one (the rest stay zero).

    Chunks of consecutive windows are the jobs of one queue that this process and
    up to `helpers` forked helpers work through (see jobs.run_jobs), or this process
    alone under _MIN_FORK_CHUNKS chunks. Each vector depends on its own window
    alone, so the rows are the same whichever process computes them.
    """
    chunks = [windows[i:i + _HRV_CHUNK] for i in range(0, len(windows), _HRV_CHUNK)]
    helpers = helpers if len(chunks) >= _MIN_FORK_CHUNKS else 0
    vectors = run_jobs(lambda c: [hrv_vector(w, fs) for w in chunks[c]], len(chunks), helpers)
    X = np.zeros((len(windows), len(FEATURE_NAMES)))
    valid = np.zeros(len(windows), dtype=bool)
    for i, vector in enumerate(v for chunk in vectors for v in chunk):
        if vector is not None:
            X[i], valid[i] = vector, True
    return X, valid


class Method(NamedTuple):
    """How one method featurizes, trains, predicts and persists.

    inputs: the kinds of its feature rows, one array each in Rows.x, in this
    order: "cnn1d" (raw snippets), "cnn2d" (spectrogram images) or "hrv" (HRV
    rows). train_cnns trains one CNN of each non-"hrv" kind on its input's
    array before fit.
    fit(x, labels, cfg, seed, cnns) -> components, trained on valid rows only,
    given those CNNs as {kind: model}.
    predict(components, x) -> proba[N, len(LEVELS)] of valid rows.
    `components` are the keys predict reads, i.e. what a bundle must hold.
    """

    inputs: tuple
    components: tuple
    fit: Callable
    predict: Callable

    def window_seconds(self, cfg: PipelineConfig) -> float:
        return cfg.hrv_window_seconds if "hrv" in self.inputs else cfg.window_seconds


def _cnn_method(kind: str) -> Method:
    def fit(x, y, cfg, seed, cnns):
        return cnns

    def predict(components, x):
        return neuralnet.predict_proba(components[kind], x[0])

    return Method((kind,), (kind,), fit, predict)


def _fusion_method(weighted: bool) -> Method:
    def fit(x, y, cfg, seed, cnns):
        snippets, images = x
        f1 = neuralnet.extract_features(cnns["cnn1d"], snippets)
        f2 = neuralnet.extract_features(cnns["cnn2d"], images)
        weights = fusion.compute_fusion_weights(f1, f2) if weighted else None
        fused_std, stats = classifiers.standardize_fit(_fuse(f1, f2, weights))
        parts = {**cnns, "fusion_weights": weights, "stats": stats}
        return {**parts, **_fit_svm(fused_std, y, cfg, seed)}

    def predict(components, x):
        return _one_hot(fusion_predict(components, x))

    weights = ("fusion_weights",) if weighted else ()
    components = ("cnn1d", "cnn2d", *weights, "stats", "svm")
    return Method(("cnn1d", "cnn2d"), components, fit, predict)


def _hrv_method(key: str, fit_classifier, classify) -> Method:
    def fit(x, y, cfg, seed, cnns):
        X_std, stats = classifiers.standardize_fit(x[0])
        return {"stats": stats, **fit_classifier(X_std, y, cfg, seed)}

    def predict(components, x):
        return _one_hot(classify(components[key], components["stats"].transform(x[0])))

    return Method(("hrv",), ("stats", key), fit, predict)


# Functions are looked up by module attribute at call time, so wrappers put
# on those attributes (as tracing does) see every call made through the table.
METHODS = {
    "cnn1d": _cnn_method("cnn1d"),
    "cnn2d": _cnn_method("cnn2d"),
    "fusion_weighted": _fusion_method(weighted=True),
    "fusion_avg": _fusion_method(weighted=False),
    "svm_hrv": _hrv_method("svm", _fit_svm, lambda svm, X: classifiers.svm_predict(svm, X)),
    "knn_hrv": _hrv_method(
        "knn", _fit_knn, lambda knn, X: classifiers.knn_predict_batch(X=X, **knn)
    ),
}


class Rows(NamedTuple):
    """Feature rows of some windows, one array per input of the configured method
    in its order (see Method.inputs), which windows yielded a row, and the
    windows' labels."""

    x: tuple
    valid: np.ndarray
    labels: np.ndarray

    def take(self, mask) -> Rows:
        return Rows(tuple(a[mask] for a in self.x), self.valid[mask], self.labels[mask])

    def kept(self) -> Rows:
        """The valid rows; the rows themselves, not a copy, when every row is valid."""
        return self if self.valid.all() else self.take(self.valid)


def featurize(windows, cfg: PipelineConfig, fs: float, helpers: int = 1) -> Rows:
    """Each input of the configured method featurized once (HRV rows with up to
    `helpers` forked helpers); a window is valid unless its HRV row could not be computed."""
    x, valid = [], np.ones(len(windows), dtype=bool)
    for kind in METHODS[cfg.method].inputs:
        if kind == "hrv":
            rows, valid = hrv_matrix(windows, fs, helpers)
        elif kind == "cnn1d":
            rows = windows_to_snippets(windows, cfg)
        else:
            rows = windows_to_images(windows, cfg)
        x.append(rows)
    return Rows(tuple(x), valid, labels_of(windows))


def fit_rows(rows: Rows, cfg: PipelineConfig, seed: int, cnns: dict | None = None) -> dict:
    """Train every component of the configured method on the valid rows only, with
    BLAS on one thread.

    cnns are the method's CNNs as train_cnns trained them on these rows and seed;
    without them, train_cnns trains them here first, with the helpers the pin gives.
    """
    if not rows.valid.any():
        raise PipelineError("hrv-features", ValueError("no window yielded enough beats"))
    kept = rows.kept()
    with one_blas_thread() as helpers:
        if cnns is None:
            (cnns,) = train_cnns(rows, [(rows.valid, seed)], cfg, helpers)
        return METHODS[cfg.method].fit(kept.x, kept.labels, cfg, seed, cnns)


def predict_rows(components: dict, rows: Rows, cfg: PipelineConfig) -> np.ndarray:
    """proba[N, len(LEVELS)] of the rows; a row that is not valid holds no prediction (zeros)."""
    proba = np.zeros((len(rows.valid), len(LEVELS)))
    if rows.valid.any():
        proba[rows.valid] = METHODS[cfg.method].predict(components, rows.kept().x)
    return proba


def run_pipeline(
    test_subject: str, train: Rows, test: Rows, cfg: PipelineConfig, cnns: dict | None = None
) -> Metrics:
    """Train on one fold's training rows; report metrics on its test subject's rows.

    cnns are the fold's CNNs if train_cnns has trained them already (see fit_rows).
    """
    components = fit_rows(train, cfg, fold_seed(cfg.seed, test_subject), cnns)
    if not test.valid.any():
        raise PipelineError("predict", ValueError("no test window yielded a prediction"))
    proba = predict_rows(components, test, cfg)[test.valid]
    return compute_metrics(np.argmax(proba, axis=1), test.labels[test.valid], len(LEVELS))


def evaluate_loso(data: Dataset, cfg: PipelineConfig, fs: float, jobs: int = 1) -> RunResult:
    """LOSO evaluation of the configured method: one fold per subject, in subject order.

    Every window is featurized once; each fold trains on the other subjects'
    rows and is tested on its own subject's rows. HRV rows, then every fold's CNNs
    (see train_cnns), are computed by a queue each; then each fold, a job of a
    third queue taken in subject order, fits the rest of its method and is
    scored, and sends back only its metrics. Every queue forks the helpers
    one_blas_thread(jobs) gives. The results are the same as one process's, since
    each fold depends on its rows, seed and CNNs alone. BLAS is set to one thread
    once, before featurization, and stays there throughout; without a setter to
    pin it, every job runs here in serial order.
    """
    subjects = data.subjects
    if len(subjects) < 2:
        raise ValueError(f"LOSO needs at least 2 subjects, got {len(subjects)}")
    with one_blas_thread(jobs) as helpers:
        rows = featurize(data.windows, cfg, fs, helpers)
        owner = np.array([w.subject_id for w in data.windows])
        folds = [(owner != s, fold_seed(cfg.seed, s)) for s in subjects]  # training rows, seed
        cnns = train_cnns(rows, folds, cfg, helpers)

        def score(f):
            mask = folds[f][0]
            return run_pipeline(subjects[f], rows.take(mask), rows.take(~mask), cfg, cnns[f])

        metrics = run_jobs(score, len(folds), helpers)
    return RunResult(
        method=cfg.method,
        per_fold=tuple(zip(subjects, metrics)),
        mean=mean_metrics(metrics),
        seed=cfg.seed,
        config_snapshot=asdict(cfg),
    )
