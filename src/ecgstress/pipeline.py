"""Per-fold training and evaluation pipelines for every method tag."""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import zlib
from collections.abc import Callable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, asdict
from functools import cache
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
        models = classifiers.train_linear_svm(X[tr], y[tr], lam=grid, epochs=cfg.svm_epochs)
        scores = [float(np.mean(classifiers.svm_predict(m, X[va]) == y[va])) for m in models]
        best_lam = grid[scores.index(max(scores))]  # the first best on a tie
    model = classifiers.train_linear_svm(X, y, lam=best_lam, epochs=cfg.svm_epochs)
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


# Thread-count getter and setter of numpy's OpenBLAS, by build: scipy-openblas wheels,
# 64-bit-integer builds, then plain builds
_BLAS_THREAD_CALLS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


@cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS loaded in this process, or None.

    Looked up once: numpy, imported above, has loaded its BLAS by the first call.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    except OSError:
        return None
    libraries = dict.fromkeys(
        f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()
    )
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_CALLS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, and its previous count restored
    after; yields whether it could be set.

    The CNNs' GEMMs (9 to 144 columns) are too small to share among BLAS threads, so
    a second core pays only when it runs other work. The count is process-wide:
    only the thread that enters the block may set it, and processes forked inside
    the block start with one thread.
    """
    threads = _blas_threads()
    if threads is None:
        yield False
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


def _fork_context():
    """multiprocessing's fork context, or None where the platform has no fork."""
    import multiprocessing  # here, so that runs that train no CNN do not load it

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _take_jobs(order: list, state, lock, train: Callable) -> dict:
    """{job: (True, result) or (False, error)} of the jobs this worker takes from the
    queue `order`; state = [next position in order, first failed job] is shared by
    every worker of the queue, under lock. A job after a failed one in serial order
    does not start."""
    done = {}
    while True:
        with lock:
            if state[0] == len(order):
                return done
            i = order[state[0]]
            state[0] += 1
            if i > state[1]:
                continue
        try:
            done[i] = (True, train(i))
        except Exception as exc:  # raised by train_cnns once every worker is done
            done[i] = (False, exc)
            with lock:
                state[1] = min(state[1], i)


def _helper_main(order, state, lock, train, send) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles an interrupt and ends this
    send.send(_take_jobs(order, state, lock, train))


def _take_jobs_with_helpers(context, order: list, train: Callable, helpers: int) -> dict:
    """_take_jobs worked by this process and `helpers` forked helpers; each helper's
    results come back through its own pipe once the queue is empty, and every helper
    has exited before this returns or raises."""
    state = np.ndarray(2, dtype=np.int64, buffer=mmap.mmap(-1, 16))  # shared with the helpers
    state[:] = 0, len(order)
    lock = context.Lock()
    started = []  # (helper, the read end of its pipe)
    try:
        for _ in range(helpers):
            receive, send = context.Pipe(duplex=False)
            helper = context.Process(target=_helper_main, name="cnn-queue", daemon=True,
                                     args=(order, state, lock, train, send))
            helper.start()
            started.append((helper, receive))
            send.close()  # before the next fork, so that this helper's exit alone ends receive
        done = _take_jobs(order, state, lock, train)
        for helper, receive in started:
            try:
                done.update(receive.recv())
            except EOFError:  # it died before sending
                helper.join()
                raise RuntimeError(f"a CNN helper exited with code {helper.exitcode}") from None
    except BaseException:
        for helper, _ in started:
            helper.terminate()  # an interrupt here: the helpers' current jobs are dropped
        raise
    finally:
        for helper, receive in started:
            helper.join()
            receive.close()
    return done


def train_cnns(rows: Rows, folds: list, cfg: PipelineConfig, processes: int = 2) -> list[dict]:
    """{kind: trained CNN} of each (mask, seed) fold: the configured method's CNNs,
    trained on the valid rows of `rows` that the fold's mask selects.

    In serial order, fold by fold and cnn1d before cnn2d, the trainings are the
    jobs of one queue. With BLAS pinned to one thread, this process and
    min(processes, jobs) - 1 forked helper processes work through it, every
    cnn2d job first: cnn2d trains about 2.5 times as long as cnn1d, and longest
    first leaves the least idle time at the end (Graham, SIAM J. Appl. Math.
    1969). A helper is a process, not a thread, because a training step is many
    small numpy calls that hold the GIL for much of the step: two threads wait
    on each other, and how long depends on how soon the host wakes the waiting
    one. Without a setter to pin BLAS, or where no helper can be forked, every
    job runs here in serial order. Each training depends on its (kind, rows,
    seed) alone, so the models are the same either way. A job copies its fold's
    rows of its own input when it starts, so only the running jobs' copies are
    held at once.

    Every helper has exited before this returns or raises. If jobs fail, the error
    serial order meets first is raised; once a job has failed, no job after it
    in serial order starts.
    """
    arrays = rows.x if isinstance(rows.x, tuple) else (rows.x,)
    inputs = dict(zip(method_spec(cfg.method).cnns, arrays))  # each CNN kind's input
    # (fold, kind, the rows it trains on, seed) in serial order
    jobs = [(f, kind, mask & rows.valid, seed) for f, (mask, seed) in enumerate(folds)
            for kind in inputs]

    def train(i):
        _, kind, keep, seed = jobs[i]
        return _train_cnn(kind, inputs[kind][keep], rows.labels[keep], cfg, seed)

    helpers = min(processes, len(jobs)) - 1
    with _one_blas_thread() as pinned:
        context = _fork_context() if pinned and helpers > 0 else None
        if context is None:
            done = _take_jobs(list(range(len(jobs))), [0, len(jobs)], nullcontext(), train)
        else:
            order = sorted(range(len(jobs)), key=lambda i: jobs[i][1] != "cnn2d")
            done = _take_jobs_with_helpers(context, order, train, helpers)
    failed = [i for i in sorted(done) if not done[i][0]]
    if failed:
        raise done[failed[0]][1]
    trained = [{} for _ in folds]
    for i, (f, kind, *_) in enumerate(jobs):
        trained[f][kind] = done[i][1]
    return trained


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
    cnns: the kinds of the CNNs the method trains, one per array of its rows in
    their order; train_cnns trains them before fit.
    fit(rows, labels, cfg, seed, cnns) -> components, trained on valid rows only,
    given those CNNs as {kind: model}.
    predict(components, rows, cfg) -> proba[N, classes] of valid rows.
    `components` are the keys predict reads, i.e. what a bundle must hold.
    """

    window: str  # the PipelineConfig field holding this method's window length
    components: tuple
    cnns: tuple
    features: Callable
    fit: Callable
    predict: Callable

    def window_seconds(self, cfg: PipelineConfig) -> float:
        return getattr(cfg, self.window)


def _every_window(to_rows) -> Callable:
    """features() of a method for which every window yields a row."""
    return lambda windows, cfg, fs: (to_rows(windows, cfg), np.ones(len(windows), dtype=bool))


def _cnn_method(kind: str, to_tensor) -> Method:
    def fit(x, y, cfg, seed, cnns):
        return cnns

    def predict(components, x, cfg):
        return neuralnet.predict_proba(components[kind], x)

    return Method("window_seconds", (kind,), (kind,), _every_window(to_tensor), fit, predict)


def _fusion_method(weighted: bool) -> Method:
    def to_rows(windows, cfg):
        return windows_to_snippets(windows, cfg), windows_to_images(windows, cfg)

    def fit(rows, y, cfg, seed, cnns):
        snippets, images = rows
        f1 = neuralnet.extract_features(cnns["cnn1d"], snippets)
        f2 = neuralnet.extract_features(cnns["cnn2d"], images)
        weights = fusion.compute_fusion_weights(f1, f2) if weighted else None
        fused_std, stats = classifiers.standardize_fit(_fuse(f1, f2, weights))
        parts = {**cnns, "fusion_weights": weights, "stats": stats}
        return {**parts, **_fit_svm(fused_std, y, cfg, seed)}

    def predict(components, rows, cfg):
        return _one_hot(fusion_predict(components, rows), cfg.class_count)

    weights = ("fusion_weights",) if weighted else ()
    components = ("cnn1d", "cnn2d", *weights, "stats", "svm")
    cnns = ("cnn1d", "cnn2d")  # in the order of the rows (snippets, images)
    return Method("window_seconds", components, cnns, _every_window(to_rows), fit, predict)


def _hrv_method(key: str, fit_classifier, classify) -> Method:
    def fit(X, y, cfg, seed, cnns):
        X_std, stats = classifiers.standardize_fit(X)
        return {"stats": stats, **fit_classifier(X_std, y, cfg, seed)}

    def predict(components, X, cfg):
        labels = classify(components[key], components["stats"].transform(X))
        return _one_hot(labels, cfg.class_count)

    def features(windows, cfg, fs):
        return hrv_matrix(windows, fs)

    return Method("hrv_window_seconds", ("stats", key), (), features, fit, predict)


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


def fit_rows(rows: Rows, cfg: PipelineConfig, seed: int, cnns: dict | None = None) -> dict:
    """Train every component of the configured method on the valid rows only, with
    BLAS on one thread.

    cnns are the method's CNNs as train_cnns trained them on these rows and seed;
    without them, train_cnns trains them here first.
    """
    if not rows.valid.any():
        raise PipelineError("hrv-features", ValueError("no window yielded enough beats"))
    kept = rows.kept()
    with _one_blas_thread():
        if cnns is None:
            (cnns,) = train_cnns(rows, [(rows.valid, seed)], cfg)
        return method_spec(cfg.method).fit(kept.x, kept.labels, cfg, seed, cnns)


def predict_rows(components: dict, rows: Rows, cfg: PipelineConfig) -> np.ndarray:
    """proba[N, classes] of the rows; a row that is not valid holds no prediction (zeros)."""
    proba = np.zeros((len(rows.valid), cfg.class_count))
    if rows.valid.any():
        predict = method_spec(cfg.method).predict
        proba[rows.valid] = predict(components, rows.kept().x, cfg)
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
    return compute_metrics(np.argmax(proba, axis=1), test.labels[test.valid], cfg.class_count)


def evaluate_loso(data: Dataset, cfg: PipelineConfig, fs: float, jobs: int = 1) -> RunResult:
    """LOSO evaluation of the configured method: one fold per subject, in subject order.

    Every window is featurized once; each fold trains on the other subjects'
    rows and is tested on its own subject's rows. Every fold's CNNs are trained
    first, from one queue worked by at most max(jobs, 2) processes (see
    train_cnns); then, in this process, each fold fits the rest of its method
    and is scored. BLAS stays on one thread throughout.
    """
    subjects = data.subjects
    if len(subjects) < 2:
        raise ValueError(f"LOSO needs at least 2 subjects, got {len(subjects)}")
    rows = featurize(data.windows, cfg, fs)
    owner = np.array([w.subject_id for w in data.windows])
    folds = [(owner != s, fold_seed(cfg.seed, s)) for s in subjects]  # training rows, seed
    with _one_blas_thread():
        cnns = train_cnns(rows, folds, cfg, max(jobs, 2))
        metrics = [
            run_pipeline(s, rows.take(m), rows.take(~m), cfg, fold_cnns)
            for s, (m, _), fold_cnns in zip(subjects, folds, cnns)
        ]
    return RunResult(
        method=cfg.method,
        per_fold=tuple(zip(subjects, metrics)),
        mean=mean_metrics(metrics),
        seed=cfg.seed,
        config_snapshot=cfg.snapshot(),
    )
