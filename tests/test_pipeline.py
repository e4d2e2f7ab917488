"""Per-fold pipelines: seeding, modality tensors, grid search and LOSO runs."""

import json
import multiprocessing
import os
import threading
import time
import zlib

import numpy as np
import pytest

from ecgstress import bundle, classifiers, fusion, neuralnet, pipeline
from ecgstress.neuralnet import TrainConfig, TrainingError
from ecgstress.pipeline import (
    METHODS,
    PipelineConfig,
    PipelineError,
    Rows,
    _inner_split,
    evaluate_loso,
    featurize,
    fit_rows,
    fold_seed,
    hrv_matrix,
    predict_rows,
    run_pipeline,
    windows_to_images,
    windows_to_snippets,
)
from ecgstress.evaluation import METHOD_DISPLAY, RunResult, compute_metrics
from ecgstress.signal_core import Window

from conftest import make_dataset, taint

FAST_TRAIN = TrainConfig(epochs=2, learning_rate=0.02, batch_size=32)


def fast_config(method, **kwargs):
    return PipelineConfig(method=method, cnn_train=FAST_TRAIN, seed=1, **kwargs)


def fold_windows(data, subject):
    """(training windows, test windows) of the LOSO fold that holds out `subject`."""
    train = [w for w in data.windows if w.subject_id != subject]
    return train, [w for w in data.windows if w.subject_id == subject]


def train_alone(windows, cfg, subject):
    """What the fold holding out `subject` trains, on these windows featurized on their own."""
    return fit_rows(featurize(windows, cfg, 256.0), cfg, fold_seed(cfg.seed, subject))


def run_fold(data, subject, cfg):
    """run_pipeline on one LOSO fold of data, each side featurized on its own."""
    train, test = (featurize(w, cfg, 256.0) for w in fold_windows(data, subject))
    return run_pipeline(subject, train, test, cfg)


def dataset_for(method, small_dataset):
    """small_dataset for 1-s methods; 4-s windows of 2 subjects x 24 s for the HRV ones."""
    if METHODS[method].window_seconds(fast_config(method)) == 1.0:
        return small_dataset
    return make_dataset(n_subjects=2, duration_s=24.0, window_seconds=4.0)


def encoded(components) -> str:
    """Components as their bundle sections (floats exact), plus the chosen λ."""
    sections = {k: enc(components[k]) for k, (enc, _) in bundle.CODECS.items()
                if components.get(k) is not None}
    return json.dumps([sections, components.get("svm_lambda")])


class TestSeeding:
    def test_fold_seed_deterministic(self):
        assert fold_seed(1, "subj0") == fold_seed(1, "subj0")
        assert fold_seed(1, "subj0") != fold_seed(1, "subj1")
        assert fold_seed(1, "subj0") != fold_seed(2, "subj0")

    def test_fold_seed_range(self):
        for seed in (0, 1, 2**40):
            assert 0 <= fold_seed(seed, "x") < 2**31

    def test_inner_split_partitions(self):
        tr, va = _inner_split(50, seed=3)
        combined = sorted(np.concatenate([tr, va]).tolist())
        assert combined == list(range(50))
        assert len(tr) == 40


class TestModalityTensors:
    def test_snippet_shape(self, small_dataset):
        x = windows_to_snippets(small_dataset.windows[:5], fast_config("cnn1d"))
        assert x.shape == (5, 1, 256)

    def test_image_shape_and_range(self, small_dataset):
        x = windows_to_images(small_dataset.windows[:5], fast_config("cnn2d"))
        assert x.shape == (5, 1, 33, 13)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_corruption_only_on_selected_modality(self, small_dataset):
        windows = small_dataset.windows[:3]
        clean_cfg = fast_config("fusion_avg")
        noisy_cfg = fast_config("fusion_avg", corrupt_modality="raw", corrupt_noise_std=0.5)
        assert not np.array_equal(
            windows_to_snippets(windows, clean_cfg), windows_to_snippets(windows, noisy_cfg)
        )
        np.testing.assert_array_equal(
            windows_to_images(windows, clean_cfg), windows_to_images(windows, noisy_cfg)
        )

    def test_corruption_deterministic(self, small_dataset):
        windows = small_dataset.windows[:3]
        cfg = fast_config("cnn2d", corrupt_modality="spectrogram", corrupt_noise_std=0.5)
        np.testing.assert_array_equal(
            windows_to_images(windows, cfg), windows_to_images(windows, cfg)
        )

    @pytest.mark.parametrize("modality, stream", [("raw", 0xA1), ("spectrogram", 0xA2)])
    def test_noise_keyed_by_seed_subject_start_and_modality(self, small_dataset, modality, stream):
        windows = small_dataset.windows[:3]
        to_tensor = windows_to_snippets if modality == "raw" else windows_to_images
        clean = to_tensor(windows, fast_config("fusion_avg"))
        cfg = fast_config("fusion_avg", corrupt_modality=modality, corrupt_noise_std=0.5)
        noisy = to_tensor(windows, cfg)
        for i, w in enumerate(windows):
            rng = np.random.default_rng([1, zlib.crc32(w.subject_id.encode()), w.start_sample, stream])
            expected = clean[i, 0] + 0.5 * rng.standard_normal(clean[i, 0].shape)
            np.testing.assert_array_equal(noisy[i, 0], expected)


class TestGridSearch:
    """The first best grid value wins; every value is tried once, in grid order."""

    y = np.arange(20) % 2
    X = np.column_stack([y, y]).astype(float)  # column 0 is the label

    @staticmethod
    def _guess(right, X):
        return X[:, 0].astype(int) if right else 1 - X[:, 0].astype(int)

    def test_svm_lambda(self, monkeypatch):
        trained = []

        def train(X, y, lam, epochs):
            # A grid gives one model per λ, a single λ one model; a model is its λ here
            trained.append(lam)
            return tuple(lam) if np.ndim(lam) else lam

        monkeypatch.setattr(pipeline.classifiers, "train_linear_svm", train)
        monkeypatch.setattr(
            pipeline.classifiers, "svm_predict", lambda lam, X: self._guess(lam in (0.1, 2.0), X)
        )
        cfg = fast_config("svm_hrv", svm_lambda_grid=(0.5, 0.1, 2.0))
        assert pipeline._fit_svm(self.X, self.y, cfg, seed=0)["svm_lambda"] == 0.1
        # One grid call in grid order, then one call with the chosen λ
        assert trained == [(0.5, 0.1, 2.0), 0.1]

    @pytest.mark.parametrize(
        "grid, best", [((1, 3, 5, 7), 3), ((1, 5), 1), ((99, 7), 7), ((99, 50), 99)]
    )
    def test_knn_k(self, monkeypatch, grid, best):
        monkeypatch.setattr(
            pipeline.classifiers,
            "knn_predict_batch",
            lambda train_X, train_y, X, k: self._guess(k in (3, 7), X),
        )
        cfg = fast_config("knn_hrv", knn_k_grid=grid)
        assert pipeline._fit_knn(self.X, self.y, cfg, seed=0)["knn"]["k"] == best


class TestHrvMatrix:
    def test_matrix_from_synthetic_windows(self):
        data = make_dataset(n_subjects=1, duration_s=24.0, window_seconds=4.0)
        X, valid = hrv_matrix(data.windows, 256.0)
        assert X.shape[1] == 9
        assert len(X) == len(valid) > 0
        assert valid.any()

    def test_all_flat_windows_error(self):
        windows = [Window("s", i * 1024, 1024, 0, np.zeros(1024)) for i in range(3)]
        X, valid = hrv_matrix(windows, 256.0)
        assert not valid.any() and not X.any()
        with pytest.raises(PipelineError, match="hrv"):
            train_alone(windows, fast_config("svm_hrv"), "t")

    def test_windows_without_a_row_left_out_of_training(self):
        data = make_dataset(n_subjects=1, duration_s=24.0, window_seconds=4.0)
        flat = [Window("subj0", 10**7 + i * 1024, 1024, 2, np.zeros(1024)) for i in range(3)]
        cfg = fast_config("svm_hrv")

        def train(windows):
            return encoded(train_alone(windows, cfg, "t"))

        assert train([*flat, *data.windows]) == train(data.windows)


class TestValidRows:
    """fit_rows and predict_rows pass the rows themselves when every row is valid."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The feature rows each fit and predict call of svm_hrv receives."""
        seen = []

        def fit(x, y, cfg, seed, cnns):
            seen.append(x)
            return {}

        def predict(components, x, cfg):
            seen.append(x)
            return np.ones((len(x[0] if isinstance(x, tuple) else x), cfg.class_count))

        spec = METHODS["svm_hrv"]
        monkeypatch.setitem(METHODS, "svm_hrv", spec._replace(fit=fit, predict=predict))
        return seen

    @pytest.mark.parametrize("paired", [False, True], ids=["matrix", "tuple"])
    def test_all_valid_rows_are_not_copied(self, seen, paired):
        x = np.arange(12.0).reshape(4, 3)
        x = (x, x[:, :2]) if paired else x
        rows = Rows(x, np.ones(4, dtype=bool), np.zeros(4, dtype=np.int64))
        cfg = fast_config("svm_hrv")
        fit_rows(rows, cfg, 0)
        predict_rows({}, rows, cfg)
        assert seen[0] is x and seen[1] is x

    def test_rows_that_are_not_valid_are_left_out(self, seen):
        x = np.arange(12.0).reshape(4, 3)
        valid = np.array([True, False, True, True])
        rows = Rows(x, valid, np.zeros(4, dtype=np.int64))
        cfg = fast_config("svm_hrv")
        fit_rows(rows, cfg, 0)
        proba = predict_rows({}, rows, cfg)
        np.testing.assert_array_equal(seen[0], x[valid])
        np.testing.assert_array_equal(seen[1], x[valid])
        np.testing.assert_array_equal(proba.any(axis=1), valid)


class TestRunPipeline:
    @pytest.mark.parametrize("method", ["cnn1d", "cnn2d", "fusion_weighted", "fusion_avg"])
    def test_deep_methods_produce_metrics(self, small_dataset, method):
        metrics = run_fold(small_dataset, "subj0", fast_config(method))
        assert 0.0 <= metrics.accuracy <= 1.0
        assert metrics.confusion.sum() == len(fold_windows(small_dataset, "subj0")[1])

    @pytest.mark.parametrize("method", ["svm_hrv", "knn_hrv"])
    def test_hrv_methods_produce_metrics(self, method):
        data = make_dataset(n_subjects=2, duration_s=24.0, window_seconds=4.0)
        metrics = run_fold(data, "subj0", fast_config(method))
        assert 0.0 <= metrics.accuracy <= 1.0

    def test_method_table_matches_report_names(self):
        assert set(METHODS) == set(METHOD_DISPLAY)
        with pytest.raises(ValueError, match="unknown method"):
            RunResult(method="bogus", per_fold=(), mean=None, seed=0)

    def test_unknown_method(self, small_dataset):
        train, _ = fold_windows(small_dataset, "subj0")
        with pytest.raises(ValueError, match="unknown method"):
            train_alone(train, fast_config("bogus"), "subj0")

    def test_fusion_components_complete(self, small_dataset):
        train, _ = fold_windows(small_dataset, "subj0")
        comps = train_alone(train, fast_config("fusion_weighted"), "subj0")
        assert set(comps) == {"cnn1d", "cnn2d", "fusion_weights", "stats", "svm", "svm_lambda"}
        assert comps["svm_lambda"] in (1e-3, 1e-2, 1e-1, 1.0)
        assert comps["fusion_weights"] is not None

    def test_average_fusion_has_no_weights(self, small_dataset):
        train, _ = fold_windows(small_dataset, "subj0")
        comps = train_alone(train, fast_config("fusion_avg"), "subj0")
        assert comps["fusion_weights"] is None


class Record:
    """Tuples appended to one file by whichever process makes them, so that what a
    forked helper does is seen too; one short append is one atomic write."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def add(self, *fields):
        with open(self.path, "a") as f:
            f.write(json.dumps(fields) + "\n")

    def __call__(self) -> list:
        return [tuple(json.loads(line)) for line in self.path.read_text().splitlines()]

    def clear(self):
        self.path.write_text("")


@pytest.fixture
def trainings(monkeypatch, blas_threads, tmp_path):
    """Record of (kind, fold seed, process id, thread id, BLAS threads) of every CNN
    training, in any process, in the order they start."""
    record, real = Record(tmp_path / "trainings"), neuralnet.train

    def train(model, x, y, train_cfg):
        kind = "cnn1d" if len(model.input_shape) == 2 else "cnn2d"
        record.add(kind, train_cfg.seed, os.getpid(), threading.get_ident(), blas_threads[0]())
        return real(model, x, y, train_cfg)

    monkeypatch.setattr(neuralnet, "train", train)
    return record


@pytest.fixture
def helpers_started(monkeypatch, tmp_path):
    """Process ids of the CNN queue helpers started, each recorded as it starts."""
    record, real = Record(tmp_path / "helpers"), pipeline._helper_main
    monkeypatch.setattr(pipeline, "_helper_main", lambda *a: record.add(os.getpid()) or real(*a))
    return lambda: {pid for (pid,) in record()}


def no_helper_left(baseline_threads):
    return threading.active_count() == baseline_threads and not multiprocessing.active_children()


def sequential_fit(rows, cfg, seed):
    """A deep method's fit without the queue: its CNNs trained here one after the
    other, then its features extracted and its head fitted."""
    x, y = rows.x, rows.labels
    if cfg.method in ("cnn1d", "cnn2d"):
        return {cfg.method: pipeline._train_cnn(cfg.method, x, y, cfg, seed)}
    snippets, images = x
    cnn1d = pipeline._train_cnn("cnn1d", snippets, y, cfg, seed)
    cnn2d = pipeline._train_cnn("cnn2d", images, y, cfg, seed)
    f1 = neuralnet.extract_features(cnn1d, snippets)
    f2 = neuralnet.extract_features(cnn2d, images)
    weights = fusion.compute_fusion_weights(f1, f2) if cfg.method == "fusion_weighted" else None
    fused_std, stats = classifiers.standardize_fit(pipeline._fuse(f1, f2, weights))
    parts = {"cnn1d": cnn1d, "cnn2d": cnn2d, "fusion_weights": weights, "stats": stats}
    return {**parts, **pipeline._fit_svm(fused_std, y, cfg, seed)}


def failing_train(failing: set, wait_for=None):
    """A neuralnet.train stub that raises for each (kind, fold seed) in failing and
    returns the model untrained otherwise. wait_for = (key, after): the job `key`
    starts only once the job `after` has failed, in either process."""
    failed = {key: multiprocessing.get_context("fork").Event() for key in failing}

    def train(model, x, y, train_cfg):
        key = ("cnn1d" if len(model.input_shape) == 2 else "cnn2d", train_cfg.seed)
        if wait_for is not None and key == wait_for[0]:
            assert failed[wait_for[1]].wait(timeout=30)
        if key in failing:
            failed[key].set()
            raise TrainingError(f"{key[0]} diverged in fold {key[1]}")
        return model

    return train


class TestFusionBranches:
    """One fusion fit trains its two CNNs through the queue of train_cnns: in this
    process and one forked helper, with BLAS on one thread meanwhile."""

    @pytest.mark.parametrize("method", ["fusion_weighted", "fusion_avg"])
    def test_concurrent_fit_equals_sequential(self, small_dataset, blas_threads, trainings,
                                              method):
        cfg = fast_config(method)
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        baseline = threading.active_count()
        concurrent = fit_rows(rows, cfg, 7)
        assert no_helper_left(baseline)
        assert blas_threads[0]() == 2
        seen = trainings()
        assert sorted((kind, seed) for kind, seed, *_ in seen) == [("cnn1d", 7), ("cnn2d", 7)]
        assert len({pid for _, _, pid, *_ in seen}) == 2
        assert [blas for *_, blas in seen] == [1, 1]
        assert encoded(concurrent) == encoded(sequential_fit(rows, cfg, 7))

    @pytest.mark.parametrize("failing", [("cnn1d",), ("cnn2d",), ("cnn1d", "cnn2d")])
    def test_training_error_on_either_thread(self, small_dataset, blas_threads, monkeypatch,
                                             failing):
        """The error reaches the caller from whichever process trained the job."""
        keys = {(kind, 7) for kind in failing}
        # When both fail, cnn2d's error comes first and cnn1d's is raised
        wait_for = (("cnn1d", 7), ("cnn2d", 7)) if len(failing) == 2 else None
        monkeypatch.setattr(neuralnet, "train", failing_train(keys, wait_for))
        cfg = fast_config("fusion_weighted")
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        baseline = threading.active_count()
        with pytest.raises(PipelineError, match=f"{failing[0]} diverged") as err:
            fit_rows(rows, cfg, 7)
        assert err.value.stage == "cnn-training"
        assert no_helper_left(baseline)
        assert blas_threads[0]() == 2

    def test_without_a_setter_the_caller_trains_in_order(self, small_dataset, trainings,
                                                          monkeypatch):
        cfg = fast_config("fusion_weighted")
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        concurrent = fit_rows(rows, cfg, 7)
        trainings.clear()
        monkeypatch.setattr(pipeline, "_blas_threads", lambda: None)
        in_order = fit_rows(rows, cfg, 7)
        caller = os.getpid(), threading.get_ident()
        assert trainings() == [("cnn1d", 7, *caller, 2), ("cnn2d", 7, *caller, 2)]
        assert encoded(in_order) == encoded(concurrent)


class TestCnnQueue:
    """evaluate_loso trains every fold's CNNs from one queue, in this process and the
    helpers it forks (one at --jobs 1 and 2), cnn2d first, with BLAS on one thread
    for the whole run."""

    @pytest.mark.parametrize("method", ["cnn1d", "cnn2d", "fusion_avg", "fusion_weighted"])
    def test_loso_equals_sequential_folds(self, small_dataset, blas_threads, trainings, fitted,
                                          method):
        cfg = fast_config(method)
        baseline = threading.active_count()
        result = evaluate_loso(small_dataset, cfg, 256.0)
        assert no_helper_left(baseline)
        assert blas_threads[0]() == 2
        seeds = [fold_seed(cfg.seed, s) for s in small_dataset.subjects]
        kinds = pipeline.METHODS[method].cnns
        seen = trainings()
        assert sorted((kind, seed) for kind, seed, *_ in seen) == sorted(
            (kind, seed) for seed in seeds for kind in kinds
        )
        # Each worker takes the jobs in queue order
        for worker in {(pid, ident) for _, _, pid, ident, _ in seen}:
            started = [kind for kind, _, *at, _ in seen if tuple(at) == worker]
            assert started == sorted(started, key=lambda kind: kind != "cnn2d")
        assert len({pid for _, _, pid, *_ in seen}) <= 2
        assert {blas for *_, blas in seen} == {1}
        reference = []
        for subject, seed in zip(small_dataset.subjects, seeds):
            train, test = (featurize(w, cfg, 256.0) for w in fold_windows(small_dataset, subject))
            components = sequential_fit(train, cfg, seed)
            proba = predict_rows(components, test, cfg)
            metrics = compute_metrics(np.argmax(proba, axis=1), test.labels, cfg.class_count)
            reference.append((encoded(components), subject, metrics.to_dict()))
        assert [(encoded(c), s, m.to_dict()) for c, (s, m) in zip(fitted, result.per_fold)] == (
            reference
        )

    @pytest.mark.parametrize(
        "failing, wait_for, first",
        [
            # The later job in serial order fails first in time; the earlier one wins
            ([("cnn2d", 1), ("cnn1d", 0)], (("cnn1d", 0), ("cnn2d", 1)), ("cnn1d", 0)),
            ([("cnn2d", 0), ("cnn2d", 1)], None, ("cnn2d", 0)),
            ([("cnn1d", 1), ("cnn2d", 1)], (("cnn1d", 1), ("cnn2d", 1)), ("cnn1d", 1)),
            ([("cnn1d", 1)], None, ("cnn1d", 1)),
        ],
    )
    def test_error_follows_serial_order(self, small_dataset, blas_threads, monkeypatch, failing,
                                        wait_for, first):
        cfg = fast_config("fusion_weighted")
        seeds = [fold_seed(cfg.seed, s) for s in small_dataset.subjects]

        def key(kind, fold):
            return kind, seeds[fold]

        wait_for = wait_for and (key(*wait_for[0]), key(*wait_for[1]))
        monkeypatch.setattr(
            neuralnet, "train", failing_train({key(*k) for k in failing}, wait_for)
        )
        baseline = threading.active_count()
        message = f"{first[0]} diverged in fold {seeds[first[1]]}$"
        with pytest.raises(PipelineError, match=message) as err:
            evaluate_loso(small_dataset, cfg, 256.0)
        assert err.value.stage == "cnn-training"
        assert no_helper_left(baseline)
        assert blas_threads[0]() == 2

    def test_a_dead_helper_is_an_error(self, small_dataset, blas_threads, monkeypatch):
        """With one helper, and with two (--jobs 3 on four subjects)."""
        caller, real = os.getpid(), neuralnet.train

        def train(model, *args):
            if os.getpid() != caller:
                os._exit(3)
            return real(model, *args)

        monkeypatch.setattr(neuralnet, "train", train)
        for data, jobs in ((small_dataset, 1), (make_dataset(n_subjects=4, duration_s=12.0), 3)):
            baseline = threading.active_count()
            with pytest.raises(RuntimeError, match="helper exited with code 3"):
                evaluate_loso(data, fast_config("fusion_avg"), 256.0, jobs=jobs)
            assert no_helper_left(baseline)
            assert blas_threads[0]() == 2

    def test_an_interrupt_ends_the_helper(self, small_dataset, blas_threads, monkeypatch):
        """With one helper, and with two (--jobs 3 on four subjects)."""
        caller = os.getpid()

        def train(model, *args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(20)  # a helper's job; ended by the caller, not waited for

        monkeypatch.setattr(neuralnet, "train", train)
        for data, jobs in ((small_dataset, 1), (make_dataset(n_subjects=4, duration_s=12.0), 3)):
            baseline, start = threading.active_count(), time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                evaluate_loso(data, fast_config("fusion_avg"), 256.0, jobs=jobs)
            assert time.monotonic() - start < 10
            assert no_helper_left(baseline)
            assert blas_threads[0]() == 2

    @pytest.mark.parametrize(
        "method, subjects, jobs, helpers",
        [
            ("fusion_avg", 2, 1, 1),  # 4 jobs: --jobs 1 keeps one helper
            ("fusion_avg", 2, 2, 1),
            ("fusion_avg", 4, 3, 2),  # 8 jobs
            ("cnn1d", 2, 3, 1),  # 2 jobs: never more helpers than jobs - 1
        ],
    )
    def test_helper_count(self, trainings, helpers_started, method, subjects, jobs, helpers):
        """--jobs N trains on at most max(N, 2) processes: this one and the helpers it
        forks, one process per job at most."""
        data = make_dataset(n_subjects=subjects, duration_s=12.0)
        baseline = threading.active_count()
        evaluate_loso(data, fast_config(method), 256.0, jobs=jobs)
        assert no_helper_left(baseline)
        forked = helpers_started()
        assert len(forked) == helpers
        seen = trainings()
        assert len(seen) == subjects * len(METHODS[method].cnns)
        assert {pid for _, _, pid, *_ in seen} <= forked | {os.getpid()}
        assert {blas for *_, blas in seen} == {1}

    @pytest.mark.parametrize("processes", [3, 4])
    def test_a_single_fit_forks_one_helper(self, small_dataset, trainings, helpers_started,
                                           processes):
        """A single fit's two jobs get one helper, however many processes it may use."""
        cfg = fast_config("fusion_weighted")
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        pipeline.train_cnns(rows, [(rows.valid, 7)], cfg, processes)
        assert len(helpers_started()) == 1
        assert sorted(kind for kind, *_ in trainings()) == ["cnn1d", "cnn2d"]
        assert {blas for *_, blas in trainings()} == {1}

    def test_two_helpers_keep_serial_error_order(self, blas_threads, helpers_started,
                                                 monkeypatch):
        """With two helpers, the error serial order meets first is raised once both
        have exited, though a later job fails first in time."""
        data = make_dataset(n_subjects=4, duration_s=12.0)
        cfg = fast_config("fusion_weighted")
        seeds = [fold_seed(cfg.seed, s) for s in data.subjects]
        first, later = ("cnn1d", seeds[1]), ("cnn2d", seeds[3])
        monkeypatch.setattr(neuralnet, "train", failing_train({first, later}, (first, later)))
        baseline = threading.active_count()
        with pytest.raises(PipelineError, match=f"cnn1d diverged in fold {seeds[1]}$"):
            evaluate_loso(data, cfg, 256.0, jobs=3)
        assert len(helpers_started()) == 2
        assert no_helper_left(baseline)
        assert blas_threads[0]() == 2

    def test_without_a_setter_the_caller_trains_in_serial_order(self, small_dataset, trainings,
                                                                 monkeypatch):
        cfg = fast_config("fusion_weighted")
        queued = evaluate_loso(small_dataset, cfg, 256.0)
        trainings.clear()
        monkeypatch.setattr(pipeline, "_blas_threads", lambda: None)
        serial = evaluate_loso(small_dataset, cfg, 256.0)
        caller = os.getpid(), threading.get_ident()
        assert trainings() == [
            (kind, fold_seed(cfg.seed, s), *caller, 2)
            for s in small_dataset.subjects
            for kind in ("cnn1d", "cnn2d")
        ]
        assert json.dumps(serial.to_dict()) == json.dumps(queued.to_dict())

    def test_without_a_setter_no_job_after_an_error_starts(self, small_dataset, blas_threads,
                                                           monkeypatch):
        cfg = fast_config("fusion_weighted")
        seed = fold_seed(cfg.seed, "subj0")
        started, stub = [], failing_train({("cnn2d", seed)})
        monkeypatch.setattr(
            neuralnet,
            "train",
            lambda model, *args: started.append(model.input_shape) or stub(model, *args),
        )
        monkeypatch.setattr(pipeline, "_blas_threads", lambda: None)
        with pytest.raises(PipelineError, match=f"cnn2d diverged in fold {seed}"):
            evaluate_loso(small_dataset, cfg, 256.0)
        assert [len(shape) for shape in started] == [2, 3]  # subj0's cnn1d, then its cnn2d

    def test_every_job_runs_once(self, blas_threads, monkeypatch, tmp_path):
        """Two processes, then three, share the queue; each job is taken once and its
        model lands in its own fold and kind."""
        calls = Record(tmp_path / "calls")

        def train(kind, x, y, cfg, seed):
            calls.add(kind, int(seed), os.getpid())
            return kind, seed, x

        monkeypatch.setattr(pipeline, "_train_cnn", train)
        # 300 folds of one row each; row f holds the value f in both inputs
        folds = np.arange(300)
        snippets = np.ones((300, 1, 4)) * folds[:, None, None]
        images = np.ones((300, 1, 3, 3)) * folds[:, None, None, None]
        rows = Rows((snippets, images), np.ones(300, dtype=bool), np.zeros(300, dtype=np.int64))
        for processes in (2, 3):
            calls.clear()
            trained = pipeline.train_cnns(
                rows, [(folds == f, f) for f in folds], fast_config("fusion_avg"), processes
            )
            assert sorted((kind, f) for kind, f, _ in calls()) == sorted(
                (kind, f) for f in range(300) for kind in ("cnn1d", "cnn2d")
            )
            assert len({pid for *_, pid in calls()}) <= processes
            for f, models in enumerate(trained):
                assert list(models) == ["cnn1d", "cnn2d"]
                (k1, s1, x1), (k2, s2, x2) = models.values()
                assert (k1, s1, k2, s2) == ("cnn1d", f, "cnn2d", f)
                np.testing.assert_array_equal(x1, snippets[f:f + 1])
                np.testing.assert_array_equal(x2, images[f:f + 1])
        assert blas_threads[0]() == 2

    def test_fold_extraction_runs_on_one_blas_thread(self, blas_threads, monkeypatch):
        data = make_dataset(n_subjects=4, duration_s=16.0)
        cfg = PipelineConfig(
            method="fusion_weighted", cnn_train=TrainConfig(epochs=1, learning_rate=0.02), seed=1
        )
        seen, real = [], neuralnet.extract_features
        monkeypatch.setattr(
            neuralnet,
            "extract_features",
            lambda model, x: seen.append((len(x), blas_threads[0]())) or real(model, x),
        )
        evaluate_loso(data, cfg, 256.0)
        assert seen.count((144, 1)) == 8  # each fold's two branches, on its 144 training rows
        assert {blas for _, blas in seen} == {1}
        assert blas_threads[0]() == 2


def run_pipeline_at_one_blas_thread(*args):
    """pipeline.run_pipeline, failing where BLAS runs on more than one thread: every
    fold runs in the caller, under the pin evaluate_loso holds."""
    threads = pipeline._blas_threads()[0]()
    if threads != 1:
        raise AssertionError(f"fold ran with {threads} BLAS threads")
    return RUN_PIPELINE(*args)


RUN_PIPELINE = pipeline.run_pipeline


class TestEvaluateLoso:
    def test_result_shape(self, small_dataset):
        result = evaluate_loso(small_dataset, fast_config("cnn1d"), 256.0)
        assert result.method == "cnn1d"
        assert [s for s, _ in result.per_fold] == ["subj0", "subj1"]
        assert result.config_snapshot["method"] == "cnn1d"

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_parallel_matches_serial(self, small_dataset, fitted, monkeypatch, method):
        """At --jobs 1, 2 and 3, every fold's trained components and the result equal
        those of a run that trains every job here in serial order."""
        data = dataset_for(method, small_dataset)
        cfg = fast_config(method)
        with monkeypatch.context() as no_fork:
            no_fork.setattr(pipeline, "_fork_context", lambda: None)
            serial = evaluate_loso(data, cfg, 256.0)
        folds = len(data.subjects)
        reference = [encoded(c) for c in fitted]
        assert len(reference) == folds
        for jobs in (1, 2, 3):
            parallel = evaluate_loso(data, cfg, 256.0, jobs=jobs)
            assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())
            assert [encoded(c) for c in fitted[-folds:]] == reference

    def test_a_worker_error_reaches_the_caller(self, small_dataset, monkeypatch):
        """A PipelineError pickles with its stage, so a helper hands its error back."""
        failing = {("cnn1d", fold_seed(1, s)) for s in small_dataset.subjects}
        monkeypatch.setattr(neuralnet, "train", failing_train(failing))
        with pytest.raises(PipelineError, match="cnn1d diverged in fold") as err:
            evaluate_loso(small_dataset, fast_config("cnn1d"), 256.0, jobs=2)
        assert err.value.stage == "cnn-training"

    def test_workers_start_with_one_blas_thread(self, blas_threads, monkeypatch):
        data = make_dataset(n_subjects=2, duration_s=24.0, window_seconds=4.0)
        cfg = fast_config("knn_hrv")
        serial = evaluate_loso(data, cfg, 256.0)
        monkeypatch.setattr(pipeline, "run_pipeline", run_pipeline_at_one_blas_thread)
        parallel = evaluate_loso(data, cfg, 256.0, jobs=2)
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())
        assert blas_threads[0]() == 2

    @pytest.mark.parametrize("method", ["cnn1d", "cnn2d", "fusion_avg"])
    def test_taint_reaches_only_the_fold_that_trains_on_it(self, small_dataset, fitted, method):
        """+5 on every sample of subj0 leaves the fold that tests subj0 bit-identical,
        and changes the fold that trains on subj0."""
        cfg = fast_config(method)
        evaluate_loso(small_dataset, cfg, 256.0)
        evaluate_loso(taint(small_dataset, "subj0"), cfg, 256.0)
        assert len(fitted) == 4
        clean, tainted = [encoded(c) for c in fitted[:2]], [encoded(c) for c in fitted[2:]]
        # Which folds are unchanged: the one testing subj0, not the one training on it
        assert [tainted[0] == clean[0], tainted[1] == clean[1]] == [True, False]

    @pytest.mark.parametrize("method", ["svm_hrv", "knn_hrv", "fusion_weighted"])
    def test_hrv_vector_computed_once_per_window(self, small_dataset, method, monkeypatch):
        """A LOSO run featurizes every window once: one hrv_vector call per window, or
        one STFT call for all of a fusion run's spectrograms. Each fold then trains
        exactly what train_alone trains on that fold's windows."""
        data = (
            small_dataset
            if method == "fusion_weighted"
            else make_dataset(n_subjects=3, duration_s=24.0, window_seconds=4.0)
        )
        cfg = fast_config(method)
        per_fold = [(s, run_fold(data, s, cfg)) for s in data.subjects]
        alone = [encoded(train_alone(fold_windows(data, s)[0], cfg, s)) for s in data.subjects]
        calls, stft_calls, trained = [], [], []
        real, real_stft = pipeline.hrv_vector, pipeline.stft_spectrogram
        real_fit = pipeline.fit_rows
        monkeypatch.setattr(pipeline, "hrv_vector", lambda w, fs: calls.append(w) or real(w, fs))
        monkeypatch.setattr(
            pipeline, "stft_spectrogram", lambda x, p: stft_calls.append(x) or real_stft(x, p)
        )
        monkeypatch.setattr(
            pipeline, "fit_rows", lambda *a: trained.append(real_fit(*a)) or trained[-1]
        )
        result = evaluate_loso(data, cfg, 256.0)
        if method == "fusion_weighted":
            assert calls == [] and len(stft_calls) == 1
            assert stft_calls[0].shape == (len(data.windows), 256)
        else:
            assert stft_calls == []
            assert len(calls) == len(data.windows)
            assert {id(w) for w in calls} == {id(w) for w in data.windows}
        assert [encoded(c) for c in trained] == alone
        assert [(s, m.to_dict()) for s, m in result.per_fold] == [
            (s, m.to_dict()) for s, m in per_fold
        ]
        parallel = evaluate_loso(data, cfg, 256.0, jobs=2)
        assert json.dumps(parallel.to_dict()) == json.dumps(result.to_dict())
