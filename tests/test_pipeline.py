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
from ecgstress import jobs as jobs_module
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
    hrv_vector,
    predict_rows,
    run_pipeline,
    windows_to_images,
    windows_to_snippets,
)
from ecgstress.cli import build_pipeline_config, predict_stream
from ecgstress.evaluation import METHOD_DISPLAY, RunResult, compute_metrics
from ecgstress.signal_core import LEVELS, Window

from conftest import Record, make_dataset, taint
from oracles import synth_ecg

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


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("window_seconds", float("inf"), "window_seconds must be finite and positive, got inf"),
            ("hrv_window_seconds", 0.0, "hrv_window_seconds must be finite and positive, got 0.0"),
            ("feature_dim", 0, "feature_dim must be at least 1, got 0"),
            (
                "svm_lambda_grid",
                (0.1, float("nan")),
                "svm_lambda_grid values must be finite and positive, got (0.1, nan)",
            ),
            ("knn_k_grid", (3, -1), "knn_k_grid values must be at least 1, got (3, -1)"),
            (
                "corrupt_modality",
                "bogus",
                "corrupt_modality must be none, raw or spectrogram, got 'bogus'",
            ),
            (
                "corrupt_noise_std",
                -0.5,
                "corrupt_noise_std must be finite and nonnegative, got -0.5",
            ),
            ("method", "bogus", "unknown method 'bogus'"),
        ],
    )
    def test_refuses_a_value_that_cannot_run(self, name, value, message):
        """The library refuses the value with the message the CLI prints after `error: `."""
        with pytest.raises(ValueError) as from_library:
            PipelineConfig(**{name: value})
        with pytest.raises(ValueError) as from_settings:
            build_pipeline_config({name: value})
        assert str(from_library.value) == str(from_settings.value) == message

    def test_method_is_checked_last(self):
        """With the method and another value bad, the other value's error comes first."""
        for key in ("feature_dim", "jobs"):
            with pytest.raises(ValueError, match=f"^{key} must be at least 1, got 0$"):
                build_pipeline_config({"method": "bogus", key: 0})


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

        def train(X, y, lam):
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

    @staticmethod
    def windows_with_flat_ones():
        """54 four-second windows, every seventh of them flat (no row): four chunks."""
        data = make_dataset(n_subjects=3, duration_s=24.0, window_seconds=4.0)
        return [
            Window(w.subject_id, w.start_sample, w.length_samples, w.label, np.zeros(1024))
            if i % 7 == 3 else w
            for i, w in enumerate(data.windows)
        ]

    @pytest.mark.parametrize("chunk, count, helpers", [(16, 54, 1), (1, 54, 1), (16, 16, 0)])
    def test_queue_equals_serial(self, helpers_started, monkeypatch, chunk, count, helpers):
        """The rows through the queue equal, bit for bit, those of a run with no fork,
        flat windows skipped alike: with chunks of 16 windows and of one, this process
        and one helper work through the queue; a single chunk runs here alone."""
        windows = self.windows_with_flat_ones()[:count]
        monkeypatch.setattr(pipeline, "_HRV_CHUNK", chunk)
        monkeypatch.setattr(pipeline, "_MIN_FORK_CHUNKS", 2)
        baseline = threading.active_count()
        X, valid = hrv_matrix(windows, 256.0)
        assert no_helper_left(baseline)
        forked = [len(pids) for pids in helpers_started()]
        assert forked == [helpers] * (helpers > 0)
        with monkeypatch.context() as no_fork:
            no_fork.setattr(jobs_module, "_fork_context", lambda: None)
            X_serial, valid_serial = hrv_matrix(windows, 256.0)
        assert [len(pids) for pids in helpers_started()] == forked
        assert X.tobytes() == X_serial.tobytes()
        assert valid.tolist() == valid_serial.tolist()
        assert valid.tolist() == [i % 7 != 3 for i in range(count)]
        assert not X[~valid].any()

    @pytest.mark.parametrize(
        "count, helpers, forked", [(45, 1, []), (54, 1, [1]), (54, 2, [2]), (54, 0, [])]
    )
    def test_forks_from_the_least_chunk_count(self, helpers_started, monkeypatch, count,
                                              helpers, forked):
        """In chunks of 9 windows, 45 windows (5 chunks) run here alone, and 54 (6 chunks,
        _MIN_FORK_CHUNKS) fork the helpers the caller gives, with the same rows."""
        assert pipeline._MIN_FORK_CHUNKS == 6
        windows = self.windows_with_flat_ones()[:count]
        monkeypatch.setattr(pipeline, "_HRV_CHUNK", 9)
        X, valid = hrv_matrix(windows, 256.0, helpers)
        assert [len(pids) for pids in helpers_started()] == forked
        X_alone, valid_alone = hrv_matrix(windows, 256.0, 0)
        assert X.tobytes() == X_alone.tobytes()
        assert valid.tolist() == valid_alone.tolist()

    @pytest.mark.parametrize("forks", [True, False])
    def test_first_error_in_window_order(self, monkeypatch, forks):
        """hrv_vector raises in chunks 1 and 3: chunk 1's error is raised, also when
        chunk 3 fails first in time (with the helper), and no child is left running."""
        windows = self.windows_with_flat_ones()
        failing = {id(windows[20]): 1, id(windows[50]): 3}  # window -> its chunk
        chunk3_failed = multiprocessing.get_context("fork").Event()
        real = pipeline.hrv_vector

        def vector(w, fs):
            chunk = failing.get(id(w))
            if chunk == 1 and forks:
                assert chunk3_failed.wait(timeout=30)
            if chunk == 3:
                chunk3_failed.set()
            if chunk is not None:
                raise ValueError(f"no vector in chunk {chunk}")
            return real(w, fs)

        monkeypatch.setattr(pipeline, "hrv_vector", vector)
        monkeypatch.setattr(pipeline, "_MIN_FORK_CHUNKS", 2)
        if not forks:
            monkeypatch.setattr(jobs_module, "_fork_context", lambda: None)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="^no vector in chunk 1$"):
            hrv_matrix(windows, 256.0)
        assert no_helper_left(baseline)
        assert chunk3_failed.is_set() == forks  # serially, nothing after chunk 1 starts

    def test_short_window_error_from_the_helper(self, helpers_started, monkeypatch):
        """A window under R-peak detection's minimum raises a ValueError naming
        hrv_window_seconds; it arrives unchanged when the helper meets it first."""
        windows = make_dataset(n_subjects=2, duration_s=12.0, window_seconds=1.5).windows
        with pytest.raises(ValueError) as direct:
            hrv_vector(windows[0], 256.0)
        assert "hrv_window_seconds must be at least 2" in str(direct.value)
        caller, real = os.getpid(), pipeline.hrv_vector
        helper_failed = multiprocessing.get_context("fork").Event()

        def vector(w, fs):
            if os.getpid() == caller:  # waits until the helper has failed, then yields nothing
                assert helper_failed.wait(timeout=30)
                return None
            helper_failed.set()
            return real(w, fs)

        monkeypatch.setattr(pipeline, "hrv_vector", vector)
        monkeypatch.setattr(pipeline, "_MIN_FORK_CHUNKS", 2)
        baseline = threading.active_count()
        with pytest.raises(ValueError) as through_helper:
            hrv_matrix(windows, 256.0)
        assert no_helper_left(baseline)
        assert [len(pids) for pids in helpers_started()] == [1]
        assert type(through_helper.value) is ValueError
        assert str(through_helper.value) == str(direct.value)


class TestInputs:
    @pytest.mark.parametrize("method", list(METHODS))
    def test_one_array_per_input(self, small_dataset, monkeypatch, method):
        """featurize gives one array per input kind, in Method.inputs order, and each
        train_cnns job trains on its own kind's array, on the fold's valid rows."""
        cfg = fast_config(method)
        windows = dataset_for(method, small_dataset).windows
        rows = featurize(windows, cfg, 256.0)
        of_kind = {
            "cnn1d": lambda: windows_to_snippets(windows, cfg),
            "cnn2d": lambda: windows_to_images(windows, cfg),
            "hrv": lambda: hrv_matrix(windows, 256.0)[0],
        }
        inputs = METHODS[method].inputs
        by_kind = {kind: of_kind[kind]() for kind in inputs}
        assert type(rows.x) is tuple and len(rows.x) == len(inputs)
        for kind, x in zip(inputs, rows.x):
            np.testing.assert_array_equal(x, by_kind[kind])
        trained = {}

        def train_cnn(kind, x, y, cfg, seed):
            trained[kind] = x, y
            return kind

        monkeypatch.setattr(pipeline, "_train_cnn", train_cnn)
        mask = np.arange(len(windows)) % 2 == 0
        (cnns,) = pipeline.train_cnns(rows, [(mask, 7)], cfg, 0)
        kinds = [kind for kind in inputs if kind != "hrv"]
        assert cnns == {kind: kind for kind in kinds} and sorted(trained) == sorted(kinds)
        for kind, (x, y) in trained.items():
            np.testing.assert_array_equal(x, by_kind[kind][mask & rows.valid])
            np.testing.assert_array_equal(y, rows.labels[mask & rows.valid])


class TestValidRows:
    """fit_rows and predict_rows pass the rows themselves when every row is valid."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The feature rows each fit and predict call of svm_hrv receives."""
        seen = []

        def fit(x, y, cfg, seed, cnns):
            seen.append(x)
            return {}

        def predict(components, x):
            seen.append(x)
            return np.ones((len(x[0]), len(LEVELS)))

        spec = METHODS["svm_hrv"]
        monkeypatch.setitem(METHODS, "svm_hrv", spec._replace(fit=fit, predict=predict))
        return seen

    @pytest.mark.parametrize("paired", [False, True], ids=["matrix", "tuple"])
    def test_all_valid_rows_are_not_copied(self, seen, paired):
        x = np.arange(12.0).reshape(4, 3)
        x = (x, x[:, :2]) if paired else (x,)
        rows = Rows(x, np.ones(4, dtype=bool), np.zeros(4, dtype=np.int64))
        cfg = fast_config("svm_hrv")
        fit_rows(rows, cfg, 0)
        predict_rows({}, rows, cfg)
        assert seen[0] is x and seen[1] is x

    def test_rows_that_are_not_valid_are_left_out(self, seen):
        x = np.arange(12.0).reshape(4, 3)
        valid = np.array([True, False, True, True])
        rows = Rows((x,), valid, np.zeros(4, dtype=np.int64))
        cfg = fast_config("svm_hrv")
        fit_rows(rows, cfg, 0)
        proba = predict_rows({}, rows, cfg)
        np.testing.assert_array_equal(seen[0], (x[valid],))
        np.testing.assert_array_equal(seen[1], (x[valid],))
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
    """One set per job queue that forked helpers, in the order the queues ran: the
    process ids of its helpers, each recorded as it starts. A queue's number is
    counted in this process before its helpers are forked, so they inherit it."""
    record, queues = Record(tmp_path / "helpers"), [0]
    real_context, real_main = jobs_module._fork_context, jobs_module._helper_main

    def fork_context():
        queues[0] += 1
        return real_context()

    monkeypatch.setattr(jobs_module, "_fork_context", fork_context)
    monkeypatch.setattr(
        jobs_module, "_helper_main", lambda *a: record.add(queues[0], os.getpid()) or real_main(*a)
    )

    def started():
        pids = {}
        for queue, pid in record():
            pids.setdefault(queue, set()).add(pid)
        return [pids[queue] for queue in sorted(pids)]

    return started


def no_helper_left(baseline_threads):
    return threading.active_count() == baseline_threads and not multiprocessing.active_children()


def sequential_fit(rows, cfg, seed):
    """A deep method's fit without the queue: its CNNs trained here one after the
    other, then its features extracted and its head fitted."""
    x, y = rows.x, rows.labels
    if cfg.method in ("cnn1d", "cnn2d"):
        return {cfg.method: pipeline._train_cnn(cfg.method, x[0], y, cfg, seed)}
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
        monkeypatch.setattr(jobs_module, "_blas_threads", lambda: None)
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
        kinds = pipeline.METHODS[method].inputs
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
            metrics = compute_metrics(np.argmax(proba, axis=1), test.labels, len(LEVELS))
            reference.append((encoded(components), subject, metrics.to_dict()))
        assert [(encoded(c), s, m.to_dict()) for c, (s, m) in zip(fitted(), result.per_fold)] == (
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
    def test_helper_count(self, trainings, helpers_started, monkeypatch, tmp_path, method,
                          subjects, jobs, helpers):
        """--jobs N trains, then scores the folds, on at most max(N, 2) processes: this
        one and the helpers each queue forks, one process per job at most."""
        folds, real = Record(tmp_path / "folds"), pipeline.run_pipeline
        monkeypatch.setattr(
            pipeline, "run_pipeline", lambda s, *a: folds.add(s, os.getpid()) or real(s, *a)
        )
        data = make_dataset(n_subjects=subjects, duration_s=12.0)
        baseline = threading.active_count()
        evaluate_loso(data, fast_config(method), 256.0, jobs=jobs)
        assert no_helper_left(baseline)
        cnn_queue, fold_queue = helpers_started()
        assert (len(cnn_queue), len(fold_queue)) == (helpers, helpers)
        seen = trainings()
        assert len(seen) == subjects * len(METHODS[method].inputs)
        assert {pid for _, _, pid, *_ in seen} <= cnn_queue | {os.getpid()}
        assert {blas for *_, blas in seen} == {1}
        assert sorted(s for s, _ in folds()) == list(data.subjects)
        assert {pid for _, pid in folds()} <= fold_queue | {os.getpid()}

    @pytest.mark.parametrize("helpers", [3, 4])
    def test_a_single_fit_forks_one_helper(self, small_dataset, trainings, helpers_started,
                                           helpers):
        """A single fit's two jobs get one helper, however many helpers it may use."""
        cfg = fast_config("fusion_weighted")
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        with jobs_module.one_blas_thread():
            pipeline.train_cnns(rows, [(rows.valid, 7)], cfg, helpers)
        assert [len(pids) for pids in helpers_started()] == [1]
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
        assert [len(pids) for pids in helpers_started()] == [2]  # no fold starts
        assert no_helper_left(baseline)
        assert blas_threads[0]() == 2

    def test_without_a_setter_the_caller_trains_in_serial_order(self, small_dataset, trainings,
                                                                 monkeypatch):
        cfg = fast_config("fusion_weighted")
        queued = evaluate_loso(small_dataset, cfg, 256.0)
        trainings.clear()
        monkeypatch.setattr(jobs_module, "_blas_threads", lambda: None)
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
        monkeypatch.setattr(jobs_module, "_blas_threads", lambda: None)
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
        for helpers in (1, 2):
            calls.clear()
            with jobs_module.one_blas_thread():
                trained = pipeline.train_cnns(
                    rows, [(folds == f, f) for f in folds], fast_config("fusion_avg"), helpers
                )
            assert sorted((kind, f) for kind, f, _ in calls()) == sorted(
                (kind, f) for f in range(300) for kind in ("cnn1d", "cnn2d")
            )
            assert len({pid for *_, pid in calls()}) <= helpers + 1
            for f, models in enumerate(trained):
                assert list(models) == ["cnn1d", "cnn2d"]
                (k1, s1, x1), (k2, s2, x2) = models.values()
                assert (k1, s1, k2, s2) == ("cnn1d", f, "cnn2d", f)
                np.testing.assert_array_equal(x1, snippets[f:f + 1])
                np.testing.assert_array_equal(x2, images[f:f + 1])
        assert blas_threads[0]() == 2

    def test_fold_extraction_runs_on_one_blas_thread(self, blas_threads, monkeypatch, tmp_path):
        """In this process or a helper, every fold extracts its features at one BLAS thread."""
        data = make_dataset(n_subjects=4, duration_s=16.0)
        cfg = PipelineConfig(
            method="fusion_weighted", cnn_train=TrainConfig(epochs=1, learning_rate=0.02), seed=1
        )
        seen, real = Record(tmp_path / "extractions"), neuralnet.extract_features
        monkeypatch.setattr(
            neuralnet,
            "extract_features",
            lambda model, x: seen.add(len(x), blas_threads[0]()) or real(model, x),
        )
        evaluate_loso(data, cfg, 256.0)
        assert seen().count((144, 1)) == 8  # each fold's two branches, on its 144 training rows
        assert {blas for _, blas in seen()} == {1}
        assert blas_threads[0]() == 2


def run_pipeline_at_one_blas_thread(*args):
    """pipeline.run_pipeline, failing where BLAS runs on more than one thread: every
    fold runs in the caller under the pin evaluate_loso holds, or in a helper forked
    while it holds."""
    threads = jobs_module._blas_threads()[0]()
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
        """At --jobs 1, 2 and 3, every fold's trained components and the result, its
        per-fold metrics included, equal those of a run that trains and scores every
        fold here in serial order."""
        data = dataset_for(method, small_dataset)
        cfg = fast_config(method)
        with monkeypatch.context() as no_fork:
            no_fork.setattr(jobs_module, "_fork_context", lambda: None)
            serial = evaluate_loso(data, cfg, 256.0)
        folds = len(data.subjects)
        reference = [encoded(c) for c in fitted()]
        assert len(reference) == folds
        for jobs in (1, 2, 3):
            parallel = evaluate_loso(data, cfg, 256.0, jobs=jobs)
            assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())
            assert [encoded(c) for c in fitted()[-folds:]] == reference

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
        fits = fitted()
        assert len(fits) == 4
        clean, tainted = [encoded(c) for c in fits[:2]], [encoded(c) for c in fits[2:]]
        # Which folds are unchanged: the one testing subj0, not the one training on it
        assert [tainted[0] == clean[0], tainted[1] == clean[1]] == [True, False]

    @pytest.mark.parametrize("method", ["svm_hrv", "knn_hrv", "fusion_weighted"])
    def test_hrv_vector_computed_once_per_window(self, small_dataset, fitted, method,
                                                 monkeypatch, tmp_path):
        """A LOSO run featurizes every window once: one hrv_vector call per window, in
        this process or the helper, or one STFT call for all of a fusion run's
        spectrograms. Each fold, in this process or a helper, then trains exactly what
        train_alone trains on that fold's windows."""
        data = (
            small_dataset
            if method == "fusion_weighted"
            else make_dataset(n_subjects=3, duration_s=24.0, window_seconds=4.0)
        )
        cfg = fast_config(method)
        per_fold = [(s, run_fold(data, s, cfg)) for s in data.subjects]
        alone = [encoded(train_alone(fold_windows(data, s)[0], cfg, s)) for s in data.subjects]
        # A forked helper shares this process's addresses, so id(w) names the same window
        calls, stft_calls = Record(tmp_path / "hrv_calls"), []
        real, real_stft = pipeline.hrv_vector, pipeline.stft_spectrogram
        monkeypatch.setattr(pipeline, "hrv_vector", lambda w, fs: calls.add(id(w)) or real(w, fs))
        monkeypatch.setattr(
            pipeline, "stft_spectrogram", lambda x, p: stft_calls.append(x) or real_stft(x, p)
        )
        fits_before = len(fitted())
        result = evaluate_loso(data, cfg, 256.0)
        if method == "fusion_weighted":
            assert calls() == [] and len(stft_calls) == 1
            assert stft_calls[0].shape == (len(data.windows), 256)
        else:
            assert stft_calls == []
            assert len(calls()) == len(data.windows)
            assert {i for (i,) in calls()} == {id(w) for w in data.windows}
        assert [encoded(c) for c in fitted()[fits_before:]] == alone
        assert [(s, m.to_dict()) for s, m in result.per_fold] == [
            (s, m.to_dict()) for s, m in per_fold
        ]
        parallel = evaluate_loso(data, cfg, 256.0, jobs=2)
        assert json.dumps(parallel.to_dict()) == json.dumps(result.to_dict())


class TestFoldQueue:
    """evaluate_loso scores its folds as the jobs of a second queue, in subject order,
    worked by this process and the same number of helpers as the CNN queue."""

    def test_this_process_runs_the_first_job(self, helpers_started, monkeypatch, tmp_path):
        """The first job in queue order is this process's, though here the helper runs
        a job before this process takes any: it was taken before the helper was forked."""
        caller, ran = os.getpid(), Record(tmp_path / "ran")
        helper_ran = multiprocessing.get_context("fork").Event()
        real = jobs_module._take_jobs

        def take_jobs(*args):
            if os.getpid() == caller:
                assert helper_ran.wait(timeout=30)
            return real(*args)

        def run(i):
            ran.add(i, os.getpid())
            if os.getpid() != caller:
                helper_ran.set()

        monkeypatch.setattr(jobs_module, "_take_jobs", take_jobs)
        jobs_module.run_jobs(run, 3, 1, key=lambda i: -i)
        assert [len(pids) for pids in helpers_started()] == [1]
        assert (2, os.getpid()) in ran()
        assert sorted(i for i, _ in ran()) == [0, 1, 2]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_error_follows_serial_order(self, helpers_started, monkeypatch, jobs):
        """Folds 1 and 3 fail, fold 3 first in time: fold 1's error is raised, once
        every helper has exited."""
        data = make_dataset(n_subjects=4, duration_s=24.0, window_seconds=4.0)
        fold3_failed = multiprocessing.get_context("fork").Event()
        real = pipeline.run_pipeline

        def run(subject, *args):
            if subject == "subj1":
                assert fold3_failed.wait(timeout=30)
            if subject == "subj3":
                fold3_failed.set()
            if subject in ("subj1", "subj3"):
                raise PipelineError("predict", ValueError(f"{subject} failed"))
            return real(subject, *args)

        monkeypatch.setattr(pipeline, "run_pipeline", run)
        baseline = threading.active_count()
        with pytest.raises(PipelineError, match="subj1 failed$") as err:
            evaluate_loso(data, fast_config("knn_hrv"), 256.0, jobs=jobs)
        assert err.value.stage == "predict"
        assert no_helper_left(baseline)
        assert fold3_failed.is_set()
        assert len(helpers_started()[-1]) == min(max(jobs, 2) - 1, 3)  # the fold queue's

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors")
    def test_a_failed_queue_leaves_no_descriptor_open(self, helpers_started):
        """Every pipe end of a forked queue whose job fails is closed when run_jobs
        raises, though the error, held here, keeps the queue's frame alive."""

        def run(i):
            if i == 2:
                raise ValueError("job 2 failed")

        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(ValueError, match="job 2 failed") as err:
            jobs_module.run_jobs(run, 4, 1)
        assert [len(pids) for pids in helpers_started()] == [1]
        assert err.value.__traceback__ is not None  # held until the test returns
        assert len(os.listdir("/proc/self/fd")) == before


class TestBlasPin:
    """The OpenBLAS count is set once per run, in this process, and never in a helper:
    after a fork, any call to the setter starts a new OpenBLAS worker."""

    @pytest.fixture
    def sets(self, monkeypatch, tmp_path):
        """Record of (process id, count) of every call to a fake OpenBLAS thread setter,
        in any process; the fake count, sets.count[0], is 2 to start with."""
        record, count = Record(tmp_path / "sets"), [2]

        def set_(n):
            record.add(os.getpid(), n)
            count[0] = n

        monkeypatch.setattr(jobs_module, "_blas_threads", lambda: (lambda: count[0], set_))
        record.count = count
        return record

    @pytest.mark.parametrize(
        "method, jobs, forked",
        [
            ("fusion_avg", 1, [1, 1]),  # the CNN queue, then the fold queue
            ("fusion_avg", 3, [2, 2]),
            ("svm_hrv", 1, [1, 1]),  # hrv_matrix's queue (of 5 chunks), then the fold queue
            ("svm_hrv", 3, [2, 2]),
        ],
    )
    def test_one_set_per_run(self, sets, helpers_started, monkeypatch, method, jobs, forked):
        """To one thread before any queue forks, then back after the folds."""
        if method == "fusion_avg":
            data = make_dataset(n_subjects=4, duration_s=12.0)
        else:
            data = make_dataset(n_subjects=4, duration_s=24.0, window_seconds=4.0)
        monkeypatch.setattr(pipeline, "_MIN_FORK_CHUNKS", 2)
        real = jobs_module._fork_context
        monkeypatch.setattr(
            jobs_module, "_fork_context", lambda: sets.add(os.getpid(), "fork") or real()
        )
        baseline = threading.active_count()
        evaluate_loso(data, fast_config(method), 256.0, jobs=jobs)
        assert no_helper_left(baseline)
        assert [len(pids) for pids in helpers_started()] == forked
        caller = os.getpid()
        assert sets() == [(caller, 1), *[(caller, "fork")] * len(forked), (caller, 2)]

    @pytest.mark.parametrize("count", [2, 1])
    @pytest.mark.parametrize("jobs, helpers", [(1, 1), (2, 1), (3, 2)])
    def test_helpers_of_the_pin(self, sets, count, jobs, helpers):
        """The pin gives max(jobs, 2) - 1 helpers, whether it sets the count or finds
        it at one already."""
        sets.count[0] = count
        with jobs_module.one_blas_thread(jobs) as given:
            assert given == helpers
        assert sets() == ([(os.getpid(), 1), (os.getpid(), 2)] if count == 2 else [])

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_no_helper_without_a_setter(self, monkeypatch, jobs):
        monkeypatch.setattr(jobs_module, "_blas_threads", lambda: None)
        with jobs_module.one_blas_thread(jobs) as helpers:
            assert helpers == 0

    def test_numpy_openblas_setter_is_found(self):
        """Where numpy is built on OpenBLAS, its thread setter is found: were it not,
        every test that needs the blas_threads fixture would be skipped."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert "openblas" not in blas or jobs_module._blas_threads() is not None

    def test_a_count_at_one_is_left_alone(self, sets, helpers_started, small_dataset):
        """As under OPENBLAS_NUM_THREADS=1: no set at all, and the queues still fork."""
        sets.count[0] = 1
        evaluate_loso(small_dataset, fast_config("fusion_avg"), 256.0)
        assert [len(pids) for pids in helpers_started()] == [1, 1]
        assert sets() == []

    def test_a_single_fit_sets_and_restores(self, sets, small_dataset):
        """fit_rows, called outside a pin, pins for itself."""
        cfg = fast_config("fusion_weighted")
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        fit_rows(rows, cfg, 7)
        assert sets() == [(os.getpid(), 1), (os.getpid(), 2)]

    def _predict(self, sets, monkeypatch, method, seconds, reads=False):
        """predict_stream of a `seconds`-long recording from a bundle of `method` trained
        here; from the prediction on, sets records each fork of a queue as
        (process id, "fork"), and with `reads` each read of the count as (process id, "get")."""
        cfg = fast_config(method)
        window_s = METHODS[method].window_seconds(cfg)
        data = make_dataset(n_subjects=2, duration_s=12.0 * window_s, window_seconds=window_s)
        components = fit_rows(featurize(data.windows, cfg, 256.0), cfg, 7)
        trained = bundle.Bundle(method, window_s, 256.0, cfg.feature_dim, cfg.spectrogram,
                                cfg.seed, components)
        real = jobs_module._fork_context
        monkeypatch.setattr(
            jobs_module, "_fork_context", lambda: sets.add(os.getpid(), "fork") or real()
        )
        if reads:
            get, set_ = jobs_module._blas_threads()
            monkeypatch.setattr(jobs_module, "_blas_threads",
                                lambda: (lambda: sets.add(os.getpid(), "get") or get(), set_))
        rec, _ = synth_ecg(1, seconds, 256.0, 5)
        sets.clear()
        return predict_stream(trained, rec)

    def test_predict_sets_and_restores(self, sets, monkeypatch):
        """predict's CNN forwards run on one thread, set once and restored after."""
        rows = self._predict(sets, monkeypatch, "fusion_avg", 6.0)
        assert len(rows) == 6
        assert sets() == [(os.getpid(), 1), (os.getpid(), 2)]

    def test_predict_forks_after_the_set(self, sets, monkeypatch):
        """An HRV bundle's queue, on _MIN_FORK_CHUNKS chunks, forks under the pin, so
        its helper starts at one thread and calls no setter."""
        monkeypatch.setattr(pipeline, "_MIN_FORK_CHUNKS", 2)
        rows = self._predict(sets, monkeypatch, "svm_hrv", 4.0 * (pipeline._HRV_CHUNK + 1))
        assert len(rows) == pipeline._HRV_CHUNK + 1  # two chunks
        caller = os.getpid()
        assert sets() == [(caller, 1), (caller, "fork"), (caller, 2)]

    @pytest.mark.parametrize("method", ["fusion_avg", "svm_hrv"])
    def test_predict_leaves_a_count_at_one(self, sets, monkeypatch, method):
        """As under OPENBLAS_NUM_THREADS=1 or in a helper: the pin reads the count once
        and sets nothing, and an HRV bundle's queue still forks."""
        monkeypatch.setattr(pipeline, "_MIN_FORK_CHUNKS", 2)
        sets.count[0] = 1
        self._predict(sets, monkeypatch, method, 4.0 * (pipeline._HRV_CHUNK + 1), reads=True)
        caller = os.getpid()
        assert sets() == [(caller, "get"), *([(caller, "fork")] if method == "svm_hrv" else [])]
