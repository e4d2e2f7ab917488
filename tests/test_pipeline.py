"""Per-fold pipelines: seeding, modality tensors, grid search and LOSO runs."""

import json
import threading
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
from ecgstress.evaluation import METHOD_DISPLAY, RunResult
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

        def train(X, y, lam, epochs, seed):
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

        def fit(x, y, cfg, seed):
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


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread count (get, set), at 2 for the test and restored after it."""
    threads = pipeline._blas_threads()
    if threads is None:
        pytest.skip("numpy here loads no OpenBLAS with a thread setter")
    get, set_ = threads
    before = get()
    set_(2)
    yield get, set_
    set_(before)


@pytest.fixture
def trainings(monkeypatch, blas_threads):
    """(kind, thread id, BLAS threads) of every CNN training, in the order they start."""
    seen, real = [], neuralnet.train

    def train(model, *args):
        kind = "cnn1d" if len(model.input_shape) == 2 else "cnn2d"
        seen.append((kind, threading.get_ident(), blas_threads[0]()))
        return real(model, *args)

    monkeypatch.setattr(neuralnet, "train", train)
    return seen


def sequential_fusion_fit(rows, cfg, seed):
    """The fusion fit with its branches one after the other, each trained, then extracted."""
    (snippets, images), y = rows.x, rows.labels
    cnn1d = pipeline._train_cnn("cnn1d", snippets, y, cfg, seed)
    cnn2d = pipeline._train_cnn("cnn2d", images, y, cfg, seed)
    f1 = neuralnet.extract_features(cnn1d, snippets)
    f2 = neuralnet.extract_features(cnn2d, images)
    weights = fusion.compute_fusion_weights(f1, f2) if cfg.method == "fusion_weighted" else None
    fused_std, stats = classifiers.standardize_fit(pipeline._fuse(f1, f2, weights))
    parts = {"cnn1d": cnn1d, "cnn2d": cnn2d, "fusion_weights": weights, "stats": stats}
    return {**parts, **pipeline._fit_svm(fused_std, y, cfg, seed)}


class TestFusionBranches:
    """A fusion fit trains its two CNNs on two threads, with BLAS on one thread meanwhile."""

    @pytest.mark.parametrize("method", ["fusion_weighted", "fusion_avg"])
    def test_concurrent_fit_equals_sequential(self, small_dataset, blas_threads, trainings,
                                              method):
        cfg = fast_config(method)
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        baseline = threading.active_count()
        concurrent = fit_rows(rows, cfg, 7)
        assert threading.active_count() == baseline
        assert blas_threads[0]() == 2
        assert sorted(kind for kind, *_ in trainings) == ["cnn1d", "cnn2d"]
        assert len({ident for _, ident, _ in trainings}) == 2
        assert [blas for *_, blas in trainings] == [1, 1]
        assert encoded(concurrent) == encoded(sequential_fusion_fit(rows, cfg, 7))

    @pytest.mark.parametrize("failing", [("cnn1d",), ("cnn2d",), ("cnn1d", "cnn2d")])
    def test_training_error_on_either_thread(self, small_dataset, blas_threads, monkeypatch,
                                             failing):
        cnn2d_failed = threading.Event()

        def train(model, *args):
            kind = "cnn1d" if len(model.input_shape) == 2 else "cnn2d"
            if kind == "cnn1d" and "cnn2d" in failing:
                assert cnn2d_failed.wait(timeout=30)  # cnn2d's error is raised first
            if kind in failing:
                cnn2d_failed.set()
                raise TrainingError(f"{kind} diverged")
            return model

        monkeypatch.setattr(neuralnet, "train", train)
        cfg = fast_config("fusion_weighted")
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        baseline = threading.active_count()
        with pytest.raises(PipelineError, match=f"{failing[0]} diverged") as err:
            fit_rows(rows, cfg, 7)
        assert err.value.stage == "cnn-training"
        assert threading.active_count() == baseline
        assert blas_threads[0]() == 2

    def test_without_a_setter_the_caller_trains_in_order(self, small_dataset, trainings,
                                                          monkeypatch):
        cfg = fast_config("fusion_weighted")
        rows = featurize(fold_windows(small_dataset, "subj0")[0], cfg, 256.0)
        concurrent = fit_rows(rows, cfg, 7)
        trainings.clear()
        monkeypatch.setattr(pipeline, "_blas_threads", lambda: None)
        in_order = fit_rows(rows, cfg, 7)
        caller = threading.get_ident()
        assert trainings == [("cnn1d", caller, 2), ("cnn2d", caller, 2)]
        assert encoded(in_order) == encoded(concurrent)


class TestEvaluateLoso:
    def test_result_shape(self, small_dataset):
        result = evaluate_loso(small_dataset, fast_config("cnn1d"), 256.0)
        assert result.method == "cnn1d"
        assert [s for s, _ in result.per_fold] == ["subj0", "subj1"]
        assert result.config_snapshot["method"] == "cnn1d"

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_parallel_matches_serial(self, small_dataset, method):
        data = dataset_for(method, small_dataset)
        cfg = fast_config(method)
        serial = evaluate_loso(data, cfg, 256.0, jobs=1)
        parallel = evaluate_loso(data, cfg, 256.0, jobs=2)
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())

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
