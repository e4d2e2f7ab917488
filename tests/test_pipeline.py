"""Per-fold pipelines: seeding, modality tensors, grid search and LOSO runs."""

import json
import zlib

import numpy as np
import pytest

from ecgstress import pipeline
from ecgstress.neuralnet import TrainConfig
from ecgstress.pipeline import (
    METHODS,
    PipelineConfig,
    PipelineError,
    _inner_split,
    evaluate_loso,
    fold_seed,
    hrv_matrix,
    run_pipeline,
    train_fold_components,
    windows_to_images,
    windows_to_snippets,
)
from ecgstress.evaluation import METHOD_DISPLAY, RunResult, loso_split
from ecgstress.signal_core import Window

from conftest import make_dataset

FAST_TRAIN = TrainConfig(epochs=2, learning_rate=0.02, batch_size=32)


def fast_config(method, **kwargs):
    return PipelineConfig(method=method, cnn_train=FAST_TRAIN, seed=1, **kwargs)


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
            trained.append(lam)
            return lam

        monkeypatch.setattr(pipeline.classifiers, "train_linear_svm", train)
        monkeypatch.setattr(
            pipeline.classifiers, "svm_predict", lambda lam, X: self._guess(lam in (0.1, 2.0), X)
        )
        cfg = fast_config("svm_hrv", svm_lambda_grid=(0.5, 0.1, 2.0))
        assert pipeline._fit_svm(self.X, self.y, cfg, seed=0)["svm_lambda"] == 0.1
        assert trained == [0.5, 0.1, 2.0, 0.1]

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
        X, y = hrv_matrix(data.windows, 256.0)
        assert X.shape[1] == 9
        assert len(X) == len(y) > 0

    def test_all_flat_windows_error(self):
        windows = [Window("s", i * 1024, 1024, 0, np.zeros(1024)) for i in range(3)]
        with pytest.raises(PipelineError, match="hrv"):
            hrv_matrix(windows, 256.0)


class TestRunPipeline:
    @pytest.mark.parametrize("method", ["cnn1d", "cnn2d", "fusion_weighted", "fusion_avg"])
    def test_deep_methods_produce_metrics(self, small_dataset, method):
        fold = loso_split(small_dataset)[0]
        metrics = run_pipeline(fold, fast_config(method), 256.0)
        assert 0.0 <= metrics.accuracy <= 1.0
        assert metrics.confusion.sum() == len(fold.test_windows)

    @pytest.mark.parametrize("method", ["svm_hrv", "knn_hrv"])
    def test_hrv_methods_produce_metrics(self, method):
        data = make_dataset(n_subjects=2, duration_s=24.0, window_seconds=4.0)
        fold = loso_split(data)[0]
        metrics = run_pipeline(fold, fast_config(method), 256.0)
        assert 0.0 <= metrics.accuracy <= 1.0

    def test_method_table_matches_report_names(self):
        assert set(METHODS) == set(METHOD_DISPLAY)
        with pytest.raises(ValueError, match="unknown method"):
            RunResult(method="bogus", per_fold=(), mean=None, seed=0)

    def test_unknown_method(self, small_dataset):
        fold = loso_split(small_dataset)[0]
        with pytest.raises(ValueError, match="unknown method"):
            train_fold_components(fold, fast_config("bogus"), 256.0)

    def test_fusion_components_complete(self, small_dataset):
        fold = loso_split(small_dataset)[0]
        comps = train_fold_components(fold, fast_config("fusion_weighted"), 256.0)
        assert set(comps) == {"cnn1d", "cnn2d", "fusion_weights", "stats", "svm", "svm_lambda"}
        assert comps["svm_lambda"] in (1e-3, 1e-2, 1e-1, 1.0)
        assert comps["fusion_weights"] is not None

    def test_average_fusion_has_no_weights(self, small_dataset):
        fold = loso_split(small_dataset)[0]
        comps = train_fold_components(fold, fast_config("fusion_avg"), 256.0)
        assert comps["fusion_weights"] is None


class TestEvaluateLoso:
    def test_result_shape(self, small_dataset):
        result = evaluate_loso(small_dataset, fast_config("cnn1d"), 256.0)
        assert result.method == "cnn1d"
        assert [s for s, _ in result.per_fold] == ["subj0", "subj1"]
        assert result.config_snapshot["method"] == "cnn1d"

    def test_parallel_matches_serial(self, small_dataset):
        cfg = fast_config("cnn1d")
        serial = evaluate_loso(small_dataset, cfg, 256.0, jobs=1)
        parallel = evaluate_loso(small_dataset, cfg, 256.0, jobs=2)
        assert serial.mean.accuracy == parallel.mean.accuracy
        np.testing.assert_array_equal(serial.mean.confusion, parallel.mean.confusion)

    @pytest.mark.parametrize("method", ["svm_hrv", "knn_hrv"])
    def test_hrv_vector_computed_once_per_window(self, method, monkeypatch):
        data = make_dataset(n_subjects=3, duration_s=24.0, window_seconds=4.0)
        cfg = fast_config(method)
        per_fold = [(f.test_subject, run_pipeline(f, cfg, 256.0)) for f in loso_split(data)]
        calls = []
        real = pipeline.hrv_vector
        monkeypatch.setattr(pipeline, "hrv_vector", lambda w, fs: calls.append(w) or real(w, fs))
        result = evaluate_loso(data, cfg, 256.0)
        assert len(calls) == len(data.windows)
        assert {id(w) for w in calls} == {id(w) for w in data.windows}
        assert [(s, m.to_dict()) for s, m in result.per_fold] == [
            (s, m.to_dict()) for s, m in per_fold
        ]
        parallel = evaluate_loso(data, cfg, 256.0, jobs=2)
        assert json.dumps(parallel.to_dict()) == json.dumps(result.to_dict())
