"""LOSO folds, metrics, inter-rater agreement and report rendering."""

import numpy as np
import pytest

from ecgstress import pipeline
from ecgstress.evaluation import (
    Metrics,
    RunResult,
    UndefinedAlphaError,
    compute_metrics,
    krippendorff_alpha,
    mean_metrics,
    render_report,
)
from ecgstress.pipeline import PipelineConfig, evaluate_loso
from ecgstress.signal_core import (
    LEVELS,
    UNLABELED,
    Dataset,
    LabelSegment,
    LabelTrack,
    Window,
)

from conftest import Record, make_dataset
from oracles import loop_compute_metrics, loop_krippendorff_alpha


def _window(subject, start=0, label=0):
    return Window(subject, start, 4, label, np.zeros(4))


class TestFolds:
    """The split evaluate_loso makes, with training stubbed out: train_cnns records the
    rows each fold's CNNs train on, fit_rows the rows each fold trains on (in this
    process or a helper), and every test row is predicted as its own label."""

    cfg = PipelineConfig(method="cnn1d")  # its feature rows are the window samples

    @pytest.fixture
    def queued(self):
        return []

    @pytest.fixture
    def trained_on(self, monkeypatch, queued, tmp_path):
        """The rows of every fit_rows call, in fold order."""
        fits = Record(tmp_path / "fits")

        def train_cnns(rows, folds, cfg, helpers):
            queued.extend((rows.take(mask), seed) for mask, seed in folds)
            return [{} for _ in folds]

        def fit_rows(rows, cfg, seed, cnns=None):
            fits.add(seed, rows)
            return {}

        def predict_rows(components, rows, cfg):
            return np.eye(len(LEVELS))[rows.labels]

        monkeypatch.setattr(pipeline, "train_cnns", train_cnns)
        monkeypatch.setattr(pipeline, "fit_rows", fit_rows)
        monkeypatch.setattr(pipeline, "predict_rows", predict_rows)

        def in_fold_order():
            seeds = [seed for _, seed in queued]
            return [rows for _, rows in sorted(fits(), key=lambda fit: seeds.index(fit[0]))]

        return in_fold_order

    def test_leak_rejected(self, trained_on, queued):
        data = make_dataset(n_subjects=3, duration_s=5.0)
        evaluate_loso(data, self.cfg, 256.0)
        assert len(trained_on()) == len(queued) == 3
        assert [seed for _, seed in queued] == [pipeline.fold_seed(0, s) for s in data.subjects]
        # Each fold's CNNs and the rest of its method train on the other subjects' rows
        for subject, rows, (cnn_rows, _) in zip(data.subjects, trained_on(), queued):
            others = [w for w in data.windows if w.subject_id != subject]
            for fold_rows in (rows, cnn_rows):
                np.testing.assert_array_equal(fold_rows.x[0][:, 0], [w.samples for w in others])
                np.testing.assert_array_equal(fold_rows.labels, [w.label for w in others])

    def test_split_counts(self, trained_on):
        full = make_dataset(n_subjects=2, duration_s=6.0)
        data = Dataset(windows=full.windows[:-4])  # subj1 loses four level-2 windows
        result = evaluate_loso(data, self.cfg, 256.0)
        assert [s for s, _ in result.per_fold] == ["subj0", "subj1"]
        for subject, metrics in result.per_fold:
            labels = [w.label for w in data.windows if w.subject_id == subject]
            np.testing.assert_array_equal(metrics.confusion, np.diag(np.bincount(labels)))

    def test_partition_property(self, trained_on):
        data = make_dataset(n_subjects=3, duration_s=5.0)
        result = evaluate_loso(data, self.cfg, 256.0)
        totals = [int(m.confusion.sum()) for _, m in result.per_fold]
        assert sum(totals) == len(data.windows)
        for total, rows in zip(totals, trained_on()):
            assert total + len(rows.labels) == len(data.windows)

    def test_single_subject_rejected(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("featurized before the subject count was checked")

        monkeypatch.setattr(pipeline, "featurize", must_not_run)
        data = Dataset(windows=(_window("only"), _window("only", 4)))
        with pytest.raises(ValueError, match="LOSO needs at least 2 subjects, got 1"):
            evaluate_loso(data, self.cfg, 256.0)


class TestMetrics:
    def test_all_correct(self):
        m = compute_metrics([0, 1, 2], [0, 1, 2], 3)
        assert (m.accuracy, m.precision_macro, m.recall_macro, m.f1_macro) == (1, 1, 1, 1)

    def test_hand_computed_confusion(self):
        m = compute_metrics([0, 1, 1, 1], [0, 0, 1, 1], 2)
        assert m.accuracy == 0.75
        assert m.precision_macro == pytest.approx((1.0 + 2 / 3) / 2)
        assert m.recall_macro == pytest.approx((0.5 + 1.0) / 2)
        np.testing.assert_array_equal(m.confusion, [[1, 1], [0, 2]])

    def test_all_wrong(self):
        m = compute_metrics([1, 1], [0, 0], 3)
        assert m.accuracy == 0.0
        assert m.f1_macro == 0.0

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, size=50)
        preds = rng.integers(0, 3, size=50)
        m = compute_metrics(preds, truth, 3)
        assert m.accuracy == np.trace(m.confusion) / m.confusion.sum()
        for v in (m.precision_macro, m.recall_macro, m.f1_macro):
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize(
        "preds, truth, class_count",
        [
            ([0, 2, 2, 0, 2], [0, 2, 0, 0, 2], 3),  # class 1 absent from both
            ([1, 1, 1, 1], [0, 1, 2, 1], 3),  # every prediction in one class
            ([3, 3, 0], [0, 3, 3], 4),  # classes 1 and 2 absent from both
            ([0], [1], 2),
        ],
        ids=["absent-class", "one-class-preds", "two-absent", "single-wrong"],
    )
    def test_matches_loop_oracle_edge_cases(self, preds, truth, class_count):
        got = compute_metrics(preds, truth, class_count).to_dict()
        assert got == loop_compute_metrics(preds, truth, class_count).to_dict()

    def test_matches_loop_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            class_count = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, class_count, size=n)
            truth = rng.integers(0, class_count, size=n)
            got = compute_metrics(preds, truth, class_count).to_dict()
            assert got == loop_compute_metrics(preds, truth, class_count).to_dict()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics([0], [0, 1], 2)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Metrics(1.5, 0.5, 0.5, 0.5, np.zeros((2, 2)))

    def test_mean_metrics_sums_confusion(self):
        a = compute_metrics([0, 1], [0, 1], 2)
        b = compute_metrics([0, 1], [0, 0], 2)
        m = mean_metrics([a, b])
        assert m.accuracy == pytest.approx(0.75)
        np.testing.assert_array_equal(m.confusion, a.confusion + b.confusion)


class TestKrippendorffAlpha:
    def test_perfect_agreement(self):
        segs = tuple(LabelSegment(10 * i, 10 * (i + 1), i % 3) for i in range(9))
        tracks = [LabelTrack(f"r{j}", segs) for j in range(3)]
        assert krippendorff_alpha(tracks) == pytest.approx(1.0)

    def test_fixture_value(self, rater_tracks):
        alpha = krippendorff_alpha(rater_tracks)
        assert abs(alpha - 0.44) <= 0.05

    def test_permutation_null(self, rater_tracks):
        rng = np.random.default_rng(123)
        levels = [[s.level for s in t.segments] for t in rater_tracks]
        alphas = []
        for _ in range(5):
            shuffled_tracks = []
            for j, col in enumerate(levels):
                col = list(col)
                rng.shuffle(col)
                segs = tuple(
                    LabelSegment(10.0 * i, 10.0 * (i + 1), lv) for i, lv in enumerate(col)
                )
                shuffled_tracks.append(LabelTrack(f"r{j}", segs))
            alphas.append(krippendorff_alpha(shuffled_tracks))
        assert abs(np.mean(alphas)) < 0.15

    def test_alpha_at_most_one(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            tracks = []
            for j in range(3):
                segs = tuple(
                    LabelSegment(10.0 * i, 10.0 * (i + 1), int(lv))
                    for i, lv in enumerate(rng.integers(0, 3, size=15))
                )
                tracks.append(LabelTrack(f"r{j}", segs))
            assert krippendorff_alpha(tracks) <= 1.0 + 1e-12

    def test_matches_loop_oracle(self, rater_tracks):
        rng = np.random.default_rng(2011)
        tables = [[[s.level for s in t.segments] for t in rater_tracks]]
        tables += [
            rng.choice([UNLABELED, 0, 1, 2], size=(rng.integers(2, 5), rng.integers(1, 31)))
            for _ in range(1200)
        ]
        for table in tables:
            tracks = [
                LabelTrack(f"r{j}", tuple(
                    LabelSegment(10.0 * i, 10.0 * (i + 1), int(lv)) for i, lv in enumerate(row)
                ))
                for j, row in enumerate(table)
            ]
            assert abs(krippendorff_alpha(tracks) - loop_krippendorff_alpha(tracks)) <= 1e-12

    def test_undefined_when_nothing_pairable(self):
        a = LabelTrack("a", ())
        b = LabelTrack("b", ())
        with pytest.raises(UndefinedAlphaError, match="no item"):
            krippendorff_alpha([a, b])

    def test_input_validation(self, rater_tracks):
        with pytest.raises(ValueError):
            krippendorff_alpha(rater_tracks[:1])
        short = LabelTrack("s", rater_tracks[0].segments[:5])
        with pytest.raises(ValueError):
            krippendorff_alpha([rater_tracks[0], short])


def _result(method, accuracy, f1):
    m = Metrics(accuracy, accuracy, accuracy, f1, np.zeros((3, 3), dtype=np.int64))
    return RunResult(method=method, per_fold=(("s0", m),), mean=m, seed=0)


class TestRunResult:
    def test_json_key_order(self):
        doc = _result("cnn1d", 0.8, 0.79).to_dict()
        keys = ["accuracy", "precision_macro", "recall_macro", "f1_macro", "confusion"]
        assert list(doc["mean"]) == list(doc["per_fold"][0][1]) == keys

    def test_round_trip(self):
        res = _result("cnn1d", 0.8, 0.79)
        back = RunResult.from_dict(res.to_dict())
        assert back.method == res.method
        assert back.mean.accuracy == res.mean.accuracy
        np.testing.assert_array_equal(back.mean.confusion, res.mean.confusion)

    def test_unknown_method_rejected(self):
        m = Metrics(1.0, 1.0, 1.0, 1.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            RunResult(method="mystery", per_fold=(), mean=m, seed=0)


class TestRenderReport:
    def test_percent_formatting(self):
        report = render_report([_result("fusion_weighted", 0.727, 0.731)])
        assert "72.7" in report
        assert "73.1" in report

    def test_bold_on_best_accuracy(self):
        report = render_report(
            [_result("cnn1d", 0.6, 0.6), _result("fusion_weighted", 0.9, 0.88)]
        )
        assert "**Weighted Fusion**" in report
        assert "**Raw ECG (1D CNN)**" not in report

    def test_single_result_single_row(self):
        report = render_report([_result("knn_hrv", 0.5, 0.5)])
        rows = [l for l in report.splitlines() if l.startswith("|") and "---" not in l]
        # header + one data row, in each of the two tables
        assert len(rows) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_report([])
