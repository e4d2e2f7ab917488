"""Classification metrics, LOSO run results, inter-rater agreement and
report rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signal_core import LabelTrack, freeze

# The scalar fields of Metrics, in their JSON key order
SCORES = ("accuracy", "precision_macro", "recall_macro", "f1_macro")


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision_macro: float
    recall_macro: float
    f1_macro: float
    confusion: np.ndarray

    def __post_init__(self):
        freeze(self, "confusion", dtype=np.int64)
        for name in SCORES:
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    def to_dict(self):
        scores = {name: getattr(self, name) for name in SCORES}
        return {**scores, "confusion": self.confusion.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(**{name: d[name] for name in SCORES}, confusion=np.array(d["confusion"]))


METHOD_DISPLAY = {
    "cnn1d": "Raw ECG (1D CNN)",
    "cnn2d": "Spectrogram CNN",
    "fusion_avg": "Average Fusion",
    "fusion_weighted": "Weighted Fusion",
    "svm_hrv": "HRV + Linear SVM",
    "knn_hrv": "HRV + KNN",
}


@dataclass(frozen=True)
class RunResult:
    method: str
    per_fold: tuple  # (subject_id, Metrics) pairs, sorted by subject
    mean: Metrics
    seed: int
    config_snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHOD_DISPLAY:
            raise ValueError(f"unknown method tag '{self.method}'")
        object.__setattr__(self, "per_fold", tuple(self.per_fold))

    def to_dict(self):
        return {
            "method": self.method,
            "per_fold": [[s, m.to_dict()] for s, m in self.per_fold],
            "mean": self.mean.to_dict(),
            "seed": self.seed,
            "config_snapshot": self.config_snapshot,
        }

    @classmethod
    def from_dict(cls, d, source="the result document"):
        """Inverse of to_dict; ValueError naming `source` on a document of another shape."""
        try:
            return cls(
                method=d["method"],
                per_fold=tuple((s, Metrics.from_dict(m)) for s, m in d["per_fold"]),
                mean=Metrics.from_dict(d["mean"]),
                seed=d["seed"],
                config_snapshot=d.get("config_snapshot", {}),
            )
        except KeyError as exc:
            raise ValueError(f"{source} has no key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{source} is malformed: {exc}") from None


def compute_metrics(preds, truth, class_count: int) -> Metrics:
    """Confusion matrix and macro-averaged precision/recall/F1.

    Classes never seen in truth or predictions contribute 0 to each macro
    mean; per-class F1 is 0 when precision + recall is 0.
    """
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if len(preds) != len(truth):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(truth)} labels")
    if len(preds) == 0:
        raise ValueError("need at least one prediction")
    confusion = np.bincount(truth * class_count + preds, minlength=class_count**2).reshape(
        class_count, class_count
    )
    tp = np.diag(confusion)
    pred_totals, true_totals = confusion.sum(axis=0), confusion.sum(axis=1)
    precision = np.divide(tp, pred_totals, out=np.zeros(class_count), where=pred_totals > 0)
    recall = np.divide(tp, true_totals, out=np.zeros(class_count), where=true_totals > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros(class_count), where=pr_sum > 0)
    return Metrics(
        accuracy=float(np.trace(confusion) / confusion.sum()),
        precision_macro=float(np.mean(precision)),
        recall_macro=float(np.mean(recall)),
        f1_macro=float(np.mean(f1)),
        confusion=confusion,
    )


def mean_metrics(metrics_list) -> Metrics:
    """Unweighted mean of the scalar metrics; confusion matrices are summed."""
    return Metrics(
        **{name: float(np.mean([getattr(m, name) for m in metrics_list])) for name in SCORES},
        confusion=np.sum([m.confusion for m in metrics_list], axis=0),
    )


class UndefinedAlphaError(ValueError):
    pass


def krippendorff_alpha(tracks: list[LabelTrack]) -> float:
    """Ordinal Krippendorff's alpha over aligned rater tracks.

    Unlabeled cells participate as their own lowest ordinal value: a rater
    declining to label is itself a codable judgment, and this treatment
    reproduces published agreement figures for partially labeled stress
    ratings. The coincidence matrix comes from the items x values count
    matrix C as (C^T C - diag(colsum C)) / (raters - 1); the ordinal distance
    uses the cumulative-margin formulation.
    """
    if len(tracks) < 2:
        raise ValueError("need at least 2 rater tracks")
    n_items = len(tracks[0].segments)
    if any(len(t.segments) != n_items for t in tracks):
        raise ValueError("rater tracks must have equal segment counts")
    if n_items == 0:
        raise UndefinedAlphaError("no item has two or more labels")

    levels = np.array([[s.level for s in t.segments] for t in tracks]).T  # (items, raters)
    counts = (levels[:, :, None] == np.unique(levels)).sum(axis=1)
    margins = counts.sum(axis=0)
    coincidence = (counts.T @ counts - np.diag(margins)) / (len(tracks) - 1)
    # delta[c, g] = (n_c + ... + n_g - (n_c + n_g) / 2)^2 = (mid[g] - mid[c])^2
    mid = np.cumsum(margins) - margins / 2.0
    delta = (mid[:, None] - mid[None, :]) ** 2
    d_observed = np.sum(coincidence * delta)
    d_expected = np.sum(np.outer(margins, margins) * delta)
    if d_expected == 0:
        return 1.0
    return float(1.0 - (margins.sum() - 1.0) * d_observed / d_expected)


def _pct(v: float) -> str:
    return f"{100.0 * v:.1f}"


def render_report(results: list[RunResult]) -> str:
    """Markdown tables of per-method mean metrics; best accuracy bolded."""
    if not results:
        raise ValueError("need at least one result")
    best = max(range(len(results)), key=lambda i: results[i].mean.accuracy)
    names = [METHOD_DISPLAY.get(res.method, res.method) for res in results]
    names[best] = f"**{names[best]}**"
    lines = [
        "# Stress classification results",
        "",
        "| Method | Accuracy | Precision | Recall | F1-Score |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, res in zip(names, results):
        m = res.mean
        lines.append(
            f"| {name} | {_pct(m.accuracy)} | {_pct(m.precision_macro)} "
            f"| {_pct(m.recall_macro)} | {_pct(m.f1_macro)} |"
        )
    lines += [
        "",
        "## Accuracy vs F1",
        "",
        "| Method | Accuracy | F1-Score |",
        "| --- | --- | --- |",
    ]
    for name, res in zip(names, results):
        lines.append(f"| {name} | {_pct(res.mean.accuracy)} | {_pct(res.mean.f1_macro)} |")
    return "\n".join(lines) + "\n"
