"""Classification metrics (accuracy, balanced accuracy, sensitivity,
specificity, pairwise-ranking AUC), a paired significance test and the
attention-based region ranking.

Metrics whose denominator is empty are reported as None rather than zero;
the JSON layer renders them as null.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import training
from .errors import DimensionError, ParameterError

METRIC_NAMES = ("acc", "bac", "sen", "spe", "auc")


@dataclass(frozen=True)
class Confusion:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Metric values in [0, 1]; None marks an undefined denominator."""

    acc: float | None
    bac: float | None
    sen: float | None
    spe: float | None
    auc: float | None

    def as_dict(self):
        return {name: getattr(self, name) for name in METRIC_NAMES}


def _check_binary(v, name):
    v = np.asarray(v)
    if not np.isin(v, (0, 1)).all():
        raise ParameterError(f"{name} must be binary 0/1")
    return v.astype(int)


def confusion(y, yhat):
    """Confusion counts with class 1 as the positive class."""
    y = _check_binary(y, "y")
    yhat = _check_binary(yhat, "yhat")
    if y.shape != yhat.shape:
        raise DimensionError(f"length mismatch: {y.shape} vs {yhat.shape}")
    return Confusion(
        tp=int(np.sum((y == 1) & (yhat == 1))),
        tn=int(np.sum((y == 0) & (yhat == 0))),
        fp=int(np.sum((y == 0) & (yhat == 1))),
        fn=int(np.sum((y == 1) & (yhat == 0))),
    )


def auc(y, scores):
    """Pairwise-ranking AUC: P(score_pos > score_neg), ties count one half.

    Returns None when only one class is present.
    """
    y = _check_binary(y, "y")
    scores = np.asarray(scores, dtype=np.float64)
    if y.shape != scores.shape:
        raise DimensionError(f"length mismatch: {y.shape} vs {scores.shape}")
    pos = scores[y == 1]
    neg = scores[y == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    # Count pairs against the sorted negatives: O(n log n) time, linear
    # memory. A NaN score wins and ties nothing, as in a pairwise comparison.
    sorted_neg = np.sort(neg[~np.isnan(neg)])
    pos_valid = pos[~np.isnan(pos)]
    below = np.searchsorted(sorted_neg, pos_valid, "left")
    wins = below.sum()
    ties = (np.searchsorted(sorted_neg, pos_valid, "right") - below).sum()
    return float((wins + 0.5 * ties) / (pos.size * neg.size))


def metrics(conf, probs=None, y=None):
    """Full metric report from confusion counts plus scores for the AUC."""

    def ratio(num, den):
        return None if den == 0 else num / den

    acc = ratio(conf.tp + conf.tn, conf.total)
    sen = ratio(conf.tp, conf.tp + conf.fn)
    spe = ratio(conf.tn, conf.tn + conf.fp)
    bac = None if sen is None or spe is None else 0.5 * (sen + spe)
    auc_value = None
    if probs is not None and y is not None:
        auc_value = auc(y, probs)
    return MetricsReport(acc=acc, bac=bac, sen=sen, spe=spe, auc=auc_value)


def evaluate_predictions(y, probs, threshold=0.5):
    """Convenience wrapper: confusion + metrics from labels and scores."""
    y = _check_binary(y, "y")
    probs = np.asarray(probs, dtype=np.float64)
    pred = (probs >= threshold).astype(int)
    conf = confusion(y, pred)
    return conf, metrics(conf, probs, y)


def paired_ttest(a, b):
    """Two-sided paired t statistic and p-value.

    Degenerate case (zero-variance differences) returns p = 1 when the mean
    difference is zero and p = 0 otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("paired_ttest needs two equal-length vectors")
    n = a.shape[0]
    if n < 2:
        raise ParameterError("paired_ttest needs at least 2 pairs")
    d = a - b
    sd = d.std(ddof=1)
    mean = d.mean()
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    # imported here: scipy.special adds ~0.35 s to every CLI start
    from scipy.special import betainc

    # Two-sided p via the regularized incomplete beta (the t CDF tail).
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), p


@dataclass(frozen=True)
class RoiEntry:
    roi_index: int  # 1-based, atlas convention
    roi_name: str
    mean_weight: float
    shifted_weight: float


@dataclass(frozen=True)
class RoiRanking:
    """All regions ordered by descending mean attention weight."""

    entries: list
    filter_used: str
    n_selected: int

    def __len__(self):
        return len(self.entries)

    def top(self, k):
        return self.entries[: max(0, min(k, len(self.entries)))]


def rank_rois(params, stats, ds, filter="correct_positives", reference_labels=None,
              threshold=0.5, scores=None):
    """Rank input features by their mean attention weight.

    The default filter keeps samples predicted positive whose reference
    label is also positive; `filter="all"` averages over every sample.
    Reports both the raw mean weights (which sum to 1) and the weights
    shifted by the minimum (for bar charts). `scores` may pass in the
    (weights, probabilities) of `training.attend_and_classify` on ds, so
    a caller that already scored the rows does not score them again.
    """
    if len(ds) == 0:
        raise ParameterError("cannot rank regions on an empty dataset")
    if filter not in ("correct_positives", "all"):
        raise ParameterError(f"unknown filter {filter!r}")
    if scores is None:
        scores = training.attend_and_classify(params, stats, ds)
    w, probs = scores
    if filter == "correct_positives":
        if reference_labels is None:
            reference_labels = ds.labels_strict()
        reference_labels = _check_binary(reference_labels, "reference_labels")
        if reference_labels.shape[0] != len(ds):
            raise DimensionError("reference label count does not match dataset")
        keep = (probs >= threshold) & (reference_labels == 1)
        if not keep.any():
            raise ParameterError(
                "no correctly identified positive samples; rerun with filter='all'"
            )
        w = w[keep]
    mean_w = w.mean(axis=0)
    shifted = mean_w - mean_w.min()
    order = sorted(range(len(mean_w)), key=lambda i: (-mean_w[i], i))
    entries = [
        RoiEntry(
            roi_index=i + 1,
            roi_name=ds.feature_names[i],
            mean_weight=float(mean_w[i]),
            shifted_weight=float(shifted[i]),
        )
        for i in order
    ]
    return RoiRanking(entries=entries, filter_used=filter, n_selected=int(w.shape[0]))
