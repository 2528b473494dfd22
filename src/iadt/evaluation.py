"""Classification metrics (accuracy, balanced accuracy, sensitivity,
specificity, pairwise-ranking AUC), the one rule that turns probabilities
into labels (`predicted_labels`), and the region ranking from the
attention sums that scoring gathers.

Metrics whose denominator is empty are reported as None rather than zero;
the JSON layer renders them as null.
"""

from dataclasses import dataclass

import numpy as np

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


def metrics(conf, probs, y):
    """Full metric report from confusion counts, with the AUC of `probs`
    against the labels `y`."""

    def ratio(num, den):
        return None if den == 0 else num / den

    acc = ratio(conf.tp + conf.tn, conf.total)
    sen = ratio(conf.tp, conf.tp + conf.fn)
    spe = ratio(conf.tn, conf.tn + conf.fp)
    bac = None if sen is None or spe is None else 0.5 * (sen + spe)
    return MetricsReport(acc=acc, bac=bac, sen=sen, spe=spe, auc=auc(y, probs))


def predicted_labels(probs, threshold):
    """The predicted class of each probability: 1 from `threshold` on, else 0."""
    return (np.asarray(probs) >= threshold).astype(int)


def evaluate_predictions(y, probs, threshold=0.5):
    """Convenience wrapper: confusion + metrics from labels and scores."""
    y = _check_binary(y, "y")
    probs = np.asarray(probs, dtype=np.float64)
    conf = confusion(y, predicted_labels(probs, threshold))
    return conf, metrics(conf, probs, y)


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

    def top(self, k):
        return self.entries[: max(0, min(k, len(self.entries)))]


def rank_rois(scores, ds, filter="correct_positives"):
    """Rank the input features of ds by their mean attention weight.

    `scores` is `training.score` of ds, which sums the attention weights as
    it scores. The default filter averages over the samples labelled
    positive whose probability reached the threshold given to `score`;
    `filter="all"` averages over every sample. Reports both the raw mean
    weights (which sum to 1) and the weights shifted by the minimum (for
    bar charts).
    """
    if len(ds) == 0:
        raise ParameterError("cannot rank regions on an empty dataset")
    if filter not in ("correct_positives", "all"):
        raise ParameterError(f"unknown filter {filter!r}")
    if scores.probs.shape != (len(ds),) or scores.weight_sum.shape != (ds.feature_count,):
        raise DimensionError(
            f"scores of {scores.probs.shape[0]} x {scores.weight_sum.shape[0]} "
            f"for {len(ds)} x {ds.feature_count} samples"
        )
    if filter == "correct_positives":
        ds.labels_strict()
        if scores.positives == 0:
            raise ParameterError(
                "no correctly identified positive samples; rerun with filter='all'"
            )
        weight_sum, selected = scores.positive_weight_sum, scores.positives
    else:
        weight_sum, selected = scores.weight_sum, len(ds)
    # numpy's axis-0 mean: the row-order sum divided by the row count
    mean_w = weight_sum / selected
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
    return RoiRanking(entries=entries, filter_used=filter, n_selected=selected)
