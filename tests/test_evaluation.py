import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iadt import evaluation, network, training
from iadt.data import dataset_from_arrays, identity_stats
from iadt.errors import DimensionError, ParameterError
from iadt.evaluation import Confusion
from layers import with_layers


def brute_force_auc(y, scores):
    y = np.asarray(y)
    scores = np.asarray(scores)
    pos = scores[y == 1]
    neg = scores[y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_hand_counts(self):
        c = evaluation.confusion([1, 0], [1, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_all_missed_positives(self):
        c = evaluation.confusion([1, 1], [0, 0])
        assert c.fn == 2 and c.tp == 0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=200)
        yhat = rng.integers(0, 2, size=200)
        c = evaluation.confusion(y, yhat)
        assert c.tp == sum(1 for a, b in zip(y, yhat) if a == 1 and b == 1)
        assert c.tn == sum(1 for a, b in zip(y, yhat) if a == 0 and b == 0)
        assert c.fp == sum(1 for a, b in zip(y, yhat) if a == 0 and b == 1)
        assert c.fn == sum(1 for a, b in zip(y, yhat) if a == 1 and b == 0)
        assert c.total == 200

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            evaluation.confusion([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError):
            evaluation.confusion([1, 2], [1, 0])


def metrics_of(tp, tn, fp, fn):
    """`evaluation.metrics` of a confusion, with labels and hard scores that
    realize it for the AUC."""
    y = np.repeat([1, 0, 0, 1], [tp, tn, fp, fn])
    probs = np.repeat([1.0, 0.0, 1.0, 0.0], [tp, tn, fp, fn])
    return evaluation.metrics(Confusion(tp=tp, tn=tn, fp=fp, fn=fn), probs, y)


class TestPredictedLabels:
    def test_one_from_the_threshold_on(self):
        probs = np.array([0.2, 0.5, np.nextafter(0.5, 0.0), 0.7, np.nan])
        assert evaluation.predicted_labels(probs, 0.5).tolist() == [0, 1, 0, 1, 0]

    def test_evaluate_predictions_counts_these_labels(self):
        conf, _ = evaluation.evaluate_predictions([1, 0, 1, 0], [0.6, 0.6, 0.3, 0.1], 0.6)
        assert conf == Confusion(tp=1, tn=1, fp=1, fn=1)


class TestMetrics:
    def test_published_confusion_row(self):
        report = metrics_of(tp=16, tn=38, fp=14, fn=8)
        assert round(100 * report.acc, 2) == 71.05
        assert round(100 * report.bac, 2) == 69.87
        assert round(100 * report.sen, 2) == 66.67
        assert round(100 * report.spe, 2) == 73.08

    def test_perfect_prediction(self):
        report = metrics_of(tp=5, tn=5, fp=0, fn=0)
        assert report.acc == report.bac == report.sen == report.spe == report.auc == 1.0

    def test_undefined_sensitivity_marker(self):
        report = metrics_of(tp=0, tn=4, fp=2, fn=0)
        assert report.sen is None
        assert report.bac is None
        assert report.auc is None
        assert report.spe is not None

    def test_bac_identity(self):
        report = metrics_of(tp=7, tn=9, fp=3, fn=5)
        assert report.bac == pytest.approx(0.5 * (report.sen + report.spe), abs=1e-12)


class TestAuc:
    def test_hand_enumerated_case(self):
        assert evaluation.auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert evaluation.auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_all_ties(self):
        assert evaluation.auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_single_class_undefined(self):
        assert evaluation.auc([1, 1], [0.2, 0.3]) is None

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, size=n)
            if len(np.unique(y)) < 2:
                continue
            scores = np.round(rng.uniform(0, 1, size=n), 1)  # force ties
            assert evaluation.auc(y, scores) == pytest.approx(
                brute_force_auc(y, scores), abs=1e-12
            )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_auc_monotone_invariance_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 30))
    y = rng.integers(0, 2, size=n)
    y[0], y[1] = 0, 1  # both classes present
    scores = rng.uniform(-3, 3, size=n)
    base = evaluation.auc(y, scores)
    scale = float(rng.uniform(0.1, 5.0))
    shift = float(rng.uniform(-10, 10))
    transformed = np.exp(scale * scores) + shift  # strictly increasing
    assert evaluation.auc(y, transformed) == pytest.approx(base, abs=1e-12)


# Few distinct values, so most pairs tie; NaN, signed zeros and infinities too.
TIED_SCORES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), TIED_SCORES | st.floats()), max_size=40))
def test_auc_matches_pair_count_property(rows):
    y = np.array([label for label, _ in rows], dtype=int)
    scores = np.array([score for _, score in rows], dtype=np.float64)
    pos, neg = scores[y == 1], scores[y == 0]
    if pos.size == 0 or neg.size == 0:
        assert evaluation.auc(y, scores) is None
        return
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    assert evaluation.auc(y, scores) == float((wins + 0.5 * ties) / (pos.size * neg.size))


class TestRankRois:
    def _uniform_attention_setup(self, d=6):
        p = network.init_params(d, 4, 3, seed=0)
        p = with_layers(p, attention=(np.zeros((d, d)), np.zeros(d)))
        rng = np.random.default_rng(1)
        ds = dataset_from_arrays(rng.normal(size=(10, d)), rng.integers(0, 2, size=10))
        return p, ds

    def test_uniform_attention_ties_broken_by_index(self):
        p, ds = self._uniform_attention_setup()
        ranking = evaluation.rank_rois(training.score(p, identity_stats(p.d), ds), ds,
                                       filter="all")
        assert [e.roi_index for e in ranking.entries] == [1, 2, 3, 4, 5, 6]
        for e in ranking.entries:
            assert e.mean_weight == pytest.approx(1.0 / 6.0, abs=1e-12)
            assert e.shifted_weight == pytest.approx(0.0, abs=1e-12)

    def test_raw_means_sum_to_one(self):
        rng = np.random.default_rng(2)
        p = network.init_params(8, 5, 3, seed=3)
        ds = dataset_from_arrays(rng.normal(size=(20, 8)), rng.integers(0, 2, size=20))
        ranking = evaluation.rank_rois(training.score(p, identity_stats(8), ds), ds,
                                       filter="all")
        assert sum(e.mean_weight for e in ranking.entries) == pytest.approx(1.0, abs=1e-9)

    def test_mean_matches_per_sample_softmax_oracle(self):
        rng = np.random.default_rng(3)
        p = network.init_params(5, 4, 2, seed=4)
        x = rng.normal(size=(12, 5))
        ds = dataset_from_arrays(x)
        ranking = evaluation.rank_rois(training.score(p, identity_stats(5), ds), ds,
                                       filter="all")
        pre = x @ p.attention.w.T + p.attention.b
        soft = np.exp(pre - pre.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        oracle = soft.mean(axis=0)
        by_index = {e.roi_index: e.mean_weight for e in ranking.entries}
        for i in range(5):
            assert by_index[i + 1] == pytest.approx(oracle[i], abs=1e-12)

    def test_correct_positive_filter(self):
        rng = np.random.default_rng(4)
        p = network.init_params(4, 3, 2, seed=5)
        x = rng.normal(size=(30, 4))
        ds = dataset_from_arrays(x, rng.integers(0, 2, size=30))
        stats = identity_stats(4)
        pred = evaluation.predicted_labels(training.predict(p, stats, ds), 0.5)
        y = ds.labels_strict().astype(int)
        expected_n = int(((pred == 1) & (y == 1)).sum())
        scores = training.score(p, stats, ds)
        if expected_n == 0:
            with pytest.raises(ParameterError, match="filter"):
                evaluation.rank_rois(scores, ds)
        else:
            ranking = evaluation.rank_rois(scores, ds)
            assert ranking.n_selected == expected_n

    def test_threshold_selects_the_rows_it_admits(self):
        rng = np.random.default_rng(7)
        p = network.init_params(6, 4, 2, seed=8)
        ds = dataset_from_arrays(rng.normal(size=(40, 6)), np.tile([1, 0], 20))
        threshold = float(np.median(training.score(p, identity_stats(6), ds).probs))
        scores = training.score(p, identity_stats(6), ds, threshold=threshold)
        keep = (scores.probs >= threshold) & (ds.labels == 1)
        ranking = evaluation.rank_rois(scores, ds)
        assert 0 < ranking.n_selected == int(keep.sum())
        by_index = {e.roi_index: e.mean_weight for e in ranking.entries}
        w, _ = network.attention_forward(p, ds.x)
        oracle = w[keep].mean(axis=0)
        assert [by_index[i + 1] for i in range(6)] == oracle.tolist()

    def test_unlabeled_rows_rank_only_with_filter_all(self):
        p = network.init_params(3, 3, 2, seed=6)
        ds = dataset_from_arrays(np.random.default_rng(5).normal(size=(6, 3)))
        scores = training.score(p, identity_stats(3), ds, threshold=0.0)
        with pytest.raises(ParameterError, match="^unlabeled samples present"):
            evaluation.rank_rois(scores, ds)
        assert evaluation.rank_rois(scores, ds, filter="all").n_selected == 6

    def test_scores_of_another_dataset_rejected(self):
        p = network.init_params(3, 3, 2, seed=6)
        rng = np.random.default_rng(5)
        ds = dataset_from_arrays(rng.normal(size=(6, 3)), [1, 0] * 3)
        other = dataset_from_arrays(rng.normal(size=(5, 3)), [1, 0, 1, 0, 1])
        with pytest.raises(DimensionError):
            evaluation.rank_rois(training.score(p, identity_stats(3), other), ds)

    def test_empty_selection_instructs_filter_all(self):
        p = network.init_params(3, 3, 2, seed=6)
        # all labels 0: no correct positives possible
        ds = dataset_from_arrays(np.random.default_rng(5).normal(size=(6, 3)), [0] * 6)
        with pytest.raises(ParameterError, match="all"):
            evaluation.rank_rois(training.score(p, identity_stats(3), ds), ds)

    def test_atlas_name_lookup(self):
        from iadt.roi_names import AAL90

        assert AAL90[66] == "Precuneus left"
        assert AAL90[36] == "Hippocampus left"
        assert AAL90[85] == "Middle temporal gyrus right"
        assert len(AAL90) == 90

    def test_ranking_on_atlas_features(self):
        rng = np.random.default_rng(6)
        p = network.init_params(90, 8, 4, seed=7)
        ds = dataset_from_arrays(rng.normal(size=(5, 90)))
        ranking = evaluation.rank_rois(training.score(p, identity_stats(90), ds), ds,
                                       filter="all")
        top = ranking.top(10)
        assert len(top) == 10
        assert all(e.roi_name for e in top)
        # descending order of mean weight
        weights = [e.mean_weight for e in ranking.entries]
        assert all(a >= b for a, b in zip(weights, weights[1:]))
