import numpy as np
import pytest

from dtikit import metrics as mx


# -- brute force oracles ---------------------------------------------------


def auroc_pairs(scores, labels):
    """Probability a random positive outranks a random negative, ties half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_thresholds(scores, labels):
    """Step-integrated precision-recall walked one distinct threshold at a time."""
    npos = sum(1 for y in labels if y == 1)
    area, prev_recall = 0.0, 0.0
    for thr in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= thr and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= thr and y == 0)
        recall = tp / npos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return area


def ci_pairs(pred, truth):
    num = den = 0.0
    n = len(pred)
    for i in range(n):
        for j in range(i + 1, n):
            if truth[i] == truth[j]:
                continue
            den += 1
            hi, lo = (i, j) if truth[i] > truth[j] else (j, i)
            if pred[hi] > pred[lo]:
                num += 1
            elif pred[hi] == pred[lo]:
                num += 0.5
    return num / den


# -- classification --------------------------------------------------------


def test_auroc_known_values():
    assert mx.auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
    assert mx.auroc([0.2, 0.3, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert mx.auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auroc_single_class_raises():
    with pytest.raises(mx.SingleClass):
        mx.auroc([0.1, 0.2], [1, 1])
    with pytest.raises(mx.SingleClass):
        mx.auprc([0.1, 0.2], [0, 0])


def test_ranking_metrics_match_pair_counting_oracles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)  # rounding forces plenty of ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert mx.auroc(scores, labels) == pytest.approx(auroc_pairs(scores, labels), abs=1e-9)
        assert mx.auprc(scores, labels) == pytest.approx(auprc_thresholds(scores, labels), abs=1e-9)


def test_accuracy_threshold():
    assert mx.accuracy([0.9, 0.4, 0.6, 0.1], [1, 0, 0, 0]) == 0.75
    assert mx.accuracy([0.9, 0.4], [1, 1], threshold=0.3) == 1.0


# -- regression --------------------------------------------------------------


def test_rmse_mae():
    assert mx.rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))
    assert mx.mae([1.0, 2.0], [1.0, 4.0]) == pytest.approx(1.0)


def test_pearson_and_spearman():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    assert mx.pearson(2 * t + 1, t) == pytest.approx(1.0)
    assert mx.pearson(-t, t) == pytest.approx(-1.0)
    with pytest.raises(mx.ConstantTruth):
        mx.pearson([1.0, 2.0], [3.0, 3.0])


def test_concordance_matches_pair_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        pred = np.round(rng.random(n), 1)
        truth = np.round(rng.random(n), 1)
        if np.ptp(truth) == 0:
            truth[0] += 1.0
        assert mx.concordance_index(pred, truth) == pytest.approx(ci_pairs(pred, truth), abs=1e-9)
    with pytest.raises(mx.ConstantTruth):
        mx.concordance_index([1.0, 2.0], [5.0, 5.0])


# -- clustering and screening -------------------------------------------------


def test_screen_score():
    assert mx.screen_score(0.9, 5.0) == pytest.approx(4.05)
    out = mx.screen_score([1.0, 0.5], [2.0, 2.0])
    assert np.allclose(out, [2.0, 0.5])


def test_metric_report_round_trip(tmp_path):
    rep = mx.MetricReport(metrics={"auroc": 0.9, "auprc": 0.8}, spread={"auroc": 0.01})
    path = tmp_path / "report.json"
    rep.save(path)
    back = mx.MetricReport.from_json(path.read_text())
    assert back == rep
