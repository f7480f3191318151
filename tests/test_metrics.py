import json
import tracemalloc

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


# -- loop references, the earlier implementations: equal to the bit ------


def midranks_loop(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auprc_loop(s, y):
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    npos = int((y == 1).sum())
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        tp += int(y[i : j + 1].sum())
        fp += (j - i + 1) - int(y[i : j + 1].sum())
        recall = tp / npos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
        i = j + 1
    return float(area)


def concordance_dense(p, t):
    dt = t[:, None] - t[None, :]
    dp = p[:, None] - p[None, :]
    valid = np.triu(dt != 0, k=1)
    agree = np.sign(dp[valid]) == np.sign(dt[valid])
    tied = dp[valid] == 0
    return float((agree.sum() + 0.5 * tied.sum()) / int(valid.sum()))


def tied_with_nans(rng, n, decimals):
    x = np.round(rng.random(n), decimals)
    x[rng.random(n) < 0.15] = np.nan
    return x


def test_rank_metrics_equal_the_loop_references_exactly():
    """Same floats (`==`), ties and NaNs included: NaNs tie with nothing."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        s = tied_with_nans(rng, n, int(rng.integers(0, 3)))
        y = rng.integers(0, 2, size=n).astype(float)
        y[:2] = (0.0, 1.0)
        t = tied_with_nans(rng, n, 1)
        t[:2] = (0.0, 1.0)
        assert np.array_equal(mx._midranks(s), midranks_loop(s))
        assert mx.auprc(s, y) == auprc_loop(s, y)
        assert mx.concordance_index(s, t) == concordance_dense(s, t)


def test_concordance_spans_row_blocks_exactly(monkeypatch):
    rng = np.random.default_rng(12)
    p, t = np.round(rng.random(300), 2), np.round(rng.random(300), 1)
    monkeypatch.setattr(mx, "PAIR_BLOCK", 1000)  # three rows a block
    assert mx.concordance_index(p, t) == concordance_dense(p, t)


def test_concordance_memory_stays_flat():
    rng = np.random.default_rng(13)
    p, t = rng.random(4000), rng.random(4000)
    tracemalloc.start()
    try:
        mx.concordance_index(p, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"peak {peak / 1e6:.0f} MB"


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
    # a score at the threshold predicts an interaction
    assert mx.ACCURACY_THRESHOLD == 0.5
    assert mx.accuracy([0.5, np.nextafter(0.5, 0.0)], [1, 0]) == 1.0


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
    assert json.loads(path.read_text()) == {
        "auprc": {"mean": 0.8}, "auroc": {"mean": 0.9, "std": 0.01}
    }
