"""Evaluation metrics for classification, regression, and screening.

Ranking metrics handle ties by midrank (AUROC) or threshold grouping
(AUPRC), matching what the O(n^2) pair-counting definitions give; the test
suite checks that equivalence against brute-force oracles.  Each takes one
stable sort and finds its tie groups as runs of equal sorted scores.  The
concordance index counts its pairs over blocks of rows, so its memory does
not grow with the square of the prediction count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


PAIR_BLOCK = 1 << 18  # prediction pairs per block of the concordance count
ACCURACY_THRESHOLD = 0.5  # a probability at or above it predicts an interaction


class SingleClass(ValueError):
    pass


class ConstantTruth(ValueError):
    pass


def _as_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"need matching 1-d arrays, got {s.shape} and {y.shape}")
    return s, y


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank, from one stable
    sort.  A tie group is a run of equal sorted values, so a NaN ties with
    nothing."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    first = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    last = np.r_[first[1:], len(v)] - 1
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def auroc(scores, labels) -> float:
    s, y = _as_arrays(scores, labels)
    npos = int((y == 1).sum())
    nneg = int((y == 0).sum())
    if npos == 0 or nneg == 0:
        raise SingleClass("AUROC needs both classes present")
    ranks = _midranks(s)
    return float((ranks[y == 1].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


def auprc(scores, labels) -> float:
    """Area under precision-recall by step integration over score thresholds.

    Tied scores enter as one threshold group, so the curve is the same no
    matter how a sort breaks ties.
    """
    s, y = _as_arrays(scores, labels)
    npos = int((y == 1).sum())
    if npos == 0 or npos == len(y):
        raise SingleClass("AUPRC needs both classes present")
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    last = np.flatnonzero(np.r_[s[1:] != s[:-1], True])  # each group's last row
    tp = np.cumsum(y)[last]
    recall = tp / npos
    steps = np.diff(recall, prepend=0.0) * (tp / (last + 1))
    return float(np.cumsum(steps)[-1])  # summed left to right, as the curve is walked


def accuracy(scores, labels) -> float:
    s, y = _as_arrays(scores, labels)
    return float(((s >= ACCURACY_THRESHOLD) == (y == 1)).mean())


def rmse(pred, truth) -> float:
    p, t = _as_arrays(pred, truth)
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mae(pred, truth) -> float:
    p, t = _as_arrays(pred, truth)
    return float(np.mean(np.abs(p - t)))


def pearson(pred, truth) -> float:
    p, t = _as_arrays(pred, truth)
    if np.ptp(t) == 0:
        raise ConstantTruth("correlation undefined for constant truth")
    if np.ptp(p) == 0:
        raise ConstantTruth("correlation undefined for constant predictions")
    pc = p - p.mean()
    tc = t - t.mean()
    return float((pc @ tc) / np.sqrt((pc @ pc) * (tc @ tc)))


def concordance_index(pred, truth) -> float:
    """Fraction of truth-ordered pairs the predictions order the same way;
    prediction ties count half.  The pairs i < j are counted over row blocks
    of the upper triangle, PAIR_BLOCK pairs at a time, so memory stays flat
    in the number of predictions."""
    p, t = _as_arrays(pred, truth)
    step = max(1, PAIR_BLOCK // max(len(t), 1))
    total = agree = tied = 0
    for lo in range(0, len(t), step):
        dt = t[lo : lo + step, None] - t[None, lo:]
        dp = p[lo : lo + step, None] - p[None, lo:]
        valid = np.triu(dt != 0, k=1)
        dt, dp = dt[valid], dp[valid]
        total += len(dt)
        agree += int(np.count_nonzero(np.sign(dp) == np.sign(dt)))
        tied += int(np.count_nonzero(dp == 0))
    if total == 0:
        raise ConstantTruth("concordance needs at least one pair with distinct truth")
    return float((agree + 0.5 * tied) / total)


def screen_score(y_c, y_r):
    """Rank score for virtual screening: squared interaction probability
    times predicted affinity, rewarding candidates strong on both heads."""
    return np.asarray(y_c, dtype=np.float64) ** 2 * np.asarray(y_r, dtype=np.float64)


@dataclass
class MetricReport:
    metrics: dict[str, float] = field(default_factory=dict)
    spread: dict[str, float] = field(default_factory=dict)  # std over one seed's shot-curve runs

    def to_json(self) -> str:
        payload: dict[str, dict] = {}
        for name in sorted(self.metrics):
            payload[name] = {"mean": self.metrics[name]}
            if name in self.spread:
                payload[name]["std"] = self.spread[name]
        return json.dumps(payload, sort_keys=True, indent=2)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")
