"""Evaluation metrics for classification, regression, and screening.

Ranking metrics handle ties by midrank (AUROC) or threshold grouping
(AUPRC), matching what the O(n^2) pair-counting definitions give; the test
suite checks that equivalence against brute-force oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


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
    """1-based ranks with ties sharing their average rank."""
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
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return float(area)


def accuracy(scores, labels, threshold: float = 0.5) -> float:
    s, y = _as_arrays(scores, labels)
    return float(((s >= threshold) == (y == 1)).mean())


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
    prediction ties count half."""
    p, t = _as_arrays(pred, truth)
    dt = t[:, None] - t[None, :]
    dp = p[:, None] - p[None, :]
    valid = np.triu(dt != 0, k=1)
    total = int(valid.sum())
    if total == 0:
        raise ConstantTruth("concordance needs at least one pair with distinct truth")
    agree = np.sign(dp[valid]) == np.sign(dt[valid])
    tied = dp[valid] == 0
    return float((agree.sum() + 0.5 * tied.sum()) / total)


def screen_score(y_c, y_r):
    """Rank score for virtual screening: squared interaction probability
    times predicted affinity, rewarding candidates strong on both heads."""
    return np.asarray(y_c, dtype=np.float64) ** 2 * np.asarray(y_r, dtype=np.float64)


@dataclass
class MetricReport:
    metrics: dict[str, float] = field(default_factory=dict)
    spread: dict[str, float] = field(default_factory=dict)  # std across seeds, when applicable

    def to_json(self) -> str:
        payload: dict[str, dict] = {}
        for name in sorted(self.metrics):
            payload[name] = {"mean": self.metrics[name]}
            if name in self.spread:
                payload[name]["std"] = self.spread[name]
        return json.dumps(payload, sort_keys=True, indent=2)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        raw = json.loads(text)
        return cls(
            metrics={k: v["mean"] for k, v in raw.items()},
            spread={k: v["std"] for k, v in raw.items() if "std" in v},
        )
