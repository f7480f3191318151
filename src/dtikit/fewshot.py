"""Episodic few-shot head: dynamic prototypes, cosine classification, focal
loss.

Each episode carries 2k support pairs (k per class) and k_q queries, and the
head scores a stack of E episodes that share one support label vector
(support [E, 2k, d], queries [E, k_q, d]) as one set of matrices.  A small
affine attention projects the supports and the queries once each, as one
product over the stack's rows, and scores every query against every support
of its episode as a [k_q, 2k] matrix.  A softmax over each class's columns
turns a query's scores into within-class weights, so each class contributes
one prototype per query.  Queries are classified by a softmax over their
cosine similarity to the two prototypes, and the focal loss concentrates
training on the queries the model finds hard.  Training steps on a stack of
one episode; an evaluation that scores many episodes at one shot count
stacks them all.
"""

from __future__ import annotations

import logging

import numpy as np

from . import tensor as T
from .encoder import _SquaredReluScores
from .optim import ParameterStore, kaiming_uniform
from .tensor import ShapeMismatch, Tensor

log = logging.getLogger(__name__)

# the focal loss's standard weighting and focusing values (Lin et al., 2017)
ALPHA = 0.25
GAMMA = 2


class EmptyClass(ValueError):
    pass


class DomainError(ValueError):
    """Raised when a probability leaves the domain of the focal loss."""


def focal_loss(correct_probs: Tensor) -> Tensor:
    """Summed focal term -ALPHA * (1 - p)**GAMMA * log(p) over the
    correct-class probabilities: each one's cross-entropy, weighted by how
    far it falls short of certainty."""
    if np.any(correct_probs.data <= 0.0):
        raise DomainError("focal loss needs probabilities in (0, 1]")
    modulated = T.square(1.0 - correct_probs) * T.log(correct_probs)  # GAMMA is 2
    return T.tsum(modulated) * -ALPHA


class PrototypeHead:
    """Runs a stack of episodes through an affine attention of queries over
    supports.

    A shared projection feeds the squared-relu scorer the encoder's fusion
    unit also uses, queries on its query side and supports on its key side,
    so it scores every (query, support) pair.
    """

    def __init__(
        self, store: ParameterStore, rng: np.random.Generator, feature_dim: int, qk_dim: int
    ):
        self.w = store.parameter(
            "proto/shared/w", kaiming_uniform(rng, (feature_dim, qk_dim), feature_dim)
        )
        self.scores = _SquaredReluScores(store, "proto", qk_dim)

    def episode_probabilities(
        self, support: Tensor, support_labels: np.ndarray, queries: Tensor
    ) -> tuple[Tensor, np.ndarray]:
        """Class probabilities [E, k_q, 2] of a stack of E episodes' query
        rows [E, k_q, d], and the within-class support weights [E, k_q, 2k]
        that formed their prototypes; the supports [E, 2k, d] share the
        labels [2k].

        The weights are normalised inside each class, so a prototype is a
        convex combination of its own class's supports.  Normalising over
        all 2k supports instead would only rescale each prototype, which the
        cosine scores ignore.
        """
        labels = np.asarray(support_labels)
        s, q = support.data.shape, queries.data.shape
        if (len(s) != 3 or len(q) != 3 or labels.shape != (s[1],)
                or q[0] != s[0] or q[2] != s[2] or 0 in q[:2]):
            raise ShapeMismatch(f"queries {q} for support {s} with {labels.shape} labels")
        class_idx = []
        for c in (0, 1):
            idx = np.flatnonzero(labels == c)
            if idx.size == 0:
                raise EmptyClass(f"no class-{c} supports in episode")
            class_idx.append(idx)

        e, k_q, d = q
        scores = self.scores(
            T.silu(T.matmul(queries, self.w)), T.silu(T.matmul(support, self.w))
        )
        weights = np.zeros(scores.data.shape, dtype=scores.data.dtype)
        rows = T.reshape(queries, (e * k_q, d))
        sims = []
        zero = np.linalg.norm(rows.data, axis=1) < T.ZERO_NORM_EPS
        for idx in class_idx:
            w = T.softmax(T.index_select(scores, 2, idx), axis=2)
            weights[..., idx] = w.data
            protos = T.reshape(T.bmm(w, T.index_select(support, 1, idx)), (e * k_q, d))
            zero |= np.linalg.norm(protos.data, axis=1) < T.ZERO_NORM_EPS
            sims.append(T.reshape(T.cosine_rows(rows, protos), (e * k_q, 1)))
        if zero.any():
            log.warning(
                "%d of %d queries in %d episodes meet a zero-norm query or prototype, "
                "similarity set to 0",
                int(zero.sum()), e * k_q, e,
            )
        probs = T.softmax(T.concat(sims, axis=1), axis=1)
        return T.reshape(probs, (e, k_q, 2)), weights

    def episode_loss(
        self,
        support: Tensor,
        support_labels: np.ndarray,
        queries: Tensor,
        query_labels: np.ndarray,
    ) -> tuple[Tensor, np.ndarray]:
        """Focal loss over every query row of a stack of episodes, labelled
        [E, k_q], plus the detached positive probabilities [E, k_q] for
        metric bookkeeping."""
        probs, _ = self.episode_probabilities(support, support_labels, queries)
        labels = np.asarray(query_labels, dtype=np.intp)
        if labels.shape != probs.data.shape[:2]:
            raise ShapeMismatch(f"query labels {labels.shape} for probabilities {probs.data.shape}")
        n = labels.size
        picks = 2 * np.arange(n) + labels.ravel()
        correct = T.index_select(T.reshape(probs, (2 * n,)), 0, picks)
        return focal_loss(correct), probs.data[..., 1].copy()
