"""Episodic few-shot head: dynamic prototypes, cosine classification, focal
loss.

Each episode carries 2k support pairs (k per class) and k_q queries, and the
head scores it as one set of matrices.  A small affine attention projects
the supports and the queries once each and scores every query against every
support as a [k_q, 2k] matrix.  A softmax over each class's columns turns a
query's scores into within-class weights, so each class contributes one
prototype per query ([k_q, d]).  Queries are classified by a softmax over
their cosine similarity to the two prototypes, and the focal loss
concentrates training on the queries the model finds hard.

The head also takes a stack of E episodes that share one support label
vector (support [E, 2k, d], queries [E, k_q, d]), as an evaluation that
scores many episodes at one shot count does: the projections run as one
product over the stack's rows and the scores and prototypes as batched
products, so E episodes cost one call.  Training steps on one episode.
"""

from __future__ import annotations

import logging

import numpy as np

from . import tensor as T
from .optim import ParameterStore, kaiming_uniform
from .tensor import ShapeMismatch, Tensor

log = logging.getLogger(__name__)

# the focal loss's standard weighting and focusing values (Lin et al., 2017)
DEFAULT_ALPHA = 0.25
DEFAULT_GAMMA = 2.0


class EmptyClass(ValueError):
    pass


class DomainError(ValueError):
    """Raised when a probability leaves the domain of the focal loss."""


def focal_loss(
    correct_probs: Tensor,
    alpha: float = DEFAULT_ALPHA,
    gamma: float = DEFAULT_GAMMA,
) -> Tensor:
    """Summed focal term over the correct-class probabilities: setting gamma
    to zero recovers plain summed cross-entropy."""
    if np.any(correct_probs.data <= 0.0):
        raise DomainError("focal loss needs probabilities in (0, 1]")
    if alpha <= 0 or gamma < 0:
        raise DomainError(f"alpha {alpha} must be > 0 and gamma {gamma} >= 0")
    modulated = T.power(1.0 - correct_probs, gamma) * T.log(correct_probs)
    return T.tsum(modulated) * -alpha


class PrototypeHead:
    """Runs a whole episode through an affine attention of queries over
    supports.

    A shared projection feeds two learned scale/shift pairs, one applied to
    the queries and one to the supports; the squared relu of their product
    scores every (query, support) pair.  With `uniform_attention` no
    parameters exist and every support scores equally, which reduces the
    head to plain class-mean prototypes.
    """

    def __init__(
        self,
        store: ParameterStore,
        rng: np.random.Generator,
        feature_dim: int,
        qk_dim: int,
        uniform_attention: bool = False,
    ):
        self.uniform = uniform_attention
        if uniform_attention:
            return
        self.w = store.parameter(
            "proto/shared/w", kaiming_uniform(rng, (feature_dim, qk_dim), feature_dim)
        )
        self.q_scale = store.parameter("proto/q_scale", np.full(qk_dim, qk_dim**-0.5))
        self.q_shift = store.parameter("proto/q_shift", np.zeros(qk_dim))
        self.k_scale = store.parameter("proto/k_scale", np.full(qk_dim, qk_dim**-0.5))
        self.k_shift = store.parameter("proto/k_shift", np.zeros(qk_dim))

    def _project(self, x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
        e, n, _ = x.data.shape
        z = T.silu(T.matmul(x, self.w))
        return z * T.expand(T.expand(scale, 0, n), 0, e) + T.expand(T.expand(shift, 0, n), 0, e)

    def _scores(self, support: Tensor, queries: Tensor) -> Tensor:
        """Scores [E, k_q, 2k] of every support row against every query row
        of each episode."""
        if self.uniform:
            return Tensor(np.zeros(queries.data.shape[:2] + support.data.shape[1:2]))
        q = self._project(queries, self.q_scale, self.q_shift)
        k = self._project(support, self.k_scale, self.k_shift)
        return T.square(T.relu(T.bmm(q, T.transpose(k))))

    def episode_probabilities(
        self, support: Tensor, support_labels: np.ndarray, queries: Tensor
    ) -> tuple[Tensor, np.ndarray]:
        """Class probabilities [k_q, 2] of the query rows [k_q, d] and the
        within-class support weights [k_q, 2k] that formed their prototypes.
        A stack of episodes, support [E, 2k, d] and queries [E, k_q, d] with
        labels [2k] shared by all, gives probabilities [E, k_q, 2] and
        weights [E, k_q, 2k].

        The weights are normalised inside each class, so a prototype is a
        convex combination of its own class's supports.  Normalising over
        all 2k supports instead would only rescale each prototype, which the
        cosine scores ignore.
        """
        labels = np.asarray(support_labels)
        s, q = support.data.shape, queries.data.shape
        if (len(s) not in (2, 3) or len(q) != len(s) or labels.shape != (s[-2],)
                or q[:-2] != s[:-2] or q[-1] != s[-1] or 0 in q[:-1]):
            raise ShapeMismatch(f"queries {q} for support {s} with {labels.shape} labels")
        class_idx = []
        for c in (0, 1):
            idx = np.flatnonzero(labels == c)
            if idx.size == 0:
                raise EmptyClass(f"no class-{c} supports in episode")
            class_idx.append(idx)

        stacked = len(s) == 3
        if not stacked:
            support, queries = T.reshape(support, (1, *s)), T.reshape(queries, (1, *q))
        e, k_q, d = queries.data.shape
        scores = self._scores(support, queries)
        weights = np.zeros(scores.data.shape)
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
        if stacked:
            return T.reshape(probs, (e, k_q, 2)), weights
        return probs, weights[0]

    def episode_loss(
        self,
        support: Tensor,
        support_labels: np.ndarray,
        queries: Tensor,
        query_labels: np.ndarray,
    ) -> tuple[Tensor, np.ndarray]:
        """Focal loss over one episode's query rows [k_q, d] plus the
        detached per-query positive probabilities for metric bookkeeping."""
        probs, _ = self.episode_probabilities(support, support_labels, queries)
        k_q = queries.data.shape[0]
        picks = 2 * np.arange(k_q) + np.asarray(query_labels, dtype=np.intp)
        correct = T.index_select(T.reshape(probs, (2 * k_q,)), 0, picks)
        loss = focal_loss(correct)
        return loss, probs.data[:, 1].copy()
