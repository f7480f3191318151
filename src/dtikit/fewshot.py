"""Episodic few-shot head: dynamic prototypes, cosine classification, focal
loss.

Each episode carries 2k support pairs (k per class) and a handful of
queries.  For every query we build a (2k+1)-row block with the query's own
representation in row zero, score the supports against the query through a
small affine attention, and collapse each class's supports into a prototype
using softmax weights normalised within that class.  Queries are classified
by cosine similarity to the two prototypes, and the focal loss concentrates
training on the queries the model finds hard.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .optim import ParameterStore, kaiming_uniform
from .tensor import ShapeMismatch, Tensor

log = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.25
DEFAULT_GAMMA = 2.0
ZERO_NORM_EPS = 1e-12


class EmptyClass(ValueError):
    pass


class DomainError(ValueError):
    """Raised when a probability leaves the domain of the focal loss."""


def expand_concat(support: Tensor, query: Tensor) -> Tensor:
    """One query's attention block: the query vector in row zero followed by
    the 2k support rows."""
    if support.data.ndim != 2 or query.data.shape != (support.data.shape[1],):
        raise ShapeMismatch(
            f"expand_concat: support {support.data.shape}, query {query.data.shape}"
        )
    return T.concat([T.reshape(query, (1, support.data.shape[1])), support], axis=0)


class PrototypeAttention:
    """Affine attention over one concatenated block.

    A shared projection feeds two learned scale/shift pairs; the squared
    relu of their outer product scores every row pair, and the query row's
    scores against the support columns are what the prototypes consume.
    In uniform mode no parameters exist and every support scores equally,
    which reduces the head to plain class-mean prototypes.
    """

    def __init__(
        self,
        store: ParameterStore,
        rng: np.random.Generator,
        feature_dim: int,
        qk_dim: int,
        uniform: bool = False,
    ):
        self.uniform = uniform
        if uniform:
            return
        self.w = store.parameter(
            "proto/shared/w", kaiming_uniform(rng, (feature_dim, qk_dim), feature_dim)
        )
        self.q_scale = store.parameter("proto/q_scale", np.full(qk_dim, qk_dim**-0.5))
        self.q_shift = store.parameter("proto/q_shift", np.zeros(qk_dim))
        self.k_scale = store.parameter("proto/k_scale", np.full(qk_dim, qk_dim**-0.5))
        self.k_shift = store.parameter("proto/k_shift", np.zeros(qk_dim))

    def support_scores(self, block: Tensor) -> Tensor:
        """Scores [2k] of each support row against the query row of a
        (2k+1)-row block."""
        n = block.data.shape[0]
        if self.uniform:
            return Tensor(np.zeros(n - 1), requires_grad=False)
        z = T.silu(T.matmul(block, self.w))
        q = z * T.expand(self.q_scale, 0, n) + T.expand(self.q_shift, 0, n)
        k = z * T.expand(self.k_scale, 0, n) + T.expand(self.k_shift, 0, n)
        a = T.square(T.relu(T.matmul(q, T.transpose(k))))
        query_row = T.index_select(a, 0, [0])
        return T.reshape(T.index_select(query_row, 1, list(range(1, n))), (n - 1,))


@dataclass
class PrototypeSet:
    """Per-query prototypes plus the raw support scores and the softmax
    weights actually used (weights over each class subset sum to one)."""

    prototypes: list[tuple[Tensor, Tensor]]
    attention: np.ndarray  # [k_q, 2k]
    weights: np.ndarray  # [k_q, 2k]


def dynamic_prototypes(
    blocks: list[Tensor],
    support: Tensor,
    support_labels: np.ndarray,
    attention: PrototypeAttention,
) -> PrototypeSet:
    """Collapse the supports into one prototype per class for every query
    block.

    The weights are normalised inside each class, so a prototype is a
    convex combination of its own class's supports.  Normalising over all
    2k supports instead would only rescale each prototype, which the cosine
    scores downstream ignore.
    """
    labels = np.asarray(support_labels)
    if labels.shape[0] != support.data.shape[0]:
        raise ShapeMismatch(
            f"{labels.shape[0]} labels for {support.data.shape[0]} supports"
        )
    class_idx = []
    for c in (0, 1):
        idx = np.flatnonzero(labels == c)
        if idx.size == 0:
            raise EmptyClass(f"no class-{c} supports in episode")
        class_idx.append(idx)

    prototypes = []
    raw_scores = []
    used_weights = []
    for block in blocks:
        scores = attention.support_scores(block)
        raw_scores.append(scores.data.copy())
        weight_row = np.zeros(labels.shape[0])
        pair = []
        for idx in class_idx:
            s_c = T.reshape(T.index_select(scores, 0, idx), (1, idx.size))
            w = T.softmax(s_c, axis=1)
            members = T.index_select(support, 0, idx)
            pair.append(T.reshape(T.matmul(w, members), (support.data.shape[1],)))
            weight_row[idx] = w.data[0]
        prototypes.append((pair[0], pair[1]))
        used_weights.append(weight_row)
    return PrototypeSet(
        prototypes=prototypes,
        attention=np.array(raw_scores),
        weights=np.array(used_weights),
    )


def cosine_classify(prototypes: tuple[Tensor, Tensor], query: Tensor) -> Tensor:
    """Class probabilities [2]: softmax over the query's cosine similarity
    to each prototype.  All-zero vectors contribute similarity 0."""
    for name, vec in (("query", query), ("prototype", prototypes[0]),
                      ("prototype", prototypes[1])):
        if np.linalg.norm(vec.data) < ZERO_NORM_EPS:
            log.warning("cosine_classify: %s has zero norm, similarity set to 0", name)
    sims = [
        T.reshape(T.cosine_similarity(query, p), (1,)) for p in prototypes
    ]
    scores = T.concat(sims, axis=0)
    return T.reshape(T.softmax(T.reshape(scores, (1, 2)), axis=1), (2,))


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
    """Owns the attention parameters and runs a whole episode."""

    def __init__(
        self,
        store: ParameterStore,
        rng: np.random.Generator,
        feature_dim: int,
        qk_dim: int,
        uniform_attention: bool = False,
        alpha: float = DEFAULT_ALPHA,
        gamma: float = DEFAULT_GAMMA,
    ):
        self.attention = PrototypeAttention(
            store, rng, feature_dim, qk_dim, uniform=uniform_attention
        )
        self.alpha = alpha
        self.gamma = gamma

    def episode_probabilities(
        self,
        support: Tensor,
        support_labels: np.ndarray,
        queries: list[Tensor],
    ) -> tuple[list[Tensor], PrototypeSet]:
        blocks = [expand_concat(support, q) for q in queries]
        protos = dynamic_prototypes(blocks, support, support_labels, self.attention)
        probs = [
            cosine_classify(pair, q) for pair, q in zip(protos.prototypes, queries)
        ]
        return probs, protos

    def episode_loss(
        self,
        support: Tensor,
        support_labels: np.ndarray,
        queries: list[Tensor],
        query_labels: np.ndarray,
    ) -> tuple[Tensor, np.ndarray]:
        """Focal loss over one episode plus the detached per-query positive
        probabilities for metric bookkeeping."""
        probs, _ = self.episode_probabilities(support, support_labels, queries)
        picks = [
            T.index_select(p, 0, [int(label)]) for p, label in zip(probs, query_labels)
        ]
        correct = T.concat(picks, axis=0)
        loss = focal_loss(correct, self.alpha, self.gamma)
        positive = np.array([float(p.data[1]) for p in probs])
        return loss, positive
