"""Category-aware domain-adversarial objective.

The encoder's fused pair representation is pushed through a gradient
reversal that negates without a scale (Ganin & Lempitsky, 2015), weighted
per class by the classifier's own (detached) probability, and judged by one
small domain discriminator per class.  Minimising the supervised loss plus lambda times
the domain loss therefore trains the discriminators to tell source from
target while the reversed gradient steers the encoder toward features the
discriminators cannot separate, class by class.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .encoder import _Scorer
from .optim import ParameterStore
from .tensor import Tensor, sigmoid_values

SOURCE_DOMAIN = 0.0
TARGET_DOMAIN = 1.0
HIDDEN = 256  # width of each critic's hidden layer
WARMUP_FRACTION = 0.1  # share of the steps over which lambda_schedule ramps up


class EmptyDomainBatch(ValueError):
    pass


class DomainAdversary:
    """One two-layer discriminator per interaction class, one for each
    column of `class_probabilities`.

    Construct this only when the adversarial weight is positive; its
    parameters then join the store and the optimiser sees them.  A run with
    the adversary disabled is bit-identical to plain supervised training.
    """

    def __init__(self, store: ParameterStore, rng: np.random.Generator, feature_dim: int):
        self.heads = [
            _Scorer(store, f"adversary/class{k}", feature_dim, HIDDEN, rng) for k in range(2)
        ]

    def domain_loss(
        self,
        source: Tensor,
        target: Tensor,
        source_probs: np.ndarray,
        target_probs: np.ndarray,
    ) -> Tensor:
        """Per-class BCE of the discriminators against the domain labels,
        averaged over records and summed over classes.

        `source` and `target` are fused matrices [N, dim]; their stack goes
        through one gradient reversal.  `source_probs` / `target_probs` are
        detached class probabilities, one row per record; each class head
        sees the reversed features scaled row by row by its own class's
        probability, so confident members of a class dominate that class's
        alignment signal.
        """
        n_src, n_tgt = source.data.shape[0], target.data.shape[0]
        if not n_src or not n_tgt:
            raise EmptyDomainBatch("need at least one record from each domain")
        probs = np.vstack([source_probs, target_probs], dtype=source.data.dtype)
        if probs.shape != (n_src + n_tgt, len(self.heads)):
            raise T.ShapeMismatch(
                f"probs {probs.shape} for {n_src + n_tgt} records, "
                f"{len(self.heads)} classes"
            )
        domains = np.concatenate(
            [np.full(n_src, SOURCE_DOMAIN), np.full(n_tgt, TARGET_DOMAIN)]
        )
        x = T.grad_reverse(T.concat([source, target], axis=0))
        loss = None
        for k, head in enumerate(self.heads):
            logits = head(x * T.expand(Tensor(probs[:, k]), 1, x.data.shape[1]))
            term = T.tmean(T.bce_with_logits(logits, domains))
            loss = term if loss is None else loss + term
        return loss


def lambda_schedule(step: int, total_steps: int, lam_max: float = 1.0) -> float:
    """Linear warm-up of the adversarial weight over the first
    WARMUP_FRACTION of training, then constant at lam_max.  Starts one
    increment above zero so the adversary trains from the first step."""
    warmup = max(1, math.ceil(WARMUP_FRACTION * total_steps))
    return lam_max * min(1.0, (step + 1) / warmup)


def class_probabilities(logits: np.ndarray) -> np.ndarray:
    """Detached (no-interaction, interaction) probability rows [N, 2] from a
    vector of classifier logits, in their dtype."""
    p = sigmoid_values(logits)
    return np.stack([1.0 - p, p], axis=1)
