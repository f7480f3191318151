"""Category-aware domain-adversarial objective.

The encoder's fused pair representation is pushed through a gradient
reversal, scaled per class by the classifier's own (detached) probability,
and judged by one small domain discriminator per class.  Minimising the
combined loss therefore trains the discriminators to tell source from
target while the reversed gradient steers the encoder toward features the
discriminators cannot separate, class by class.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .optim import ParameterStore, kaiming_uniform
from .tensor import Tensor, sigmoid_values

SOURCE_DOMAIN = 0.0
TARGET_DOMAIN = 1.0


class EmptyDomainBatch(ValueError):
    pass


class DomainAdversary:
    """One two-layer discriminator per interaction class.

    Construct this only when the adversarial weight is positive; its
    parameters then join the store and the optimiser sees them.  A run with
    the adversary disabled is bit-identical to plain supervised training.
    """

    def __init__(
        self,
        store: ParameterStore,
        rng: np.random.Generator,
        feature_dim: int,
        n_classes: int = 2,
        hidden: int = 256,
    ):
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        self.heads = []
        for k in range(n_classes):
            prefix = f"adversary/class{k}"
            self.heads.append(
                {
                    "w1": store.parameter(
                        f"{prefix}/hidden/w",
                        kaiming_uniform(rng, (feature_dim, hidden), feature_dim),
                    ),
                    "b1": store.parameter(f"{prefix}/hidden/b", np.zeros(hidden)),
                    "w2": store.parameter(
                        f"{prefix}/out/w", kaiming_uniform(rng, (hidden, 1), hidden)
                    ),
                    "b2": store.parameter(f"{prefix}/out/b", np.zeros(1)),
                }
            )

    def discriminate(self, k: int, x: Tensor) -> Tensor:
        """Domain logits [N] for class head k on features x[N, dim]."""
        h = self.heads[k]
        z = T.relu(T.add_bias(T.matmul(x, h["w1"]), h["b1"]))
        return T.reshape(T.add_bias(T.matmul(z, h["w2"]), h["b2"]), (x.data.shape[0],))

    def domain_loss(
        self,
        source_features: list[Tensor],
        target_features: list[Tensor],
        source_probs: np.ndarray,
        target_probs: np.ndarray,
        grl_scale: float = 1.0,
    ) -> Tensor:
        """Per-class BCE of the discriminators against the domain labels,
        averaged over records and summed over classes.

        `source_probs` / `target_probs` are detached class probabilities,
        one row per record; each class head sees the reversed feature scaled
        by its own class's probability, so confident members of a class
        dominate that class's alignment signal.
        """
        if not source_features or not target_features:
            raise EmptyDomainBatch("need at least one record from each domain")
        feats = list(source_features) + list(target_features)
        probs = np.vstack([np.asarray(source_probs), np.asarray(target_probs)])
        if probs.shape != (len(feats), self.n_classes):
            raise T.ShapeMismatch(
                f"probs {probs.shape} for {len(feats)} records, "
                f"{self.n_classes} classes"
            )
        domains = np.concatenate(
            [
                np.full(len(source_features), SOURCE_DOMAIN),
                np.full(len(target_features), TARGET_DOMAIN),
            ]
        )
        rows = [
            T.reshape(T.grad_reverse(f, grl_scale), (1, self.feature_dim))
            for f in feats
        ]
        x = T.concat(rows, axis=0)
        loss = None
        for k in range(self.n_classes):
            scale = Tensor(
                np.repeat(probs[:, k : k + 1], self.feature_dim, axis=1),
                requires_grad=False,
            )
            logits = self.discriminate(k, x * scale)
            term = T.tmean(T.bce_with_logits(logits, domains))
            loss = term if loss is None else loss + term
        return loss


def cada_total_loss(supervised: Tensor, domain: Tensor, lam_adv: float) -> Tensor:
    """Eq.-style combination: supervised loss plus lam_adv times the domain
    loss.  The reversal inside the domain term turns the single backward
    pass into the min-max update.  Finiteness is the caller's check, on the
    combined loss."""
    return supervised + domain * lam_adv


def lambda_schedule(
    step: int, total_steps: int, lam_max: float = 1.0, warmup_fraction: float = 0.1
) -> float:
    """Linear warm-up of the adversarial weight over the first
    `warmup_fraction` of training, then constant at lam_max.  Starts one
    increment above zero so the adversary trains from the first step."""
    warmup = max(1, math.ceil(warmup_fraction * total_steps))
    return lam_max * min(1.0, (step + 1) / warmup)


def class_probabilities(logit: float) -> np.ndarray:
    """Detached (no-interaction, interaction) probability row from one
    classifier logit."""
    p = float(sigmoid_values(np.asarray(logit)))
    return np.array([1.0 - p, p])
