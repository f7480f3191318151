import math

import numpy as np
import pytest

from dtikit import tensor as T
from dtikit.adversarial import (
    DomainAdversary,
    EmptyDomainBatch,
    class_probabilities,
    lambda_schedule,
)
from dtikit.optim import ParameterStore
from dtikit.rng import substream
from dtikit.tensor import Tensor

DIM = 6


def build(seed=0):
    store = ParameterStore()
    adv = DomainAdversary(store, substream(seed, "init"), DIM)
    return store, adv


def features(rng, n):
    return Tensor(rng.normal(size=(n, DIM)), requires_grad=True)


def half_probs(n):
    return np.full((n, 2), 0.5)


def test_indifferent_discriminators_score_two_ln2():
    store, adv = build()
    for path in store.paths():
        store[path].data[...] = 0.0
    rng = np.random.default_rng(0)
    loss = adv.domain_loss(features(rng, 3), features(rng, 2), half_probs(3), half_probs(2))
    assert abs(float(loss.data) - 2 * math.log(2)) < 1e-12


def test_one_hot_probability_silences_the_other_head():
    store, adv = build(seed=2)
    rng = np.random.default_rng(1)
    src = features(rng, 2)
    tgt = features(rng, 2)
    one_hot = np.tile([1.0, 0.0], (2, 1))
    loss = adv.domain_loss(src, tgt, one_hot, one_hot)
    loss.backward()

    # same records through the class-0 head alone: the class-1 head saw only
    # zero vectors, so it cannot have contributed any feature gradient
    src2 = Tensor(src.data.copy(), requires_grad=True)
    tgt2 = Tensor(tgt.data.copy(), requires_grad=True)
    x = T.grad_reverse(T.concat([src2, tgt2], axis=0))
    logits = adv.heads[0](x)
    head0 = T.tmean(T.bce_with_logits(logits, np.array([0.0, 0.0, 1.0, 1.0])))
    head0.backward()
    assert np.allclose(src2.grad, src.grad, atol=1e-12)
    assert np.allclose(tgt2.grad, tgt.grad, atol=1e-12)


def test_reversal_flips_and_scales_feature_gradient():
    """The feature gradient is the negated one of a straight-line version
    without the reversal that scales each head's input by its class
    probability."""
    store, adv = build(seed=3)
    rng = np.random.default_rng(2)
    base = rng.normal(size=(2, DIM))
    probs = np.array([[0.3, 0.7], [0.8, 0.2]])
    domains = np.array([0.0, 1.0])

    def run(reversed_):
        src = Tensor(base[:1].copy(), requires_grad=True)
        tgt = Tensor(base[1:].copy(), requires_grad=True)
        if reversed_:
            loss = adv.domain_loss(src, tgt, probs[:1], probs[1:])
        else:
            # straight-line reimplementation without the reversal
            x = T.concat([src, tgt], axis=0)
            loss = None
            for k in range(2):
                scale = Tensor(np.repeat(probs[:, k : k + 1], DIM, axis=1))
                term = T.tmean(T.bce_with_logits(adv.heads[k](x * scale), domains))
                loss = term if loss is None else loss + term
        loss.backward()
        return np.vstack([src.grad, tgt.grad]), float(loss.data)

    plain_g, plain_loss = run(False)
    rev_g, rev_loss = run(True)
    assert abs(plain_loss - rev_loss) < 1e-12  # reversal is identity forward
    assert np.allclose(rev_g, -plain_g, atol=1e-12)


def test_minmax_directions_on_a_frozen_toy():
    store, adv = build(seed=4)
    rng = np.random.default_rng(3)
    src = features(rng, 4)
    tgt = features(rng, 4)
    probs = half_probs(4)

    def loss_at(feats_s, feats_t):
        with T.no_grad():
            return float(adv.domain_loss(Tensor(feats_s), Tensor(feats_t), probs, probs).data)

    before = loss_at(src.data, tgt.data)
    loss = adv.domain_loss(src, tgt, probs, probs)
    loss.backward()

    lr = 1e-2
    # descending the discriminator gradient improves discrimination
    saved = {p: store[p].data.copy() for p in store.paths()}
    for p in store.paths():
        store[p].data[...] -= lr * store[p].grad
    assert loss_at(src.data, tgt.data) < before
    for p in store.paths():
        store[p].data[...] = saved[p]

    # descending the (reversed) feature gradient makes the domains harder
    # to tell apart for the frozen discriminators
    assert loss_at(src.data - lr * src.grad, tgt.data - lr * tgt.grad) > before


def test_empty_domain_batch_raises():
    store, adv = build()
    rng = np.random.default_rng(0)
    with pytest.raises(EmptyDomainBatch):
        adv.domain_loss(features(rng, 0), features(rng, 1), np.zeros((0, 2)), half_probs(1))
    with pytest.raises(EmptyDomainBatch):
        adv.domain_loss(features(rng, 1), features(rng, 0), half_probs(1), np.zeros((0, 2)))


def test_probability_shape_is_checked():
    store, adv = build()
    rng = np.random.default_rng(0)
    with pytest.raises(T.ShapeMismatch):
        adv.domain_loss(features(rng, 2), features(rng, 1), half_probs(2), half_probs(2))


def test_lambda_warmup_schedule():
    total = 100
    values = [lambda_schedule(s, total, lam_max=1.0) for s in range(total)]
    assert values[0] == pytest.approx(0.1)
    assert values[0] > 0.0
    assert values[9] == pytest.approx(1.0)
    assert all(v == 1.0 for v in values[10:])
    assert values[:10] == sorted(values[:10])
    assert lambda_schedule(0, 1) == 1.0


def test_class_heads_are_parameter_disjoint():
    store, _ = build()
    class0 = {p for p in store.paths() if p.startswith("adversary/class0/")}
    class1 = {p for p in store.paths() if p.startswith("adversary/class1/")}
    assert class0 and class1 and not (class0 & class1)
    assert class0 | class1 == set(store.paths())


def test_class_probabilities_row():
    rows = class_probabilities(np.array([0.0, 3.0, -800.0]))
    assert rows.shape == (3, 2)
    assert np.allclose(rows[0], [0.5, 0.5])
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12) and rows[1, 1] > 0.9
    assert rows[2, 1] == 0.0
