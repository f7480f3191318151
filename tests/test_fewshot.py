import logging
import math

import numpy as np
import pytest

from dtikit import tensor as T
from dtikit.fewshot import (
    DomainError,
    EmptyClass,
    PrototypeAttention,
    PrototypeHead,
    cosine_classify,
    dynamic_prototypes,
    expand_concat,
    focal_loss,
)
from dtikit.optim import ParameterStore
from dtikit.rng import substream
from dtikit.tensor import ShapeMismatch, Tensor


def silu(x):
    return x / (1.0 + np.exp(-x))


def make_attention(seed=0, d=4, s=3, uniform=False):
    store = ParameterStore()
    attn = PrototypeAttention(store, substream(seed, "init"), d, s, uniform=uniform)
    return store, attn


def random_episode(rng, k=2, k_q=3, d=4):
    support = Tensor(rng.normal(size=(2 * k, d)), requires_grad=True)
    labels = np.array([1.0] * k + [0.0] * k)
    queries = [Tensor(rng.normal(size=d), requires_grad=True) for _ in range(k_q)]
    q_labels = rng.integers(0, 2, size=k_q).astype(float)
    return support, labels, queries, q_labels


# -- expand_concat ----------------------------------------------------------


def test_expand_concat_block_layout():
    support = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    query = Tensor(np.array([2.0, 2.0]))
    block = expand_concat(support, query)
    assert np.array_equal(block.data, [[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]])


def test_expand_concat_shape_check():
    with pytest.raises(ShapeMismatch):
        expand_concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


# -- dynamic prototypes --------------------------------------------------------


def test_uniform_attention_gives_class_means():
    store, attn = make_attention(uniform=True)
    assert store.paths() == []  # uniform mode registers nothing
    rng = np.random.default_rng(0)
    support, labels, queries, _ = random_episode(rng)
    blocks = [expand_concat(support, q) for q in queries]
    protos = dynamic_prototypes(blocks, support, labels, attn)
    mean0 = support.data[labels == 0].mean(axis=0)
    mean1 = support.data[labels == 1].mean(axis=0)
    for p0, p1 in protos.prototypes:
        assert np.allclose(p0.data, mean0, atol=1e-12)
        assert np.allclose(p1.data, mean1, atol=1e-12)


def test_one_shot_prototype_is_the_support_itself():
    store, attn = make_attention(seed=5)
    rng = np.random.default_rng(1)
    support, labels, queries, _ = random_episode(rng, k=1, k_q=2)
    blocks = [expand_concat(support, q) for q in queries]
    protos = dynamic_prototypes(blocks, support, labels, attn)
    for p0, p1 in protos.prototypes:
        assert np.allclose(p0.data, support.data[labels == 0][0], atol=1e-12)
        assert np.allclose(p1.data, support.data[labels == 1][0], atol=1e-12)


def test_prototypes_match_straight_line_oracle():
    """Index-by-index numpy rewrite of the attention and prototype formulas."""
    store, attn = make_attention(seed=7, d=5, s=4)
    rng = np.random.default_rng(2)
    support, labels, queries, _ = random_episode(rng, k=2, k_q=2, d=5)
    blocks = [expand_concat(support, q) for q in queries]
    protos = dynamic_prototypes(blocks, support, labels, attn)

    w = store["proto/shared/w"].data
    g1, b1 = store["proto/q_scale"].data, store["proto/q_shift"].data
    g2, b2 = store["proto/k_scale"].data, store["proto/k_shift"].data
    for j, q in enumerate(queries):
        block = np.vstack([q.data[None, :], support.data])
        z = silu(block @ w)
        qm = z * g1 + b1
        km = z * g2 + b2
        a = np.maximum(qm @ km.T, 0.0) ** 2
        scores = a[0, 1:]
        assert np.allclose(scores, protos.attention[j], atol=1e-9)
        for c in (0, 1):
            idx = np.flatnonzero(labels == c)
            e = np.exp(scores[idx] - scores[idx].max())
            sm = e / e.sum()
            want = (sm[:, None] * support.data[idx]).sum(axis=0)
            assert np.allclose(want, protos.prototypes[j][c].data, atol=1e-9)


def test_weights_sum_to_one_per_class():
    store, attn = make_attention(seed=9)
    rng = np.random.default_rng(3)
    for _ in range(20):
        support, labels, queries, _ = random_episode(rng, k=3, k_q=2)
        blocks = [expand_concat(support, q) for q in queries]
        protos = dynamic_prototypes(blocks, support, labels, attn)
        for row in protos.weights:
            assert abs(row[labels == 0].sum() - 1.0) < 1e-9
            assert abs(row[labels == 1].sum() - 1.0) < 1e-9


def test_empty_class_raises():
    store, attn = make_attention()
    support = Tensor(np.zeros((4, 4)))
    labels = np.ones(4)
    with pytest.raises(EmptyClass):
        dynamic_prototypes([expand_concat(support, Tensor(np.ones(4)))],
                           support, labels, attn)


# -- cosine classification ------------------------------------------------------


def test_cosine_classify_orthogonal_case():
    p0 = Tensor(np.array([1.0, 0.0]))
    p1 = Tensor(np.array([0.0, 3.0]))
    query = Tensor(np.array([0.0, 5.0]))
    probs = cosine_classify((p0, p1), query)
    want = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
    assert np.allclose(probs.data, want, atol=1e-12)
    assert probs.data.argmax() == 1


def test_cosine_classify_scale_invariance():
    rng = np.random.default_rng(5)
    p0, p1 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    q = rng.normal(size=4)
    a = cosine_classify((p0, p1), Tensor(q))
    b = cosine_classify((p0, p1), Tensor(5.0 * q))
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_cosine_classify_equal_prototypes_split_evenly():
    p = Tensor(np.array([1.0, 2.0]))
    probs = cosine_classify((p, p), Tensor(np.array([3.0, -1.0])))
    assert np.allclose(probs.data, [0.5, 0.5], atol=1e-12)


def test_cosine_classify_zero_vector_warns(caplog):
    p0 = Tensor(np.zeros(3))
    p1 = Tensor(np.ones(3))
    with caplog.at_level(logging.WARNING, logger="dtikit.fewshot"):
        probs = cosine_classify((p0, p1), Tensor(np.ones(3)))
    assert "zero norm" in caplog.text
    want = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
    assert np.allclose(probs.data, want, atol=1e-12)


# -- focal loss --------------------------------------------------------------------


def test_focal_loss_perfect_predictions_cost_nothing():
    loss = focal_loss(Tensor(np.ones(5)), alpha=0.25, gamma=2.0)
    assert float(loss.data) == 0.0


def test_focal_loss_reduces_to_cross_entropy():
    rng = np.random.default_rng(6)
    p = rng.uniform(0.05, 0.99, size=12)
    loss = focal_loss(Tensor(p), alpha=1.0, gamma=0.0)
    assert abs(float(loss.data) - (-np.log(p).sum())) < 1e-12


def test_focal_loss_half_probability_value():
    loss = focal_loss(Tensor(np.array([0.5, 0.5])), alpha=1.0, gamma=2.0)
    assert abs(float(loss.data) - 2 * 0.25 * math.log(2)) < 1e-12


def test_focal_loss_domain_checks():
    with pytest.raises(DomainError):
        focal_loss(Tensor(np.array([0.5, 0.0])))
    with pytest.raises(DomainError):
        focal_loss(Tensor(np.array([0.5])), alpha=-1.0)
    with pytest.raises(DomainError):
        focal_loss(Tensor(np.array([0.5])), gamma=-0.1)


# -- whole episode ------------------------------------------------------------------


def build_head(seed=0, d=4, uniform=False, **kw):
    store = ParameterStore()
    head = PrototypeHead(
        store, substream(seed, "init"), d, qk_dim=3, uniform_attention=uniform, **kw
    )
    return store, head


def test_episode_loss_gradcheck_tiny_instance():
    store, head = build_head(seed=13)
    rng = np.random.default_rng(7)
    support = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    labels = np.array([1.0, 0.0])
    query = Tensor(rng.normal(size=4), requires_grad=True)
    q_labels = np.array([1.0])

    def loss_value():
        loss, _ = head.episode_loss(support, labels, [query], q_labels)
        return loss

    loss = loss_value()
    loss.backward()
    leaf_grads = {"support": support.grad.copy(), "query": query.grad.copy()}
    param_grads = {p: store[p].grad.copy() for p in store.paths()}

    h = 1e-6
    rng_d = np.random.default_rng(8)
    for name, leaf in (("support", support), ("query", query)):
        direction = rng_d.normal(size=leaf.data.shape)
        base = leaf.data.copy()
        leaf.data[...] = base + h * direction
        up = float(loss_value().data)
        leaf.data[...] = base - h * direction
        down = float(loss_value().data)
        leaf.data[...] = base
        numeric = (up - down) / (2 * h)
        analytic = float(np.sum(leaf_grads[name] * direction))
        tol = 1e-4 * max(abs(numeric), abs(analytic)) + 1e-10
        assert abs(numeric - analytic) <= tol, name
    for path, grad in param_grads.items():
        p = store[path]
        direction = rng_d.normal(size=p.data.shape)
        base = p.data.copy()
        p.data[...] = base + h * direction
        up = float(loss_value().data)
        p.data[...] = base - h * direction
        down = float(loss_value().data)
        p.data[...] = base
        numeric = (up - down) / (2 * h)
        analytic = float(np.sum(grad * direction))
        tol = 1e-4 * max(abs(numeric), abs(analytic)) + 1e-10
        assert abs(numeric - analytic) <= tol, path


def test_uniform_head_matches_class_mean_reference():
    _, head = build_head(uniform=True)
    rng = np.random.default_rng(9)
    agree = 0
    for _ in range(100):
        support, labels, queries, _ = random_episode(rng, k=2, k_q=1)
        probs, _ = head.episode_probabilities(support, labels, queries)
        q = queries[0].data
        means = [support.data[labels == c].mean(axis=0) for c in (0, 1)]
        sims = [
            m @ q / (np.linalg.norm(m) * np.linalg.norm(q)) for m in means
        ]
        want = np.exp(sims) / np.exp(sims).sum()
        assert np.allclose(probs[0].data, want, atol=1e-9)
        agree += probs[0].data.argmax() == int(np.argmax(sims))
    assert agree == 100


def test_episode_loss_reports_positive_probabilities():
    store, head = build_head(seed=17)
    rng = np.random.default_rng(10)
    support, labels, queries, q_labels = random_episode(rng, k=2, k_q=4)
    loss, positive = head.episode_loss(support, labels, queries, q_labels)
    assert positive.shape == (4,)
    assert np.all((positive > 0) & (positive < 1))
    assert float(loss.data) > 0
