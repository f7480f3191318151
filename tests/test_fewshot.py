import logging
import math

import numpy as np
import pytest

from dtikit.fewshot import (
    ALPHA,
    GAMMA,
    DomainError,
    EmptyClass,
    PrototypeHead,
    focal_loss,
)
from dtikit.optim import ParameterStore
from dtikit.rng import substream
from dtikit.tensor import ShapeMismatch, Tensor


def silu(x):
    return x / (1.0 + np.exp(-x))


def random_episode(rng, k=2, k_q=3, d=4):
    """A stack of one episode: support [1, 2k, d], queries [1, k_q, d] and
    query labels [1, k_q]."""
    support = Tensor(rng.normal(size=(1, 2 * k, d)), requires_grad=True)
    labels = np.array([1.0] * k + [0.0] * k)
    queries = Tensor(rng.normal(size=(1, k_q, d)), requires_grad=True)
    q_labels = rng.integers(0, 2, size=(1, k_q)).astype(float)
    return support, labels, queries, q_labels


def build_head(seed=0, d=4):
    store = ParameterStore()
    head = PrototypeHead(store, substream(seed, "init"), d, qk_dim=3)
    return store, head


def zero_parameters(store):
    """A head with every parameter zero scores each support 0, so its
    attention is uniform inside each class and its prototypes are the
    class means."""
    for path in store.paths():
        store[path].data[...] = 0.0


def stacked(*rows):
    """One episode's 2-D arrays as a stack of one."""
    return Tensor(np.array(rows, dtype=float)[None])


# -- the per-query block oracle ------------------------------------------------


def block_oracle(store, support, labels, queries):
    """The head as one (2k+1)-row block per query, in plain numpy: the
    query in row zero, the full squared-relu score matrix of the block, its
    row zero against the supports, a softmax inside each class, and the
    cosine of the query to each class prototype (0 at a zero norm)."""
    probs, weights = [], []
    for q in queries:
        block = np.vstack([q[None, :], support])
        z = silu(block @ store["proto/shared/w"].data)
        qm = z * store["proto/q_scale"].data + store["proto/q_shift"].data
        km = z * store["proto/k_scale"].data + store["proto/k_shift"].data
        scores = (np.maximum(qm @ km.T, 0.0) ** 2)[0, 1:]
        w_row = np.zeros(support.shape[0])
        sims = []
        for c in (0, 1):
            idx = np.flatnonzero(labels == c)
            e = np.exp(scores[idx] - scores[idx].max())
            w_row[idx] = e / e.sum()
            proto = w_row[idx] @ support[idx]
            nq, npr = np.linalg.norm(q), np.linalg.norm(proto)
            sims.append(0.0 if min(nq, npr) < 1e-12 else q @ proto / (nq * npr))
        e = np.exp(np.array(sims) - max(sims))
        probs.append(e / e.sum())
        weights.append(w_row)
    return np.array(probs), np.array(weights)


def spread_attention(store, rng):
    """Random attention parameters large enough that the learned weights
    are far from uniform."""
    for path in store.paths():
        store[path].data[...] = rng.normal(scale=2.0, size=store[path].data.shape)


def test_prototypes_match_straight_line_oracle():
    """The one-matrix head against the per-query block oracle: k from 1 to
    5, k_q from 1 to 10, spread and zero parameters, one zero query."""
    rng = np.random.default_rng(21)
    for zero in (False, True):
        for episode in range(60):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, 6))
            k_q = int(rng.integers(1, 11))
            store, head = build_head(seed=episode, d=d)
            spread_attention(store, rng)
            if zero:
                zero_parameters(store)
            support, labels, queries, _ = random_episode(rng, k=k, k_q=k_q, d=d)
            if episode == 0:
                queries.data[0, 0] = 0.0
            probs, weights = head.episode_probabilities(support, labels, queries)
            want_p, want_w = block_oracle(store, support.data[0], labels, queries.data[0])
            assert probs.data.shape == (1, k_q, 2)
            assert np.abs(probs.data[0] - want_p).max() <= 1e-12
            assert np.abs(weights[0] - want_w).max() <= 1e-12


# -- prototypes ----------------------------------------------------------------


def test_uniform_attention_gives_class_means():
    store, head = build_head()
    zero_parameters(store)
    rng = np.random.default_rng(0)
    support, labels, queries, _ = random_episode(rng, k=3, k_q=4)
    _, weights = head.episode_probabilities(support, labels, queries)
    assert weights.shape == (1, 4, 6)
    assert np.allclose(weights, 1.0 / 3.0, atol=1e-15)  # each prototype is its class mean


def test_one_shot_prototype_is_the_support_itself():
    _, head = build_head(seed=5)
    rng = np.random.default_rng(1)
    support, labels, queries, _ = random_episode(rng, k=1, k_q=2)
    probs, weights = head.episode_probabilities(support, labels, queries)
    assert np.array_equal(weights, np.ones((1, 2, 2)))
    for q, p in zip(queries.data[0], probs.data[0]):
        sims = [
            s @ q / (np.linalg.norm(s) * np.linalg.norm(q))
            for s in support.data[0, ::-1]  # class 0 first
        ]
        want = np.exp(sims) / np.exp(sims).sum()
        assert np.allclose(p, want, atol=1e-12)


def test_weights_sum_to_one_per_class():
    store, head = build_head(seed=9)
    rng = np.random.default_rng(3)
    spread_attention(store, rng)
    for _ in range(20):
        support, labels, queries, _ = random_episode(rng, k=3, k_q=2)
        _, weights = head.episode_probabilities(support, labels, queries)
        for row in weights[0]:
            assert abs(row[labels == 0].sum() - 1.0) < 1e-9
            assert abs(row[labels == 1].sum() - 1.0) < 1e-9


def test_empty_class_raises():
    _, head = build_head()
    support = Tensor(np.zeros((1, 4, 4)))
    with pytest.raises(EmptyClass):
        head.episode_probabilities(support, np.ones(4), Tensor(np.ones((1, 1, 4))))


def test_shape_checks():
    """A 2-D episode, a query of the wrong width or rank, a label per
    support missing, and query labels that do not match the queries."""
    _, head = build_head()
    support = Tensor(np.ones((1, 2, 4)))
    labels = np.array([1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        head.episode_probabilities(support, labels, Tensor(np.ones((1, 1, 3))))
    with pytest.raises(ShapeMismatch):
        head.episode_probabilities(support, labels, Tensor(np.ones((1, 4))))
    with pytest.raises(ShapeMismatch):
        head.episode_probabilities(Tensor(np.ones((2, 4))), labels, Tensor(np.ones((1, 4))))
    with pytest.raises(ShapeMismatch):
        head.episode_probabilities(
            support, np.array([1.0, 0.0, 0.0]), Tensor(np.ones((1, 1, 4)))
        )
    queries = Tensor(np.ones((1, 2, 4)))
    for q_labels in (np.ones(2), np.ones((1, 3)), np.ones((2, 1))):
        with pytest.raises(ShapeMismatch):
            head.episode_loss(support, labels, queries, q_labels)


# -- cosine classification ------------------------------------------------------


def test_cosine_classify_orthogonal_case():
    _, head = build_head(seed=3, d=2)
    support = stacked([0.0, 3.0], [1.0, 0.0])
    probs, _ = head.episode_probabilities(support, np.array([1.0, 0.0]), stacked([0.0, 5.0]))
    want = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
    assert np.allclose(probs.data[0, 0], want, atol=1e-12)
    assert probs.data[0, 0].argmax() == 1


def test_cosine_classify_scale_invariance():
    store, head = build_head()
    zero_parameters(store)
    rng = np.random.default_rng(5)
    support, labels, queries, _ = random_episode(rng, k=3, k_q=2)
    a, _ = head.episode_probabilities(support, labels, queries)
    b, _ = head.episode_probabilities(support, labels, queries * 5.0)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_cosine_classify_equal_prototypes_split_evenly():
    _, head = build_head(seed=2, d=2)
    support = stacked([1.0, 2.0], [1.0, 2.0])
    probs, _ = head.episode_probabilities(support, np.array([1.0, 0.0]), stacked([3.0, -1.0]))
    assert np.allclose(probs.data[0, 0], [0.5, 0.5], atol=1e-12)


def test_cosine_classify_zero_vector_warns(caplog):
    _, head = build_head(d=3)
    support = stacked([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="dtikit.fewshot"):
        probs, _ = head.episode_probabilities(
            support, np.array([1.0, 0.0]), Tensor(np.ones((1, 1, 3)))
        )
    assert "zero-norm" in caplog.text
    want = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
    assert np.allclose(probs.data[0, 0], want, atol=1e-12)


# -- focal loss --------------------------------------------------------------------


def test_focal_loss_perfect_predictions_cost_nothing():
    loss = focal_loss(Tensor(np.ones(5)))
    assert float(loss.data) == 0.0


def test_focal_loss_reduces_to_cross_entropy():
    """Each probability's cross-entropy, weighted by ALPHA (1 - p)**GAMMA."""
    rng = np.random.default_rng(6)
    p = rng.uniform(0.05, 0.99, size=12)
    loss = focal_loss(Tensor(p))
    want = np.sum(ALPHA * (1.0 - p) ** GAMMA * -np.log(p))
    assert abs(float(loss.data) - want) < 1e-12


def test_focal_loss_half_probability_value():
    loss = focal_loss(Tensor(np.array([0.5, 0.5])))
    assert (ALPHA, GAMMA) == (0.25, 2)
    assert abs(float(loss.data) - 2 * 0.25 * 0.25 * math.log(2)) < 1e-12


def test_focal_loss_domain_checks():
    for p in ([0.5, 0.0], [-0.5], [0.0]):
        with pytest.raises(DomainError):
            focal_loss(Tensor(np.array(p)))


# -- whole episode ------------------------------------------------------------------


def test_episode_loss_gradcheck_tiny_instance():
    store, head = build_head(seed=13)
    rng = np.random.default_rng(7)
    support = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
    labels = np.array([1.0, 0.0])
    query = Tensor(rng.normal(size=(1, 1, 4)), requires_grad=True)
    q_labels = np.array([[1.0]])

    def loss_value():
        loss, _ = head.episode_loss(support, labels, query, q_labels)
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


def assert_directional_gradients(loss_value, leaves, rng):
    """Central differences of `loss_value` along one random direction per
    leaf against the gradients a backward pass left on the leaves."""
    h = 1e-6
    for name, leaf in leaves.items():
        direction = rng.normal(size=leaf.data.shape)
        base = leaf.data.copy()
        leaf.data[...] = base + h * direction
        up = loss_value()
        leaf.data[...] = base - h * direction
        down = loss_value()
        leaf.data[...] = base
        numeric = (up - down) / (2 * h)
        analytic = float(np.sum(leaf.grad * direction))
        assert abs(numeric - analytic) <= 1e-4 * max(abs(numeric), abs(analytic)) + 1e-10, name


def test_episode_loss_gradients_with_several_shots_and_queries():
    """Directional finite differences on every leaf and attention
    parameter of a 3-shot, 4-query episode."""
    store, head = build_head(seed=19)
    rng = np.random.default_rng(11)
    support, labels, queries, q_labels = random_episode(rng, k=3, k_q=4)
    leaves = {"support": support, "queries": queries}
    leaves.update({path: store[path] for path in store.paths()})

    def loss_value():
        return float(head.episode_loss(support, labels, queries, q_labels)[0].data)

    loss, _ = head.episode_loss(support, labels, queries, q_labels)
    loss.backward()
    assert_directional_gradients(loss_value, leaves, rng)


# -- stacks of episodes ------------------------------------------------------------


def test_stack_matches_single_episode_calls():
    """E episodes scored as one stack against E stacks of one: E from 1 to
    12, k from 1 to 5, spread and zero parameters, shuffled and ordered
    labels, one zero query.  Only the projections run over more rows, and
    they differ from the single calls in the last bit at most where a
    one-query episode's product is a matrix-vector one."""
    rng = np.random.default_rng(31)
    for zero in (False, True):
        for trial in range(30):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, 6))
            k_q = int(rng.integers(1, 11))
            e = int(rng.integers(1, 13))
            store, head = build_head(seed=trial, d=d)
            spread_attention(store, rng)
            if zero:
                zero_parameters(store)
            labels = np.array([1.0] * k + [0.0] * k)
            if trial % 2:
                labels = rng.permutation(labels)
            support = rng.normal(size=(e, 2 * k, d))
            queries = rng.normal(size=(e, k_q, d))
            if trial == 0:
                queries[-1, 0] = 0.0
            probs, weights = head.episode_probabilities(Tensor(support), labels, Tensor(queries))
            assert probs.data.shape == (e, k_q, 2)
            assert weights.shape == (e, k_q, 2 * k)
            for i in range(e):
                p, w = head.episode_probabilities(
                    Tensor(support[i : i + 1]), labels, Tensor(queries[i : i + 1])
                )
                assert np.abs(probs.data[i] - p.data[0]).max() <= 1e-13
                assert np.abs(weights[i] - w[0]).max() <= 1e-13


def test_stack_gradients_with_two_episodes():
    """Directional finite differences on every leaf and attention
    parameter of a stack of two 3-shot, 4-query episodes."""
    store, head = build_head(seed=23)
    rng = np.random.default_rng(12)
    support = Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True)
    labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    queries = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    q_labels = rng.integers(0, 2, size=(2, 4)).astype(float)
    leaves = {"support": support, "queries": queries}
    leaves.update({path: store[path] for path in store.paths()})

    def loss_value():
        return float(head.episode_loss(support, labels, queries, q_labels)[0].data)

    head.episode_loss(support, labels, queries, q_labels)[0].backward()
    assert_directional_gradients(loss_value, leaves, rng)


def test_stack_shape_checks():
    _, head = build_head()
    labels = np.array([1.0, 0.0])
    support = Tensor(np.ones((3, 2, 4)))
    for queries in (np.ones((2, 1, 4)), np.ones((3, 1, 3)), np.ones((3, 0, 4)), np.ones((1, 4)),
                    np.ones((3, 1, 1, 4))):
        with pytest.raises(ShapeMismatch):
            head.episode_probabilities(support, labels, Tensor(queries))
    with pytest.raises(ShapeMismatch):
        head.episode_probabilities(Tensor(np.ones((0, 2, 4))), labels, Tensor(np.ones((0, 1, 4))))
    with pytest.raises(ShapeMismatch):
        head.episode_probabilities(
            Tensor(np.ones((1, 3, 2, 4))), labels, Tensor(np.ones((1, 3, 1, 4)))
        )
    with pytest.raises(EmptyClass):
        head.episode_probabilities(support, np.ones(2), Tensor(np.ones((3, 1, 4))))


def test_stack_logs_one_zero_norm_warning_with_totals(caplog):
    _, head = build_head(d=3)
    support = Tensor(np.tile([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], (4, 1, 1)))
    with caplog.at_level(logging.WARNING, logger="dtikit.fewshot"):
        head.episode_probabilities(support, np.array([1.0, 0.0]), Tensor(np.ones((4, 2, 3))))
    assert len(caplog.records) == 1
    assert "8 of 8 queries in 4 episodes meet a zero-norm" in caplog.text


def test_uniform_head_matches_class_mean_reference():
    store, head = build_head()
    zero_parameters(store)
    rng = np.random.default_rng(9)
    agree = 0
    for _ in range(100):
        support, labels, queries, _ = random_episode(rng, k=2, k_q=1)
        probs, _ = head.episode_probabilities(support, labels, queries)
        q = queries.data[0, 0]
        means = [support.data[0, labels == c].mean(axis=0) for c in (0, 1)]
        sims = [
            m @ q / (np.linalg.norm(m) * np.linalg.norm(q)) for m in means
        ]
        want = np.exp(sims) / np.exp(sims).sum()
        assert np.allclose(probs.data[0, 0], want, atol=1e-9)
        agree += probs.data[0, 0].argmax() == int(np.argmax(sims))
    assert agree == 100


def test_episode_loss_reports_positive_probabilities():
    store, head = build_head(seed=17)
    rng = np.random.default_rng(10)
    support, labels, queries, q_labels = random_episode(rng, k=2, k_q=4)
    loss, positive = head.episode_loss(support, labels, queries, q_labels)
    assert positive.shape == (1, 4)
    assert np.all((positive > 0) & (positive < 1))
    probs, _ = head.episode_probabilities(support, labels, queries)
    assert np.array_equal(positive, probs.data[..., 1])
    correct = probs.data[0, np.arange(4), q_labels[0].astype(int)]
    want = focal_loss(Tensor(correct))
    assert float(loss.data) == float(want.data) > 0
