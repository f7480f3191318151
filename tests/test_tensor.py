import numpy as np
import pytest

from dtikit import tensor as T
from gradcheck import op_cases, run_case


def test_every_primitive_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(3):
        for name, case in op_cases(rng).items():
            run_case(name, case)


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(T.NonScalarLoss):
        T.mul(x, 2.0).backward()


def test_elementwise_shapes_are_strict():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((3, 2)))
    with pytest.raises(T.ShapeMismatch):
        T.add(a, b)
    with pytest.raises(T.ShapeMismatch):
        T.mul(T.Tensor(np.ones(3)), T.Tensor(np.ones((2, 3))))
    with pytest.raises(T.ShapeMismatch):
        T.matmul(a, T.Tensor(np.ones((2, 2))))


def test_scalar_mixing_is_allowed():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = T.tsum(T.mul(x, 0.5))
    y.backward()
    assert np.allclose(x.grad, 0.5)


def test_no_grad_suppresses_graph():
    x = T.Tensor(np.ones(4), requires_grad=True)
    with T.no_grad():
        y = T.relu(T.mul(x, 3.0))
    assert not y.requires_grad and y._backward is None


def test_grad_accumulates_across_uses():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(T.mul(x, x), T.mul(x, 3.0))  # x^2 + 3x
    T.tsum(y).backward()
    assert np.allclose(x.grad, 2 * 2.0 + 3.0)


def test_grad_reverse_forward_is_identity():
    x = T.Tensor(np.arange(4.0), requires_grad=True)
    y = T.grad_reverse(x, scale=2.5)
    assert np.array_equal(y.data, x.data)
    T.tsum(y).backward()
    assert np.allclose(x.grad, -2.5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = T.softmax(T.Tensor(rng.normal(size=(5, 7))), axis=1)
    assert np.allclose(y.data.sum(axis=1), 1.0)


def test_conv1d_length_arithmetic():
    x = T.Tensor(np.zeros((10, 2)))
    w = T.Tensor(np.zeros((3, 2, 4)))
    assert T.conv1d(x, w, padding=(1, 1)).shape == (10, 4)
    # even kernel keeps length with asymmetric padding
    w6 = T.Tensor(np.zeros((6, 2, 4)))
    assert T.conv1d(x, w6, padding=(2, 3)).shape == (10, 4)


def test_maxpool_ragged_tail():
    x = T.Tensor(np.arange(10.0).reshape(5, 2))
    out = T.maxpool1d(x, 2)
    assert out.shape == (3, 2)
    assert np.array_equal(out.data[-1], x.data[-1])


def test_avgpool_ragged_tail_uses_true_width():
    x = T.Tensor(np.array([3.0, 1.0, 2.0, 10.0]))
    out = T.avgpool1d(x, 3)
    assert np.allclose(out.data, [2.0, 10.0])


def test_topk_pool_is_row_permutation_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 4))
    perm = rng.permutation(7)
    a = T.topk_pool(T.Tensor(x), 3).data
    b = T.topk_pool(T.Tensor(x[perm]), 3).data
    assert np.array_equal(a, b)


def test_batch_stat_norm_train_vs_eval():
    rng = np.random.default_rng(4)
    x = rng.normal(loc=3.0, scale=2.0, size=(50, 6))
    gamma = T.Tensor(np.ones(6), requires_grad=True)
    beta = T.Tensor(np.zeros(6), requires_grad=True)
    out = T.batch_stat_norm(T.Tensor(x), gamma, beta)
    assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=0), 1.0, atol=1e-3)
    # stateless: evaluation normalizes by the same row statistics as training
    with T.no_grad():
        again = T.batch_stat_norm(T.Tensor(x), gamma, beta)
    assert np.array_equal(again.data, out.data)


def test_bce_with_logits_matches_reference():
    z = np.array([0.0, 2.0, -3.0])
    t = np.array([1.0, 0.0, 1.0])
    out = T.bce_with_logits(T.Tensor(z), t)
    p = 1 / (1 + np.exp(-z))
    ref = -(t * np.log(p) + (1 - t) * np.log(1 - p))
    assert np.allclose(out.data, ref)
    assert np.isclose(out.data[0], np.log(2.0))


def test_cosine_similarity_zero_vector_pins_to_zero():
    a = T.Tensor(np.zeros(4), requires_grad=True)
    b = T.Tensor(np.ones(4))
    assert T.cosine_similarity(a, b).item() == 0.0


def test_embedding_rows_route_gradients():
    table = T.Tensor(np.zeros((4, 3)), requires_grad=True)
    out = T.embedding_lookup(table, np.array([1, 1, 3]))
    T.tsum(out).backward()
    assert np.allclose(table.grad[1], 2.0)
    assert np.allclose(table.grad[3], 1.0)
    assert np.allclose(table.grad[0], 0.0)
