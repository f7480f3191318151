import numpy as np
import pytest

from dtikit import tensor as T
from dtikit.optim import CheckpointError, ParameterStore, kaiming_uniform, read_checkpoint


def test_first_adam_step_is_closed_form():
    store = ParameterStore()
    p = store.parameter("w", np.array([1.0]))
    g = 0.7
    p.grad = np.array([g])
    store.adam_step(lr=0.01)
    # bias-corrected first step: lr * g / (sqrt(g^2) + eps)
    expected = 1.0 - 0.01 * g / (np.sqrt(g * g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-12)
    assert p.grad is None  # step zeroes gradients


def test_adam_unit_gradient_moves_by_lr():
    store = ParameterStore()
    p = store.parameter("w", np.array([5.0]))
    p.grad = np.array([1.0])
    store.adam_step(lr=0.1)
    assert abs((5.0 - p.data[0]) - 0.1) < 1e-8


def test_adam_requires_gradients():
    store = ParameterStore()
    store.parameter("w", np.zeros(3))
    with pytest.raises(T.MissingGradient):
        store.adam_step(lr=0.1)


def test_adam_converges_on_quadratic():
    store = ParameterStore()
    p = store.parameter("w", np.array([4.0, -3.0]))
    target = np.array([1.5, 0.5])
    for _ in range(400):
        t = T.tsum(T.square(T.sub(p, T.Tensor(target))))
        store.zero_grad()
        t.backward()
        store.adam_step(lr=0.05)
    assert np.allclose(p.data, target, atol=1e-3)


def test_checkpoint_round_trip_is_bit_exact():
    rng = np.random.default_rng(9)
    store = ParameterStore()
    store.parameter("enc/w", rng.normal(size=(7, 3)))
    store.parameter("enc/b", rng.normal(size=3))
    store.parameter("head/w", np.array(2.5))
    blob = store.save_bytes()

    other = ParameterStore()
    other.parameter("enc/w", np.zeros((7, 3)))
    other.parameter("enc/b", np.zeros(3))
    other.parameter("head/w", np.array(0.0))
    other.load_bytes(blob)
    for path in store.paths():
        assert np.array_equal(store[path].data, other[path].data)
    assert other.save_bytes() == blob


def test_checkpoint_rejects_garbage_and_mismatch():
    store = ParameterStore()
    store.parameter("w", np.zeros(2))
    with pytest.raises(CheckpointError):
        read_checkpoint(b"NOPE" + b"\x00" * 16)
    blob = store.save_bytes()
    other = ParameterStore()
    other.parameter("w", np.zeros(3))
    with pytest.raises(CheckpointError):
        other.load_bytes(blob)
    third = ParameterStore()
    third.parameter("w", np.zeros(2))
    third.parameter("extra", np.zeros(1))
    with pytest.raises(CheckpointError):
        third.load_bytes(blob, strict=True)
    loaded = third.load_bytes(blob, strict=False)
    assert loaded == ["w"]


def test_kaiming_uniform_bound_scales_with_fan_in():
    rng = np.random.default_rng(1)
    w = kaiming_uniform(rng, (1000,), fan_in=24)
    bound = np.sqrt(6.0 / 24)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound
