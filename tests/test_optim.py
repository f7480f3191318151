import numpy as np
import pytest

from dtikit import tensor as T
from dtikit.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CheckpointError,
    ParameterStore,
    StoreFrozen,
    kaiming_uniform,
    read_checkpoint,
)


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


SHAPES = {"scalar": (), "bias": (5,), "kernel": (3, 4, 2)}


def per_entry_adam(values, grads, m, v, t, lr):
    """Adam as a loop over the entries, one set of moments each."""
    for path, g in grads.items():
        m[path] = ADAM_BETA1 * m[path] + (1.0 - ADAM_BETA1) * g
        v[path] = ADAM_BETA2 * v[path] + (1.0 - ADAM_BETA2) * (g * g)
        mhat = m[path] / (1.0 - ADAM_BETA1**t)
        vhat = v[path] / (1.0 - ADAM_BETA2**t)
        values[path] = values[path] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def test_flat_adam_equals_the_per_entry_loop_bit_for_bit():
    """Five steps over a 0-d, a 1-d and a 3-d entry, with gradients of
    mixed layout, against the per-entry loop."""
    rng = np.random.default_rng(4)
    store = ParameterStore()
    values = {path: rng.normal(size=shape) for path, shape in SHAPES.items()}
    for path, init in values.items():
        store.parameter(path, init.copy())
    m = {path: np.zeros(shape) for path, shape in SHAPES.items()}
    v = {path: np.zeros(shape) for path, shape in SHAPES.items()}
    for t in range(1, 6):
        grads = {path: rng.normal(size=shape) for path, shape in SHAPES.items()}
        grads["kernel"] = np.asfortranarray(grads["kernel"])
        for path, g in grads.items():
            store[path].grad = g
        store.adam_step(lr=0.01)
        per_entry_adam(values, grads, m, v, t, lr=0.01)
        for path in SHAPES:
            assert np.array_equal(store[path].data, values[path]), (t, path)
            assert store[path].grad is None


def test_entries_become_views_of_one_vector_at_the_first_step():
    store = ParameterStore()
    for path, shape in SHAPES.items():
        store.parameter(path, np.ones(shape))
    before = {path: store[path].data for path in SHAPES}
    for path in SHAPES:
        store[path].grad = np.ones(SHAPES[path])
    store.adam_step(lr=0.1)
    bases = set()
    for path, shape in SHAPES.items():
        data = store[path].data
        assert data is not before[path]
        assert data.shape == shape and data.flags.c_contiguous
        bases.add(id(data.base))
    assert len(bases) == 1


def test_checkpoint_round_trips_after_steps():
    rng = np.random.default_rng(6)
    store = ParameterStore()
    for path, shape in SHAPES.items():
        store.parameter(path, rng.normal(size=shape))
    for _ in range(3):
        for path, shape in SHAPES.items():
            store[path].grad = rng.normal(size=shape)
        store.adam_step(lr=0.05)
    blob = store.save_bytes()
    other = ParameterStore()
    for path, shape in SHAPES.items():
        other.parameter(path, np.zeros(shape))
    other.load_bytes(blob)
    assert other.save_bytes() == blob
    # a stepped store loads into its views of the flat vector
    base = store["bias"].data.base
    other["bias"].data[...] = 0.0
    store.load_bytes(other.save_bytes())
    assert store["bias"].data.base is base
    assert np.array_equal(store["bias"].data, np.zeros(5))


def test_registering_after_the_first_step_raises():
    """The first completed step fixes the entries; a step refused for a
    missing gradient fixes nothing."""
    store = ParameterStore()
    p = store.parameter("w", np.zeros(2))
    with pytest.raises(T.MissingGradient):
        store.adam_step(lr=0.1)
    q = store.parameter("registered_after_a_refused_step", np.zeros(1))
    p.grad, q.grad = np.ones(2), np.ones(1)
    store.adam_step(lr=0.1)
    with pytest.raises(StoreFrozen):
        store.parameter("late", np.zeros(3))
    assert store.paths() == ["w", "registered_after_a_refused_step"]


def test_an_empty_store_steps_as_a_no_op():
    store = ParameterStore()
    store.adam_step(lr=0.1)
    assert store.save_bytes() == ParameterStore().save_bytes()


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
    with pytest.raises(CheckpointError, match="version 2"):
        read_checkpoint(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
    with pytest.raises(CheckpointError, match="trailing"):
        read_checkpoint(blob + b"\x00")
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


def test_duplicate_path_raises():
    store = ParameterStore()
    store.parameter("w", np.zeros(2))
    with pytest.raises(KeyError, match="duplicate"):
        store.parameter("w", np.zeros(2))
    assert store.paths() == ["w"]


def test_every_truncation_is_a_checkpoint_error():
    """A blob cut at any byte, inside a header, a path or the values, is
    refused as a checkpoint error."""
    store = ParameterStore()
    store.parameter("enc/w", np.ones((2, 3)))
    store.parameter("b", np.array(0.5))
    blob = store.save_bytes()
    for cut in range(len(blob)):
        with pytest.raises(CheckpointError):
            read_checkpoint(blob[:cut])
    assert set(read_checkpoint(blob)) == {"enc/w", "b"}


def test_kaiming_uniform_bound_scales_with_fan_in():
    rng = np.random.default_rng(1)
    w = kaiming_uniform(rng, (1000,), fan_in=24)
    bound = np.sqrt(6.0 / 24)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.8 * bound


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("loaded", [False, True], ids=["registered", "loaded"])
def test_a_forward_pass_leaves_the_checkpoint_bytes_as_they_were(dtype, loaded):
    """Registration casts each init to the store's dtype, and a load of a
    float64 checkpoint writes into those values, rounding once: the bytes
    a store saves before its first forward pass are the values the model
    computes with, and the pass, which binds the store, leaves them as
    they were."""
    rng = np.random.default_rng(11)
    values = {path: rng.normal(size=shape) for path, shape in SHAPES.items()}
    source = ParameterStore()
    for path, init in values.items():
        source.parameter(path, init)
    store = ParameterStore(dtype)
    for path, init in values.items():
        store.parameter(path, np.zeros(init.shape) if loaded else init)
    if loaded:
        store.load_bytes(source.save_bytes())
    assert all(store[path].data.dtype == dtype for path in store.paths())
    before = store.save_bytes()
    store.bind()  # all that a forward pass does to the store
    assert store.save_bytes() == before
    for path, arr in read_checkpoint(before).items():
        assert arr.tobytes() == values[path].astype(dtype).astype(np.float64).tobytes(), path


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_every_store_binds_at_its_first_forward_pass_into_row_0_of_one_block(dtype):
    """Both dtypes share one lifecycle: the first `bind` copies every entry
    into row 0 of one [3, N] block in the store's dtype; each tensor views
    its slice of that row, and the store is frozen; a load into the bound
    store and a step change what the tensors read."""
    rng = np.random.default_rng(13)
    values = {path: rng.normal(size=shape) for path, shape in SHAPES.items()}
    store = ParameterStore(dtype)
    for path, init in values.items():
        store.parameter(path, init)
    store.bind()
    with pytest.raises(StoreFrozen):
        store.parameter("late", np.zeros(1))
    block = store["bias"].data.base
    assert block.shape == (3, sum(v.size for v in values.values())) and block.dtype == dtype
    for path, init in values.items():
        data = store[path].data
        assert data.dtype == dtype and data.flags.c_contiguous
        assert np.shares_memory(data, block[0]) and not np.shares_memory(data, block[1:])
        assert np.array_equal(data, init.astype(dtype))
    bound = {path: store[path].data for path in SHAPES}
    store.bind()  # binds once
    zeros = ParameterStore()
    for path, shape in SHAPES.items():
        zeros.parameter(path, np.zeros(shape))
    store.load_bytes(zeros.save_bytes())
    assert not block[0].any()
    for path, shape in SHAPES.items():
        store[path].grad = np.ones(shape, dtype=dtype)
    store.adam_step(lr=0.5)
    assert np.allclose(block[0], -0.5)
    assert all(store[path].data is bound[path] for path in SHAPES)


def test_float32_adam_agrees_with_float64_adam_to_a_fraction_of_lr():
    """A float32 and a float64 store take the same float32 gradients, of
    magnitudes from 1e-10 to 1, for five steps from the same weights of
    kaiming scale (about 0.1), exact in float32.  Each store steps
    bit-equal to the per-entry loop in its dtype, and the float32 weights
    stay within 2e-4 * lr of the float64 ones: the gap is the float32
    rounding of the weights and the steps, which reads 5.6e-5 * lr here."""
    lr = 1e-3
    rng = np.random.default_rng(12)
    dtypes = (np.float64, np.float32)
    stores = {dtype: ParameterStore(dtype) for dtype in dtypes}
    values = {dtype: {} for dtype in dtypes}
    for path, shape in SHAPES.items():
        init = (0.1 * rng.normal(size=shape)).astype(np.float32)
        for dtype, store in stores.items():
            store.parameter(path, init.astype(np.float64))
            values[dtype][path] = init.astype(dtype)
    m = {dtype: {p: np.zeros(s, dtype=dtype) for p, s in SHAPES.items()} for dtype in dtypes}
    v = {dtype: {p: np.zeros(s, dtype=dtype) for p, s in SHAPES.items()} for dtype in dtypes}
    for t in range(1, 6):
        grads = {
            path: (rng.normal(size=shape) * 10.0 ** rng.uniform(-10, 0, size=shape)).astype(np.float32)
            for path, shape in SHAPES.items()
        }
        for dtype, store in stores.items():
            typed = {path: g.astype(dtype) for path, g in grads.items()}
            for path, g in typed.items():
                store[path].grad = g
            store.adam_step(lr=lr)
            per_entry_adam(values[dtype], typed, m[dtype], v[dtype], t, lr)
            for path in SHAPES:
                assert np.array_equal(store[path].data, values[dtype][path]), (dtype, t, path)
    wide, narrow = stores[np.float64], stores[np.float32]
    for path in SHAPES:
        assert narrow[path].data.dtype == np.float32
        assert np.abs(narrow[path].data - wide[path].data).max() <= 2e-4 * lr, path


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_a_value_the_store_cannot_hold_is_a_checkpoint_error(dtype):
    """A NaN, an infinity or, for a float32 store, a value finite in float64
    but beyond float32's range is refused with its entry's path, before and
    after the bind, and the refused load changes nothing; the dtype's largest
    value loads."""
    limit = float(np.finfo(dtype).max)
    source = ParameterStore()
    source.parameter("enc/w", np.zeros(3))
    source.parameter("head/b", np.zeros(2))
    store = ParameterStore(dtype)
    store.parameter("enc/w", np.ones(3))
    store.parameter("head/b", np.ones(2))
    bad = [np.nan, np.inf, -np.inf] + ([1e39, -1e39] if dtype == np.float32 else [])
    for bind in (False, True):
        if bind:
            store.bind()
        for value in bad:
            source["head/b"].data[...] = [0.5, value]
            with pytest.raises(CheckpointError, match="'head/b'"):
                store.load_bytes(source.save_bytes())
            assert (store["enc/w"].data == 1.0).all() and (store["head/b"].data == 1.0).all()
        source["head/b"].data[...] = [0.5, -limit]
        store.load_bytes(source.save_bytes())
        assert store["head/b"].data[1] == -limit
        store["enc/w"].data[...] = store["head/b"].data[...] = 1.0
