import tracemalloc
import weakref

import numpy as np
import pytest

import gradcheck
from dtikit import tensor as T
from gradcheck import op_cases, run_case
from oracle import mask_relu


def test_every_primitive_matches_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(3):
        for name, case in op_cases(rng).items():
            run_case(name, case)


# float32 against float64 on the gradcheck cases, relative to the larger of
# 1 and the float64 values' largest magnitude: the float32 copies of the
# operands are already rounded at 3e-8, and a case's few dozen ops grow
# that to about 6e-7 at most, so 1e-5 leaves a margin of about 15
F32_OP_TOL = 1e-5


def test_every_primitive_keeps_float32(monkeypatch):
    """Each gradcheck case run on its float64 operands and on float32
    copies: every recorded output of the float32 run is float32, every
    gradient handed to `_accum` has its tensor's dtype (`_accum` would
    copy an upcast one back without a trace), and the outputs and operand
    gradients agree with the float64 run within F32_OP_TOL.  The cases'
    loss weights take the output's dtype, so the weighting adds no upcast."""
    monkeypatch.setattr(
        gradcheck, "_weighted",
        lambda out, w: T.tsum(T.mul(out, T.Tensor(w.astype(out.data.dtype)))),
    )
    make, accum = T._make, T._accum
    recorded = []

    def spy_make(data, parents, backward):
        recorded.append(np.array(data, copy=True))
        return make(data, parents, backward)

    def spy_accum(t, g):
        assert np.asarray(g).dtype == t.data.dtype, (t.data.dtype, np.asarray(g).dtype)
        accum(t, g)

    monkeypatch.setattr(T, "_make", spy_make)
    monkeypatch.setattr(T, "_accum", spy_accum)
    for name, case in op_cases(np.random.default_rng(13)).items():
        runs = {}
        for dtype in (np.float64, np.float32):
            recorded.clear()
            operands = [T.Tensor(a.astype(dtype), requires_grad=True) for a in case[1]]
            case[0](*operands).backward()
            runs[dtype] = list(recorded) + [t.grad for t in operands]
        assert len(runs[np.float32]) == len(runs[np.float64]), name
        for narrow, wide in zip(runs[np.float32], runs[np.float64]):
            assert narrow.dtype == np.float32, name
            scale = max(1.0, np.abs(wide).max(initial=0.0))
            assert np.abs(narrow - wide).max(initial=0.0) <= F32_OP_TOL * scale, name


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


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div], ids=lambda op: op.__name__)
@pytest.mark.parametrize(
    "constant", [2.5, np.array(2.5), np.full((2, 3), 2.5)], ids=["float", "0-d", "array"]
)
def test_only_an_operand_that_takes_a_gradient_gets_one(monkeypatch, op, constant):
    """With a constant on either side of a binary op, backward hands
    `_accum` the gradient-taking operand's gradient and never forms the
    constant's."""
    seen = []

    def recording_accum(t, g, accum=T._accum):
        seen.append(t)
        accum(t, g)

    monkeypatch.setattr(T, "_accum", recording_accum)
    for left in (True, False):
        x = T.Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
        seen.clear()
        T.tsum(op(x, constant) if left else op(constant, x)).backward()
        assert all(t.requires_grad for t in seen), f"constant on the {'right' if left else 'left'}"
        assert any(t is x for t in seen)


def test_no_grad_suppresses_graph():
    x = T.Tensor(np.ones(4), requires_grad=True)
    with T.no_grad():
        y = T.silu(T.mul(x, 3.0))
    assert not y.requires_grad and y._backward is None


def test_grad_accumulates_across_uses():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(T.mul(x, x), T.mul(x, 3.0))  # x^2 + 3x
    T.tsum(y).backward()
    assert np.allclose(x.grad, 2 * 2.0 + 3.0)


def test_grad_reverse_forward_is_identity():
    x = T.Tensor(np.arange(4.0), requires_grad=True)
    y = T.grad_reverse(x)
    assert np.array_equal(y.data, x.data)
    T.tsum(y).backward()
    assert np.array_equal(x.grad, -np.ones(4))


# -- graph lifetime ---------------------------------------------------------------


def _backward_peak_bytes(depth: int, n: int) -> int:
    """Bytes traced above the start of backward over `depth` chained silu
    ops on n floats, at the pass's peak."""
    x = T.Tensor(np.linspace(-2.0, 2.0, n), requires_grad=True)
    y = x
    for _ in range(depth):
        y = T.silu(y)
    loss = T.tsum(y)
    del y
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss.backward()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_backward_peak_does_not_grow_with_depth():
    """A spent node's gradient and buffers go as the pass moves on, so the
    peak is a few arrays however long the chain."""
    n = 50_000
    for depth in (5, 40):
        assert _backward_peak_bytes(depth, n) < 5 * 8 * n, depth


def test_backward_frees_interior_gradients_and_keeps_leaves():
    rng = np.random.default_rng(31)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    hidden = T.matmul(x, w)
    act = T.silu(hidden)
    loss = T.tsum(T.square(act))
    loss.backward()
    for node in (hidden, act):
        assert node.grad is None and node._backward is None and node._parents == ()
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
    assert loss.grad == 1.0


def test_each_backward_adds_only_its_own_graph():
    x = T.Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
    first = T.tsum(T.square(x))
    second = T.tsum(T.mul(x, 3.0))
    kept = T.tsum(T.silu(x))  # abandoned while still referenced
    dropped = T.silu(x)  # abandoned, as a NumericFailure leaves a graph
    freed = weakref.ref(dropped.data)
    del dropped
    assert freed() is None
    first.backward()
    assert np.array_equal(x.grad, 2.0 * x.data)
    second.backward()
    assert np.array_equal(x.grad, 2.0 * x.data + 3.0)
    assert kept._backward is not None and kept.grad is None


def test_fan_out_contributions_sum_in_reverse_creation_order():
    rng = np.random.default_rng(32)
    x = T.Tensor(rng.normal(size=1000), requires_grad=True)
    c = rng.normal(size=1000)
    scaled, squared, smooth = T.mul(x, T.Tensor(c)), T.square(x), T.silu(x)
    T.tsum(T.add(T.add(scaled, squared), smooth)).backward()
    s = T.sigmoid_values(x.data)
    g_smooth, g_squared, g_scaled = s + x.data * s * (1.0 - s), 2.0 * x.data, c
    assert np.array_equal(x.grad, (g_smooth + g_squared) + g_scaled)
    assert not np.array_equal(x.grad, (g_scaled + g_squared) + g_smooth)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = T.softmax(T.Tensor(rng.normal(size=(5, 7))), axis=1)
    assert np.allclose(y.data.sum(axis=1), 1.0)


def test_conv1d_relu_length_arithmetic():
    x = T.Tensor(np.zeros((10, 2)))
    b = T.Tensor(np.zeros(4))
    # odd and even kernels, the even one padded asymmetrically, keep length
    for K in (1, 3, 6):
        assert T.conv1d_relu(x, T.Tensor(np.zeros((K, 2, 4))), b).shape == (10, 4)
    with pytest.raises(T.ShapeMismatch):
        T.conv1d_relu(T.Tensor(np.zeros((0, 2))), T.Tensor(np.zeros((3, 2, 4))), b)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-sample", "batch"])
def test_conv1d_relu_products_equal_shifted_gemms(lead):
    """The forward product and the kernel gradient are `==` to K shifted
    GEMMs over the padded rows, summed in tap order, and within 1e-12 of
    `np.einsum` over the sliding windows: kernel widths 1, 3, 6 and 9 at
    the small preset's 12 channels and the paper preset's 128.  The output
    is C-ordered."""
    rng = np.random.default_rng(3)
    for channels, length in ((12, 48), (128, 150)):
        for K in (1, 3, 6, 9):
            pad = ((K - 1) // 2, K - 1 - (K - 1) // 2)  # the op's same-length zeros
            x = T.Tensor(rng.normal(size=(*lead, length, channels)))
            w = T.Tensor(rng.normal(size=(K, channels, channels)), requires_grad=True)
            b = T.Tensor(rng.normal(size=channels))
            out = T.conv1d_relu(x, w, b)
            assert out.data.flags.c_contiguous, K
            xp = np.pad(x.data, ((0, 0),) * len(lead) + (pad, (0, 0)))
            flat = xp.reshape(-1, channels)
            R = len(flat) - K + 1
            acc = flat[:R] @ w.data[0]
            for k in range(1, K):
                acc += flat[k : k + R] @ w.data[k]
            acc = np.concatenate([acc, np.zeros((K - 1, channels))])
            want = acc.reshape(xp.shape)[..., :length, :] + b.data
            np.multiply(want, want > 0, out=want)
            assert np.array_equal(out.data, want), K
            windows = np.lib.stride_tricks.sliding_window_view(xp, K, axis=-2)
            plan = np.einsum("...lck,kco->...lo", windows, w.data, optimize=True) + b.data
            np.multiply(plan, plan > 0, out=plan)
            assert np.abs(out.data - plan).max() <= 1e-12 * np.abs(plan).max(), K
            g = rng.normal(size=out.shape)
            T.tsum(out * T.Tensor(g)).backward()
            G = np.zeros((*lead, xp.shape[-2], channels))
            G[..., :length, :] = g * (want > 0)
            G = G.reshape(-1, channels)[:R]
            assert np.array_equal(w.grad, np.stack([flat[k : k + R].T @ G for k in range(K)])), K
            plan_w = np.einsum("...lck,...lo->kco", windows, g * (want > 0), optimize=True)
            assert np.abs(w.grad - plan_w).max() <= 1e-12 * np.abs(plan_w).max(), K


@pytest.mark.parametrize("K", [9, 6])
def test_conv1d_relu_keeps_each_sample_to_itself(K):
    """A batch of three gives each sample the output and the gradients it
    gets alone, although its neighbours hold values of 1e6, and a loss on
    one sample gives its neighbours no input gradient: a shifted row
    straddling two samples reaches neither an output nor a gradient."""
    rng = np.random.default_rng(33)
    xs = rng.normal(size=(3, 20, 5))
    xs[[0, 2]] *= 1e6
    w_data, b_data = rng.normal(size=(K, 5, 4)), rng.normal(size=4)
    g = rng.normal(size=(3, 20, 4))

    def run(x, g):
        leaves = [T.Tensor(a.copy(), requires_grad=True) for a in (x, w_data, b_data)]
        out = T.conv1d_relu(*leaves)
        T.tsum(T.mul(out, T.Tensor(g))).backward()
        return out.data, [t.grad for t in leaves]

    for i in range(3):
        # the loss weighs sample i only, so the batch's gradients are its own
        alone_out, alone_grads = run(xs[i], g[i])
        only = np.zeros_like(g)
        only[i] = g[i]
        out, (dx, dw, db) = run(xs, only)
        assert out.flags.c_contiguous
        assert np.all(np.delete(dx, i, axis=0) == 0.0)
        for got, want in zip((out[i], dx[i], dw, db), (alone_out, *alone_grads)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), i


def _argmax_pool(x):
    """The reference: argmax over each window of two rows, the ragged
    tail padded with -inf, and a gather; with the scatter of an output
    gradient to the kept rows into zeros."""
    *lead, L, C = x.shape
    lout = -(-L // 2)
    padded = np.full((*lead, lout * 2, C), -np.inf, dtype=x.dtype)
    padded[..., :L, :] = x
    blocks = padded.reshape(*lead, lout, 2, C)
    arg = np.expand_dims(blocks.argmax(axis=-2), -2)

    def scatter(g):
        d = np.zeros_like(blocks)
        np.put_along_axis(d, arg, g[..., None, :], axis=-2)
        return d.reshape(*lead, lout * 2, C)[..., :L, :]

    return np.take_along_axis(blocks, arg, axis=-2)[..., 0, :], scatter


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_maxpool_matches_argmax_bit_for_bit(dtype):
    """Ties go to the first row, a NaN in either row wins, -inf and +inf
    are values like any other, and an odd last row is its own window: the
    output's bits are the argmax reference's, and so are the gradient's,
    the +0.0 of every losing row under a negative gradient included.  The
    gradient is laid out like the input, so the leaf adopts it."""
    rng = np.random.default_rng(34)
    x = rng.normal(size=(2, 13, 8)).astype(dtype)
    x[0, 0:2, 0] = 1.5  # a tie
    x[0, 0:2, 1] = [np.nan, 2.0]
    x[0, 0:2, 2] = [2.0, np.nan]
    x[0, 0:2, 3] = np.nan
    x[0, 0:2, 4] = [-np.inf, -np.inf]
    x[0, 0:2, 5] = [-np.inf, 3.0]
    x[0, 0:2, 6] = [np.inf, np.inf]
    x[0, 0:2, 7] = [-1.0, np.inf]
    x[1, 12, :4] = -np.inf  # a lone -inf against the tail's padding
    x[1, 12, 4] = np.nan
    want, scatter = _argmax_pool(x)
    t = T.Tensor(x, requires_grad=True)
    out = T.maxpool1d(t)
    assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
    g = rng.normal(size=out.shape).astype(dtype)
    with np.errstate(invalid="ignore"):  # the loss sums infinities of both signs
        loss = T.tsum(T.mul(out, T.Tensor(g)))
    loss.backward()
    assert t.grad.tobytes() == scatter(g).tobytes()
    assert not t._owns_grad


def test_maxpool_ragged_tail():
    x = T.Tensor(np.arange(10.0).reshape(5, 2))
    out = T.maxpool1d(x)
    assert out.shape == (3, 2)
    assert np.array_equal(out.data[-1], x.data[-1])


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


def test_cosine_rows_zero_row_pins_to_zero_without_gradient():
    rng = np.random.default_rng(6)
    a_data = rng.normal(size=(4, 5))
    a_data[2] = 0.0
    a = T.Tensor(a_data, requires_grad=True)
    b = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    sims = T.cosine_rows(a, b)
    assert sims.data[2] == 0.0
    live = [0, 1, 3]
    want = [
        x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
        for x, y in zip(a_data[live], b.data[live])
    ]
    assert np.allclose(sims.data[live], want, atol=1e-15)
    T.tsum(T.mul(sims, T.Tensor(rng.normal(size=4)))).backward()
    assert np.all(a.grad[2] == 0.0) and np.all(b.grad[2] == 0.0)
    assert np.all(np.isfinite(a.grad)) and np.all(np.isfinite(b.grad))
    assert np.all(np.abs(a.grad[live]).sum(axis=1) > 0)
    assert np.all(np.abs(b.grad[live]).sum(axis=1) > 0)
    # only a small norm pins the similarity; a non-finite row stays visible
    with np.errstate(invalid="ignore"):
        bad = T.cosine_rows(T.Tensor([[np.nan, 1.0], [np.inf, 0.0]]), T.Tensor(np.ones((2, 2))))
    assert np.all(np.isnan(bad.data))


def test_embedding_rows_route_gradients():
    table = T.Tensor(np.zeros((4, 3)), requires_grad=True)
    out = T.index_select(table, 0, np.array([1, 1, 3]))
    T.tsum(out).backward()
    assert np.allclose(table.grad[1], 2.0)
    assert np.allclose(table.grad[3], 1.0)
    assert np.allclose(table.grad[0], 0.0)


# -- gradient accumulation ------------------------------------------------------


def _zero_fill_accum(t, g):
    """The reference rule: every gradient starts as zeros in t.data's layout."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _norm_then_matmul_grads():
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.normal(size=(5, 300)), requires_grad=True)
    gamma = T.Tensor(rng.normal(size=5), requires_grad=True)
    beta = T.Tensor(rng.normal(size=5), requires_grad=True)
    w = T.Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    y = T.batch_stat_norm(T.transpose(x), gamma, beta)
    # y is F-ordered; the matmul hands it a C-ordered gradient, and the
    # norm's backward sums that gradient down its rows
    assert y.data.flags.f_contiguous and not y.data.flags.c_contiguous
    T.tsum(T.square(T.matmul(y, w))).backward()
    return [t.grad for t in (x, gamma, beta, w)]


def test_accum_keeps_the_zero_fill_layout_and_bytes(monkeypatch):
    got = _norm_then_matmul_grads()
    monkeypatch.setattr(T, "_accum", _zero_fill_accum)
    want = _norm_then_matmul_grads()
    for g, ref in zip(got, want):
        assert g.tobytes() == ref.tobytes()
        assert g.strides == ref.strides


def test_accum_never_writes_into_a_borrowed_gradient(monkeypatch):
    seen = []

    def recording_accum(t, g, accum=T._accum):
        if isinstance(g, np.ndarray):
            seen.append((g, g.copy()))
        accum(t, g)

    monkeypatch.setattr(T, "_accum", recording_accum)
    rng = np.random.default_rng(22)
    c = [T.Tensor(rng.normal(size=(3, 4))) for _ in range(4)]
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    # add(x, x) hands x the same array twice; add(x, w) hands x and w one
    # shared array, after which x fans out into two more contributions
    loss = T.add(
        T.add(T.tsum(T.mul(T.add(x, x), c[0])), T.tsum(T.mul(T.add(x, w), c[1]))),
        T.add(T.tsum(T.mul(T.mul(x, 3.0), c[2])), T.tsum(T.mul(mask_relu(x), c[3]))),
    )
    loss.backward()
    assert len(seen) > 10
    for g, before in seen:
        assert g.tobytes() == before.tobytes()
    relu_mask = x.data > 0
    want_x = 2 * c[0].data + c[1].data + 3 * c[2].data + c[3].data * relu_mask
    assert np.allclose(x.grad, want_x, rtol=1e-12, atol=0)
    assert np.array_equal(w.grad, c[1].data)


# -- fused layers -----------------------------------------------------------------


def _unfused_layer(x, w, b, relu):
    """matmul, add of the expanded bias, relu: the chain `matmul` fuses
    when given a bias."""
    rows = T.reshape(x, (-1, w.shape[0]))
    z = T.add(T.matmul(rows, w), T.expand(b, 0, rows.shape[0]))
    if relu:
        z = mask_relu(z)
    return T.reshape(z, x.shape[:-1] + (w.shape[1],))


def test_fused_layers_are_bit_equal_to_the_unfused_chain():
    """`matmul` with a bias, with and without relu, on rows and on a batch of rows, and a
    width-1 `conv1d_relu` on one sample match the unfused chain to the bit,
    on outputs and on one backward's gradients.  (On a batch the
    convolution sums the weight and bias gradients over all of the batch's
    rows in one GEMM, an order the chain does not share.)  A zero row meets a zero bias
    entry, so one pre-activation sits exactly on the kink."""
    rng = np.random.default_rng(23)
    cin, cout = 4, 5

    def width1_conv(x, w, b, relu):
        return T.conv1d_relu(x, T.reshape(w, (1, cin, cout)), b)

    cases = [(lead, relu, T.matmul) for lead in ((6,), (3, 6)) for relu in (False, True)]
    cases.append(((6,), True, width1_conv))
    for lead, relu, fused in cases:
        x = rng.normal(size=(*lead, cin))
        x[..., 0, :] = 0.0
        b = rng.normal(size=cout)
        b[0] = 0.0
        arrays = (x, rng.normal(size=(cin, cout)), b)
        weights = T.Tensor(rng.normal(size=(*lead, cout)))
        results = []
        for op in (fused, _unfused_layer):
            leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = op(*leaves, relu)
            T.tsum(T.mul(out, weights)).backward()
            results.append([out.data] + [t.grad for t in leaves])
        assert np.any(results[1][0] == 0.0)
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (lead, relu, fused)


def test_bmm_relu_is_bit_equal_to_bmm_then_relu():
    """`bmm` with relu matches the product followed by a separate relu to
    the bit, on the output and on the gradients, with and without a
    constant left operand such as the drug tower's adjacency, which gets
    no gradient.  A zero row puts pre-activations exactly on the kink."""
    rng = np.random.default_rng(25)
    a_data, b_data = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 4, 6))
    a_data[:, 0] = 0.0
    weights = T.Tensor(rng.normal(size=(3, 5, 6)))
    for a_grad in (True, False):
        results = []
        for op in (lambda a, b: T.bmm(a, b, relu=True), lambda a, b: mask_relu(T.bmm(a, b))):
            a = T.Tensor(a_data.copy(), requires_grad=a_grad)
            b = T.Tensor(b_data.copy(), requires_grad=True)
            out = op(a, b)
            T.tsum(T.mul(out, weights)).backward()
            results.append([out.data, a.grad, b.grad])
        assert np.any(results[1][0] == 0.0)
        for got, want in zip(*results):
            assert (got is None and want is None) or got.tobytes() == want.tobytes(), a_grad


def test_fused_backward_never_writes_into_a_gradient_or_an_input(monkeypatch):
    seen = []

    def recording_accum(t, g, accum=T._accum):
        if isinstance(g, np.ndarray):
            seen.append((g, g.copy()))
        accum(t, g)

    monkeypatch.setattr(T, "_accum", recording_accum)
    rng = np.random.default_rng(24)
    x, w, b, k, kb = (
        T.Tensor(rng.normal(size=shape), requires_grad=True)
        for shape in ((2, 7, 3), (3, 4), (4,), (3, 3, 4), (4,))
    )
    outs = [T.matmul(x, w, b), T.matmul(x, w, b, relu=True), T.conv1d_relu(x, k, kb)]
    # the attention's softmax and its lift's relu mask run in place, on
    # arrays of its own, on both paths: one block, and one protein at a time
    arrays, fixed, _ = _attention_case(rng)
    attention_leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    attention_weights = []
    for budget in (T.ATTENTION_BLOCK_BYTES, MAP_BYTES - 1):
        monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", budget)
        joint, weights = T.bilinear_attention(
            *attention_leaves[:4], attention_leaves[4:], *fixed
        )
        outs.append(joint)
        attention_weights.append((weights, weights.copy()))
    kept = [(t, t.data.copy()) for t in (x, w, b, k, kb, *attention_leaves, *outs)]

    def like(a):
        """Normal values in an array laid out like `a`."""
        values = np.empty_like(a)
        values[...] = rng.normal(size=a.shape)
        return values

    # each output meets another leaf in an add, which hands both the same
    # array; laid out like the output, the fused node adopts that array, so
    # its backward receives a gradient another node holds too
    loss = None
    for out in outs:
        other = T.Tensor(like(out.data), requires_grad=True)
        term = T.tsum(T.mul(T.add(out, other), T.Tensor(like(out.data))))
        loss = term if loss is None else T.add(loss, term)
    loss.backward()
    assert len(seen) > 15
    for g, before in seen:
        assert g.tobytes() == before.tobytes()
    for t, before in kept:
        assert t.data.tobytes() == before.tobytes()
    for weights, before in attention_weights:
        assert weights.tobytes() == before.tobytes()


# -- bilinear attention --------------------------------------------------------------

MAP_BYTES = 6 * 4 * 8  # one lifted u map of the case below


def _attention_case(rng):
    """Arrays (v, x, w, b, three heads), masks and pair indices, and loss
    weights.

    Four drugs of up to five atoms, drug 1 with a single real atom and drug
    3 in no pair; four proteins of six residues, protein 0 with no pad row
    and protein 2 in no pair, lifted from width 3 to width 4; seven pairs,
    (0, 0) twice.  The pad rows of v and x are large, so their scores would
    win any map's maximum."""
    v_mask = np.array([[1, 1, 1, 1, 1], [1, 0, 0, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 1, 0]],
                      dtype=bool)
    u_real = np.array([6, 4, 2, 5])
    v_idx = np.array([0, 1, 2, 1, 0, 2, 0])
    u_idx = np.array([0, 0, 1, 1, 3, 3, 0])
    v = rng.normal(size=(4, 5, 4))
    v[~v_mask] *= 100.0
    x = rng.normal(size=(4, 6, 3))
    x[np.arange(6) >= u_real[:, None]] *= 100.0
    arrays = [v, x, rng.normal(size=(3, 4)), rng.normal(size=4)]
    arrays += [rng.normal(size=4) for _ in range(3)]
    return arrays, (v_mask, u_real, v_idx, u_idx), rng.normal(size=(len(v_idx), 4))


def _attention_run(arrays, fixed, weights):
    """Output, weights and the gradients of v, x, w, b and the heads."""
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    out, attn = T.bilinear_attention(*leaves[:4], leaves[4:], *fixed)
    T.tsum(T.mul(out, T.Tensor(weights))).backward()
    return [out.data, attn, *(t.grad for t in leaves[:4]),
            np.stack([t.grad for t in leaves[4:]])]


# one block, blocks of three pairs, one protein at a time
ATTENTION_BUDGETS = [T.ATTENTION_BLOCK_BYTES, 3 * MAP_BYTES, MAP_BYTES - 1]


def test_bilinear_attention_paths_agree(monkeypatch):
    """The block path, whole or cut into blocks, matches the per-protein
    path on the output, the weights and every gradient, the lift's
    included; on every path the pad rows of x get exactly zero gradient."""
    case = _attention_case(np.random.default_rng(25))
    results = []
    for budget in ATTENTION_BUDGETS:
        monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", budget)
        results.append(_attention_run(*case))
    *blocked, want = results
    for got in blocked:
        for g, w, name in zip(got, want, ("out", "weights", "dv", "dx", "dw", "db", "dq")):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), name
    v_mask, u_real = case[1][:2]
    for out, attn, dv, dx, dw, db, dq in results:
        # rows no pair uses, pad rows of v and pad rows of x pass nothing
        assert np.all(dv[3] == 0.0) and np.all(dx[2] == 0.0)
        assert np.all(dv[~v_mask] == 0.0)
        assert all(np.all(dx[p, r:] == 0.0) for p, r in enumerate(u_real))
        assert np.all(dv[:3][v_mask[:3]] != 0.0) and np.all(dq != 0.0)
        assert np.any(dx[[0, 1, 3]] != 0.0) and np.any(dw != 0.0) and np.any(db != 0.0)


@pytest.mark.parametrize("budget", ATTENTION_BUDGETS)
def test_bilinear_attention_maps_are_a_softmax_over_live_cells(monkeypatch, budget):
    """Pad cells are exactly 0, each (pair, head) map sums to 1, and the
    weights match a softmax over the live cells alone."""
    monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", budget)
    arrays, fixed, _ = _attention_case(np.random.default_rng(26))
    v, x, w, b, *q = arrays
    v_mask, u_real, v_idx, u_idx = fixed
    _, attn = T.bilinear_attention(*map(T.Tensor, arrays[:4]), [T.Tensor(t) for t in q], *fixed)
    u = np.maximum(x @ w + b, 0.0)
    live = v_mask[v_idx][:, None, :, None] & (np.arange(6) < u_real[u_idx][:, None])[:, None, None]
    live = np.broadcast_to(live, attn.shape)
    assert np.all(attn[~live] == 0.0) and np.all(attn[live] > 0.0)
    assert np.abs(attn.sum(axis=(2, 3)) - 1.0).max() <= 1e-12
    scores = np.einsum("bmj,hj,blj->bhml", v[v_idx], np.stack(q), u[u_idx])
    scores[~live] = -np.inf
    want = np.exp(scores - scores.max(axis=(2, 3), keepdims=True))
    want /= want.sum(axis=(2, 3), keepdims=True)
    assert np.abs(attn - want).max() <= 1e-12


def test_bilinear_attention_hands_exp_no_pad_score(monkeypatch):
    """exp is slow on scores that underflow, so it sees nothing below its
    dtype's floor, on either path, in float64 and in float32."""
    arrays, fixed, _ = _attention_case(np.random.default_rng(28))
    exp = np.exp
    for dtype in (np.float64, np.float32):
        lowest = []

        def spy(x, *args, **kw):
            lowest.append(np.min(x))
            return exp(x, *args, **kw)

        monkeypatch.setattr(np, "exp", spy)
        one_map = 6 * 4 * np.dtype(dtype).itemsize
        budgets = [T.ATTENTION_BLOCK_BYTES, 3 * one_map, one_map - 1]
        for budget in budgets:
            monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", budget)
            leaves = [T.Tensor(a.astype(dtype)) for a in arrays]
            T.bilinear_attention(*leaves[:4], leaves[4:], *fixed)
        assert len(lowest) >= len(budgets)
        assert min(lowest) >= T.EXP_FLOOR[np.dtype(dtype)], dtype


def test_bilinear_attention_under_no_grad_keeps_no_backward():
    arrays, fixed, _ = _attention_case(np.random.default_rng(27))
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    with T.no_grad():
        out, _ = T.bilinear_attention(*leaves[:4], leaves[4:], *fixed)
    assert not out.requires_grad and out._backward is None and out._parents == ()
