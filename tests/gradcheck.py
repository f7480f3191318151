"""Finite-difference gradient checking shared by unit and acceptance tests.

Each registered case builds a scalar loss from one primitive (plus the
reductions needed to get a scalar). check_case compares the recorded
backward pass against central differences, and fails an operand that
received no gradient at all. Ops that deliberately lie to the backward
pass (gradient reversal) declare the expected relation via ``transform``
applied to the numeric gradient.
"""

from __future__ import annotations

import numpy as np

from dtikit import tensor as T


def _weighted(out: T.Tensor, weights: np.ndarray) -> T.Tensor:
    return T.tsum(T.mul(out, T.Tensor(weights)))


def numeric_gradient(fn, arrays: list[np.ndarray], index: int, h: float = 1e-5) -> np.ndarray:
    grad = np.zeros_like(arrays[index])
    flat = arrays[index].reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(fn(*[T.Tensor(a) for a in arrays]).data)
        flat[i] = orig - h
        fm = float(fn(*[T.Tensor(a) for a in arrays]).data)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def check_case(fn, arrays: list[np.ndarray], rel_tol: float = 1e-4, transform=None) -> float:
    """Assert analytic vs numeric gradients agree; returns worst relative error."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    loss = fn(*tensors)
    loss.backward()
    worst = 0.0
    for i, t in enumerate(tensors):
        # every op accumulates into each operand, zeros included: backward
        # runs a queued node's closure on its gradient with no None check
        assert t.grad is not None, f"no gradient reached operand {i}"
        analytic = t.grad
        numeric = numeric_gradient(fn, arrays, i)
        if transform is not None:
            numeric = transform(numeric)
        scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
        err = float(np.abs(analytic - numeric).max(initial=0.0) / scale)
        worst = max(worst, err)
        assert err < rel_tol, f"gradient mismatch (rel err {err:.2e}) on operand {i}"
    return worst


def _away_from_zero(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform magnitudes in [0.1, 2] with random signs; avoids relu/abs kinks."""
    mag = rng.uniform(0.1, 2.0, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _clear_of_kink(rng: np.random.Generator, shapes, pre, margin: float = 1e-2) -> list:
    """Normal operands of the given shapes, redrawn until every value of
    `pre(*arrays)` (the pre-activations of a fused relu) is at least
    `margin` from zero, so no finite-difference probe crosses the kink."""
    while True:
        arrays = [rng.normal(size=shape) for shape in shapes]
        if np.abs(pre(*arrays)).min() >= margin:
            return arrays


def op_cases(rng: np.random.Generator) -> dict[str, tuple]:
    """One randomized (fn, arrays[, transform]) case per tensor primitive."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    k = int(rng.integers(2, 4))
    w_nm = rng.normal(size=(n, m))
    w_nk = rng.normal(size=(n, k))

    cases: dict[str, tuple] = {}

    def ew(op):
        return lambda a, b: _weighted(op(a, b), w_nm)

    two = [rng.normal(size=(n, m)), _away_from_zero(rng, (n, m))]
    cases["add"] = (ew(T.add), [a.copy() for a in two])
    cases["sub"] = (ew(T.sub), [a.copy() for a in two])
    cases["mul"] = (ew(T.mul), [a.copy() for a in two])
    cases["div"] = (ew(T.div), [a.copy() for a in two])
    cases["scalar_mix"] = (
        lambda a, s: _weighted(T.add(T.mul(a, s), s), w_nm),
        [rng.normal(size=(n, m)), rng.normal(size=())],
    )
    cases["square"] = (lambda a: _weighted(T.square(a), w_nm), [rng.normal(size=(n, m))])
    cases["log"] = (lambda a: _weighted(T.log(a), w_nm), [rng.uniform(0.2, 3.0, size=(n, m))])
    cases["sqrt"] = (lambda a: _weighted(T.sqrt(a), w_nm), [rng.uniform(0.2, 3.0, size=(n, m))])
    cases["silu"] = (lambda a: _weighted(T.silu(a), w_nm), [rng.normal(size=(n, m))])
    cases["softmax"] = (
        lambda a: _weighted(T.softmax(a, axis=1), w_nm),
        [rng.normal(size=(n, m))],
    )
    w_m = rng.normal(size=m)
    cases["tsum_axis"] = (lambda a: _weighted(T.tsum(a, axis=0), w_m), [rng.normal(size=(n, m))])
    cases["tmean_axis"] = (lambda a: T.tsum(T.tmean(a, axis=1)), [rng.normal(size=(n, m))])
    cases["tmean_last_axis"] = (
        lambda a: _weighted(T.tmean(a, axis=2), w_nm), [rng.normal(size=(n, m, 3))]
    )
    cases["transpose"] = (lambda a: _weighted(T.transpose(a), w_nm.T.copy()), [rng.normal(size=(n, m))])
    cases["reshape"] = (
        lambda a: _weighted(T.reshape(a, (m, n)), w_nm.reshape(m, n)),
        [rng.normal(size=(n, m))],
    )
    cases["concat"] = (
        lambda a, b: _weighted(T.concat([a, b], axis=0), np.vstack([w_nm, w_nm])),
        [rng.normal(size=(n, m)), rng.normal(size=(n, m))],
    )
    idx = rng.integers(0, n, size=n + 2)
    w_idx = rng.normal(size=(n + 2, m))
    cases["index_select"] = (
        lambda a: _weighted(T.index_select(a, 0, idx), w_idx),
        [rng.normal(size=(n, m))],
    )
    w_knm = rng.normal(size=(k, n, m))
    cases["expand"] = (
        lambda a: _weighted(T.expand(a, 0, k), w_knm),
        [rng.normal(size=(n, m))],
    )
    cases["matmul"] = (
        lambda a, b: _weighted(T.matmul(a, b), w_nk),
        [rng.normal(size=(n, m)), rng.normal(size=(m, k))],
    )

    def matmul_bias_cases(name, x_shape, w_out):
        shapes = [x_shape, (m, k), (k,)]
        cases[name] = (
            lambda x, w, b: _weighted(T.matmul(x, w, b), w_out),
            [rng.normal(size=shape) for shape in shapes],
        )
        cases[name + "_relu"] = (
            lambda x, w, b: _weighted(T.matmul(x, w, b, relu=True), w_out),
            _clear_of_kink(rng, shapes, lambda x, w, b: T.matmul(x, w, b).data),
        )

    matmul_bias_cases("matmul_bias", (n, m), w_nk)

    # batched forms: a leading axis of k samples
    w_knk = rng.normal(size=(k, n, k))
    cases["matmul_batched_rows"] = (
        lambda a, b: _weighted(T.matmul(a, b), w_knk),
        [rng.normal(size=(k, n, m)), rng.normal(size=(m, k))],
    )
    cases["bmm"] = (
        lambda a, b: _weighted(T.bmm(a, b), w_knk),
        [rng.normal(size=(k, n, m)), rng.normal(size=(k, m, k))],
    )
    cases["bmm_relu"] = (
        lambda a, b: _weighted(T.bmm(a, b, relu=True), w_knk),
        _clear_of_kink(rng, [(k, n, m), (k, m, k)], lambda a, b: a @ b),
    )
    cases["transpose_batched"] = (
        lambda a: _weighted(T.transpose(a), np.swapaxes(w_knm, 1, 2).copy()),
        [rng.normal(size=(k, n, m))],
    )
    matmul_bias_cases("matmul_bias_batched_rows", (k, n, m), w_knk)

    L = int(rng.integers(6, 11))
    cin = int(rng.integers(2, 4))
    cout = int(rng.integers(2, 4))
    kw = int(rng.integers(2, 4))  # an even width pads one more zero on the right

    def conv(x, w, b):
        return T.conv1d_relu(x, w, b)

    def conv_pre(x, w, b):
        # the convolution is linear in (w, b), so relu(z) - relu(-z) = z
        return conv(x, w, b).data - conv(x, -w, -b).data

    for name, lead in (("conv1d_relu", ()), ("conv1d_relu_batched", (2,))):
        wc = rng.normal(size=(*lead, L, cout))
        cases[name] = (
            lambda x, w, b, wc=wc: _weighted(conv(x, w, b), wc),
            _clear_of_kink(rng, [(*lead, L, cin), (kw, cin, cout), (cout,)], conv_pre),
        )
    ramp = np.linspace(0, 0.013, L * cin).reshape(L, cin)
    pool_in = rng.normal(size=(L, cin)) + ramp
    w_pool = rng.normal(size=(-(-L // 2), cin))
    cases["maxpool1d"] = (lambda x: _weighted(T.maxpool1d(x), w_pool), [pool_in])
    w_pool2 = rng.normal(size=(2, -(-L // 2), cin))
    cases["maxpool1d_batched"] = (
        lambda x: _weighted(T.maxpool1d(x), w_pool2),
        [rng.normal(size=(2, L, cin)) + ramp],
    )
    vocab = 6
    ids = rng.integers(0, vocab, size=L)
    w_emb = rng.normal(size=(L, m))
    cases["index_select_ids"] = (
        lambda tab: _weighted(T.index_select(tab, 0, ids), w_emb),
        [rng.normal(size=(vocab, m))],
    )
    ids2 = rng.integers(0, vocab, size=(2, L))
    w_emb2 = rng.normal(size=(2, L, m))
    cases["index_select_ids_batched"] = (
        lambda tab: _weighted(T.index_select(tab, 0, ids2), w_emb2),
        [rng.normal(size=(vocab, m))],
    )

    cases["batch_stat_norm"] = (
        lambda x, g, b: _weighted(T.batch_stat_norm(x, g, b), w_nm),
        [rng.normal(size=(n, m)), rng.uniform(0.5, 1.5, size=m), rng.normal(size=m)],
    )
    rows = n + 2
    row_mask = np.ones((k, rows), dtype=bool)
    row_mask[0, 2:] = False  # a sample with two real rows and n pad rows
    row_mask[1:, rng.integers(0, rows)] = False
    w_krm = rng.normal(size=(k, rows, m))
    cases["batch_stat_norm_masked"] = (
        lambda x, g, b: _weighted(T.batch_stat_norm(x, g, b, row_mask), w_krm),
        [rng.normal(size=(k, rows, m)), rng.uniform(0.5, 1.5, size=m), rng.normal(size=m)],
    )

    # bilinear attention: 3 drugs of up to 4 atoms, 2 proteins of 5
    # residues with 5 and 3 real, 5 pairs sharing both sides, 2 heads
    atoms, res, J = 4, 5, 3
    v_mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]], dtype=bool)
    u_real = np.array([5, 3])
    v_idx, u_idx = np.array([0, 1, 2, 1, 0]), np.array([0, 0, 1, 1, 1])
    w_pair = rng.normal(size=(len(v_idx), J))
    cases["bilinear_attention"] = (
        lambda v, u, q0, q1: _weighted(
            T.bilinear_attention(v, u, [q0, q1], v_mask, u_real, v_idx, u_idx)[0], w_pair
        ),
        [rng.normal(size=(3, atoms, J)), rng.normal(size=(2, res, J)),
         rng.normal(size=J), rng.normal(size=J)],
    )

    cases["grad_reverse"] = (
        lambda x: _weighted(T.grad_reverse(x), w_nm),
        [rng.normal(size=(n, m))],
        lambda g: -g,
    )
    targets = (rng.random((n, m)) < 0.5).astype(float)
    cases["bce_with_logits"] = (
        lambda z: _weighted(T.bce_with_logits(z, targets), np.abs(w_nm)),
        [rng.normal(size=(n, m))],
    )
    cases["cosine_rows"] = (
        lambda a, b: _weighted(T.cosine_rows(a, b), w_nm[:, 0].copy()),
        [_away_from_zero(rng, (n, m)), _away_from_zero(rng, (n, m))],
    )
    ids_nm = rng.integers(0, m, size=(2, 3))
    w_ids_nm = rng.normal(size=(n, 2, 3))
    cases["index_select_ids_axis1"] = (
        lambda a: _weighted(T.index_select(a, 1, ids_nm), w_ids_nm),
        [rng.normal(size=(n, m))],
    )
    # the bilinear attention case above again, one u row set at a time and
    # in blocks of two pairs
    map_bytes = res * J * 8
    for name, budget in (("per_u_row_set", map_bytes - 1), ("blocks_of_two", 2 * map_bytes)):
        cases[f"bilinear_attention_{name}"] = (
            _with_block_bytes(budget, lambda v, u, q0, q1: _weighted(
                T.bilinear_attention(v, u, [q0, q1], v_mask, u_real, v_idx, u_idx)[0], w_pair
            )),
            [rng.normal(size=(3, atoms, J)), rng.normal(size=(2, res, J)),
             rng.normal(size=J), rng.normal(size=J)],
        )
    return cases


def _with_block_bytes(budget: int, fn):
    """`fn` run with bilinear attention's block budget set to `budget`; an
    op keeps the path its forward took, so its backward needs no budget."""

    def run(*args):
        saved = T.ATTENTION_BLOCK_BYTES
        T.ATTENTION_BLOCK_BYTES = budget
        try:
            return fn(*args)
        finally:
            T.ATTENTION_BLOCK_BYTES = saved

    return run


def run_case(name: str, case: tuple, rel_tol: float = 1e-4) -> float:
    if len(case) == 3:
        fn, arrays, transform = case
    else:
        (fn, arrays), transform = case, None
    return check_case(fn, arrays, rel_tol=rel_tol, transform=transform)
