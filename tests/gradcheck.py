"""Finite-difference gradient checking shared by unit and acceptance tests.

Each registered case builds a scalar loss from one primitive (plus the
reductions needed to get a scalar). check_case compares the recorded
backward pass against central differences. Ops that deliberately lie to
the backward pass (gradient reversal) declare the expected relation via
``transform`` applied to the numeric gradient.
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
        fp = fn(*[T.Tensor(a) for a in arrays]).item()
        flat[i] = orig - h
        fm = fn(*[T.Tensor(a) for a in arrays]).item()
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
        analytic = t.grad if t.grad is not None else np.zeros_like(arrays[i])
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
    cases["neg"] = (lambda a: _weighted(T.neg(a), w_nm), [rng.normal(size=(n, m))])
    cases["power"] = (
        lambda a: _weighted(T.power(a, 1.7), w_nm),
        [rng.uniform(0.2, 2.0, size=(n, m))],
    )
    cases["square"] = (lambda a: _weighted(T.square(a), w_nm), [rng.normal(size=(n, m))])
    cases["exp"] = (lambda a: _weighted(T.exp(a), w_nm), [rng.normal(size=(n, m))])
    cases["log"] = (lambda a: _weighted(T.log(a), w_nm), [rng.uniform(0.2, 3.0, size=(n, m))])
    cases["sqrt"] = (lambda a: _weighted(T.sqrt(a), w_nm), [rng.uniform(0.2, 3.0, size=(n, m))])
    cases["relu"] = (lambda a: _weighted(T.relu(a), w_nm), [_away_from_zero(rng, (n, m))])
    cases["sigmoid"] = (lambda a: _weighted(T.sigmoid(a), w_nm), [rng.normal(size=(n, m))])
    cases["silu"] = (lambda a: _weighted(T.silu(a), w_nm), [rng.normal(size=(n, m))])
    cases["softmax"] = (
        lambda a: _weighted(T.softmax(a, axis=1), w_nm),
        [rng.normal(size=(n, m))],
    )
    w_m = rng.normal(size=m)
    cases["sum_axis"] = (lambda a: _weighted(T.tsum(a, axis=0), w_m), [rng.normal(size=(n, m))])
    cases["mean_axis"] = (lambda a: T.tsum(T.tmean(a, axis=1)), [rng.normal(size=(n, m))])
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
    cases["add_bias"] = (
        lambda a, b: _weighted(T.add_bias(a, b), w_nm),
        [rng.normal(size=(n, m)), rng.normal(size=m)],
    )

    L = int(rng.integers(6, 11))
    cin = int(rng.integers(2, 4))
    cout = int(rng.integers(2, 4))
    kw = int(rng.integers(2, 4))
    wc = rng.normal(size=(L, cout))
    cases["conv1d"] = (
        lambda x, w, b: _weighted(T.conv1d(x, w, b, padding=((kw - 1) // 2, kw // 2)), wc),
        [rng.normal(size=(L, cin)), rng.normal(size=(kw, cin, cout)), rng.normal(size=cout)],
    )
    pool_in = rng.normal(size=(L, cin)) + np.linspace(0, 0.013, L * cin).reshape(L, cin)
    w_pool = rng.normal(size=(-(-L // 2), cin))
    cases["maxpool1d"] = (lambda x: _weighted(T.maxpool1d(x, 2), w_pool), [pool_in])
    vec = rng.normal(size=L)
    w_vec = rng.normal(size=-(-L // 3))
    cases["avgpool1d"] = (lambda x: _weighted(T.avgpool1d(x, 3), w_vec), [vec])
    keep = int(rng.integers(1, L))
    w_keep = rng.normal(size=(keep, cin))
    cases["topk_pool"] = (lambda x: _weighted(T.topk_pool(x, keep), w_keep), [pool_in.copy()])
    vocab = 6
    ids = rng.integers(0, vocab, size=L)
    w_emb = rng.normal(size=(L, m))
    cases["embedding_lookup"] = (
        lambda tab: _weighted(T.embedding_lookup(tab, ids), w_emb),
        [rng.normal(size=(vocab, m))],
    )

    cases["batch_stat_norm"] = (
        lambda x, g, b: _weighted(T.batch_stat_norm(x, g, b), w_nm),
        [rng.normal(size=(n, m)), rng.uniform(0.5, 1.5, size=m), rng.normal(size=m)],
    )

    scale = float(rng.uniform(0.5, 2.0))
    cases["grad_reverse"] = (
        lambda x: _weighted(T.grad_reverse(x, scale), w_nm),
        [rng.normal(size=(n, m))],
        lambda g: -scale * g,
    )
    targets = (rng.random((n, m)) < 0.5).astype(float)
    cases["bce_with_logits"] = (
        lambda z: _weighted(T.bce_with_logits(z, targets), np.abs(w_nm)),
        [rng.normal(size=(n, m))],
    )
    cases["cosine_similarity"] = (
        lambda a, b: T.cosine_similarity(a, b),
        [_away_from_zero(rng, L), _away_from_zero(rng, L)],
    )
    return cases


def run_case(name: str, case: tuple, rel_tol: float = 1e-4) -> float:
    if len(case) == 3:
        fn, arrays, transform = case
    else:
        (fn, arrays), transform = case, None
    return check_case(fn, arrays, rel_tol=rel_tol, transform=transform)
