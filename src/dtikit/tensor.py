"""Dense-tensor reverse-mode autodiff on numpy.

Small by design: exactly the primitives the interaction model needs, each
with a hand-written backward closure. The graph is dynamic; calling an op
on tensors that require gradients records the op, and ``Tensor.backward``
walks the recorded graph once in reverse topological order.

Shape discipline is strict. Elementwise ops demand identical shapes, the
only exception being a true scalar (python number or 0-d array) on either
side. Anything else must go through an explicit ``expand`` or ``add_bias``
so that shape bugs surface at the call site instead of broadcasting away.

Default precision is float64. ``set_default_dtype(np.float32)`` trades
gradient-check headroom for speed; tests always run in float64.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class MissingGradient(RuntimeError):
    pass


_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    if dtype not in (np.float32, np.float64):
        raise ValueError("dtype must be np.float32 or np.float64")
    _DEFAULT_DTYPE = dtype


def default_dtype():
    return _DEFAULT_DTYPE


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into the graph."""
        if self.data.size != 1:
            raise NonScalarLoss(f"backward requires a scalar, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            # the closure and parent refs are one-shot; drop them so long
            # training runs do not retain every intermediate buffer
            node._backward = None
            node._parents = ()

    # operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    order.reverse()
    return order


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=_DEFAULT_DTYPE))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad or p._parents)
        out._backward = backward
    return out


def _check_elementwise(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise ShapeMismatch(f"{opname}: {a.data.shape} vs {b.data.shape}")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # only scalar-vs-array mixing is permitted, so the sole reduction
    # ever needed is a full sum back to the 0-d operand
    if shape == ():
        return np.asarray(g.sum())
    return g


# elementwise ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_elementwise(a, b, "add")

    def backward(g):
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_elementwise(a, b, "sub")

    def backward(g):
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_elementwise(a, b, "mul")

    def backward(g):
        _accum(a, _reduce_to(g * b.data, a.data.shape))
        _accum(b, _reduce_to(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    _check_elementwise(a, b, "div")

    def backward(g):
        _accum(a, _reduce_to(g / b.data, a.data.shape))
        _accum(b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(a.data / b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        _accum(a, -g)

    return _make(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise a**exponent for a fixed python exponent."""
    a = _wrap(a)
    exponent = float(exponent)
    out_data = a.data**exponent

    def backward(g):
        if exponent == 0.0:
            _accum(a, np.zeros_like(a.data))
        else:
            _accum(a, g * exponent * a.data ** (exponent - 1.0))

    return _make(out_data, (a,), backward)


def square(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        _accum(a, g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), backward)


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accum(a, g * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        _accum(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def sqrt(a) -> Tensor:
    a = _wrap(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


# activations ------------------------------------------------------------


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def sigmoid_values(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic on plain arrays: exp only ever sees
    non-positive arguments."""
    z = np.asarray(z)
    e = np.exp(np.where(z >= 0, -z, z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    s = sigmoid_values(a.data)

    def backward(g):
        _accum(a, g * s * (1.0 - s))

    return _make(s, (a,), backward)


def silu(a) -> Tensor:
    a = _wrap(a)
    s = sigmoid_values(a.data)

    def backward(g):
        _accum(a, g * (s + a.data * s * (1.0 - s)))

    return _make(a.data * s, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _make(y, (a,), backward)


# reductions and shape ops -----------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if axis is None:
            _accum(a, np.full_like(a.data, float(g)))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]

    def backward(g):
        if axis is None:
            _accum(a, np.full_like(a.data, float(g) / count))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape).copy() / count)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = _wrap(a)
    if axes is None and a.data.ndim != 2:
        raise ShapeMismatch(f"transpose without axes expects 2-d, got {a.data.shape}")

    def backward(g):
        if axes is None:
            _accum(a, g.T)
        else:
            _accum(a, g.transpose(np.argsort(axes)))

    return _make(a.data.transpose(axes), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    original = a.data.shape

    def backward(g):
        _accum(a, g.reshape(original))

    return _make(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def index_select(a, axis: int, indices) -> Tensor:
    """Gather along an axis with an integer index array; scatter-add on backward."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        if not a.requires_grad:
            return
        da = np.zeros_like(a.data)
        moved = np.moveaxis(da, axis, 0)
        np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        _accum(a, da)

    return _make(np.take(a.data, idx, axis=axis), (a,), backward)


def expand(a, axis: int, n: int) -> Tensor:
    """Insert a new axis of length n by repetition (the only broadcast allowed)."""
    a = _wrap(a)

    def backward(g):
        _accum(a, g.sum(axis=axis))

    return _make(np.repeat(np.expand_dims(a.data, axis), n, axis=axis), (a,), backward)


# linear algebra ---------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), backward)


def add_bias(x, b) -> Tensor:
    """Row-wise bias: x[N, C] + b[C]. The one sanctioned non-scalar broadcast."""
    x, b = _wrap(x), _wrap(b)
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"add_bias: {x.data.shape} + {b.data.shape}")

    def backward(g):
        _accum(x, g)
        _accum(b, g.sum(axis=0))

    return _make(x.data + b.data[None, :], (x, b), backward)


# sequence / structured ops ----------------------------------------------


def conv1d(x, w, b=None, stride: int = 1, padding: tuple[int, int] = (0, 0)) -> Tensor:
    """1-d convolution over x[L, Cin] with kernel w[K, Cin, Cout].

    Padding is explicit (left, right) zeros so even kernel widths can keep
    length exactly; output length is (L + pl + pr - K) // stride + 1.
    """
    x, w = _wrap(x), _wrap(w)
    if b is not None:
        b = _wrap(b)
    K, cin, cout = w.data.shape
    if x.data.ndim != 2 or x.data.shape[1] != cin:
        raise ShapeMismatch(f"conv1d: input {x.data.shape} vs kernel {w.data.shape}")
    pl, pr = padding
    xp = np.pad(x.data, ((pl, pr), (0, 0)))
    lout = (xp.shape[0] - K) // stride + 1
    if lout <= 0:
        raise ShapeMismatch(f"conv1d: empty output for input {x.data.shape}, kernel {K}")
    windows = np.lib.stride_tricks.sliding_window_view(xp, K, axis=0)[::stride]
    # windows: [lout, Cin, K] -> einsum to [lout, Cout]
    out = np.einsum("lck,kco->lo", windows, w.data, optimize=True)
    if b is not None:
        out = out + b.data[None, :]

    def backward(g):
        if w.requires_grad:
            _accum(w, np.einsum("lck,lo->kco", windows, g, optimize=True))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=0))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for k in range(K):
                dxp[k : k + stride * lout : stride] += g @ w.data[k].T
            _accum(x, dxp[pl : pl + x.data.shape[0]])

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, backward)


def maxpool1d(x, window: int, stride: int | None = None) -> Tensor:
    """Non-overlapping max pool over axis 0 of x[L, C]; a ragged tail forms a final window."""
    x = _wrap(x)
    if stride is None:
        stride = window
    if stride != window:
        raise ShapeMismatch("maxpool1d supports stride == window only")
    L, C = x.data.shape
    lout = -(-L // window)
    padded = np.full((lout * window, C), -np.inf, dtype=x.data.dtype)
    padded[:L] = x.data
    blocks = padded.reshape(lout, window, C)
    arg = blocks.argmax(axis=1)
    out = np.take_along_axis(blocks, arg[:, None, :], axis=1)[:, 0, :]

    def backward(g):
        if not x.requires_grad:
            return
        dblocks = np.zeros_like(blocks)
        np.put_along_axis(dblocks, arg[:, None, :], g[:, None, :], axis=1)
        _accum(x, dblocks.reshape(lout * window, C)[:L])

    return _make(out, (x,), backward)


def avgpool1d(x, window: int) -> Tensor:
    """Non-overlapping mean pool of a 1-d vector; a ragged tail averages its true width."""
    x = _wrap(x)
    if x.data.ndim != 1:
        raise ShapeMismatch(f"avgpool1d expects 1-d input, got {x.data.shape}")
    L = x.data.shape[0]
    lout = -(-L // window)
    counts = np.full(lout, window, dtype=x.data.dtype)
    if L % window:
        counts[-1] = L % window
    padded = np.zeros(lout * window, dtype=x.data.dtype)
    padded[:L] = x.data
    out = padded.reshape(lout, window).sum(axis=1) / counts

    def backward(g):
        if not x.requires_grad:
            return
        gpad = np.repeat(g / counts, window)
        _accum(x, gpad[:L])

    return _make(out, (x,), backward)


def topk_pool(x, k: int) -> Tensor:
    """Keep the k largest entries of each column of x[M, C], sorted descending.

    Column-independent, so the result is invariant to row permutations of
    the input; ties resolve by original row order (stable sort).
    """
    x = _wrap(x)
    M, C = x.data.shape
    if not 1 <= k <= M:
        raise ShapeMismatch(f"topk_pool: k={k} out of range for {M} rows")
    order = np.argsort(-x.data, axis=0, kind="stable")[:k]
    out = np.take_along_axis(x.data, order, axis=0)

    def backward(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, order, g, axis=0)
        _accum(x, dx)

    return _make(out, (x,), backward)


def embedding_lookup(table, ids) -> Tensor:
    table = _wrap(table)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeMismatch(f"embedding_lookup expects 1-d ids, got {idx.shape}")

    def backward(g):
        if not table.requires_grad:
            return
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        _accum(table, dt)

    return _make(table.data[idx], (table,), backward)


def batch_stat_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-feature normalization of x[N, C] by its own rows' statistics.

    There is no running state: every call, in training and in evaluation
    alike, standardizes over the rows it is given (a single row maps to
    beta).
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.data.ndim != 2 or gamma.data.shape != (x.data.shape[1],):
        raise ShapeMismatch(f"batch_stat_norm: x {x.data.shape}, gamma {gamma.data.shape}")
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :]) * inv[None, :]
    out = xhat * gamma.data[None, :] + beta.data[None, :]

    def backward(g):
        _accum(gamma, (g * xhat).sum(axis=0))
        _accum(beta, g.sum(axis=0))
        if not x.requires_grad:
            return
        gm = g.mean(axis=0)
        gxm = (g * xhat).mean(axis=0)
        dx = (gamma.data * inv)[None, :] * (g - gm[None, :] - xhat * gxm[None, :])
        _accum(x, dx)

    return _make(out, (x, gamma, beta), backward)


def grad_reverse(x, scale: float = 1.0) -> Tensor:
    """Identity forward; backward multiplies the gradient by -scale."""
    x = _wrap(x)
    scale = float(scale)

    def backward(g):
        _accum(x, -scale * g)

    return _make(x.data.copy(), (x,), backward)


def bce_with_logits(logits, targets) -> Tensor:
    """Elementwise binary cross entropy on raw logits, numerically stable.

    max(z, 0) - z*t + log(1 + exp(-|z|)); gradient is sigmoid(z) - t.
    Targets are data, not graph nodes.
    """
    z = _wrap(logits)
    t = np.asarray(targets, dtype=z.data.dtype)
    if t.shape != z.data.shape:
        raise ShapeMismatch(f"bce_with_logits: {z.data.shape} vs targets {t.shape}")
    out = np.maximum(z.data, 0.0) - z.data * t + np.log1p(np.exp(-np.abs(z.data)))

    def backward(g):
        _accum(z, g * (sigmoid_values(z.data) - t))

    return _make(out, (z,), backward)


def cosine_similarity(a, b, eps: float = 1e-12) -> Tensor:
    """Cosine similarity of two 1-d tensors; returns a 0-d tensor."""
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeMismatch(f"cosine_similarity: {a.data.shape} vs {b.data.shape}")
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na < eps or nb < eps:
        # degenerate direction: similarity pinned to 0, no gradient path
        return Tensor(np.asarray(0.0, dtype=a.data.dtype))
    dot = tsum(mul(a, b))
    denom = sqrt(tsum(square(a))) * sqrt(tsum(square(b)))
    return div(dot, denom)
