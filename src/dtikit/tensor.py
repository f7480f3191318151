"""Dense-tensor reverse-mode autodiff on numpy.

Small by design: exactly the primitives the interaction model needs, each
with a hand-written backward closure. The graph is dynamic: an op on
tensors that require gradients records a node stamped with its creation
count. ``Tensor.backward`` runs the pending node with the highest stamp
and queues its parents; a node is made after its parents, so its gradient
is complete by then. A spent node drops its closure, its parents and,
unless it is the root, its gradient, so buffers go as the pass moves on.

The ops: elementwise ``add``, ``sub``, ``mul``, ``div``, ``square``,
``log``, ``sqrt``; activations ``silu``, ``softmax``; ``tsum`` and ``tmean``
over one axis or all; ``transpose`` of the last two axes, ``reshape``,
``concat``, ``index_select``, ``expand``; ``matmul`` of any batch of rows by
a weight matrix, with an optional bias and relu fused into the same node,
and the batched ``bmm`` with an optional relu; the same-length
``conv1d_relu`` (convolution, bias and relu as one node) and ``maxpool1d``
over row pairs, each over one sample or a batch; the masked per-sample
``batch_stat_norm``, the fused multi-head ``bilinear_attention`` with the
relu lift of its protein rows inside, ``grad_reverse``, ``bce_with_logits``
and the row-wise ``cosine_rows``.

Shape discipline is strict. Elementwise ops demand identical shapes, the
only exception being a true scalar (python number or 0-d array) on either
side. Anything else must go through an explicit ``expand``, or be a bias
inside ``matmul`` or ``conv1d_relu``, so that shape bugs surface at the
call site instead of broadcasting away.  The four binary elementwise ops
share one body: backward forms an operand's gradient only when that
operand requires one, and sums it back to a 0-d operand.

Relu exists only fused into ``matmul``, ``bmm``, ``conv1d_relu`` or the
protein lift of ``bilinear_attention``, and keeps only its node's output:
the mask its backward needs is ``out > 0``, set exactly where the input
was positive.

The bilinear attention takes its path from the size of one protein map:
pairs whose gathered maps fit in ATTENTION_BLOCK_BYTES run a block at a
time as stacked products over one lift of every protein row, larger maps
one protein at a time, lifting and scoring its real rows only.
Its softmax clamps the shifted scores at EXP_FLOOR and zeroes the padded
cells afterwards, so exp never takes its slow path on an underflowing score.

Gradients accumulate without zero-filling: a node adopts its first
incoming gradient when dtype, shape and strides match its data, and
otherwise copies it into a buffer laid out like the data.  An adopted
array may also be another node's gradient, so it is never written into; a
second contribution goes to a fresh buffer that the node owns from then
on.  Keeping the data's layout keeps the bytes of adding into zeros: a
reduction such as ``batch_stat_norm``'s column mean sums a C-ordered and an
F-ordered array in different orders.

Every op computes and allocates in its inputs' dtype, float64 or float32:
``Tensor`` and ``_wrap`` keep a floating array's dtype and turn anything
else into float64, and a plain number or array on one side of an
elementwise op takes the other side's dtype.  Mixing a float32 tensor with
a float64 one is a caller's bug that numpy would answer with a float64
result.  The softmax floor EXP_FLOOR is per dtype, just above the log of
the smallest normal number: -700 for float64 (whose limit is -708.4) and
-87 for float32 (-87.3).  PAD_MASK_BIAS (-1e30) is finite in both, and
ZERO_NORM_EPS (1e-12) and its square are normal float32 numbers, so a
zero row is told from a live one alike in both dtypes.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonScalarLoss(ValueError):
    pass


class MissingGradient(RuntimeError):
    pass


# additive score of a padded cell: it never reaches a map's maximum, and
# exp() of it is exactly zero
PAD_MASK_BIAS = -1e30
# floor of the shifted scores of the masked softmax, per dtype: exp of it
# is still a normal number, so exp never takes its slow underflow path
EXP_FLOOR = {np.dtype(np.float64): -700.0, np.dtype(np.float32): -87.0}
# bytes of gathered u maps that one block of bilinear-attention pairs holds
ATTENTION_BLOCK_BYTES = 1 << 20
NORM_EPS = 1e-5  # variance floor of every standardisation
ZERO_NORM_EPS = 1e-12  # a row with a smaller norm has no direction
_GRAD_ENABLED = True
_CREATED = itertools.count()  # creation stamps of recorded nodes


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
    # _seq, the creation stamp, is set on recorded nodes only
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_owns_grad", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else np.asarray(data, dtype=np.float64)
        self.grad = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into the graph."""
        if self.data.size != 1:
            raise NonScalarLoss(f"backward requires a scalar, got shape {self.data.shape}")
        self.grad = np.ones_like(self.data)
        # (-stamp, node): stamps are unique, so two nodes are never compared
        pending = [(-self._seq, self)] if self._backward is not None else []
        queued = set()  # stamps pushed; the root is no node's parent
        while pending:
            node = heapq.heappop(pending)[1]
            node._backward(node.grad)
            for parent in node._parents:
                if parent._backward is not None and parent._seq not in queued:
                    queued.add(parent._seq)
                    heapq.heappush(pending, (-parent._seq, parent))
            node._backward, node._parents = None, ()
            if node is not self:
                node.grad = None

    # operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)


def _wrap(value, like=None) -> Tensor:
    """`value` as a tensor; a plain value takes `like`'s dtype when `like`
    is a tensor, as the other operand of an elementwise op is."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype if isinstance(like, Tensor) else None))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        if (
            type(g) is np.ndarray
            and g.dtype == t.data.dtype
            and g.shape == t.data.shape
            and g.strides == t.data.strides
        ):
            t.grad = g  # borrowed: never written into
            t._owns_grad = False
        else:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g
            t._owns_grad = True
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.data))
        t._owns_grad = True


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
        out._seq = next(_CREATED)
    return out


# elementwise ------------------------------------------------------------


def _elementwise(a, b, name: str, out, grads) -> Tensor:
    """The node of `out(a, b)`, a binary ufunc, whose backward gives each
    operand that requires a gradient `grad(g, a, b)` from `grads`, one per
    operand in order, summed back to a 0-d operand."""
    a, b = _wrap(a, b), _wrap(b, a)
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise ShapeMismatch(f"{name}: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        for t, grad in zip((a, b), grads):
            if t.requires_grad:
                d = grad(g, a.data, b.data)
                _accum(t, np.asarray(d.sum()) if t.data.ndim == 0 else d)

    return _make(out(a.data, b.data), (a, b), backward)


def add(a, b) -> Tensor:
    return _elementwise(a, b, "add", np.add, (lambda g, x, y: g, lambda g, x, y: g))


def sub(a, b) -> Tensor:
    return _elementwise(a, b, "sub", np.subtract, (lambda g, x, y: g, lambda g, x, y: -g))


def mul(a, b) -> Tensor:
    return _elementwise(a, b, "mul", np.multiply, (lambda g, x, y: g * y, lambda g, x, y: g * x))


def div(a, b) -> Tensor:
    return _elementwise(
        a, b, "div", np.divide, (lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))
    )


def square(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        _accum(a, g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), backward)


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


def sigmoid_values(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic on plain arrays: exp only ever sees
    non-positive arguments."""
    z = np.asarray(z)
    e = np.exp(np.where(z >= 0, -z, z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def tsum(a, axis=None) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if axis is None:
            _accum(a, np.full_like(a.data, float(g)))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _make(a.data.sum(axis=axis), (a,), backward)


def tmean(a, axis=None) -> Tensor:
    a = _wrap(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]

    def backward(g):
        if axis is None:
            _accum(a, np.full_like(a.data, float(g) / count))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy() / count)

    return _make(a.data.mean(axis=axis), (a,), backward)


def transpose(a) -> Tensor:
    """Swap the last two axes: a matrix transpose, or one per batch entry."""
    a = _wrap(a)
    if a.data.ndim < 2:
        raise ShapeMismatch(f"transpose expects at least 2-d, got {a.data.shape}")

    def backward(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.data, -1, -2), (a,), backward)


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
    """Gather along an axis with an integer index array; scatter-add on
    backward.  The index array may have any shape, its axes taking the
    gathered axis's place (along axis 0: an embedding lookup of token ids)."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    axis = range(a.data.ndim)[axis]  # non-negative, so the index axes start at it

    def backward(g):
        da = np.zeros_like(a.data)
        moved = np.moveaxis(da, axis, 0)
        np.add.at(moved, idx, np.moveaxis(g, range(axis, axis + idx.ndim), range(idx.ndim)))
        _accum(a, da)

    return _make(np.take(a.data, idx, axis=axis), (a,), backward)


def expand(a, axis: int, n: int) -> Tensor:
    """Insert a new axis of length n by repetition (the only broadcast allowed)."""
    a = _wrap(a)

    def backward(g):
        _accum(a, g.sum(axis=axis))

    return _make(np.repeat(np.expand_dims(a.data, axis), n, axis=axis), (a,), backward)


# linear algebra ---------------------------------------------------------


def matmul(a, b, bias=None, relu: bool = False) -> Tensor:
    """a[..., K] @ b[K, N], plus bias[N] and through a relu when asked, as
    one node: a matrix product, or one weight matrix applied to every row of
    a batch, computed as a single 2-d product.

    The bias and the relu are applied in place on the fresh product, so the
    node keeps its output and nothing else: backward takes the relu mask
    from the output as ``out > 0``.
    """
    a, b = _wrap(a), _wrap(b)
    bias = None if bias is None else _wrap(bias)
    if (a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]
            or (bias is not None and bias.data.shape != b.data.shape[1:])):
        extra = "" if bias is None else f" + {bias.data.shape}"
        raise ShapeMismatch(f"matmul: {a.data.shape} @ {b.data.shape}{extra}")
    shape = a.data.shape
    a2 = a.data.reshape(-1, shape[-1]) if a.data.ndim > 2 else a.data
    n = b.data.shape[1]
    out = a2 @ b.data
    if bias is not None:
        out += bias.data
    if relu:
        np.multiply(out, out > 0, out=out)

    def backward(g):
        g2 = g.reshape(-1, n) if g.ndim > 2 else g
        if relu:
            g2 = g2 * (out > 0)
        if a.requires_grad:
            _accum(a, (g2 @ b.data.T).reshape(shape))
        _accum(b, a2.T @ g2)
        if bias is not None:
            _accum(bias, g2.sum(axis=0))

    parents = (a, b) if bias is None else (a, b, bias)
    return _make(out.reshape(shape[:-1] + (n,)), parents, backward)


def bmm(a, b, relu: bool = False) -> Tensor:
    """Batched matrix product a[B, M, K] @ b[B, K, N], through an in-place
    relu when asked, as ``matmul``; backward skips a constant operand."""
    a, b = _wrap(a), _wrap(b)
    if (a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[0] != b.data.shape[0]
            or a.data.shape[2] != b.data.shape[1]):
        raise ShapeMismatch(f"bmm: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    if relu:
        np.multiply(out, out > 0, out=out)

    def backward(g):
        if relu:
            g = g * (out > 0)
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, 1, 2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, 1, 2) @ g)

    return _make(out, (a, b), backward)


# sequence / structured ops ----------------------------------------------


def conv1d_relu(x, w, b) -> Tensor:
    """relu of a stride-1, same-length 1-d convolution along the length axis
    of x[L, Cin] or of a batch x[B, L, Cin], with kernel w[K, Cin, Cout] and
    bias b[Cout].

    The input gets (K - 1) // 2 zeros on the left and the other K - 1 - that
    on the right, so even kernel widths keep length exactly too.  The bias
    and the relu are applied in place, as in ``matmul``.

    The padded batch is one matrix of rows, and tap k's product is a GEMM
    of its rows shifted by k, summed over the taps in order: nothing copies
    the sliding windows.  A shifted row that straddles two samples lands
    only in a padded output row, which is cropped on the way out and given
    zero gradient on the way back, so samples never mix.  The output is a
    fresh C-ordered array, the layout the nodes after it hand back.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    K, cin, cout = w.data.shape
    if x.data.ndim not in (2, 3) or x.data.shape[-1] != cin:
        raise ShapeMismatch(f"conv1d_relu: input {x.data.shape} vs kernel {w.data.shape}")
    *lead, length, _ = x.data.shape
    if length == 0:
        raise ShapeMismatch(f"conv1d_relu: empty input {x.data.shape}")
    pl = (K - 1) // 2
    xp = np.zeros((*lead, length + K - 1, cin), dtype=x.data.dtype)
    xp[..., pl : pl + length, :] = x.data
    flat = xp.reshape(-1, cin)
    R = len(flat) - K + 1  # the rows every tap's shifted product reaches
    acc = np.empty((len(flat), cout), dtype=x.data.dtype)  # the last K - 1 rows are cropped
    np.matmul(flat[:R], w.data[0], out=acc[:R])
    for k in range(1, K):
        acc[:R] += flat[k : k + R] @ w.data[k]
    out = acc.reshape(*lead, -1, cout)[..., :length, :] + b.data
    np.multiply(out, out > 0, out=out)

    def backward(g):
        G = np.zeros((*xp.shape[:-1], cout), dtype=out.dtype)
        np.multiply(g, out > 0, out=G[..., :length, :])
        G = G.reshape(-1, cout)[:R]
        if w.requires_grad:
            _accum(w, np.stack([flat[k : k + R].T @ G for k in range(K)]))
        if b.requires_grad:
            _accum(b, G.sum(axis=0))
        if x.requires_grad:
            dflat = np.zeros_like(flat)
            for k in range(K):
                dflat[k : k + R] += G @ w.data[k].T
            _accum(x, dflat.reshape(xp.shape)[..., pl : pl + length, :])

    return _make(out, (x, w, b), backward)


def maxpool1d(x) -> Tensor:
    """Max pool of row pairs along the length axis of x[L, C] or of a batch
    x[B, L, C]; an odd last row is its own window.  As with argmax, the
    first row wins a tie and a NaN wins over a number.  Backward routes
    through one mask of where the second row won, and a losing row gets
    +0.0 where a product with the mask would give -0.0."""
    x = _wrap(x)
    out = x.data[..., ::2, :].copy()  # each window's first row
    second = x.data[..., 1::2, :]
    n = second.shape[-2]
    first = out[..., :n, :]
    wins = ~(first >= second) & (first == first)  # a larger row, or a NaN after a number
    np.copyto(first, second, where=wins)

    def backward(g):
        dx = np.empty_like(x.data)
        dx[..., ::2, :] = g
        np.copyto(dx[..., : 2 * n : 2, :], 0.0, where=wins)
        dx[..., 1::2, :] = 0.0
        np.copyto(dx[..., 1::2, :], g[..., :n, :], where=wins)
        _accum(x, dx)

    return _make(out, (x,), backward)


def batch_stat_norm(x, gamma, beta, mask=None) -> Tensor:
    """Per-feature normalization of x[N, C], or of each sample of x[B, N, C],
    by that sample's own row statistics.

    With mask (shape x.shape[:-1]) only the set rows enter the statistics
    and the unset rows come out zero.  There is no running state: every
    call, in training and in evaluation alike, standardizes over the rows
    it is given (a single row maps to beta).
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    if x.data.ndim not in (2, 3) or gamma.data.shape != (x.data.shape[-1],):
        raise ShapeMismatch(f"batch_stat_norm: x {x.data.shape}, gamma {gamma.data.shape}")
    dtype = x.data.dtype
    m = np.ones(x.data.shape[:-1], dtype=dtype) if mask is None else np.asarray(mask, dtype=dtype)
    if m.shape != x.data.shape[:-1]:
        raise ShapeMismatch(f"batch_stat_norm: mask {m.shape} for x {x.data.shape}")
    m = m[..., None]
    count = m.sum(axis=-2, keepdims=True)
    mu = (x.data * m).sum(axis=-2, keepdims=True) / count
    centred = (x.data - mu) * m
    var = (centred * centred).sum(axis=-2, keepdims=True) / count
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = centred * inv
    out = (xhat * gamma.data + beta.data) * m
    rows = tuple(range(x.data.ndim - 1))

    def backward(g):
        g = g * m
        _accum(gamma, (g * xhat).sum(axis=rows))
        _accum(beta, g.sum(axis=rows))
        if not x.requires_grad:
            return
        gm = g.sum(axis=-2, keepdims=True) / count
        gxm = (g * xhat).sum(axis=-2, keepdims=True) / count
        _accum(x, gamma.data * inv * (g - gm - xhat * gxm) * m)

    return _make(out, (x, gamma, beta), backward)


def _masked_softmax(s, pad, live):
    """Softmax over the last axis of every score map s[..., K], in place.

    `pad` (0 or PAD_MASK_BIAS) and `live` (1 or 0) broadcast against s and
    mark its padded cells: the bias keeps them out of the map's maximum,
    the clamp at EXP_FLOOR keeps exp from underflowing, and the live mask
    zeroes them before the maps are normalised.  A live cell gets a plain
    softmax's bits unless it lies more than -EXP_FLOOR below the maximum."""
    s += pad
    s -= s.max(axis=-1, keepdims=True)
    np.maximum(s, EXP_FLOOR[s.dtype], out=s)
    np.exp(s, out=s)
    s *= live
    s /= s.sum(axis=-1, keepdims=True)


def _scatter_rows(rows, idx, n):
    """The sum of rows[b] into row idx[b] of an [n, ...] array, as one GEMM
    with a one-hot [n, B] matrix.  A row that no b names is exactly zero,
    unless an entry of rows is not finite: 0 * inf is NaN, so that entry
    comes out NaN in every row."""
    return np.tensordot((idx == np.arange(n)[:, None]).astype(rows.dtype), rows, axes=1)


def _lift(x2, w, b):
    """relu(x2 @ w + b) of rows x2[N, C] as a fresh [N, J] array, by
    ``matmul``'s expressions: the bias and the relu applied in place."""
    out = x2 @ w
    out += b
    np.multiply(out, out > 0, out=out)
    return out


def _lift_backward(du, u, x2, w):
    """The gradients of x2, w and b in ``_lift`` given the gradient du of
    its output u, by ``matmul``'s expressions; du takes the relu mask in
    place, so it must be the caller's own array."""
    np.multiply(du, u > 0, out=du)
    return du @ w.T, x2.T @ du, du.sum(axis=0)


def bilinear_attention(v, x, w, b, heads, v_mask, u_real, v_idx, u_idx):
    """Multi-head bilinear attention of row sets v[D, M, J] and the lifted
    rows u = relu(x @ w + b) of x[P, L, C], with w[C, J] and b[J], one pair
    b per (v_idx[b], u_idx[b]).

    Head t with weights q_t[J] scores cell (m, l) of a pair as
    sum_j v[m, j] q_t[j] u[l, j].  Rows m outside v_mask[D, M] and columns
    l at or past u_real[P] are padded cells.  A softmax over the whole
    M x L map gives the weights A_t, exactly 0 on padded cells, and the
    head's vector is sum_m v[m] * (A_t u)[m].  Returns the heads' sum [B, J]
    and the weights [B, heads, M, L].  A pad row of x gets zero gradient.

    The size of one u map [L, J] picks the path.  When it fits in
    ATTENTION_BLOCK_BYTES, every row of x is lifted by one GEMM and the
    pairs are cut, in order, into blocks whose gathered u maps fit in that
    budget (a small-preset batch is one block).  A block runs as stacked
    per-pair products, backward sums its pairs' u and v gradients into
    their rows with one one-hot GEMM each, and the u gradient goes back
    through the lift as in ``matmul``.  A larger map (every level of the
    paper preset) is lifted one protein at a time, its real rows only, kept
    for backward and used for all of that protein's pairs at once: no
    padded row is lifted and no padded column scored.  Backward forms each
    protein's u gradient from its pairs, masks it in place and takes it
    through the lift, so no [P, L, J] array is built on this path.  Both
    paths fold the heads into the gathered v rows of each block.

    No padded cell's score reaches exp, whose underflow path costs several
    times a live cell: the shifted scores are clamped at EXP_FLOOR before
    exp and the padded cells zeroed after it.
    """
    v, x, w, b = _wrap(v), _wrap(x), _wrap(w), _wrap(b)
    heads = [_wrap(q) for q in heads]
    v_idx = np.asarray(v_idx, dtype=np.intp)
    u_idx = np.asarray(u_idx, dtype=np.intp)
    v_mask = np.asarray(v_mask, dtype=bool)
    u_real = np.asarray(u_real)
    D, M, J = v.data.shape
    P, L, C = x.data.shape
    if w.data.shape != (C, J) or b.data.shape != (J,) or any(q.data.shape != (J,) for q in heads):
        raise ShapeMismatch(f"bilinear_attention: v {v.data.shape}, "
                            f"x {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    if v_mask.shape != (D, M) or u_real.shape != (P,) or v_idx.shape != u_idx.shape:
        raise ShapeMismatch("bilinear_attention: masks or pair indices do not fit v and x")
    B, H = len(v_idx), len(heads)
    q = np.array([t.data for t in heads])  # [H, J]
    dtype = x.data.dtype
    # (rows, None): a block of pairs with their u maps gathered;
    # (rows, p): every pair of protein p, sharing its lifted real rows
    per_block = ATTENTION_BLOCK_BYTES // (L * J * x.data.itemsize)
    if per_block:
        blocks = [(slice(lo, lo + per_block), None) for lo in range(0, B, per_block)]
        x2 = x.data.reshape(-1, C)
        u = _lift(x2, w.data, b.data).reshape(P, L, J)
    else:
        blocks = [(np.flatnonzero(u_idx == p), p) for p in np.unique(u_idx)]
        lifts = {}  # protein -> its lifted real rows [u_real[p], J]

    out = np.empty((B, J), dtype=dtype)
    attn = np.empty((B, H, M, L), dtype=dtype)
    mixed = np.empty((B, M, J), dtype=dtype)  # sum_t A_t u per pair, kept for backward
    for rows, p in blocks:
        if p is None:
            ub = u[u_idx[rows]]
        else:
            ub = lifts[p] = _lift(x.data[p, : u_real[p]], w.data, b.data)
        vr = v.data[v_idx[rows]]
        n, width = len(vr), ub.shape[-2]
        cols = np.arange(width) < u_real[u_idx[rows]][:, None, None]
        live = (v_mask[v_idx[rows]][:, :, None] & cols).astype(dtype).reshape(n, 1, M * width)
        s = (vr[:, None] * q[:, None]).reshape(-1, H * M, J) @ np.swapaxes(ub, -1, -2)
        _masked_softmax(s.reshape(n, H, M * width), (live - 1.0) * -PAD_MASK_BIAS, live)
        s = s.reshape(n, H, M, width)
        attn[rows, ..., :width] = s
        attn[rows, ..., width:] = 0.0
        mix = s.sum(axis=1) @ ub
        mixed[rows] = mix
        out[rows] = np.einsum("nmj,nmj->nj", vr, mix)

    def backward(g):
        dv = g[:, None, :] * mixed  # per pair, the A_t u part first
        dq = np.zeros((H, J), dtype=dtype)
        if per_block:
            du = np.empty((B, L, J), dtype=dtype)  # per pair
        else:
            # pad rows and proteins in no pair keep a zero gradient
            dx, dw, db = np.zeros_like(x.data), np.zeros_like(w.data), np.zeros_like(b.data)
        for rows, p in blocks:
            # each array goes as soon as it is spent, a protein's lift too:
            # this loop sets the peak memory of a training step
            ub = u[u_idx[rows]] if p is None else lifts[p]
            vr = v.data[v_idx[rows]]
            n, width = len(vr), ub.shape[-2]
            a = attn[rows, ..., :width]
            dmix = vr * g[rows][:, None, :]  # gradient of every head's A_t u
            if p is None:
                np.matmul(np.swapaxes(a.sum(axis=1), 1, 2), dmix, out=du[rows])
            else:
                du = a.sum(axis=1).reshape(-1, width).T @ dmix.reshape(-1, J)
            da = dmix @ np.swapaxes(ub, -1, -2)
            del dmix
            ds = da[:, None] - np.einsum("nhml,nml->nh", a, da)[..., None, None]
            del da
            ds *= a
            ds = ds.reshape(n, H * M, width)
            dvq = (ds @ ub).reshape(n, H, M, J)
            del ub
            dv[rows] += np.einsum("nhmj,hj->nmj", dvq, q)
            dq += np.einsum("nhmj,nmj->hj", dvq, vr)
            del dvq
            vh = (vr[:, None] * q[:, None]).reshape(n, H * M, J)
            if p is None:
                du[rows] += np.swapaxes(ds, 1, 2) @ vh
            else:
                du += ds.reshape(-1, width).T @ vh.reshape(-1, J)
                del ds, vh
                dx_p, dw_p, db_p = _lift_backward(du, lifts.pop(p), x.data[p, :width], w.data)
                dx[p, :width] = dx_p
                dw += dw_p
                db += db_p
        _accum(v, _scatter_rows(dv, v_idx, D))
        if per_block:
            du = _scatter_rows(du, u_idx, P).reshape(-1, J)
            dx, dw, db = _lift_backward(du, u.reshape(-1, J), x2, w.data)
            dx = dx.reshape(x.data.shape)
        _accum(x, dx)
        _accum(w, dw)
        _accum(b, db)
        for t, q_t in enumerate(heads):
            _accum(q_t, dq[t])

    return _make(out, (v, x, w, b, *heads), backward), attn


def grad_reverse(x) -> Tensor:
    """Identity forward; backward negates the gradient."""
    x = _wrap(x)

    def backward(g):
        _accum(x, -g)

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


def cosine_rows(a, b) -> Tensor:
    """Cosine similarity of each row pair of a[N, C] and b[N, C]; returns [N].

    A row with either norm below ZERO_NORM_EPS has similarity 0 and passes
    no gradient, where composing from ``sqrt`` would give NaN gradients.
    """
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ShapeMismatch(f"cosine_rows: {a.data.shape} vs {b.data.shape}")
    na = np.sqrt((a.data * a.data).sum(axis=1))
    nb = np.sqrt((b.data * b.data).sum(axis=1))
    live = ~((na < ZERO_NORM_EPS) | (nb < ZERO_NORM_EPS))  # a NaN norm stays live and propagates
    denom = np.where(live, na * nb, 1.0)
    out = np.where(live, (a.data * b.data).sum(axis=1) / denom, 0.0)

    def backward(g):
        g = np.where(live, g, 0.0)
        across = (g / denom)[:, None]
        _accum(a, across * b.data - (g * out / np.where(live, na * na, 1.0))[:, None] * a.data)
        _accum(b, across * a.data - (g * out / np.where(live, nb * nb, 1.0))[:, None] * b.data)

    return _make(out, (a, b), backward)
