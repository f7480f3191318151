"""Parameter registry, Adam, and binary checkpoints.

A ParameterStore owns every learnable array of a model under a slash
"path" name; the model keeps no other state.  Checkpoints serialize every
entry as float64 in a little-endian binary layout:

    magic b"DTK1" | u32 version | u32 entry count |
    per entry: u32 path length | path utf-8 | u8 trainable flag |
               u32 rank | u64 * rank dims | f64 * n values

The flag byte is always written as 1 and ignored on read; it stays so the
layout, and checkpoints written when non-trainable entries still existed,
remain readable.  Round-trips are bit-exact, which the determinism
guarantees lean on.

A store has a dtype, float64 or float32, which is the model's: the
parameters are their own masters, cast to it at registration, and a
checkpoint load writes into them, so a model saves the values it computes
with whether or not it has run.  The store binds once, at its first forward
pass (``bind``) or its first ``adam_step``, whichever comes first.
Binding allocates one ``[3, N]`` block in the store's dtype (the values and
the Adam moments m and v), copies every entry, in registration order, into
the values row, and rebinds each tensor's ``data`` to a C-contiguous view of
its slice of that row; registering a further entry then raises
``StoreFrozen``.  A step concatenates the gradients into the store's dtype
and is one pass of a handful of vector operations over the whole block.  A
float32 store's values widen exactly into a checkpoint; a float64 checkpoint
loaded into one rounds once, at the load.
"""

from __future__ import annotations

import struct

import numpy as np

from .tensor import MissingGradient, Tensor

MAGIC = b"DTK1"
FORMAT_VERSION = 1

# Adam's standard decay rates and denominator floor (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(IOError):
    pass


class StoreFrozen(RuntimeError):
    """Raised when a parameter is registered after the store is bound."""


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class ParameterStore:
    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)  # the model's dtype
        self._entries: dict[str, Tensor] = {}
        self._flat: np.ndarray | None = None  # every value, once bound
        self._adam_m: np.ndarray | None = None
        self._adam_v: np.ndarray | None = None
        self._adam_t = 0

    def parameter(self, path: str, init: np.ndarray) -> Tensor:
        if path in self._entries:
            raise KeyError(f"duplicate parameter path {path!r}")
        if self._flat is not None:
            raise StoreFrozen(f"parameter {path!r} registered after the store was bound")
        t = Tensor(np.asarray(init, dtype=self.dtype), requires_grad=True)
        self._entries[path] = t
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path]

    def paths(self) -> list[str]:
        return list(self._entries)

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def bind(self) -> None:
        """Bind the store once; the model calls this before each forward
        pass.  Binding copies every entry into one flat row and makes each
        tensor's data a view of its slice of that row."""
        if self._flat is not None:
            return
        # the values and both moments as one block, which at paper sizes is
        # mapped and unmapped whole; three vector-sized blocks, each a new
        # model's, fragmented the heap and raised peak RSS with every run
        n = sum(t.data.size for t in self._entries.values())
        self._flat, self._adam_m, self._adam_v = np.zeros((3, n), dtype=self.dtype)
        start = 0
        for t in self._entries.values():
            stop = start + t.data.size
            view = self._flat[start:stop].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            start = stop

    def adam_step(self, lr: float) -> None:
        """One bias-corrected Adam update over every entry.

        Models register only the parameters their stage actually trains, so
        a missing gradient here is a wiring bug, not a soft condition.  The
        update keeps the per-entry expression order, so the one pass gives
        each entry the bits a per-entry loop would.
        """
        for path, tensor in self._entries.items():
            if tensor.grad is None:
                raise MissingGradient(f"no gradient for {path!r}; run backward first")
        self.bind()
        if not self._entries:
            return  # bound and frozen, with nothing to step
        self._adam_t += 1
        unbias1 = 1.0 - ADAM_BETA1**self._adam_t
        unbias2 = 1.0 - ADAM_BETA2**self._adam_t
        g = np.concatenate([t.grad for t in self._entries.values()], axis=None, dtype=self.dtype)
        m, v = self._adam_m, self._adam_v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        g *= g
        v += (1.0 - ADAM_BETA2) * g
        denom = np.divide(v, unbias2, out=g)  # g's buffer takes sqrt(vhat) + eps
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step = m / unbias1
        step *= lr
        step /= denom
        self._flat -= step
        self.zero_grad()

    # serialization --------------------------------------------------

    def save_bytes(self) -> bytes:
        chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(self._entries))]
        for path, t in self._entries.items():
            raw = path.encode("utf-8")
            arr = np.asarray(t.data, dtype="<f8", order="C")
            chunks.append(struct.pack("<I", len(raw)))
            chunks.append(raw)
            chunks.append(struct.pack("<BI", 1, arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            chunks.append(arr.tobytes())
        return b"".join(chunks)

    def load_bytes(self, blob: bytes, strict: bool = True) -> list[str]:
        """Copy checkpoint values into matching entries, which a bound
        store's tensors read at once; returns loaded paths.

        ``strict`` demands that every entry in the store is present in the
        blob. Non-strict is the warm-start mode: paths present on both
        sides load, the rest keep their initialization.  A value that is
        not finite in the store's dtype is refused, and a refused load
        changes nothing.
        """
        entries = read_checkpoint(blob)
        limit = np.finfo(self.dtype).max
        for path, t in self._entries.items():
            arr = entries.get(path)
            if arr is None:
                if strict:
                    raise CheckpointError(f"checkpoint missing entry {path!r}")
            elif arr.shape != t.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {path!r}: checkpoint {arr.shape}, store {t.data.shape}"
                )
            elif not (np.abs(arr) <= limit).all():
                raise CheckpointError(f"entry {path!r} holds a value that is not finite in {self.dtype}")
        loaded = [path for path in self._entries if path in entries]
        for path in loaded:
            self._entries[path].data[...] = entries[path]
        return loaded


def read_checkpoint(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    view = memoryview(blob)
    offset = 4

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(blob):
            raise CheckpointError(f"checkpoint truncated at {len(blob)} of {offset + n}+ bytes")
        offset += n
        return view[offset - n : offset]

    version, count = struct.unpack("<II", take(8))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (plen,) = struct.unpack("<I", take(4))
        path = str(take(plen), "utf-8")
        _trainable, rank = struct.unpack("<BI", take(5))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        n = int(np.prod(shape, dtype=np.int64)) if rank else 1
        out[path] = np.frombuffer(take(8 * n), dtype="<f8").reshape(shape).copy()
    if offset != len(blob):
        raise CheckpointError("trailing bytes after last entry")
    return out
