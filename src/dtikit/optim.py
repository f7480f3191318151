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

A store has a compute dtype, float64 or float32, and keeps two rows of
values.  The master row is float64: Adam updates it, checkpoints are
written from it and loaded into it.  The compute row is a separate array
in the compute dtype that holds the values the model computes with.  The
store binds once, at its first forward pass (``bind_compute``) or its
first ``adam_step``, whichever comes first, so building or loading a model
casts nothing.  Binding copies every entry, in registration order, into
one flat master vector, casts that into the compute row, and rebinds each
tensor's ``data`` to a C-contiguous view of its slice of the compute row;
registering a further entry then raises ``StoreFrozen``.  The moments m
and v are flat float64 as well, and a step is one pass of a handful of
vector operations over the whole block, ending in one cast of the master
row to the compute row.  Gradients arrive in the compute dtype and are
concatenated straight into float64.
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
        self.dtype = np.dtype(dtype)  # the compute dtype
        self._entries: dict[str, Tensor] = {}
        self._master: dict[str, np.ndarray] = {}  # each entry's float64 values
        self._flat: np.ndarray | None = None  # every master value, once bound
        self._compute: np.ndarray | None = None  # the compute row, once bound
        self._adam_m: np.ndarray | None = None
        self._adam_v: np.ndarray | None = None
        self._adam_t = 0

    def parameter(self, path: str, init: np.ndarray) -> Tensor:
        if path in self._entries:
            raise KeyError(f"duplicate parameter path {path!r}")
        if self._flat is not None:
            raise StoreFrozen(f"parameter {path!r} registered after the store was bound")
        t = Tensor(np.asarray(init, dtype=np.float64), requires_grad=True)
        self._entries[path] = t
        self._master[path] = t.data
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path]

    def paths(self) -> list[str]:
        return list(self._entries)

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def bind_compute(self) -> None:
        """Bind the store once, so its tensors hold compute-dtype values;
        the model calls this before each forward pass.  Binding copies every
        entry into one flat master vector and casts it into the compute row,
        and makes each tensor's data a view of its slice of the compute row."""
        if self._flat is not None:
            return
        # the values and both moments as one block, which at paper sizes is
        # mapped and unmapped whole; three vector-sized blocks, each a new
        # model's, fragmented the heap and raised peak RSS with every run
        state = np.zeros((3, sum(t.data.size for t in self._entries.values())))
        self._flat, self._adam_m, self._adam_v = state
        self._compute = np.empty(self._flat.size, dtype=self.dtype)
        start = 0
        for path, t in self._entries.items():
            stop = start + t.data.size
            master = self._flat[start:stop].reshape(t.data.shape)
            master[...] = self._master[path]
            self._master[path] = master
            t.data = self._compute[start:stop].reshape(t.data.shape)
            start = stop
        self._compute[...] = self._flat

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
        self.bind_compute()
        if not self._entries:
            return  # bound and frozen, with nothing to step
        self._adam_t += 1
        unbias1 = 1.0 - ADAM_BETA1**self._adam_t
        unbias2 = 1.0 - ADAM_BETA2**self._adam_t
        g = np.concatenate([t.grad for t in self._entries.values()], axis=None, dtype=np.float64)
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
        self._compute[...] = self._flat
        self.zero_grad()

    # serialization --------------------------------------------------

    def save_bytes(self) -> bytes:
        chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(self._entries))]
        for path, master in self._master.items():
            raw = path.encode("utf-8")
            arr = np.asarray(master, dtype="<f8", order="C")
            chunks.append(struct.pack("<I", len(raw)))
            chunks.append(raw)
            chunks.append(struct.pack("<BI", 1, arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            chunks.append(arr.tobytes())
        return b"".join(chunks)

    def load_bytes(self, blob: bytes, strict: bool = True) -> list[str]:
        """Copy checkpoint values into matching entries' master values, and
        a bound store's compute row; returns loaded paths.

        ``strict`` demands that every entry in the store is present in the
        blob. Non-strict is the warm-start mode: paths present on both
        sides load, the rest keep their initialization.
        """
        entries = read_checkpoint(blob)
        loaded = []
        for path, master in self._master.items():
            if path in entries:
                arr = entries[path]
                if arr.shape != master.shape:
                    raise CheckpointError(
                        f"shape mismatch for {path!r}: checkpoint {arr.shape}, store {master.shape}"
                    )
                master[...] = arr
                loaded.append(path)
            elif strict:
                raise CheckpointError(f"checkpoint missing entry {path!r}")
        if self._compute is not None:
            self._compute[...] = self._flat
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
