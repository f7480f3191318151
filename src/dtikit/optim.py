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
"""

from __future__ import annotations

import struct

import numpy as np

from .tensor import MissingGradient, Tensor

MAGIC = b"DTK1"
FORMAT_VERSION = 1


class CheckpointError(IOError):
    pass


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class ParameterStore:
    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._adam_t = 0

    def parameter(self, path: str, init: np.ndarray) -> Tensor:
        if path in self._entries:
            raise KeyError(f"duplicate parameter path {path!r}")
        t = Tensor(np.asarray(init), requires_grad=True)
        self._entries[path] = t
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path]

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def paths(self) -> list[str]:
        return list(self._entries)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return list(self._entries.items())

    def n_values(self) -> int:
        return sum(t.data.size for t in self._entries.values())

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def adam_step(
        self,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        """One bias-corrected Adam update over all trainable entries.

        Models register only the parameters their stage actually trains, so
        a missing gradient here is a wiring bug, not a soft condition.
        """
        self._adam_t += 1
        t = self._adam_t
        for path, tensor in self.trainable():
            if tensor.grad is None:
                raise MissingGradient(f"no gradient for {path!r}; run backward first")
            g = tensor.grad
            m = self._adam_m.setdefault(path, np.zeros_like(tensor.data))
            v = self._adam_v.setdefault(path, np.zeros_like(tensor.data))
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            mhat = m / (1.0 - beta1**t)
            vhat = v / (1.0 - beta2**t)
            tensor.data -= lr * mhat / (np.sqrt(vhat) + eps)
        self.zero_grad()

    # serialization --------------------------------------------------

    def save_bytes(self) -> bytes:
        chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(self._entries))]
        for path, tensor in self._entries.items():
            raw = path.encode("utf-8")
            arr = np.asarray(tensor.data, dtype="<f8", order="C")
            chunks.append(struct.pack("<I", len(raw)))
            chunks.append(raw)
            chunks.append(struct.pack("<BI", 1, arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            chunks.append(arr.tobytes())
        return b"".join(chunks)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.save_bytes())

    def load_bytes(self, blob: bytes, strict: bool = True) -> list[str]:
        """Copy checkpoint values into matching entries; returns loaded paths.

        ``strict`` demands that every entry in the store is present in the
        blob. Non-strict is the warm-start mode: paths present on both
        sides load, the rest keep their initialization.
        """
        entries = read_checkpoint(blob)
        loaded = []
        for path, tensor in self._entries.items():
            if path in entries:
                arr = entries[path]
                if arr.shape != tensor.data.shape:
                    raise CheckpointError(
                        f"shape mismatch for {path!r}: checkpoint {arr.shape}, store {tensor.data.shape}"
                    )
                tensor.data[...] = arr
                loaded.append(path)
            elif strict:
                raise CheckpointError(f"checkpoint missing entry {path!r}")
        return loaded

    def load(self, path: str, strict: bool = True) -> list[str]:
        with open(path, "rb") as fh:
            return self.load_bytes(fh.read(), strict=strict)


def read_checkpoint(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    offset = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (plen,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        path = blob[offset : offset + plen].decode("utf-8")
        offset += plen
        _trainable, rank = struct.unpack_from("<BI", blob, offset)
        offset += 5
        shape = struct.unpack_from(f"<{rank}Q", blob, offset)
        offset += 8 * rank
        n = int(np.prod(shape, dtype=np.int64)) if rank else 1
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += 8 * n
        out[path] = arr.copy()
    if offset != len(blob):
        raise CheckpointError("trailing bytes after last entry")
    return out
