"""Rerun identity under whatever OpenBLAS kernel this process runs.

Run as a script, it trains the 300-record `small` seed-0 vanilla run twice
and acceptance test 07's zero-weight adversarial run once, and prints one
JSON line: the kernel's name and each checkpoint's sha256.  A test starts
it with `OPENBLAS_CORETYPE` set in its environment alone, so that one run
uses a second kernel:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/kernel_rerun.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

from dtikit.config import resolve_config
from dtikit.splits import random_split
from dtikit.synth import SyntheticSpec, synth_generate
from dtikit.train import train_adversarial, train_supervised


def openblas_core() -> str | None:
    """The kernel that numpy's bundled OpenBLAS runs, or None when the
    library or its `scipy_openblas_get_corename64_` cannot be found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def main() -> None:
    records = synth_generate(SyntheticSpec(n_records=300), seed=0).records
    manifest = random_split(records, seed=0)
    small = {"model_preset": "small", "max_seq_len": 48, "seed": 0, "epochs": 2, "lr": 1e-3}
    vanilla = resolve_config({}, {**small, "stage": "vanilla"})
    cada = resolve_config({}, {**small, "stage": "cada", "lambda_adv": 0.0})
    blobs = [train_supervised(records, manifest, vanilla).best_blob for _ in range(2)]
    blobs.append(train_adversarial(records, manifest, cada).best_blob)
    print(json.dumps({"core": openblas_core(),
                      "sha256": [hashlib.sha256(b).hexdigest() for b in blobs]}))


if __name__ == "__main__":
    main()
