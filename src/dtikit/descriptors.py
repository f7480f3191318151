"""Molecular fingerprints, protein composition vectors, scaffold keys.

The circular fingerprint is the standard neighborhood-hashing construction:
every atom starts from a code mixing its invariants, each round rehashes
the code with the sorted (bond order, neighbor code) list, and every code
from every round folds into a fixed-width bit vector. Hashing is our own
64-bit mixer over plain integers, so fingerprints are reproducible across
platforms and interpreter builds (python's built-in hash is salted per
process and useless here).
"""

from __future__ import annotations

import numpy as np

from .proteins import CANONICAL_RESIDUES, EmptySequence
from .smiles import MolecularGraph

N_BITS = 2048
RADIUS = 2  # rounds of neighbourhood rehashing (ECFP4)
PSC_DIM = 420
EMPTY_SCAFFOLD = "acyclic"


class ZeroVector(ValueError):
    pass


_MASK = (1 << 64) - 1


def _splitmix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _mix(*values: int) -> int:
    h = 0x243F6A8885A308D3
    for v in values:
        h = _splitmix(h ^ (v & _MASK))
    return h


def _atom_codes(graph: MolecularGraph) -> list[int]:
    codes = []
    for a in graph.atoms:
        element = int.from_bytes(a.element.encode("ascii"), "big")
        codes.append(_mix(element, a.degree, a.formal_charge & _MASK, int(a.is_aromatic), a.implicit_h_count))
    return codes


def ecfp(graph: MolecularGraph) -> np.ndarray:
    """Circular fingerprint of RADIUS rounds as a 0/1 vector of length
    N_BITS."""
    codes = _atom_codes(graph)
    neighbors = graph.neighbors()
    seen: set[int] = set(codes)
    for _ in range(RADIUS):
        nxt = []
        for i, code in enumerate(codes):
            if not neighbors[i]:
                nxt.append(code)  # isolated environment is its own fixpoint
                continue
            env = sorted((order, codes[j]) for j, order in neighbors[i])
            flat: list[int] = [code]
            for order, nc in env:
                flat.append(order)
                flat.append(nc)
            nxt.append(_mix(*flat))
        codes = nxt
        seen.update(codes)
    out = np.zeros(N_BITS, dtype=np.uint8)
    for code in seen:
        out[code % N_BITS] = 1
    return out


# byte -> residue index, 20 for every byte that is not a canonical letter
_RESIDUE_OF_BYTE = np.full(256, 20, dtype=np.intp)
_RESIDUE_OF_BYTE[list(CANONICAL_RESIDUES.encode())] = np.arange(20)


def psc(sequence: str) -> np.ndarray:
    """Protein sequence composition: 20 residue frequencies + 400 dipeptide
    frequencies, each block normalized to sum 1. Residues outside the 20
    canonical letters are ignored by both blocks and break every dipeptide
    they sit in. Two bincounts over the bytes (non-ASCII ones non-canonical)."""
    seq = sequence.strip().upper()
    if not seq:
        raise EmptySequence("cannot featurize an empty sequence")
    codes = _RESIDUE_OF_BYTE[np.frombuffer(seq.encode(errors="replace"), dtype=np.uint8)]
    residues = np.bincount(codes, minlength=21)[:20]
    dipeptides = np.bincount(codes[:-1] * 21 + codes[1:], minlength=441).reshape(21, 21)[:20, :20]
    out = np.zeros(PSC_DIM)
    if total := residues.sum():
        out[:20] = residues / total
    if pairs := dipeptides.sum():
        out[20:] = dipeptides.ravel() / pairs
    return out


def murcko_scaffold_key(graph: MolecularGraph) -> str:
    """Graph-invariant key of the ring-and-linker core.

    Peels degree <= 1 atoms until fixpoint (leaving rings plus the paths
    between them), then encodes the sorted multiset of per-atom
    (element, core degree, sorted core bond orders). Equal keys are all the
    split logic needs; rare collisions between distinct cores just merge
    two scaffold groups.
    """
    kept = set(range(graph.n_atoms))
    neighbors = graph.neighbors()
    while True:
        degrees = {
            i: sum(1 for j, _ in neighbors[i] if j in kept) for i in kept
        }
        drop = {i for i in kept if degrees[i] <= 1}
        if not drop:
            break
        kept -= drop
    if not kept:
        return EMPTY_SCAFFOLD
    descriptors = []
    for i in sorted(kept):
        orders = sorted(order for j, order in neighbors[i] if j in kept)
        degree = len(orders)
        descriptors.append(f"{graph.atoms[i].element}:{degree}:{','.join(map(str, orders))}")
    return "|".join(sorted(descriptors))

