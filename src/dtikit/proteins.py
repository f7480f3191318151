"""Protein sequence tokenization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 20 canonical residues in fixed order, then ambiguity codes, then padding
CANONICAL_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
TOKEN_X = 20
TOKEN_B = 21
TOKEN_Z = 22
TOKEN_U = 23
TOKEN_PAD = 24
VOCAB_SIZE = 25

_TOKEN_OF = {res: i for i, res in enumerate(CANONICAL_RESIDUES)}
_TOKEN_OF.update({"X": TOKEN_X, "B": TOKEN_B, "Z": TOKEN_Z, "U": TOKEN_U})


class EmptySequence(ValueError):
    pass


@dataclass(frozen=True)
class ProteinTokenSeq:
    ids: np.ndarray  # int64 [max_len], PAD beyond true_length
    true_length: int


def encode_protein(sequence: str, max_len: int) -> ProteinTokenSeq:
    """Tokenize a residue string, truncating to max_len and padding the rest.

    Residues outside the vocabulary map to the X token so odd annotations
    never crash a run.
    """
    seq = sequence.strip().upper()
    if not seq:
        raise EmptySequence("cannot encode an empty protein sequence")
    seq = seq[:max_len]
    ids = np.full(max_len, TOKEN_PAD, dtype=np.int64)
    for i, ch in enumerate(seq):
        ids[i] = _TOKEN_OF.get(ch, TOKEN_X)
    return ProteinTokenSeq(ids=ids, true_length=len(seq))
