import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtikit import proteins as pr


def test_encode_basic():
    out = pr.encode_protein("ACDG", max_len=8)
    assert out.true_length == 4
    assert list(out.ids[:4]) == [0, 1, 2, 5]
    assert np.all(out.ids[4:] == pr.TOKEN_PAD)


def test_encode_truncates():
    out = pr.encode_protein("A" * 30, max_len=10)
    assert out.true_length == 10
    assert out.ids.shape == (10,)
    assert np.all(out.ids == 0)


def test_unknown_residue_maps_to_x():
    out = pr.encode_protein("AJA", max_len=5)
    assert out.ids[1] == pr.TOKEN_X


def test_ambiguity_codes_have_own_tokens():
    out = pr.encode_protein("BZUX", max_len=4)
    assert list(out.ids) == [pr.TOKEN_B, pr.TOKEN_Z, pr.TOKEN_U, pr.TOKEN_X]


def test_lowercase_input():
    assert list(pr.encode_protein("acd", max_len=3).ids) == [0, 1, 2]


def test_empty_sequence_raises():
    with pytest.raises(pr.EmptySequence):
        pr.encode_protein("  ", max_len=5)


@given(st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90), min_size=1, max_size=40))
def test_encode_pad_structure(seq):
    max_len = 25
    out = pr.encode_protein(seq, max_len)
    assert out.true_length == min(len(seq), max_len)
    assert np.all(out.ids[: out.true_length] != pr.TOKEN_PAD)
    assert np.all(out.ids[out.true_length :] == pr.TOKEN_PAD)
    assert out.ids.max() < pr.VOCAB_SIZE
