import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtikit import descriptors as dv
from dtikit.proteins import CANONICAL_RESIDUES
from dtikit.smiles import parse_smiles


def fp(smiles):
    return dv.ecfp(parse_smiles(smiles))


def test_methane_sets_exactly_one_bit(monkeypatch):
    assert fp("C").sum() == 1
    monkeypatch.setattr(dv, "RADIUS", 4)
    assert fp("C").sum() == 1  # no neighbors, every round identical


def test_radius_zero_bounded_by_distinct_invariants(monkeypatch):
    monkeypatch.setattr(dv, "RADIUS", 0)
    out = fp("CCO")
    # three atoms with three distinct invariant tuples
    assert 1 <= out.sum() <= 3


def test_fingerprint_is_atom_order_invariant():
    assert np.array_equal(fp("CCO"), fp("OCC"))
    assert np.array_equal(fp("CC(N)=O"), fp("NC(C)=O"))
    assert np.array_equal(fp("c1ccncc1"), fp("n1ccccc1"))


def test_fingerprint_distinguishes_substituted_ring_sizes():
    assert not np.array_equal(fp("CC1CC1"), fp("CC1CCC1"))


def test_unsubstituted_small_cycles_collide():
    # neighborhood rehashing is a 1-WL refinement: in a bare n-cycle every
    # atom keeps the same code every round regardless of n, so the bit sets
    # coincide. Any substituent breaks the symmetry. Distance-based splits
    # only need sensible similarity, so this is accepted rather than paved
    # over with ring-size invariants.
    assert np.array_equal(fp("C1CC1"), fp("C1CCC1"))


def test_growing_radius_only_adds_bits(monkeypatch):
    base = fp("CCOC(=O)C1CCC1")
    monkeypatch.setattr(dv, "RADIUS", 1)
    r1 = fp("CCOC(=O)C1CCC1")
    assert set(np.flatnonzero(r1)) <= set(np.flatnonzero(base))


def test_fingerprint_bits_are_frozen():
    # pinned against the stable mixer; a change here means every stored
    # fingerprint and split manifest in the wild would silently shift
    expected = [442, 711, 784, 845, 1236, 1273, 1431, 1832, 1879]
    assert sorted(np.flatnonzero(fp("CCO")).tolist()) == expected


def test_psc_hand_trace():
    v = dv.psc("AAC")
    assert v.shape == (420,)
    assert v[0] == pytest.approx(2 / 3)  # A
    assert v[1] == pytest.approx(1 / 3)  # C
    assert v[:20].sum() == pytest.approx(1.0)
    # dipeptides AA and AC, equally weighted
    assert v[20 + 0 * 20 + 0] == pytest.approx(0.5)
    assert v[20 + 0 * 20 + 1] == pytest.approx(0.5)
    assert v[20:].sum() == pytest.approx(1.0)


def test_psc_single_residue_has_empty_dipeptide_block():
    v = dv.psc("M")
    assert v[:20].sum() == pytest.approx(1.0)
    assert v[20:].sum() == 0.0


def test_psc_ignores_noncanonical():
    v = dv.psc("AXA")
    assert v[0] == pytest.approx(1.0)
    assert v[20:].sum() == 0.0  # both pairs straddle the X


@given(st.text(alphabet=dv.CANONICAL_RESIDUES, min_size=2, max_size=60))
def test_psc_blocks_sum_to_one(seq):
    v = dv.psc(seq)
    assert v[:20].sum() == pytest.approx(1.0, abs=1e-9)
    assert v[20:].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(v >= 0)


def test_scaffold_strips_acyclic_decorations():
    benzene = dv.murcko_scaffold_key(parse_smiles("c1ccccc1"))
    assert dv.murcko_scaffold_key(parse_smiles("c1ccccc1C")) == benzene
    assert dv.murcko_scaffold_key(parse_smiles("c1ccccc1CC(C)C")) == benzene
    tri = dv.murcko_scaffold_key(parse_smiles("C1CC1"))
    assert dv.murcko_scaffold_key(parse_smiles("C1CC1C")) == tri
    assert tri != benzene


def test_scaffold_of_acyclic_molecule_is_empty():
    assert dv.murcko_scaffold_key(parse_smiles("CCCC")) == dv.EMPTY_SCAFFOLD
    assert dv.murcko_scaffold_key(parse_smiles("C")) == dv.EMPTY_SCAFFOLD


def test_scaffold_keeps_linkers_between_rings():
    linked = dv.murcko_scaffold_key(parse_smiles("c1ccccc1Cc1ccccc1"))
    benzene = dv.murcko_scaffold_key(parse_smiles("c1ccccc1"))
    assert linked != benzene
    assert linked.count("|") + 1 == 13  # two rings plus the bridging carbon


def psc_reference(sequence):
    """Per-character composition: the residue loop psc replaced."""
    index = {r: i for i, r in enumerate(CANONICAL_RESIDUES)}
    codes = [index.get(ch) for ch in sequence.strip().upper()]
    out = np.zeros(dv.PSC_DIM)
    total = pairs = 0
    for c in codes:
        if c is not None:
            out[c] += 1.0
            total += 1
    if total:
        out[:20] /= total
    for a, b in zip(codes, codes[1:]):
        if a is not None and b is not None:
            out[20 + a * 20 + b] += 1.0
            pairs += 1
    if pairs:
        out[20:] /= pairs
    return out


def test_psc_equals_per_character_reference():
    # lowercase, the non-canonical X/B/*, and non-ASCII letters, some of
    # which upper-case into canonical ones (dotless i -> I, sharp s -> SS)
    alphabet = list(CANONICAL_RESIDUES + CANONICAL_RESIDUES.lower() + "XB*- éλıß")
    rng = np.random.default_rng(3)
    for _ in range(500):
        seq = "".join(rng.choice(alphabet, size=int(rng.integers(1, 60))))
        if seq.strip():
            assert np.array_equal(dv.psc(seq), psc_reference(seq)), repr(seq)


def test_psc_empty_raises():
    with pytest.raises(Exception):
        dv.psc("")
