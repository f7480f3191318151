import numpy as np
import pytest

from dtikit import smiles as sm


def test_cyclopropane_hand_trace():
    g = sm.parse_smiles("C1CC1")
    assert g.n_atoms == 3
    assert len(g.bonds) == 3
    for atom in g.atoms:
        assert atom.element == "C"
        assert atom.degree == 2
        assert atom.implicit_h_count == 2
        assert not atom.is_aromatic
    adj = g.adjacency()
    assert np.array_equal(adj, adj.T)
    assert np.array_equal(adj.sum(axis=0), [2, 2, 2])
    assert np.all(np.diag(adj) == 0)


def test_percent_ring_label_equivalent():
    a = sm.parse_smiles("C1CC1")
    b = sm.parse_smiles("C%12CC%12")
    assert np.array_equal(a.adjacency(), b.adjacency())


def test_propane_degrees_and_hydrogens():
    g = sm.parse_smiles("CCC")
    assert [a.degree for a in g.atoms] == [1, 2, 1]
    assert [a.implicit_h_count for a in g.atoms] == [3, 2, 3]


def test_acetic_acid():
    g = sm.parse_smiles("CC(=O)O")
    assert [a.element for a in g.atoms] == ["C", "C", "O", "O"]
    assert [a.implicit_h_count for a in g.atoms] == [3, 0, 0, 1]
    orders = {(b.i, b.j): b.order for b in g.bonds}
    assert orders[(1, 2)] == sm.DOUBLE
    assert orders[(1, 3)] == sm.SINGLE


def test_bare_two_letter_halogens():
    g = sm.parse_smiles("ClC(Br)CCl")
    assert [a.element for a in g.atoms] == ["Cl", "C", "Br", "C", "Cl"]
    assert [a.degree for a in g.atoms] == [1, 3, 1, 2, 1]
    assert [a.implicit_h_count for a in g.atoms] == [0, 1, 0, 2, 0]


def test_benzene_aromatic():
    g = sm.parse_smiles("c1ccccc1")
    assert g.n_atoms == 6
    assert all(a.is_aromatic for a in g.atoms)
    assert all(b.order == sm.AROMATIC for b in g.bonds)
    assert all(a.implicit_h_count == 1 for a in g.atoms)


def test_pyridine_nitrogen_has_no_hydrogen():
    g = sm.parse_smiles("c1ccncc1")
    n = next(a for a in g.atoms if a.element == "N")
    assert n.is_aromatic
    assert n.implicit_h_count == 0


def test_pyrrole_needs_explicit_hydrogen():
    g = sm.parse_smiles("c1cc[nH]c1")
    n = next(a for a in g.atoms if a.element == "N")
    assert n.implicit_h_count == 1


def test_bracket_charges():
    g = sm.parse_smiles("[NH4+]")
    atom = g.atoms[0]
    assert (atom.element, atom.formal_charge, atom.implicit_h_count) == ("N", 1, 4)
    g = sm.parse_smiles("[O-]")
    assert g.atoms[0].formal_charge == -1
    g = sm.parse_smiles("[Fe++]")
    assert g.atoms[0].formal_charge == 2
    g = sm.parse_smiles("[Fe+2]")
    assert g.atoms[0].formal_charge == 2


def test_branching():
    g = sm.parse_smiles("CC(C)(C)C")
    center = g.atoms[1]
    assert center.degree == 4
    assert center.implicit_h_count == 0


def test_triple_bond_and_sulfur_valences():
    g = sm.parse_smiles("C#N")
    assert g.atoms[0].implicit_h_count == 1
    assert g.atoms[1].implicit_h_count == 0
    g = sm.parse_smiles("CS")
    s = g.atoms[1]
    assert s.implicit_h_count == 1  # lowest sulfur valence that fits
    g = sm.parse_smiles("OS(=O)(=O)O")
    s = next(a for a in g.atoms if a.element == "S")
    assert s.implicit_h_count == 0  # expanded to valence 6


def test_dot_separates_components():
    g = sm.parse_smiles("[Na+].[O-]C")
    assert g.n_atoms == 3
    assert len(g.bonds) == 1
    adj = g.adjacency()
    assert adj[0].sum() == 0  # sodium is disconnected


def test_parse_errors():
    with pytest.raises(sm.EmptyInput):
        sm.parse_smiles("   ")
    with pytest.raises(sm.UnclosedRing):
        sm.parse_smiles("C1CC")
    with pytest.raises(sm.UnbalancedParen):
        sm.parse_smiles("C(C")
    with pytest.raises(sm.UnbalancedParen):
        sm.parse_smiles("C)C")
    with pytest.raises(sm.UnknownAtomSymbol):
        sm.parse_smiles("[Xq]")
    with pytest.raises(sm.UnknownAtomSymbol):
        sm.parse_smiles("Qc")
    with pytest.raises(sm.SmilesError):
        sm.parse_smiles("C/C=C/C")  # stereo unsupported
    with pytest.raises(sm.SmilesError):
        sm.parse_smiles("[13C]")  # isotopes unsupported
    with pytest.raises(sm.SmilesError):
        sm.parse_smiles("C==C")
    with pytest.raises(sm.SmilesError):
        sm.parse_smiles("CC=")


def test_atom_count_cap():
    assert sm.MAX_ATOMS == 290
    with pytest.raises(sm.MoleculeTooLarge, match="291 atoms exceeds the 290 atom limit"):
        sm.parse_smiles("C" * 291)
    with pytest.raises(sm.MoleculeTooLarge):
        sm.parse_smiles("c1ccccc1" + "C" * 285)  # 291 atoms with a ring
    ok = sm.parse_smiles("C" * 290)
    assert ok.n_atoms == 290


def test_explicit_ring_bond_order():
    g = sm.parse_smiles("C=1CCCCC=1")
    closure = [b for b in g.bonds if {b.i, b.j} == {0, 5}][0]
    assert closure.order == sm.DOUBLE


@pytest.mark.parametrize(
    "smiles, error, message",
    [
        ("[CH4", sm.SmilesError, "unterminated bracket"),
        ("[CH4x]", sm.SmilesError, "unsupported bracket content"),
        ("1CC1", sm.SmilesError, "before any atom"),
        ("C11", sm.SmilesError, "bonds an atom to itself"),
        ("C=1CC-1", sm.SmilesError, "conflicting bond orders"),
        ("C%1", sm.SmilesError, "needs two digits"),
        ("C-.C", sm.SmilesError, "before component separator"),
        ("C$", sm.SmilesError, "unexpected character"),
        ("[]", sm.UnknownAtomSymbol, "empty bracket"),
        ("[+]", sm.UnknownAtomSymbol, "bad atom symbol"),
        ("C*", sm.UnknownAtomSymbol, "wildcard"),
        ("(C)C", sm.UnbalancedParen, "branch before any atom"),
        (".", sm.EmptyInput, "no atoms"),
    ],
)
def test_rejected_smiles_raise_their_own_error(smiles, error, message):
    """Each malformed input is refused with its exact error class, not a
    subclass and not a crash further in."""
    with pytest.raises(sm.SmilesError, match=message) as info:
        sm.parse_smiles(smiles)
    assert type(info.value) is error
