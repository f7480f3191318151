"""SMILES parsing into molecular graphs.

Covers the subset the pipeline needs: the organic subset written bare
(B, C, N, O, P, S, F, Cl, Br, I and their aromatic lowercase forms),
bracket atoms with explicit hydrogen counts and charges, single, double,
triple and aromatic bonds, branches, two-digit ring closures via %, and
dot-separated components. Stereochemistry and isotopes are out of scope
and rejected rather than silently dropped.

Implicit hydrogen counts follow the usual valence fill rule for bare
atoms only; bracket atoms carry exactly the hydrogens they declare.
Aromatic bonds count 1.5 toward valence and the total is rounded up
before filling, which reproduces the textbook counts (benzene carbons
get one hydrogen, pyridine nitrogen gets none).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SINGLE = 1
DOUBLE = 2
TRIPLE = 3
AROMATIC = 4

MAX_ATOMS = 290

# bare (unbracketed) atoms and their valence fill targets
ORGANIC_SUBSET = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
AROMATIC_SUBSET = {"b", "c", "n", "o", "p", "s"}
DEFAULT_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# elements accepted inside brackets; anything else is an unknown symbol
BRACKET_ELEMENTS = ORGANIC_SUBSET | {
    "H", "Li", "Na", "K", "Mg", "Ca", "Fe", "Zn", "Cu", "Mn", "Co", "Ni",
    "Se", "As", "Si", "Al", "Ag", "Au", "Hg", "Pt", "Pd", "Sn", "Sb", "Bi",
}


class SmilesError(ValueError):
    pass


class EmptyInput(SmilesError):
    pass


class UnbalancedParen(SmilesError):
    pass


class UnclosedRing(SmilesError):
    pass


class UnknownAtomSymbol(SmilesError):
    pass


class MoleculeTooLarge(SmilesError):
    pass


@dataclass(frozen=True)
class AtomFeature:
    element: str
    degree: int
    formal_charge: int
    is_aromatic: bool
    implicit_h_count: int


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: int


@dataclass
class MolecularGraph:
    atoms: list[AtomFeature]
    bonds: list[Bond]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 connectivity matrix in atom appearance order."""
        a = np.zeros((self.n_atoms, self.n_atoms))
        for b in self.bonds:
            a[b.i, b.j] = 1.0
            a[b.j, b.i] = 1.0
        return a

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Per-atom list of (neighbor index, bond order)."""
        out: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for b in self.bonds:
            out[b.i].append((b.j, b.order))
            out[b.j].append((b.i, b.order))
        return out


_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}


class _RawAtom:
    __slots__ = ("element", "aromatic", "charge", "explicit_h", "bracket")

    def __init__(self, element, aromatic, charge=0, explicit_h=0, bracket=False):
        self.element = element
        self.aromatic = aromatic
        self.charge = charge
        self.explicit_h = explicit_h
        self.bracket = bracket


def _parse_bracket(text: str, pos: int) -> tuple[_RawAtom, int]:
    """Parse a bracket atom starting just past '['; returns (atom, index past ']')."""
    end = text.find("]", pos)
    if end < 0:
        raise SmilesError(f"unterminated bracket at position {pos - 1}")
    body = text[pos:end]
    if not body:
        raise UnknownAtomSymbol("empty bracket atom")
    i = 0
    if body[i].isdigit():
        raise SmilesError("isotope labels are not supported")
    aromatic = False
    if body[i] in AROMATIC_SUBSET and not (i + 1 < len(body) and body[i + 1].islower()):
        element = body[i].upper()
        aromatic = True
        i += 1
    elif body[i].isupper():
        element = body[i]
        i += 1
        if i < len(body) and body[i].islower() and element + body[i] in BRACKET_ELEMENTS:
            element += body[i]
            i += 1
    else:
        raise UnknownAtomSymbol(f"bad atom symbol in bracket: {body!r}")
    if element not in BRACKET_ELEMENTS:
        raise UnknownAtomSymbol(f"unknown element {element!r}")
    explicit_h = 0
    if i < len(body) and body[i] == "H":
        i += 1
        digits = ""
        while i < len(body) and body[i].isdigit():
            digits += body[i]
            i += 1
        explicit_h = int(digits) if digits else 1
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symbol = body[i]
        i += 1
        digits = ""
        while i < len(body) and body[i].isdigit():
            digits += body[i]
            i += 1
        if digits:
            charge = sign * int(digits)
        else:
            charge = sign
            while i < len(body) and body[i] == symbol:
                charge += sign
                i += 1
    if i != len(body):
        raise SmilesError(f"unsupported bracket content: {body!r}")
    return _RawAtom(element, aromatic, charge, explicit_h, bracket=True), end + 1


def parse_smiles(smiles: str) -> MolecularGraph:
    """Parse a SMILES string into a MolecularGraph.

    Raises EmptyInput, UnbalancedParen, UnclosedRing, UnknownAtomSymbol,
    MoleculeTooLarge, or the base SmilesError for anything outside the
    supported subset.
    """
    text = smiles.strip()
    if not text:
        raise EmptyInput("empty SMILES string")

    raw: list[_RawAtom] = []
    bonds: list[tuple[int, int, int | None]] = []  # order None = decide by aromaticity
    ring_open: dict[int, tuple[int, int | None]] = {}
    branch_stack: list[int | None] = []
    prev: int | None = None
    pending_bond: int | None = None

    def attach(idx: int) -> None:
        nonlocal pending_bond
        if prev is not None:
            bonds.append((prev, idx, pending_bond))
        pending_bond = None

    def open_or_close_ring(label: int) -> None:
        nonlocal pending_bond
        if prev is None:
            raise SmilesError("ring closure digit before any atom")
        if label in ring_open:
            other, open_bond = ring_open.pop(label)
            if other == prev:
                raise SmilesError(f"ring closure {label} bonds an atom to itself")
            order = pending_bond if pending_bond is not None else open_bond
            if pending_bond is not None and open_bond is not None and pending_bond != open_bond:
                raise SmilesError(f"conflicting bond orders on ring closure {label}")
            bonds.append((other, prev, order))
        else:
            ring_open[label] = (prev, pending_bond)
        pending_bond = None

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            atom, i = _parse_bracket(text, i + 1)
            raw.append(atom)
            attach(len(raw) - 1)
            prev = len(raw) - 1
        elif ch.isupper():
            symbol = ch
            if i + 1 < n and text[i : i + 2] in ("Cl", "Br"):
                symbol = text[i : i + 2]
                i += 1
            if symbol not in ORGANIC_SUBSET:
                raise UnknownAtomSymbol(f"atom {symbol!r} must be written in brackets")
            raw.append(_RawAtom(symbol, aromatic=False))
            attach(len(raw) - 1)
            prev = len(raw) - 1
            i += 1
        elif ch in AROMATIC_SUBSET:
            raw.append(_RawAtom(ch.upper(), aromatic=True))
            attach(len(raw) - 1)
            prev = len(raw) - 1
            i += 1
        elif ch in _BOND_CHARS:
            if pending_bond is not None:
                raise SmilesError("two bond symbols in a row")
            pending_bond = _BOND_CHARS[ch]
            i += 1
        elif ch.isdigit():
            open_or_close_ring(int(ch))
            i += 1
        elif ch == "%":
            if i + 2 >= n or not text[i + 1 : i + 3].isdigit():
                raise SmilesError("'%' ring label needs two digits")
            open_or_close_ring(int(text[i + 1 : i + 3]))
            i += 3
        elif ch == "(":
            if prev is None:
                raise UnbalancedParen("branch before any atom")
            branch_stack.append(prev)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnbalancedParen("')' without matching '('")
            prev = branch_stack.pop()
            i += 1
        elif ch == ".":
            if pending_bond is not None:
                raise SmilesError("bond symbol before component separator")
            prev = None
            i += 1
        elif ch in "@/\\":
            raise SmilesError("stereochemistry markers are not supported")
        elif ch == "*":
            raise UnknownAtomSymbol("wildcard atoms are not supported")
        else:
            raise SmilesError(f"unexpected character {ch!r} at position {i}")

    if branch_stack:
        raise UnbalancedParen(f"{len(branch_stack)} unclosed '('")
    if ring_open:
        raise UnclosedRing(f"unclosed ring labels: {sorted(ring_open)}")
    if pending_bond is not None:
        raise SmilesError("dangling bond symbol at end of input")
    if not raw:
        raise EmptyInput(f"no atoms in {smiles!r}")
    if len(raw) > MAX_ATOMS:
        raise MoleculeTooLarge(f"{len(raw)} atoms exceeds the {MAX_ATOMS} atom limit")

    final_bonds: list[Bond] = []
    valence_sum = [0.0] * len(raw)
    degree = [0] * len(raw)
    for a, b, order in bonds:
        if order is None:
            order = AROMATIC if raw[a].aromatic and raw[b].aromatic else SINGLE
        lo, hi = (a, b) if a < b else (b, a)
        final_bonds.append(Bond(lo, hi, order))
        contribution = 1.5 if order == AROMATIC else float(order)
        valence_sum[a] += contribution
        valence_sum[b] += contribution
        degree[a] += 1
        degree[b] += 1

    atoms: list[AtomFeature] = []
    for idx, r in enumerate(raw):
        if r.bracket:
            implicit_h = r.explicit_h
        else:
            used = int(np.ceil(valence_sum[idx] - 1e-9))
            implicit_h = 0
            for valence in DEFAULT_VALENCES[r.element]:
                if valence >= used:
                    implicit_h = valence - used
                    break
        atoms.append(
            AtomFeature(
                element=r.element,
                degree=degree[idx],
                formal_charge=r.charge,
                is_aromatic=r.aromatic,
                implicit_h_count=implicit_h,
            )
        )
    return MolecularGraph(atoms=atoms, bonds=final_bonds)
