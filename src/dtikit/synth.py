"""Synthetic interaction corpus with planted, recoverable structure.

Proteins come from families with disjoint background alphabets; drugs come
from families built on distinct carbon scaffolds.  A record is positive
exactly when some rule fires: the protein contains the rule's motif AND the
molecule contains the rule's marker element.  Backgrounds never use motif
letters and scaffolds never use marker elements, so the label is a clean
deterministic function of the pair that an independent checker can recover
from the CSV alone.  Families make the similarity-based splits
non-degenerate: sequences cluster by background alphabet, molecules by
scaffold.

With the domain-shift knob on, the first half of the families realises the
first rule's vocabulary and the second half the second rule's, and pairs
never cross the boundary.  The label function itself stays global, so a
model that truly learned "motif and marker" transfers; one that memorised
the source vocabulary does not.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .datasets import InteractionRecord
from .rng import substream
from .smiles import MolecularGraph, parse_smiles

MOTIF_LETTERS = "WY"
BACKGROUND_POOL = "ACDEFGHIKLMNPQRSTV"
LETTERS_PER_FAMILY = 3
# one protein family per disjoint slice of the background pool, one drug
# family per chain grammar of `_make_drug`
N_PROTEIN_FAMILIES = len(BACKGROUND_POOL) // LETTERS_PER_FAMILY
N_DRUG_FAMILIES = 4
# a carrier protein holds this many striped copies of its family's motif
MOTIF_COPIES = 2
PROTEIN_CARRIER_RATE = 0.65
DRUG_CARRIER_RATE = 0.6
# share of a domain-shifted corpus's records drawn from the source domain
SOURCE_FRACTION = 0.6

GENERATOR_VERSION = 1


class EmptyRules(ValueError):
    pass


class TooManyRecords(ValueError):
    """More records asked of a pool than it has drug-protein pairs."""


@dataclass(frozen=True)
class MotifRule:
    protein_motif: str
    drug_marker: str  # element symbol inserted into the carbon skeleton


@dataclass(frozen=True)
class SyntheticSpec:
    n_drugs: int = 120
    n_proteins: int = 60
    n_records: int = 2000
    rules: tuple[MotifRule, ...] = (MotifRule("WWW", "N"),)
    noise: float = 0.05
    domain_shift: bool = False
    seq_len: tuple[int, int] = (30, 44)
    chain_len: tuple[int, int] = (4, 9)

    def __post_init__(self):
        if not self.rules:
            raise EmptyRules("need at least one motif rule")
        if self.domain_shift and len(self.rules) < 2:
            raise EmptyRules("domain shift needs two rules for disjoint vocabularies")
        longest = max(len(r.protein_motif) for r in self.rules)
        if self.seq_len[0] // MOTIF_COPIES <= longest:
            raise ValueError("sequences too short to stripe the motif copies")
        for rule in self.rules:
            if any(ch not in MOTIF_LETTERS for ch in rule.protein_motif):
                raise ValueError(
                    f"motif {rule.protein_motif!r} must use only {MOTIF_LETTERS!r}"
                )
            if rule.drug_marker in ("C",):
                raise ValueError("marker element must differ from the carbon skeleton")


def rule_label(sequence: str, graph: MolecularGraph, rules) -> int:
    """Independent ground-truth check: 1 iff any rule's motif appears in the
    sequence and its marker element appears in the molecule."""
    elements = {atom.element for atom in graph.atoms}
    for rule in rules:
        if rule.protein_motif in sequence and rule.drug_marker in elements:
            return 1
    return 0


@dataclass
class SyntheticCorpus:
    spec: SyntheticSpec
    seed: int
    records: list[InteractionRecord]
    affinities: np.ndarray
    clean_labels: np.ndarray
    flipped: np.ndarray
    domains: list[str]
    protein_families: dict[str, int]
    drug_families: dict[str, int]

    @property
    def flip_count(self) -> int:
        return int(self.flipped.sum())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["drug_id", "protein_id", "smiles", "sequence", "label", "affinity"]
            )
            for rec, aff in zip(self.records, self.affinities):
                writer.writerow(
                    [
                        rec.drug_id,
                        rec.protein_id,
                        rec.smiles,
                        rec.sequence,
                        int(rec.label),
                        f"{aff:.6f}",
                    ]
                )

    def manifest_dict(self) -> dict:
        return {
            "generator_version": GENERATOR_VERSION,
            "seed": self.seed,
            "spec": {
                "n_drugs": self.spec.n_drugs,
                "n_proteins": self.spec.n_proteins,
                "n_records": self.spec.n_records,
                "n_protein_families": N_PROTEIN_FAMILIES,
                "n_drug_families": N_DRUG_FAMILIES,
                "rules": [
                    [r.protein_motif, r.drug_marker] for r in self.spec.rules
                ],
                "noise": self.spec.noise,
                "domain_shift": self.spec.domain_shift,
            },
            "flip_count": self.flip_count,
            "protein_families": dict(sorted(self.protein_families.items())),
            "drug_families": dict(sorted(self.drug_families.items())),
            "records": [
                {
                    "drug_id": rec.drug_id,
                    "protein_id": rec.protein_id,
                    "clean_label": int(clean),
                    "label": int(rec.label),
                    "flipped": bool(flip),
                    "domain": dom,
                }
                for rec, clean, flip, dom in zip(
                    self.records, self.clean_labels, self.flipped, self.domains
                )
            ],
        }

    def save_manifest(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.manifest_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def _family_rule(spec: SyntheticSpec, family: int, n_families: int) -> MotifRule:
    """Which rule vocabulary a family realises."""
    if not spec.domain_shift:
        return spec.rules[family % len(spec.rules)]
    half = -(-n_families // 2)
    return spec.rules[0] if family < half else spec.rules[1]


def _family_domain(spec: SyntheticSpec, family: int, n_families: int) -> str:
    if not spec.domain_shift:
        return ""
    half = -(-n_families // 2)
    return "source" if family < half else "target"


def _make_protein(rng, spec: SyntheticSpec, family: int) -> str:
    alphabet = BACKGROUND_POOL[
        family * LETTERS_PER_FAMILY : (family + 1) * LETTERS_PER_FAMILY
    ]
    length = int(rng.integers(spec.seq_len[0], spec.seq_len[1] + 1))
    seq = list(rng.choice(list(alphabet), size=length))
    if rng.random() < PROTEIN_CARRIER_RATE:
        motif = _family_rule(spec, family, N_PROTEIN_FAMILIES).protein_motif
        # one copy per stripe of the sequence, so copies never overlap
        stripe = length // MOTIF_COPIES
        for c in range(MOTIF_COPIES):
            lo = c * stripe
            hi = min((c + 1) * stripe, length) - len(motif)
            pos = int(rng.integers(lo, hi + 1))
            seq[pos : pos + len(motif)] = list(motif)
    return "".join(seq)


def _make_drug(rng, spec: SyntheticSpec, family: int) -> str:
    # Each family is a chain grammar the fingerprint separates well: plain
    # carbon rings of different sizes all look alike to a degree-based hash,
    # but branching density and aromaticity do not.
    lo, hi = spec.chain_len
    n = int(rng.integers(lo, hi + 1))
    if family == 0:
        core = "C" * max(n, 2)
    elif family == 1:
        core = "C" + "C(C)" * max(n // 2, 2) + "C"
    elif family == 2:
        core = "c1ccccc1" + "C" * max(n // 3, 2)
    else:
        core = "C" + "C(C)(C)" * max(n // 2, 2) + "C"
    if rng.random() < DRUG_CARRIER_RATE:  # one marker atom at the chain's tip
        tip = _family_rule(spec, family, N_DRUG_FAMILIES).drug_marker
    else:
        tip = "C"
    return core + tip


def synth_generate(spec: SyntheticSpec, seed: int) -> SyntheticCorpus:
    """Deterministically build the corpus; all draws come from named
    substreams of the given seed."""
    rng_e = substream(seed, "synth.entities")
    rng_p = substream(seed, "synth.pairs")
    rng_n = substream(seed, "synth.noise")
    rng_a = substream(seed, "synth.affinity")

    proteins = {}
    protein_families = {}
    protein_domains = {}
    for i in range(spec.n_proteins):
        fam = i % N_PROTEIN_FAMILIES
        pid = f"P{i:04d}"
        proteins[pid] = _make_protein(rng_e, spec, fam)
        protein_families[pid] = fam
        protein_domains[pid] = _family_domain(spec, fam, N_PROTEIN_FAMILIES)

    drugs = {}
    drug_families = {}
    drug_domains = {}
    for j in range(spec.n_drugs):
        fam = j % N_DRUG_FAMILIES
        did = f"D{j:04d}"
        drugs[did] = _make_drug(rng_e, spec, fam)
        drug_families[did] = fam
        drug_domains[did] = _family_domain(spec, fam, N_DRUG_FAMILIES)

    # ids that share a SMILES share its parsed graph
    graph_of = {s: parse_smiles(s) for s in dict.fromkeys(drugs.values())}

    pid_list = sorted(proteins)
    did_list = sorted(drugs)
    if spec.domain_shift:
        n_source = int(round(spec.n_records * SOURCE_FRACTION))
        pools = []
        for dom, n in (("source", n_source), ("target", spec.n_records - n_source)):
            ps = [p for p in pid_list if protein_domains[p] == dom]
            ds = [d for d in did_list if drug_domains[d] == dom]
            pools.append((dom, ps, ds, n))
    else:
        pools = [("", pid_list, did_list, spec.n_records)]

    records = []
    clean = []
    domains = []
    for dom, ps, ds, n in pools:
        combos = len(ps) * len(ds)
        if n > combos:
            where = f" of the {dom} domain" if dom else ""
            raise TooManyRecords(f"asked for {n} records{where} but only {combos} pairs exist")
        picks = rng_p.choice(combos, size=n, replace=False)
        for c in np.sort(picks):
            pid = ps[c // len(ds)]
            did = ds[c % len(ds)]
            label = rule_label(proteins[pid], graph_of[drugs[did]], spec.rules)
            records.append(
                InteractionRecord(did, pid, drugs[did], proteins[pid], float(label))
            )
            clean.append(label)
            domains.append(dom)

    clean = np.array(clean)
    flips = rng_n.random(len(records)) < spec.noise
    noisy = np.where(flips, 1 - clean, clean)
    records = [
        InteractionRecord(r.drug_id, r.protein_id, r.smiles, r.sequence, float(y))
        for r, y in zip(records, noisy)
    ]
    affinities = 4.0 + 3.0 * clean + rng_a.normal(0.0, 0.3, size=len(records))

    return SyntheticCorpus(
        spec=spec,
        seed=seed,
        records=records,
        affinities=affinities,
        clean_labels=clean,
        flipped=flips,
        domains=domains,
        protein_families=protein_families,
        drug_families=drug_families,
    )
