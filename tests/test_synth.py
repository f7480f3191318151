"""Synthetic corpus: label recomputability, noise accounting, domains."""

import hashlib
import json

import numpy as np
import pytest

from dtikit import synth
from dtikit.smiles import parse_smiles
from dtikit.splits import (
    drug_distance_matrix,
    protein_distance_matrix,
    single_linkage_cluster,
)
from dtikit.synth import (
    EmptyRules,
    MotifRule,
    SyntheticCorpus,
    SyntheticSpec,
    rule_label,
    synth_generate,
)

TWO_RULES = (MotifRule("WW", "N"), MotifRule("YY", "O"))


def shifted_spec(**kw):
    return SyntheticSpec(rules=TWO_RULES, domain_shift=True, **kw)


@pytest.fixture(scope="module")
def corpus():
    return synth_generate(SyntheticSpec(), seed=0)


@pytest.fixture(scope="module")
def shifted_corpus():
    return synth_generate(shifted_spec(), seed=1)


class TestRuleLabel:
    def test_fires_on_motif_and_marker(self):
        g = parse_smiles("CCCN")
        assert rule_label("ACDWWACD", g, TWO_RULES) == 1

    def test_motif_without_marker_is_negative(self):
        g = parse_smiles("CCCC")
        assert rule_label("ACDWWACD", g, TWO_RULES) == 0

    def test_marker_without_motif_is_negative(self):
        g = parse_smiles("CCCN")
        assert rule_label("ACDACD", g, TWO_RULES) == 0

    def test_any_rule_suffices(self):
        g = parse_smiles("CCCO")
        assert rule_label("ACDYYACD", g, TWO_RULES) == 1

    def test_mixed_vocabularies_do_not_fire(self):
        # first rule's motif with second rule's marker
        g = parse_smiles("CCCO")
        assert rule_label("ACDWWACD", g, TWO_RULES) == 0


class TestSpecValidation:
    def test_empty_rules_rejected(self):
        with pytest.raises(EmptyRules):
            SyntheticSpec(rules=())

    def test_domain_shift_needs_two_rules(self):
        with pytest.raises(EmptyRules):
            SyntheticSpec(rules=(MotifRule("WW", "N"),), domain_shift=True)

    def test_motif_must_use_reserved_letters(self):
        with pytest.raises(ValueError):
            SyntheticSpec(rules=(MotifRule("AC", "N"),))

    def test_carbon_marker_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(rules=(MotifRule("WW", "C"),))

    def test_too_many_records_rejected(self):
        spec = SyntheticSpec(n_drugs=4, n_proteins=4, n_records=17)
        with pytest.raises(ValueError, match="pairs exist"):
            synth_generate(spec, 0)


class TestGeneratedCorpus:
    def test_record_count(self, corpus):
        assert len(corpus.records) == 2000

    def test_clean_labels_recompute_from_csv_columns(self, corpus):
        rules = corpus.spec.rules
        for rec, clean in zip(corpus.records, corpus.clean_labels):
            g = parse_smiles(rec.smiles)
            assert rule_label(rec.sequence, g, rules) == clean

    def test_noisy_label_differs_exactly_where_flipped(self, corpus):
        noisy = np.array([r.label for r in corpus.records])
        assert np.array_equal(noisy != corpus.clean_labels, corpus.flipped)
        assert corpus.flip_count == int(corpus.flipped.sum())

    def test_flip_rate_near_noise_level(self, corpus):
        rate = corpus.flip_count / len(corpus.records)
        assert abs(rate - corpus.spec.noise) < 0.02

    def test_both_classes_present(self, corpus):
        pos = corpus.clean_labels.mean()
        assert 0.2 < pos < 0.5

    def test_affinity_tracks_clean_label(self, corpus):
        pos = corpus.affinities[corpus.clean_labels == 1]
        neg = corpus.affinities[corpus.clean_labels == 0]
        assert abs(pos.mean() - 7.0) < 0.1
        assert abs(neg.mean() - 4.0) < 0.1

    def test_protein_families_recoverable_by_clustering(self, corpus):
        seqs = {r.protein_id: r.sequence for r in corpus.records}
        pids = sorted(seqs)
        dist = protein_distance_matrix([seqs[p] for p in pids])
        labels = single_linkage_cluster(dist, 0.5)
        fams = [corpus.protein_families[p] for p in pids]
        pairs = set(zip(fams, labels.tolist()))
        assert len(set(labels.tolist())) == synth.N_PROTEIN_FAMILIES
        assert len(pairs) == synth.N_PROTEIN_FAMILIES

    def test_drug_families_recoverable_by_clustering(self, corpus):
        smiles = {r.drug_id: r.smiles for r in corpus.records}
        dids = sorted(smiles)
        dist = drug_distance_matrix([smiles[d] for d in dids])
        labels = single_linkage_cluster(dist, 0.5)
        fams = [corpus.drug_families[d] for d in dids]
        pairs = set(zip(fams, labels.tolist()))
        assert len(set(labels.tolist())) == synth.N_DRUG_FAMILIES
        assert len(pairs) == synth.N_DRUG_FAMILIES


class TestDomainShift:
    def test_every_record_assigned_a_domain(self, shifted_corpus):
        assert set(shifted_corpus.domains) == {"source", "target"}

    def test_source_fraction_respected(self, shifted_corpus):
        frac = shifted_corpus.domains.count("source") / len(shifted_corpus.domains)
        assert abs(frac - synth.SOURCE_FRACTION) < 0.01

    def test_vocabularies_disjoint_across_domains(self, shifted_corpus):
        src_motif, src_marker = "WW", "N"
        tgt_motif, tgt_marker = "YY", "O"
        for rec, dom in zip(shifted_corpus.records, shifted_corpus.domains):
            elements = {a.element for a in parse_smiles(rec.smiles).atoms}
            if dom == "source":
                assert tgt_motif not in rec.sequence
                assert tgt_marker not in elements
            else:
                assert src_motif not in rec.sequence
                assert src_marker not in elements

    def test_entities_never_cross_domains(self, shifted_corpus):
        seen = {}
        for rec, dom in zip(shifted_corpus.records, shifted_corpus.domains):
            for ent in (rec.drug_id, rec.protein_id):
                assert seen.setdefault(ent, dom) == dom

    def test_labels_still_recompute(self, shifted_corpus):
        for rec, clean in zip(shifted_corpus.records, shifted_corpus.clean_labels):
            g = parse_smiles(rec.smiles)
            assert rule_label(rec.sequence, g, shifted_corpus.spec.rules) == clean


class TestReproducibility:
    def test_same_seed_is_byte_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            c = synth_generate(SyntheticSpec(), seed=0)
            csv_path = tmp_path / f"run{run}.csv"
            man_path = tmp_path / f"run{run}.json"
            c.to_csv(csv_path)
            c.save_manifest(man_path)
            blobs.append((csv_path.read_bytes(), man_path.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_each_distinct_smiles_is_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        parse = synth.parse_smiles
        monkeypatch.setattr(synth, "parse_smiles", lambda s: calls.append(s) or parse(s))
        c = synth_generate(SyntheticSpec(), seed=0)
        smiles = {r.drug_id: r.smiles for r in c.records}  # every drug has a record
        assert len(smiles) == 120
        assert sorted(calls) == sorted(set(smiles.values()))
        # the CSV recorded before the parse was keyed on the SMILES
        c.to_csv(tmp_path / "corpus.csv")
        assert hashlib.sha256((tmp_path / "corpus.csv").read_bytes()).hexdigest() == (
            "21030f2473d4ebd5f95622b1b835a47f047a874875a4cd7befd13ebe11faab45"
        )

    def test_different_seed_differs(self, tmp_path):
        a = synth_generate(SyntheticSpec(), seed=0)
        b = synth_generate(SyntheticSpec(), seed=1)
        seqs = [{r.protein_id: r.sequence for r in c.records} for c in (a, b)]
        assert seqs[0] != seqs[1]

    def test_manifest_flip_count_matches_records(self, tmp_path):
        c = synth_generate(SyntheticSpec(n_records=500), seed=3)
        man = c.manifest_dict()
        flips = sum(r["flipped"] for r in man["records"])
        assert man["flip_count"] == flips == c.flip_count
        for row in man["records"]:
            if row["flipped"]:
                assert row["label"] == 1 - row["clean_label"]
            else:
                assert row["label"] == row["clean_label"]
