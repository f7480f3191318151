import ast
from pathlib import Path

import numpy as np
import pytest

from dtikit import splits as sp
from dtikit.cli import DOMAIN_SHIFT_RULES
from dtikit.datasets import InteractionRecord
from dtikit.descriptors import ZeroVector, ecfp, psc
from dtikit.proteins import EmptySequence
from dtikit.rng import substream
from dtikit.smiles import parse_smiles
from dtikit.synth import SyntheticSpec, synth_generate
from dtikit.train import manifest_sha256


# -- brute force single-linkage oracle ----------------------------------------


def agglomerative_oracle(dist, threshold):
    """Repeatedly merge the closest pair of clusters while the single-link
    distance stays below threshold."""
    clusters = [{i} for i in range(len(dist))]
    while len(clusters) > 1:
        best = None
        best_d = np.inf
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = min(dist[i][j] for i in clusters[a] for j in clusters[b])
                if d < best_d:
                    best_d = d
                    best = (a, b)
        if best_d >= threshold:
            break
        a, b = best
        clusters[a] |= clusters[b]
        del clusters[b]
    return clusters


def partition_of(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return sorted(groups.values(), key=sorted)


def test_single_linkage_matches_agglomerative_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 16))
        d = np.round(rng.random((n, n)), 2)
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        threshold = float(rng.uniform(0.1, 0.9))
        got = partition_of(sp.single_linkage_cluster(d, threshold))
        want = sorted(agglomerative_oracle(d, threshold), key=sorted)
        assert got == want


def test_single_linkage_line_example():
    pts = np.array([0.0, 1.0, 2.0, 10.0])
    d = np.abs(pts[:, None] - pts[None, :])
    labels = sp.single_linkage_cluster(d, 1.5)
    assert list(labels) == [0, 0, 0, 1]


def test_single_linkage_validation():
    with pytest.raises(sp.NonSymmetric):
        sp.single_linkage_cluster(np.array([[0.0, 1.0], [2.0, 0.0]]), 0.5)
    with pytest.raises(sp.NegativeDistance):
        sp.single_linkage_cluster(np.array([[0.0, -1.0], [-1.0, 0.0]]), 0.5)


def canonical(labels):
    """Labels numbered by first member: first appearances read 0, 1, 2, ..."""
    firsts = list(dict.fromkeys(int(x) for x in labels))
    return firsts == list(range(len(firsts)))


def shuffled_path(n, seed, link):
    """Distances of a path visiting n nodes in shuffled index order, `link`
    between neighbours on the path and 1.0 elsewhere."""
    order = np.random.default_rng(seed).permutation(n)
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    d[order[:-1], order[1:]] = d[order[1:], order[:-1]] = link
    return d


@pytest.fixture(params=["one-block", "blocks-of-7"])
def row_blocks(request, monkeypatch):
    """Run a kernel test under the real row blocks and under blocks of 7
    rows, so small matrices also cross block boundaries."""
    if request.param == "blocks-of-7":
        monkeypatch.setattr(
            sp, "_row_blocks", lambda n: [(lo, min(lo + 7, n)) for lo in range(0, n, 7)]
        )


def test_single_linkage_shuffled_path_matches_oracle(row_blocks):
    # links below threshold join the whole path into one cluster
    d = shuffled_path(40, seed=2, link=0.1)
    labels = sp.single_linkage_cluster(d, 0.5)
    assert list(labels) == [0] * 40
    # every fourth link raised exactly to the threshold, which is no edge
    order = np.random.default_rng(2).permutation(40)
    for k in range(3, 39, 4):
        d[order[k], order[k + 1]] = d[order[k + 1], order[k]] = 0.5
    labels = sp.single_linkage_cluster(d, 0.5)
    assert partition_of(labels) == sorted(agglomerative_oracle(d, 0.5), key=sorted)
    assert len(set(labels)) == 10
    assert canonical(labels)


def test_single_linkage_distances_at_threshold_are_not_edges(row_blocks):
    d = np.full((9, 9), 0.25)
    np.fill_diagonal(d, 0.0)
    assert list(sp.single_linkage_cluster(d, 0.25)) == list(range(9))
    assert partition_of(range(9)) == sorted(agglomerative_oracle(d, 0.25), key=sorted)
    assert list(sp.single_linkage_cluster(d, np.nextafter(0.25, 1.0))) == [0] * 9


def test_single_linkage_random_matrices_across_blocks(row_blocks):
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(8, 30))
        d = np.round(rng.random((n, n)), 2)
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        threshold = float(rng.uniform(0.02, 0.2))
        labels = sp.single_linkage_cluster(d, threshold)
        assert partition_of(labels) == sorted(agglomerative_oracle(d, threshold), key=sorted)
        assert canonical(labels)


def test_single_linkage_empty_and_single():
    labels = sp.single_linkage_cluster(np.zeros((0, 0)), 0.5)
    assert labels.dtype == np.int64 and labels.shape == (0,)
    assert list(sp.single_linkage_cluster(np.zeros((1, 1)), 0.5)) == [0]


# -- distance matrices against scalar oracles ------------------------------------


def jaccard_distance(a, b):
    """Scalar reference: 1 - |a & b| / |a | b|, and 0 for two empty sets."""
    aa = a != 0
    bb = b != 0
    union = int(np.logical_or(aa, bb).sum())
    if union == 0:
        return 0.0
    inter = int(np.logical_and(aa, bb).sum())
    return 1.0 - inter / union


def cosine_distance(u, v):
    """Scalar reference: 1 - u.v / (|u| |v|), undefined for a zero vector."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < 1e-12 or nv < 1e-12:
        raise ZeroVector("cosine distance undefined for zero vectors")
    return float(1.0 - float(u @ v) / (nu * nv))


def pairwise(vectors, distance):
    n = len(vectors)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = distance(vectors[i], vectors[j])
    return d


@pytest.fixture(scope="module")
def corpus_entities():
    """Drug SMILES and protein sequences of the 300-record corpus, in id order."""
    records = synth_generate(SyntheticSpec(n_records=300), 0).records
    drugs = {r.drug_id: r.smiles for r in records}
    prots = {r.protein_id: r.sequence for r in records}
    return [drugs[i] for i in sorted(drugs)], [prots[i] for i in sorted(prots)]


def test_drug_matrix_equals_scalar_jaccard(corpus_entities, row_blocks):
    smiles, _ = corpus_entities
    got = sp.drug_distance_matrix(smiles)
    want = pairwise([ecfp(parse_smiles(s)) for s in smiles], jaccard_distance)
    assert np.array_equal(got, want)


def fingerprints_by_name(monkeypatch, fps):
    """Make drug_distance_matrix read the fingerprint fps[name] for name."""
    monkeypatch.setattr(sp, "parse_smiles", lambda name: name)
    monkeypatch.setattr(sp, "ecfp", lambda name: fps[name])


def test_drug_matrix_jaccard_cases(monkeypatch, row_blocks):
    a = ecfp(parse_smiles("CCO"))
    b = np.zeros_like(a)
    b[(np.flatnonzero(a) + 1) % a.size] = 1  # disjoint support
    fps = {"a": a, "a2": a.copy(), "b": b, "z": np.zeros_like(a), "z2": np.zeros_like(a)}
    fingerprints_by_name(monkeypatch, fps)
    names = ["a", "z", "b", "a2", "z2"]
    d = sp.drug_distance_matrix(names)
    assert d[0, 3] == 0.0  # identical fingerprints
    assert d[1, 4] == 0.0  # two empty ones
    assert d[0, 2] == 1.0  # disjoint ones
    assert d[0, 1] == 1.0  # one empty
    assert np.array_equal(d, pairwise([fps[k] for k in names], jaccard_distance))


def test_drug_matrix_with_empty_fingerprint_equals_scalar_jaccard(
    corpus_entities, monkeypatch, row_blocks
):
    smiles, _ = corpus_entities
    fps = {s: ecfp(parse_smiles(s)) for s in smiles[:20]}
    fps["empty"] = np.zeros(len(fps[smiles[0]]), dtype=np.uint8)
    names = smiles[:10] + ["empty"] + smiles[10:20]
    fingerprints_by_name(monkeypatch, fps)
    got = sp.drug_distance_matrix(names)
    assert np.array_equal(got, pairwise([fps[k] for k in names], jaccard_distance))


def test_protein_matrix_matches_scalar_cosine(corpus_entities, row_blocks):
    _, seqs = corpus_entities
    got = sp.protein_distance_matrix(seqs)
    want = pairwise([psc(s) for s in seqs], cosine_distance)
    assert np.abs(got - want).max() <= 1e-12
    assert np.array_equal(got, got.T)
    assert np.all(np.diag(got) == 0.0)


def test_protein_matrix_cosine_cases():
    d = sp.protein_distance_matrix(["AAAA", "CCCC", "AAAA"])
    assert d[0, 1] == pytest.approx(1.0)  # no shared residue or dipeptide
    assert d[0, 2] == pytest.approx(0.0)
    assert np.all(np.diag(d) == 0.0)
    with pytest.raises(ZeroVector):
        sp.protein_distance_matrix(["ACDE", "XXXX"])  # no canonical residue
    assert np.array_equal(sp.protein_distance_matrix(["XXXX"]), np.zeros((1, 1)))
    assert sp.protein_distance_matrix([]).shape == (0, 0)
    with pytest.raises(EmptySequence):
        sp.protein_distance_matrix(["ACDE", ""])


# -- corpus builders -----------------------------------------------------------


PROT_FAMILIES = ["ACDEACDEACDE", "FGHIFGHIFGHI", "KLMNKLMNKLMN", "PQRSPQRSPQRS"]
DRUG_FAMILIES = ["C1CCCCC1", "c1ccccc1", "C1CCNCC1", "C1CCOC1"]


def build_records(n_per_family=3, n_prot_fam=4, n_drug_fam=4, pair_all=True):
    """Small corpus with perfectly separated protein and drug families."""
    proteins = []
    for f in range(n_prot_fam):
        base = PROT_FAMILIES[f % len(PROT_FAMILIES)]
        for v in range(n_per_family):
            # rotate to vary the sequence without leaving the family alphabet
            proteins.append((f"p{f}_{v}", base[v:] + base[:v]))
    drugs = []
    for f in range(n_drug_fam):
        scaffold = DRUG_FAMILIES[f % len(DRUG_FAMILIES)]
        for v in range(n_per_family):
            drugs.append((f"d{f}_{v}", scaffold + "C" * (v + 1)))
    records = []
    rng = np.random.default_rng(0)
    for pi, (pid, seq) in enumerate(proteins):
        for di, (did, smi) in enumerate(drugs):
            label = float((pi + di) % 2)
            records.append(InteractionRecord(did, pid, smi, seq, label))
    return records


def test_protein_matrix_clamps_equal_compositions_at_zero(corpus_entities):
    # s + "X" has the composition of s; the Gram ratio rounds above 1 for
    # many sequences, which left distances of -2e-16 for the linkage to reject
    _, seqs = corpus_entities
    for s in seqs:
        d = sp.protein_distance_matrix([s, s + "X"])
        assert 0.0 <= d[0, 1] == d[1, 0] <= 1e-15
    d = sp.protein_distance_matrix([s + "X" for s in seqs] + seqs)
    assert np.all(d >= 0.0)


# -- clusters over distinct strings ------------------------------------------------


def per_id_clusters(items, distance_matrix, threshold):
    """Reference: single linkage over the matrix of every id, in id order."""
    ids = sorted(items)
    labels = sp.single_linkage_cluster(distance_matrix([items[i] for i in ids]), threshold)
    return {i: int(c) for i, c in zip(ids, labels)}


def shared_string_items(strings, n_ids, seed):
    """n_ids ids over the strings, every string used, ids named in shuffled order."""
    rng = np.random.default_rng(seed)
    picks = np.concatenate([np.arange(len(strings)), rng.integers(0, len(strings), n_ids)])
    names = rng.permutation(len(picks))
    return {f"id{names[k]:04d}": strings[p] for k, p in enumerate(picks)}


@pytest.mark.parametrize("side", ["drug", "protein"])
def test_clusters_over_distinct_strings_match_per_id_linkage(corpus_entities, side, monkeypatch):
    smiles, seqs = corpus_entities
    strings, distance = {
        "drug": (sorted(set(smiles)), sp.drug_distance_matrix),
        "protein": (seqs[:20], sp.protein_distance_matrix),
    }[side]
    items = shared_string_items(strings, 3 * len(strings), seed=4)
    steps = np.unique(distance(strings))
    steps = steps[steps > 1e-9]
    thresholds = [0.5] + [float(np.nextafter(steps[k], 2.0)) for k in (0, len(steps) // 2)]
    for threshold in thresholds:  # `_clusters` reads the cut at call time
        monkeypatch.setattr(sp, "CLUSTER_THRESHOLD", threshold)
        got = sp._clusters(items, distance)
        assert got == per_id_clusters(items, distance, threshold), threshold


def test_clusters_run_the_distance_once_per_distinct_string():
    seen = []

    def distance(strings):
        seen.append(list(strings))
        return sp.drug_distance_matrix(strings)

    items = {"b": "CCO", "a": "CCN", "c": "CCO", "d": "c1ccccc1"}
    assert sp._clusters(items, distance) == per_id_clusters(items, sp.drug_distance_matrix, 0.5)
    assert seen == [["CCN", "CCO", "c1ccccc1"]]
    with pytest.raises(EmptySequence):
        sp._clusters({"p": "ACDE", "q": ""}, sp.protein_distance_matrix)


# -- random split --------------------------------------------------------------


def test_random_split_floor_sizes():
    records = build_records(n_per_family=1)[:10]
    m = sp.random_split(records, (0.7, 0.1, 0.2), seed=3)
    assert len(m.indices(partition=sp.TRAIN)) == 7
    assert len(m.indices(partition=sp.VAL)) == 1
    assert len(m.indices(partition=sp.TEST)) == 2


def test_random_split_covers_everything_once():
    records = build_records()
    m = sp.random_split(records, seed=1)
    all_idx = m.indices()
    assert all_idx == list(range(len(records)))
    assert not m.dropped


def test_random_split_bad_fractions():
    records = build_records(n_per_family=1)
    with pytest.raises(sp.BadFractions):
        sp.random_split(records, (0.5, 0.2, 0.2))
    with pytest.raises(sp.BadFractions):
        sp.random_split(records, (1.2, -0.1, -0.1))
    for fractions in [(float("nan"), 0.5, 0.5), (0.5, float("nan"), 0.5)]:
        with pytest.raises(sp.BadFractions):
            sp.random_split(records, fractions)


def test_random_split_manifest_bytes_are_reproducible():
    records = build_records()
    a = sp.random_split(records, seed=9).to_json()
    b = sp.random_split(records, seed=9).to_json()
    assert a == b
    c = sp.random_split(records, seed=10).to_json()
    assert a != c


def test_manifest_json_round_trip():
    records = build_records()
    m = sp.cold_pair_split(records, seed=2)
    back = sp.SplitManifest.from_json(m.to_json())
    assert back == m


# -- cold pair -------------------------------------------------------------------


def test_cold_pair_requires_enough_entities():
    records = [
        InteractionRecord("d1", "p1", "CC", "ACDE", 1.0),
        InteractionRecord("d2", "p1", "CCC", "ACDE", 0.0),
    ]
    with pytest.raises(sp.TooFewEntities):
        sp.cold_pair_split(records)


def test_cold_pair_no_entity_leakage():
    records = build_records(n_per_family=3)  # 12 drugs x 12 proteins
    m = sp.cold_pair_split(records, seed=4)
    train = m.indices(partition=sp.TRAIN)
    train_drugs = {records[i].drug_id for i in train}
    train_prots = {records[i].protein_id for i in train}
    for part in (sp.VAL, sp.TEST):
        for i in m.indices(partition=part):
            assert records[i].drug_id not in train_drugs
            assert records[i].protein_id not in train_prots
    # mixed pairs are dropped, not leaked
    for i in m.dropped:
        d_seen = records[i].drug_id in train_drugs
        p_seen = records[i].protein_id in train_prots
        assert d_seen != p_seen
    assert len(m.assignments) + len(m.dropped) == len(records)


def test_cold_pair_val_test_ratio():
    records = build_records(n_per_family=4)  # 16 x 16 entities
    m = sp.cold_pair_split(records, seed=4)
    n_val = len(m.indices(partition=sp.VAL))
    n_test = len(m.indices(partition=sp.TEST))
    total = n_val + n_test
    assert n_val == int(total * 0.3)


# -- cluster cross-domain ----------------------------------------------------------


def test_cluster_split_domains_are_cluster_disjoint():
    records = build_records(n_per_family=3)
    m = sp.cluster_cross_domain_split(records, seed=6)
    src_dc = {m.drug_clusters[records[i].drug_id] for i in m.indices(domain=sp.SOURCE)}
    tgt_dc = {m.drug_clusters[records[i].drug_id] for i in m.indices(domain=sp.TARGET)}
    src_pc = {m.protein_clusters[records[i].protein_id] for i in m.indices(domain=sp.SOURCE)}
    tgt_pc = {m.protein_clusters[records[i].protein_id] for i in m.indices(domain=sp.TARGET)}
    assert not (src_dc & tgt_dc)
    assert not (src_pc & tgt_pc)
    # straddlers dropped
    for i in m.dropped:
        in_src_d = m.drug_clusters[records[i].drug_id] in src_dc
        in_src_p = m.protein_clusters[records[i].protein_id] in src_pc
        assert in_src_d != in_src_p
    # source trains, target evaluates
    assert m.indices(domain=sp.SOURCE) == m.indices(domain=sp.SOURCE, partition=sp.TRAIN)
    assert len(m.indices(domain=sp.TARGET, partition=sp.TEST)) > 0


def test_cluster_split_recovers_planted_families():
    records = build_records(n_per_family=3)
    m = sp.cluster_cross_domain_split(records, seed=6)
    # drugs built from 4 scaffolds -> at most 4 clusters, proteins from 4
    # disjoint alphabets -> exactly 4 clusters
    assert len(set(m.protein_clusters.values())) == 4
    prot_of = {}
    for r in records:
        prot_of.setdefault(r.protein_id[:2], set()).add(m.protein_clusters[r.protein_id])
    for fam, clusters in prot_of.items():
        assert len(clusters) == 1  # family members never split apart


# -- pinned manifests ----------------------------------------------------------------


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def recorded_split_large_sha256():
    """SPLIT_LARGE_SHA256 as written in the benchmark's workload file."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SPLIT_LARGE_SHA256":
            return ast.literal_eval(node.value)
    raise AssertionError("SPLIT_LARGE_SHA256 not found")


# seed-0 manifest sha256 of each split, recorded before the split work was
# keyed on distinct strings; any change to clusters, tasks or assignments shows
PINNED_MANIFESTS = {
    (300, "cluster"): "c9182ab7d59afb6c67c3a6de4736a239f941b904636bd70fe8baab184fc1d17e",
    (300, "meta_protein"): "ac67ecefe2c1c51c9cdf4c880438f7f5ab522a986a70ac7088916de3b8c5ee55",
    (300, "meta_drug"): "932979ca8058a809e2435e60cc4220af316cae0139b895db5896a358f97de2e0",
    (2000, "cluster"): "57dd4f218d95e8a09031acb975e16bb50fdc005e6386a096d24f926dede57ab2",
    (2000, "meta_protein"): "538de005084c3caaa626098720046ab0f83ba58ea579c62b03caddf0657459e4",
    (2000, "meta_drug"): "c082a55b00f71177acd1692205389ad8b7d269dfc6c94a39a511b9f8239f7441",
    ("shift", "cluster"): "32c1eddb3bddc7993fe6de159c7f4ba682563fd2269635e2ce3ef8d697f5994f",
}

SPLITS = {
    "cluster": lambda r: sp.cluster_cross_domain_split(r, seed=0),
    "meta_protein": lambda r: sp.meta_unseen_split(r, kind="protein", seed=0),
    "meta_drug": lambda r: sp.meta_unseen_split(r, kind="drug", seed=0),
}

CORPORA = {
    300: SyntheticSpec(n_records=300),
    2000: SyntheticSpec(),
    "shift": SyntheticSpec(rules=DOMAIN_SHIFT_RULES, domain_shift=True),
    "large": SyntheticSpec(n_drugs=1200, n_proteins=600, n_records=4800),
}


@pytest.mark.parametrize("corpus, split", sorted(PINNED_MANIFESTS, key=str))
def test_split_manifest_is_pinned(corpus, split):
    records = synth_generate(CORPORA[corpus], 0).records
    assert manifest_sha256(SPLITS[split](records)) == PINNED_MANIFESTS[corpus, split]


def test_split_large_manifest_matches_benchmark_record():
    records = synth_generate(CORPORA["large"], 0).records
    assert manifest_sha256(SPLITS["cluster"](records)) == recorded_split_large_sha256()


# -- meta splits ---------------------------------------------------------------------


def equal_mass_meta_corpus(n_clusters=10, records_per_cluster=12):
    """n_clusters protein families with identical record mass, one scaffold."""
    alphabets = ["ACDE", "FGHI", "KLMN", "PQRS", "TVWY", "ADGK", "CEHL", "FIMP",
                 "NQSV", "DEHW"]
    records = []
    for c in range(n_clusters):
        alpha = alphabets[c]
        seq = (alpha * 6)[:20]
        for v in range(records_per_cluster):
            records.append(
                InteractionRecord(
                    f"d{v % 4}", f"p{c}", "C1CCCCC1" + "C" * (v % 4 + 1), seq, float(v % 2)
                )
            )
    return records


def test_meta_split_cumulative_mass_rule():
    records = equal_mass_meta_corpus()
    m = sp.meta_unseen_split(records, kind="protein", seed=0)
    source_clusters = {
        m.protein_clusters[records[i].protein_id] for i in m.indices(domain=sp.SOURCE)
    }
    # ten equal clusters, 40% cumulative mass -> exactly four source clusters
    assert len(source_clusters) == 4


def test_meta_split_target_test_never_shares_protein_cluster_with_source():
    records = equal_mass_meta_corpus()
    m = sp.meta_unseen_split(records, kind="protein", seed=0)
    src = {m.protein_clusters[records[i].protein_id] for i in m.indices(domain=sp.SOURCE)}
    for tid in m.task_ids("target_test"):
        for i in m.tasks[tid]["records"]:
            assert m.protein_clusters[records[i].protein_id] not in src


def test_meta_split_undersized_tasks_go_to_source():
    records = equal_mass_meta_corpus()
    # append a tiny task: new protein cluster with just 2 records
    for v in range(2):
        records.append(InteractionRecord("d9", "px", "C1CCOC1", "WYTVWYTVWYTV", float(v)))
    m = sp.meta_unseen_split(records, kind="protein", seed=0)
    idx = [i for i, r in enumerate(records) if r.protein_id == "px"]
    for i in idx:
        assert m.assignments[i] == (sp.SOURCE, sp.TRAIN)
    assert m.params["n_undersized_tasks"] >= 1


def test_meta_split_drug_axis():
    records = []
    scaffolds = ["C1CCCCC1", "c1ccccc1", "C1CCNCC1", "C1CCOC1", "C1CCNC1",
                 "c1ccncc1", "C1CCCC1", "C1CC1", "C1CCCCCC1", "c1ccoc1"]
    for c, scaf in enumerate(scaffolds):
        for v in range(12):
            records.append(
                InteractionRecord(
                    f"d{c}_{v % 3}", f"p{v % 4}", scaf + "C" * (v % 3 + 1),
                    ("ACDE" * 6)[:20], float(v % 2),
                )
            )
    m = sp.meta_unseen_split(records, kind="drug", seed=1)
    src = {m.drug_clusters[records[i].drug_id] for i in m.indices(domain=sp.SOURCE)}
    for tid in m.task_ids("target_test"):
        for i in m.tasks[tid]["records"]:
            assert m.drug_clusters[records[i].drug_id] not in src


def test_meta_split_insufficient_data():
    records = equal_mass_meta_corpus(n_clusters=2, records_per_cluster=3)
    with pytest.raises(sp.InsufficientData):
        sp.meta_unseen_split(records, kind="protein")


# -- episodes -------------------------------------------------------------------------


def episode_task(records, n=20):
    return [
        InteractionRecord(f"d{i}", "p0", "CC" + "C" * i, "ACDEACDE", float(i % 2))
        for i in range(n)
    ]


def test_sample_episode_structure():
    records = episode_task(None)
    rng = substream(0, "episode")
    task = sp.EpisodeTask.of(records, "t0", range(len(records)))
    ep = sp.sample_episode(task, k=3, k_query=5, rng=rng)
    sup_labels = [records[i].label for i in ep.support]
    assert sup_labels[:3] == [1.0, 1.0, 1.0]
    assert sup_labels[3:] == [0.0, 0.0, 0.0]
    assert len(ep.query) == 5
    assert not set(ep.support) & set(ep.query)


def per_draw_sampler(records, task_id, task_indices, k, k_query, rng):
    """The sampler as it was before tasks were partitioned once: split by
    class and sort on every draw."""
    pos = sorted(i for i in task_indices if records[i].label == 1.0)
    neg = sorted(i for i in task_indices if records[i].label == 0.0)
    support = [int(i) for i in rng.choice(pos, size=k, replace=False)]
    support += [int(i) for i in rng.choice(neg, size=k, replace=False)]
    taken = set(support)
    rest = [i for i in sorted(task_indices) if i not in taken]
    query = [int(i) for i in rng.choice(rest, size=k_query, replace=False)]
    return sp.Episode(support=tuple(support), query=tuple(query))


def test_partitioned_tasks_draw_the_per_draw_sequence():
    """Seed 0, 200 draws over three shuffled tasks of different sizes and
    class balances: partitioning each task once leaves the rng calls, and so
    every episode, as drawing from the raw index lists gave."""
    records = [
        InteractionRecord(f"d{i}", "p0", "CC", "ACDE", float(i % 3 != 0)) for i in range(90)
    ]
    order = np.random.default_rng(5).permutation(90).tolist()
    raw = {"a": order[:20], "b": order[20:55], "c": order[55:]}
    tasks = {tid: sp.EpisodeTask.of(records, tid, idxs) for tid, idxs in raw.items()}
    rng, ref_rng = substream(0, "episode"), substream(0, "episode")
    for draw in range(200):
        tid = "abc"[draw % 3]
        k = 1 + draw % 5
        got = sp.sample_episode(tasks[tid], k, 6, rng)
        assert got == per_draw_sampler(records, tid, raw[tid], k, 6, ref_rng), draw
    assert rng.random() == ref_rng.random()


def test_sample_episode_insufficient_class():
    records = [
        InteractionRecord(f"d{i}", "p0", "CC", "ACDE", 1.0) for i in range(6)
    ]
    rng = substream(0, "episode")
    with pytest.raises(sp.InsufficientClassSamples):
        sp.sample_episode(sp.EpisodeTask.of(records, "t0", range(6)), k=2, k_query=2, rng=rng)
