"""Leakage-controlled dataset splits and episode sampling.

Four protocols, in increasing strictness about what the test set may share
with training data:

* random: plain shuffled fractions.
* cold pair: test pairs where both the drug and the protein are unseen.
* cluster cross-domain: single-linkage clusters of drugs (fingerprint
  Jaccard) and proteins (composition cosine); source and target domains
  get disjoint cluster sets and records straddling domains are dropped.
* meta unseen: records grouped into (protein cluster, drug scaffold)
  tasks for episodic training, with the novelty axis's clusters divided
  so target-test tasks come from clusters never seen in the source pool.

Every protocol returns a SplitManifest that serializes to sorted-key JSON,
so a (records, seed, params) triple always produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .datasets import InteractionRecord
from .descriptors import N_BITS, PSC_DIM, ZeroVector, ecfp, murcko_scaffold_key, psc
from .rng import substream
from .smiles import parse_smiles

SOURCE = "source"
TARGET = "target"
TRAIN = "train"
VAL = "val"
TEST = "test"

# Split constants; every manifest records the ones its strategy used.
CLUSTER_THRESHOLD = 0.5  # single-linkage cut of drug and protein distances
SEEN_FRACTION = 0.7  # cold pair: share of drugs and of proteins on the training side
MIN_ENTITIES = 10  # cold pair: fewest distinct drugs and proteins
SOURCE_FRACTION = 0.6  # cluster: share of each side's clusters in the source domain
VAL_FRACTION = 0.3  # cold pair and cluster: held-out records that validate
MIN_TASK_RECORDS = 6  # meta: smaller tasks join the source pool
SOURCE_MASS = 0.4  # meta: least share of task records in source clusters
TARGET_TRAIN_FRACTION = 0.7  # meta: target tasks that train


class BadManifest(ValueError):
    """A payload that is not a split manifest."""


class NonSymmetric(ValueError):
    pass


class NegativeDistance(ValueError):
    pass


class BadFractions(ValueError):
    pass


class TooFewEntities(ValueError):
    pass


class InsufficientData(ValueError):
    pass


class InsufficientClassSamples(ValueError):
    pass


# -- clustering ------------------------------------------------------------


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Row ranges of an n-column matrix, 128 KB of float64 each: the unit of every temporary."""
    step = max(1, (1 << 14) // max(n, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def single_linkage_cluster(dist: np.ndarray, threshold: float) -> np.ndarray:
    """Cluster by merging while any inter-cluster single-link distance is
    below threshold; equivalently, connected components of the graph with
    edges at dist < threshold. Labels are canonical: numbered by first
    member in index order. Exact, with no pair loop: per row block, each
    round hooks the larger root of every edge joining two trees onto the
    smaller and jumps pointers until each node points at its tree's minimum."""
    d = np.asarray(dist, dtype=np.float64)
    n = d.shape[0]
    blocks = _row_blocks(n)
    if d.shape != (n, n) or not all(np.array_equal(d[a:b], d[:, a:b].T) for a, b in blocks):
        raise NonSymmetric("distance matrix must be square and symmetric")
    if any(np.any(d[a:b] < 0) for a, b in blocks):
        raise NegativeDistance("distances must be non-negative")
    root = np.arange(n)
    for lo, hi in blocks:  # a block's i < j edges below threshold, merged before the next
        src, dst = np.nonzero(np.triu(d[lo:hi] < threshold, lo + 1))
        src += lo
        while (cross := root[src] != root[dst]).any():
            src, dst = src[cross], dst[cross]
            a, b = root[src], root[dst]
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(root[root], root):
                root = root[root]
    return np.unique(root, return_inverse=True)[1].astype(np.int64)


def _ratio_distances(x: np.ndarray, denominator) -> np.ndarray:
    """Symmetric matrix of 1 - g / denominator(g, lo) over the Gram products
    g = x[lo:hi] @ x[lo:].T, 0 where the denominator is 0 and on the
    diagonal: the upper triangle in place one row block at a time, the
    lower one its mirror, each diagonal block the maximum with its transpose.
    Entries are clamped at 0, so a ratio rounded above 1 is no negative distance."""
    d = np.empty((len(x), len(x)))
    for lo, hi in _row_blocks(len(x)):
        g = np.matmul(x[lo:hi], x[lo:].T, out=d[lo:hi, lo:])
        den = denominator(g, lo)
        np.divide(g, den, out=g, where=den > 0)
        np.subtract(1.0, g, out=g, where=den > 0)
        np.maximum(g, 0.0, out=g)
        np.maximum(d[lo:hi, lo:hi], d[lo:hi, lo:hi].T, out=d[lo:hi, lo:hi])
        d[lo:hi, :lo] = d[:lo, lo:hi].T
    np.fill_diagonal(d, 0.0)
    return d


def drug_distance_matrix(smiles_list: list[str]) -> np.ndarray:
    """Fingerprint Jaccard distances 1 - |a & b| / |a | b| in list order, 0
    between two empty fingerprints. The intersections are float64 matmuls
    over the bits some drug sets, so every count is an exact integer and
    every entry equals the scalar ratio bit for bit."""
    bits = np.zeros((len(smiles_list), N_BITS), dtype=bool)
    for i, s in enumerate(smiles_list):
        bits[i] = ecfp(parse_smiles(s))
    bits = bits[:, np.any(bits, axis=0)].astype(np.float64)
    counts = bits.sum(axis=1)
    return _ratio_distances(bits, lambda g, lo: counts[lo : lo + len(g), None] + counts[lo:] - g)


def protein_distance_matrix(sequences: list[str]) -> np.ndarray:
    """Composition (psc) cosine distances 1 - u.v / (|u| |v|) in list order;
    ZeroVector for two or more sequences when one has no canonical residue.
    Norms are per-row np.linalg.norm as for one pair, but the matmul sums
    u.v in another order than u @ v: entries agree to about 1e-15, and the
    ones that round below 0 (equal compositions) are clamped to 0."""
    vecs = np.zeros((len(sequences), PSC_DIM))
    for i, s in enumerate(sequences):
        vecs[i] = psc(s)
    norms = np.array([np.linalg.norm(v) for v in vecs])
    if len(vecs) >= 2 and np.any(norms < 1e-12):
        raise ZeroVector("cosine distance undefined for zero vectors")
    return _ratio_distances(vecs, lambda g, lo: norms[lo : lo + len(g), None] * norms[lo:])


def _clusters(items: dict[str, str], distance_matrix) -> dict[str, int]:
    """Single-linkage cluster label per entity id at CLUSTER_THRESHOLD,
    entities taken in id order. Distances and linkage run once per distinct
    string, numbered by first appearance over the sorted ids; each id takes
    its string's label (equal strings are at distance 0, so they link)."""
    ids = sorted(items)
    strings = list(dict.fromkeys(items[i] for i in ids))
    labels = single_linkage_cluster(distance_matrix(strings), CLUSTER_THRESHOLD)
    label_of = dict(zip(strings, labels.tolist()))
    return {i: label_of[items[i]] for i in ids}


# -- manifest ---------------------------------------------------------------


@dataclass
class SplitManifest:
    strategy: str
    seed: int
    params: dict = field(default_factory=dict)
    assignments: dict[int, tuple[str, str]] = field(default_factory=dict)  # idx -> (domain, partition)
    dropped: list[int] = field(default_factory=list)
    drug_clusters: dict[str, int] = field(default_factory=dict)
    protein_clusters: dict[str, int] = field(default_factory=dict)
    tasks: dict[str, dict] = field(default_factory=dict)  # task id -> {"pool": ..., "records": [...]}

    def indices(self, domain: str | None = None, partition: str | None = None) -> list[int]:
        out = []
        for idx, (dom, part) in self.assignments.items():
            if domain is not None and dom != domain:
                continue
            if partition is not None and part != partition:
                continue
            out.append(idx)
        return sorted(out)

    def task_ids(self, pool: str) -> list[str]:
        return sorted(t for t, info in self.tasks.items() if info["pool"] == pool)

    def task_records(self, *pools: str) -> list[int]:
        """Sorted record indices of the tasks in any of the given pools."""
        return sorted({i for info in self.tasks.values() if info["pool"] in pools
                       for i in info["records"]})

    def to_json(self) -> str:
        payload = {
            "strategy": self.strategy,
            "seed": self.seed,
            "params": self.params,
            "assignments": {str(k): list(v) for k, v in self.assignments.items()},
            "dropped": sorted(self.dropped),
            "drug_clusters": self.drug_clusters,
            "protein_clusters": self.protein_clusters,
            "tasks": self.tasks,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "SplitManifest":
        """The manifest `to_json` wrote; BadManifest for any other payload."""
        raw = json.loads(text)
        try:
            kw = {f.name: raw[f.name] for f in fields(cls)}
            pairs = {int(k): v for k, v in kw["assignments"].items()}
            maps = (kw["drug_clusters"], kw["protein_clusters"])
            ok = type(kw["params"]) is dict and all(
                type(m) is dict and all(type(c) is int for c in m.values()) for m in maps
            ) and all(type(i) is int for i in kw["dropped"]) and all(
                type(v) is list and [type(s) for s in v] == [str, str] for v in pairs.values()
            ) and all(
                type(t) is dict and type(t["pool"]) is str and type(t["records"]) is list
                and all(type(i) is int for i in t["records"]) for t in kw["tasks"].values()
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise BadManifest("not a split manifest: it needs every field, integer indices, "
                              "a [domain, partition] pair of strings per assignment, object "
                              "params, cluster maps of integers, and a string pool and a list "
                              "of integer records per task")
        return cls(**{**kw, "assignments": {k: tuple(v) for k, v in pairs.items()}})

    @classmethod
    def load(cls, path: str | Path) -> "SplitManifest":
        return cls.from_json(Path(path).read_text())


def check_listing(manifest: SplitManifest, n_records: int) -> SplitManifest:
    """The manifest, if it assigns or drops each of n_records records exactly
    once and every task record is an assigned index; BadManifest if not."""
    if sorted([*manifest.assignments, *manifest.dropped]) != list(range(n_records)):
        raise BadManifest(f"split manifest does not list each of {n_records} records once")
    if any(i not in manifest.assignments for t in manifest.tasks.values() for i in t["records"]):
        raise BadManifest("split manifest has a task record it does not assign")
    return manifest


def _assign_by_side(
    manifest: SplitManifest,
    records: list[InteractionRecord],
    train_drugs: set,
    train_prots: set,
    held_domain: str,
    rng: np.random.Generator,
) -> SplitManifest:
    """A record trains when both its drug and protein are on the training
    side, is held out (shuffled into val/test of held_domain) when neither
    is, and is dropped otherwise, so nothing held out shares an entity with
    training."""
    held: list[int] = []
    for idx, rec in enumerate(records):
        d_train = rec.drug_id in train_drugs
        p_train = rec.protein_id in train_prots
        if d_train and p_train:
            manifest.assignments[idx] = (SOURCE, TRAIN)
        elif not d_train and not p_train:
            held.append(idx)
        else:
            manifest.dropped.append(idx)
    order = rng.permutation(len(held))
    n_val = int(len(held) * VAL_FRACTION)
    for pos, oi in enumerate(order):
        part = VAL if pos < n_val else TEST
        manifest.assignments[held[oi]] = (held_domain, part)
    return check_listing(manifest, len(records))


# -- flat splits -------------------------------------------------------------


def random_split(
    records: list[InteractionRecord],
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> SplitManifest:
    """Shuffled split; val and test take their floored share, the remainder
    stays in train."""
    # written so that a NaN fraction fails: every comparison with NaN is false
    if not (len(fractions) == 3 and all(f >= 0 for f in fractions)
            and abs(sum(fractions) - 1.0) <= 1e-9):
        raise BadFractions(f"fractions must be three non-negatives summing to 1, got {fractions}")
    n = len(records)
    order = substream(seed, "split.random").permutation(n)
    n_val = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_val - n_test
    manifest = SplitManifest("random", seed, {"fractions": list(fractions)})
    for pos, idx in enumerate(order):
        if pos < n_train:
            part = TRAIN
        elif pos < n_train + n_val:
            part = VAL
        else:
            part = TEST
        manifest.assignments[int(idx)] = (SOURCE, part)
    return check_listing(manifest, n)


def cold_pair_split(records: list[InteractionRecord], seed: int = 0) -> SplitManifest:
    """Hold out drugs and proteins jointly.

    A SEEN_FRACTION sample of drugs and of proteins is marked seen; records
    with both entities seen train, records with both unseen split into
    val/test, and mixed records are dropped so nothing in evaluation shares
    an entity with training.
    """
    drugs = sorted({r.drug_id for r in records})
    prots = sorted({r.protein_id for r in records})
    if len(drugs) < MIN_ENTITIES or len(prots) < MIN_ENTITIES:
        raise TooFewEntities(
            f"cold split needs >= {MIN_ENTITIES} distinct drugs and proteins, "
            f"got {len(drugs)} drugs / {len(prots)} proteins"
        )
    rng = substream(seed, "split.cold")
    seen_drugs = set(rng.choice(drugs, size=int(len(drugs) * SEEN_FRACTION), replace=False))
    seen_prots = set(rng.choice(prots, size=int(len(prots) * SEEN_FRACTION), replace=False))

    manifest = SplitManifest(
        "cold_pair", seed, {"seen_fraction": SEEN_FRACTION, "val_fraction": VAL_FRACTION}
    )
    return _assign_by_side(manifest, records, seen_drugs, seen_prots, SOURCE, rng)


def cluster_cross_domain_split(records: list[InteractionRecord], seed: int = 0) -> SplitManifest:
    """Split along chemistry, not records: drug and protein clusters are
    each divided into source and target sets, source-by-source records form
    the labeled training domain, target-by-target records form the
    evaluation domain (split val/test), and straddlers are dropped."""
    drug_cluster = _clusters({r.drug_id: r.smiles for r in records}, drug_distance_matrix)
    prot_cluster = _clusters({r.protein_id: r.sequence for r in records}, protein_distance_matrix)

    rng = substream(seed, "split.cluster")

    def pick_source(cluster_of: dict[str, int]) -> set[str]:
        ids = sorted(set(cluster_of.values()))
        if len(ids) < 2:
            raise InsufficientData("cross-domain split needs at least 2 clusters per side")
        k = min(max(1, int(len(ids) * SOURCE_FRACTION)), len(ids) - 1)
        chosen = set(int(c) for c in rng.permutation(ids)[:k])
        return {e for e, c in cluster_of.items() if c in chosen}

    src_drugs = pick_source(drug_cluster)
    src_prots = pick_source(prot_cluster)

    manifest = SplitManifest(
        "cluster_cross_domain",
        seed,
        {
            "drug_threshold": CLUSTER_THRESHOLD,
            "protein_threshold": CLUSTER_THRESHOLD,
            "source_fraction": SOURCE_FRACTION,
            "val_fraction": VAL_FRACTION,
        },
        drug_clusters=drug_cluster,
        protein_clusters=prot_cluster,
    )
    return _assign_by_side(manifest, records, src_drugs, src_prots, TARGET, rng)


# -- meta splits --------------------------------------------------------------


def _source_tasks(
    task_records: dict[str, list[int]], axis_cluster: dict[str, int]
) -> tuple[dict[str, bool], int]:
    """Mark each task as source or target by its novelty-axis cluster.

    Undersized tasks go to the source pool and carry no cluster mass; the
    rest sum their records per cluster, and clusters in descending record
    count take source duty until at least SOURCE_MASS of those records are
    covered.  Returns the source flag per task and the undersized count."""
    undersized = {t for t, recs in task_records.items() if len(recs) < MIN_TASK_RECORDS}
    cluster_sizes: dict[int, int] = {}
    for tid, recs in task_records.items():
        if tid not in undersized:
            cluster = axis_cluster[tid]
            cluster_sizes[cluster] = cluster_sizes.get(cluster, 0) + len(recs)
    if not cluster_sizes:
        raise InsufficientData(f"no task reaches {MIN_TASK_RECORDS} records")
    total = sum(cluster_sizes.values())
    src_clusters: set[int] = set()
    acc = 0
    for cluster in sorted(cluster_sizes, key=lambda c: (-cluster_sizes[c], c)):
        if acc >= SOURCE_MASS * total and src_clusters:
            break
        src_clusters.add(cluster)
        acc += cluster_sizes[cluster]
    is_source = {t: t in undersized or axis_cluster[t] in src_clusters for t in task_records}
    return is_source, len(undersized)


def meta_unseen_split(
    records: list[InteractionRecord],
    kind: str = "protein",
    seed: int = 0,
) -> SplitManifest:
    """Episodic split with novel proteins (kind="protein") or novel drug
    scaffolds (kind="drug") in the target domain.

    Tasks are (protein cluster, drug scaffold cluster) record groups.
    Undersized tasks are folded into the source pool for diversity. The
    novelty axis's clusters are then ranked by record mass and the heaviest
    take source duty until SOURCE_MASS is reached; tasks in the remaining
    clusters become target tasks, split into train/test task pools.
    """
    if kind not in ("protein", "drug"):
        raise ValueError(f"kind must be 'protein' or 'drug', got {kind!r}")
    smiles_of = {r.drug_id: r.smiles for r in records}
    prot_cluster = _clusters({r.protein_id: r.sequence for r in records}, protein_distance_matrix)
    distinct = dict.fromkeys(smiles_of[d] for d in sorted(smiles_of))
    scaffold_of = {s: murcko_scaffold_key(parse_smiles(s)) for s in distinct}
    scaffold_ids: dict[str, int] = {}
    drug_cluster: dict[str, int] = {}
    for d in sorted(smiles_of):
        key = scaffold_of[smiles_of[d]]
        scaffold_ids.setdefault(key, len(scaffold_ids))
        drug_cluster[d] = scaffold_ids[key]

    task_records: dict[str, list[int]] = {}
    task_axis_cluster: dict[str, int] = {}
    for idx, rec in enumerate(records):
        pc = prot_cluster[rec.protein_id]
        dc = drug_cluster[rec.drug_id]
        tid = f"p{pc}-d{dc}"
        task_records.setdefault(tid, []).append(idx)
        task_axis_cluster[tid] = pc if kind == "protein" else dc
    task_is_source, n_undersized = _source_tasks(task_records, task_axis_cluster)

    manifest = SplitManifest(
        f"meta_unseen_{kind}",
        seed,
        {
            "threshold": CLUSTER_THRESHOLD,
            "min_task_records": MIN_TASK_RECORDS,
            "source_mass": SOURCE_MASS,
            "target_train_fraction": TARGET_TRAIN_FRACTION,
        },
        drug_clusters=drug_cluster,
        protein_clusters=prot_cluster,
    )
    source_pool: list[int] = []
    target_tasks: list[str] = []
    for tid in sorted(task_records):
        if task_is_source[tid]:
            source_pool.extend(task_records[tid])
            manifest.tasks[tid] = {"pool": "source", "records": sorted(task_records[tid])}
        else:
            target_tasks.append(tid)
    if not target_tasks:
        raise InsufficientData("no target tasks with enough records remain")
    order = substream(seed, "split.meta").permutation(len(target_tasks))
    n_train = int(len(target_tasks) * TARGET_TRAIN_FRACTION)
    train_tasks = {target_tasks[i] for i in order[:n_train]}
    test_tasks = [t for t in target_tasks if t not in train_tasks]
    if not test_tasks:
        raise InsufficientData("target task pool too small to reserve test tasks")
    for tid in target_tasks:
        pool = "target_train" if tid in train_tasks else "target_test"
        manifest.tasks[tid] = {"pool": pool, "records": sorted(task_records[tid])}
        part = TRAIN if tid in train_tasks else TEST
        for idx in task_records[tid]:
            manifest.assignments[idx] = (TARGET, part)
    for idx in source_pool:
        manifest.assignments[idx] = (SOURCE, TRAIN)
    manifest.params["n_undersized_tasks"] = n_undersized
    return check_listing(manifest, len(records))


# -- episodes -----------------------------------------------------------------


@dataclass(frozen=True)
class Episode:
    support: tuple[int, ...]  # record indices, k positives then k negatives
    query: tuple[int, ...]


@dataclass(frozen=True)
class EpisodeTask:
    """One task's record indices, sorted, and its positives and negatives
    among them: the partition every episode drawn from the task reads, built
    once per task rather than once per draw."""

    task_id: str
    records: list[int]
    positives: list[int]
    negatives: list[int]

    @classmethod
    def of(cls, records: list[InteractionRecord], task_id: str, task_indices) -> "EpisodeTask":
        ordered = sorted(task_indices)
        return cls(
            task_id,
            ordered,
            [i for i in ordered if records[i].label == 1.0],
            [i for i in ordered if records[i].label == 0.0],
        )


def sample_episode(task: EpisodeTask, k: int, k_query: int, rng: np.random.Generator) -> Episode:
    """Draw a k-shot episode from one task's records.

    Support takes k positives and k negatives without replacement; the
    query draws k_query from the leftovers.
    """
    pos, neg = task.positives, task.negatives
    if len(pos) < k or len(neg) < k:
        raise InsufficientClassSamples(
            f"task {task.task_id}: need {k} of each class, have {len(pos)}+/{len(neg)}-"
        )
    sup_pos = [int(i) for i in rng.choice(pos, size=k, replace=False)]
    sup_neg = [int(i) for i in rng.choice(neg, size=k, replace=False)]
    support = sup_pos + sup_neg
    taken = set(support)
    rest = [i for i in task.records if i not in taken]
    if len(rest) < k_query:
        raise InsufficientClassSamples(
            f"task {task.task_id}: only {len(rest)} records left for a {k_query}-query set"
        )
    query = [int(i) for i in rng.choice(rest, size=k_query, replace=False)]
    return Episode(support=tuple(support), query=tuple(query))
