"""End-to-end acceptance gates, one test per shipping criterion.

Each test states one externally checkable promise about the toolkit:
gradient fidelity, exact reductions between related components, agreement
with brute-force oracles, leak-free splits, bit-reproducibility, and the
synthetic-benchmark quality bars.  Tolerances are pinned here and nowhere
else; the heavy fixtures near the bottom are shared across the benchmark
criteria so the whole file stays within a coffee break on a laptop CPU.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import op_cases, run_case

from dtikit import tensor as T
from dtikit.config import resolve_config
from dtikit.encoder import EncoderConfig, DTIEncoder, featurize_drug
from dtikit.fewshot import PrototypeHead, focal_loss
from dtikit.metrics import auprc, auroc, concordance_index
from dtikit.optim import ParameterStore
from dtikit.proteins import encode_protein
from dtikit.rng import substream
from dtikit.smiles import parse_smiles
from dtikit.splits import (
    SplitManifest,
    cluster_cross_domain_split,
    cold_pair_split,
    meta_unseen_split,
    protein_distance_matrix,
    random_split,
    single_linkage_cluster,
)
from dtikit.synth import SyntheticSpec, synth_generate
from dtikit.train import (
    evaluate,
    manifest_sha256,
    meta_shot_curve,
    screen,
    train_adversarial,
    train_meta,
    train_supervised,
)

GRAD_REL_TOL = 1e-4
GRAD_TIME_BUDGET_S = 60.0
FOCAL_TOL = 1e-12
METRIC_TOL = 1e-9
VANILLA_AUROC_FLOOR = 0.85
TRANSFER_GAIN_FLOOR = 0.03
WARM_GAIN_FLOOR = 0.02
SCREEN_ACCURACY_FLOOR = 0.90

SMALL = {"model_preset": "small", "max_seq_len": 48, "seed": 0}


def small_config(**kw):
    overrides = dict(SMALL)
    overrides.update(kw)
    return resolve_config({}, overrides)


# -- 1: analytic gradients vs central finite differences ------------------------

TINY_ENCODER = dict(
    embed_dim=6,
    n_filters=5,
    kernel_sizes=(3, 5, 7),
    max_seq_len=16,
    attn_heads=2,
    joint_dim=12,
    joint_pool=3,
    gau_hidden=8,
    gau_qk_dim=4,
    decoder_hidden=6,
)

GRAD_SMILES = ["CCO", "C(C)CN", "c1ccccc1C", "CC(C)O", "NCCS", "C1CC1CO"]
GRAD_RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


def _encoder_instance(seed: int):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    encoder = DTIEncoder(
        store, EncoderConfig.small(**TINY_ENCODER),
        substream(seed, "accept.grad"), heads=("classify",),
    )
    drug = featurize_drug(parse_smiles(GRAD_SMILES[seed % len(GRAD_SMILES)]))
    # Full-length sequences: in a padded tail every position carries the same
    # value, so one bias step can push the whole region across a relu kink at
    # once and central differences stop matching any one-sided derivative.
    seq = "".join(rng.choice(list(GRAD_RESIDUES), size=16))
    tok = encode_protein(seq, 16)
    return rng, store, encoder, drug, (tok.ids, tok.true_length)


def _encoder_loss(encoder, drug, protein) -> T.Tensor:
    out = encoder.forward(drug, protein, head="classify")
    return T.tsum(out.logit)


def test_01_gradients_match_central_differences():
    start = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, case in op_cases(rng).items():
            run_case(name, case, rel_tol=GRAD_REL_TOL)

    # The step balances two failure modes of the probe itself: the variance
    # denominators in the normalization layers give some bias directions
    # curvature near 1e5, wanting small h, while coordinates whose true
    # gradient sits near the roundoff floor (eps/h) want large h.  The
    # absolute term covers exactly the latter and nothing else.
    h, atol = 1e-6, 1e-7
    for seed in range(20):
        rng, store, encoder, drug, protein = _encoder_instance(seed)
        store.zero_grad()
        _encoder_loss(encoder, drug, protein).backward()
        params = store.trainable()
        for _ in range(6):
            path, tensor = params[int(rng.integers(len(params)))]
            flat = tensor.data.reshape(-1)
            coord = int(rng.integers(flat.size))
            grad = tensor.grad.reshape(-1)[coord] if tensor.grad is not None else 0.0
            orig = flat[coord]
            flat[coord] = orig + h
            f_plus = float(_encoder_loss(encoder, drug, protein).data)
            flat[coord] = orig - h
            f_minus = float(_encoder_loss(encoder, drug, protein).data)
            flat[coord] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            bound = GRAD_REL_TOL * max(abs(grad), abs(numeric)) + atol
            assert abs(grad - numeric) < bound, (
                f"encoder gradient mismatch at {path}[{coord}] "
                f"(seed {seed}): analytic {grad:.3e}, numeric {numeric:.3e}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < GRAD_TIME_BUDGET_S, f"gradient sweep took {elapsed:.1f}s"


# -- 2: gradient reversal ------------------------------------------------------


def test_02_gradient_reversal_identity_and_scaled_negation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        x = rng.normal(size=shape)
        upstream = rng.normal(size=shape)
        scale = float(rng.uniform(0.1, 3.0))
        t = T.Tensor(x.copy(), requires_grad=True)
        out = T.grad_reverse(t, scale)
        assert np.array_equal(out.data, x)
        T.tsum(T.mul(out, T.Tensor(upstream))).backward()
        assert np.array_equal(t.grad, -scale * upstream)


# -- 3: focal loss reductions ---------------------------------------------------


def test_03_focal_reduces_to_cross_entropy_and_vanishes_at_certainty():
    rng = np.random.default_rng(11)
    for _ in range(50):
        probs = rng.uniform(0.01, 1.0, size=int(rng.integers(1, 12)))
        got = float(focal_loss(T.Tensor(probs.copy()), alpha=1.0, gamma=0.0).data)
        want = float(-np.sum(np.log(probs)))
        assert abs(got - want) < FOCAL_TOL
    certain = T.Tensor(np.ones(5))
    for gamma in (0.0, 1.0, 2.0, 5.0):
        assert float(focal_loss(certain, alpha=1.0, gamma=gamma).data) == 0.0


# -- 4: uniform attention vs class-mean prototypes ------------------------------


def test_04_uniform_attention_equals_class_mean_prototypes():
    rng = np.random.default_rng(13)
    for episode in range(100):
        d = int(rng.integers(3, 9))
        k = int(rng.integers(1, 6))
        n_query = int(rng.integers(1, 7))
        ep_head = PrototypeHead(
            ParameterStore(), substream(episode, "accept.proto"),
            feature_dim=d, qk_dim=4, uniform_attention=True,
        )
        support = rng.normal(size=(2 * k, d))
        labels = np.array([0] * k + [1] * k)
        queries = [rng.normal(size=d) for _ in range(n_query)]
        probs, _ = ep_head.episode_probabilities(
            T.Tensor(support.copy()), labels, [T.Tensor(q.copy()) for q in queries]
        )
        proto = [support[labels == c].mean(axis=0) for c in (0, 1)]
        for q, p in zip(queries, probs):
            sims = [
                float(np.dot(q, m) / (np.linalg.norm(q) * np.linalg.norm(m)))
                for m in proto
            ]
            assert int(np.argmax(p.data)) == int(np.argmax(sims))


# -- 5: ranking metrics vs pair-counting oracles --------------------------------


def _auroc_pairs(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def _auprc_thresholds(scores, labels):
    npos = int(labels.sum())
    area, prev_recall = 0.0, 0.0
    for thr in sorted(set(scores), reverse=True):
        above = scores >= thr
        tp = int((above & (labels == 1)).sum())
        recall = tp / npos
        area += (recall - prev_recall) * (tp / int(above.sum()))
        prev_recall = recall
    return area


def _ci_pairs(pred, truth):
    num = den = 0.0
    for i in range(len(pred)):
        for j in range(i + 1, len(pred)):
            if truth[i] == truth[j]:
                continue
            den += 1
            hi, lo = (i, j) if truth[i] > truth[j] else (j, i)
            num += 1.0 if pred[hi] > pred[lo] else (0.5 if pred[hi] == pred[lo] else 0.0)
    return num / den


def test_05_ranking_metrics_match_pair_counting_oracles():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(4, 101))
        scores = rng.normal(size=n)
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # force score ties
        labels = np.zeros(n)
        labels[: max(1, int(rng.integers(1, n)))] = 1.0
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        assert abs(auroc(scores, labels) - _auroc_pairs(scores, labels)) < METRIC_TOL
        assert abs(auprc(scores, labels) - _auprc_thresholds(scores, labels)) < METRIC_TOL

        truth = rng.normal(size=n)
        if trial % 4 == 0:
            truth = np.round(truth, 1)  # force truth ties
        pred = rng.normal(size=n)
        assert abs(concordance_index(pred, truth) - _ci_pairs(pred, truth)) < METRIC_TOL

        monotone = np.exp(2.0 * scores) + 3.0 * scores
        assert abs(auroc(monotone, labels) - auroc(scores, labels)) < 1e-12


# -- 6: split hygiene and the clustering oracle ----------------------------------


def _agglomerative_oracle(dist, threshold):
    """Nearest-pair merging with single-link distance updates; a different
    algorithm family from the union-find the library uses."""
    n = len(dist)
    d = dist.astype(float).copy()
    np.fill_diagonal(d, np.inf)
    members = {i: frozenset([i]) for i in range(n)}
    active = list(range(n))
    while len(active) > 1:
        sub = d[np.ix_(active, active)]
        flat = int(np.argmin(sub))
        i, j = divmod(flat, len(active))
        if sub[i, j] >= threshold:
            break
        a, b = active[i], active[j]
        merged = np.minimum(d[a], d[b])
        d[a, :] = merged
        d[:, a] = merged
        d[a, a] = np.inf
        members[a] = members[a] | members[b]
        del members[b]
        active.remove(b)
    return set(members.values())


def _partition_of(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(i)
    return {frozenset(g) for g in groups.values()}


@pytest.fixture(scope="module")
def corpus300():
    return synth_generate(SyntheticSpec(n_records=300), seed=0)


def test_06_splits_leak_nothing_and_match_agglomerative_oracle(corpus300):
    rng = np.random.default_rng(19)
    for n in (20, 60, 120, 200):
        raw = rng.random((n, n))
        dist = np.triu(raw, 1)
        dist = dist + dist.T
        for threshold in (0.05, 0.2, 0.5):
            got = _partition_of(single_linkage_cluster(dist, threshold))
            assert got == _agglomerative_oracle(dist, threshold), (n, threshold)

    records = corpus300.records
    cold = cold_pair_split(records, seed=0)
    train_idx = cold.indices(None, "train")
    test_idx = cold.indices(None, "test")
    assert train_idx and test_idx
    train_drugs = {records[i].drug_id for i in train_idx}
    train_prots = {records[i].protein_id for i in train_idx}
    test_drugs = {records[i].drug_id for i in test_idx}
    test_prots = {records[i].protein_id for i in test_idx}
    assert not train_drugs & test_drugs
    assert not train_prots & test_prots

    meta = meta_unseen_split(records, kind="protein", seed=0)
    prots = sorted({r.protein_id for r in records})
    seq_of = {r.protein_id: r.sequence for r in records}
    labels = single_linkage_cluster(
        protein_distance_matrix([seq_of[p] for p in prots]), 0.5
    )
    cluster_of = dict(zip(prots, labels))
    source_clusters = {
        cluster_of[records[i].protein_id] for i in meta.indices("source", None)
    }
    target_test_clusters = {
        cluster_of[records[i].protein_id] for i in meta.indices("target", "test")
    }
    assert target_test_clusters
    assert not source_clusters & target_test_clusters


# -- 7: inactive adversary changes nothing ---------------------------------------


def test_07_zero_adversarial_weight_is_bit_identical_to_vanilla(corpus300):
    records = corpus300.records
    manifest = random_split(records, seed=0)
    cfg = small_config(stage="cada", epochs=2, lr=1e-3, lambda_adv=0.0)
    plain = train_supervised(records, manifest, cfg)
    adv = train_adversarial(records, manifest, cfg)
    assert adv.best_blob == plain.best_blob
    assert [log.to_json() for log in adv.history] == [
        log.to_json() for log in plain.history
    ]


# -- 8: synthetic benchmark bars --------------------------------------------------


@pytest.fixture(scope="module")
def corpus2000():
    return synth_generate(SyntheticSpec(), seed=0)


@pytest.fixture(scope="module")
def vanilla_run(corpus2000):
    records = corpus2000.records
    manifest = random_split(records, fractions=(0.7, 0.15, 0.15), seed=0)
    cfg = small_config(stage="vanilla", epochs=12, lr=1e-3)
    return manifest, train_supervised(records, manifest, cfg)


@pytest.fixture(scope="module")
def transfer_runs(corpus2000):
    records = corpus2000.records
    manifest = cluster_cross_domain_split(records, seed=0)
    base = dict(epochs=15, lr=1e-3)
    plain = train_supervised(
        records, manifest, small_config(stage="vanilla", **base)
    )
    adapted = train_adversarial(
        records, manifest, small_config(stage="cada", lambda_adv=1.0, **base)
    )
    return manifest, plain, adapted


@pytest.fixture(scope="module")
def shot_curves(corpus2000):
    records = corpus2000.records
    manifest = meta_unseen_split(records, kind="protein", seed=0)
    warm_sup = train_supervised(
        records, manifest, small_config(stage="vanilla", epochs=8, lr=1e-3)
    )
    meta_cfg = small_config(stage="meta", epochs=4, episodes_per_epoch=80)
    warm = train_meta(records, manifest, meta_cfg, warm_blob=warm_sup.best_blob)
    cold = train_meta(records, manifest, meta_cfg, no_warm_start=True)
    curves = {}
    for name, run in (("warm", warm), ("cold", cold)):
        curve = meta_shot_curve(
            records, manifest, meta_cfg, run.encoder, run.head,
            run.featurizer, shots=(1, 3, 5), n_runs=5,
        )
        curves[name] = {k: rep.metrics["auroc"] for k, rep in curve.items()}
    return curves


def test_08a_vanilla_beats_085_auroc_on_random_split(corpus2000, vanilla_run):
    manifest, result = vanilla_run
    test = manifest.indices(None, "test")
    got = evaluate(result.encoder, result.featurizer, corpus2000.records, test)
    assert got["auroc"] >= VANILLA_AUROC_FLOOR, f"test auroc {got['auroc']:.4f}"


def test_08b_adversary_gains_003_auroc_across_domains(corpus2000, transfer_runs):
    manifest, plain, adapted = transfer_runs
    test = manifest.indices("target", "test")
    base = evaluate(plain.encoder, plain.featurizer, corpus2000.records, test)
    gain = evaluate(adapted.encoder, adapted.featurizer, corpus2000.records, test)
    assert gain["auroc"] >= base["auroc"] + TRANSFER_GAIN_FLOOR, (
        f"target auroc {base['auroc']:.4f} -> {gain['auroc']:.4f}"
    )


def test_08c_shot_curves_never_degrade_with_more_support(shot_curves):
    for name, curve in shot_curves.items():
        assert curve[1] <= curve[3] <= curve[5], f"{name} curve {curve}"


def test_08d_warm_start_gains_002_auroc_at_one_shot(shot_curves):
    warm, cold = shot_curves["warm"][1], shot_curves["cold"][1]
    assert warm >= cold + WARM_GAIN_FLOOR, f"1-shot {cold:.4f} -> {warm:.4f}"


# -- 9: screening ------------------------------------------------------------------


def test_09_screening_top_decile_is_090_accurate(corpus2000, vanilla_run):
    manifest, classifier = vanilla_run
    regressor = train_supervised(
        corpus2000.regression_records(), manifest,
        small_config(stage="regress", epochs=8, lr=1e-3), head="regress",
    )
    records = corpus2000.records
    test = manifest.indices(None, "test")
    top, _ = screen(
        records, test,
        (classifier.encoder, classifier.featurizer),
        (regressor.encoder, regressor.featurizer),
    )
    hit = float(np.mean([records[i].label for i in top]))
    assert hit >= SCREEN_ACCURACY_FLOOR, f"top-decile accuracy {hit:.4f}"


# -- 10: bit-reproducibility --------------------------------------------------------


def test_10_reruns_are_byte_identical(corpus300, tmp_path):
    spec = SyntheticSpec(n_records=300)
    twin = synth_generate(spec, seed=0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    corpus300.to_csv(a)
    twin.to_csv(b)
    assert a.read_bytes() == b.read_bytes()
    ma, mb = tmp_path / "a.json", tmp_path / "b.json"
    corpus300.save_manifest(ma)
    twin.save_manifest(mb)
    assert ma.read_bytes() == mb.read_bytes()

    records = corpus300.records
    split_a = random_split(records, seed=0)
    split_b = random_split(records, seed=0)
    assert split_a.to_json() == split_b.to_json()

    cfg = small_config(stage="vanilla", epochs=3, lr=1e-3)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        result = train_supervised(records, split_a, cfg, out=out)
        report = evaluate(
            result.encoder, result.featurizer, records,
            split_a.indices(None, "test"),
        )
        outs.append((out, report))
    (out1, rep1), (out2, rep2) = outs
    for name in ("config.json", "metrics.jsonl", "best.ckpt", "split_manifest.sha256"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert rep1 == rep2
    assert manifest_sha256(split_a) == manifest_sha256(split_b)
