"""Training workflows: supervised, adversarial, episodic, and screening.

Every workflow takes the full record list plus a split manifest and only
ever touches indices the manifest hands it, so leakage bugs show up as
manifest bugs rather than silent training-set contamination.  Runs are
deterministic: parameter init, batch order, target sampling, and episode
draws each pull from their own named substream of the run seed, which
keeps one stage's draws from shifting another's.

A run directory, when requested, always ends up with the same four kinds
of artifact: the resolved config snapshot, the hash of the split manifest
it trained against, one metrics line per epoch, and the best checkpoint
by validation score.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .adversarial import (
    DomainAdversary,
    cada_total_loss,
    class_probabilities,
    lambda_schedule,
)
from .config import RunConfig
from .datasets import InteractionRecord
from .encoder import DTIEncoder, featurize_drug
from .fewshot import PrototypeHead
from .metrics import (
    MetricReport,
    accuracy,
    auprc,
    auroc,
    concordance_index,
    mae,
    pearson,
    rmse,
    screen_score,
)
from .optim import ParameterStore
from .proteins import encode_protein
from .rng import substream
from .smiles import parse_smiles
from .splits import SOURCE, TARGET, TEST, TRAIN, VAL, Episode, SplitManifest, sample_episode
from .tensor import Tensor


class NumericFailure(ArithmeticError):
    """Loss turned NaN or infinite; the run cannot be trusted past here."""


class MissingCheckpoint(FileNotFoundError):
    """A stage that needs a warm start was given nothing to start from."""


# -- featurization ------------------------------------------------------------


@dataclass
class Featurizer:
    """Entity-level input arrays, computed once per corpus.

    Records repeat the same few molecules and sequences, so the parsers and
    one-hot encoders run per unique entity, not per record.
    """

    drugs: dict[str, tuple[np.ndarray, np.ndarray]]
    proteins: dict[str, tuple[np.ndarray, int]]

    @classmethod
    def build(cls, records: list[InteractionRecord], max_seq_len: int) -> "Featurizer":
        drugs = {}
        proteins = {}
        for rec in records:
            if rec.smiles not in drugs:
                drugs[rec.smiles] = featurize_drug(parse_smiles(rec.smiles))
            if rec.sequence not in proteins:
                tok = encode_protein(rec.sequence, max_seq_len)
                proteins[rec.sequence] = (tok.ids, tok.true_length)
        return cls(drugs=drugs, proteins=proteins)


def encode_pairs(encoder, feat, records, idxs, head):
    """Forward outputs for records[i], i in idxs, in order.

    Every unique molecule and sequence runs through its tower once, all
    towers before any joint stage; each record then runs the joint stage on
    the shared tower outputs.  The results equal per-record
    `encoder.forward`, because the towers see one entity at a time.
    """
    d_cache = {}
    p_cache = {}
    for i in idxs:
        rec = records[i]
        if rec.smiles not in d_cache:
            d_cache[rec.smiles] = encoder.drug_levels(*feat.drugs[rec.smiles])
        if rec.sequence not in p_cache:
            p_cache[rec.sequence] = encoder.protein_levels(*feat.proteins[rec.sequence])
    return [
        encoder.interact(d_cache[records[i].smiles], p_cache[records[i].sequence], head=head)
        for i in idxs
    ]


def predict(encoder, feat, records, idxs, head="classify") -> np.ndarray:
    """Evaluation-mode scores: probabilities for the classifier head, raw
    values for the regression head."""
    out = np.empty(len(idxs))
    with T.no_grad():
        outputs = encode_pairs(encoder, feat, records, idxs, head)
    for j, o in enumerate(outputs):
        if head == "classify":
            out[j] = float(T.sigmoid_values(o.logit.data[0]))
        else:
            out[j] = float(o.value.data[0])
    return out


def classification_metrics(scores, labels) -> dict[str, float]:
    return {
        "auroc": auroc(scores, labels),
        "auprc": auprc(scores, labels),
        "accuracy": accuracy(scores, labels),
    }


def regression_metrics(pred, truth) -> dict[str, float]:
    return {
        "rmse": rmse(pred, truth),
        "mae": mae(pred, truth),
        "pearson": pearson(pred, truth),
        "ci": concordance_index(pred, truth),
    }


def evaluate(encoder, feat, records, idxs, head="classify") -> dict[str, float]:
    scores = predict(encoder, feat, records, idxs, head)
    labels = np.array([records[i].label for i in idxs])
    if head == "classify":
        return classification_metrics(scores, labels)
    return regression_metrics(scores, labels)


# -- run artifacts ------------------------------------------------------------


def manifest_sha256(manifest: SplitManifest) -> str:
    return hashlib.sha256(manifest.to_json().encode()).hexdigest()


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"epoch": self.epoch, "train_loss": self.train_loss}
        for k in sorted(self.val):
            payload[f"val_{k}"] = self.val[k]
        return json.dumps(payload, sort_keys=True)


class RunWriter:
    """Collects the per-run artifacts; inert when no directory is given."""

    def __init__(self, out, cfg: RunConfig, manifest: SplitManifest | None):
        self.out = Path(out) if out is not None else None
        if self.out is None:
            return
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "config.json").write_text(cfg.snapshot_json())
        if manifest is not None:
            (self.out / "split_manifest.sha256").write_text(
                manifest_sha256(manifest) + "\n"
            )
        self._metrics = open(self.out / "metrics.jsonl", "w")

    def epoch(self, log: EpochLog) -> None:
        if self.out is None:
            return
        self._metrics.write(log.to_json() + "\n")
        self._metrics.flush()

    def finish(self, blob: bytes | None, report: MetricReport | None) -> None:
        if self.out is None:
            return
        self._metrics.close()
        if blob is not None:
            (self.out / "best.ckpt").write_bytes(blob)
        if report is not None:
            report.save(self.out / "report.json")


# -- model assembly -----------------------------------------------------------


def build_model(cfg: RunConfig, heads=("classify",)):
    store = ParameterStore()
    encoder = DTIEncoder(
        store, cfg.encoder_config(), substream(cfg.seed, "model.init"), heads=heads
    )
    return store, encoder


@dataclass
class TrainResult:
    store: ParameterStore
    encoder: DTIEncoder
    featurizer: Featurizer
    history: list[EpochLog]
    best_epoch: int
    best_metric: float
    best_blob: bytes
    head: PrototypeHead | None = None  # episodic stage only


def supervised_indices(manifest: SplitManifest):
    """Labeled train pool plus whatever val/test partitions the manifest
    defines.  Every record in a train partition counts as labeled data:
    flat splits keep everything in the source domain, cross-domain splits
    confine training to source-side records, and episodic splits add the
    target-train tasks whose labels the episodes consume anyway."""
    train = manifest.indices(None, TRAIN)
    val = manifest.indices(None, VAL)
    test = manifest.indices(None, TEST)
    return train, val, test


def _check_finite(loss: Tensor) -> Tensor:
    if not np.isfinite(loss.data).all():
        raise NumericFailure(f"loss is not finite: {loss.data}")
    return loss


def _record_loss(output, record: InteractionRecord, head: str) -> Tensor:
    if head == "classify":
        return T.bce_with_logits(output.logit, np.array([record.label]))
    diff = output.value - Tensor(np.array([record.label]), requires_grad=False)
    return T.square(diff)


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield [int(i) for i in order[start : start + size]]


def _selection_value(metrics: dict[str, float], head: str) -> float:
    # higher is better for both heads once the sign is fixed
    return metrics["auroc"] if head == "classify" else -metrics["rmse"]


def train_supervised(
    records: list[InteractionRecord],
    manifest: SplitManifest,
    cfg: RunConfig,
    out=None,
    head: str = "classify",
    start_blob: bytes | None = None,
) -> TrainResult:
    """Plain mini-batch training on the manifest's labeled pool, keeping the
    checkpoint with the best validation score.  Without a val partition the
    lowest-training-loss epoch stands in."""
    feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)
    store, encoder = build_model(cfg, heads=(head,))
    if start_blob is not None:
        store.load_bytes(start_blob, strict=False)
    train_idx, val_idx, _ = supervised_indices(manifest)
    writer = RunWriter(out, cfg, manifest)
    rng = substream(cfg.seed, "train.batches")

    history = []
    best = (-np.inf, -1, b"")
    for epoch in range(cfg.epochs):
        order = rng.permutation(np.array(train_idx))
        total = 0.0
        seen = 0
        for batch in _batches(order, cfg.batch_size):
            outputs = encode_pairs(encoder, feat, records, batch, head)
            losses = [_record_loss(o, records[i], head) for o, i in zip(outputs, batch)]
            loss = _check_finite(T.tmean(T.concat(losses)))
            loss.backward()
            store.adam_step(cfg.lr)
            total += float(loss.data) * len(batch)
            seen += len(batch)
        log = EpochLog(epoch=epoch, train_loss=total / seen)
        if val_idx:
            log.val = evaluate(encoder, feat, records, val_idx, head)
            value = _selection_value(log.val, head)
        else:
            value = -log.train_loss
        history.append(log)
        writer.epoch(log)
        if value > best[0]:
            best = (value, epoch, store.save_bytes())

    store.load_bytes(best[2])
    writer.finish(best[2], None)
    return TrainResult(store, encoder, feat, history, best[1], best[0], best[2])


def train_adversarial(
    records: list[InteractionRecord],
    manifest: SplitManifest,
    cfg: RunConfig,
    out=None,
) -> TrainResult:
    """Supervised training on the source domain plus a gradient-reversed
    domain discriminator fed unlabeled target-val inputs.

    With lambda_adv at zero this is, bit for bit, plain supervised training:
    the adversary is never built and no extra random draws happen.
    """
    if cfg.lambda_adv == 0.0:
        return train_supervised(records, manifest, cfg, out=out)

    feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)
    store, encoder = build_model(cfg)
    adversary = DomainAdversary(
        store,
        substream(cfg.seed, "model.adversary"),
        feature_dim=cfg.encoder_config().fused_dim,
    )
    train_idx, val_idx, _ = supervised_indices(manifest)
    pool_idx = manifest.indices(TARGET, VAL)
    if not pool_idx:
        raise ValueError("adversarial training needs a target-domain val pool")
    writer = RunWriter(out, cfg, manifest)
    rng = substream(cfg.seed, "train.batches")
    rng_tgt = substream(cfg.seed, "train.target")

    steps_per_epoch = -(-len(train_idx) // cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    step = 0
    history = []
    best = (-np.inf, -1, b"")
    for epoch in range(cfg.epochs):
        order = rng.permutation(np.array(train_idx))
        tgt_order = rng_tgt.permutation(np.array(pool_idx))
        tgt_pos = 0
        total = 0.0
        seen = 0
        for batch in _batches(order, cfg.batch_size):
            tgt_batch = []
            while len(tgt_batch) < min(cfg.batch_size, len(pool_idx)):
                if tgt_pos == len(tgt_order):
                    tgt_order = rng_tgt.permutation(np.array(pool_idx))
                    tgt_pos = 0
                tgt_batch.append(int(tgt_order[tgt_pos]))
                tgt_pos += 1

            lam = lambda_schedule(step, total_steps, cfg.lambda_adv, cfg.warmup_fraction)
            src_out = encode_pairs(encoder, feat, records, batch, "classify")
            losses = [
                _record_loss(o, records[i], "classify") for o, i in zip(src_out, batch)
            ]
            supervised = T.tmean(T.concat(losses))
            tgt_out = encode_pairs(encoder, feat, records, tgt_batch, "classify")

            src_probs = np.stack(
                [class_probabilities(float(o.logit.data[0])) for o in src_out]
            )
            tgt_probs = np.stack(
                [class_probabilities(float(o.logit.data[0])) for o in tgt_out]
            )
            domain = adversary.domain_loss(
                [o.fused for o in src_out],
                [o.fused for o in tgt_out],
                src_probs,
                tgt_probs,
                grl_scale=cfg.grl_scale,
            )
            loss = _check_finite(cada_total_loss(supervised, domain, lam))
            loss.backward()
            store.adam_step(cfg.lr)
            total += float(supervised.data) * len(batch)
            seen += len(batch)
            step += 1
        log = EpochLog(epoch=epoch, train_loss=total / seen)
        log.val = evaluate(encoder, feat, records, val_idx, "classify")
        history.append(log)
        writer.epoch(log)
        value = _selection_value(log.val, "classify")
        if value > best[0]:
            best = (value, epoch, store.save_bytes())

    store.load_bytes(best[2])
    writer.finish(best[2], None)
    return TrainResult(store, encoder, feat, history, best[1], best[0], best[2])


# -- episodic stage -----------------------------------------------------------


def _episode_features(encoder, feat, records, episode: Episode):
    fused = _fused_cache(encoder, feat, records, list(episode.support) + list(episode.query))
    support = T.concat(
        [T.reshape(fused[i], (1, fused[i].data.shape[0])) for i in episode.support]
    )
    queries = [fused[i] for i in episode.query]
    support_labels = np.array([records[i].label for i in episode.support])
    query_labels = np.array([records[i].label for i in episode.query])
    return support, support_labels, queries, query_labels


def _task_pools(manifest: SplitManifest, pool: str) -> dict[str, list[int]]:
    return {
        tid: list(manifest.tasks[tid]["records"]) for tid in manifest.task_ids(pool)
    }


def _eligible_tasks(pools: dict[str, list[int]], records, k: int, k_query: int):
    """Tasks with enough records of each class for a full episode."""
    good = {}
    for tid, idxs in pools.items():
        pos = sum(1 for i in idxs if records[i].label == 1.0)
        neg = len(idxs) - pos
        if pos >= k and neg >= k and len(idxs) - 2 * k >= k_query:
            good[tid] = idxs
    return good


def train_meta(
    records: list[InteractionRecord],
    manifest: SplitManifest,
    cfg: RunConfig,
    out=None,
    warm_blob: bytes | None = None,
    no_warm_start: bool = False,
) -> TrainResult:
    """Episodic training on the target-train task pool.

    Each step draws one task, samples a k-shot episode, and minimizes the
    focal loss of the attention-weighted prototype classifier over its
    queries.  A warm start loads encoder weights from a supervised
    checkpoint; refusing one must be explicit.
    """
    if warm_blob is None and not no_warm_start:
        raise MissingCheckpoint(
            "episodic training expects a supervised checkpoint; "
            "pass one or opt out explicitly"
        )
    feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)
    store, encoder = build_model(cfg, heads=())
    head = PrototypeHead(
        store,
        substream(cfg.seed, "model.proto"),
        feature_dim=cfg.encoder_config().fused_dim,
        qk_dim=cfg.encoder_config().gau_qk_dim,
        uniform_attention=cfg.uniform_attention,
        alpha=cfg.focal_alpha,
        gamma=cfg.focal_gamma,
    )
    if warm_blob is not None:
        store.load_bytes(warm_blob, strict=False)

    pools = _eligible_tasks(
        _task_pools(manifest, "target_train"), records, cfg.k_shot, cfg.k_query
    )
    if not pools:
        raise ValueError("no target-train task can host a full episode")
    task_ids = sorted(pools)
    writer = RunWriter(out, cfg, manifest)
    rng = substream(cfg.seed, "train.episodes")

    history = []
    best = (-np.inf, -1, b"")
    for epoch in range(cfg.epochs):
        total = 0.0
        hits = 0
        n_queries = 0
        for _ in range(cfg.episodes_per_epoch):
            tid = task_ids[int(rng.integers(len(task_ids)))]
            episode = sample_episode(
                records, tid, pools[tid], cfg.k_shot, cfg.k_query, rng
            )
            support, s_labels, queries, q_labels = _episode_features(
                encoder, feat, records, episode
            )
            loss, positive = head.episode_loss(support, s_labels, queries, q_labels)
            loss = _check_finite(loss)
            loss.backward()
            store.adam_step(cfg.lr)
            total += float(loss.data)
            hits += int(((positive >= 0.5) == (q_labels == 1.0)).sum())
            n_queries += len(q_labels)
        log = EpochLog(
            epoch=epoch,
            train_loss=total / cfg.episodes_per_epoch,
            val={"query_accuracy": hits / n_queries},
        )
        history.append(log)
        writer.epoch(log)
        value = -log.train_loss
        if value > best[0]:
            best = (value, epoch, store.save_bytes())

    store.load_bytes(best[2])
    writer.finish(best[2], None)
    return TrainResult(
        store, encoder, feat, history, best[1], best[0], best[2], head=head
    )


def _fused_cache(encoder, feat, records, idxs) -> dict[int, Tensor]:
    """Fused vector per record, each entity encoded once."""
    outputs = encode_pairs(encoder, feat, records, idxs, None)
    return {i: o.fused for i, o in zip(idxs, outputs)}


def _score_episode(head, fused, records, support_idx, query_idx):
    support = T.concat(
        [T.reshape(fused[i], (1, fused[i].data.shape[0])) for i in support_idx]
    )
    s_labels = np.array([records[i].label for i in support_idx])
    queries = [fused[i] for i in query_idx]
    probs, _ = head.episode_probabilities(support, s_labels, queries)
    scores = [float(p.data[1]) for p in probs]
    labels = [records[i].label for i in query_idx]
    return scores, labels


def meta_shot_curve(
    records: list[InteractionRecord],
    manifest: SplitManifest,
    cfg: RunConfig,
    encoder: DTIEncoder,
    head: PrototypeHead,
    feat: Featurizer,
    shots=(1, 3, 5),
    n_runs: int = 5,
    eval_seed: int = 1,
) -> dict[int, MetricReport]:
    """Pooled episodic evaluation on the held-out task pool, paired across
    shot counts.

    Each run draws eval_episodes episodes at the largest k; smaller shot
    counts reuse the same episodes with the support truncated to the first
    k per class and identical queries.  Comparing shot counts on common
    queries measures what the extra shots add, with the query sampling
    noise cancelled out.  Reports carry mean and spread across runs.
    """
    k_max = max(shots)
    pools = _eligible_tasks(
        _task_pools(manifest, "target_test"), records, k_max, cfg.k_query
    )
    if not pools:
        raise ValueError("no target-test task can host a full episode")
    task_ids = sorted(pools)
    idxs = sorted({i for pool in pools.values() for i in pool})

    per_run = {k: [] for k in shots}
    with T.no_grad():
        fused = _fused_cache(encoder, feat, records, idxs)
        for run in range(n_runs):
            rng = substream(eval_seed, f"meta.eval.{run}")
            collected = {k: ([], []) for k in shots}
            for _ in range(cfg.eval_episodes):
                tid = task_ids[int(rng.integers(len(task_ids)))]
                ep = sample_episode(records, tid, pools[tid], k_max, cfg.k_query, rng)
                for k in shots:
                    sub = list(ep.support[:k]) + list(ep.support[k_max : k_max + k])
                    scores, labels = _score_episode(
                        head, fused, records, sub, list(ep.query)
                    )
                    collected[k][0].extend(scores)
                    collected[k][1].extend(labels)
            for k in shots:
                per_run[k].append(
                    auroc(np.array(collected[k][0]), np.array(collected[k][1]))
                )
    out = {}
    for k in shots:
        arr = np.array(per_run[k])
        out[k] = MetricReport(
            metrics={"auroc": float(arr.mean())}, spread={"auroc": float(arr.std())}
        )
    return out


def evaluate_meta(
    records: list[InteractionRecord],
    manifest: SplitManifest,
    cfg: RunConfig,
    encoder: DTIEncoder,
    head: PrototypeHead,
    feat: Featurizer,
    k: int,
    n_runs: int = 5,
    eval_seed: int = 1,
) -> MetricReport:
    """Single-shot-count episodic evaluation; see meta_shot_curve."""
    return meta_shot_curve(
        records, manifest, cfg, encoder, head, feat, (k,), n_runs, eval_seed
    )[k]


# -- screening ----------------------------------------------------------------


def screen(
    records: list[InteractionRecord],
    idxs: list[int],
    classifier: tuple[DTIEncoder, Featurizer],
    regressor: tuple[DTIEncoder, Featurizer],
    top_fraction: float = 0.1,
):
    """Rank candidate pairs by squared interaction probability times
    predicted affinity and return the top slice with its scores."""
    c_enc, c_feat = classifier
    r_enc, r_feat = regressor
    y_c = predict(c_enc, c_feat, records, idxs, "classify")
    y_r = predict(r_enc, r_feat, records, idxs, "regress")
    ranks = screen_score(y_c, y_r)
    order = np.argsort(-ranks, kind="stable")
    n_top = max(1, int(np.ceil(top_fraction * len(idxs))))
    top = [idxs[int(o)] for o in order[:n_top]]
    return top, ranks[order[:n_top]]
