"""Training workflows: supervised, adversarial, episodic, and screening.

Every workflow takes the full record list plus a split manifest and only
ever touches indices the manifest hands it, so leakage bugs show up as
manifest bugs rather than silent training-set contamination.  Runs are
deterministic: parameter init, batch order, target sampling, and episode
draws each pull from their own named substream of the run seed, which
keeps one stage's draws from shifting another's.

Every stage runs through one epoch loop (`_fit`), which keeps the best
epoch's checkpoint by selection value and, when a run directory is
requested, writes the same four kinds of artifact: the resolved config
snapshot, the hash of the split manifest it trained against, one metrics
line per epoch, and that best checkpoint.  Vanilla, regression and CADA
share one pair-batch step; CADA only adds its domain term to the
supervised loss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .adversarial import DomainAdversary, class_probabilities, lambda_schedule
from .config import ConfigError, RunConfig
from .datasets import InteractionRecord
from .encoder import DTIEncoder, InteractionOutput, featurize_drug
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
from .splits import TARGET, TEST, TRAIN, VAL, EpisodeTask, SplitManifest, sample_episode
from .tensor import Tensor

EVAL_SEED = 1  # seeds the shot curve's episodes, the same for runs of any seed
EVAL_RUNS = 5  # the shot curve's runs when no caller names a count


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


def _towers(encoder, feat, records, idxs):
    """Both towers, once per distinct entity of records[i], i in idxs: the
    arguments of `interact` for a row per record, in order."""
    drugs, proteins = {}, {}
    d_idx = np.array([drugs.setdefault(records[i].smiles, len(drugs)) for i in idxs])
    p_idx = np.array([proteins.setdefault(records[i].sequence, len(proteins)) for i in idxs])
    d_levels, d_mask = encoder.drug_levels([feat.drugs[s] for s in drugs])
    p_levels = encoder.protein_levels([feat.proteins[s] for s in proteins])
    return d_levels, d_mask, p_levels, d_idx, p_idx


def encode_pairs(encoder, feat, records, idxs) -> InteractionOutput:
    """Forward outputs for records[i], i in idxs, as a training step wants
    them: one joint stage over every tower row, a row per record, in order."""
    return encoder.interact(*_towers(encoder, feat, records, idxs))


def encode_chunks(encoder, feat, records, idxs, chunk):
    """Inference outputs for records[i], i in idxs, a slice at a time: yields
    (positions, output), the output's rows being those positions of idxs.

    The towers run once per call.  The records are taken in protein order,
    `chunk` at a time, and each slice gathers the tower rows it uses before
    its joint stage, so inference never holds more lifted proteins than a
    training step of `chunk` pairs.  A consumer drops each output before it
    asks for the next, so no two slices' attention maps are alive at once."""
    d_levels, d_mask, p_levels, d_idx, p_idx = _towers(encoder, feat, records, idxs)
    order = np.argsort(p_idx, kind="stable")
    for rows in np.split(order, range(chunk, len(order), chunk)):
        d_rows, d_local = np.unique(d_idx[rows], return_inverse=True)
        p_rows, p_local = np.unique(p_idx[rows], return_inverse=True)
        yield rows, encoder.interact(
            [T.index_select(x, 0, d_rows) for x in d_levels],
            d_mask[d_rows],
            [(T.index_select(x, 0, p_rows), real[p_rows]) for x, real in p_levels],
            d_local,
            p_local,
        )


def predict(encoder, feat, records, idxs, batch_size=RunConfig.batch_size) -> np.ndarray:
    """Evaluation-mode scores of the encoder's head, as float64 whatever
    the compute dtype: probabilities from a classifier, raw values from a
    regressor.  The joint stage runs `batch_size` pairs at a time."""
    scores = np.empty(len(idxs))
    with T.no_grad():
        for rows, out in encode_chunks(encoder, feat, records, idxs, batch_size):
            scores[rows] = out.score.data
            del out  # before the next slice computes
    check_finite(scores, "scores")
    return T.sigmoid_values(scores) if encoder.head == "classify" else scores


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


def evaluate(encoder, feat, records, idxs, batch_size=RunConfig.batch_size) -> dict[str, float]:
    scores = predict(encoder, feat, records, idxs, batch_size)
    labels = np.array([records[i].label for i in idxs])
    if encoder.head == "classify":
        return classification_metrics(scores, labels)
    return regression_metrics(scores, labels)


# -- run artifacts ------------------------------------------------------------


def manifest_sha256(manifest: SplitManifest) -> str:
    return hashlib.sha256(manifest.to_json().encode()).hexdigest()


@dataclass
class EpochLog:
    """One metrics line: `train` holds figures measured on the batches or
    episodes the epoch stepped on, `val` those on held-out records."""

    epoch: int
    train_loss: float
    val: dict[str, float] = field(default_factory=dict)
    train: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"epoch": self.epoch, "train_loss": self.train_loss}
        for prefix, values in (("train", self.train), ("val", self.val)):
            for k in sorted(values):
                payload[f"{prefix}_{k}"] = values[k]
        return json.dumps(payload, sort_keys=True)


class RunWriter:
    """Collects the per-run artifacts; inert when no directory is given."""

    def __init__(self, out, cfg: RunConfig, manifest: SplitManifest):
        self.out = Path(out) if out is not None else None
        if self.out is None:
            return
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "config.json").write_text(cfg.snapshot_json())
        (self.out / "split_manifest.sha256").write_text(manifest_sha256(manifest) + "\n")
        (self.out / "metrics.jsonl").write_text("")

    def epoch(self, log: EpochLog) -> None:
        if self.out is None:
            return
        with open(self.out / "metrics.jsonl", "a") as f:  # a stage that raises leaves none open
            f.write(log.to_json() + "\n")

    def finish(self, blob: bytes) -> None:
        if self.out is None:
            return
        (self.out / "best.ckpt").write_bytes(blob)


# -- model assembly -----------------------------------------------------------


def build_model(cfg: RunConfig):
    """A fresh store, in the preset's compute dtype, and the encoder with
    the stage's head."""
    enc_cfg = cfg.encoder_config()
    store = ParameterStore(enc_cfg.dtype)
    encoder = DTIEncoder(store, enc_cfg, substream(cfg.seed, "model.init"), head=cfg.head)
    return store, encoder


def build_prototype_head(store: ParameterStore, cfg: RunConfig) -> PrototypeHead:
    """The episodic stage's head, registered in the encoder's store."""
    enc_cfg = cfg.encoder_config()
    return PrototypeHead(
        store,
        substream(cfg.seed, "model.proto"),
        feature_dim=enc_cfg.fused_dim,
        qk_dim=enc_cfg.gau_qk_dim,
    )


@dataclass
class TrainResult:
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


def check_finite(values: np.ndarray, what: str) -> np.ndarray:
    """`values`, or NumericFailure with the count if any is not finite."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise NumericFailure(f"{bad} of {values.size} {what} not finite")
    return values


def _batch_loss(score: Tensor, labels: np.ndarray, head: str) -> Tensor:
    """Mean supervised loss over a batch's score vector."""
    if head == "classify":
        return T.tmean(T.bce_with_logits(score, labels))
    return T.tmean(T.square(score - labels))


def _batches(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield [int(i) for i in order[start : start + size]]


def _selection_value(metrics: dict[str, float], head: str) -> float:
    # higher is better for both heads once the sign is fixed
    return metrics["auroc"] if head == "classify" else -metrics["rmse"]


def _fit(cfg, manifest, out, run_epoch, store, encoder, feat, head=None) -> TrainResult:
    """The epoch loop every stage shares.

    `run_epoch(epoch)` trains one epoch and returns its log and selection
    value, higher being better.  The run directory is created here, after
    the stage has checked its inputs; the best epoch's parameters are
    restored into the store at the end and written as best.ckpt.
    """
    writer = RunWriter(out, cfg, manifest)
    history = []
    best = (-np.inf, -1, b"")
    for epoch in range(cfg.epochs):
        log, value = run_epoch(epoch)
        history.append(log)
        writer.epoch(log)
        if value > best[0]:
            best = (value, epoch, store.save_bytes())
    store.load_bytes(best[2])
    writer.finish(best[2])
    return TrainResult(encoder, feat, history, best[1], best[0], best[2], head=head)


def train_supervised(
    records: list[InteractionRecord],
    manifest: SplitManifest,
    cfg: RunConfig,
    out=None,
    start_blob: bytes | None = None,
) -> TrainResult:
    """Plain mini-batch training of the stage's head on the manifest's
    labeled pool, keeping the checkpoint with the best validation score.
    Without a val partition the lowest-training-loss epoch stands in."""
    if cfg.head is None:
        raise ConfigError(f"stage {cfg.stage!r} has no supervised head to train")
    return _train_pairs(records, manifest, cfg, out, start_blob, adversarial=False)


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
    if cfg.head != "classify":
        raise ConfigError(f"adversarial training wants a classifier stage, got {cfg.stage!r}")
    return _train_pairs(records, manifest, cfg, out, None, adversarial=cfg.lambda_adv != 0.0)


def _reshuffled(pool: np.ndarray, rng: np.random.Generator):
    """Endless stream over pool, in a fresh permutation each time it runs out."""
    while True:
        for i in rng.permutation(pool):
            yield int(i)


def _train_pairs(records, manifest, cfg, out, start_blob, adversarial):
    """Mini-batch training on pairs.  Each step minimizes the batch's mean
    supervised loss; when adversarial, the step adds the lambda-weighted
    domain loss of the batch against min(batch_size, pool) target-val
    records, drawn from a stream that reshuffles at each epoch and whenever
    the pool runs out."""
    train_idx, val_idx, _ = supervised_indices(manifest)
    if not train_idx:
        raise ValueError("split manifest has no train records")
    feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)
    store, encoder = build_model(cfg)
    if start_blob is not None:
        store.load_bytes(start_blob, strict=False)
    if adversarial:
        adversary = DomainAdversary(
            store,
            substream(cfg.seed, "model.adversary"),
            feature_dim=cfg.encoder_config().fused_dim,
        )
        pool_idx = np.array(manifest.indices(TARGET, VAL))
        if not len(pool_idx):
            raise ValueError("adversarial training needs a target-domain val pool")
        n_tgt = min(cfg.batch_size, len(pool_idx))
        rng_tgt = substream(cfg.seed, "train.target")
    rng = substream(cfg.seed, "train.batches")
    steps_per_epoch = -(-len(train_idx) // cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs

    def forward(idxs):
        """Fused rows and scores of records[i], i in idxs.  The output's
        attention maps are left to the graph, which frees them at backward."""
        out = encode_pairs(encoder, feat, records, idxs)
        return out.fused, out.score

    def run_epoch(epoch):
        order = rng.permutation(np.array(train_idx))
        if adversarial:
            target = _reshuffled(pool_idx, rng_tgt)
        total = 0.0
        for b, batch in enumerate(_batches(order, cfg.batch_size)):
            fused, score = forward(batch)
            labels = np.array([records[i].label for i in batch])
            loss = supervised = _batch_loss(score, labels, cfg.head)
            if adversarial:
                tgt_fused, tgt_score = forward([next(target) for _ in range(n_tgt)])
                domain = adversary.domain_loss(
                    fused,
                    tgt_fused,
                    class_probabilities(score.data),
                    class_probabilities(tgt_score.data),
                )
                lam = lambda_schedule(epoch * steps_per_epoch + b, total_steps, cfg.lambda_adv)
                # the reversal inside the domain term makes one backward the min-max update
                loss = supervised + domain * lam
            check_finite(loss.data, "loss values")
            loss.backward()
            store.adam_step(cfg.lr)
            total += float(supervised.data) * len(batch)
        log = EpochLog(epoch=epoch, train_loss=total / len(train_idx))
        if not val_idx:
            return log, -log.train_loss
        log.val = evaluate(encoder, feat, records, val_idx, cfg.batch_size)
        return log, _selection_value(log.val, cfg.head)

    return _fit(cfg, manifest, out, run_epoch, store, encoder, feat)


# -- episodic stage -----------------------------------------------------------


def episode_tasks(manifest: SplitManifest, pool: str, records, k: int, k_query: int):
    """The tasks in `pool` with enough records of each class for a full
    k-shot episode, sorted by id and partitioned for drawing."""
    tasks = []
    for tid in manifest.task_ids(pool):
        task = EpisodeTask.of(records, tid, manifest.tasks[tid]["records"])
        if (min(len(task.positives), len(task.negatives)) >= k
                and len(task.records) - 2 * k >= k_query):
            tasks.append(task)
    if not tasks:
        raise ValueError(f"no {pool.replace('_', '-')} task can host a full episode")
    return tasks


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
    checkpoint; refusing one must be explicit, and doing both is an error.
    The featurizer covers the target-train task records, which the
    episodes read, and the target-test ones, which a shot curve reads.
    """
    if cfg.head is not None:
        raise ConfigError(f"episodic training wants stage 'meta', got {cfg.stage!r}")
    if warm_blob is not None and no_warm_start:
        raise ConfigError("a warm-start checkpoint contradicts no_warm_start")
    if warm_blob is None and not no_warm_start:
        raise MissingCheckpoint(
            "episodic training expects a supervised checkpoint; "
            "pass one or opt out explicitly"
        )
    tasks = manifest.task_records("target_train", "target_test")
    feat = Featurizer.build([records[i] for i in tasks], cfg.encoder_config().max_seq_len)
    store, encoder = build_model(cfg)
    head = build_prototype_head(store, cfg)
    if warm_blob is not None:
        store.load_bytes(warm_blob, strict=False)
    tasks = episode_tasks(manifest, "target_train", records, cfg.k_shot, cfg.k_query)
    rng = substream(cfg.seed, "train.episodes")

    def run_epoch(epoch):
        total = 0.0
        hits = 0
        n_queries = 0
        for _ in range(cfg.episodes_per_epoch):
            task = tasks[int(rng.integers(len(tasks)))]
            ep = sample_episode(task, cfg.k_shot, cfg.k_query, rng)
            # the output's maps go with the graph; support rows come first
            fused = encode_pairs(encoder, feat, records, ep.support + ep.query).fused
            n = len(ep.support)
            # a stack of one episode: support [1, 2k, dim], queries [1, k_q, dim]
            s_labels = np.array([records[i].label for i in ep.support])
            q_labels = np.array([[records[i].label for i in ep.query]])
            loss, positive = head.episode_loss(
                T.index_select(fused, 0, [np.arange(n)]),
                s_labels,
                T.index_select(fused, 0, [np.arange(n, n + len(ep.query))]),
                q_labels,
            )
            check_finite(loss.data, "loss values")
            loss.backward()
            store.adam_step(cfg.lr)
            total += float(loss.data)
            hits += int(((positive >= 0.5) == (q_labels == 1.0)).sum())
            n_queries += q_labels.size
        log = EpochLog(
            epoch=epoch,
            train_loss=total / cfg.episodes_per_epoch,
            train={"query_accuracy": hits / n_queries},
        )
        return log, -log.train_loss

    return _fit(cfg, manifest, out, run_epoch, store, encoder, feat, head)


def check_shot_curve(shots, n_runs: int) -> None:
    """Refuse a shot curve that would average no runs or slice the support
    with a shot count below one."""
    if n_runs < 1:
        raise ConfigError(f"eval runs must be at least 1, got {n_runs}")
    if not shots or min(shots) < 1:
        raise ConfigError(f"shot counts must be at least 1, got {list(shots)}")


def meta_shot_curve(
    records: list[InteractionRecord],
    manifest: SplitManifest,
    cfg: RunConfig,
    encoder: DTIEncoder,
    head: PrototypeHead,
    feat: Featurizer,
    shots=(1, 3, 5),
    n_runs: int = EVAL_RUNS,
) -> dict[int, MetricReport]:
    """Pooled episodic evaluation on the held-out task pool, paired across
    shot counts.

    Each run draws eval_episodes episodes at the largest k; smaller shot
    counts reuse the same episodes with the support truncated to the first
    k per class and identical queries.  Comparing shot counts on common
    queries measures what the extra shots add, with the query sampling
    noise cancelled out.  A run draws all its episodes first (no draw
    depends on a score) and scores each shot count's episodes as one stack,
    in episode order.  Reports carry mean and spread across runs.
    """
    check_shot_curve(shots, n_runs)
    k_max = max(shots)
    tasks = episode_tasks(manifest, "target_test", records, k_max, cfg.k_query)
    idxs = sorted({i for task in tasks for i in task.records})

    per_run = {k: [] for k in shots}
    fused = np.empty((len(idxs), encoder.config.fused_dim), dtype=encoder.config.dtype)
    row = {i: j for j, i in enumerate(idxs)}
    with T.no_grad():
        for rows, out in encode_chunks(encoder, feat, records, idxs, cfg.batch_size):
            fused[rows] = out.fused.data
            del out  # before the next slice computes
        for run in range(n_runs):
            rng = substream(EVAL_SEED, f"meta.eval.{run}")
            episodes = [
                sample_episode(tasks[int(rng.integers(len(tasks)))], k_max, cfg.k_query, rng)
                for _ in range(cfg.eval_episodes)
            ]
            supports = np.array([[row[i] for i in ep.support] for ep in episodes])
            queries = T.index_select(fused, 0, [[row[i] for i in ep.query] for ep in episodes])
            labels = np.array([records[i].label for ep in episodes for i in ep.query])
            for k in shots:
                # each support is k_max positives then k_max negatives
                cols = np.r_[:k, k_max : k_max + k]
                probs, _ = head.episode_probabilities(
                    T.index_select(fused, 0, supports[:, cols]), np.repeat([1.0, 0.0], k), queries
                )
                check_finite(probs.data, "probabilities")
                per_run[k].append(auroc(probs.data[..., 1].ravel(), labels))
    out = {}
    for k in shots:
        arr = np.array(per_run[k])
        out[k] = MetricReport(
            metrics={"auroc": float(arr.mean())}, spread={"auroc": float(arr.std())}
        )
    return out


# -- screening ----------------------------------------------------------------


def screen(
    records: list[InteractionRecord],
    idxs: list[int],
    classifier: tuple[DTIEncoder, Featurizer, int],
    regressor: tuple[DTIEncoder, Featurizer, int],
    top_fraction: float = 0.1,
):
    """Rank candidate pairs by squared interaction probability times
    predicted affinity and return the top slice with its scores.  Each run
    comes as (encoder, featurizer, batch size) and infers its own batch
    size of pairs at a time, as `evaluate` does."""
    (c_enc, c_feat, c_batch), (r_enc, r_feat, r_batch) = classifier, regressor
    y_c = predict(c_enc, c_feat, records, idxs, c_batch)
    y_r = predict(r_enc, r_feat, records, idxs, r_batch)
    ranks = screen_score(y_c, y_r)
    order = np.argsort(-ranks, kind="stable")
    n_top = max(1, int(np.ceil(top_fraction * len(idxs))))
    top = [idxs[int(o)] for o in order[:n_top]]
    return top, ranks[order[:n_top]]
