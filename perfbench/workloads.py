"""The benchmark's workloads.

A workload object's constructor is its set-up: it turns the seed into
inputs the way a CLI user would (generate a synthetic corpus, write it as
CSV, load the CSV back, featurize, split, build the model), so the program
only ever sees generated records and manifests.  `steps()` lists the
public dtikit calls one round times, each with the correctness check of its
output; `report()` turns the step times into the workload's named figures.
Calls go through module attributes (``train.predict``, not a ``from``
import) so the traced run's hooks see them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dtikit import datasets, splits, synth, train
from dtikit.cli import DOMAIN_SHIFT_RULES
from dtikit.config import resolve_config
from dtikit.splits import SOURCE, TARGET, TRAIN, VAL

# Seeds tried after the given one before a workload gives up on finding a
# split every timed call can run on.
SPLIT_SEED_TRIES = 100

# sha256 of the split-large manifest at the default seed, recorded from the
# parent commit's cluster_cross_domain_split.  Other seeds are checked for
# leak-freeness only.
DEFAULT_SEED = 0
SPLIT_LARGE_SHA256 = "80c8ebe352b0a21f740b6525a549cb9a3d7d5837c95a1e03eb9dd3e738c57bc2"


# Set-up is short next to the host's speed swings, so each workload repeats
# it about two seconds' worth and reports the median.  A fixed count per
# workload keeps the traced call counts of set-up layers repeatable.
SETUP_REPEATS = {"train-small": 15, "paper-long": 31, "split-large": 7, "transfer-small": 7}


class CheckFailed(Exception):
    """A timed call returned, but its output is wrong."""


@dataclass
class Step:
    name: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], None]  # untimed; raises CheckFailed
    pairs_trained: int = 0  # pairs whose losses this call backpropagates


def _corpus(spec: synth.SyntheticSpec, seed: int, work: Path) -> list:
    work.mkdir(parents=True, exist_ok=True)
    path = work / "corpus.csv"
    synth.synth_generate(spec, seed).to_csv(path)
    return datasets.load_interactions(path)


def _both_classes(records, idxs) -> bool:
    return {records[i].label for i in idxs} == {0.0, 1.0}


def _first_usable(make, usable, seed: int):
    """The first manifest from split seed `seed` upward that `usable`
    accepts.  AUROC, validation and episodes are undefined on a partition
    that lacks a class, so such a split is not an input a user could train
    on; skipping it keeps every timed call runnable at every seed."""
    for split_seed in range(seed, seed + SPLIT_SEED_TRIES):
        manifest = make(split_seed)
        if usable(manifest):
            return manifest
    raise RuntimeError(f"no usable split within {SPLIT_SEED_TRIES} seeds of {seed}")


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _check_scores(scores, n: int) -> None:
    scores = np.asarray(scores)
    if scores.shape != (n,) or not np.isfinite(scores).all():
        raise CheckFailed("predict returned missing or non-finite scores")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise CheckFailed("predict returned a probability outside [0, 1]")


# -- train-small and paper-long --------------------------------------------------


class TrainSmall:
    """Vanilla training with a run directory, then the checkpoint reloaded
    into the set-up model and every record scored.  The small preset with
    heavy entity sharing: bookkeeping-bound."""

    spec = synth.SyntheticSpec()
    overrides = dict(model_preset="small", max_seq_len=48, batch_size=64, lr=1e-3)
    reports_val_auroc = True

    def __init__(self, seed: int, work: Path):
        self.cfg = resolve_config(
            {}, dict(stage="vanilla", seed=seed, epochs=1, **self.overrides)
        )
        self.records = _corpus(self.spec, seed, work)
        self.feat = train.Featurizer.build(
            self.records, self.cfg.encoder_config().max_seq_len
        )
        self.manifest = _first_usable(
            lambda s: splits.random_split(self.records, seed=s),
            lambda m: _both_classes(self.records, m.indices(None, VAL)),
            seed,
        )
        self.store, self.encoder = train.build_model(self.cfg)
        self.run_dir = work / "run"
        self.n_train = len(self.manifest.indices(None, TRAIN))
        self.everything = list(range(len(self.records)))
        self.val_auroc = math.nan

    def steps(self) -> list[Step]:
        return [
            Step("train", self._train, self._check_train, self.n_train * self.cfg.epochs),
            Step("infer", self._infer, lambda s: _check_scores(s, len(self.records))),
        ]

    def _train(self):
        return train.train_supervised(
            self.records, self.manifest, self.cfg, out=self.run_dir
        )

    def _check_train(self, result) -> None:
        if not math.isfinite(result.best_metric):
            raise CheckFailed("best validation AUROC is not finite")
        self.val_auroc = result.best_metric
        # strict: the run directory's checkpoint must fill the model exactly
        self.store.load_bytes((self.run_dir / "best.ckpt").read_bytes())

    def _infer(self):
        return train.predict(self.encoder, self.feat, self.records, self.everything)

    def report(self, times: dict[str, list[float]]) -> dict:
        out = {
            "train_pairs_per_s": (
                self.n_train * self.cfg.epochs / _median(times["train"]), "1/s"
            ),
            "infer_pairs_per_s": (len(self.records) / _median(times["infer"]), "1/s"),
        }
        if self.reports_val_auroc:
            out["val_auroc"] = (self.val_auroc, "auroc")
        return out


class PaperLong(TrainSmall):
    """The same calls on the paper preset: few, large ops and long
    sequences, so arithmetic, gradient accumulation and memory dominate."""

    spec = synth.SyntheticSpec(
        n_records=40, n_drugs=20, n_proteins=10, seq_len=(800, 1100), chain_len=(12, 20)
    )
    overrides = dict(model_preset="paper", batch_size=4)
    reports_val_auroc = False  # four validation records


# -- split-large -------------------------------------------------------------------


def leak_problems(manifest: splits.SplitManifest, records) -> list[str]:
    """Ways a cross-domain manifest leaks or loses records."""
    problems = []
    assigned, dropped = set(manifest.assignments), set(manifest.dropped)
    if len(dropped) != len(manifest.dropped) or assigned & dropped:
        problems.append("a record is listed twice")
    if assigned | dropped != set(range(len(records))):
        problems.append("a record is neither assigned nor dropped")
    for kind, clusters, key in (
        ("drug", manifest.drug_clusters, "drug_id"),
        ("protein", manifest.protein_clusters, "protein_id"),
    ):
        sides = {SOURCE: set(), TARGET: set()}
        for idx, (domain, _) in manifest.assignments.items():
            sides[domain].add(clusters[getattr(records[idx], key)])
        if sides[SOURCE] & sides[TARGET]:
            problems.append(f"a {kind} cluster sits on both sides")
    return problems


class SplitLarge:
    """The cluster cross-domain split of a 4,800-record corpus: quadratic
    pure-Python distance and linkage loops, no autodiff at all."""

    spec = synth.SyntheticSpec(n_drugs=1200, n_proteins=600, n_records=4800)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.records = _corpus(self.spec, seed, work)

    def steps(self) -> list[Step]:
        return [Step("split", self._split, self._check)]

    def _split(self):
        return splits.cluster_cross_domain_split(self.records, seed=self.seed)

    def _check(self, manifest) -> None:
        problems = leak_problems(manifest, self.records)
        if problems:
            raise CheckFailed("; ".join(problems))
        if self.seed == DEFAULT_SEED and train.manifest_sha256(manifest) != SPLIT_LARGE_SHA256:
            raise CheckFailed("manifest differs from the one recorded for the default seed")

    def report(self, times: dict[str, list[float]]) -> dict:
        return {"split_s": (_median(times["split"]), "s")}


# -- transfer-small ----------------------------------------------------------------

# Fixed sizes for the adversarial stage.  The cluster split's partition
# sizes swing with the seed (about 200 to 900 source records); capping them
# keeps the work per round the same at every seed.
CADA_SOURCE_RECORDS = 360
CADA_TARGET_RECORDS = 100
SHOTS = (1, 3, 5)
SHOT_RUNS = 2


def _cap(manifest: splits.SplitManifest, part, n: int, rng) -> None:
    """Keep `n` of the partition's records and drop the rest."""
    idxs = manifest.indices(*part)
    keep = {int(i) for i in rng.choice(idxs, size=n, replace=False)}
    for i in sorted(set(idxs) - keep):
        del manifest.assignments[i]
        manifest.dropped.append(i)


def _cada_manifest(records, seed: int) -> splits.SplitManifest:
    def make(split_seed):
        manifest = splits.cluster_cross_domain_split(records, seed=split_seed)
        if (
            len(manifest.indices(SOURCE, TRAIN)) < CADA_SOURCE_RECORDS
            or len(manifest.indices(TARGET, VAL)) < CADA_TARGET_RECORDS
        ):
            return None
        rng = np.random.default_rng(split_seed)
        _cap(manifest, (SOURCE, TRAIN), CADA_SOURCE_RECORDS, rng)
        _cap(manifest, (TARGET, VAL), CADA_TARGET_RECORDS, rng)
        return manifest

    return _first_usable(
        make,
        lambda m: m is not None
        and _both_classes(records, m.indices(SOURCE, TRAIN))
        and _both_classes(records, m.indices(TARGET, VAL)),
        seed,
    )


def _hosts_episode(records, manifest, pool: str, k: int, k_query: int) -> bool:
    """Whether some task in the pool has k records of each class and
    k_query more for the query set."""
    for tid in manifest.task_ids(pool):
        idxs = manifest.tasks[tid]["records"]
        pos = sum(1 for i in idxs if records[i].label == 1.0)
        if pos >= k and len(idxs) - pos >= k and len(idxs) - 2 * k >= k_query:
            return True
    return False


class TransferSmall:
    """CADA on the domain-shifted corpus, then episodic training from
    scratch and a 1/3/5-shot curve on the default corpus: the only workload
    that runs the adversarial and few-shot layers."""

    shift_spec = synth.SyntheticSpec(rules=DOMAIN_SHIFT_RULES, domain_shift=True)
    meta_spec = synth.SyntheticSpec()
    small = dict(model_preset="small", max_seq_len=48, epochs=1)

    def __init__(self, seed: int, work: Path):
        small = dict(self.small, seed=seed)
        self.cada_cfg = resolve_config({}, dict(small, stage="cada", lambda_adv=1.0, lr=1e-3))
        self.meta_cfg = resolve_config({}, dict(small, stage="meta", episodes_per_epoch=40))
        self.shift_records = _corpus(self.shift_spec, seed, work / "shift")
        self.cada_manifest = _cada_manifest(self.shift_records, seed)
        self.meta_records = _corpus(self.meta_spec, seed, work / "meta")
        cfg = self.meta_cfg
        self.meta_manifest = _first_usable(
            lambda s: splits.meta_unseen_split(self.meta_records, kind="protein", seed=s),
            lambda m: _hosts_episode(self.meta_records, m, "target_train", cfg.k_shot, cfg.k_query)
            and _hosts_episode(self.meta_records, m, "target_test", max(SHOTS), cfg.k_query),
            seed,
        )
        self.meta_feat = train.Featurizer.build(
            self.meta_records, cfg.encoder_config().max_seq_len
        )
        self.meta_result = None
        self.episodes = cfg.episodes_per_epoch * cfg.epochs

    def steps(self) -> list[Step]:
        cfg = self.meta_cfg
        return [
            Step(
                "cada", self._cada, self._check_cada,
                CADA_SOURCE_RECORDS * self.cada_cfg.epochs,
            ),
            Step(
                "meta", self._meta, lambda r: None,
                self.episodes * (2 * cfg.k_shot + cfg.k_query),
            ),
            Step("shot", self._shot, self._check_shot),
        ]

    def _cada(self):
        return train.train_adversarial(self.shift_records, self.cada_manifest, self.cada_cfg)

    def _check_cada(self, result) -> None:
        if not math.isfinite(result.best_metric):
            raise CheckFailed("best target validation AUROC is not finite")

    def _meta(self):
        self.meta_result = train.train_meta(
            self.meta_records, self.meta_manifest, self.meta_cfg, no_warm_start=True
        )
        return self.meta_result

    def _shot(self):
        r = self.meta_result
        return train.meta_shot_curve(
            self.meta_records, self.meta_manifest, self.meta_cfg, r.encoder, r.head,
            self.meta_feat, shots=SHOTS, n_runs=SHOT_RUNS,
        )

    def _check_shot(self, curve) -> None:
        if sorted(curve) != list(SHOTS):
            raise CheckFailed("shot curve is missing a shot count")
        if not all(math.isfinite(rep.metrics["auroc"]) for rep in curve.values()):
            raise CheckFailed("shot curve has a non-finite AUROC")

    def report(self, times: dict[str, list[float]]) -> dict:
        return {
            "cada_pairs_per_s": (
                CADA_SOURCE_RECORDS * self.cada_cfg.epochs / _median(times["cada"]), "1/s"
            ),
            "meta_episodes_per_s": (self.episodes / _median(times["meta"]), "1/s"),
            "shot_eval_s": (_median(times["shot"]), "s"),
        }


WORKLOADS = {
    "train-small": TrainSmall,
    "paper-long": PaperLong,
    "split-large": SplitLarge,
    "transfer-small": TransferSmall,
}
