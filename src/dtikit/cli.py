"""Command line front end.

One executable, one subcommand per pipeline step: generate a synthetic
corpus, split a CSV, train a stage, evaluate a checkpoint, rank a candidate
pool, or dump attention maps.  The process is a thin shell around the
library; anything it can do is one import away.

Exit codes are part of the contract so shell pipelines can branch on the
failure mode:

* 0: success
* 2: configuration problem (bad key, bad value, out-of-range flag, bad
  flag combination)
* 3: data problem (unreadable file, malformed CSV or one with no usable
  row, unusable split)
* 4: numeric failure (the loss left the realm of finite numbers)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import ConfigError, RunConfig, load_config, resolve_config
from .datasets import AFFINITY, BINARY, CsvSchema, InteractionRecord, load_interactions_detailed
from .splits import (
    BadManifest,
    SplitManifest,
    check_listing,
    cluster_cross_domain_split,
    cold_pair_split,
    meta_unseen_split,
    random_split,
)
from .synth import MotifRule, SyntheticSpec, TooManyRecords, synth_generate
from .train import (
    EVAL_RUNS,
    Featurizer,
    NumericFailure,
    build_model,
    build_prototype_head,
    check_finite,
    check_shot_curve,
    encode_chunks,
    episode_tasks,
    evaluate,
    meta_shot_curve,
    screen,
    train_adversarial,
    train_meta,
    train_supervised,
)
from .metrics import MetricReport

SPLIT_STRATEGIES = ("random", "cold_pair", "cluster", "meta_protein", "meta_drug")

# Two rules with disjoint motif and marker vocabularies, so the shifted
# corpus has a real covariate gap between its domains.
DOMAIN_SHIFT_RULES = (MotifRule("WWW", "N"), MotifRule("YYY", "O"))


# -- shared plumbing -----------------------------------------------------------


def _load_records(path: str, stage: str, label_col: str | None) -> list[InteractionRecord]:
    """Read the interaction CSV with the label column the stage expects;
    a CSV with no usable row is a data problem."""
    if label_col is None:
        label_col = "affinity" if stage == "regress" else "label"
    kind = AFFINITY if stage == "regress" else BINARY
    result = load_interactions_detailed(path, CsvSchema(label_col=label_col, label_kind=kind))
    if not result.records:
        raise ValueError(f"{path}: no usable row, {len(result.skipped)} skipped")
    return result.records


def _config_overrides(args: argparse.Namespace) -> dict:
    """Collect the flags that shadow config keys, each under its RunConfig
    attribute's name; unset flags, and fields with no flag, stay out."""
    values = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return {name: v for name, v in values.items() if v is not None}


def _resolve(args: argparse.Namespace) -> RunConfig:
    values = load_config(args.config) if getattr(args, "config", None) else {}
    return resolve_config(values, _config_overrides(args))


def _load_run(path: str) -> tuple[RunConfig, bytes]:
    """A trained run is a directory with config.json and best.ckpt; a bare
    checkpoint file works too when its config sits next to it.  A file that
    cannot be read is a data problem naming the path looked for; an invalid
    config.json is a configuration one."""
    p = Path(path)
    if p.is_dir():
        ckpt, cfg_path = p / "best.ckpt", p / "config.json"
    else:
        ckpt, cfg_path = p, p.parent / "config.json"
    blob = ckpt.read_bytes()
    cfg_path.open().close()  # an OSError here exits 3; load_config's would exit 2
    return resolve_config(load_config(cfg_path), {}), blob


def _rebuild(cfg: RunConfig, blob: bytes):
    """Reconstruct the model a checkpoint was trained with: the encoder with
    the stage's head or, for the episodic stage, which has none, the encoder
    and its prototype head.

    Loading is strict, so a checkpoint lacking an entry of the rebuilt model
    (one from another stage, say) is a data error rather than a head left at
    its random initialization.  Extra entries, such as an adversarial run's
    domain critic, are ignored.
    """
    store, encoder = build_model(cfg)
    proto = build_prototype_head(store, cfg) if cfg.head is None else None
    store.load_bytes(blob)
    return encoder, proto


def _load_manifest(path: str, records: list[InteractionRecord]) -> SplitManifest:
    """A split manifest written for these records, or BadManifest.  It lists
    each loaded record once and every task record; its cluster maps cover the
    loaded drugs and proteins, keep a cross-domain split's clusters on one
    side and hold each meta task to its `p{pc}-d{dc}` clusters.  Random and
    cold-pair manifests carry no maps, so only their listing is checked."""
    manifest = check_listing(SplitManifest.load(path), len(records))
    drugs, prots = manifest.drug_clusters, manifest.protein_clusters
    if (drugs or prots) and any(r.drug_id not in drugs or r.protein_id not in prots
                                for r in records):
        raise BadManifest("split manifest has no cluster for a loaded drug or protein")
    keys = [(f"p{prots.get(r.protein_id)}", f"d{drugs.get(r.drug_id)}") for r in records]
    seen = {(k, dom) for i, (dom, _) in manifest.assignments.items() for k in keys[i]}
    if manifest.strategy == "cluster_cross_domain" and len(seen) > len({k for k, _ in seen}):
        raise BadManifest("split manifest puts one cluster in both domains")
    if any("-".join(keys[i]) != tid for tid, t in manifest.tasks.items() for i in t["records"]):
        raise BadManifest("split manifest has a task record outside its task's clusters")
    return manifest


def _pool_indices(records, manifest_path: str | None):
    """Every record, or the test records of the given manifest."""
    if manifest_path is None:
        return list(range(len(records)))
    idxs = _load_manifest(manifest_path, records).indices(None, "test")
    if not idxs:
        raise ValueError("split manifest has no 'test' records")
    return idxs


# -- synth ---------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    if args.records < 1:
        raise ConfigError(f"--records must be at least 1, got {args.records}")
    if not 0.0 <= args.noise <= 1.0:  # NaN fails too
        raise ConfigError(f"--noise is a flip probability in [0, 1], got {args.noise}")
    rules = DOMAIN_SHIFT_RULES if args.domain_shift else (MotifRule("WWW", "N"),)
    spec = SyntheticSpec(
        n_records=args.records,
        noise=args.noise,
        rules=rules,
        domain_shift=args.domain_shift,
    )
    try:
        corpus = synth_generate(spec, args.seed)
    except TooManyRecords as exc:
        raise ConfigError(f"--records: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus.to_csv(out / "corpus.csv")
    corpus.save_manifest(out / "truth.json")
    print(
        f"synth: {len(corpus.records)} records, {spec.n_drugs} drugs, "
        f"{spec.n_proteins} proteins, {corpus.flip_count} labels flipped "
        f"-> {out / 'corpus.csv'}"
    )
    return 0


# -- split ---------------------------------------------------------------------


def cmd_split(args: argparse.Namespace) -> int:
    records = _load_records(args.csv, "vanilla", args.label_col)
    if args.strategy == "random":
        manifest = random_split(records, seed=args.seed)
    elif args.strategy == "cold_pair":
        manifest = cold_pair_split(records, seed=args.seed)
    elif args.strategy == "cluster":
        manifest = cluster_cross_domain_split(records, seed=args.seed)
    else:
        kind = "protein" if args.strategy == "meta_protein" else "drug"
        manifest = meta_unseen_split(records, kind=kind, seed=args.seed)
    manifest.save(args.out)
    counts: dict[str, int] = {}
    for domain, part in manifest.assignments.values():
        key = f"{domain}/{part}"
        counts[key] = counts.get(key, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"split: {args.strategy} over {len(records)} records ({summary}) -> {args.out}")
    return 0


# -- train ---------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    # the stage may come from --config, so argparse cannot check these
    if args.checkpoint and args.no_warm_start:
        raise ConfigError("--checkpoint and --no-warm-start contradict each other")
    if cfg.stage == "meta" and not (args.checkpoint or args.no_warm_start):
        raise ConfigError("--stage meta needs --checkpoint, or --no-warm-start to start from scratch")
    if args.checkpoint and cfg.stage == "cada":
        raise ConfigError("--stage cada trains from scratch and takes no --checkpoint")
    if args.lambda_adv is not None and cfg.stage != "cada":
        raise ConfigError("--lambda applies to --stage cada only")
    meta_only = {"--no-warm-start": args.no_warm_start, "--eval-runs": args.eval_runs is not None,
                 "--k-shot": args.k_shot is not None, "--k-query": args.k_query is not None}
    given = [flag for flag, is_set in meta_only.items() if is_set]
    if given and cfg.stage != "meta":
        raise ConfigError(f"{given[0]} applies to --stage meta only")
    if args.eval_runs is not None:
        check_shot_curve((cfg.k_shot,), args.eval_runs)
    records = _load_records(args.csv, cfg.stage, args.label_col)
    manifest = _load_manifest(args.split_manifest, records)
    if cfg.stage == "meta" and manifest.indices(None, "test"):
        # the report's episodes, refused before training rather than after
        episode_tasks(manifest, "target_test", records, cfg.k_shot, cfg.k_query)
    start = Path(args.checkpoint).read_bytes() if args.checkpoint else None

    if cfg.stage == "meta":
        result = train_meta(
            records, manifest, cfg, out=args.out,
            warm_blob=start, no_warm_start=args.no_warm_start,
        )
    elif cfg.stage == "cada":
        result = train_adversarial(records, manifest, cfg, out=args.out)
    else:
        result = train_supervised(records, manifest, cfg, out=args.out, start_blob=start)

    report = _test_report(
        records, manifest, cfg, result.encoder, result.head, result.featurizer,
        (cfg.k_shot,), args.eval_runs,
    )
    if args.out and report is not None:
        report.save(Path(args.out) / "report.json")
    print(
        f"train[{cfg.stage}]: best epoch {result.best_epoch} "
        f"(selection {result.best_metric:.4f})"
    )
    if report is not None:
        print("test: " + _metric_line(report))
    return 0


def _test_report(records, manifest, cfg, encoder, proto, feat, shots, eval_runs):
    """Held-out numbers for a model, or None when the manifest has no test
    partition.  The episodic stage reports pooled AUROC at each shot count
    in `shots`; the supervised stages evaluate their head on the test pool."""
    test = manifest.indices(None, "test")
    if not test:
        return None
    if cfg.stage == "meta":
        curve = meta_shot_curve(
            records, manifest, cfg, encoder, proto, feat, shots=shots,
            n_runs=EVAL_RUNS if eval_runs is None else eval_runs,
        )
        return MetricReport(
            metrics={f"auroc@{k}": curve[k].metrics["auroc"] for k in shots},
            spread={f"auroc@{k}": curve[k].spread["auroc"] for k in shots},
        )
    return MetricReport(metrics=evaluate(encoder, feat, records, test, cfg.batch_size))


def _metric_line(report: MetricReport) -> str:
    parts = []
    for name in sorted(report.metrics):
        line = f"{name}={report.metrics[name]:.4f}"
        if name in report.spread:
            line += f"+-{report.spread[name]:.4f}"
        parts.append(line)
    return " ".join(parts)


# -- eval ----------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    cfg, blob = _load_run(args.checkpoint)
    if cfg.stage != "meta" and (args.shots is not None or args.eval_runs is not None):
        raise ConfigError("--shots and --eval-runs apply to episodic (meta) runs only")
    try:
        shots = tuple(int(s) for s in args.shots.split(",")) if args.shots else (cfg.k_shot,)
    except ValueError:
        raise ConfigError(f"--shots wants a comma list of integers, got {args.shots!r}") from None
    # before any data is read; an unset --eval-runs keeps the report's valid default
    check_shot_curve(shots, 1 if args.eval_runs is None else args.eval_runs)
    records = _load_records(args.csv, cfg.stage, args.label_col)
    manifest = _load_manifest(args.split_manifest, records)
    encoder, proto = _rebuild(cfg, blob)
    # only the records the report scores
    scored = (manifest.task_records("target_test") if cfg.stage == "meta"
              else manifest.indices(None, "test"))
    feat = Featurizer.build([records[i] for i in scored], cfg.encoder_config().max_seq_len)
    report = _test_report(records, manifest, cfg, encoder, proto, feat, shots, args.eval_runs)
    if report is None:
        raise ValueError("split manifest has no test records")
    if args.out:
        report.save(args.out)
    print(f"eval[{cfg.stage}]: " + _metric_line(report))
    return 0


# -- screen --------------------------------------------------------------------


def cmd_screen(args: argparse.Namespace) -> int:
    if not 0.0 < args.top_fraction <= 1.0:  # NaN fails too
        raise ConfigError(f"--top-fraction must lie in (0, 1], got {args.top_fraction}")
    c_cfg, c_blob = _load_run(args.classifier)
    r_cfg, r_blob = _load_run(args.regressor)
    if c_cfg.head != "classify" or r_cfg.head != "regress":
        raise ConfigError(
            "screen wants a classification run via --classifier and a "
            f"regression run via --regressor, got stages {c_cfg.stage!r} "
            f"and {r_cfg.stage!r}"
        )
    records = _load_records(args.csv, "vanilla", args.label_col)
    idxs = _pool_indices(records, args.split_manifest)
    c_enc, _ = _rebuild(c_cfg, c_blob)
    r_enc, _ = _rebuild(r_cfg, r_blob)
    c_win, r_win = (cfg.encoder_config().max_seq_len for cfg in (c_cfg, r_cfg))
    feats = {w: Featurizer.build([records[i] for i in idxs], w) for w in {c_win, r_win}}
    top, scores = screen(
        records, idxs, (c_enc, feats[c_win], c_cfg.batch_size),
        (r_enc, feats[r_win], r_cfg.batch_size), top_fraction=args.top_fraction,
    )
    lines = ["rank,drug_id,protein_id,score,label"]
    for rank, (i, s) in enumerate(zip(top, scores), start=1):
        r = records[i]
        lines.append(f"{rank},{r.drug_id},{r.protein_id},{s:.6f},{r.label:g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"screen: kept {len(top)} of {len(idxs)} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- export-attention ----------------------------------------------------------


def cmd_export_attention(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit must be at least 0 (0 = all), got {args.limit}")
    cfg, blob = _load_run(args.checkpoint)
    records = _load_records(args.csv, cfg.stage, args.label_col)
    idxs = _pool_indices(records, args.split_manifest)
    if args.limit > 0:
        idxs = idxs[: args.limit]
    encoder, _ = _rebuild(cfg, blob)
    feat = Featurizer.build([records[i] for i in idxs], cfg.encoder_config().max_seq_len)

    entries = [None] * len(idxs)
    with T.no_grad():
        for rows, out in encode_chunks(encoder, feat, records, idxs, cfg.batch_size):
            # a diverged model's maps are not finite either: exit 4, as eval does
            if out.score is not None:
                check_finite(out.score.data, "scores")
            for weights in out.level_weights:
                check_finite(weights, "attention weights")
            for b, j in enumerate(rows):
                rec = records[idxs[j]]
                levels = _attention_summary([w[b] for w in out.level_weights],
                                            len(feat.drugs[rec.smiles][0]),
                                            feat.proteins[rec.sequence][1])
                entries[j] = {"drug_id": rec.drug_id, "protein_id": rec.protein_id,
                              "levels": levels}
            del out  # before the next slice computes
    payload = json.dumps(entries, indent=1, sort_keys=True) + "\n"
    Path(args.out).write_text(payload)
    print(f"export-attention: {len(entries)} records -> {args.out}")
    return 0


def _attention_summary(attention: list[np.ndarray], n_atoms: int, true_len: int) -> dict:
    """Per-level importance profiles from one pair's raw bilinear maps
    [heads, M, L], cropped to its atoms and to the columns its residues
    reach.

    Atom importance sums each map over heads and residue columns.  Residue
    columns live on a sequence axis pooled by 2 at every level, so each
    column's weight is spread back over the residue span it covers before
    cropping to the real sequence length.  The top lists hold the indices
    of the strongest fifth on each side, ordered strongest first.
    """
    levels = {}
    for lvl, maps in enumerate(attention):
        stride = 2 ** (lvl + 1)
        maps = maps[:, :n_atoms, : -(-true_len // stride)]
        atom_scores = maps.sum(axis=(0, 2))
        col_scores = maps.sum(axis=(0, 1))
        residue_scores = np.repeat(col_scores / stride, stride)[:true_len]
        levels[str(lvl)] = {
            "atom_scores": _rounded(atom_scores),
            "residue_scores": _rounded(residue_scores),
            "top20_atoms": _top_fifth(atom_scores),
            "top20_residues": _top_fifth(residue_scores),
        }
    return levels


def _rounded(scores: np.ndarray) -> list[float]:
    return [round(float(s), 6) for s in scores]


def _top_fifth(scores: np.ndarray) -> list[int]:
    """Indices of the highest fifth by the scores as `_rounded` prints them;
    scores that print alike rank in index order."""
    k = int(np.ceil(0.2 * scores.shape[0]))
    order = np.argsort(-np.array(_rounded(scores)), kind="stable")
    return [int(i) for i in order[:k]]


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtikit",
        description="drug-target interaction pipeline: data, training, screening",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file of dotted keys")
        p.add_argument("--seed", type=int, help="run seed (overrides config)")
        p.add_argument("--preset", dest="model_preset", choices=("paper", "small"),
                       help="model size preset")
        p.add_argument("--max-seq-len", type=int, help="protein window override")

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--records", type=int, default=2000)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--domain-shift", action="store_true",
                   help="partition entity families into two rule vocabularies")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write a split manifest for a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--strategy", required=True, choices=SPLIT_STRATEGIES)
    p.add_argument("--out", required=True, help="manifest JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label-col", help="label column name")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one pipeline stage")
    p.add_argument("--csv", required=True)
    p.add_argument("--split-manifest", required=True)
    p.add_argument("--stage", choices=("vanilla", "cada", "meta", "regress"))
    p.add_argument("--out", help="run directory for artifacts")
    p.add_argument("--checkpoint", help="warm-start checkpoint")
    p.add_argument("--no-warm-start", action="store_true",
                   help="let the episodic stage start from scratch")
    p.add_argument("--lambda", dest="lambda_adv", type=float,
                   help="adversarial loss weight")
    p.add_argument("--k-shot", type=int, help="support size per class")
    p.add_argument("--k-query", type=int, help="query size per class")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--label-col", help="label column name")
    p.add_argument("--eval-runs", type=int,
                   help=f"episodic evaluation repeats (meta; default {EVAL_RUNS})")
    common_model(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run on held-out data")
    p.add_argument("--csv", required=True)
    p.add_argument("--split-manifest", required=True)
    p.add_argument("--checkpoint", required=True,
                   help="run directory or checkpoint file")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--shots", help="comma list of shot counts (meta runs)")
    p.add_argument("--eval-runs", type=int,
                   help=f"episodic evaluation repeats (meta; default {EVAL_RUNS})")
    p.add_argument("--label-col", help="label column name")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("screen", help="rank a candidate pool with two trained runs")
    p.add_argument("--csv", required=True)
    p.add_argument("--split-manifest", help="restrict the pool to test records")
    p.add_argument("--classifier", required=True, help="classification run directory")
    p.add_argument("--regressor", required=True, help="regression run directory")
    p.add_argument("--out", help="ranked CSV path (stdout when omitted)")
    p.add_argument("--top-fraction", type=float, default=0.1)
    p.add_argument("--label-col", help="label column name")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("export-attention",
                       help="dump per-level attention profiles as JSON")
    p.add_argument("--csv", required=True)
    p.add_argument("--checkpoint", required=True,
                   help="run directory or checkpoint file")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--split-manifest", help="restrict to test records")
    p.add_argument("--limit", type=int, default=0, help="cap record count (0 = all)")
    p.add_argument("--label-col", help="label column name")
    p.set_defaults(func=cmd_export_attention)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
