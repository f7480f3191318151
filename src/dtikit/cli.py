"""Command line front end.

One executable, one subcommand per pipeline step: generate a synthetic
corpus, split a CSV, precompute entity features, train a stage, evaluate a
checkpoint, rank a candidate pool, or dump attention maps.  The process is
a thin shell around the library; anything it can do is one import away.

Exit codes are part of the contract so shell pipelines can branch on the
failure mode:

* 0: success
* 2: configuration problem (bad key, bad value, bad flag combination)
* 3: data problem (unreadable file, malformed CSV, unusable split)
* 4: numeric failure (the loss left the realm of finite numbers)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import ConfigError, RunConfig, load_config, resolve_config
from .datasets import CsvSchema, InteractionRecord, load_interactions
from .fewshot import PrototypeHead
from .rng import substream
from .splits import (
    SplitManifest,
    cluster_cross_domain_split,
    cold_pair_split,
    meta_unseen_split,
    random_split,
)
from .synth import MotifRule, SyntheticSpec, synth_generate
from .train import (
    Featurizer,
    MissingCheckpoint,
    NumericFailure,
    build_model,
    encode_pairs,
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


def _say(msg: str) -> None:
    print(msg)


def _load_records(path: str, stage: str, label_col: str | None) -> list[InteractionRecord]:
    """Read the interaction CSV with the label column the stage expects."""
    if label_col is None:
        label_col = "affinity" if stage == "regress" else "label"
    kind = "real" if stage == "regress" else "binary"
    schema = CsvSchema(label_col=label_col, label_kind=kind)
    return load_interactions(path, schema)


def _config_overrides(args: argparse.Namespace) -> dict:
    """Collect the flags that shadow config keys; unset flags stay out."""
    pairs = {
        "stage": getattr(args, "stage", None),
        "seed": getattr(args, "seed", None),
        "lambda_adv": getattr(args, "lambda_adv", None),
        "epochs": getattr(args, "epochs", None),
        "lr": getattr(args, "lr", None),
        "batch_size": getattr(args, "batch_size", None),
        "k_shot": getattr(args, "k_shot", None),
        "k_query": getattr(args, "k_query", None),
        "model_preset": getattr(args, "preset", None),
        "max_seq_len": getattr(args, "max_seq_len", None),
    }
    return {k: v for k, v in pairs.items() if v is not None}


def _resolve(args: argparse.Namespace) -> RunConfig:
    values = load_config(args.config) if getattr(args, "config", None) else {}
    return resolve_config(values, _config_overrides(args))


def _load_run(path: str) -> tuple[RunConfig, bytes]:
    """A trained run is a directory with config.json and best.ckpt; a bare
    checkpoint file works too when its config sits next to it."""
    p = Path(path)
    if p.is_dir():
        ckpt, cfg_path = p / "best.ckpt", p / "config.json"
    else:
        ckpt, cfg_path = p, p.parent / "config.json"
    cfg = resolve_config(load_config(cfg_path), {})
    return cfg, ckpt.read_bytes()


def _rebuild(cfg: RunConfig, blob: bytes):
    """Reconstruct the model a checkpoint was trained with.

    The head set follows the stage; loading is non-strict because an
    adversarial checkpoint also carries the domain critic, which the
    evaluation model does not rebuild.
    """
    if cfg.stage == "regress":
        heads: tuple = ("regress",)
    elif cfg.stage == "meta":
        heads = ()
    else:
        heads = ("classify",)
    store, encoder = build_model(cfg, heads=heads)
    head = None
    if cfg.stage == "meta":
        enc_cfg = cfg.encoder_config()
        head = PrototypeHead(
            store,
            substream(cfg.seed, "model.proto"),
            feature_dim=enc_cfg.fused_dim,
            qk_dim=enc_cfg.gau_qk_dim,
            uniform_attention=cfg.uniform_attention,
            alpha=cfg.focal_alpha,
            gamma=cfg.focal_gamma,
        )
    store.load_bytes(blob, strict=False)
    return store, encoder, head


def _pool_indices(records, manifest_path: str | None, partition: str = "test"):
    if manifest_path is None:
        return list(range(len(records)))
    manifest = SplitManifest.load(manifest_path)
    idxs = manifest.indices(None, partition)
    if not idxs:
        raise ValueError(f"split manifest has no {partition!r} records")
    return idxs


# -- synth ---------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    rules = DOMAIN_SHIFT_RULES if args.domain_shift else (MotifRule("WWW", "N"),)
    spec = SyntheticSpec(
        n_records=args.records,
        noise=args.noise,
        rules=rules,
        domain_shift=args.domain_shift,
    )
    corpus = synth_generate(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus.to_csv(out / "corpus.csv")
    corpus.save_manifest(out / "truth.json")
    _say(
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
    _say(f"split: {args.strategy} over {len(records)} records ({summary}) -> {args.out}")
    return 0


# -- featurize -----------------------------------------------------------------


def cmd_featurize(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    records = _load_records(args.csv, "vanilla", args.label_col)
    feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)
    by_drug = {r.drug_id: r.smiles for r in records}
    by_protein = {r.protein_id: r.sequence for r in records}
    arrays: dict[str, np.ndarray] = {
        "drug_ids": np.array(sorted(by_drug), dtype=str),
        "protein_ids": np.array(sorted(by_protein), dtype=str),
    }
    for did in sorted(by_drug):
        feats, adj = feat.drugs[by_drug[did]]
        arrays[f"drug:{did}:features"] = feats
        arrays[f"drug:{did}:adjacency"] = adj
    for pid in sorted(by_protein):
        ids, true_len = feat.proteins[by_protein[pid]]
        arrays[f"protein:{pid}:tokens"] = ids
        arrays[f"protein:{pid}:length"] = np.array(true_len)
    np.savez(args.out, **arrays)
    _say(
        f"featurize: {len(by_drug)} drugs, {len(by_protein)} proteins "
        f"-> {args.out}"
    )
    return 0


# -- train ---------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    records = _load_records(args.csv, cfg.stage, args.label_col)
    manifest = SplitManifest.load(args.split_manifest)

    if cfg.stage == "meta":
        warm = Path(args.checkpoint).read_bytes() if args.checkpoint else None
        result = train_meta(
            records, manifest, cfg, out=args.out,
            warm_blob=warm, no_warm_start=args.no_warm_start,
        )
    elif cfg.stage == "cada":
        result = train_adversarial(records, manifest, cfg, out=args.out)
    else:
        head = "regress" if cfg.stage == "regress" else "classify"
        start = Path(args.checkpoint).read_bytes() if args.checkpoint else None
        result = train_supervised(
            records, manifest, cfg, out=args.out, head=head, start_blob=start,
        )

    report = _final_report(records, manifest, cfg, result, args.eval_runs)
    if args.out and report is not None:
        report.save(Path(args.out) / "report.json")
    _say(
        f"train[{cfg.stage}]: best epoch {result.best_epoch} "
        f"(selection {result.best_metric:.4f})"
    )
    if report is not None:
        _say("test: " + _metric_line(report))
    return 0


def _final_report(records, manifest, cfg, result, eval_runs) -> MetricReport | None:
    """Held-out numbers for the freshly trained model, if a test pool exists."""
    test = manifest.indices(None, "test")
    if not test:
        return None
    if cfg.stage == "meta":
        curve = meta_shot_curve(
            records, manifest, cfg, result.encoder, result.head,
            result.featurizer, shots=(cfg.k_shot,), n_runs=eval_runs,
        )
        rep = curve[cfg.k_shot]
        return MetricReport(
            metrics={f"auroc@{cfg.k_shot}": rep.metrics["auroc"]},
            spread={f"auroc@{cfg.k_shot}": rep.spread["auroc"]},
        )
    head = "regress" if cfg.stage == "regress" else "classify"
    return MetricReport(
        metrics=evaluate(result.encoder, result.featurizer, records, test, head=head)
    )


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
    records = _load_records(args.csv, cfg.stage, args.label_col)
    manifest = SplitManifest.load(args.split_manifest)
    _, encoder, proto = _rebuild(cfg, blob)
    feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)

    if cfg.stage == "meta":
        shots = tuple(int(s) for s in args.shots.split(",")) if args.shots \
            else (cfg.k_shot,)
        curve = meta_shot_curve(
            records, manifest, cfg, encoder, proto, feat,
            shots=shots, n_runs=args.eval_runs,
        )
        report = MetricReport(
            metrics={f"auroc@{k}": curve[k].metrics["auroc"] for k in shots},
            spread={f"auroc@{k}": curve[k].spread["auroc"] for k in shots},
        )
    else:
        test = manifest.indices(None, "test")
        if not test:
            raise ValueError("split manifest has no test records")
        head = "regress" if cfg.stage == "regress" else "classify"
        report = MetricReport(metrics=evaluate(encoder, feat, records, test, head=head))

    if args.out:
        report.save(args.out)
    _say(f"eval[{cfg.stage}]: " + _metric_line(report))
    return 0


# -- screen --------------------------------------------------------------------


def cmd_screen(args: argparse.Namespace) -> int:
    c_cfg, c_blob = _load_run(args.classifier)
    r_cfg, r_blob = _load_run(args.regressor)
    if c_cfg.stage == "regress" or r_cfg.stage != "regress":
        raise ConfigError(
            "screen wants a classification run via --classifier and a "
            f"regression run via --regressor, got stages {c_cfg.stage!r} "
            f"and {r_cfg.stage!r}"
        )
    records = _load_records(args.csv, "vanilla", args.label_col)
    idxs = _pool_indices(records, args.split_manifest)
    _, c_enc, _ = _rebuild(c_cfg, c_blob)
    _, r_enc, _ = _rebuild(r_cfg, r_blob)
    c_feat = Featurizer.build(records, c_cfg.encoder_config().max_seq_len)
    r_feat = Featurizer.build(records, r_cfg.encoder_config().max_seq_len)
    top, scores = screen(
        records, idxs, (c_enc, c_feat), (r_enc, r_feat),
        top_fraction=args.top_fraction,
    )
    lines = ["rank,drug_id,protein_id,score,label"]
    for rank, (i, s) in enumerate(zip(top, scores), start=1):
        r = records[i]
        lines.append(f"{rank},{r.drug_id},{r.protein_id},{s:.6f},{r.label:g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        _say(f"screen: kept {len(top)} of {len(idxs)} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- export-attention ----------------------------------------------------------


def cmd_export_attention(args: argparse.Namespace) -> int:
    cfg, blob = _load_run(args.checkpoint)
    records = _load_records(args.csv, cfg.stage, args.label_col)
    idxs = _pool_indices(records, args.split_manifest)
    if args.limit > 0:
        idxs = idxs[: args.limit]
    _, encoder, _ = _rebuild(cfg, blob)
    feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)

    with T.no_grad():
        outputs = encode_pairs(encoder, feat, records, idxs, None)
    entries = []
    for i, out in zip(idxs, outputs):
        rec = records[i]
        ids, true_len = feat.proteins[rec.sequence]
        entries.append(
            {
                "drug_id": rec.drug_id,
                "protein_id": rec.protein_id,
                "levels": _attention_summary(out.attention, min(true_len, ids.shape[0])),
            }
        )
    payload = json.dumps(entries, indent=1, sort_keys=True) + "\n"
    Path(args.out).write_text(payload)
    _say(f"export-attention: {len(entries)} records -> {args.out}")
    return 0


def _attention_summary(attention: list[np.ndarray], true_len: int) -> dict:
    """Per-level importance profiles from the raw bilinear maps.

    Atom importance sums each map over heads and residue columns.  Residue
    columns live on a sequence axis pooled by 2 at every level, so each
    column's weight is spread back over the residue span it covers before
    cropping to the real sequence length.  The top lists hold the indices
    of the strongest fifth on each side, ordered strongest first.
    """
    levels = {}
    for lvl, maps in enumerate(attention):
        atom_scores = maps.sum(axis=(0, 2))
        col_scores = maps.sum(axis=(0, 1))
        stride = 2 ** (lvl + 1)
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
    k = int(np.ceil(0.2 * scores.shape[0]))
    order = np.argsort(-scores, kind="stable")
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
        p.add_argument("--preset", choices=("paper", "small"), help="model size preset")
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

    p = sub.add_parser("featurize", help="precompute entity input arrays")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True, help="output .npz path")
    p.add_argument("--label-col", help="label column name")
    common_model(p)
    p.set_defaults(func=cmd_featurize)

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
    p.add_argument("--eval-runs", type=int, default=5,
                   help="episodic evaluation repeats for the final report")
    common_model(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run on held-out data")
    p.add_argument("--csv", required=True)
    p.add_argument("--split-manifest", required=True)
    p.add_argument("--checkpoint", required=True,
                   help="run directory or checkpoint file")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--shots", help="comma list of shot counts (episodic runs)")
    p.add_argument("--eval-runs", type=int, default=5)
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
