"""Command line surface: artifacts, round trips, exit codes.

The commands run in-process through cli.main, on a small corpus and model,
with run directories shared across tests where that saves a training run.
"""

import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dtikit import cli
from dtikit.config import resolve_config
from dtikit.datasets import load_interactions, load_interactions_detailed
from dtikit.encoder import DTIEncoder
from dtikit.metrics import MetricReport
from dtikit.optim import ParameterStore, read_checkpoint
from dtikit.splits import BadManifest, SplitManifest, random_split
from dtikit.train import Featurizer, build_model, train_adversarial, train_meta, train_supervised

SMALL = ["--preset", "small", "--max-seq-len", "48", "--seed", "0"]


def with_target_train_task(manifest: dict, records) -> dict:
    """The manifest payload with its first target-train task's record list
    replaced by `records(old list)`."""
    tasks = manifest["tasks"]
    tid = min(t for t, info in tasks.items() if info["pool"] == "target_train")
    task = {**tasks[tid], "records": records(tasks[tid]["records"])}
    return {**manifest, "tasks": {**tasks, tid: task}}


FEATURIZER_BUILD = Featurizer.build.__func__


def featurize_spy(monkeypatch, every=None) -> list[int]:
    """Record how many records each `Featurizer.build` is handed; with
    `every`, build over those records instead, as if the caller had passed
    the whole CSV."""
    counts = []

    def spy(cls, records, max_seq_len):
        counts.append(len(records))
        return FEATURIZER_BUILD(cls, records if every is None else every, max_seq_len)

    monkeypatch.setattr(Featurizer, "build", classmethod(spy))
    return counts


def write_checkpoint(path: Path, entries: dict) -> None:
    """Write arrays, keyed by entry path, as a checkpoint file."""
    store = ParameterStore()
    for name, values in entries.items():
        store.parameter(name, values)
    path.write_bytes(store.save_bytes())


def report_means(path) -> dict:
    """Metric name -> mean of a saved MetricReport."""
    return {k: v["mean"] for k, v in json.loads(Path(path).read_text()).items()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus, manifests, and one trained run per supervised stage."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data), "--seed", "0",
                     "--records", "300"]) == 0
    csv = str(data / "corpus.csv")
    split = str(root / "random.json")
    assert cli.main(["split", "--csv", csv, "--strategy", "random",
                     "--out", split, "--seed", "0"]) == 0
    run = str(root / "vanilla")
    assert cli.main(["train", "--csv", csv, "--split-manifest", split,
                     "--stage", "vanilla", "--epochs", "2", "--lr", "1e-3",
                     "--out", run, *SMALL]) == 0
    reg = str(root / "regress")
    assert cli.main(["train", "--csv", csv, "--split-manifest", split,
                     "--stage", "regress", "--epochs", "2", "--lr", "1e-3",
                     "--out", reg, *SMALL]) == 0
    return {"root": root, "csv": csv, "split": split, "run": run, "reg": reg}


@pytest.fixture(scope="module")
def meta_run(workdir):
    """A short episodic run on a meta split, for the episodic eval flags."""
    root = workdir["root"]
    split = str(root / "meta_protein.json")
    assert cli.main(["split", "--csv", workdir["csv"], "--strategy", "meta_protein",
                     "--out", split]) == 0
    short = root / "short_meta.json"
    short.write_text('{"meta.episodes_per_epoch": 4, "meta.eval_episodes": 4}')
    run = str(root / "meta")
    assert cli.main(["train", "--csv", workdir["csv"], "--split-manifest", split,
                     "--stage", "meta", "--no-warm-start", "--epochs", "1",
                     "--eval-runs", "1", "--config", str(short), "--out", run,
                     *SMALL]) == 0
    return {"split": split, "run": run}


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["synth", "--out", str(out), "--seed", "3",
                             "--records", "80"]) == 0
        assert (a / "corpus.csv").read_bytes() == (b / "corpus.csv").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_different_seed_different_corpus(self, tmp_path, workdir):
        other = tmp_path / "other"
        assert cli.main(["synth", "--out", str(other), "--seed", "9",
                         "--records", "300"]) == 0
        ours = (workdir["root"] / "data" / "corpus.csv").read_bytes()
        assert (other / "corpus.csv").read_bytes() != ours


class TestSplit:
    def test_manifest_loads_and_covers_corpus(self, workdir):
        manifest = SplitManifest.load(workdir["split"])
        assert sorted(manifest.assignments) == list(range(300))

    def test_every_strategy_runs(self, workdir, tmp_path):
        for strategy in ("cold_pair", "cluster", "meta_protein", "meta_drug"):
            out = tmp_path / f"{strategy}.json"
            code = cli.main(["split", "--csv", workdir["csv"],
                             "--strategy", strategy, "--out", str(out)])
            assert code == 0, strategy
            SplitManifest.load(out)


    def test_shared_and_padded_sequences_split(self, workdir, tmp_path):
        # P0001 repeats P0000's sequence and P0002 adds a non-canonical X
        # to it: equal compositions whose cosine distance rounds below 0
        with open(workdir["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        base = next(r["sequence"] for r in rows if r["protein_id"] == "P0000")
        for r in rows:
            r["sequence"] = {"P0001": base, "P0002": base + "X"}.get(r["protein_id"], r["sequence"])
        path = tmp_path / "shared.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        for strategy in ("cluster", "meta_protein"):
            out = tmp_path / f"{strategy}.json"
            assert cli.main(["split", "--csv", str(path), "--strategy", strategy,
                             "--out", str(out)]) == 0, strategy
            clusters = SplitManifest.load(out).protein_clusters
            assert clusters["P0000"] == clusters["P0001"] == clusters["P0002"]

    def test_rows_with_a_missing_or_conflicting_id_are_skipped(self, workdir, tmp_path, caplog):
        """A row shorter than its header and one whose drug id already names
        another SMILES are skipped rows, so each id clusters by one SMILES."""
        with open(workdir["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        other = next(r["smiles"] for r in rows if r["smiles"] != rows[0]["smiles"])
        path = tmp_path / "ids.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["smiles", "sequence", "label", "drug_id",
                                                    "protein_id"], extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
            writer.writerow({**rows[0], "smiles": other})
            fh.write("CCO,ACDEFG,1\r\n")
        for strategy in ("random", "cluster"):
            out = tmp_path / f"{strategy}.json"
            caplog.clear()
            assert cli.main(["split", "--csv", str(path), "--strategy", strategy,
                             "--out", str(out)]) == 0, strategy
            manifest = SplitManifest.load(out)
            assert len(manifest.assignments) + len(manifest.dropped) == 300
            skipped = [r.getMessage() for r in caplog.records if "skipped row" in r.getMessage()]
            assert len(skipped) == 2
            assert skipped[0].startswith("skipped row 302: drug_id")
            assert skipped[1] == "skipped row 303: empty drug_id"


    def test_a_byte_order_mark_changes_nothing(self, workdir, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark loads the same records
        and skipped rows as the plain file, and splits to the same bytes."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(Path(workdir["csv"]).read_bytes() + b"D9,P9,C1CC,MKVLAA,1\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        loaded = [load_interactions_detailed(p) for p in (plain, marked)]
        assert len(loaded[0].skipped) == 1
        assert loaded[0] == loaded[1]
        manifests = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}.json"
            assert cli.main(["split", "--csv", str(path), "--strategy", "cluster",
                             "--out", str(out)]) == 0
            manifests.append(out.read_bytes())
        assert manifests[0] == manifests[1]


class TestTrainEval:
    def test_run_directory_artifacts(self, workdir):
        root = workdir["root"] / "vanilla"
        for name in ("config.json", "metrics.jsonl", "best.ckpt",
                     "split_manifest.sha256", "report.json"):
            assert (root / name).exists(), name
        cfg = json.loads((root / "config.json").read_text())
        assert cfg["stage"] == "vanilla"
        assert cfg["model.preset"] == "small"
        # each stage reads its own label column: the 0/1 labels or the affinities
        with open(workdir["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        for stage, col in (("vanilla", "label"), ("regress", "affinity")):
            records = cli._load_records(workdir["csv"], stage, None)
            assert [r.label for r in records] == [float(row[col]) for row in rows]

    def test_eval_reproduces_the_training_report(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--checkpoint", workdir["run"],
                         "--out", str(out)]) == 0
        assert report_means(out) == report_means(workdir["root"] / "vanilla" / "report.json")

    def test_eval_accepts_the_checkpoint_file(self, workdir, tmp_path):
        """A bare best.ckpt path reads the config.json beside it."""
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--checkpoint", workdir["run"] + "/best.ckpt",
                         "--out", str(out)]) == 0
        assert report_means(out) == report_means(workdir["root"] / "vanilla" / "report.json")

    @pytest.mark.parametrize("stage", ["vanilla", "regress", "cada", "meta"])
    def test_library_run_directory_evaluates(self, workdir, meta_run, tmp_path, stage):
        """A run directory written by the library entry point that trains the
        stage holds the head its config snapshot names, so eval accepts it."""
        split = {"meta": meta_run["split"], "cada": str(tmp_path / "cluster.json")}.get(
            stage, workdir["split"]
        )
        if stage == "cada":
            assert cli.main(["split", "--csv", workdir["csv"], "--strategy", "cluster",
                             "--out", split]) == 0
        train, kwargs = {
            "cada": (train_adversarial, {}), "meta": (train_meta, {"no_warm_start": True}),
        }.get(stage, (train_supervised, {}))
        cfg = resolve_config({}, {
            "stage": stage, "model_preset": "small", "max_seq_len": 48, "epochs": 1,
            "lr": 1e-3, "episodes_per_epoch": 4, "eval_episodes": 4,
        })
        run = tmp_path / "run"
        records = cli._load_records(workdir["csv"], stage, None)
        train(records, SplitManifest.load(split), cfg, out=run, **kwargs)
        assert cli.main(["eval", "--csv", workdir["csv"], "--split-manifest", split,
                         "--checkpoint", str(run)]) == 0

    def test_meta_stage_round_trip(self, workdir, tmp_path):
        split = tmp_path / "meta.json"
        assert cli.main(["split", "--csv", workdir["csv"],
                         "--strategy", "meta_protein", "--out", str(split)]) == 0
        run = tmp_path / "meta"
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", str(split), "--stage", "meta",
                         "--epochs", "1", "--eval-runs", "2",
                         "--checkpoint", str(workdir["root"] / "vanilla" / "best.ckpt"),
                         "--out", str(run), *SMALL])
        assert code == 0
        assert "auroc@5" in report_means(run / "report.json")
        out = tmp_path / "curve.json"
        assert cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", str(split),
                         "--checkpoint", str(run), "--shots", "1,3",
                         "--eval-runs", "2", "--out", str(out)]) == 0
        assert set(report_means(out)) == {"auroc@1", "auroc@3"}


class TestScreen:
    def test_ranked_csv_shape(self, workdir, tmp_path):
        out = tmp_path / "ranked.csv"
        assert cli.main(["screen", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--classifier", workdir["run"],
                         "--regressor", workdir["reg"],
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,drug_id,protein_id,score,label"
        assert len(lines) - 1 == int(np.ceil(0.1 * 60))
        scores = [float(line.split(",")[3]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_without_out_the_ranking_goes_to_stdout(self, workdir, tmp_path, capsys):
        out = tmp_path / "ranked.csv"
        args = ["screen", "--csv", workdir["csv"], "--split-manifest", workdir["split"],
                "--classifier", workdir["run"], "--regressor", workdir["reg"]]
        assert cli.main([*args, "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_swapped_runs_are_a_config_error(self, workdir, meta_run):
        """Each run must carry the head its role reads; an episodic run has
        none."""
        for classifier, regressor in ((workdir["reg"], workdir["run"]),
                                      (meta_run["run"], workdir["reg"])):
            code = cli.main(["screen", "--csv", workdir["csv"],
                             "--classifier", classifier, "--regressor", regressor])
            assert code == 2, classifier

    def test_inference_runs_each_runs_batch_size_at_a_time(self, workdir, tmp_path, monkeypatch):
        runs = {}
        for stage in ("vanilla", "regress"):
            runs[stage] = str(tmp_path / stage)
            assert cli.main(["train", "--csv", workdir["csv"], "--split-manifest",
                             workdir["split"], "--stage", stage, "--epochs", "1",
                             "--batch-size", "4", "--out", runs[stage], *SMALL]) == 0
        sizes = []
        interact = DTIEncoder.interact

        def spy(self, d_levels, d_mask, p_levels, d_idx, *args, **kw):
            sizes.append(len(d_idx))
            return interact(self, d_levels, d_mask, p_levels, d_idx, *args, **kw)

        monkeypatch.setattr(DTIEncoder, "interact", spy)
        assert cli.main(["screen", "--csv", workdir["csv"], "--split-manifest", workdir["split"],
                         "--classifier", runs["vanilla"], "--regressor", runs["regress"],
                         "--out", str(tmp_path / "ranked.csv")]) == 0
        assert sum(sizes) == 2 * 60 and max(sizes) == 4


class TestPaperPreset:
    """The paper preset, which trains and computes in float32 and writes
    float64 checkpoints, through every command that trains or reads a run."""

    def test_round_trip(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--seed", "0", "--records", "80"]) == 0
        corpus = str(data / "corpus.csv")
        split = str(tmp_path / "random.json")
        assert cli.main(["split", "--csv", corpus, "--strategy", "random",
                         "--out", split, "--seed", "0"]) == 0
        paper = ["--preset", "paper", "--max-seq-len", "48", "--seed", "0", "--epochs", "1"]
        runs = {name: tmp_path / name for name in ("vanilla", "rerun", "regress")}
        for name, run in runs.items():
            stage = "regress" if name == "regress" else "vanilla"
            assert cli.main(["train", "--csv", corpus, "--split-manifest", split,
                             "--stage", stage, "--out", str(run), *paper]) == 0
        for name in ("best.ckpt", "metrics.jsonl"):
            assert (runs["vanilla"] / name).read_bytes() == (runs["rerun"] / name).read_bytes()
        for line in (runs["vanilla"] / "metrics.jsonl").read_text().splitlines():
            assert "val_auroc" in json.loads(line)

        blob = (runs["vanilla"] / "best.ckpt").read_bytes()
        assert all(v.dtype == np.float64 for v in read_checkpoint(blob).values())
        cfg = resolve_config(json.loads((runs["vanilla"] / "config.json").read_text()), {})
        store, _ = build_model(cfg)
        assert store.dtype == np.float32
        store.load_bytes(blob)
        assert store.save_bytes() == blob

        report = tmp_path / "report.json"
        assert cli.main(["eval", "--csv", corpus, "--split-manifest", split,
                         "--checkpoint", str(runs["vanilla"]), "--out", str(report)]) == 0
        assert "auroc" in report_means(report)
        ranked = tmp_path / "ranked.csv"
        assert cli.main(["screen", "--csv", corpus, "--split-manifest", split,
                         "--classifier", str(runs["vanilla"]),
                         "--regressor", str(runs["regress"]), "--out", str(ranked)]) == 0
        with open(ranked, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(np.isfinite(float(r["score"])) for r in rows)
        maps = tmp_path / "maps.json"
        assert cli.main(["export-attention", "--csv", corpus, "--checkpoint", str(runs["vanilla"]),
                         "--limit", "3", "--out", str(maps)]) == 0
        entries = json.loads(maps.read_text())
        assert len(entries) == 3 and all(len(e["levels"]) == 3 for e in entries)
        # a value finite in float64 but beyond float32's range is a data error
        huge = read_checkpoint(blob)
        huge[next(iter(huge))].flat[0] = 1e39
        write_checkpoint(runs["rerun"] / "best.ckpt", huge)
        assert cli.main(["eval", "--csv", corpus, "--split-manifest", split,
                         "--checkpoint", str(runs["rerun"])]) == 3


class TestExportAttention:
    def test_profiles_have_expected_shapes(self, workdir, tmp_path):
        out = tmp_path / "attn.json"
        assert cli.main(["export-attention", "--csv", workdir["csv"],
                         "--checkpoint", workdir["run"],
                         "--split-manifest", workdir["split"],
                         "--limit", "3", "--out", str(out)]) == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 3
        for entry in entries:
            assert set(entry) == {"drug_id", "protein_id", "levels"}
            for level in entry["levels"].values():
                atoms = level["atom_scores"]
                residues = level["residue_scores"]
                assert len(level["top20_atoms"]) == int(np.ceil(0.2 * len(atoms)))
                assert len(level["top20_residues"]) == int(
                    np.ceil(0.2 * len(residues))
                )
                best = max(range(len(atoms)), key=lambda i: atoms[i])
                assert level["top20_atoms"][0] == best

    def test_top_fifth_ranks_printed_ties_by_index(self):
        """Scores equal at the six printed decimals rank by index, not by
        their last bits."""
        tie = 0.5 + 1e-15
        assert round(tie, 6) == 0.5 and tie != 0.5
        assert cli._top_fifth(np.array([0.25, tie, 0.5, 0.1, 0.0])) == [1]
        assert cli._top_fifth(np.array([0.25, 0.5, tie, 0.1, 0.0])) == [1]
        scores = np.array([0.5 - 1e-15, 0.3, 0.5, 0.2, 0.3 + 1e-15, 0.1, 0.0, 0.0, 0.0, 0.0])
        assert cli._top_fifth(scores) == [0, 2]

    def test_slicing_never_shows_in_the_export(self, workdir, tmp_path):
        """The run's batch size cuts the inference slices; at 1, every
        protein's records spread over slices of their own, at 64 most share
        one, and the export keeps every byte."""
        exports = []
        for batch_size in (1, 64):
            run = tmp_path / f"batch{batch_size}"
            shutil.copytree(workdir["run"], run)
            snapshot = json.loads((run / "config.json").read_text())
            snapshot["train.batch_size"] = batch_size
            (run / "config.json").write_text(json.dumps(snapshot, indent=1, sort_keys=True))
            out = tmp_path / f"attn{batch_size}.json"
            assert cli.main(["export-attention", "--csv", workdir["csv"],
                             "--checkpoint", str(run), "--out", str(out)]) == 0
            exports.append(out.read_bytes())
        assert exports[0] == exports[1]
        assert len(json.loads(exports[0])) == 300

    def test_level_count_matches_model_depth(self, workdir, tmp_path):
        out = tmp_path / "attn.json"
        cli.main(["export-attention", "--csv", workdir["csv"],
                  "--checkpoint", workdir["run"], "--limit", "1",
                  "--out", str(out)])
        entries = json.loads(out.read_text())
        assert sorted(entries[0]["levels"]) == ["0", "1", "2"]


class TestFeaturizedRecords:
    """`eval` and episodic training featurize only the records they read,
    and their reports keep the bytes of featurizing the whole CSV."""

    @pytest.fixture(scope="class")
    def corpus600(self, workdir):
        root = workdir["root"] / "corpus600"
        assert cli.main(["synth", "--out", str(root), "--seed", "0", "--records", "600"]) == 0
        data = {"csv": str(root / "corpus.csv")}
        for strategy in ("random", "meta_protein"):
            data[strategy] = str(root / f"{strategy}.json")
            assert cli.main(["split", "--csv", data["csv"], "--strategy", strategy,
                             "--out", data[strategy], "--seed", "0"]) == 0
        data["records"] = cli._load_records(data["csv"], "vanilla", None)
        return data

    def test_eval_featurizes_only_the_test_partition(self, workdir, corpus600, tmp_path,
                                                     monkeypatch):
        args = ["eval", "--csv", corpus600["csv"], "--split-manifest", corpus600["random"],
                "--checkpoint", workdir["run"], "--out"]
        featurize_spy(monkeypatch, every=corpus600["records"])
        assert cli.main([*args, str(tmp_path / "every.json")]) == 0
        counts = featurize_spy(monkeypatch)
        assert cli.main([*args, str(tmp_path / "test.json")]) == 0
        assert counts == [120]
        assert (tmp_path / "test.json").read_bytes() == (tmp_path / "every.json").read_bytes()

    def test_episodic_runs_featurize_only_their_tasks(self, corpus600, tmp_path, monkeypatch):
        """Training reads the target-train and target-test tasks (175 + 102
        records), `eval` the target-test ones."""
        short = tmp_path / "short.json"
        short.write_text('{"meta.episodes_per_epoch": 4, "meta.eval_episodes": 4}')
        manifest = SplitManifest.load(corpus600["meta_protein"])
        tasks = {pool: manifest.task_records(pool) for pool in ("target_train", "target_test")}
        assert [len(tasks["target_train"]), len(tasks["target_test"])] == [175, 102]
        reports = {}
        for name, every in (("every", corpus600["records"]), ("tasks", None)):
            counts = featurize_spy(monkeypatch, every=every)
            run = tmp_path / name
            assert cli.main(["train", "--csv", corpus600["csv"],
                             "--split-manifest", corpus600["meta_protein"], "--stage", "meta",
                             "--no-warm-start", "--epochs", "1", "--eval-runs", "1",
                             "--config", str(short), "--out", str(run), *SMALL]) == 0
            assert cli.main(["eval", "--csv", corpus600["csv"],
                             "--split-manifest", corpus600["meta_protein"],
                             "--checkpoint", str(run), "--eval-runs", "1",
                             "--out", str(run / "eval.json")]) == 0
            reports[name] = [(run / f).read_bytes() for f in ("report.json", "eval.json")]
        assert counts == [277, 102]
        assert reports["tasks"] == reports["every"]


class TestExitCodes:
    def test_bad_config_value_is_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train.lr": -5}')
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--config", str(bad)])
        assert code == 2

    def test_unknown_config_key_is_2(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train.momentum": 0.9}')
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--config", str(bad)])
        assert code == 2

    def test_missing_csv_is_3(self, tmp_path):
        code = cli.main(["split", "--csv", str(tmp_path / "nope.csv"),
                         "--strategy", "random", "--out", str(tmp_path / "m.json")])
        assert code == 3

    @pytest.mark.parametrize("flags", [["--shots", "0"], ["--shots", "x"], ["--eval-runs", "0"]],
                             ids=["zero-shot", "non-integer-shot", "zero-runs"])
    def test_bad_shot_curve_flag_is_2_before_any_data_is_read(self, meta_run, tmp_path, flags):
        """eval checks its shot curve flags right after the run's stage, so
        a missing CSV behind them is never opened."""
        code = cli.main(["eval", "--csv", str(tmp_path / "nope.csv"),
                         "--split-manifest", meta_run["split"],
                         "--checkpoint", meta_run["run"], *flags])
        assert code == 2

    def test_checkpoint_from_another_stage_is_3(self, workdir, tmp_path):
        """A regress checkpoint has no classify head, so rebuilding the
        vanilla model from it must fail instead of evaluating a random head."""
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        shutil.copy(workdir["root"] / "vanilla" / "config.json", mixed)
        shutil.copy(workdir["root"] / "regress" / "best.ckpt", mixed)
        code = cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--checkpoint", str(mixed)])
        assert code == 3

    def test_truncated_checkpoint_is_3(self, workdir, tmp_path):
        """A checkpoint cut short, here inside its first entry's header, or
        one with a trailing byte, is a data error, not a traceback."""
        cut = tmp_path / "cut"
        cut.mkdir()
        shutil.copy(workdir["root"] / "vanilla" / "config.json", cut)
        blob = (workdir["root"] / "vanilla" / "best.ckpt").read_bytes()
        for bad in (blob[:20], blob + b"\x00"):
            (cut / "best.ckpt").write_bytes(bad)
            code = cli.main(["eval", "--csv", workdir["csv"],
                             "--split-manifest", workdir["split"],
                             "--checkpoint", str(cut / "best.ckpt")])
            assert code == 3

    def test_a_checkpoint_value_the_model_cannot_hold_is_3(self, workdir, meta_run, tmp_path,
                                                           capsys):
        """A NaN checkpoint entry is a data error naming the entry, for every
        command that loads a checkpoint, not a model whose scores fail."""
        corrupt = tmp_path / "corrupt"
        shutil.copytree(workdir["run"], corrupt)
        entries = read_checkpoint((corrupt / "best.ckpt").read_bytes())
        bad = next(iter(entries))
        entries[bad].flat[0] = np.nan
        write_checkpoint(corrupt / "best.ckpt", entries)
        commands = {
            "eval": ["eval", "--csv", workdir["csv"], "--split-manifest", workdir["split"],
                     "--checkpoint", str(corrupt)],
            "screen": ["screen", "--csv", workdir["csv"], "--classifier", str(corrupt),
                       "--regressor", workdir["reg"], "--out", str(tmp_path / "ranked.csv")],
            "export-attention": ["export-attention", "--checkpoint", str(corrupt), "--csv",
                                 workdir["csv"], "--limit", "3",
                                 "--out", str(tmp_path / "maps.json")],
            "meta warm start": ["train", "--csv", workdir["csv"],
                                "--split-manifest", meta_run["split"], "--stage", "meta",
                                "--checkpoint", str(corrupt / "best.ckpt"), "--epochs", "1",
                                "--out", str(tmp_path / "meta"), *SMALL],
        }
        for name, argv in commands.items():
            assert cli.main(argv) == 3, name
            assert repr(bad) in capsys.readouterr().err, name

    def test_manifest_without_test_records(self, workdir, tmp_path, capsys):
        """Training on a manifest with no test partition succeeds and
        reports nothing held out; eval and a restricted export refuse it."""
        split = tmp_path / "no_test.json"
        random_split(load_interactions(workdir["csv"]), fractions=(0.8, 0.2, 0.0)).save(split)
        out = tmp_path / "run"
        assert cli.main(["train", "--csv", workdir["csv"], "--split-manifest", str(split),
                         "--stage", "vanilla", "--epochs", "1", "--out", str(out),
                         *SMALL]) == 0
        assert "test:" not in capsys.readouterr().out
        assert (out / "best.ckpt").exists() and not (out / "report.json").exists()
        assert cli.main(["eval", "--csv", workdir["csv"], "--split-manifest", str(split),
                         "--checkpoint", workdir["run"]]) == 3
        assert "no test records" in capsys.readouterr().err
        attention = tmp_path / "attention.json"
        assert cli.main(["export-attention", "--csv", workdir["csv"],
                         "--checkpoint", workdir["run"], "--split-manifest", str(split),
                         "--out", str(attention)]) == 3
        assert "no 'test' records" in capsys.readouterr().err
        assert not attention.exists()

    @pytest.mark.parametrize("command", ["split", "train", "eval", "screen", "export-attention"])
    def test_csv_with_no_usable_row_is_3(self, workdir, tmp_path, command, capsys):
        """A CSV whose only row has an unclosed ring loads no record; every
        command that reads a CSV refuses it, naming the file and the count
        of skipped rows, and writes nothing."""
        path = tmp_path / "unusable.csv"
        path.write_text("drug_id,protein_id,smiles,sequence,label\nD1,P1,C1CC,MKVLAA,1\n")
        out = tmp_path / "out"
        args = {
            "split": ["--strategy", "random"],
            "train": ["--split-manifest", workdir["split"], "--stage", "vanilla",
                      "--epochs", "1", *SMALL],
            "eval": ["--split-manifest", workdir["split"], "--checkpoint", workdir["run"]],
            "screen": ["--classifier", workdir["run"], "--regressor", workdir["reg"]],
            "export-attention": ["--checkpoint", workdir["run"]],
        }[command]
        assert cli.main([command, "--csv", str(path), *args, "--out", str(out)]) == 3
        assert f"error: {path}: no usable row, 1 skipped" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "screen", "export-attention"])
    @pytest.mark.parametrize("where", ["typo", "typo-in-run", "no-config"])
    def test_run_path_that_reads_nothing_is_3(self, workdir, tmp_path, command, where, capsys):
        """A mistyped run path, beside a config.json or not, and a run
        directory without its config.json are data problems, whatever the
        parent directory holds; the error names the path looked for."""
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(Path(workdir["run"]) / "best.ckpt", bare)
        run, missing = {
            "typo": (tmp_path / "typo", tmp_path / "typo"),
            "typo-in-run": (Path(workdir["run"]) / "best.ckpt.bak",) * 2,
            "no-config": (bare, bare / "config.json"),
        }[where]
        out = tmp_path / "out"
        args = {
            "eval": ["--split-manifest", workdir["split"], "--checkpoint", str(run)],
            "screen": ["--classifier", workdir["run"], "--regressor", str(run)],
            "export-attention": ["--checkpoint", str(run)],
        }[command]
        capsys.readouterr()
        assert cli.main([command, "--csv", workdir["csv"], *args, "--out", str(out)]) == 3
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "screen", "export-attention"])
    def test_manifest_of_another_csv_reading_is_3(self, workdir, tmp_path, command):
        """Split by a binary reading of an affinity-only CSV, the manifest
        indexes the four rows whose affinity parses as a label, not the 18
        rows a regression loads; every command that reads a manifest
        refuses it."""
        with open(workdir["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))[:18]
        for i, affinity in ((0, "0"), (8, "1"), (10, "0"), (12, "1")):
            rows[i]["affinity"] = affinity
        path = tmp_path / "affinity.csv"
        with open(path, "w", newline="") as fh:
            names = [n for n in rows[0] if n != "label"]
            writer = csv.DictWriter(fh, fieldnames=names, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        split = str(tmp_path / "split.json")
        assert cli.main(["split", "--csv", str(path), "--strategy", "random",
                         "--label-col", "affinity", "--out", split]) == 0
        kept = SplitManifest.load(split)
        assert len(kept.assignments) + len(kept.dropped) == 4
        out = tmp_path / "out"
        args = {
            "train": ["--csv", str(path), "--stage", "regress", "--epochs", "1",
                      "--out", str(out), *SMALL],
            "eval": ["--csv", str(path), "--checkpoint", workdir["reg"]],
            "screen": ["--csv", workdir["csv"], "--classifier", workdir["run"],
                       "--regressor", workdir["reg"], "--out", str(out)],
            "export-attention": ["--csv", workdir["csv"], "--checkpoint", workdir["run"],
                                 "--out", str(out)],
        }[command]
        assert cli.main([command, "--split-manifest", split, *args]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "edit",
        [lambda m: [], lambda m: {k: v for k, v in m.items() if k != "dropped"},
         lambda m: {**m, "assignments": {"x": ["source", "train"]}},
         lambda m: {**m, "assignments": {**m["assignments"], "0": ["source"]}},
         lambda m: {**m, "assignments": {**m["assignments"], "0": "st"}},
         lambda m: {**m, "assignments": {**m["assignments"], "0": ["source", 1]}},
         lambda m: {**m, "dropped": [None]},
         lambda m: {**m, "params": []},
         lambda m: {**m, "assignments": {("300" if k == "0" else k): v
                                         for k, v in m["assignments"].items()}}],
        ids=["not-an-object", "missing-key", "non-integer-index", "one-string",
             "bare-string", "non-string-partition", "non-integer-dropped",
             "params-not-an-object", "index-past-the-csv"],
    )
    def test_malformed_manifest_is_3(self, workdir, tmp_path, command, edit):
        with open(workdir["split"]) as fh:
            payload = edit(json.load(fh))
        split = tmp_path / "split.json"
        split.write_text(json.dumps(payload))
        out = tmp_path / "out"
        args = {
            "train": ["--stage", "vanilla", "--epochs", "1", "--out", str(out), *SMALL],
            "eval": ["--checkpoint", workdir["run"], "--out", str(out)],
        }[command]
        code = cli.main([command, "--csv", workdir["csv"], "--split-manifest", str(split), *args])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "screen", "export-attention"])
    @pytest.mark.parametrize("clusters", [[], "x", {"D0000": "a"}],
                             ids=["list", "string", "string-cluster"])
    def test_manifest_whose_cluster_maps_are_no_maps_is_3(
            self, workdir, tmp_path, command, clusters, capsys):
        """Cluster maps that are no object of integer clusters make the file
        no split manifest, before a list can reach the cluster checks and
        crash them with exit 1."""
        payload = json.loads(Path(workdir["split"]).read_text())
        split = tmp_path / "split.json"
        split.write_text(json.dumps(
            {**payload, "drug_clusters": clusters, "protein_clusters": clusters}))
        out = tmp_path / "out"
        args = {
            "train": ["--stage", "vanilla", "--epochs", "1", *SMALL],
            "screen": ["--classifier", workdir["run"], "--regressor", workdir["reg"]],
            "export-attention": ["--checkpoint", workdir["run"]],
        }[command]
        code = cli.main([command, "--csv", workdir["csv"], "--split-manifest", str(split),
                         *args, "--out", str(out)])
        assert code == 3
        assert "cluster maps of integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, edit",
        [("meta", lambda m: with_target_train_task(m, lambda recs: [*recs[:-1], 100000])),
         ("meta", lambda m: with_target_train_task(m, lambda recs: 5)),
         ("vanilla", lambda m: {**m, "assignments": {k: ["source", "test"]
                                                     for k in m["assignments"]}})],
        ids=["task-record-past-the-csv", "task-records-not-a-list", "no-train-record"],
    )
    def test_manifest_training_cannot_use_is_3(self, workdir, meta_run, tmp_path, stage, edit):
        """Manifests that list every record once but crashed training with
        exit 1: a task naming a record past the CSV, a task whose records
        are no list, and a split with nothing to train on."""
        source = meta_run["split"] if stage == "meta" else workdir["split"]
        split = tmp_path / "split.json"
        split.write_text(json.dumps(edit(json.loads(Path(source).read_text()))))
        out = tmp_path / "out"
        flags = ["--no-warm-start"] if stage == "meta" else []
        code = cli.main(["train", "--csv", workdir["csv"], "--split-manifest", str(split),
                         "--stage", stage, "--epochs", "1", *flags, "--out", str(out), *SMALL])
        assert code == 3
        assert not out.exists()

    def test_manifest_of_another_csv_of_the_same_size_is_3(self, workdir, tmp_path):
        """A cluster manifest of the seed-0 corpus lists every record of the
        seed-1 corpus of the same size once, but its cluster maps lack some
        of that corpus's drugs and proteins, so training refuses it."""
        split = str(tmp_path / "cluster.json")
        assert cli.main(["split", "--csv", workdir["csv"], "--strategy", "cluster",
                         "--out", split]) == 0
        other = tmp_path / "other"
        assert cli.main(["synth", "--out", str(other), "--seed", "1", "--records", "300"]) == 0
        records = load_interactions(str(other / "corpus.csv"))
        clusters = SplitManifest.load(split).drug_clusters
        assert len(records) == 300 and any(r.drug_id not in clusters for r in records)
        out = tmp_path / "out"
        code = cli.main(["train", "--csv", str(other / "corpus.csv"), "--split-manifest", split,
                         "--stage", "vanilla", "--epochs", "1", "--out", str(out), *SMALL])
        assert code == 3
        assert not out.exists()

    def test_every_strategys_own_manifest_loads(self, workdir, tmp_path):
        records = load_interactions(workdir["csv"])
        for strategy in cli.SPLIT_STRATEGIES:
            split = str(tmp_path / f"{strategy}.json")
            assert cli.main(["split", "--csv", workdir["csv"], "--strategy", strategy,
                             "--out", split]) == 0
            assert cli._load_manifest(split, records).assignments, strategy

    @pytest.mark.parametrize("strategy, edit", [
        ("cluster", lambda m: {**m, "protein_clusters": {p: 0 for p in m["protein_clusters"]}}),
        ("cluster", lambda m: {**m, "drug_clusters": {
            d: c for d, c in m["drug_clusters"].items() if d != min(m["drug_clusters"])}}),
        ("meta_protein", lambda m: {**m, "drug_clusters": {
            d: c + 1 for d, c in m["drug_clusters"].items()}}),
    ], ids=["cluster-on-both-sides", "drug-without-cluster", "task-outside-its-clusters"])
    def test_manifest_whose_clusters_do_not_fit_is_3(self, workdir, tmp_path, strategy, edit):
        records = load_interactions(workdir["csv"])
        split = tmp_path / "split.json"
        assert cli.main(["split", "--csv", workdir["csv"], "--strategy", strategy,
                         "--out", str(split)]) == 0
        split.write_text(json.dumps(edit(json.loads(split.read_text()))))
        with pytest.raises(BadManifest):
            cli._load_manifest(str(split), records)

    @pytest.mark.parametrize("command", ["eval", "screen", "export-attention"])
    def test_version_2_run_directory_is_2(self, workdir, tmp_path, command, capsys):
        """A run directory whose snapshot still carries the six settings that
        became constants, at config_version 2, is refused by its version."""
        old = tmp_path / "old"
        old.mkdir()
        shutil.copy(workdir["root"] / "vanilla" / "best.ckpt", old)
        snapshot = json.loads((workdir["root"] / "vanilla" / "config.json").read_text())
        snapshot.update({"config_version": 2, "train.grl_scale": 1.0,
                         "train.warmup_fraction": 0.1, "loss.focal_alpha": 0.25,
                         "loss.focal_gamma": 2.0, "proto.uniform_attention": False,
                         "model.use_gau": True})
        (old / "config.json").write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
        out = tmp_path / "out"
        args = {
            "eval": ["--split-manifest", workdir["split"], "--checkpoint", str(old),
                     "--out", str(out)],
            "screen": ["--classifier", str(old), "--regressor", workdir["reg"],
                       "--out", str(out)],
            "export-attention": ["--checkpoint", str(old), "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert cli.main([command, "--csv", workdir["csv"], *args]) == 2
        assert "config_version 2 not supported, expected 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--stage", "meta", "--checkpoint", "CKPT", "--no-warm-start"],
            ["--stage", "meta"],
            ["--stage", "cada", "--checkpoint", "CKPT"],
            ["--config", "CADA", "--checkpoint", "CKPT"],
            ["--stage", "vanilla", "--no-warm-start"],
            ["--stage", "regress", "--no-warm-start"],
            ["--stage", "vanilla", "--eval-runs", "2"],
            ["--stage", "regress", "--eval-runs", "2"],
            ["--config", "CADA", "--eval-runs", "2"],
            ["--stage", "vanilla", "--lambda", "0.5"],
            ["--stage", "meta", "--no-warm-start", "--lambda", "0.5"],
            ["--stage", "cada", "--k-shot", "3"],
            ["--stage", "regress", "--k-query", "3"],
            ["--config", "CADA", "--k-shot", "3"],
        ],
        ids=["meta-both", "meta-neither", "cada-checkpoint", "config-cada-checkpoint",
             "vanilla-no-warm-start", "regress-no-warm-start",
             "vanilla-eval-runs", "regress-eval-runs", "config-cada-eval-runs",
             "vanilla-lambda", "meta-lambda", "cada-k-shot", "regress-k-query",
             "config-cada-k-shot"],
    )
    def test_flag_the_stage_cannot_honour_is_2(self, workdir, tmp_path, flags):
        """The stage may come from --config, so the check runs after the
        config resolves; nothing is trained and no run directory appears."""
        cada = tmp_path / "cada.json"
        cada.write_text('{"stage": "cada"}')
        ckpt = str(workdir["root"] / "vanilla" / "best.ckpt")
        flags = [{"CKPT": ckpt, "CADA": str(cada)}.get(f, f) for f in flags]
        run = tmp_path / "run"
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--out", str(run), *flags, *SMALL])
        assert code == 2
        assert not run.exists()

    @pytest.mark.parametrize("run", ["run", "reg"])
    @pytest.mark.parametrize(
        "flags", [["--shots", "1,3"], ["--eval-runs", "2"]], ids=["shots", "eval-runs"]
    )
    def test_episodic_eval_flag_on_a_supervised_run_is_2(self, workdir, tmp_path, run, flags):
        """eval learns the stage from the checkpoint, then refuses flags
        only the episodic report reads; no report is written."""
        out = tmp_path / "report.json"
        code = cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--checkpoint", workdir[run], "--out", str(out), *flags])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--eval-runs", "0"], ["--eval-runs", "-2"], ["--shots=-1,5"],
         ["--shots", "0,1"], ["--shots", "1,x"], ["--shots", "2.5"]],
        ids=["zero-runs", "negative-runs", "negative-shot", "zero-shot",
             "non-integer-shot", "fractional-shot"],
    )
    def test_shot_curve_flag_out_of_range_is_2(self, workdir, meta_run, tmp_path, flags):
        """A shot count or run count below one, or a shot that is not an
        integer, is refused instead of reporting a NaN or a phantom row."""
        out = tmp_path / "report.json"
        code = cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", meta_run["split"],
                         "--checkpoint", meta_run["run"], "--out", str(out), *flags])
        assert code == 2
        assert not out.exists()

    def test_meta_train_with_zero_eval_runs_is_2_before_training(
        self, workdir, meta_run, tmp_path
    ):
        run = tmp_path / "run"
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", meta_run["split"], "--stage", "meta",
                         "--no-warm-start", "--eval-runs", "0", "--out", str(run),
                         *SMALL])
        assert code == 2
        assert not run.exists()

    def test_meta_train_whose_test_pool_hosts_no_episode_is_3_before_training(
        self, tmp_path, capsys
    ):
        """This split's target-train pool hosts 5-shot episodes and its
        target-test pool none, so the report could never be written: the
        run stops before it trains or writes a file."""
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--seed", "1", "--records", "300"]) == 0
        csv = str(data / "corpus.csv")
        split = str(tmp_path / "meta_protein.json")
        assert cli.main(["split", "--csv", csv, "--strategy", "meta_protein", "--seed", "1",
                         "--out", split]) == 0
        short = tmp_path / "short.json"
        short.write_text('{"meta.episodes_per_epoch": 4, "meta.eval_episodes": 4}')
        run = tmp_path / "run"
        capsys.readouterr()
        code = cli.main(["train", "--csv", csv, "--split-manifest", split, "--stage", "meta",
                         "--no-warm-start", "--epochs", "2", "--config", str(short),
                         "--out", str(run), *SMALL])
        assert code == 3
        assert "no target-test task can host a full episode" in capsys.readouterr().err
        assert not run.exists()

    def test_meta_report_defaults_to_five_eval_runs(self, workdir, monkeypatch):
        seen = {}

        def curve(*args, shots, n_runs):
            seen["n_runs"] = n_runs
            return {k: MetricReport({"auroc": 0.5}, {"auroc": 0.0}) for k in shots}

        monkeypatch.setattr(cli, "meta_shot_curve", curve)
        cfg = resolve_config({}, {"stage": "meta"})
        manifest = SplitManifest.load(workdir["split"])
        cli._test_report([], manifest, cfg, None, None, None, (1,), None)
        assert seen["n_runs"] == 5

    def test_supervised_warm_start_from_checkpoint(self, workdir, tmp_path):
        run = tmp_path / "warm"
        assert cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"], "--stage", "vanilla",
                         "--epochs", "1", "--lr", "1e-3", "--out", str(run),
                         "--checkpoint", workdir["run"] + "/best.ckpt", *SMALL]) == 0
        cold = tmp_path / "cold"
        assert cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"], "--stage", "vanilla",
                         "--epochs", "1", "--lr", "1e-3", "--out", str(cold), *SMALL]) == 0
        assert (run / "best.ckpt").read_bytes() != (cold / "best.ckpt").read_bytes()

    @pytest.mark.parametrize(
        "text",
        ['{"train.epochs": true}', '{"train.lr": "fast"}', '{"model.preset": 3}',
         '{"config_version": "3"}', '{"model.max_seq_len": -1}'],
        ids=["bool-as-int", "number-as-string", "string-as-int", "version-as-string",
             "negative-seq-len"],
    )
    def test_config_value_of_the_wrong_type_or_range_is_2(self, workdir, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        run = tmp_path / "run"
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--config", str(bad), "--out", str(run)])
        assert code == 2
        assert not run.exists()

    def test_non_finite_config_value_is_2(self, workdir, tmp_path):
        for text in ('{"train.lr": NaN}', '{"train.lambda_adv": Infinity}'):
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            code = cli.main(["train", "--csv", workdir["csv"],
                             "--split-manifest", workdir["split"],
                             "--stage", "cada", "--config", str(bad), *SMALL])
            assert code == 2, text

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_is_4(self, workdir, tmp_path):
        """A huge step drives the weights to overflow on every stage, and
        a model diverged by its last step fails its scoring too."""
        splits = {}
        for strategy in ("cluster", "meta_protein"):
            splits[strategy] = str(tmp_path / f"{strategy}.json")
            assert cli.main(["split", "--csv", workdir["csv"], "--strategy",
                             strategy, "--out", splits[strategy]]) == 0
        runs = {
            "vanilla": [splits["cluster"]],
            "cada": [splits["cluster"]],
            "meta": [splits["meta_protein"], "--no-warm-start"],
        }
        for stage, (split, *extra) in runs.items():
            code = cli.main(["train", "--csv", workdir["csv"],
                             "--split-manifest", split, "--stage", stage,
                             "--epochs", "2", "--lr", "1e300", *extra, *SMALL])
            assert code == 4, stage
        # one step whose loss is finite but whose update overflows the
        # weights: the diverged model's scores, not its loss, must stop it
        short = tmp_path / "short_meta.json"
        short.write_text('{"meta.episodes_per_epoch": 1, "meta.eval_episodes": 4}')
        one_step = {
            "vanilla": [workdir["split"], "--batch-size", "256"],
            "regress": [workdir["split"], "--batch-size", "256"],
            "meta": [splits["meta_protein"], "--no-warm-start", "--eval-runs", "1",
                     "--config", str(short)],
        }
        for stage, (split, *extra) in one_step.items():
            code = cli.main(["train", "--csv", workdir["csv"],
                             "--split-manifest", split, "--stage", stage,
                             "--epochs", "1", "--lr", "1e300", *extra, *SMALL])
            assert code == 4, f"one-step {stage}"
        # the attention maps of a checkpoint whose weights load but overflow
        # the forward pass are not exported
        diverged = tmp_path / "diverged"
        shutil.copytree(workdir["run"], diverged)
        entries = read_checkpoint((diverged / "best.ckpt").read_bytes())
        write_checkpoint(diverged / "best.ckpt",
                         {path: np.full_like(values, 1e200) for path, values in entries.items()})
        code = cli.main(["export-attention", "--checkpoint", str(diverged), "--csv",
                         workdir["csv"], "--limit", "3", "--out", str(tmp_path / "maps.json")])
        assert code == 4, "export-attention"

    @pytest.mark.parametrize("noise", ["2", "nan", "-0.5"])
    def test_synth_noise_outside_unit_interval_is_2(self, tmp_path, noise):
        out = tmp_path / "data"
        code = cli.main(["synth", "--out", str(out), "--records", "20", "--noise", noise])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--records", "0"], ["--records", "-5"], ["--records", "100000"],
         ["--domain-shift", "--records", "5000"]],
        ids=["0", "-5", "100000", "domain-shift-5000"],
    )
    def test_synth_records_out_of_range_is_2(self, tmp_path, flags):
        """Below one record, or more than a pool has drug-protein pairs."""
        out = tmp_path / "data"
        assert cli.main(["synth", "--out", str(out), *flags]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["nan", "0", "-1", "5"])
    def test_screen_top_fraction_outside_unit_interval_is_2(self, workdir, tmp_path, fraction):
        out = tmp_path / "ranked.csv"
        code = cli.main(["screen", "--csv", workdir["csv"], "--classifier", workdir["run"],
                         "--regressor", workdir["reg"], "--top-fraction", fraction,
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_export_attention_negative_limit_is_2(self, workdir, tmp_path):
        out = tmp_path / "attn.json"
        code = cli.main(["export-attention", "--csv", workdir["csv"],
                         "--checkpoint", workdir["run"], "--limit", "-3", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
