"""Command line surface: artifacts, round trips, exit codes.

The commands run in-process through cli.main, on a small corpus and model,
with run directories shared across tests where that saves a training run.
"""

import json

import numpy as np
import pytest

from dtikit import cli
from dtikit.metrics import MetricReport
from dtikit.splits import SplitManifest

SMALL = ["--preset", "small", "--max-seq-len", "48", "--seed", "0"]


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


class TestFeaturize:
    def test_npz_holds_every_entity(self, workdir, tmp_path):
        out = tmp_path / "feats.npz"
        assert cli.main(["featurize", "--csv", workdir["csv"],
                         "--out", str(out), *SMALL]) == 0
        with np.load(out) as z:
            drugs = list(z["drug_ids"])
            prots = list(z["protein_ids"])
            assert f"drug:{drugs[0]}:features" in z
            assert f"drug:{drugs[0]}:adjacency" in z
            assert f"protein:{prots[0]}:tokens" in z
            assert z[f"protein:{prots[0]}:tokens"].shape == (48,)


class TestTrainEval:
    def test_run_directory_artifacts(self, workdir):
        root = workdir["root"] / "vanilla"
        for name in ("config.json", "metrics.jsonl", "best.ckpt",
                     "split_manifest.sha256", "report.json"):
            assert (root / name).exists(), name
        cfg = json.loads((root / "config.json").read_text())
        assert cfg["stage"] == "vanilla"
        assert cfg["model.preset"] == "small"

    def test_eval_reproduces_the_training_report(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", workdir["split"],
                         "--checkpoint", workdir["run"],
                         "--out", str(out)]) == 0
        ours = MetricReport.from_json(out.read_text())
        trained = MetricReport.from_json(
            (workdir["root"] / "vanilla" / "report.json").read_text()
        )
        assert ours.metrics == trained.metrics

    def test_meta_stage_round_trip(self, workdir, tmp_path):
        split = tmp_path / "meta.json"
        assert cli.main(["split", "--csv", workdir["csv"],
                         "--strategy", "meta_protein", "--out", str(split)]) == 0
        run = tmp_path / "meta"
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", str(split), "--stage", "meta",
                         "--epochs", "1", "--no-warm-start", "--eval-runs", "2",
                         "--checkpoint", str(workdir["root"] / "vanilla" / "best.ckpt"),
                         "--out", str(run), *SMALL])
        assert code == 0
        report = MetricReport.from_json((run / "report.json").read_text())
        assert "auroc@5" in report.metrics
        out = tmp_path / "curve.json"
        assert cli.main(["eval", "--csv", workdir["csv"],
                         "--split-manifest", str(split),
                         "--checkpoint", str(run), "--shots", "1,3",
                         "--eval-runs", "2", "--out", str(out)]) == 0
        curve = MetricReport.from_json(out.read_text())
        assert set(curve.metrics) == {"auroc@1", "auroc@3"}


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

    def test_swapped_runs_are_a_config_error(self, workdir):
        code = cli.main(["screen", "--csv", workdir["csv"],
                         "--classifier", workdir["reg"],
                         "--regressor", workdir["run"]])
        assert code == 2


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

    def test_level_count_matches_model_depth(self, workdir, tmp_path):
        out = tmp_path / "attn.json"
        cli.main(["export-attention", "--csv", workdir["csv"],
                  "--checkpoint", workdir["run"], "--limit", "1",
                  "--out", str(out)])
        entries = json.loads(out.read_text())
        assert sorted(entries[0]["levels"]) == ["0", "1", "2"]


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

    def test_meta_without_checkpoint_is_3(self, workdir, tmp_path):
        split = tmp_path / "meta.json"
        cli.main(["split", "--csv", workdir["csv"], "--strategy",
                  "meta_protein", "--out", str(split)])
        code = cli.main(["train", "--csv", workdir["csv"],
                         "--split-manifest", str(split), "--stage", "meta",
                         "--epochs", "1", *SMALL])
        assert code == 3

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
        """A huge step drives the weights to overflow on every stage."""
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

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
