"""Training loops: determinism, artifacts, selection, and failure modes.

Everything here runs on a small synthetic corpus with the small model
preset, so the whole module stays in the tens of seconds.
"""

import contextlib
import json
from dataclasses import replace

import numpy as np
import pytest

from dtikit import tensor as T
from dtikit.config import resolve_config
from dtikit.splits import SplitManifest, meta_unseen_split, random_split
from dtikit.synth import SyntheticSpec, synth_generate
from dtikit.train import (
    Featurizer,
    MissingCheckpoint,
    NumericFailure,
    build_model,
    encode_pairs,
    manifest_sha256,
    predict,
    screen,
    supervised_indices,
    train_adversarial,
    train_meta,
    train_supervised,
)

SMALL = {"model_preset": "small", "max_seq_len": 48, "seed": 0}


def small_config(**kw):
    overrides = dict(SMALL)
    overrides.update(kw)
    return resolve_config({}, overrides)


@pytest.fixture(scope="module")
def corpus():
    return synth_generate(SyntheticSpec(n_records=300), seed=0)


@pytest.fixture(scope="module")
def records(corpus):
    return corpus.records


@pytest.fixture(scope="module")
def manifest(records):
    return random_split(records, seed=0)


@pytest.fixture(scope="module")
def meta_manifest(records):
    return meta_unseen_split(records, kind="protein", seed=0)


@pytest.fixture(scope="module")
def vanilla(records, manifest):
    cfg = small_config(stage="vanilla", epochs=3, lr=1e-3)
    return cfg, train_supervised(records, manifest, cfg)


class TestSupervised:
    def test_loss_decreases(self, vanilla):
        _, result = vanilla
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_selection_tracks_best_val_epoch(self, vanilla):
        _, result = vanilla
        scores = [log.val["auroc"] for log in result.history]
        assert result.best_epoch == int(np.argmax(scores))
        assert result.best_metric == pytest.approx(max(scores))

    def test_predictions_are_probabilities(self, vanilla, records, manifest):
        _, result = vanilla
        test = manifest.indices(None, "test")
        scores = predict(result.encoder, result.featurizer, records, test)
        assert scores.shape == (len(test),)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_rerun_is_bit_identical(self, vanilla, records, manifest):
        cfg, first = vanilla
        second = train_supervised(records, manifest, cfg)
        assert first.best_blob == second.best_blob
        assert [log.to_json() for log in first.history] == [
            log.to_json() for log in second.history
        ]

    def test_best_blob_restores_the_selected_model(self, vanilla, records, manifest):
        cfg, result = vanilla
        store, encoder = build_model(cfg)
        store.load_bytes(result.best_blob)
        test = manifest.indices(None, "test")
        fresh = predict(encoder, result.featurizer, records, test)
        kept = predict(result.encoder, result.featurizer, records, test)
        assert np.array_equal(fresh, kept)

    def test_warm_start_changes_the_run(self, vanilla, records, manifest):
        cfg, result = vanilla
        short = replace(cfg, epochs=1)
        cold = train_supervised(records, manifest, short)
        warm = train_supervised(records, manifest, short, start_blob=result.best_blob)
        assert warm.best_blob != cold.best_blob


class TestEncodePairs:
    """The per-entity deduplicated path against per-record forward."""

    @pytest.mark.parametrize("grad", [True, False])
    def test_matches_per_record_forward(self, records, grad):
        cfg = small_config()
        _, encoder = build_model(cfg, heads=("classify", "regress"))
        feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)
        idxs = list(range(60)) + [5, 0]
        assert len({records[i].smiles for i in idxs}) < len(idxs)
        assert len({records[i].sequence for i in idxs}) < len(idxs)
        for head in ("classify", "regress"):
            with contextlib.nullcontext() if grad else T.no_grad():
                batched = encode_pairs(encoder, feat, records, idxs, head)
                single = [
                    encoder.forward(
                        feat.drugs[records[i].smiles], feat.proteins[records[i].sequence],
                        head=head,
                    )
                    for i in idxs
                ]
            for b, r in zip(batched, single):
                out = b.logit if head == "classify" else b.value
                ref = r.logit if head == "classify" else r.value
                assert np.array_equal(out.data, ref.data)
                assert out.requires_grad == grad
                assert np.array_equal(b.fused.data, r.fused.data)
                assert all(
                    np.array_equal(x.data, y.data)
                    for x, y in zip(b.level_vectors, r.level_vectors)
                )
                assert all(
                    np.array_equal(x, y) for x, y in zip(b.attention, r.attention)
                )
                assert b.level_lengths == r.level_lengths


class TestArtifacts:
    def test_run_directory_contents(self, records, manifest, tmp_path):
        cfg = small_config(stage="vanilla", epochs=2, lr=1e-3)
        out = tmp_path / "run"
        result = train_supervised(records, manifest, cfg, out=out)
        assert (out / "config.json").read_text() == cfg.snapshot_json()
        assert (out / "split_manifest.sha256").read_text().strip() == manifest_sha256(
            manifest
        )
        assert (out / "best.ckpt").read_bytes() == result.best_blob
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == cfg.epochs
        for line, log in zip(lines, result.history):
            assert json.loads(line) == json.loads(log.to_json())


class TestAdversarial:
    def test_zero_weight_matches_supervised_exactly(self, records, manifest):
        cfg = small_config(stage="cada", epochs=2, lr=1e-3, lambda_adv=0.0)
        plain = train_supervised(records, manifest, cfg)
        adv = train_adversarial(records, manifest, cfg)
        assert adv.best_blob == plain.best_blob
        assert [log.to_json() for log in adv.history] == [
            log.to_json() for log in plain.history
        ]

    def test_active_critic_needs_unlabeled_target_pool(self, records, manifest):
        cfg = small_config(stage="cada", epochs=1, lambda_adv=1.0)
        with pytest.raises(ValueError):
            train_adversarial(records, manifest, cfg)


class TestMeta:
    def test_refuses_to_start_cold_silently(self, records, meta_manifest):
        cfg = small_config(stage="meta", epochs=1)
        with pytest.raises(MissingCheckpoint):
            train_meta(records, meta_manifest, cfg)

    def test_trains_and_returns_prototype_head(self, records, meta_manifest):
        cfg = small_config(stage="meta", epochs=1, episodes_per_epoch=10)
        result = train_meta(records, meta_manifest, cfg, no_warm_start=True)
        assert result.head is not None
        assert len(result.history) == 1
        assert "query_accuracy" in result.history[0].val

    def test_supervised_pool_includes_target_train_labels(self, records, meta_manifest):
        train, _, test = supervised_indices(meta_manifest)
        target_train = set(meta_manifest.indices("target", "train"))
        assert target_train <= set(train)
        assert target_train.isdisjoint(test)


class TestFailureModes:
    def test_non_finite_loss_raises(self, records, manifest):
        cfg = replace(small_config(stage="vanilla", epochs=1), lr=float("nan"))
        with pytest.raises(NumericFailure):
            train_supervised(records, manifest, cfg)


class TestScreen:
    def test_top_slice_is_sorted_and_sized(self, vanilla, corpus, records, manifest):
        _, cls = vanilla
        cfg = small_config(stage="regress", epochs=2, lr=1e-3)
        reg = train_supervised(
            corpus.regression_records(), manifest, cfg, head="regress"
        )
        test = manifest.indices(None, "test")
        top, scores = screen(
            records, test,
            (cls.encoder, cls.featurizer), (reg.encoder, reg.featurizer),
        )
        assert len(top) == int(np.ceil(0.1 * len(test)))
        assert len(top) == len(scores)
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
        assert set(top) <= set(test)

    def test_featurizer_covers_every_entity(self, records):
        feat = Featurizer.build(records, 48)
        assert {r.smiles for r in records} <= set(feat.drugs)
        assert {r.sequence for r in records} <= set(feat.proteins)
