"""Training loops: determinism, artifacts, selection, and failure modes.

Everything here runs on a small synthetic corpus with the small model
preset, so the whole module stays in the tens of seconds.
"""

import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
from kernel_rerun import openblas_core

import dtikit
from dtikit import tensor as T
from dtikit.adversarial import DomainAdversary
from dtikit.config import ConfigError, resolve_config
from dtikit.datasets import AFFINITY, CsvSchema, load_interactions_detailed
from dtikit.encoder import KERNEL_SIZES, DTIEncoder, EncoderConfig
from dtikit.metrics import MetricReport, auroc
from dtikit.optim import ParameterStore, read_checkpoint
from dtikit.rng import substream
from dtikit.splits import (
    EpisodeTask,
    SplitManifest,
    cluster_cross_domain_split,
    meta_unseen_split,
    random_split,
    sample_episode,
)
from dtikit.synth import SyntheticSpec, synth_generate
from dtikit.train import (
    EVAL_SEED,
    Featurizer,
    MissingCheckpoint,
    NumericFailure,
    build_model,
    build_prototype_head,
    encode_chunks,
    encode_pairs,
    manifest_sha256,
    meta_shot_curve,
    predict,
    screen,
    supervised_indices,
    train_adversarial,
    train_meta,
    train_supervised,
)

SMALL = {"model_preset": "small", "max_seq_len": 48, "seed": 0}
# An adversarial run on the cluster split below: 89 source-train records make
# three batches an epoch, and each batch draws all 20 target-val records, so
# every batch after an epoch's first reshuffles the target pool.
ACTIVE_CRITIC = {"stage": "cada", "lambda_adv": 1.0, "batch_size": 32}


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
def cluster_manifest(records):
    return cluster_cross_domain_split(records, seed=0)


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


def _in_dtype(cfg, encoder, dtype):
    """The encoder's model computing in `dtype`: a store of that dtype and
    an encoder of the same sizes and head, loaded with its weights."""
    store = ParameterStore(dtype)
    twin = DTIEncoder(store, replace(encoder.config, dtype=dtype),
                      np.random.default_rng(0), head=cfg.head)
    store.load_bytes(encoder.store.save_bytes())
    return store, twin


class TestEncodePairs:
    """The batched path against the per-pair oracle in `oracle.py`, at
    float64, and the paper preset's float32 compute against float64."""

    @staticmethod
    def _setup(records, preset, stage="vanilla", dtype=np.float64):
        """The preset's model computing in `dtype`: a paper model built in
        float32 and, for float64, loaded into a float64 store."""
        overrides = {"stage": stage, "model_preset": preset, "seed": 0}
        if preset == "small":
            overrides["max_seq_len"] = 48
        cfg = resolve_config({}, overrides)
        store, encoder = build_model(cfg)
        if store.dtype != dtype:
            store, encoder = _in_dtype(cfg, encoder, dtype)
        feat = Featurizer.build(records, cfg.encoder_config().max_seq_len)
        return cfg, store, encoder, feat

    @staticmethod
    def _batch(records, preset, feat):
        """Records with a repeated protein, a repeated drug and atom counts
        that differ, so the batch pads some molecules."""
        idxs = (list(range(40)) if preset == "small" else list(range(4))) + [5, 0]
        assert len({records[i].smiles for i in idxs}) < len(idxs)
        assert len({records[i].sequence for i in idxs}) < len(idxs)
        assert len({feat.drugs[records[i].smiles][0].shape[0] for i in idxs}) > 1
        return idxs

    @pytest.mark.parametrize("grad", [True, False])
    def test_matches_per_record_forward(self, records, grad):
        for preset in ("small", "paper"):
            self._check_outputs(records, grad, preset)

    def _check_outputs(self, records, grad, preset):
        for stage in ("vanilla", "regress"):
            cfg, _, encoder, feat = self._setup(records, preset, stage)
            idxs = self._batch(records, preset, feat)
            with contextlib.nullcontext() if grad else T.no_grad():
                batched = encode_pairs(encoder, feat, records, idxs)
                single = [
                    oracle.pair_forward(
                        encoder, feat.drugs[records[i].smiles],
                        feat.proteins[records[i].sequence],
                    )
                    for i in idxs
                ]
            out = batched.score
            assert out.requires_grad == grad
            assert out.data.shape == (len(idxs),)
            assert len(batched.level_weights) == len(KERNEL_SIZES)
            for b, (i, r) in enumerate(zip(idxs, single)):
                assert abs(out.data[b] - r.score.data[0]) <= 1e-10
                assert np.abs(batched.fused.data[b] - r.fused.data).max() <= 1e-10
                assert len(r.attention) == len(batched.level_weights)
                atoms = len(feat.drugs[records[i].smiles][0])
                for weights, y in zip(batched.level_weights, r.attention):
                    # the oracle's map is the pair's crop; the rest is zero
                    crop = np.s_[:, :atoms, : y.shape[2]]
                    assert np.abs(weights[b][crop] - y).max() <= 1e-10
                    rest = weights[b].copy()
                    rest[crop] = 0.0
                    assert not rest.any()

    def test_shared_lift_gradients_match_per_record_forward(self, records):
        """One mean-loss step of the batched path against the summed
        per-pair oracle: shared towers, lifts and padding sum the gradients
        in another order, so they agree to rounding."""
        for preset in ("small", "paper"):
            self._check_step(records, preset)

    def _check_step(self, records, preset):
        _, store, encoder, feat = self._setup(records, preset)
        idxs = self._batch(records, preset, feat)
        labels = np.array([records[i].label for i in idxs])
        output = encode_pairs(encoder, feat, records, idxs)
        T.tmean(T.bce_with_logits(output.score, labels)).backward()
        batched = {path: store[path].grad for path in store.paths()}
        store.zero_grad()
        for i, y in zip(idxs, labels):
            r = oracle.pair_forward(
                encoder, feat.drugs[records[i].smiles], feat.proteins[records[i].sequence]
            )
            T.mul(T.tsum(T.bce_with_logits(r.score, np.array([y]))), 1.0 / len(idxs)).backward()
        for path, grad in batched.items():
            assert grad is not None, path
            assert np.max(np.abs(grad - store[path].grad)) <= 1e-10, path

    # float32 against float64 from the same weights, relative to the
    # float64 values' largest magnitude: float32 rounds at 6e-8, and sums
    # over 2,304-wide joint rows, 600-column maps and per-sample norm
    # statistics grow that to about 1e-4 at most (2.6e-5 on the scores,
    # 1.5e-4 on the worst gradient), so 1e-3 leaves a margin of about 7
    F32_REL_TOL = 1e-3

    def test_float32_step_agrees_with_float64(self, records):
        """One paper-preset training step in the preset's float32 against
        the same step in float64: scores, fused rows, attention maps and
        every parameter gradient agree within F32_REL_TOL, and every
        float32 output and gradient is float32."""
        runs = {}
        for dtype in (np.float32, np.float64):
            _, store, encoder, feat = self._setup(records, "paper", dtype=dtype)
            idxs = self._batch(records, "paper", feat)
            labels = np.array([records[i].label for i in idxs])
            out = encode_pairs(encoder, feat, records, idxs)
            T.tmean(T.bce_with_logits(out.score, labels)).backward()
            runs[dtype] = (out, {path: store[path].grad for path in store.paths()})
        (out32, grads32), (out64, grads64) = runs[np.float32], runs[np.float64]

        def close(a, b, what):
            assert a.dtype == np.float32, what
            scale = np.abs(b).max()
            assert np.abs(a - b).max() <= self.F32_REL_TOL * scale, what

        close(out32.score.data, out64.score.data, "scores")
        close(out32.fused.data, out64.fused.data, "fused")
        for a, b in zip(out32.level_weights, out64.level_weights, strict=True):
            close(a, b, "attention")
        assert grads32.keys() == grads64.keys()
        for path, grad in grads32.items():
            close(grad, grads64[path], path)

    def test_tower_adopts_its_c_ordered_gradients(self, records, monkeypatch):
        """In one small-preset 64-pair training step, the convolutions'
        kernels and outputs and the norms after them adopt every gradient
        handed to them: all are C-ordered.  The only copies into them are
        of an input gradient cropped from a padded convolution's rows."""
        _, _, encoder, feat = self._setup(records, "small")
        conv, norm, accum = T.conv1d_relu, T.batch_stat_norm, T._accum
        tower = {}  # id -> node, kept alive so no id is reused
        copied = []

        def recording(op):
            def run(*args, **kw):
                out = op(*args, **kw)
                tower[id(out)] = out
                return out
            return run

        def recording_accum(t, g):
            first = t.requires_grad and t.grad is None
            accum(t, g)
            kernel = t._backward is None and t.data.ndim == 3
            if first and (id(t) in tower or kernel) and t.grad is not g:
                copied.append((kernel, g.flags.c_contiguous))

        monkeypatch.setattr(T, "conv1d_relu", recording(conv))
        monkeypatch.setattr(T, "batch_stat_norm", recording(norm))
        monkeypatch.setattr(T, "_accum", recording_accum)
        idxs = list(range(64))
        labels = np.array([records[i].label for i in idxs])
        T.tmean(T.bce_with_logits(encode_pairs(encoder, feat, records, idxs).score,
                                  labels)).backward()
        assert len(tower) > 8  # the drug tower's norms count too
        # (kernel, C-ordered): only outputs take copies, of cropped gradients
        assert all(c == (False, False) for c in copied)

    def test_cropped_attention_step_matches_the_block_path(self, records, monkeypatch):
        """A paper-preset step at max_seq_len 240, where each level-0 u map
        [120, 2304] of float32 exceeds ATTENTION_BLOCK_BYTES and so runs one
        protein at a time over its real residues only, gives the store the
        gradients the block path gives under a 1 GB budget, within 1e-4 of
        each gradient's largest magnitude."""
        cfg = resolve_config({}, {"stage": "vanilla", "seed": 0, "max_seq_len": 240})
        assert 120 * cfg.encoder_config().joint_dim * 4 > T.ATTENTION_BLOCK_BYTES
        feat = Featurizer.build(records, 240)
        idxs = list(range(12))
        labels = np.array([records[i].label for i in idxs])
        assert max(len(records[i].sequence) for i in idxs) < 240
        runs = []
        for budget in (T.ATTENTION_BLOCK_BYTES, 1 << 30):
            monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", budget)
            store, encoder = build_model(cfg)
            out = encode_pairs(encoder, feat, records, idxs)
            T.tmean(T.bce_with_logits(out.score, labels)).backward()
            runs.append({path: store[path].grad for path in store.paths()})
        cropped, blocked = runs
        assert cropped.keys() == blocked.keys()
        for path, grad in cropped.items():
            scale = np.abs(blocked[path]).max()
            assert np.abs(grad - blocked[path]).max() <= 1e-4 * scale, path

    def test_each_protein_is_lifted_once_per_call(self, records, monkeypatch):
        """Towers run once per call on every distinct entity, and each
        level's lift multiplies each protein's rows once per call: on the
        block path all P x L rows, on the per-protein path (level 0 of the
        paper preset at max_seq_len 240) only each protein's real rows.  An
        inference call yields every position once, in slices of at most
        `chunk` pairs, lifts each slice's own proteins, and its scores
        equal the training call's."""
        lifted = []  # (weight, rows) of each lift product
        towers = []  # (proteins, real rows per level) of each tower call
        lift = T._lift

        def counting_lift(x2, w, b):
            lifted.append((w, len(x2)))
            return lift(x2, w, b)

        def counting_towers(encoder):
            protein_levels = encoder.protein_levels

            def run(proteins):
                levels = protein_levels(proteins)
                towers.append((len(proteins), [list(real) for _, real in levels]))
                return levels

            monkeypatch.setattr(encoder, "protein_levels", run)

        def rows_per_level(store):
            """The lifted rows of each call of each level's lift."""
            weights = [store[f"joint/level{i}/protein/w"].data for i in range(len(KERNEL_SIZES))]
            return [[n for w, n in lifted if w is weight] for weight in weights]

        monkeypatch.setattr(T, "_lift", counting_lift)
        # level 0's [120, 2304] float32 maps run one protein at a time,
        # levels 1 and 2 ([60, 2304] and [30, 2304]) as one block
        cfg = resolve_config({}, {"stage": "vanilla", "seed": 0, "max_seq_len": 240})
        assert 120 * cfg.encoder_config().joint_dim * 4 > T.ATTENTION_BLOCK_BYTES
        assert 60 * cfg.encoder_config().joint_dim * 4 <= T.ATTENTION_BLOCK_BYTES
        store, encoder = build_model(cfg)
        counting_towers(encoder)
        feat = Featurizer.build(records, 240)
        for grad in (True, False):
            lifted.clear()
            towers.clear()
            with contextlib.nullcontext() if grad else T.no_grad():
                encode_pairs(encoder, feat, records, list(range(12)))
            [(n_proteins, reals)] = towers
            assert n_proteins > 1 and len(reals[0]) == n_proteins and max(reals[0]) < 120
            assert rows_per_level(store) == [reals[0], [n_proteins * 60], [n_proteins * 30]]

        cfg, store, encoder, feat = self._setup(records, "small")
        counting_towers(encoder)
        lengths = [cfg.encoder_config().max_seq_len >> (i + 1) for i in range(len(KERNEL_SIZES))]
        idxs = list(range(120)) + [5, 0]
        sequences = [records[i].sequence for i in idxs]
        n_proteins = len(set(sequences))
        assert n_proteins < len(idxs)
        for grad in (True, False):
            lifted.clear()
            towers.clear()
            with contextlib.nullcontext() if grad else T.no_grad():
                whole = encode_pairs(encoder, feat, records, idxs)
            assert [n for n, _ in towers] == [n_proteins]
            assert rows_per_level(store) == [[n_proteins * length] for length in lengths]

        chunk = 16
        lifted.clear()
        towers.clear()
        positions = []
        scores = np.full(len(idxs), np.nan)
        with T.no_grad():
            for rows, out in encode_chunks(encoder, feat, records, idxs, chunk):
                assert 0 < len(rows) <= chunk
                positions.extend(rows)
                scores[rows] = out.score.data
        assert sorted(positions) == list(range(len(idxs)))
        assert [n for n, _ in towers] == [n_proteins]
        in_order = sorted(sequences, key=list(dict.fromkeys(sequences)).index)
        slices = [in_order[j : j + chunk] for j in range(0, len(idxs), chunk)]
        lifts = [len(set(s)) for s in slices]
        assert max(lifts) <= chunk and sum(lifts) <= n_proteins + len(slices) - 1
        assert rows_per_level(store) == [[n * length for n in lifts] for length in lengths]
        assert np.abs(scores - whole.score.data).max() <= 1e-12


class TestMapLifetime:
    """Every attention map `bilinear_attention` returns, and every lift of
    protein rows it makes, is dead once the Adam step it fed has run, and
    before the next inference slice's joint stage starts: no step or slice
    keeps another's maps or lifts alive.  Each test runs on the block path
    and, under a zero block budget, one protein at a time."""

    BUDGETS = (T.ATTENTION_BLOCK_BYTES, 0)

    @pytest.fixture
    def kept(self, monkeypatch):
        refs = {"maps": [], "lifts": []}
        attention, lift = T.bilinear_attention, T._lift

        def recording(*args):
            joint, weights = attention(*args)
            refs["maps"].append(weakref.ref(weights))
            return joint, weights

        def recording_lift(*args):
            rows = lift(*args)
            refs["lifts"].append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(T, "bilinear_attention", recording)
        monkeypatch.setattr(T, "_lift", recording_lift)
        return refs

    @staticmethod
    def alive(kept) -> int:
        return sum(r() is not None for refs in kept.values() for r in refs)

    @staticmethod
    def on_path(kept, monkeypatch, budget) -> None:
        """Forget the references so far and take the path of `budget`."""
        monkeypatch.setattr(T, "ATTENTION_BLOCK_BYTES", budget)
        for refs in kept.values():
            refs.clear()

    @staticmethod
    def lifts_per_map(kept, budget) -> bool:
        """One lift per map on the block path, more one protein at a time."""
        n_maps, n_lifts = len(kept["maps"]), len(kept["lifts"])
        return n_lifts == n_maps if budget else n_lifts > n_maps

    @pytest.mark.parametrize("stage", ["vanilla", "cada", "meta"])
    def test_no_map_outlives_its_step(self, request, records, kept, monkeypatch, stage):
        alive = []
        adam_step = ParameterStore.adam_step

        def checked(store, lr):
            adam_step(store, lr)
            alive.append(self.alive(kept))

        monkeypatch.setattr(ParameterStore, "adam_step", checked)
        for budget in self.BUDGETS:
            self.on_path(kept, monkeypatch, budget)
            alive.clear()
            if stage == "vanilla":
                train_supervised(records, request.getfixturevalue("manifest"),
                                 small_config(stage="vanilla", epochs=1))
            elif stage == "cada":
                train_adversarial(records, request.getfixturevalue("cluster_manifest"),
                                  small_config(epochs=1, **ACTIVE_CRITIC))
            else:
                train_meta(records, request.getfixturevalue("meta_manifest"),
                           small_config(stage="meta", epochs=1, episodes_per_epoch=4),
                           no_warm_start=True)
            assert len(alive) > 1 and len(kept["maps"]) > 3
            assert self.lifts_per_map(kept, budget)
            assert alive == [0] * len(alive)

    def test_no_map_outlives_its_slice(self, records, kept, monkeypatch):
        _, encoder = build_model(small_config(stage="vanilla"))
        feat = Featurizer.build(records, 48)
        alive = []
        interact = DTIEncoder.interact

        def checked(encoder, *args):
            alive.append(self.alive(kept))
            return interact(encoder, *args)

        monkeypatch.setattr(DTIEncoder, "interact", checked)
        for budget in self.BUDGETS:
            self.on_path(kept, monkeypatch, budget)
            alive.clear()
            predict(encoder, feat, records, list(range(100)), batch_size=16)
            assert alive == [0] * 7 and len(kept["maps"]) == 7 * len(KERNEL_SIZES)
            assert self.lifts_per_map(kept, budget)
            assert self.alive(kept) == 0


class TestFloat32:
    """Every stage training in float32: nothing upcasts to float64, and
    checkpoints stay float64."""

    def test_every_stage_computes_in_float32_only(
        self, records, manifest, cluster_manifest, meta_manifest, float32_small, monkeypatch
    ):
        made, handed = set(), set()
        make, accum = T._make, T._accum

        def spy_make(data, parents, backward):
            made.add(np.asarray(data).dtype)
            return make(data, parents, backward)

        def spy_accum(t, g):
            handed.add((t.data.dtype, np.asarray(g).dtype))
            return accum(t, g)

        monkeypatch.setattr(T, "_make", spy_make)
        monkeypatch.setattr(T, "_accum", spy_accum)
        short = dict(epochs=1, lr=1e-3)
        vanilla = train_supervised(records, manifest, small_config(stage="vanilla", **short))
        train_supervised(records, manifest, small_config(stage="regress", **short))
        train_adversarial(records, cluster_manifest, small_config(epochs=1, **ACTIVE_CRITIC))
        meta_cfg = small_config(stage="meta", epochs=1, episodes_per_epoch=3, eval_episodes=4)
        meta = train_meta(records, meta_manifest, meta_cfg, no_warm_start=True)
        curve = meta_shot_curve(records, meta_manifest, meta_cfg, meta.encoder, meta.head,
                                meta.featurizer, shots=(1, 3), n_runs=1)
        scores = predict(vanilla.encoder, vanilla.featurizer, records, manifest.indices(None, "test"))
        assert made == {np.dtype(np.float32)}
        assert handed == {(np.dtype(np.float32), np.dtype(np.float32))}
        assert scores.dtype == np.float64
        assert all(type(rep.metrics["auroc"]) is float for rep in curve.values())
        assert all(type(v) is float for v in vanilla.history[0].val.values())
        for entry in read_checkpoint(vanilla.best_blob).values():
            assert entry.dtype == np.float64

    def test_checkpoints_load_strictly_across_dtypes(self, records, manifest, vanilla,
                                                    float32_small):
        """A float32-trained checkpoint loads strictly into a float64 model
        and a float64-trained one into a float32 model: the float64 store
        writes back the bytes it read, the float32 store their float32
        rounding, and the probabilities agree within 1e-5."""
        cfg = small_config(stage="vanilla", epochs=1, lr=1e-3)
        narrow = train_supervised(records, manifest, cfg)
        idxs = manifest.indices(None, "test")
        for (run_cfg, run), dtype in (((cfg, narrow), np.float64), (vanilla, np.float32)):
            assert run.encoder.store.dtype != dtype
            store, twin = _in_dtype(run_cfg, run.encoder, dtype)
            rounded = ParameterStore()
            for path, values in read_checkpoint(run.best_blob).items():
                rounded.parameter(path, values.astype(dtype))
            assert store.save_bytes() == rounded.save_bytes()
            want = predict(run.encoder, run.featurizer, records, idxs)
            got = predict(twin, run.featurizer, records, idxs)
            assert np.abs(got - want).max() <= 1e-5

    def test_encoder_and_store_dtypes_must_match(self):
        with pytest.raises(ConfigError, match="float32"):
            DTIEncoder(ParameterStore(np.float64), EncoderConfig(), np.random.default_rng(0),
                       head="classify")


class TestFreshModelBytes:
    """The checkpoint bytes of a freshly built seed-0 model.  No BLAS runs,
    only init draws, so a pin guards each variant's parameter paths, their
    order, their shapes and the draw order: what lets an older checkpoint
    load strictly into today's model."""

    PINNED = {
        "small-classify": "dca772823f45167502140a8370066541ead29363067f1d45326b33ef161b041f",
        "small-regress": "b6dd314ea900b4bb148a8bec6fca045c447d4768da2502fbd5cdc0f58f5316a4",
        "small-meta": "bbaf3d4cd9c83bfefdcedf756253b48c53a78a7e2b9f72f012f1c98b9683bc12",
        "small-cada": "296fb3cc9a4ed1802472082fe30822ce15bd49c3427da92e7f41a9d7b90ae569",
        "paper-classify": "cae682dbc4d9a9b747d2893d03df356c7a0b4fbae3402564d9e7f27296d1a165",
    }

    @pytest.mark.parametrize("variant", sorted(PINNED))
    def test_layout_is_pinned(self, variant):
        preset, stage = variant.split("-")
        stage = {"classify": "vanilla"}.get(stage, stage)
        cfg = resolve_config({}, {"model_preset": preset, "stage": stage, "seed": 0})
        store, _ = build_model(cfg)
        if stage == "meta":
            build_prototype_head(store, cfg)
        elif stage == "cada":
            DomainAdversary(store, substream(0, "model.adversary"),
                            feature_dim=cfg.encoder_config().fused_dim)
        digest = hashlib.sha256(store.save_bytes()).hexdigest()
        assert digest == self.PINNED[variant]


def _second_kernel(host: str) -> str:
    """An OpenBLAS kernel other than `host` that this CPU can run: Haswell
    where /proc/cpuinfo lists avx2 and fma, else Sandybridge where it lists
    avx; skips the calling test when there is none."""
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    flags = next((set(line.split(":", 1)[1].split()) for line in lines
                  if line.startswith("flags")), set())
    if host != "Haswell" and {"avx2", "fma"} <= flags:
        return "Haswell"
    if host != "Sandybridge" and "avx" in flags:
        return "Sandybridge"
    pytest.skip(f"this CPU runs no OpenBLAS kernel besides {host} that the test can force")


def test_reruns_are_byte_identical_under_a_second_blas_kernel():
    """Rerun identity, and test 07's zero-weight adversarial run matching
    the vanilla one, hold in a child process whose OpenBLAS runs a second
    kernel, forced through OPENBLAS_CORETYPE in the child's environment
    alone: the three checkpoints are byte-equal."""
    host = openblas_core()
    if host is None:
        pytest.skip("numpy's OpenBLAS does not report its kernel")
    kernel = _second_kernel(host)
    src = str(Path(dtikit.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("kernel_rerun.py"))],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    child = json.loads(proc.stdout)
    assert child["core"] == kernel
    assert len(child["sha256"]) == 3 and len(set(child["sha256"])) == 1, child["sha256"]


class TestArtifacts:
    @pytest.mark.parametrize(
        "split, train, overrides, kwargs",
        [
            ("manifest", train_supervised, {"stage": "vanilla"}, {}),
            ("cluster_manifest", train_adversarial, ACTIVE_CRITIC, {}),
            (
                "meta_manifest", train_meta, {"stage": "meta", "episodes_per_epoch": 5},
                {"no_warm_start": True},
            ),
        ],
        ids=["vanilla", "cada", "meta"],
    )
    def test_run_directory_contents(
        self, records, request, tmp_path, split, train, overrides, kwargs
    ):
        manifest = request.getfixturevalue(split)
        cfg = small_config(epochs=2, lr=1e-3, **overrides)
        out = tmp_path / "run"
        result = train(records, manifest, cfg, out=out, **kwargs)
        assert (out / "config.json").read_text() == cfg.snapshot_json()
        assert (out / "split_manifest.sha256").read_text().strip() == manifest_sha256(
            manifest
        )
        assert (out / "best.ckpt").read_bytes() == result.best_blob
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == cfg.epochs
        for line, log in zip(lines, result.history):
            assert json.loads(line) == json.loads(log.to_json())


class TestStageGuards:
    @pytest.mark.parametrize(
        "train, stages, kwargs",
        [
            (train_supervised, ("meta",), {}),
            (train_adversarial, ("regress", "meta"), {}),
            (train_meta, ("vanilla", "regress", "cada"), {"no_warm_start": True}),
        ],
        ids=["supervised", "adversarial", "meta"],
    )
    def test_entry_point_refuses_a_stage_it_does_not_train(
        self, records, manifest, tmp_path, train, stages, kwargs
    ):
        """The stage decides the head, so an entry point handed a stage it
        does not train refuses before writing a run directory that eval
        would reject."""
        for stage in stages:
            out = tmp_path / stage
            with pytest.raises(ConfigError):
                train(records, manifest, small_config(stage=stage, epochs=1), out=out, **kwargs)
            assert not out.exists(), stage


class TestAdversarial:
    def test_zero_weight_matches_supervised_exactly(self, records, manifest):
        cfg = small_config(stage="cada", epochs=2, lr=1e-3, lambda_adv=0.0)
        plain = train_supervised(records, manifest, cfg)
        adv = train_adversarial(records, manifest, cfg)
        assert adv.best_blob == plain.best_blob
        assert [log.to_json() for log in adv.history] == [
            log.to_json() for log in plain.history
        ]

    def test_active_critic_is_deterministic(self, records, cluster_manifest):
        cfg = small_config(epochs=2, lr=1e-3, **ACTIVE_CRITIC)
        pool = cluster_manifest.indices("target", "val")
        assert len(cluster_manifest.indices(None, "train")) > cfg.batch_size >= len(pool)
        first = train_adversarial(records, cluster_manifest, cfg)
        second = train_adversarial(records, cluster_manifest, cfg)
        assert first.best_blob == second.best_blob
        assert [log.to_json() for log in first.history] == [
            log.to_json() for log in second.history
        ]
        plain = train_adversarial(records, cluster_manifest, replace(cfg, lambda_adv=0.0))
        assert plain.best_blob != first.best_blob
        # the domain term moved the encoder, not just added critic entries
        assert not np.array_equal(
            predict(first.encoder, first.featurizer, records, pool),
            predict(plain.encoder, plain.featurizer, records, pool),
        )

    def test_active_critic_needs_unlabeled_target_pool(self, records, manifest):
        cfg = small_config(stage="cada", epochs=1, lambda_adv=1.0)
        with pytest.raises(ValueError):
            train_adversarial(records, manifest, cfg)


def per_episode_curve(records, manifest, cfg, encoder, head, feat, shots, n_runs):
    """The shot curve with one head call, on a stack of one episode, per
    episode and shot count."""
    k_max = max(shots)
    tasks = {}
    for tid in manifest.task_ids("target_test"):
        task = EpisodeTask.of(records, tid, manifest.tasks[tid]["records"])
        if (min(len(task.positives), len(task.negatives)) >= k_max
                and len(task.records) - 2 * k_max >= cfg.k_query):
            tasks[tid] = task
    task_ids = sorted(tasks)
    idxs = sorted({i for task in tasks.values() for i in task.records})
    per_run = {k: [] for k in shots}
    fused = np.empty((len(idxs), encoder.config.fused_dim))
    row = {i: j for j, i in enumerate(idxs)}
    with T.no_grad():
        for rows, out in encode_chunks(encoder, feat, records, idxs, cfg.batch_size):
            fused[rows] = out.fused.data
        for run in range(n_runs):
            rng = substream(EVAL_SEED, f"meta.eval.{run}")
            scores, labels = {k: [] for k in shots}, []
            for _ in range(cfg.eval_episodes):
                task = tasks[task_ids[int(rng.integers(len(task_ids)))]]
                ep = sample_episode(task, k_max, cfg.k_query, rng)
                queries = T.index_select(fused, 0, [[row[i] for i in ep.query]])
                labels += [records[i].label for i in ep.query]
                for k in shots:
                    sub = ep.support[:k] + ep.support[k_max : k_max + k]
                    probs, _ = head.episode_probabilities(
                        T.index_select(fused, 0, [[row[i] for i in sub]]),
                        np.array([records[i].label for i in sub]),
                        queries,
                    )
                    scores[k].extend(probs.data[0, :, 1])
            for k in shots:
                per_run[k].append(auroc(np.array(scores[k]), np.array(labels)))
    return {
        k: MetricReport(metrics={"auroc": float(np.mean(v))}, spread={"auroc": float(np.std(v))})
        for k, v in per_run.items()
    }


class TestMeta:
    def test_refuses_to_start_cold_silently(self, records, meta_manifest):
        cfg = small_config(stage="meta", epochs=1)
        with pytest.raises(MissingCheckpoint):
            train_meta(records, meta_manifest, cfg)

    def test_refuses_contradictory_warm_start(self, records, meta_manifest):
        cfg = small_config(stage="meta", epochs=1)
        with pytest.raises(ConfigError):
            train_meta(records, meta_manifest, cfg, warm_blob=b"", no_warm_start=True)

    def test_trains_and_returns_prototype_head(self, records, meta_manifest):
        cfg = small_config(stage="meta", epochs=1, episodes_per_epoch=10)
        result = train_meta(records, meta_manifest, cfg, no_warm_start=True)
        assert result.head is not None
        assert len(result.history) == 1
        assert "query_accuracy" in result.history[0].train
        assert not result.history[0].val  # the episodes it scored were training ones
        assert "train_query_accuracy" in json.loads(result.history[0].to_json())

    def test_stacked_shot_curve_equals_the_per_episode_loop(self, monkeypatch):
        """Seed 0 on the 2,000-record protein-novel split: one head call
        per run and shot count gives, report for report, the curve of one
        call per episode and shot count."""
        big = synth_generate(SyntheticSpec(), seed=0).records
        split = meta_unseen_split(big, kind="protein", seed=0)
        cfg = small_config(stage="meta", epochs=1, episodes_per_epoch=5)
        result = train_meta(big, split, cfg, no_warm_start=True)
        args = (big, split, cfg, result.encoder, result.head, result.featurizer)
        want = per_episode_curve(*args, shots=(1, 3, 5), n_runs=2)
        calls = []
        scored = result.head.episode_probabilities
        monkeypatch.setattr(
            result.head, "episode_probabilities", lambda *a: calls.append(1) or scored(*a)
        )
        assert meta_shot_curve(*args, shots=(1, 3, 5), n_runs=2) == want
        assert len(calls) == 2 * 3

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

    def test_failed_run_closes_its_metrics_file(self, records, manifest, tmp_path):
        cfg = replace(small_config(stage="vanilla", epochs=2), lr=float("nan"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericFailure):
                train_supervised(records, manifest, cfg, out=tmp_path / "run")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert (tmp_path / "run" / "metrics.jsonl").exists()


class TestScreen:
    def test_top_slice_is_sorted_and_sized(self, vanilla, corpus, records, manifest, tmp_path):
        cls_cfg, cls = vanilla
        cfg = small_config(stage="regress", epochs=2, lr=1e-3)
        corpus.to_csv(tmp_path / "corpus.csv")
        affinity = load_interactions_detailed(
            tmp_path / "corpus.csv", CsvSchema(label_col="affinity", label_kind=AFFINITY)
        ).records
        reg = train_supervised(affinity, manifest, cfg)
        test = manifest.indices(None, "test")
        top, scores = screen(
            records, test,
            (cls.encoder, cls.featurizer, cls_cfg.batch_size),
            (reg.encoder, reg.featurizer, cfg.batch_size),
        )
        assert len(top) == int(np.ceil(0.1 * len(test)))
        assert len(top) == len(scores)
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
        assert set(top) <= set(test)

    def test_featurizer_covers_every_entity(self, records):
        feat = Featurizer.build(records, 48)
        assert {r.smiles for r in records} <= set(feat.drugs)
        assert {r.sequence for r in records} <= set(feat.proteins)
