"""Config loading, stage defaults, precedence, and validation."""

import json

import pytest

from dtikit.config import (
    CONFIG_VERSION,
    ConfigError,
    RunConfig,
    load_config,
    resolve_config,
    save_snapshot,
)
from dtikit.encoder import EncoderConfig


def write(tmp_path, payload):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(payload))
    return p


class TestStageDefaults:
    def test_vanilla_defaults(self):
        cfg = resolve_config({"stage": "vanilla"})
        assert (cfg.lr, cfg.batch_size, cfg.epochs) == (5e-5, 64, 100)

    def test_cada_matches_vanilla(self):
        a = resolve_config({"stage": "vanilla"})
        b = resolve_config({"stage": "cada"})
        assert (a.lr, a.batch_size, a.epochs) == (b.lr, b.batch_size, b.epochs)

    def test_meta_defaults(self):
        cfg = resolve_config({"stage": "meta"})
        assert (cfg.lr, cfg.batch_size, cfg.epochs) == (1e-4, 32, 50)

    def test_file_value_beats_default(self):
        cfg = resolve_config({"stage": "meta", "train.lr": 0.01})
        assert cfg.lr == 0.01

    def test_override_beats_file(self):
        cfg = resolve_config({"train.lr": 0.01}, overrides={"lr": 0.5})
        assert cfg.lr == 0.5

    def test_none_overrides_are_skipped(self):
        cfg = resolve_config({"train.lr": 0.01}, overrides={"lr": None})
        assert cfg.lr == 0.01

    def test_stage_can_come_from_override(self):
        cfg = resolve_config({}, overrides={"stage": "meta"})
        assert cfg.epochs == 50


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"train.momentum": 0.9})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown override"):
            resolve_config({}, overrides={"momentum": 0.9})

    def test_bad_stage(self):
        with pytest.raises(ConfigError, match="stage"):
            resolve_config({"stage": "finetune"})

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match="integer"):
            resolve_config({"train.batch_size": "64"})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            resolve_config({"train.epochs": True})

    def test_int_promotes_to_float(self):
        cfg = resolve_config({"train.lr": 1})
        assert cfg.lr == 1.0 and isinstance(cfg.lr, float)

    def test_version_mismatch(self):
        with pytest.raises(ConfigError, match="config_version"):
            resolve_config({"config_version": CONFIG_VERSION + 1})

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError, match="lambda_adv"):
            resolve_config({"train.lambda_adv": -0.1})

    def test_zero_lr_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            resolve_config({"train.lr": 0.0})

    def test_bad_warmup_fraction(self):
        with pytest.raises(ConfigError, match="warmup_fraction"):
            resolve_config({"train.warmup_fraction": 0.0})

    def test_bad_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            resolve_config({"model.preset": "huge"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            resolve_config({"train.lr": value})
        with pytest.raises(ConfigError, match="finite"):
            resolve_config({}, overrides={"lambda_adv": value})

    def test_non_finite_json_literals_rejected(self, tmp_path):
        for text in ('{"train.lr": NaN}', '{"train.lambda_adv": Infinity}'):
            p = tmp_path / "run.json"
            p.write_text(text)
            with pytest.raises(ConfigError, match="finite"):
                resolve_config(load_config(p))

    def test_version_1_snapshot_refused_by_version(self):
        old = {"config_version": 1, "model.max_atoms": 0, "proto.restrict_softmax": True}
        with pytest.raises(ConfigError, match="config_version 1 not supported"):
            resolve_config(old)

    def test_encoder_geometry_error_is_the_config_error(self):
        with pytest.raises(ConfigError, match="divisible"):
            EncoderConfig(joint_dim=10, joint_pool=3)


class TestFileRoundTrip:
    def test_load_and_resolve(self, tmp_path):
        p = write(tmp_path, {"stage": "cada", "train.lambda_adv": 0.5, "seed": 7})
        cfg = resolve_config(load_config(p))
        assert cfg.stage == "cada"
        assert cfg.lambda_adv == 0.5
        assert cfg.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{stage:")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(p)

    def test_non_object_json(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="flat JSON object"):
            load_config(p)

    def test_snapshot_round_trips(self, tmp_path):
        cfg = resolve_config({"stage": "meta", "meta.k_shot": 3})
        snap = tmp_path / "snap.json"
        save_snapshot(cfg, snap)
        again = resolve_config(load_config(snap))
        assert again == cfg

    def test_snapshot_is_deterministic(self):
        a = resolve_config({"stage": "meta"}).snapshot_json()
        b = resolve_config({"stage": "meta"}).snapshot_json()
        assert a == b


class TestEncoderWiring:
    def test_small_preset_with_overrides(self):
        cfg = resolve_config(
            {"model.preset": "small", "model.max_seq_len": 64, "model.use_gau": False}
        )
        enc = cfg.encoder_config()
        assert enc.max_seq_len == 64
        assert enc.use_gau is False
        assert enc.embed_dim == 12

    def test_paper_preset_defaults(self):
        enc = RunConfig().encoder_config()
        assert enc.max_seq_len == 1200
        assert enc.embed_dim == 128
