"""Strict config parsing, CLI exit codes, and output determinism."""

import json

import pytest

from quadenhance.cli import main
from quadenhance.config import (AblateConfig, DatasetSpec, GradcheckConfig,
                                ModelSpec, MonteCarloConfig, OptimizerSpec,
                                TrainConfig)
from quadenhance.errors import ConfigError


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*typo"):
            MonteCarloConfig.from_dict({"samples": 10, "typo": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ModelSpec.from_dict({"type": "qe_mlp", "layer_dims": [2, 2], "extra": True})

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError, match="unknown dataset"):
            DatasetSpec.from_dict({"name": "mnist9000"})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key"):
            OptimizerSpec.from_dict({"algo": "sgd"})

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigError, match="unknown optimizer"):
            OptimizerSpec.from_dict({"algo": "lion", "lr": 0.1})

    def test_train_config_full_parse(self):
        cfg = TrainConfig.from_dict({
            "model": {"type": "qe_mlp", "layer_dims": [2, 2], "activation": "identity"},
            "dataset": {"name": "xor"},
            "optimizer": {"algo": "sgd", "lr": 0.1},
            "epochs": 5, "batch_size": 4})
        assert cfg.model.options["layer_dims"] == (2, 2)
        assert cfg.dtype == "f32"

    def test_ablate_needs_three_seeds(self):
        with pytest.raises(ConfigError, match="3 seeds"):
            AblateConfig.from_dict({
                "k_sets": [[1]], "dims": [4], "seeds": [0, 1],
                "optimizer": {"algo": "sgd", "lr": 0.1},
                "epochs": 1, "batch_size": 4})

    def test_gradcheck_precision_defaults(self):
        assert GradcheckConfig.from_dict({}).tol == 1e-4
        assert GradcheckConfig.from_dict({"precision": "f32"}).tol == 1e-2

    def test_gradcheck_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown families"):
            GradcheckConfig.from_dict({"families": ["resnet"]})


class TestExitCodes:
    def test_bad_json_is_config_error(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["montecarlo", "--config", str(p)]) == 2

    def test_unknown_key_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sample": 10}))
        assert main(["montecarlo", "--config", str(p)]) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["montecarlo", "--config", str(tmp_path / "absent.json")]) == 3

    def test_train_requires_config(self):
        assert main(["train"]) == 2

    def test_failing_check_is_exit_one(self, tmp_path):
        cfg = tmp_path / "g.json"
        # absurd tolerance forces a reported failure
        cfg.write_text(json.dumps({"instances": 1, "tol": 1e-18,
                                   "families": ["qe_layer"]}))
        assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_passing_check_is_exit_zero(self, tmp_path):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"instances": 2, "families": ["qe_layer"]}))
        assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_cost_unknown_preset(self, tmp_path):
        assert main(["cost", "--preset", "nope", "--out", str(tmp_path)]) == 2

    def test_cost_preset_and_config_together_is_config_error(self, tmp_path):
        # the config need not exist: giving both is refused before any read
        assert main(["cost", "--preset", "layer-192", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 2


class TestOutputDeterminism:
    def _mc(self, tmp_path, name):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"samples": 200_000, "seed": 11}))
        out = tmp_path / name
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == 0
        return (out / "montecarlo.csv").read_bytes()

    def test_montecarlo_rerun_byte_identical(self, tmp_path):
        assert self._mc(tmp_path, "a") == self._mc(tmp_path, "b")

    def test_cost_rerun_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["cost", "--preset", "layer-192", "--out", str(out)]) == 0
            outs.append((out / "cost.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_train_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({
            "model": {"type": "qe_mlp", "layer_dims": [2, 2], "activation": "identity"},
            "dataset": {"name": "xor"},
            "optimizer": {"algo": "sgd", "lr": 0.1},
            "epochs": 20, "batch_size": 4, "seed": 3}))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(((out / "metrics.csv").read_bytes(),
                          (out / "final.qen1").read_bytes(),
                          (out / "best.qen1").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"samples": 100_000, "seed": 1}))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["montecarlo", "--config", str(cfg), "--out", str(out1)])
        main(["montecarlo", "--config", str(cfg), "--seed", "2", "--out", str(out2)])
        assert (out1 / "montecarlo.csv").read_bytes() != (out2 / "montecarlo.csv").read_bytes()


def test_oracle_equiv_cli(tmp_path):
    cfg = tmp_path / "oe.json"
    cfg.write_text(json.dumps({"instances": 25, "seed": 5}))
    out = tmp_path / "o"
    assert main(["oracle-equiv", "--config", str(cfg), "--out", str(out)]) == 0
    header, row = (out / "oracle_equiv.csv").read_text().strip().splitlines()
    assert header.startswith("instances,")
    assert row.endswith(",1")


def test_ablate_cli_grid_shape(tmp_path):
    cfg = tmp_path / "ab.json"
    cfg.write_text(json.dumps({
        "k_sets": [[], [1]], "dims": [4, 6], "seeds": [0, 1, 2],
        "optimizer": {"algo": "adam", "lr": 0.02},
        "epochs": 30, "batch_size": 32, "dataset_size": 64}))
    out = tmp_path / "o"
    assert main(["ablate-k", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "k_set,d4,d6"
    assert len(lines) == 3                      # header + one row per shift set
    assert all(len(l.split(",")) == 3 for l in lines)
