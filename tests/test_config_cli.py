"""Strict config parsing, CLI exit codes, and output determinism."""

import copy
import inspect
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from quadenhance import cli
from quadenhance.checks import SweepResult
from quadenhance.cli import main
from quadenhance.config import (AblateConfig, CostConfig, DatasetSpec, GradcheckConfig,
                                ModelSpec, MonteCarloConfig, OptimizerSpec,
                                OracleEquivConfig, TrainConfig)
from quadenhance.datasets import BUILDERS
from quadenhance.errors import ConfigError, UsageError
from quadenhance.models import MODELS


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

    @pytest.mark.parametrize("raw, message", [
        ({"algo": "sgd", "lr": 0}, "ablate.optimizer.lr: must be positive, got 0.0"),
        ({"algo": "sgd", "lr": None}, "ablate.optimizer.lr: expected float, got None"),
        ({"algo": "lion", "lr": 0.1}, "ablate.optimizer.algo: unknown optimizer 'lion'"),
    ], ids=["range", "type", "algo"])
    def test_optimizer_errors_name_their_section(self, raw, message):
        with pytest.raises(ConfigError) as exc:
            OptimizerSpec.from_dict(raw, "ablate.optimizer")
        assert str(exc.value) == message

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

    def test_too_deeply_nested_json_is_config_error(self, tmp_path, capsys):
        # json.load raises RecursionError here, which is not a ValueError
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000 + "]" * 100000)
        assert main(["montecarlo", "--config", str(p)]) == 2
        assert f"{p}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"samples": ' + b"1" * 5000 + b"}",
                                         b'{"seed": 1, "note": "\xe9"}'])
    def test_unreadable_json_is_config_error(self, tmp_path, content):
        p = tmp_path / "c.json"
        p.write_bytes(content)
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

    @pytest.mark.parametrize("body,message", [
        (b"x1,x2,y\n0,1,0\n\xe9,0,1\n", "not UTF-8"),         # Latin-1
        ("x1,x2,y\n0,1,0\n".encode("utf-16"), "not UTF-8"),      # \xff\xfe BOM
        (b"x1,x2,y\n0,1,0\n1,nan,1\n", "d.csv:3: non-finite cell"),
        (b"x1,x2,y\n0,-inf,0\n1,0,1\n", "d.csv:2: non-finite cell"),
    ], ids=["latin-1", "utf-16-bom", "nan", "-inf"])
    def test_unreadable_csv_is_io_error(self, tmp_path, capsys, body, message):
        (tmp_path / "d.csv").write_bytes(body)
        cfg = {**_TRAIN, "model": {"type": "qe_mlp", "layer_dims": [2, 2]},
               "dataset": {"name": "csv", "path": str(tmp_path / "d.csv"), "label_column": "y"}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    def test_cost_unknown_preset(self, tmp_path):
        assert main(["cost", "--preset", "nope", "--out", str(tmp_path)]) == 2

    def test_cost_config_in_code_rejects_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset 'nope'.*layer-192.*vit-m-ffn"):
            CostConfig(preset="nope")

    def test_cost_takes_no_seed(self, tmp_path, capsys):
        # cost builds its model at seed 0; a seed flag would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--preset", "layer-192", "--seed", "123", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_cost_preset_and_config_together_is_config_error(self, tmp_path):
        # the config need not exist: giving both is refused before any read
        assert main(["cost", "--preset", "layer-192", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 2


def test_parser_is_built_once_and_looks_handlers_up_per_call(monkeypatch):
    """The cached parser maps a subcommand to its name, so a handler
    re-bound after the parser was built (as a tracer does) is the one run."""
    assert cli.build_parser() is cli.build_parser()
    calls = []
    monkeypatch.setitem(cli.COMMANDS, "montecarlo", lambda args: calls.append(args.seed) or 0)
    assert main(["montecarlo", "--seed", "4"]) == 0
    assert calls == [4]


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

    @staticmethod
    def _train_twice(tmp_path, raw):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(raw))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(((out / "metrics.csv").read_bytes(),
                          (out / "final.qen1").read_bytes(),
                          (out / "best.qen1").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_train_rerun_byte_identical(self, tmp_path):
        self._train_twice(tmp_path, {
            "model": {"type": "qe_mlp", "layer_dims": [2, 2], "activation": "identity"},
            "dataset": {"name": "xor"},
            "optimizer": {"algo": "sgd", "lr": 0.1},
            "epochs": 20, "batch_size": 4, "seed": 3})

    # sigmoid calls np.exp, whose bits depend on the CPU's dispatch target,
    # so these reruns pin no digest
    def test_swiglu_rerun_byte_identical(self, tmp_path):
        self._train_twice(tmp_path, {
            "model": {"type": "swiglu", "n": 2, "d": 2},
            "dataset": {"name": "circles", "classes": 2, "size": 40, "noise": 0.1, "seed": 3,
                        "valid_fraction": 0.5},
            "optimizer": {"algo": "sgd", "lr": 1}, "epochs": 2, "batch_size": 4})

    def test_csv_regression_rerun_byte_identical(self, tmp_path):
        rows = [(i % 3 - 1, (i * 7) % 5 / 4, i / 10) for i in range(12)]
        (tmp_path / "table.csv").write_text(
            "a,b,c,y\n" + "".join(f"{a},{b},{c},{a * b - c}\n" for a, b, c in rows))
        self._train_twice(tmp_path, {
            "model": {"type": "qe_mlp", "layer_dims": [3, 4, 1], "exempt_final": True},
            "dataset": {"name": "csv", "path": str(tmp_path / "table.csv"), "label_column": "y",
                        "has_header": True, "classification": False, "valid_fraction": 0.5},
            "optimizer": {"algo": "sgd", "lr": 0.1}, "epochs": 2, "batch_size": 4})

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


def test_oracle_equiv_cli_without_config_runs_the_defaults(tmp_path):
    out = tmp_path / "o"
    assert main(["oracle-equiv", "--out", str(out)]) == 0
    row = (out / "oracle_equiv.csv").read_text().splitlines()[1]
    assert row.startswith("1000,0,f64,1.0e-12,") and row.endswith(",1")


def test_oracle_equiv_cli_failing_sweep_exits_1_naming_the_seed(tmp_path, monkeypatch, capsys):
    failing = SweepResult(instances=3, seed=0, precision="f64", tol=1e-12,
                          max_dev_chain=1e-3, max_dev_lambda=0.0, worst_seed=77)
    monkeypatch.setattr(cli, "oracle_chain_sweep", lambda cfg: failing)
    assert main(["oracle-equiv", "--out", str(tmp_path / "o")]) == 1
    assert "replay the worst instance with seed 77" in capsys.readouterr().out
    assert (tmp_path / "o" / "oracle_equiv.csv").read_text().endswith(",77,0\n")


def test_other_package_error_exits_1(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise UsageError("nothing to replay")

    monkeypatch.setattr(cli, "run_montecarlo", broken)
    assert main(["montecarlo", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: nothing to replay\n"


def test_ablate_cli_seed_override_shifts_every_seed(tmp_path):
    cfg = tmp_path / "ab.json"
    cfg.write_text(json.dumps({**VALID["ablate-k"], "k_sets": [[1]]}))
    out = tmp_path / "o"
    assert main(["ablate-k", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    assert json.loads((out / "run_config.json").read_text())["seeds"] == [5, 6, 7]


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


# ---------------------------------------------------------------------------
# value types and ranges
# ---------------------------------------------------------------------------

_TRAIN = {
    "model": {"type": "qe_mlp", "layer_dims": [4, 3], "activation": "relu",
              "shifts": [1, -1], "exempt_final": False},
    "dataset": {"name": "quadratic_target", "n": 4, "d": 3, "shifts": [1], "seed": 1,
                "size": 16, "valid_fraction": 0.25},
    "optimizer": {"algo": "adam", "lr": 0.01, "beta1": 0.9, "beta2": 0.99, "eps": 1e-8},
    "epochs": 1, "batch_size": 4, "seed": 0, "dtype": "f64"}

# valid configs, each key given unless it may be null (MLPConfig.enhancer,
# AblateConfig.input_dim), so any value of another JSON type is wrong
VALID = {
    "train": _TRAIN,
    "train-quadranet": {**_TRAIN, "model": {"type": "quadranet", "n": 2, "d": 3, "bias": True},
                        "dataset": {"name": "blobs", "classes": 3, "size": 30, "noise": 0.5,
                                    "seed": 2, "valid_fraction": 0.2}},
    "train-swiglu-csv": {**_TRAIN, "model": {"type": "swiglu", "n": 2, "d": 2},
                         "dataset": {"name": "csv", "path": "t.csv", "label_column": "y",
                                     "has_header": True, "classification": True,
                                     "valid_fraction": 0.2}},
    "train-idx": {**_TRAIN, "dataset": {"name": "idx", "images": "i.idx", "labels": "l.idx",
                                        "valid_fraction": 0.0}},
    "ablate-k": {"k_sets": [[1], [-1, 1]], "dims": [4], "seeds": [0, 1, 2],
                 "optimizer": {"algo": "sgd", "lr": 0.1}, "epochs": 1, "batch_size": 4,
                 "dataset_size": 16, "target_shifts": [1], "dtype": "f32"},
    "gradcheck": {"families": ["qe_layer"], "instances": 1, "tol": 1e-4, "step": 1e-6,
                  "precision": "f64", "seed": 0},
    "oracle-equiv": {"instances": 2, "seed": 0, "precision": "f64", "max_dim": 4},
    "montecarlo": {"v_list": [4.0], "samples": 100, "seed": 0},
    "cost": {"model": {"type": "qe_mlp", "layer_dims": [3, 2]}},
    "cost-preset": {"preset": "layer-192"},
}
PARSERS = {"train": TrainConfig, "ablate-k": AblateConfig, "gradcheck": GradcheckConfig,
           "oracle-equiv": OracleEquivConfig, "montecarlo": MonteCarloConfig, "cost": CostConfig}
WRONG = [None, True, "x", 2.5, [1], {"a": 1}]


def _command(case: str) -> str:
    return next(c for c in PARSERS if case.startswith(c))


def _paths(value, prefix=()):
    """Every key and list element below ``value``, as index paths."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _with(value, path, new):
    if not path:
        return new
    out = copy.deepcopy(value)
    _get(out, path[:-1])[path[-1]] = new
    return out


def _kind(v) -> str:
    return "bool" if isinstance(v, bool) else type(v).__name__


SLOTS = [(case, path) for case, raw in VALID.items() for path in _paths(raw)]


@pytest.mark.parametrize("case", sorted(VALID))
def test_valid_configs_parse(case):
    PARSERS[_command(case)].from_dict(VALID[case])


@given(slot=st.sampled_from(SLOTS), wrong=st.sampled_from(WRONG))
@settings(max_examples=300, deadline=None)
def test_wrong_json_type_is_config_error(tmp_path_factory, slot, wrong):
    case, path = slot
    assume(_kind(wrong) != _kind(_get(VALID[case], path)))
    raw = _with(VALID[case], path, wrong)
    command = _command(case)
    with pytest.raises(ConfigError):
        PARSERS[command].from_dict(raw)
    tmp = tmp_path_factory.mktemp("wrong")
    (tmp / "c.json").write_text(json.dumps(raw))
    argv = [command, "--config", str(tmp / "c.json"), "--out", str(tmp / "o")]
    assert main(argv) == 2


def test_config_parameters_are_annotated():
    # the parser reads each key's type from these annotations
    sources = [(s, ()) for s in (*BUILDERS.values(), *PARSERS.values(), OptimizerSpec)]
    sources += [(m, ("seed", "dtype")) for m in MODELS.values()]     # the run sets these
    for source, skip in sources:
        for name, p in inspect.signature(source).parameters.items():
            if name not in skip:
                assert p.annotation is not inspect.Parameter.empty, f"{source.__name__}({name})"


def _train(**changes):
    raw = copy.deepcopy(_TRAIN)
    for path, value in changes.items():
        raw = _with(raw, tuple(path.split("__")), value)
    return raw


PROBES = {
    # wrong types
    "epochs-string": ("train", _train(epochs="two"), "train.epochs: expected int, got 'two'"),
    "lr-null": ("train", _train(optimizer__lr=None), "train.optimizer.lr: expected float"),
    "shifts-int": ("train", _train(dataset__shifts=1), "train.dataset.shifts: expected tuple"),
    "size-string": ("train", {**_TRAIN, "dataset": {"name": "blobs", "size": "300"}},
                    "train.dataset.size: expected int"),
    "target-no-n": ("train", {**_TRAIN, "dataset": {"name": "quadratic_target"}},
                    "missing required key 'n'"),
    "samples-string": ("montecarlo", {"samples": "many"}, "montecarlo.samples: expected int"),
    "cost-n-string": ("cost", {"model": {"type": "quadranet", "n": "x", "d": 2}},
                      "cost.model.n: expected int"),
    "instances-float": ("oracle-equiv", {"instances": 2.7}, "oracle_equiv.instances: expected int"),
    "epochs-integral-float": ("train", _train(epochs=2.0), "train.epochs: expected int"),
    "epochs-bool": ("train", _train(epochs=True), "train.epochs: expected int"),
    "lr-string": ("train", _train(optimizer__lr="0.1"), "train.optimizer.lr: expected float"),
    "label-column-float": ("train", {**_TRAIN, "dataset": {"name": "csv", "path": "t.csv",
                                                           "label_column": 1.5}},
                           "label_column: expected int | str"),
    "model-not-object": ("train", _train(model=[1]), "train.model: expected an object"),
    "dataset-name-list": ("train", _train(dataset__name=["xor"]), "unknown dataset"),
    # out-of-range values
    "valid-fraction-one": ("train", _train(dataset__valid_fraction=1.0),
                           "train.dataset: valid_fraction must lie in [0, 1)"),
    "valid-fraction-negative": ("train", _train(dataset__valid_fraction=-0.5),
                                "train.dataset: valid_fraction must lie in [0, 1)"),
    "max-dim-one": ("oracle-equiv", {"max_dim": 1}, "oracle_equiv.max_dim: must be >= 2, got 1"),
    "oracle-instances-zero": ("oracle-equiv", {"instances": 0},
                              "oracle_equiv.instances: must be >= 1, got 0"),
    "oracle-instances-negative": ("oracle-equiv", {"instances": -1},
                                  "oracle_equiv.instances: must be >= 1, got -1"),
    "gradcheck-instances-zero": ("gradcheck", {"instances": 0},
                                 "gradcheck.instances: must be >= 1, got 0"),
    "gradcheck-step-zero": ("gradcheck", {"step": 0}, "gradcheck.step: must be > 0"),
    "gradcheck-tol-zero": ("gradcheck", {"tol": 0}, "gradcheck.tol: must be > 0"),
    "ablate-dtype": ("ablate-k", {**VALID["ablate-k"], "dtype": "f16"}, "ablate.dtype: must be"),
    "ablate-no-dims": ("ablate-k", {**VALID["ablate-k"], "dims": []},
                       "ablate.dims: must name at least one dim"),
    "ablate-dim-one": ("ablate-k", {**VALID["ablate-k"], "dims": [4, 1], "epochs": 200},
                       "ablate.dims[1]: must be >= 2, got 1"),
    "ablate-k-set-square": ("ablate-k", {**VALID["ablate-k"], "k_sets": [[1], [4]], "epochs": 200},
                            "ablate.k_sets[1]: shift 4 reduces to 0 mod 4"),
    "ablate-k-set-square-second-dim": ("ablate-k", {**VALID["ablate-k"], "k_sets": [[1], [-6]],
                                                    "dims": [4, 6], "epochs": 200},
                                       "ablate.k_sets[1]: shift -6 reduces to 0 mod 6"),
    "ablate-k-set-duplicate": ("ablate-k", {**VALID["ablate-k"], "k_sets": [[-1, 1, -1]],
                                            "epochs": 200},
                               "ablate.k_sets[0]: duplicate shifts in [-1, 1, -1]"),
    "ablate-seeds-repeated": ("ablate-k", {**VALID["ablate-k"], "seeds": [0, 0, 0], "epochs": 200},
                              "ablate.seeds[1]: repeats entry 0"),
    "ablate-dims-repeated": ("ablate-k", {**VALID["ablate-k"], "dims": [4, 6, 4], "epochs": 200},
                             "ablate.dims[2]: repeats entry 0"),
    "ablate-k-sets-repeated": ("ablate-k", {**VALID["ablate-k"], "k_sets": [[1], [-1, 1], [-1, 1]],
                                            "epochs": 200},
                               "ablate.k_sets[2]: repeats entry 1"),
    "ablate-target-square": ("ablate-k", {**VALID["ablate-k"], "target_shifts": [4], "epochs": 200},
                             "ablate.target_shifts: shift 4 reduces to 0 mod 4"),
    "ablate-target-duplicate": ("ablate-k", {**VALID["ablate-k"], "target_shifts": [2, 2],
                                             "epochs": 200},
                                "ablate.target_shifts: duplicate shifts in [2, 2]"),
    "ablate-input-dim-zero": ("ablate-k", {**VALID["ablate-k"], "input_dim": 0},
                              "ablate.input_dim: must be >= 2, got 0"),
    "ablate-dataset-size-zero": ("ablate-k", {**VALID["ablate-k"], "dataset_size": 0},
                                 "ablate.dataset_size: must be >= 1, got 0"),
    "ablate-epochs-zero": ("ablate-k", {**VALID["ablate-k"], "epochs": 0},
                           "ablate.epochs: must be >= 1, got 0"),
    "ablate-batch-size-zero": ("ablate-k", {**VALID["ablate-k"], "batch_size": 0},
                               "ablate.batch_size: must be >= 1, got 0"),
    "train-epochs-zero": ("train", _train(epochs=0), "train.epochs: must be >= 1, got 0"),
    "train-batch-size-zero": ("train", _train(batch_size=0),
                              "train.batch_size: must be >= 1, got 0"),
    "lr-zero": ("train", _train(optimizer__lr=0), "train.optimizer.lr: must be positive, got 0.0"),
    "ablate-lr-zero": ("ablate-k", {**VALID["ablate-k"], "optimizer": {"algo": "sgd", "lr": 0}},
                       "ablate.optimizer.lr: must be positive, got 0.0"),
    "valid-fraction-no-train-rows": ("train", {**_TRAIN, "dataset": {
        "name": "blobs", "classes": 2, "size": 4, "valid_fraction": 0.9}},
        "train.dataset: valid_fraction 0.9 leaves none of 4 rows"),
    "blobs-zero-classes": ("train", {**_TRAIN, "dataset": {"name": "blobs", "classes": 0}},
                           "train.dataset: need 1 <= classes <= size, got classes=0"),
    # the builders' range errors, named by the section that was built
    "blobs-valid-fraction-above-one": ("train", {**_TRAIN, "dataset": {
        "name": "blobs", "valid_fraction": 1.5}},
        "train.dataset: valid_fraction must lie in [0, 1), got 1.5"),
    "target-n-one": ("train", _train(dataset__n=1), "train.dataset: need n, d >= 2, got n=1, d=3"),
    "blobs-negative-noise": ("train", {**_TRAIN, "dataset": {"name": "blobs", "noise": -1}},
                             "train.dataset: noise must be >= 0"),
    "xor-encoding-three": ("train", {**_TRAIN, "dataset": {"name": "xor", "encoding": 3}},
                           "train.dataset: encoding must be +1 or -1"),
    "zero-width-layer": ("train", _train(model__layer_dims=[2, 0]),
                         "train.model: all dims must be >= 1, got (2, 0)"),
    "cost-zero-width-layer": ("cost", {"model": {"type": "qe_mlp", "layer_dims": [2, 0]}},
                              "cost.model: all dims must be >= 1, got (2, 0)"),
    "dataset-no-name": ("train", _train(dataset={}), "train.dataset: missing required key 'name'"),
    "ablate-no-k-sets": ("ablate-k", {**VALID["ablate-k"], "k_sets": []},
                         "ablate.k_sets: must be a non-empty list of shift lists"),
    "target-size-zero": ("train", _train(dataset__size=0), "train.dataset: size must be >= 1"),
    "circles-negative-noise": ("train", {**_TRAIN, "dataset": {"name": "circles", "noise": -1}},
                               "train.dataset: noise must be >= 0"),
    "circles-too-many-classes": ("train", {**_TRAIN, "dataset": {"name": "circles", "size": 2,
                                                                 "classes": 3}},
                                 "train.dataset: need 1 <= classes <= size, got classes=3, size=2"),
    "gradcheck-no-families": ("gradcheck", {"families": []}, "gradcheck.families: must name"),
    "montecarlo-samples-zero": ("montecarlo", {"samples": 0},
                                "montecarlo.samples: must be >= 1, got 0"),
    "montecarlo-empty-v-list": ("montecarlo", {"v_list": []},
                                "montecarlo.v_list: must name at least one threshold"),
    "montecarlo-v-zero": ("montecarlo", {"v_list": [4, 0]},
                          "montecarlo.v_list[1]: must be > 0, got 0.0"),
    "montecarlo-v-negative": ("montecarlo", {"v_list": [-2.5]},
                              "montecarlo.v_list[0]: must be > 0, got -2.5"),
    "adam-beta1-one": ("train", _train(optimizer__beta1=1.0),
                       "train.optimizer.beta1: must lie in (0, 1), got 1.0"),
    "adam-eps-zero": ("train", _train(optimizer__eps=0), "train.optimizer.eps: must be positive"),
    # keys of another optimizer
    "sgd-beta1": ("train", _train(optimizer={"algo": "sgd", "lr": 0.1, "beta1": 1.5, "eps": -3}),
                  "train.optimizer: sgd does not take ['beta1', 'eps']"),
    # model widths that do not fit the dataset
    "input-width": ("train", {**_TRAIN, "model": {"type": "qe_mlp", "layer_dims": [3, 2]},
                              "dataset": {"name": "xor"}},
                    "train.model: model input width 3 != dataset feature width 2"),
    "label-width": ("train", _train(model__layer_dims=[4, 2]),
                    "train.model: model output width 2 != dataset label width 3"),
    "too-few-logits": ("train", {**_TRAIN, "model": {"type": "swiglu", "n": 2, "d": 2},
                                 "dataset": {"name": "blobs", "classes": 3}},
                       "train.model: model output width 2 < dataset class count 3"),
    # a hidden-target shift set the target layer would refuse
    "target-shift-square": ("train", _train(dataset__shifts=[4], dataset__d=4,
                                            model__layer_dims=[4, 4]),
                            "train.dataset.shifts: shift 4 reduces to 0 mod 4 and would produce "
                            "square terms; drop it or change d"),
    "target-shift-duplicate": ("train", _train(dataset__shifts=[1, 1]),
                               "train.dataset.shifts: duplicate shifts in [1, 1]"),
    # an enhanced layer too narrow for its shift
    "width-one-output": ("train", {**_TRAIN, "model": {"type": "qe_mlp", "layer_dims": [4, 1]}},
                         "train.model: layer 0 (width 1): shift 1 reduces to 0 mod 1 and would "
                         "produce square terms; set exempt_final, enhancer or shifts to avoid it"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, probe):
    command, raw, message = PROBES[probe]
    (tmp_path / "c.json").write_text(json.dumps(raw))
    assert main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda: GradcheckConfig(step=float("nan")), "gradcheck.step: must be > 0, got nan"),
    (lambda: GradcheckConfig(tol=float("nan")), "gradcheck.tol: must be > 0, got nan"),
    (lambda: MonteCarloConfig(v_list=(4.0, float("nan"))), "montecarlo.v_list[1]: must be > 0, got nan"),
], ids=["gradcheck-step", "gradcheck-tol", "montecarlo-v"])
def test_nan_fails_the_range_checks(make, message):
    # JSON gives a config no NaN, so only the direct API can pass one
    with pytest.raises(ConfigError) as err:
        make()
    assert str(err.value) == message
