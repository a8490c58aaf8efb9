"""Training loop behavior beyond what the CLI tests cover."""

import csv
import errno
import json
import os
import tracemalloc

import numpy as np
import pytest

from quadenhance.cli import main
from quadenhance.config import COST_PRESETS, DatasetSpec, ModelSpec, TrainConfig
from quadenhance.errors import NumericError
from quadenhance.models import QuadraNetLayer, SwiGLULayer
from quadenhance.training import build_dataset, build_model, evaluate, train_run


def _xor_config(**overrides):
    base = {
        "model": {"type": "qe_mlp", "layer_dims": [2, 2], "activation": "identity"},
        "dataset": {"name": "xor"},
        "optimizer": {"algo": "sgd", "lr": 0.1},
        "epochs": 10, "batch_size": 4, "seed": 0}
    base.update(overrides)
    return TrainConfig.from_dict(base)


def test_loss_decreases_on_xor():
    res = train_run(_xor_config(epochs=200))
    assert res.rows[-1].train_loss < res.rows[0].train_loss


def test_identical_configs_identical_curves():
    a = train_run(_xor_config(epochs=30))
    b = train_run(_xor_config(epochs=30))
    assert [r.train_loss for r in a.rows] == [r.train_loss for r in b.rows]


def test_different_seeds_different_curves():
    a = train_run(_xor_config(epochs=10, seed=1))
    b = train_run(_xor_config(epochs=10, seed=2))
    assert [r.train_loss for r in a.rows] != [r.train_loss for r in b.rows]


def test_divergence_aborts_with_location():
    cfg = TrainConfig.from_dict({
        "model": {"type": "qe_mlp", "layer_dims": [8, 8], "activation": "identity"},
        "dataset": {"name": "quadratic_target", "n": 8, "d": 8, "size": 64},
        "optimizer": {"algo": "sgd", "lr": 1e9},
        "epochs": 50, "batch_size": 64, "seed": 0, "dtype": "f32"})
    with pytest.raises(NumericError, match="epoch"):
        train_run(cfg)


@pytest.mark.parametrize("batch_size, valid_fraction, where", [
    (8, 0.0, "epoch 0, batch 1"),
    (48, 0.25, "epoch 0, validation"),
    (64, 0.0, "final evaluation"),
], ids=["step", "validation", "final"])
def test_diverging_run_exits_1_naming_where(tmp_path, capsys, batch_size, valid_fraction, where):
    """SGD at lr 1e30 overflows f32 in the next forward pass: in the second
    step, in the validation pass after a one-step epoch, or in the final
    evaluation.  The run ends in the package's error, and no numpy warning
    (an error under pytest here) comes first."""
    (tmp_path / "c.json").write_text(json.dumps({
        "model": {"type": "qe_mlp", "layer_dims": [2, 4, 2], "activation": "relu"},
        "dataset": {"name": "blobs", "classes": 2, "size": 64, "valid_fraction": valid_fraction},
        "optimizer": {"algo": "sgd", "lr": 1e30},
        "epochs": 1, "batch_size": batch_size, "dtype": "f32"}))
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 1
    assert (f"check failure: {where}: non-finite output from layer 'layers.0'"
            in capsys.readouterr().err)


def test_non_finite_validation_loss_aborts():
    # swiglu checks no layer output for finiteness, so evaluate checks the loss
    cfg = TrainConfig.from_dict({
        "model": {"type": "swiglu", "n": 2, "d": 2},
        "dataset": {"name": "quadratic_target", "n": 2, "d": 2, "size": 64,
                    "valid_fraction": 0.25},
        "optimizer": {"algo": "sgd", "lr": 1e30},
        "epochs": 1, "batch_size": 48, "dtype": "f32"})
    with pytest.raises(NumericError, match="epoch 0, validation: non-finite loss"):
        train_run(cfg)


def test_evaluate_gives_tied_logits_to_class_0():
    # all-zero parameters make every logit 0
    ds = build_dataset(DatasetSpec(name="blobs", options={"classes": 3, "size": 30}))
    model = build_model(ModelSpec(kind="qe_mlp", options={"layer_dims": (2, 3)}),
                        seed=0, dtype="f64")
    model.load_parameters({k: np.zeros_like(v) for k, v in model.parameters().items()})
    assert evaluate(model, ds, np.flatnonzero(ds.labels == 0), np.float64)[1] == 1.0
    assert evaluate(model, ds, np.flatnonzero(ds.labels != 0), np.float64)[1] == 0.0


def test_valid_metrics_reported_for_classification(tmp_path):
    cfg = TrainConfig.from_dict({
        "model": {"type": "qe_mlp", "layer_dims": [2, 6, 2], "activation": "gelu"},
        "dataset": {"name": "circles", "classes": 2, "size": 100, "noise": 0.05,
                    "seed": 3, "valid_fraction": 0.2},
        "optimizer": {"algo": "adam", "lr": 0.02},
        "epochs": 15, "batch_size": 16, "seed": 4})
    res = train_run(cfg, out_dir=tmp_path)
    assert res.rows[-1].valid_accuracy is not None
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,valid_loss,valid_accuracy"
    assert (tmp_path / "timing.log").exists()
    assert (tmp_path / "run_config.json").exists()


def test_regression_metrics_leave_accuracy_blank(tmp_path):
    cfg = TrainConfig.from_dict({
        "model": {"type": "qe_mlp", "layer_dims": [4, 4], "activation": "identity"},
        "dataset": {"name": "quadratic_target", "n": 4, "d": 4, "size": 64,
                    "valid_fraction": 0.25},
        "optimizer": {"algo": "adam", "lr": 0.01},
        "epochs": 5, "batch_size": 16, "seed": 1})
    train_run(cfg, out_dir=tmp_path)
    last = (tmp_path / "metrics.csv").read_text().strip().splitlines()[-1]
    assert last.endswith(",")          # no accuracy column value for regression


def test_unwritable_output_dir_is_os_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    cfg = _xor_config(epochs=2)
    with pytest.raises(OSError):
        train_run(cfg, out_dir=blocker / "sub")


def test_failed_output_write_keeps_earlier_outputs(tmp_path, monkeypatch):
    train_run(_xor_config(epochs=2), out_dir=tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(*args):
        raise OSError(errno.EIO, "Input/output error")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        train_run(_xor_config(epochs=3, seed=5), out_dir=tmp_path)
    monkeypatch.undo()
    # no temporary file is left and every earlier output is intact
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_run_leaves_earlier_outputs_intact(tmp_path, capsys):
    """A run that improves at epoch 0 and then fails its final evaluation
    (SGD at lr 1e30, as above) leaves no file of its own: an earlier run's
    outputs in the same directory stay byte for byte, best.qen1 included."""
    raw = {"model": {"type": "qe_mlp", "layer_dims": [2, 4, 2], "activation": "relu"},
           "dataset": {"name": "blobs", "classes": 2, "size": 64, "valid_fraction": 0.0},
           "epochs": 1, "batch_size": 64, "dtype": "f32"}

    def train(lr, out):
        (tmp_path / "c.json").write_text(json.dumps({**raw, "optimizer": {"algo": "sgd", "lr": lr}}))
        return main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / out)])

    assert train(0.1, "o") == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
    assert "best.qen1" in before
    assert train(1e30, "o") == 1
    assert "final evaluation" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()} == before
    assert train(1e30, "fresh") == 1
    assert list((tmp_path / "fresh").iterdir()) == []


def test_build_model_kinds():
    assert isinstance(build_model(ModelSpec(kind="quadranet", options={"n": 3, "d": 2}),
                                  seed=0, dtype="f64"), QuadraNetLayer)
    assert isinstance(build_model(ModelSpec(kind="swiglu", options={"n": 3, "d": 2}),
                                  seed=0, dtype="f32"), SwiGLULayer)


def test_build_dataset_dispatch():
    ds = build_dataset(DatasetSpec(name="blobs", options={"classes": 2, "size": 20,
                                                          "noise": 0.1, "seed": 1}))
    assert len(ds.features) == 20 and ds.n_classes == 2


def test_baseline_model_trains(tmp_path):
    cfg = TrainConfig.from_dict({
        "model": {"type": "quadranet", "n": 2, "d": 2, "bias": True},
        "dataset": {"name": "xor"},
        "optimizer": {"algo": "adam", "lr": 0.05},
        "epochs": 150, "batch_size": 4, "seed": 2})
    res = train_run(cfg, out_dir=tmp_path)
    assert res.final_train_accuracy == 1.0


def test_best_checkpoint_is_the_run_cut_at_its_best_epoch(tmp_path):
    """A run is deterministic in its epoch prefix, so best.qen1 of a run
    whose validation loss turns up after epoch 3 holds the bytes of
    final.qen1 from the same config trained for 4 epochs.  An update that
    wrote into the best snapshot would break this."""
    raw = {
        "model": {"type": "qe_mlp", "layer_dims": [4, 8, 3], "activation": "relu"},
        "dataset": {"name": "quadratic_target", "n": 4, "d": 3, "size": 24, "seed": 2,
                    "valid_fraction": 0.25},
        "optimizer": {"algo": "adam", "lr": 0.05},
        "batch_size": 4, "seed": 2}

    def train(epochs):
        cfg, out = tmp_path / f"e{epochs}.json", tmp_path / f"out{epochs}"
        cfg.write_text(json.dumps({**raw, "epochs": epochs}))
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    long, cut = train(6), train(4)
    with open(long / "metrics.csv") as fh:
        valid = [float(r["valid_loss"]) for r in csv.DictReader(fh)]
    assert min(range(6), key=valid.__getitem__) == 3
    best = (long / "best.qen1").read_bytes()
    assert best == (cut / "final.qen1").read_bytes()
    assert best != (long / "final.qen1").read_bytes()


@pytest.mark.parametrize("algo, bound, to_disk", [
    pytest.param("adam", 4.25, False, id="adam"),
    pytest.param("sgd", 2.25, False, id="sgd"),
    pytest.param("adam", 4.25, True, id="adam-out_dir"),
])
def test_training_peak_in_parameter_sets(tmp_path, algo, bound, to_disk):
    """The traced peak of a vit-m-ffn run holds the weights, one gradient
    set and the optimizer state (Adam: m and v), plus activations, data and
    Adam's chunk scratch under a quarter of one more parameter set: no
    best-epoch snapshot, since an output directory gets best.qen1 written at
    each improvement, no previous step's gradients during the next step's
    passes, and no backward closure or intermediate gradient once its tape
    node has run."""
    cfg = TrainConfig.from_dict({
        "model": {"type": "qe_mlp", "activation": "gelu", "shifts": [1],
                  "layer_dims": list(COST_PRESETS["vit-m-ffn"].options["layer_dims"])},
        "dataset": {"name": "quadratic_target", "n": 192, "d": 192, "size": 80, "seed": 1},
        "optimizer": {"algo": algo, "lr": 1e-3},
        "epochs": 2, "batch_size": 32, "seed": 0, "dtype": "f32"})
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = train_run(cfg, out_dir=tmp_path / "out" if to_disk else None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    if to_disk:
        assert (tmp_path / "out" / "best.qen1").exists()
    param_bytes = sum(w.nbytes for w in res.model.parameters().values())
    assert peak < bound * param_bytes, f"peak {peak / param_bytes:.2f} parameter sets"
