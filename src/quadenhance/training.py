"""Training loops and the shift-set ablation grid.

Runs are deterministic given (config, seed): shuffling, initialization,
and every arithmetic step come from the package RNG and the fixed-order
kernels, and the metrics CSV contains no timestamps (wall-clock readings
go to a separate timing log so reruns stay byte-identical).
"""

from __future__ import annotations

import contextlib
import io
import os
import secrets
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import datasets as data
from . import tensor as T
from .checkpoint import save_checkpoint, write_atomic
from .config import AblateConfig, DatasetSpec, ModelSpec, TrainConfig, canonical_json
from .errors import ConfigError, NumericError, prefixed
from .models import MLP, MODELS, MLPConfig, Adam, SGD, mse
from .rng import Rng


def build_dataset(spec: DatasetSpec) -> data.Dataset:
    return data.BUILDERS[spec.name](**spec.options)


def build_model(spec: ModelSpec, seed: int, dtype: str):
    if spec.kind == "qe_mlp":
        return MLP(MLPConfig(seed=seed, dtype=dtype, **spec.options))
    return MODELS[spec.kind](seed=seed, dtype=T.PRECISIONS[dtype], **spec.options)


def _check_widths(model, ds: data.Dataset) -> None:
    """A model whose widths do not fit the dataset is a config error."""
    if model.n != ds.n:
        raise ConfigError(f"model input width {model.n} != dataset feature width {ds.n}")
    if ds.is_classification and model.d < ds.n_classes:
        raise ConfigError(f"model output width {model.d} < dataset class count {ds.n_classes}")
    if not ds.is_classification and model.d != ds.labels.shape[1]:
        raise ConfigError(f"model output width {model.d} != dataset label width {ds.labels.shape[1]}")


def build_optimizer(spec):
    if spec.algo == "sgd":
        return SGD(lr=spec.lr)
    return Adam(lr=spec.lr, beta1=spec.beta1, beta2=spec.beta2, eps=spec.eps)


def _loss(out: ag.Variable, labels: np.ndarray, classification: bool) -> ag.Variable:
    """The training loss: cross-entropy on class labels, or mse, which casts its target."""
    return ag.cross_entropy(out, labels) if classification else mse(out, labels)


def _loss_and_grads(model, x, target, classification: bool):
    tape = ag.Tape()
    bound = model.bind(tape)
    out = model.apply(tape, bound, tape.const(x))
    loss = _loss(out, target, classification)
    grads = tape.backward(loss)
    named = {name: grads[var.node_id] if var.node_id in grads else np.zeros_like(var.value)
             for name, var in bound.items()}
    return float(loss.value), named


def evaluate(model, ds: data.Dataset, indices: np.ndarray, dtype) -> tuple[float, float | None]:
    """(loss, accuracy) over an index set; accuracy is None for regression."""
    out = ag.Tape().const(model.forward(ds.features[indices].astype(dtype)))
    labels = ds.labels[indices]
    loss = _loss(out, labels, ds.is_classification)
    acc = float(np.mean(np.argmax(out.value, axis=-1) == labels)) if ds.is_classification else None
    if not np.isfinite(loss.value):
        raise NumericError("non-finite loss")
    return float(loss.value), acc


@contextlib.contextmanager
def _failing_as(where: str):
    """numpy's overflow warnings off, and a NumericError prefixed with ``where``.

    Layer outputs, losses and gradients are all checked for finiteness,
    so a diverging run ends in the package's own error, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"), prefixed(where, NumericError):
        yield


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    valid_loss: float | None
    valid_accuracy: float | None


@dataclass
class TrainResult:
    rows: list[EpochRow]
    final_train_loss: float
    final_train_accuracy: float | None
    model: object

    def metrics_csv(self) -> str:
        buf = io.StringIO()
        buf.write("epoch,train_loss,valid_loss,valid_accuracy\n")
        for r in self.rows:
            vl = f"{r.valid_loss:.10e}" if r.valid_loss is not None else ""
            va = f"{r.valid_accuracy:.10e}" if r.valid_accuracy is not None else ""
            buf.write(f"{r.epoch},{r.train_loss:.10e},{vl},{va}\n")
        return buf.getvalue()


def train_run(cfg: TrainConfig, out_dir: str | Path | None = None) -> TrainResult:
    """Train per config; optionally write metrics, checkpoints, and config echo."""
    # a builder's range error names the config section it came from
    with prefixed("train.dataset", ConfigError):
        ds = build_dataset(cfg.dataset)
    with prefixed("train.model", ConfigError):
        model = build_model(cfg.model, seed=cfg.seed, dtype=cfg.dtype)
        _check_widths(model, ds)
    opt = build_optimizer(cfg.optimizer)
    np_dtype = T.PRECISIONS[cfg.dtype]
    shuffle_base = Rng(cfg.seed).split(0xBA7C)

    rows: list[EpochRow] = []
    timing: list[str] = []
    best_score = None
    has_valid = len(ds.valid_idx) > 0
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        # renamed to best.qen1 once the run has succeeded, and removed if it fails
        pending_best = out / f".best.qen1.{secrets.token_hex(8)}.pending"

    try:
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            epoch_seed = int(shuffle_base.split(epoch).seed)
            total, count = 0.0, 0
            for bi, (bx, by) in enumerate(data.batch_iter(ds, cfg.batch_size, epoch_seed)):
                with _failing_as(f"epoch {epoch}, batch {bi}"):
                    loss, grads = _loss_and_grads(model, bx.astype(np_dtype), by, ds.is_classification)
                    if not np.isfinite(loss):
                        raise NumericError("non-finite loss")
                    model.load_parameters(opt.step(model.parameters(), grads))
                # unbound now, so the next step's passes do not overlap this gradient set
                del grads
                total += loss * len(bx)
                count += len(bx)
            train_loss = total / count
            valid_loss = valid_acc = None
            if has_valid:
                with _failing_as(f"epoch {epoch}, validation"):
                    valid_loss, valid_acc = evaluate(model, ds, ds.valid_idx, np_dtype)
            rows.append(EpochRow(epoch=epoch, train_loss=train_loss,
                                 valid_loss=valid_loss, valid_accuracy=valid_acc))
            timing.append(f"epoch {epoch}: {time.perf_counter() - t0:.6f} s")
            # "best" goes by validation loss, or train loss without a valid split;
            # it is saved at each improvement, so no copy is held
            score = valid_loss if has_valid else train_loss
            if out is not None and (best_score is None or score < best_score):
                best_score = score
                save_checkpoint(pending_best, model.parameters(), sync=False)

        with _failing_as("final evaluation"):
            final_loss, final_acc = evaluate(model, ds, ds.train_idx, np_dtype)
        result = TrainResult(rows=rows, final_train_loss=final_loss,
                             final_train_accuracy=final_acc, model=model)

        if out is not None:
            write_atomic(out / "metrics.csv", result.metrics_csv().encode())
            write_atomic(out / "timing.log", ("\n".join(timing) + "\n").encode())
            write_atomic(out / "run_config.json", canonical_json(cfg).encode())
            save_checkpoint(out / "final.qen1", model.parameters())
            with open(pending_best, "rb") as fh:     # synced once, not at each improvement
                os.fsync(fh.fileno())
            os.replace(pending_best, out / "best.qen1")
    finally:
        if out is not None:
            pending_best.unlink(missing_ok=True)
    return result


# ---------------------------------------------------------------------------
# shift-set ablation
# ---------------------------------------------------------------------------

def _shift_label(shifts: tuple[int, ...]) -> str:
    return "{" + ";".join(str(r) for r in shifts) + "}"


@dataclass
class AblateCell:
    shifts: tuple[int, ...]
    dim: int
    median_train_mse: float
    per_seed_train: list[float]


@dataclass
class AblateResult:
    cells: list[AblateCell]
    k_sets: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]

    def grid_csv(self) -> str:
        """Table-shaped grid: one row per shift set, one column per dim."""
        buf = io.StringIO()
        buf.write("k_set," + ",".join(f"d{d}" for d in self.dims) + "\n")
        by_key = {(c.shifts, c.dim): c for c in self.cells}
        for ks in self.k_sets:
            vals = [f"{by_key[(ks, d)].median_train_mse:.10e}" for d in self.dims]
            buf.write(_shift_label(ks) + "," + ",".join(vals) + "\n")
        return buf.getvalue()

    def runs_csv(self) -> str:
        buf = io.StringIO()
        buf.write("k_set,dim,seed_rank,train_mse\n")
        for c in self.cells:
            for i, v in enumerate(c.per_seed_train):
                buf.write(f"{_shift_label(c.shifts)},{c.dim},{i},{v:.10e}\n")
        return buf.getvalue()

    def format_table(self) -> str:
        head = f"{'K':<16}" + "".join(f"{f'd={d}':>14}" for d in self.dims)
        lines = [head, "-" * len(head)]
        by_key = {(c.shifts, c.dim): c for c in self.cells}
        for ks in self.k_sets:
            row = f"{_shift_label(ks):<16}"
            row += "".join(f"{by_key[(ks, d)].median_train_mse:>14.4e}" for d in self.dims)
            lines.append(row)
        return "\n".join(lines)


def ablate_run(cfg: AblateConfig, out_dir: str | Path | None = None) -> AblateResult:
    """Train one model per (shift set, dim, seed) on the quadratic-target task.

    The dataset is fixed per (dim, seed) so shift sets compete on identical
    data; medians are taken over the seed axis.
    """
    cells = []
    for d in cfg.dims:
        n = cfg.input_dim or d
        for shifts in cfg.k_sets:
            train_scores = []
            for seed in cfg.seeds:
                ds_seed = int(Rng(seed).split(d).seed)
                spec = DatasetSpec(name="quadratic_target", options={
                    "n": n, "d": d, "shifts": cfg.target_shifts, "seed": ds_seed,
                    "size": cfg.dataset_size, "valid_fraction": 0.2})
                model_spec = ModelSpec(kind="qe_mlp", options={
                    "layer_dims": (n, d), "activation": "identity", "shifts": shifts})
                run_cfg = TrainConfig(model=model_spec, dataset=spec,
                                      optimizer=cfg.optimizer, epochs=cfg.epochs,
                                      batch_size=cfg.batch_size, seed=seed,
                                      dtype=cfg.dtype)
                res = train_run(run_cfg, out_dir=None)
                train_scores.append(res.final_train_loss)
            cells.append(AblateCell(
                shifts=shifts, dim=d,
                median_train_mse=float(np.median(train_scores)),
                per_seed_train=train_scores))
    result = AblateResult(cells=cells, k_sets=cfg.k_sets, dims=cfg.dims)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "grid.csv", result.grid_csv().encode())
        write_atomic(out / "runs.csv", result.runs_csv().encode())
        write_atomic(out / "run_config.json", canonical_json(cfg).encode())
    return result
