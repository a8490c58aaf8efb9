"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload runs as a closed loop: one operation starts when the
previous one returns.  An operation is made of one or more checked
sub-operations; a failed check marks its sub-operation failed and the run
goes on.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# package functions are called through their module, so that a tracer
# that re-binds module attributes sees these calls too
from quadenhance import checkpoint, cli, config, cost, training
from quadenhance.models import MLP, MLPConfig
from quadenhance.rng import Rng

# the Monte Carlo square-tail estimate must lie within this many standard
# errors (taken at the analytic probability) of square_tail_analytic
MC_SE_MULTIPLE = 5.0
CHECK_SEED = 0


def vit_dims(size: str) -> list[int]:
    """The vit-m-ffn stack (192 -> 768 -> 192, six times), or a tiny one."""
    width, hidden, blocks = (192, 768, 6) if size == "full" else (8, 16, 2)
    return [width] + [hidden, width] * blocks


@dataclass
class Outcome:
    """What one operation did: work done per metric, and failed checks."""
    work: dict[str, tuple[float, float]] = field(default_factory=dict)  # metric -> (amount, seconds)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def check(self, label: str, fn):
        """Run one sub-operation; an exception or failed check is a failure."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # noqa: BLE001 - the loop must keep running
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")


class Repeats:
    """Remembers the first digest per key; a later different one is a failure."""

    def __init__(self):
        self._first: dict[str, str] = {}

    def differs(self, key: str, data: str | bytes) -> str | None:
        digest = hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()
        first = self._first.setdefault(key, digest)
        return None if first == digest else f"{key} differs from the first run of this seed"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _all_finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class FfnTrain:
    """vit-m-ffn training, every projection enhanced; matmul-bound."""

    name = "ffn-train"
    metrics = {"train_samples_per_s": "samples/s"}

    def __init__(self, seed: int, size: str, workdir: Path):
        dims = vit_dims(size)
        self.raw = {
            "model": {"type": "qe_mlp", "layer_dims": dims, "activation": "gelu", "shifts": [1]},
            "dataset": {"name": "quadratic_target", "n": dims[0], "d": dims[0], "shifts": [1],
                        "seed": seed + 1, "size": 320 if size == "full" else 40,
                        "valid_fraction": 0.2},
            "optimizer": {"algo": "adam", "lr": 1e-3},
            "epochs": 1, "batch_size": 32, "seed": seed, "dtype": "f32",
        }
        self.repeats = Repeats()
        self.rows = 0

    def setup(self) -> None:
        cfg = config.TrainConfig.from_dict(self.raw)
        ds = training.build_dataset(cfg.dataset)
        training.build_model(cfg.model, seed=cfg.seed, dtype=cfg.dtype)
        self.rows = cfg.epochs * len(ds.train_idx)

    def op(self) -> Outcome:
        out = Outcome()

        def train():
            cfg = config.TrainConfig.from_dict(self.raw)
            res, secs = _timed(lambda: training.train_run(cfg, out_dir=None))
            out.work["train_samples_per_s"] = (self.rows, secs)
            losses = [res.final_train_loss] + [v for r in res.rows for v in (r.train_loss, r.valid_loss)]
            if not _all_finite(losses):
                return "non-finite training loss"
            return self.repeats.differs("metrics", res.metrics_csv() + repr(res.final_train_loss))

        out.check("train_run", train)
        return out

    def overhead_configs(self):
        """The same run with the enhancer on and with MLPConfig.plain()."""
        cfg = config.TrainConfig.from_dict(self.raw)
        return _with_plain(cfg)


def _with_plain(cfg):
    opts = dict(cfg.model.options)
    mlp = MLPConfig(**opts)
    plain = config.ModelSpec(kind="qe_mlp", options={**opts, "enhancer": mlp.plain().enhancer})
    return cfg, replace(cfg, model=plain)


class AblateGrid:
    """d=8 shift-set ablation; per-node Python overhead dominates."""

    name = "ablate-grid"
    metrics = {"train_samples_per_s": "samples/s"}
    K4 = [-2, -1, 1, 2]

    def __init__(self, seed: int, size: str, workdir: Path):
        self.raw = {
            "k_sets": [[], [1], [-1, 1], self.K4], "dims": [8],
            "seeds": [seed, seed + 1, seed + 2],
            "optimizer": {"algo": "adam", "lr": 0.01},
            "epochs": 16 if size == "full" else 1, "batch_size": 32,
            "dataset_size": 256 if size == "full" else 48,
        }
        self.repeats = Repeats()
        self.rows = 0

    def _cell(self, cfg, shifts, seed: int):
        """The TrainConfig that ablate_run builds for one (shift set, seed) cell."""
        d = cfg.dims[0]
        spec = config.DatasetSpec(name="quadratic_target", options={
            "n": d, "d": d, "shifts": cfg.target_shifts, "seed": int(Rng(seed).split(d).seed),
            "size": cfg.dataset_size, "valid_fraction": 0.2})
        model = config.ModelSpec(kind="qe_mlp", options={
            "layer_dims": (d, d), "activation": "identity", "shifts": tuple(shifts)})
        return config.TrainConfig(model=model, dataset=spec, optimizer=cfg.optimizer,
                                  epochs=cfg.epochs, batch_size=cfg.batch_size, seed=seed,
                                  dtype=cfg.dtype)

    def setup(self) -> None:
        cfg = config.AblateConfig.from_dict(self.raw)
        self.rows = 0
        for seed in cfg.seeds:
            cell = self._cell(cfg, (), seed)
            ds = training.build_dataset(cell.dataset)
            self.rows += len(cfg.k_sets) * cfg.epochs * len(ds.train_idx)
        for shifts in cfg.k_sets:
            training.build_model(self._cell(cfg, shifts, cfg.seeds[0]).model,
                                 seed=cfg.seeds[0], dtype=cfg.dtype)

    def op(self) -> Outcome:
        out = Outcome()

        def ablate():
            cfg = config.AblateConfig.from_dict(self.raw)
            res, secs = _timed(lambda: training.ablate_run(cfg, out_dir=None))
            out.work["train_samples_per_s"] = (self.rows, secs)
            if not _all_finite([v for c in res.cells for v in c.per_seed_train]):
                return "non-finite training loss"
            return self.repeats.differs("grid", res.grid_csv() + res.runs_csv())

        out.check("ablate_run", ablate)
        return out

    def overhead_configs(self):
        """The d=8, k=4 cell with the enhancer on and with MLPConfig.plain()."""
        cfg = config.AblateConfig.from_dict(self.raw)
        return _with_plain(self._cell(cfg, self.K4, cfg.seeds[0]))


class VerifyPersist:
    """Oracle chain, gradcheck, Monte Carlo through cli.main; QEN1 round-trips."""

    name = "verify-persist"
    metrics = {"oracle_instances_per_s": "1/s", "gradcheck_instances_per_s": "1/s",
               "montecarlo_samples_per_s": "1/s", "ckpt_save_MBps": "MB/s", "ckpt_load_MBps": "MB/s"}

    def __init__(self, seed: int, size: str, workdir: Path):
        full = size == "full"
        self.seed, self.size, self.workdir = seed, size, workdir
        self.instances = {"oracle-equiv": 300 if full else 4, "gradcheck": 8 if full else 1}
        self.samples = 2_000_000 if full else 20_000
        # the check seed draws each instance's shapes, so it stays fixed to keep
        # the work per operation the same; --seed varies the Monte Carlo
        # stream and the checkpointed bits
        self.configs = {
            "oracle-equiv": {"instances": self.instances["oracle-equiv"], "seed": CHECK_SEED},
            "gradcheck": {"instances": self.instances["gradcheck"], "seed": CHECK_SEED},
            "montecarlo": {"samples": self.samples, "seed": seed},
        }
        self.repeats = Repeats()
        self.params: dict[str, np.ndarray] = {}

    def setup(self) -> None:
        parsers = {"oracle-equiv": config.OracleEquivConfig, "gradcheck": config.GradcheckConfig,
                   "montecarlo": config.MonteCarloConfig}
        for command, raw in self.configs.items():
            path = self.workdir / f"{command}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            parsers[command].from_dict(config.load_json(path))
        model = MLP(MLPConfig(layer_dims=tuple(vit_dims(self.size)), shifts=(1,),
                              seed=self.seed, dtype="f32"))
        # every array, biases and couplings included, gets non-trivial bits
        rng = Rng(self.seed).split(0xC4E7)
        self.params = {name: rng.split(i).uniform(arr.size, -1.0, 1.0).astype(arr.dtype).reshape(arr.shape)
                       for i, (name, arr) in enumerate(model.parameters().items())}

    def _cli(self, command: str) -> tuple[Path, float]:
        out_dir = self.workdir / command
        argv = [command, "--config", str(self.workdir / f"{command}.json"), "--out", str(out_dir)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code, secs = _timed(lambda: cli.main(argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {captured.getvalue().strip()[-300:]}")
        return out_dir, secs

    def op(self) -> Outcome:
        out = Outcome()

        def oracle():
            out_dir, secs = self._cli("oracle-equiv")
            out.work["oracle_instances_per_s"] = (self.instances["oracle-equiv"], secs)
            return self.repeats.differs("oracle_equiv.csv", (out_dir / "oracle_equiv.csv").read_bytes())

        def gradcheck():
            out_dir, secs = self._cli("gradcheck")
            out.work["gradcheck_instances_per_s"] = (4 * self.instances["gradcheck"], secs)
            return self.repeats.differs("gradcheck.csv", (out_dir / "gradcheck.csv").read_bytes())

        def montecarlo():
            out_dir, secs = self._cli("montecarlo")
            out.work["montecarlo_samples_per_s"] = (self.samples, secs)
            text = (out_dir / "montecarlo.csv").read_text(encoding="utf-8")
            for row in csv.DictReader(io.StringIO(text)):
                p0, n = float(row["square_analytic"]), int(row["samples"])
                se0 = math.sqrt(p0 * (1.0 - p0) / n)
                if abs(float(row["square_mc"]) - p0) > MC_SE_MULTIPLE * se0:
                    return (f"square tail at v={row['v']}: {row['square_mc']} vs analytic {p0:.6e}, "
                            f"more than {MC_SE_MULTIPLE} standard errors apart")
            return self.repeats.differs("montecarlo.csv", text)

        def round_trip():
            path = self.workdir / "params.qen1"
            megabytes = sum(a.nbytes for a in self.params.values()) / 1e6
            _, t_save = _timed(lambda: checkpoint.save_checkpoint(path, self.params))
            loaded, t_load = _timed(lambda: checkpoint.load_checkpoint(path))
            out.work["ckpt_save_MBps"] = (megabytes, t_save)
            out.work["ckpt_load_MBps"] = (megabytes, t_load)
            if list(loaded) != list(self.params):
                return "names or their order changed"
            for name, arr in self.params.items():
                got = loaded[name]
                if got.dtype != arr.dtype or got.shape != arr.shape or got.tobytes() != arr.tobytes():
                    return f"{name} is not bitwise equal"
            return None

        out.check("oracle-equiv", oracle)
        out.check("gradcheck", gradcheck)
        out.check("montecarlo", montecarlo)
        out.check("checkpoint", round_trip)
        return out


WORKLOADS = {w.name: w for w in (FfnTrain, AblateGrid, VerifyPersist)}


def flop_ratio(cfg) -> float:
    """cost.py's analytic enhancer FLOP share for the model of ``cfg``."""
    model = training.build_model(cfg.model, seed=cfg.seed, dtype=cfg.dtype)
    return float(cost.count_model(model).total_flop_ratio)


def wall_overhead(enhanced, plain, pairs: int) -> dict:
    """Enhancer on vs off at the same shape, measured untraced.

    Runs alternate enhanced and plain training calls; the overhead of each
    pair is t_enhanced / t_plain - 1.
    """
    ratios = []
    for _ in range(pairs):
        _, t_enh = _timed(lambda: training.train_run(enhanced, out_dir=None))
        _, t_plain = _timed(lambda: training.train_run(plain, out_dir=None))
        ratios.append(t_enh / t_plain - 1.0)
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    return {"layer_dims": list(enhanced.model.options["layer_dims"]),
            "shifts": list(enhanced.model.options["shifts"]),
            "enhancer.wall_overhead": float(med), "quartiles": [float(q1), float(q3)], "pairs": pairs}
