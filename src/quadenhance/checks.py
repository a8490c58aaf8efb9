"""Verification sweeps: oracle-chain equivalence and gradient checking.

The oracle chain evaluates the same enhanced layer three ways:

    fast path   z = (L y) * y + y + b        (band kernels)
    rank-1      z = (P x) * (Q x) + W x + b  with P = L W, Q = W
    unfactored  z_i = x^T V_i x + (W x)_i + b_i  with V_i = p_i q_i^T

The last two run through plain numpy, independent of the package
kernels, so agreement localizes faults rather than assuming them away.
Each sweep instance is reconstructible from its own seed, which failure
reports include for replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import tensor as T
from .config import FAMILIES, GradcheckConfig, OracleEquivConfig
from .enhancer import (BandLambda, QELayer, apply_lambda, dense_lambda_oracle,
                       layer_v_stack, qe_forward, quadratic_reference,
                       rank1_reference, rank1_v_stack)
from .models import MLP, MLPConfig, QuadraNetLayer, SwiGLULayer
from .rng import Rng

_SHIFT_POOL = (-3, -2, -1, 1, 2, 3)
_LARGEST_GRID_SET = (-2, -1, 1, 2)


def _draw_shifts(rng: Rng, d: int) -> tuple[int, ...]:
    """Non-empty random subset of the +/-3 shift pool, skipping shifts that
    reduce to 0 mod d (those would reintroduce square terms)."""
    candidates = [r for r in _SHIFT_POOL if r % d != 0]
    picks = [r for r, u in zip(candidates, rng.next_u64(len(candidates)).tolist()) if u % 2 == 0]
    return tuple(picks or [candidates[int(rng.next_u64(1)[0]) % len(candidates)]])


def make_sweep_instance(instance_seed: int, max_dim: int = 32, dtype=np.float64):
    """Seeded random (layer, x) pair with magnitudes kept moderate so the
    absolute tolerances hold headroom in both precisions."""
    rng = Rng(instance_seed)
    u, v = rng.next_u64(2).tolist()
    d, n = 2 + u % (max_dim - 1), 1 + v % max_dim
    if instance_seed % 97 == 0:
        d = max(d, 5)
        shifts = _LARGEST_GRID_SET    # ensure coverage of the widest ablation set
    else:
        shifts = _draw_shifts(rng.split(1), d)
    w = (rng.split(2).uniform(d * n, -1.0, 1.0) / np.sqrt(n)).reshape(d, n).astype(dtype)
    b = rng.split(3).uniform(d, -0.5, 0.5).astype(dtype)
    lam = BandLambda(d=d, shifts=shifts,
                     values={r: rng.split(10 + i).uniform(d, -1.0, 1.0).astype(dtype)
                             for i, r in enumerate(shifts)})
    x = rng.split(4).uniform(n, -0.5, 0.5).astype(dtype)
    layer = QELayer(W=w, b=b, lam=lam, name=f"sweep-{instance_seed}")
    return layer, x


@dataclass
class SweepResult:
    instances: int
    seed: int
    precision: str
    tol: float
    max_dev_chain: float
    max_dev_lambda: float
    worst_seed: int

    @property
    def passed(self) -> bool:
        return self.max_dev_chain <= self.tol and self.max_dev_lambda <= self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: {self.instances} instances ({self.precision}), "
                f"max chain deviation {self.max_dev_chain:.3e}, "
                f"max band-vs-dense deviation {self.max_dev_lambda:.3e}, "
                f"tolerance {self.tol:.1e}, worst instance seed {self.worst_seed}")


def oracle_chain_sweep(cfg: OracleEquivConfig) -> SweepResult:
    """Three-way equivalence over random instances, plus band-vs-dense."""
    dtype = T.PRECISIONS[cfg.precision]
    max_chain = 0.0
    max_lam = 0.0
    worst = cfg.seed
    base = Rng(cfg.seed)
    for i in range(cfg.instances):
        inst_seed = int(base.split(i).seed)
        layer, x = make_sweep_instance(inst_seed, cfg.max_dim, dtype)
        z_fast = qe_forward(layer, x)
        p, q = layer_v_stack(layer)
        z_rank1 = rank1_reference(x, p, q, layer.W, layer.b)
        z_full = quadratic_reference(x, layer.W, layer.b, rank1_v_stack(p, q))
        dev = max(float(np.abs(z_fast - z_rank1).max()),
                  float(np.abs(z_rank1 - z_full).max()),
                  float(np.abs(z_fast - z_full).max()))
        y = Rng(inst_seed).split(77).uniform(layer.d, -1.0, 1.0).astype(dtype)
        m = dense_lambda_oracle(layer.lam)
        dev_lam = float(np.abs(apply_lambda(layer.lam, y) - m @ y).max())
        if max(dev, dev_lam) > max(max_chain, max_lam):
            worst = inst_seed
        max_chain = max(max_chain, dev)
        max_lam = max(max_lam, dev_lam)
    return SweepResult(instances=cfg.instances, seed=cfg.seed, precision=cfg.precision,
                       tol=cfg.tol, max_dev_chain=max_chain, max_dev_lambda=max_lam,
                       worst_seed=worst)


# ---------------------------------------------------------------------------
# gradient-check families
# ---------------------------------------------------------------------------

@dataclass
class FamilyResult:
    family: str
    instances: int
    max_rel_err: float
    worst_param: str
    worst_instance: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: {self.family:10s} {self.instances} instances, "
                f"max rel err {self.max_rel_err:.3e} "
                f"(param {self.worst_param!r}, instance {self.worst_instance}), "
                f"tol {self.tol:.1e}")


def _signed_uniform(rng: Rng, size: int, lo: float = 0.3, hi: float = 1.0) -> np.ndarray:
    """Magnitudes in [lo, hi] with random signs: factors bounded away from
    zero keep finite differences well conditioned."""
    mags = rng.uniform(size, lo, hi)
    signs = 1.0 - 2.0 * (rng.next_u64(size) & np.uint64(1)).astype(np.float64)
    return mags * signs


def _weighted_sum(tape, out, u: np.ndarray):
    dt = out.value.dtype
    return ag.reduce_sum(ag.hadamard(out, tape.const(u.astype(dt, copy=False))))


def _gc_layer_instance(rng: Rng, dtype) -> tuple[QELayer, np.ndarray]:
    n, d = (2 + u % 4 for u in rng.next_u64(2).tolist())
    candidates = [r for r in (-2, -1, 1, 2) if r % d != 0]
    draws = rng.next_u64(len(candidates)).tolist()
    shifts = tuple(r for r, u in zip(candidates, draws) if u % 2 == 0) or (1,)
    w = (_signed_uniform(rng.split(2), d * n) / np.sqrt(n)).reshape(d, n).astype(dtype)
    b = _signed_uniform(rng.split(3), d, 0.1, 0.5).astype(dtype)
    lam = BandLambda(d=d, shifts=shifts,
                     values={r: _signed_uniform(rng.split(10 + i), d).astype(dtype)
                             for i, r in enumerate(shifts)})
    x = _signed_uniform(rng.split(4), n).astype(dtype)
    return QELayer(W=w, b=b, lam=lam), x


def _family_instance(family: str, inst_seed: int, precision: str):
    """Build (params, scalar function) for one gradcheck instance.

    The closures cast their captured constants to the bound dtype so the
    same function can be re-evaluated at a different precision by the
    difference-quotient oracle.
    """
    rng = Rng(inst_seed)
    dtype = T.PRECISIONS[precision]
    if family == "qe_mlp":
        dims = tuple(2 + int(v) % 4 for v in rng.split(0).next_u64(4))
        cfg = MLPConfig(layer_dims=dims, activation="gelu", shifts=(1,),
                        seed=inst_seed, dtype=precision)
        model = MLP(cfg)
        params = model.parameters()
        # non-zero couplings exercise every quadratic path
        for j, (name, _arr) in enumerate(sorted(params.items())):
            if "lam[" in name:
                params[name][:] = _signed_uniform(rng.split(900 + j), params[name].size).astype(dtype)
        batch = 2
        x = _signed_uniform(rng.split(1), batch * dims[0]).reshape(batch, dims[0]).astype(dtype)
        labels = (rng.split(2).next_u64(batch) % np.uint64(dims[-1])).astype(np.int64)

        def f(tape, bound):
            dt = bound[next(iter(bound))].value.dtype
            logits = model.apply(tape, bound, tape.const(x.astype(dt, copy=False)))
            return ag.cross_entropy(logits, labels)

        return params, f
    if family == "qe_layer":
        layer, x = _gc_layer_instance(rng, dtype)
    elif family in ("quadranet", "swiglu"):
        n, d = (2 + u % 4 for u in rng.next_u64(2).tolist())
        layer = (QuadraNetLayer(n, d, seed=inst_seed, bias=True, dtype=dtype)
                 if family == "quadranet" else SwiGLULayer(n, d, seed=inst_seed, dtype=dtype))
        x = _signed_uniform(rng.split(1), n).astype(dtype)
    else:
        raise ValueError(f"unknown gradcheck family {family!r}")
    u = _signed_uniform(rng.split(8), layer.d, 0.5, 1.0)
    first = next(iter(layer.parameters()))

    def f(tape, bound):
        dt = bound[first].value.dtype
        out = layer.apply(tape, bound, tape.const(x.astype(dt, copy=False)))
        return _weighted_sum(tape, out, u)

    return layer.parameters(), f


def gradcheck_families(cfg: GradcheckConfig) -> list[FamilyResult]:
    """Per-family worst finite-difference deviation over seeded instances.

    The difference quotients always run in double precision; a
    single-precision configuration checks the float32 analytic gradients
    against the float64 evaluation of the identical function (float32
    parameters lift to float64 exactly).
    """
    base = Rng(cfg.seed)
    results = []
    for family in cfg.families:
        worst = 0.0
        worst_param = ""
        worst_inst = -1
        for i in range(cfg.instances):
            inst_seed = int(base.split(FAMILIES.index(family) * 1_000_003 + i).seed)
            params, f = _family_instance(family, inst_seed, cfg.precision)
            report = ag.gradcheck(f, params, step=cfg.step, tol=cfg.tol)
            if report.max_rel_err > worst:
                worst = report.max_rel_err
                worst_param = report.worst().name
                worst_inst = inst_seed
        results.append(FamilyResult(family=family, instances=cfg.instances,
                                    max_rel_err=worst, worst_param=worst_param,
                                    worst_instance=worst_inst, tol=cfg.tol))
    return results
