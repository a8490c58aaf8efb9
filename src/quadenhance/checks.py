"""Verification sweeps: oracle-chain equivalence and gradient checking.

The oracle chain evaluates the same enhanced layer three ways:

    fast path   z = (L y) * y + y + b        (band kernels)
    rank-1      z = (P x) * (Q x) + W x + b  with P = L W, Q = W
    unfactored  z_i = x^T V_i x + (W x)_i + b_i  with V_i = p_i q_i^T

The last two run through plain numpy, independent of the package
kernels, so agreement localizes faults rather than assuming them away.
Instances are drawn ``_BLOCK`` at a time in one vectorised pass, yet each
is what ``make_sweep_instance`` rebuilds from the seed failure reports give.
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
from .rng import Rng, split_seeds, stream_draws, stream_uniform

_BLOCK = 256       # instances drawn together; memory is O(block), not O(instances)


def _sweep_block(seeds: list[int], max_dim: int, dtype):
    """(layer, x, y) for each instance seed, every stream of the block drawn in
    one pass: d, n from draws 0-1 of Rng(seed); from split(1), one draw per
    shift of the +/-3 pool not 0 mod d (a square term), even to keep it, the
    next picking one if none is kept; W, b, lambda_i, x and the band-vs-dense
    probe y from split(2), (3), (10 + i), (4) and (77).  Magnitudes stay
    moderate so the absolute tolerances hold headroom in both precisions."""
    s = np.array(seeds, dtype=np.uint64)
    ints = stream_draws(np.stack([s, split_seeds(s, 1)], 1), [2, 7] * len(seeds)).reshape(-1, 9)
    shapes = []
    for seed, (u, v, *draws) in zip(seeds, ints.tolist()):
        d, n = 2 + u % (max_dim - 1), 1 + v % max_dim
        if seed % 97 == 0:
            d, shifts = max(d, 5), (-2, -1, 1, 2)    # the widest ablation set
        else:
            cands = [r for r in (-3, -2, -1, 1, 2, 3) if r % d != 0]
            shifts = (tuple(r for r, u in zip(cands, draws) if u % 2 == 0)
                      or (cands[draws[len(cands)] % len(cands)],))
        shapes.append((d, n, shifts))
    d, n, k = np.array([(d, n, len(shifts)) for d, n, shifts in shapes]).T[:, :, None]
    # per instance W, y and lambda_0 .. lambda_5, the ones past k empty and skipped
    wide = stream_uniform(np.stack([split_seeds(s, t) for t in (2, 77, *range(10, 16))], 1),
                          np.hstack([d * n, d, d * (np.arange(6) < k)]).ravel(), -1.0, 1.0)
    wide = (p for p in wide if p.size)
    narrow = iter(stream_uniform(np.stack([split_seeds(s, 3), split_seeds(s, 4)], 1),
                                 np.hstack([d, n]).ravel(), -0.5, 0.5))
    for seed, (d, n, shifts) in zip(seeds, shapes):
        w = (next(wide) / np.sqrt(n)).reshape(d, n).astype(dtype)
        y = next(wide).astype(dtype)
        lam = BandLambda(d=d, shifts=shifts, values={r: next(wide).astype(dtype) for r in shifts})
        b, x = next(narrow).astype(dtype), next(narrow).astype(dtype)
        yield QELayer(W=w, b=b, lam=lam, name=f"sweep-{seed}"), x, y


def make_sweep_instance(instance_seed: int, max_dim: int = 32, dtype=np.float64):
    """The seeded random (layer, x) pair of one sweep instance."""
    return next(_sweep_block([instance_seed], max_dim, dtype))[:2]


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
    for start in range(0, cfg.instances, _BLOCK):
        seeds = [int(base.split(i).seed) for i in range(start, min(start + _BLOCK, cfg.instances))]
        for inst_seed, (layer, x, y) in zip(seeds, _sweep_block(seeds, cfg.max_dim, dtype)):
            z_fast = qe_forward(layer, x)
            m = dense_lambda_oracle(layer.lam)
            p, q = layer_v_stack(layer, m)
            z_rank1 = rank1_reference(x, p, q, layer.W, layer.b)
            z_full = quadratic_reference(x, layer.W, layer.b, rank1_v_stack(p, q))
            dev = max(float(np.abs(z_fast - z_rank1).max()),
                      float(np.abs(z_rank1 - z_full).max()),
                      float(np.abs(z_fast - z_full).max()))
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
