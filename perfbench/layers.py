"""Per-layer metrics computed from the spans of one traced operation.

Each row of ``LAYER_METRICS`` names the end-to-end figure it should move,
on which workload, and the workload where the prediction is "no change".
Self time is a span's duration minus the time its direct child spans
cover.  Values are per operation; the run reports the median over its
operations, except the step percentiles, which pool every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import ELEMENTWISE, MODULES

REFERENCE = ("enhancer.layer_v_stack", "enhancer.rank1_reference", "enhancer.quadratic_reference",
             "enhancer.rank1_v_stack", "enhancer.dense_lambda_oracle")
# a training step runs from the loss-and-gradient call to the parameter load
# that follows the optimizer step
STEP_BEGIN, STEP_END = "training._loss_and_grads", "models.MLP.load_parameters"

# counts that must repeat exactly between operations (and between runs of
# one seed); later changes may base count claims on these
EXACT_COUNTS = ("autograd.nodes_per_step", "tensor.matmul.calls", "checkpoint.bytes",
                "checks.gradcheck.loss_evals")


class OpSpans:
    """Span totals of one operation (or of several pooled operations)."""

    def __init__(self, names: list[str], arrays: dict[str, np.ndarray],
                 bounds: list[tuple[int, int]], counters: dict[str, int]):
        self._ids = {n: i for i, n in enumerate(names)}
        k = len(names)
        sel = np.concatenate([np.arange(a, b) for a, b in bounds]) if bounds else np.zeros(0, int)
        name = arrays["name"][sel]
        self._self = np.bincount(name, weights=arrays["self"][sel], minlength=k)
        self._incl = np.bincount(name, weights=arrays["dur"][sel], minlength=k)
        self._calls = np.bincount(name, minlength=k)
        self._module = np.array([n.split(".", 1)[0] for n in names]) if k else np.zeros(0, str)
        parent = arrays["parent"][sel]
        parent_name = np.where(parent >= 0, arrays["name"][np.maximum(parent, 0)], -1)
        # the appended False is what index -1 (no parent) picks
        self._from_checks = np.array([n.startswith("checks.") for n in names] + [False])[parent_name]
        self._name, self._dur = name, arrays["dur"][sel]
        begin = sel[name == self._ids.get(STEP_BEGIN, -1)]
        end = sel[name == self._ids.get(STEP_END, -1)]
        if len(begin) != len(end):
            raise RuntimeError(f"unpaired training steps: {len(begin)} begins, {len(end)} ends")
        self.steps_ms = (arrays["end"][end] - arrays["start"][begin]) * 1e3
        self.counters = counters

    def self_s(self, *names: str) -> float:
        return float(sum(self._self[self._ids[n]] for n in names if n in self._ids))

    def incl_s(self, *names: str) -> float:
        return float(sum(self._incl[self._ids[n]] for n in names if n in self._ids))

    def calls(self, *names: str) -> int:
        return int(sum(self._calls[self._ids[n]] for n in names if n in self._ids))

    def module_self_s(self, module: str) -> float:
        return float(self._self[self._module == module].sum())

    def module_calls(self, module: str) -> int:
        return int(self._calls[self._module == module].sum())

    def incl_from_checks(self, *names: str) -> float:
        """Inclusive time of calls to ``names`` made directly by the checks layer."""
        ids = [self._ids[n] for n in names if n in self._ids]
        return float(self._dur[np.isin(self._name, ids) & self._from_checks].sum())

    def count(self, key: str) -> int:
        return int(self.counters.get(key, 0))


def _gflops(o: OpSpans) -> float:
    t = o.self_s("tensor.matmul")
    return o.count("matmul_flops") / t / 1e9 if t > 0 else 0.0


def _nodes_per_step(o: OpSpans) -> float:
    calls = o.count("backward_calls")
    return o.count("backward_nodes") / calls if calls else 0.0


def _step_pct(q: float) -> Callable[[OpSpans], float]:
    return lambda o: float(np.percentile(o.steps_ms, q)) if len(o.steps_ms) else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    value: Callable[[OpSpans], float]
    should_move: str
    on: str
    no_change_on: str
    pooled: bool = False      # computed over every operation's steps at once


TRAIN = "train_samples_per_s"
_ROWS = [
    ("tensor.matmul.calls", "count", lambda o: o.calls("tensor.matmul"), TRAIN, "ffn-train", "ablate-grid"),
    ("tensor.matmul.self_s", "s", lambda o: o.self_s("tensor.matmul"), TRAIN, "ffn-train", "ablate-grid"),
    ("tensor.matmul.flops", "count", lambda o: o.count("matmul_flops"), TRAIN, "ffn-train", "ablate-grid"),
    ("tensor.matmul.gflops_per_s", "GFLOP/s", _gflops, TRAIN, "ffn-train", "ablate-grid"),
    ("tensor.elementwise.self_s", "s", lambda o: o.self_s(*ELEMENTWISE), TRAIN, "ablate-grid",
     "verify-persist ckpt metrics"),
    ("tensor.elementwise.bytes_computed", "B", lambda o: o.count("elementwise_bytes"), TRAIN,
     "ablate-grid", "verify-persist ckpt metrics"),
    ("autograd.nodes_per_step", "count", _nodes_per_step, f"{TRAIN}; gradcheck_instances_per_s",
     "ablate-grid; verify-persist", "ffn-train (within bound)"),
    ("autograd.record.self_s", "s", lambda o: o.self_s("autograd.Tape.record"),
     f"{TRAIN}; gradcheck_instances_per_s", "ablate-grid; verify-persist", "ffn-train (within bound)"),
    ("autograd.backward.self_s", "s", lambda o: o.self_s("autograd.Tape.backward"),
     f"{TRAIN}; gradcheck_instances_per_s", "ablate-grid; verify-persist", "ffn-train (within bound)"),
    ("enhancer.apply.calls", "count", lambda o: o.calls("enhancer.QELayer.apply"),
     f"{TRAIN}; oracle_instances_per_s", "ablate-grid; verify-persist", "ckpt metrics"),
    ("enhancer.apply.self_s", "s", lambda o: o.self_s("enhancer.QELayer.apply"),
     f"{TRAIN}; oracle_instances_per_s", "ablate-grid; verify-persist", "ckpt metrics"),
    ("models.mlp_apply.self_s", "s", lambda o: o.self_s("models.MLP.apply"), TRAIN, "ablate-grid",
     "verify-persist"),
    ("models.adam.calls", "count", lambda o: o.calls("models.Adam.step"), TRAIN, "ablate-grid",
     "verify-persist"),
    ("models.adam.self_s", "s", lambda o: o.self_s("models.Adam.step"), TRAIN, "ablate-grid",
     "verify-persist"),
    ("datasets.batch_iter.self_s", "s", lambda o: o.self_s("datasets.batch_iter"), f"{TRAIN}; setup_s",
     "ablate-grid", "verify-persist"),
    ("datasets.generate_s", "s",
     lambda o: o.incl_s("datasets.gen_xor", "datasets.gen_quadratic_target", "datasets.gen_blobs",
                        "datasets.gen_circles"), f"{TRAIN}; setup_s", "ablate-grid", "verify-persist"),
    ("rng.permutation.self_s", "s", lambda o: o.self_s("rng.Rng.permutation"), TRAIN, "ablate-grid",
     "ffn-train"),
    ("rng.next_u64.self_s", "s", lambda o: o.self_s("rng.Rng.next_u64"), "montecarlo_samples_per_s",
     "verify-persist", "ffn-train"),
    ("training.evaluate.self_s", "s", lambda o: o.self_s("training.evaluate"), TRAIN,
     "ffn-train; ablate-grid", "verify-persist"),
    ("checks.fast_path.self_s", "s", lambda o: o.incl_from_checks("enhancer.qe_forward"),
     "oracle_instances_per_s", "verify-persist", "ffn-train; ablate-grid"),
    ("checks.reference.self_s", "s", lambda o: o.incl_from_checks(*REFERENCE),
     "oracle_instances_per_s", "verify-persist", "ffn-train; ablate-grid"),
    ("checks.gradcheck.loss_evals", "count", lambda o: o.count("gradcheck_loss_evals"),
     "gradcheck_instances_per_s", "verify-persist", "ffn-train; ablate-grid"),
    ("montecarlo.sampling.self_s", "s",
     lambda o: o.self_s("montecarlo.run_montecarlo", "montecarlo._normal_pairs"),
     "montecarlo_samples_per_s", "verify-persist", "ffn-train; ablate-grid"),
    ("montecarlo.quadrature.self_s", "s",
     lambda o: o.incl_s("montecarlo.cross_tail_integral", "montecarlo.square_tail_analytic"),
     "montecarlo_samples_per_s", "verify-persist", "ffn-train; ablate-grid"),
    ("checkpoint.bytes", "B", lambda o: o.count("checkpoint_bytes"), "ckpt_save_MBps, ckpt_load_MBps",
     "verify-persist", "ffn-train; ablate-grid"),
    ("checkpoint.checksum.self_s", "s", lambda o: o.self_s("checkpoint.fnv1a64"),
     "ckpt_save_MBps, ckpt_load_MBps", "verify-persist", "ffn-train; ablate-grid"),
    ("checkpoint.save.self_s", "s", lambda o: o.self_s("checkpoint.save_checkpoint"), "ckpt_save_MBps",
     "verify-persist", "ffn-train; ablate-grid"),
    ("checkpoint.load.self_s", "s", lambda o: o.self_s("checkpoint.load_checkpoint"), "ckpt_load_MBps",
     "verify-persist", "ffn-train; ablate-grid"),
    ("config.parse.self_s", "s", lambda o: o.module_self_s("config"), "setup_s", "all", "-"),
    ("cli.main.self_s", "s", lambda o: o.module_self_s("cli"), "setup_s", "all", "-"),
]

LAYER_METRICS = [LayerMetric(*row) for row in _ROWS] + [
    LayerMetric("training.step_ms.p50", "ms", _step_pct(50), TRAIN, "ffn-train; ablate-grid",
                "verify-persist", pooled=True),
    LayerMetric("training.step_ms.p90", "ms", _step_pct(90), TRAIN, "ffn-train; ablate-grid",
                "verify-persist", pooled=True),
]


def layer_table(names: list[str], arrays: dict[str, np.ndarray],
                ops: list[tuple[int, int, dict[str, int]]]) -> tuple[dict, dict, list[str]]:
    """Per-layer values, per-module self time and calls, and the exact counts
    that did not repeat between operations."""
    per_op = [OpSpans(names, arrays, [(a, b)], c) for a, b, c in ops]
    pooled = OpSpans(names, arrays, [(a, b) for a, b, _ in ops], {})
    values, unsteady = {}, []
    for m in LAYER_METRICS:
        if m.pooled:
            values[m.name] = m.value(pooled)
            continue
        seen = [m.value(o) for o in per_op]
        values[m.name] = float(np.median(seen))
        if m.name in EXACT_COUNTS and len(set(seen)) > 1:
            unsteady.append(f"{m.name}: {seen}")
    values["training.steps"] = len(pooled.steps_ms)
    modules = {mod: {"self_s": float(np.median([o.module_self_s(mod) for o in per_op])),
                     "calls": int(np.median([o.module_calls(mod) for o in per_op]))}
               for mod in MODULES}
    return values, modules, unsteady
