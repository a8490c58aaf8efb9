"""Span tracing of the quadenhance package from outside it.

``Tracer.install`` replaces every public function and method of each
package module (plus the few private helpers named in ``EXTRA``) with a
wrapper that records one span ``(name, start, end, parent)`` per call.
Spans live in flat arrays in memory and are written out once, when the
run ends.  Functions that other modules bound with ``from ... import``
are re-bound there too (``checks.qe_forward``, ``training.save_checkpoint``,
the ``models.ACTIVATIONS`` table, ...), otherwise those calls would escape
the trace.  ``uninstall`` restores every original object.

A few wrappers also feed exact counters (FLOPs, computed bytes, tape
nodes, finite-difference loss evaluations, checkpoint bytes); they are
read per operation and must repeat exactly between operations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

MODULES = ("tensor", "autograd", "enhancer", "models", "datasets", "rng", "training",
           "checks", "montecarlo", "checkpoint", "config", "cli", "cost")

# private helpers that bound a layer the issue table names: the training step
# and Monte Carlo sampling have no public function of their own
EXTRA = ("training._loss_and_grads", "montecarlo._normal_pairs")

ELEMENTWISE = ("tensor.roll", "tensor.hadamard", "tensor.add", "tensor.mul_row", "tensor.add_row")


def _matmul_flops(args, kwargs):
    a, b = args[0], args[1]
    return {"matmul_flops": 2 * a.shape[0] * a.shape[1] * b.shape[1]}


def _elementwise_bytes(args, kwargs):
    # computed from operand sizes: every input read once, one output written
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    return {"elementwise_bytes": sum(a.nbytes for a in arrays) + arrays[0].nbytes}


def _backward_nodes(args, kwargs):
    tape = args[0]
    return {"backward_calls": 1, "backward_nodes": sum(1 for n in tape.nodes if n.inputs)}


def _gradcheck_evals(args, kwargs):
    params = args[1] if len(args) > 1 else kwargs["params"]
    # one analytic pass, then two difference-quotient evaluations per scalar
    return {"gradcheck_loss_evals": 1 + 2 * sum(int(np.size(v)) for v in params.values())}


def _checkpoint_bytes(args, kwargs):
    return {"checkpoint_bytes": os.path.getsize(args[0])}


COUNTER_HOOKS = {
    "tensor.matmul": _matmul_flops,
    **{name: _elementwise_bytes for name in ELEMENTWISE},
    "autograd.Tape.backward": _backward_nodes,
    "autograd.gradcheck": _gradcheck_evals,
    "checkpoint.save_checkpoint": _checkpoint_bytes,
}


class Tracer:
    """Records spans of package calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._dict_patches: list[tuple[dict, object, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorder(self, fn, nid: int, hook):
        """``call(args, kwargs)`` runs ``fn`` inside one span."""
        starts, ends, name_ids, parents, stack = (
            self.starts, self.ends, self.name_ids, self.parents, self._stack)
        clock = time.perf_counter
        counters = self.counters

        def call(args, kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                for key, val in hook(args, kwargs).items():
                    counters[key] = counters.get(key, 0) + val
            return result

        return call

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            # a generator does its work on each next(), so each resumption is
            # one span, closed before the item reaches the consumer
            call_next = self._recorder(next, nid, None)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    try:
                        item = call_next((inner,), {})
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        call = self._recorder(fn, nid, COUNTER_HOOKS.get(name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(args, kwargs)

        return wrapper

    def install(self, package: str = "quadenhance") -> None:
        """Wrap every traced callable and re-bind each alias of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in EXTRA:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(obj, name)
                    replaced[id(obj)] = wrapped
                    self._patch(mod, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, name)
        # aliases: names bound by ``from ... import`` and function tables
        all_mods = [importlib.import_module(package), *modules.values()]
        for mod in all_mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            self._dict_patches.append((obj, key, val))
                            obj[key] = replaced[id(val)]

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        for table, key, old in reversed(self._dict_patches):
            table[key] = old
        self._patches.clear()
        self._dict_patches.clear()

    # -- reading ------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position of the next span and a copy of the counters, taken at an
        operation boundary."""
        return len(self.name_ids), dict(self.counters)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays plus each span's self time (duration minus
        the time its direct children cover)."""
        start, end = np.asarray(self.starts), np.asarray(self.ends)
        name, parent = np.asarray(self.name_ids), np.asarray(self.parents)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"start": start, "end": end, "name": name, "parent": parent,
                "dur": dur, "self": dur - child}

    def save(self, path, segments: list[tuple[str, int, int]]) -> None:
        """Write every span, the name table and the operation boundaries."""
        a = self.arrays()
        np.savez(path, start=a["start"], end=a["end"], name=a["name"], parent=a["parent"],
                 names=np.array(self.names, dtype=str),
                 segment_kind=np.array([s[0] for s in segments], dtype=str),
                 segment_bounds=np.array([(s[1], s[2]) for s in segments], dtype=np.int64).reshape(-1, 2))
