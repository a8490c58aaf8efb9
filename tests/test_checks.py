"""Sweep plumbing: instance replay, precision modes, failure reporting."""

import gc
import tracemalloc

import pytest

from oracles import sweep_instance_streams
from quadenhance import checks
from quadenhance.checks import (gradcheck_families, make_sweep_instance,
                                oracle_chain_sweep)
from quadenhance.config import GradcheckConfig, OracleEquivConfig
from quadenhance.enhancer import qe_forward
from quadenhance.rng import Rng
from quadenhance.tensor import PRECISIONS


def test_sweep_instances_replayable():
    layer_a, x_a = make_sweep_instance(12345)
    layer_b, x_b = make_sweep_instance(12345)
    assert layer_a.W.tobytes() == layer_b.W.tobytes()
    assert x_a.tobytes() == x_b.tobytes()
    assert qe_forward(layer_a, x_a).tobytes() == qe_forward(layer_b, x_b).tobytes()


def test_sweep_covers_widest_shift_set():
    layer, _ = make_sweep_instance(0)    # seed 0 is forced onto the widest set
    assert tuple(layer.lam) == (-2, -1, 1, 2)


def _layer_bytes(layer, x):
    return (layer.W.tobytes(), layer.b.tobytes(), tuple(layer.lam),
            [v.tobytes() for v in layer.lam.values()], x.tobytes(), x.dtype)


@pytest.mark.parametrize("precision,max_dim", [("f64", 32), ("f32", 8)])
def test_block_instances_replay_from_their_seeds(monkeypatch, precision, max_dim):
    """Every instance a sweep builds a block at a time is, bit for bit, the
    one ``make_sweep_instance`` rebuilds from its seed alone and the one its
    streams give drawn one call at a time; its band-vs-dense probe y is
    ``Rng(seed).split(77).uniform(d, -1, 1)``.  The 300 instances of seed 0
    (the perfbench sweep in f64, the pinned f32 one at max_dim 8) span two
    blocks and include a seed that is 0 mod 97."""
    seen, blocks = [], []
    build = checks._sweep_block

    def recording(seeds, max_dim, dtype):
        blocks.append(len(seeds))
        for seed, instance in zip(seeds, build(seeds, max_dim, dtype)):
            seen.append((seed, instance))
            yield instance

    monkeypatch.setattr(checks, "_sweep_block", recording)
    oracle_chain_sweep(OracleEquivConfig.from_dict(
        {"instances": 300, "seed": 0, "precision": precision, "max_dim": max_dim}))
    monkeypatch.undo()
    assert blocks == [checks._BLOCK, 300 - checks._BLOCK]
    assert any(seed % 97 == 0 for seed, _ in seen)
    dtype = PRECISIONS[precision]
    for seed, (layer, x, y) in seen:
        got = _layer_bytes(layer, x)
        assert got == _layer_bytes(*make_sweep_instance(seed, max_dim, dtype))
        d, n, shifts, w, b, lam, x_ref = sweep_instance_streams(seed, max_dim, dtype)
        assert got == (w.tobytes(), b.tobytes(), shifts, [lam[r].tobytes() for r in shifts],
                       x_ref.tobytes(), x_ref.dtype)
        want_y = Rng(seed).split(77).uniform(d, -1.0, 1.0).astype(dtype)
        assert (y.dtype, y.tobytes()) == (want_y.dtype, want_y.tobytes())


def _sweep_peak(instances: int) -> int:
    tracemalloc.start()
    try:
        oracle_chain_sweep(OracleEquivConfig.from_dict({"instances": instances, "max_dim": 8}))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_instances(monkeypatch):
    """Instances are drawn a block at a time, so the traced peak is the same
    for 500 and 2000 instances.  The collector runs as each block starts:
    it empties the interpreter's free lists, whose traced objects would
    otherwise grow with the number of instances made, ~0.1 MB per 1000."""
    build = checks._sweep_block

    def collecting(*args):
        gc.collect()
        yield from build(*args)

    monkeypatch.setattr(checks, "_sweep_block", collecting)
    small, large = _sweep_peak(500), _sweep_peak(2000)
    assert abs(large - small) <= 0.1 * small


def test_small_sweep_passes_both_precisions():
    for precision in ("f64", "f32"):
        cfg = OracleEquivConfig.from_dict({"instances": 50, "seed": 14,
                                           "precision": precision})
        res = oracle_chain_sweep(cfg)
        assert res.passed, res.summary()
        assert res.max_dev_chain <= res.tol / 4, "want comfortable margin"


def test_sweep_deterministic():
    cfg = OracleEquivConfig.from_dict({"instances": 20, "seed": 3})
    a, b = oracle_chain_sweep(cfg), oracle_chain_sweep(cfg)
    assert a.max_dev_chain == b.max_dev_chain
    assert a.worst_seed == b.worst_seed


def test_gradcheck_families_summary_fields():
    cfg = GradcheckConfig.from_dict({"instances": 2, "families": ["swiglu"]})
    (res,) = gradcheck_families(cfg)
    assert res.family == "swiglu"
    assert res.instances == 2
    assert res.worst_param in ("W1", "W2")
    assert "PASS" in res.summary()


def test_gradcheck_f32_mode():
    cfg = GradcheckConfig.from_dict({"instances": 3, "precision": "f32",
                                     "families": ["qe_layer"]})
    (res,) = gradcheck_families(cfg)
    assert res.passed
    assert res.tol == 1e-2
