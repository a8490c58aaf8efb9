"""Benchmark of quadenhance: closed-loop workloads in one process and one thread.

    python3 perfbench/run.py --workload ffn-train|ablate-grid|verify-persist|all \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root.  It imports the package from ``src/``,
makes every input from ``--seed``, runs operations back to back for
``--seconds`` seconds, checks every output, and prints the machine facts,
a detail line, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` wraps the package
in spans and reports its per-layer metrics, the tracing overhead and, for
the training workloads, the enhancer's wall-clock overhead beside
cost.py's FLOP ratio.  Scratch files and traces go to ``.perfbench/``.
"""

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy loads BLAS: multi-threaded OpenBLAS stalls on small GEMMs on
# a 2-vCPU machine; a value the user set is kept
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5      # set-ups per run; setup_s takes their median
MIN_OPS = 3            # a run times at least this many operations
UNTRACED_OPS = 3       # untraced operations after a traced run, for its overhead
OVERHEAD_PAIRS = {"ffn-train": 3, "ablate-grid": 9}


def import_package():
    """Import quadenhance from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quadenhance
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import quadenhance from {src}: {exc}")
    if Path(quadenhance.__file__).resolve().parent != src / "quadenhance":
        raise SystemExit(f"perfbench: quadenhance came from {quadenhance.__file__}, not {src}")


IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import workloads; print(time.perf_counter() - t0)")


def fresh_import_s() -> float:
    """Time to import the package (and numpy, scipy) in a new interpreter.

    Imports happen once per process, so each set-up repeat measures them in
    a short-lived child process; the workloads themselves run in this one.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def machine_facts(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "kernels": "exact",
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size}


def closed_loop(workload, seconds: float, min_ops: int, tracer=None):
    """Run operations back to back; return outcomes and, when traced, each
    operation's span range and counter increments."""
    outcomes, bounds = [], []
    start = time.perf_counter()
    while len(outcomes) < min_ops or time.perf_counter() - start < seconds:
        before = tracer.mark() if tracer else None
        t0 = time.perf_counter()
        out = workload.op()
        out.seconds = time.perf_counter() - t0
        if tracer:
            after = tracer.mark()
            bounds.append((before[0], after[0],
                           {k: v - before[1].get(k, 0) for k, v in after[1].items()}))
        outcomes.append(out)
    return outcomes, bounds


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"min": v, "median": v, "q1": None, "q3": None, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(workload, outcomes) -> dict:
    """Operation times and the workload's own throughputs over successful ops."""
    ok = [o for o in outcomes if not o.failures]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    rates = {}
    for metric, unit in workload.metrics.items():
        vals = [o.work[metric][0] / o.work[metric][1] for o in ok if metric in o.work]
        rates[metric] = {"value": statistics.median(vals) if vals else 0.0,
                         "best": max(vals, default=0.0), "unit": unit, "n": len(vals)}
    # each timed program call at its fastest in the run, summed over the calls
    # of one operation: interference on a shared host only ever adds time
    best_ms = sum(min(o.work[m][1] for o in ok) for m in workload.metrics) * 1e3 if ok else 0.0
    return {"op_ms": _spread([o.seconds * 1e3 for o in ok]), "best_op_ms": best_ms, "rates": rates,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 1.0,
            "failures": [f for o in outcomes for f in o.failures][:5]}


def run_workload(name: str, args, bench: dict) -> tuple[dict, dict]:
    """One workload end to end; returns (detail, result)."""
    from spans import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[name](args.seed, args.size, workdir)
        segments = []
        if tracer:
            tracer.install()
        setup_times, import_times = [], []
        for _ in range(SETUP_REPEATS):
            if not tracer:
                import_times.append(fresh_import_s())
            first = tracer.mark()[0] if tracer else 0
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                segments.append(("setup", first, tracer.mark()[0]))
        outcomes, bounds = closed_loop(workload, args.seconds, MIN_OPS, tracer)
        segments += [("op", a, b) for a, b, _ in bounds]
        summary = summarize(workload, outcomes)
        detail = {"workload": name, **summary,
                  "setup": {"import_s": import_times, "build_s": setup_times}}
        correct = summary["failed"] == 0
        if not tracer:
            metrics = {"setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
                       "op_ms": summary["best_op_ms"],
                       "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        else:
            detail_t, metrics, unsteady = traced_report(name, workload, tracer, segments, bounds,
                                                        outcomes)
            detail.update(detail_t)
            detail["attempted"] += detail_t["untraced"]["attempted"]
            detail["failed"] += detail_t["untraced"]["failed"]
            correct = detail["failed"] == 0 and not unsteady
        wanted = bench["per_layer" if tracer else "end_to_end"]
        result = {"correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
                  "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                              for m in wanted}}
        return detail, result
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def traced_report(name, workload, tracer, segments, bounds, outcomes):
    """Per-layer table, tracing overhead and enhancer overhead of a traced run."""
    from layers import EXACT_COUNTS, LAYER_METRICS, layer_table
    from workloads import flop_ratio, wall_overhead

    configs = workload.overhead_configs() if hasattr(workload, "overhead_configs") else None
    ratio = None
    if configs:
        first = tracer.mark()[0]
        ratio = flop_ratio(configs[0])
        segments.append(("cost", first, tracer.mark()[0]))
    tracer.uninstall()
    untraced, _ = closed_loop(workload, 0.0, UNTRACED_OPS)
    untraced_sum = summarize(workload, untraced)
    traced_ms = summarize(workload, outcomes)["op_ms"]["min"]
    untraced_ms = untraced_sum["op_ms"]["min"]
    overhead = traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0

    values, modules, unsteady = layer_table(tracer.names, tracer.arrays(), bounds)
    values["trace.overhead_frac"] = overhead
    trace_file = OUT / f"trace-{name}.npz"
    tracer.save(trace_file, segments)

    wall = None
    if configs:
        wall = wall_overhead(*configs, OVERHEAD_PAIRS[name])
        wall["cost.flop_ratio"] = ratio
    detail = {
        "layers": [{"name": m.name, "value": values[m.name], "unit": m.unit,
                    "should_move": m.should_move, "on": m.on, "no_change_on": m.no_change_on,
                    "exact": m.name in EXACT_COUNTS} for m in LAYER_METRICS],
        "training.steps": values["training.steps"],
        "modules": modules,
        "tracing": {"traced_op_ms": traced_ms, "untraced_op_ms": untraced_ms,
                    "overhead_frac": overhead, "spans": len(tracer.name_ids),
                    "file": str(trace_file.relative_to(ROOT))},
        "untraced": {"attempted": untraced_sum["attempted"], "failed": untraced_sum["failed"],
                     "failures": untraced_sum["failures"]},
        "wall_overhead": wall,
        "unsteady_counts": unsteady,
    }
    return detail, values, unsteady


def print_report(facts: dict, detail: dict, result: dict) -> None:
    print("facts " + json.dumps(facts, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    lines = [f"  {k:<36} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    lines += [f"  {k:<36} {v['value']:.6g} {v['unit']} (median of {v['n']})"
              for k, v in detail["rates"].items()]
    lines.append(f"  {'failed_frac':<36} {detail['failed_frac']:.6g} "
                 f"({detail['failed']} failed of {detail['attempted']} attempted)")
    if detail.get("wall_overhead"):
        w = detail["wall_overhead"]
        lines.append(f"  {'enhancer.wall_overhead':<36} {w['enhancer.wall_overhead']:+.4f} "
                     f"(quartiles {w['quartiles'][0]:+.4f} .. {w['quartiles'][1]:+.4f}, "
                     f"{w['pairs']} pairs)  cost.flop_ratio {w['cost.flop_ratio']:.4f}")
    print(f"[{detail['workload']}]\n" + "\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ffn-train", "ablate-grid", "verify-persist", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the self-test")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_package()
    sys.path.insert(0, str(HERE))
    import workloads

    facts = machine_facts(args)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        detail, result = run_workload(name, args, bench)
        print_report(facts, detail, result)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
