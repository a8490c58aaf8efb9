"""Command-line harness.

    quadenhance <gradcheck|oracle-equiv|montecarlo|train|ablate-k>
                [--config PATH] [--seed N] [--out DIR]
    quadenhance cost (--preset NAME | --config PATH) [--out DIR]

Config files are JSON with strictly validated keys; --seed overrides the
config seed, --out picks the output directory (default runs/<command>).
Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 I/O or
data error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .checkpoint import write_atomic
from .checks import gradcheck_families, oracle_chain_sweep
from .config import (COST_PRESETS, AblateConfig, CostConfig, GradcheckConfig,
                     MonteCarloConfig, OracleEquivConfig, TrainConfig, load_json)
from .cost import count_model
from .errors import ConfigError, DataError, NumericError, QuadEnhanceError, prefixed
from .montecarlo import format_table, rows_to_csv, run_montecarlo
from .training import ablate_run, build_model, train_run

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

def _out_dir(args, command: str) -> Path:
    out = Path(args.out) if args.out else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args, config_cls, required: bool = False):
    if args.config is None:
        if required:
            raise ConfigError(f"this subcommand needs --config (schema: {config_cls.__name__})")
        cfg = config_cls.from_dict({})
    else:
        cfg = config_cls.from_dict(load_json(args.config))
    if args.seed is not None and hasattr(cfg, "seed"):
        cfg = replace(cfg, seed=int(args.seed))
    return cfg


def cmd_gradcheck(args) -> int:
    cfg = _load(args, GradcheckConfig)
    results = gradcheck_families(cfg)
    out = _out_dir(args, "gradcheck")
    lines = ["family,instances,max_rel_err,worst_param,worst_instance,tol,passed"]
    for r in results:
        print(r.summary())
        lines.append(f"{r.family},{r.instances},{r.max_rel_err:.10e},"
                     f"{r.worst_param},{r.worst_instance},{r.tol:.1e},{int(r.passed)}")
    write_atomic(out / "gradcheck.csv", ("\n".join(lines) + "\n").encode())
    if all(r.passed for r in results):
        print("all gradient checks passed")
        return EXIT_PASS
    failing = [r.family for r in results if not r.passed]
    print(f"gradient check FAILED for: {', '.join(failing)}")
    return EXIT_CHECK_FAILURE


def cmd_oracle_equiv(args) -> int:
    cfg = _load(args, OracleEquivConfig)
    res = oracle_chain_sweep(cfg)
    print(res.summary())
    out = _out_dir(args, "oracle-equiv")
    write_atomic(out / "oracle_equiv.csv", (
        "instances,seed,precision,tol,max_dev_chain,max_dev_lambda,worst_seed,passed\n"
        f"{res.instances},{res.seed},{res.precision},{res.tol:.1e},"
        f"{res.max_dev_chain:.10e},{res.max_dev_lambda:.10e},{res.worst_seed},{int(res.passed)}\n"
    ).encode())
    if not res.passed:
        print(f"replay the worst instance with seed {res.worst_seed}")
        return EXIT_CHECK_FAILURE
    return EXIT_PASS


def cmd_montecarlo(args) -> int:
    cfg = _load(args, MonteCarloConfig)
    rows = run_montecarlo(cfg.v_list, cfg.samples, cfg.seed)
    print(format_table(rows))
    out = _out_dir(args, "montecarlo")
    write_atomic(out / "montecarlo.csv", rows_to_csv(rows).encode())
    return EXIT_PASS


def cmd_cost(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("cost needs exactly one of --config and --preset")
    cfg = (CostConfig(preset=args.preset) if args.config is None
           else CostConfig.from_dict(load_json(args.config)))
    spec = cfg.model if cfg.preset is None else COST_PRESETS[cfg.preset]
    with prefixed("cost.model", ConfigError):
        model = build_model(spec, seed=0, dtype="f64")
    report = count_model(model)
    print(report.format_table())
    out = _out_dir(args, "cost")
    write_atomic(out / "cost.csv", report.to_csv().encode())
    return EXIT_PASS


def cmd_train(args) -> int:
    cfg = _load(args, TrainConfig, required=True)
    out = _out_dir(args, "train")
    result = train_run(cfg, out_dir=out)
    last = result.rows[-1]
    acc = (f", train accuracy {result.final_train_accuracy:.4f}"
           if result.final_train_accuracy is not None else "")
    print(f"trained {cfg.epochs} epochs; final train loss {result.final_train_loss:.6e}{acc}")
    if last.valid_loss is not None:
        print(f"valid loss {last.valid_loss:.6e}"
              + (f", valid accuracy {last.valid_accuracy:.4f}" if last.valid_accuracy is not None else ""))
    print(f"outputs in {out}")
    return EXIT_PASS


def cmd_ablate_k(args) -> int:
    cfg = _load(args, AblateConfig, required=True)
    if args.seed is not None:
        base = int(args.seed)
        cfg = replace(cfg, seeds=tuple(base + i for i in range(len(cfg.seeds))))
    out = _out_dir(args, "ablate-k")
    result = ablate_run(cfg, out_dir=out)
    print(result.format_table())
    print(f"outputs in {out}")
    return EXIT_PASS


# subcommand -> handler; ``main`` looks the handler up on each call, so the
# cached parser holds names, not functions
COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "oracle-equiv": cmd_oracle_equiv,
    "montecarlo": cmd_montecarlo,
    "cost": cmd_cost,
    "train": cmd_train,
    "ablate-k": cmd_ablate_k,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (~1 ms); parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="quadenhance",
        description="experiments on band-sparse quadratic layer enhancement")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        if name == "cost":
            # cost builds its model at seed 0 and has no seed to override
            p.add_argument("--preset", type=str, default=None,
                           help=f"named preset: {', '.join(sorted(COST_PRESETS))}")
        else:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data/io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except QuadEnhanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
