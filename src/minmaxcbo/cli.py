"""Command-line interface: solve, sweep, oracle, gda, bench subcommands.

Exit codes: 0 success, 2 bad configuration or usage, 3 numerical failure.
An unreadable config file, an unwritable output or a size that does not
fit in memory also exits 2; output locations are checked before any work.
Flag values override config-file values, which override defaults.  The
default output directory comes from $MINMAXCBO_OUT (falling back to the
working directory).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import GdaConfig, gda_run
from .errors import ConfigError, InputError, NumericalError
from .harness import (
    CONFIG_KEYS,
    SWEEP_HORIZON,
    SWEEP_PARAMETERS,
    SweepSpec,
    benchmark_config,
    parse_bool,
    parse_config_file,
    parse_floats,
    parse_value,
    run_benchmark,
    run_sweep,
    write_run_csv,
    write_run_summary,
    write_sweep_csv,
)
from .objectives import lookup_benchmark, make_benchmark
from .oracle import GridSpec, solve_minmax

__all__ = ["main"]


def _out_dir(arg: str | None) -> Path:
    """The output directory, checked before any work; the command makes it when it writes its files."""
    path = Path(arg or os.environ.get("MINMAXCBO_OUT", "."))
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {str(path)!r}: {str(existing)!r} is not a directory")
    return path


def _out_file(arg: str | None) -> Path | None:
    """The file an --out flag names, if any, checked before any work."""
    path = Path(arg) if arg else None
    if path is not None and (path.is_dir() or not path.parent.is_dir()):
        raise ConfigError(f"--out {arg!r} must name a file in an existing directory")
    return path


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per configuration key; values stay text until the key's parser reads them."""
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, spec in CONFIG_KEYS.items():
        if spec.parse is parse_bool:
            parser.add_argument(*spec.flags, dest=key, action="store_const", const="true")
            parser.add_argument(f"--no-{spec.flags[0][2:]}", dest=key, action="store_const", const="false")
        else:
            parser.add_argument(*spec.flags, dest=key, help=spec.help)


def _collect_overrides(args: argparse.Namespace) -> tuple[str, dict]:
    """Merge defaults < config file < flags; returns (the benchmark's registry id, overrides)."""
    overrides = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        text = getattr(args, key)
        if text is not None:
            overrides[key] = parse_value(key, text)
    benchmark = overrides.pop("benchmark", None)
    if not benchmark:
        raise ConfigError("no benchmark specified (use --benchmark or a config file)")
    return lookup_benchmark(benchmark).name, overrides


def _cmd_solve(args: argparse.Namespace) -> int:
    benchmark, overrides = _collect_overrides(args)
    out = _out_dir(args.out)
    start = time.perf_counter()
    record, config = run_benchmark(benchmark, overrides)
    wall = time.perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix or f"run_{benchmark}_seed{config.seed}"
    csv_path = out / f"{prefix}.csv"
    json_path = out / f"{prefix}.json"
    write_run_csv(csv_path, record)
    summary = write_run_summary(json_path, record, config, benchmark, wall)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    benchmark, overrides = _collect_overrides(args)
    overrides.setdefault("horizon", SWEEP_HORIZON)
    overrides.setdefault("init", "border")
    config, obj = benchmark_config(benchmark, overrides)
    key, items = SWEEP_PARAMETERS[args.parameter][0], args.values.split(",")
    if not all(item.strip() for item in items):
        raise ConfigError(f"--values {args.values!r} has an empty item")
    spec = SweepSpec(
        parameter=args.parameter,
        values=[parse_value(key, v) for v in items],
        objective=obj,
        base=config,
        trials=args.trials,
        jobs=args.jobs,
    )
    out = _out_dir(args.out)
    summaries = run_sweep(spec)
    out.mkdir(parents=True, exist_ok=True)
    prefix = args.prefix or f"sweep_{benchmark}_{args.parameter}"
    write_sweep_csv(out / f"{prefix}.csv", out / f"{prefix}_trials.csv", spec, summaries)
    for s in summaries:
        print(
            f"{args.parameter}={s.parameter_value:g}: median={s.median_error:.6g} "
            f"q20={s.q20:.6g} q80={s.q80:.6g}"
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    obj, out = make_benchmark(args.benchmark), _out_file(args.out)
    grid = GridSpec(points_per_dim=args.points, refine_rounds=args.rounds)
    start = time.perf_counter()
    sol = solve_minmax(obj, grid)
    payload = {
        "schema": "minmaxcbo/oracle/v1",
        "benchmark": obj.name,
        "x_star": [float(v) for v in sol.x_star],
        "y_star": [float(v) for v in sol.y_star],
        "y_star_all": [[float(v) for v in y] for y in sol.y_star_all],
        "value": sol.value,
        "resolution": sol.resolution,
        "wall_time_s": time.perf_counter() - start,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_gda(args: argparse.Namespace) -> int:
    obj, out = make_benchmark(args.benchmark), _out_file(args.out)
    start_vals = parse_floats(args.start)
    if len(start_vals) != obj.dim_x + obj.dim_y:
        raise ConfigError(f"--start needs {obj.dim_x + obj.dim_y} comma-separated numbers")
    config = GdaConfig(
        step_size=args.eta,
        iterations=args.iters,
        start=(np.array(start_vals[: obj.dim_x]), np.array(start_vals[obj.dim_x :])),
        mode=args.mode,
    )
    with np.errstate(all="ignore"):  # a blown-up iterate reads as diverged or as a numerical failure
        result = gda_run(obj, config)
        final_x, final_y = result.xs[-1], result.ys[-1]
        final_norm = float(np.sqrt(np.sum(final_x**2) + np.sum(final_y**2)))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("schema,iter," + ",".join(
                [f"x_{k}" for k in range(obj.dim_x)] + [f"y_{k}" for k in range(obj.dim_y)]
            ) + "\n")
            for k in range(len(result)):
                cells = [repr(float(v)) for v in (*result.xs[k], *result.ys[k])]
                fh.write(f"minmaxcbo/gda/v1,{k}," + ",".join(cells) + "\n")
    payload = {
        "schema": "minmaxcbo/gda/v1",
        "benchmark": obj.name,
        "mode": args.mode,
        "iterations": len(result) - 1,
        "final_x": [float(v) for v in final_x],
        "final_y": [float(v) for v in final_y],
        "final_norm": final_norm,
        "diverged": result.diverged,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import acceptance

    try:
        only = [int(v) for v in args.only.split(",")] if args.only else None
    except ValueError as exc:
        raise ConfigError(f"--only needs comma-separated criterion numbers, got {args.only!r}") from exc
    results = acceptance.run_all(only=only)
    return 0 if all(r.passed for r in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="minmaxcbo",
        description="Consensus-based particle solver for min-max problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single seeded run with CSV/JSON output")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", help="output directory")
    p_solve.add_argument("--prefix", help="output file prefix")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="multi-trial parameter sweep")
    _add_solver_flags(p_sweep)
    p_sweep.add_argument("--parameter", required=True, choices=tuple(SWEEP_PARAMETERS))
    p_sweep.add_argument("--values", required=True, help="comma-separated parameter values")
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.add_argument("--prefix", help="output file prefix")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="grid-certified global min-max point")
    p_oracle.add_argument("--benchmark", required=True, help="benchmark objective id")
    p_oracle.add_argument("--points", type=int, default=2049)
    p_oracle.add_argument("--rounds", type=int, default=3)
    p_oracle.add_argument("--out", help="write the JSON solution here as well")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gda = sub.add_parser("gda", help="gradient descent-ascent baseline")
    p_gda.add_argument("--benchmark", required=True, help="benchmark objective id")
    p_gda.add_argument("--mode", choices=("simultaneous", "alternating"), default="simultaneous")
    p_gda.add_argument("--eta", type=float, default=0.1)
    p_gda.add_argument("--iters", type=int, default=100)
    p_gda.add_argument("--start", default="1,0", help="comma-separated start point, e.g. --start=-1,0")
    p_gda.add_argument("--out", help="trajectory CSV path")
    p_gda.set_defaults(func=_cmd_gda)

    p_bench = sub.add_parser("bench", help="run the acceptance suite")
    p_bench.add_argument("--only", help="comma-separated criterion numbers")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size that passed its checks but does not fit in memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
