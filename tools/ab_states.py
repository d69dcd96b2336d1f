"""In-process A/B timing of ``dynamics.run`` per state: a parent revision against the working tree.

Run from the repository root:

    python3 tools/ab_states.py --benchmark bilinearly_coupled -N 20 --rounds 40
    taskset -c 0 python3 tools/ab_states.py --benchmark bilinear -N 1000 --horizon 1 --rounds 10

The parent revision (``--parent``, default HEAD) is exported with ``git
archive``, as ``tools/bench_pairs.py`` does, and its ``src/minmaxcbo`` is
imported under a second package name beside the working tree's (the package
imports itself only relatively, so a renamed copy loads as it is).  Each
round times one ``run`` of the same configuration on each side, in one
process and one session; the side that goes first alternates between
rounds, so drift of the host's speed does not favour one side.  Pinned to
one CPU, a run at N > 256 steps its row blocks on one worker.

Prints the median over rounds of the change's time over the parent's and
the rounds the change won, then each side's median microseconds per state
and, last, one JSON line with the same numbers.  Quote the ratio and the
rounds won: drift of the host's speed during the run moves both sides'
medians, which can then disagree with the paired ratio on short runs.
Exits 1 unless every array of the two sides' run records, the final
ensemble included, is bitwise equal.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one BLAS thread, as in perfbench, set before numpy loads

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, export_revision

PARENT_PACKAGE = "minmaxcbo_parent"


def load_sides(parent_src: Path, tmp: Path) -> dict:
    """The parent's package, renamed, and the working tree's, each as its ``minmaxcbo`` module."""
    packages = tmp / "packages"
    shutil.copytree(parent_src / "minmaxcbo", packages / PARENT_PACKAGE)
    for path in (str(ROOT / "src"), str(packages)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return {"parent": importlib.import_module(PARENT_PACKAGE), "change": importlib.import_module("minmaxcbo")}


def timed_run(package, args) -> tuple:
    """A timed call of one side's run, returning (seconds, record), and the run's state count."""
    obj = package.make_benchmark(args.benchmark)
    reference = package.benchmark_reference(obj.name)
    horizon = package.objectives.lookup_benchmark(args.benchmark).horizon if args.horizon is None else args.horizon
    config = package.SolverConfig(n_particles=args.n, horizon=horizon, seed=args.seed)

    def call():
        start = time.perf_counter()
        record = package.run(config, obj, reference)
        return time.perf_counter() - start, record

    return call, config.n_steps + 1


def arrays(record) -> dict[str, np.ndarray]:
    """Every array of a run record, the final ensemble's included."""
    out = {name: value for name, value in vars(record).items() if isinstance(value, np.ndarray)}
    out["final_ensemble.xs"], out["final_ensemble.ys"] = record.final_ensemble.xs, record.final_ensemble.ys
    return out


def unequal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> list[str]:
    """The names whose arrays differ in shape, dtype or any byte, or exist on one side only."""
    return sorted(name for name in a.keys() | b.keys()
                  if name not in a or name not in b or a[name].shape != b[name].shape
                  or a[name].dtype != b[name].dtype or a[name].tobytes() != b[name].tobytes())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--benchmark", default="bilinearly_coupled")
    parser.add_argument("-N", dest="n", type=int, default=20, help="particles per population")
    parser.add_argument("--horizon", type=float, help="default: the benchmark's horizon")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=40, help="timed runs per side, after one untimed each")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory(prefix="ab_states_") as tmp:
        parent_sha = export_revision(args.parent, Path(tmp))
        sides = load_sides(Path(tmp) / "parent" / "src", Path(tmp))
        calls, states = {}, None
        for side, package in sides.items():
            calls[side], states = timed_run(package, args)
        first = {side: call()[1] for side, call in calls.items()}  # warm-up, and the records compared
        times = {side: [] for side in sides}
        for r in range(args.rounds):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                times[side].append(calls[side]()[0])

    differ = unequal(arrays(first["parent"]), arrays(first["change"]))
    us = {side: statistics.median(t) / states * 1e6 for side, t in times.items()}
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    result = {
        "benchmark": args.benchmark, "n_particles": args.n, "states": states, "rounds": args.rounds,
        "parent": parent_sha, "parent_us_per_state": us["parent"], "change_us_per_state": us["change"],
        "median_ratio": statistics.median(ratios), "change_won": won, "records_equal": not differ,
    }
    print(f"{args.benchmark} N={args.n}, {states} states, {args.rounds} rounds, parent {parent_sha[:12]}")
    print(f"ratio   {result['median_ratio']:9.4f} (median of change / parent per round); change won {won} of "
          f"{args.rounds} rounds")
    print(f"each side's median us per state, moved by the host's drift during the run, so not for comparing: "
          f"parent {us['parent']:.2f}, change {us['change']:.2f}")
    print("records bitwise equal" if not differ else f"records differ: {', '.join(differ)}")
    print(json.dumps(result, sort_keys=True))
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
