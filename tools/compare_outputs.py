"""Check that a parent revision and the working tree write the same output files.

Run from the repository root:

    python3 tools/compare_outputs.py [--parent REV]

The parent revision (default HEAD) is exported with ``git archive``, as
``tools/bench_pairs.py`` does.  One child process per side then runs, with
its own ``src/`` first on the path and one BLAS thread:

- ``solve`` for every built-in benchmark under each init mode, with seeds
  3 and 2**32 + 7 (a seed of two 32-bit words) and horizon 2;
- one small ``sweep`` of ``forsaken`` over N in {5, 12}, 3 trials, horizon 3;
- ``sweep`` of ``forsaken`` over N in {5, 12, 160}, 7 trials, horizon 3, at
  ``--jobs 1`` and ``--jobs 2``: at N = 5 and 12 a batch holds more than one
  trial (all 7, or 4 and 3 on two jobs), at N = 160 every trial runs alone;
- ``sweep`` of ``bilinear`` over sigma in {1.5, 3.16e5}, unprojected, 7
  trials, horizon 3, at ``--jobs 1`` and ``--jobs 2``: at sigma = 3.16e5
  some trials turn non-finite, so their rows read ``nan``;
- ``solve`` of ``bilinear`` and ``forsaken`` at N = 300 and N = 1000 for 30
  steps, and ``sweep`` of ``forsaken`` at N = 300, 3 trials, horizon 1, at
  ``--jobs 1`` and ``--jobs 2``: these split the pair matrix into several
  row blocks, which the caller and its forked helper step on a machine
  with two or more CPUs, and one process on a single CPU;
- ``solve`` and ``sweep`` of ``forsaken`` with a ``--config`` file that sets
  ``init = gaussian``, ``init_mean``, ``init_std`` and
  ``diffusion = isotropic``;
- ``solve`` of ``bilinearly_coupled`` with ``--init gaussian --init-mean 0.5
  --init-std 0.3``, and with the ``--lam`` and ``--sigma`` aliases and
  ``--epsilon 0.5``;
- ``oracle`` of ``forsaken`` (two inner maximizers) and ``sixth_order`` on a
  257-point grid with 2 refinement rounds, and one ``gda`` run of
  ``bilinearly_coupled``: these take a file path as ``--out``.

Each output file is hashed with sha256.  The JSON summaries are hashed
without their ``wall_time_s``, the one field that varies between calls.
The script prints one line per file and exits 1 if any file differs or
exists on one side only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export_revision

BENCHMARKS = ("bilinear", "bivariate", "bilinearly_coupled", "forsaken", "sixth_order", "remark_function")
SEEDS = (3, 2**32 + 7)
INIT_MODES = ("uniform_box", "border", "gaussian")
HORIZON = "2"
SWEEPS = [
    ["sweep", "--benchmark", "forsaken", "--parameter", "n_particles", "--values", "5,12",
     "--trials", "3", "-T", "3", "--jobs", "1", "--prefix", "sweep"],
    *(["sweep", "--benchmark", "forsaken", "--parameter", "n_particles", "--values", "5,12,160",
       "--trials", "7", "-T", "3", "--jobs", jobs, "--prefix", f"sweep_batches_jobs{jobs}"] for jobs in ("1", "2")),
    *(["sweep", "--benchmark", "bilinear", "--parameter", "sigma", "--values", "1.5,3.16e5", "--no-project",
       "-T", "3", "--trials", "7", "--seed", "9", "--jobs", jobs, "--prefix", f"sweep_failing_jobs{jobs}"]
      for jobs in ("1", "2")),
]
LARGE_N = [
    *(["solve", "--benchmark", name, "-N", n, "--dt", "0.01", "-T", "0.3", "--seed", "3", "--prefix", f"{name}_n{n}"]
      for name in ("bilinear", "forsaken") for n in ("300", "1000")),
    *(["sweep", "--benchmark", "forsaken", "--parameter", "n_particles", "--values", "300", "--trials", "3",
       "-T", "1", "--jobs", jobs, "--prefix", f"sweep_n300_jobs{jobs}"] for jobs in ("1", "2")),
]
# The config file of CONFIG_CALLS, written once for both sides; {config} in an argv is its path.
CONFIG_FILE = "init = gaussian\ninit_mean = 0.25\ninit_std = 0.5\ndiffusion = isotropic\n"
CONFIG_CALLS = [
    ["solve", "--benchmark", "forsaken", "--config", "{config}", "--seed", "3", "-T", HORIZON,
     "--prefix", "config_file"],
    ["sweep", "--benchmark", "forsaken", "--config", "{config}", "--parameter", "sigma", "--values", "0.5,1.5",
     "--trials", "3", "-T", "3", "--prefix", "sweep_config_file"],
    ["solve", "--benchmark", "bilinearly_coupled", "--init", "gaussian", "--init-mean", "0.5", "--init-std", "0.3",
     "--seed", "3", "-T", HORIZON, "--prefix", "init_flags"],
    ["solve", "--benchmark", "bilinearly_coupled", "--lam", "0.8", "--sigma", "1.2", "--epsilon", "0.5",
     "--seed", "3", "-T", HORIZON, "--prefix", "aliases"],
]
# (argv, output file name): oracle and gda write the one file named by --out.
FILE_OUTPUTS = [
    *((["oracle", "--benchmark", name, "--points", "257", "--rounds", "2"], f"oracle_{name}.json")
      for name in ("forsaken", "sixth_order")),
    (["gda", "--benchmark", "bilinearly_coupled", "--mode", "alternating", "--eta", "0.01", "--iters", "200",
      "--start=0.5,-0.5"], "gda_bilinearly_coupled.csv"),
]
CHILD = """
import json, sys
from minmaxcbo.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exited nonzero: {argv}")
"""
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def commands(config: Path) -> list[tuple[list[str], str | None]]:
    """The CLI calls both sides make, each with the file it writes, or None for one that writes into --out."""
    calls = [
        ["solve", "--benchmark", name, "--init", mode, "--seed", str(seed), "-T", HORIZON,
         "--prefix", f"{name}_{mode}_seed{seed}"]
        for name in BENCHMARKS for mode in INIT_MODES for seed in SEEDS
    ]
    calls += [[arg.format(config=config) for arg in call] for call in CONFIG_CALLS]
    return [(call, None) for call in calls + SWEEPS + LARGE_N] + FILE_OUTPUTS


def run_side(root: Path, calls: list[tuple[list[str], str | None]], out: Path) -> None:
    out.mkdir(parents=True)
    argvs = [call + ["--out", str(out / name if name else out)] for call, name in calls]
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run in {root} failed:\n{proc.stderr[-2000:]}")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        summary = json.loads(data)
        summary.pop("wall_time_s", None)
        data = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        config = Path(tmp) / "gaussian_isotropic.conf"
        config.write_text(CONFIG_FILE, encoding="utf-8")
        calls = commands(config)
        sha = export_revision(args.parent, Path(tmp))
        outs = {"parent": Path(tmp) / "out_parent", "change": Path(tmp) / "out_change"}
        run_side(Path(tmp) / "parent", calls, outs["parent"])
        run_side(ROOT, calls, outs["change"])
        hashes = {side: {p.name: digest(p) for p in out.iterdir()} for side, out in outs.items()}
    names = sorted(hashes["parent"].keys() | hashes["change"].keys())
    differ = 0
    for name in names:
        parent, change = hashes["parent"].get(name), hashes["change"].get(name)
        same = parent is not None and parent == change
        differ += not same
        print(f"{'equal' if same else 'DIFFERS'}  {name}  {parent or '-'}  {change or '-'}")
    print(f"{len(names) - differ} of {len(names)} output files equal (parent {sha[:12]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
