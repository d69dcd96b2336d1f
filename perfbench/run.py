"""Benchmark of the minmaxcbo solver, driven through ``minmaxcbo.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload solve_n20 --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one client in one process: each
``cli.main`` call starts when the previous one returns, sweeps pass
``--jobs 1``, and BLAS is capped at BLAS_THREADS threads.  A run executes a
fixed plan of calls whose ``--seed`` values derive from the workload seed,
checks and digests the plan's outputs, then repeats the plan's calls (each
must reproduce its output bytes) until the next call would end after
``--seconds``.  Fixing the plan makes the errors, digests and counters of a
seed repeat exactly; the repeats give the timings more samples.

After the timed loop, one untimed call runs under tracemalloc for the peak
memory that a call allocates: the plan's first call, which must reproduce its
output bytes, or on decay_n1000 the same command over the first quarter.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each plan
call once untraced and once traced (alternating which runs first), checks
that both emit the same bytes, and reports the per-layer metrics of the
traced calls (see spans.py).

The full report is printed and written to perfbench/out/; the last stdout
line is the result object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
SETUP_PROBES = 5

# Sweep shape: criterion 3's forsaken N-sweep at horizon 50, border init.
# Each call runs SWEEP_TRIALS trials per value; the plan pools its calls.
SWEEP_TRIALS = 5
SWEEP_STEPS_PER_TRIAL = 500  # -T 50 at --dt 0.1
SWEEP_ARGV = ["sweep", "--benchmark", "forsaken", "--parameter", "n_particles", "--values", "10,160",
              "--dt", "0.1", "--init", "border", "--jobs", "1"]
DECAY_ARGV = ["solve", "--benchmark", "bilinear", "-N", "1000", "--sigma", "1", "--dt", "0.01",
              "--init", "uniform_box"]

# plan: calls per plan; argv: one timed call; warmup: the set-up call, the
# same shape cut short where a full call would take seconds; memory: the call
# whose peak allocation is measured, the timed call where none is given.
WORKLOADS = {
    # Criterion-2 shape, N=20 and 150 steps: per-step Python overhead,
    # recording, keyed generators and CSV emission dominate.
    "solve_n20": {
        "plan": 100,
        "argv": ["solve", "--benchmark", "bilinearly_coupled"],
        "warmup": ["solve", "--benchmark", "bilinearly_coupled"],
    },
    # Criterion-3 shape: many short trials that keep only summary rows.
    "sweep_n10_n160": {
        "plan": 4,
        "argv": SWEEP_ARGV + ["-T", "50", "--trials", str(SWEEP_TRIALS)],
        "warmup": SWEEP_ARGV + ["-T", "1", "--trials", "1"],
    },
    # Criterion-4 shape, N=1000 over the full horizon: the spread-out early
    # steps (weights mostly underflow) and the concentrated late steps.  Two
    # calls per run halve the spread of a single 20-second call.  The memory
    # call covers the first quarter: the N x N buffers peak at every step, and
    # a third full call would add about 23 s to every run.
    "decay_n1000": {
        "plan": 2,
        "argv": DECAY_ARGV + ["-T", "10"],
        "warmup": DECAY_ARGV + ["-T", "0.05"],
        "memory": DECAY_ARGV + ["-T", "2.5"],
    },
}


def derive_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def cap_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """The checkout's own minmaxcbo modules, never an installed copy."""
    if not (SRC / "minmaxcbo" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'minmaxcbo'} not found; run from the repository root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from minmaxcbo import cli, consensus, dynamics, harness, objectives

    return cli, harness, dynamics, consensus, objectives


def call_cli(main, argv: list[str]) -> tuple[int, float, float]:
    """One closed-loop call with its console output discarded: (exit code, start, end)."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    return code, start, time.perf_counter()


def collect(code: int, start: float, end: float, kind: str, out_dir: Path, prefix: str) -> dict:
    """Outputs of one call: steps, errors per trial, bytes emitted and their digest."""
    res = {"span": (start, end), "seconds": end - start, "ok": code == 0, "steps": 0, "errors": [],
           "emit_bytes": 0, "digest": ""}
    if code != 0:
        return res
    try:
        if kind == "solve":
            body = (out_dir / f"{prefix}.csv").read_bytes()
            summary_bytes = (out_dir / f"{prefix}.json").read_bytes()
            summary = json.loads(summary_bytes)
            res["steps"] = int(summary["steps"])
            res["errors"] = [(None, float(summary["best_err"]))]
        else:
            summary_bytes = (out_dir / f"{prefix}.csv").read_bytes()
            rows = (out_dir / f"{prefix}_trials.csv").read_bytes()
            body = summary_bytes + rows
            trials = list(csv.DictReader(io.StringIO(rows.decode())))
            res["errors"] = [(float(r["value"]), float(r["error"])) for r in trials]
            res["steps"] = len(trials) * SWEEP_STEPS_PER_TRIAL
    except (OSError, ValueError, KeyError) as exc:
        res["ok"] = False
        res["error"] = repr(exc)
        return res
    res["digest"] = hashlib.sha256(body).hexdigest()
    res["emit_bytes"] = len(body)  # CSV only: the JSON summary's wall_time_s varies in length
    res["ok"] = all(math.isfinite(e) for _, e in res["errors"]) if kind == "solve" else True
    return res


def decay_slope(csv_path: Path) -> float:
    """Slope of log V(t) over the window rule of diagnostics.fit_decay_rate.

    The window is the initial stretch where V exceeds max(1e-12, 1e-3 * V(0)).
    """
    import numpy as np

    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    v = np.array([float(r["V"]) for r in rows])
    above = v > max(1e-12, 1e-3 * v[0])
    n = v.size if above.all() else int(np.argmin(above))
    if n < 2:
        return math.nan
    return float(np.polyfit(t[:n], np.log(v[:n]), 1)[0])


def check_outputs(workload: str, plan: list[dict], out_dir: Path) -> list[dict]:
    """The workload's acceptance bounds, applied to the plan's emitted outputs."""
    errors = [(v, e) for r in plan for v, e in r["errors"] if math.isfinite(e)]
    if workload == "solve_n20":
        errs = [e for _, e in errors]
        median = statistics.median(errs) if errs else math.nan
        frac = sum(e < 0.1 for e in errs) / len(plan)
        return [
            {"check": "median error < 0.05", "value": median, "passed": median < 0.05},
            {"check": "share of errors < 0.1 at least 0.7", "value": frac, "passed": frac >= 0.7},
        ]
    if workload == "sweep_n10_n160":
        small = [e for v, e in errors if v == 10.0]
        large = [e for v, e in errors if v == 160.0]
        m10 = statistics.median(small) if small else math.nan
        m160 = statistics.median(large) if large else math.nan
        return [{"check": "median error at N=160 below N=10", "value": [m10, m160], "passed": m160 < m10}]
    checks = []
    for k, r in enumerate(plan):
        slope = decay_slope(out_dir / f"c{k}.csv") if r["ok"] else math.nan
        checks.append({"check": f"call {k}: log-V decay slope <= -0.25", "value": slope, "passed": slope <= -0.25})
    return checks


def setup_probe(workload: str) -> None:
    """Runs in a fresh interpreter: import, objective build and one warm-up call.

    numpy is imported first, by the speed reference, so set-up time covers
    the package's own imports and work.  Prints normalized and raw seconds.
    """
    from speed import SpeedReference

    wl = WORKLOADS[workload]
    out_dir = OUT / "probe"
    out_dir.mkdir(parents=True, exist_ok=True)
    with SpeedReference() as ref:
        start = time.perf_counter()
        cli, *_, objectives = import_package()
        objectives.make_benchmark(wl["argv"][wl["argv"].index("--benchmark") + 1])
        code, *_ = call_cli(cli.main, wl["warmup"] + ["--seed", "0", "--out", str(out_dir), "--prefix", workload])
        end = time.perf_counter()
    if code != 0:
        raise SystemExit(f"error: warm-up call exited with {code}")
    print(ref.normalize([(start, end)])[0], end - start)


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(normalized, raw) set-up seconds of SETUP_PROBES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        normalized, raw = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(normalized), float(raw)))
    return samples


def environment(seed: int, seconds: int) -> dict:
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "workload_seed": seed,
        "seconds": seconds,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}_{kind.lower()}"] = size
    env["caches"] = caches
    with contextlib.suppress(Exception):  # show_config's layout differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    return env


def prepare(workload: str, seed: int):
    """Import the package, make the run's output directory and make the warm-up call."""
    modules = import_package()
    out_dir = OUT / f"{workload}-s{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = WORKLOADS[workload]["warmup"] + ["--seed", "0", "--out", str(out_dir), "--prefix", "warmup"]
    code, *_ = call_cli(modules[0].main, argv)
    if code != 0:
        raise SystemExit(f"error: warm-up call exited with {code}")
    return modules, out_dir


def run_plan_call(modules, tracer, wl: dict, kind: str, seed: int, out_dir: Path, prefix: str, traced: bool) -> dict:
    argv = wl["argv"] + ["--seed", str(seed), "--out", str(out_dir), "--prefix", prefix]
    if not traced:
        return collect(*call_cli(modules[0].main, argv), kind, out_dir, prefix)
    tracer.install(*modules)
    try:
        called = call_cli(tracer.wrap("cli.main", modules[0].main), argv)
    finally:
        tracer.uninstall()
    return collect(*called, kind, out_dir, prefix)


def peak_alloc_call(modules, wl: dict, kind: str, seed: int, out_dir: Path, prefix: str) -> tuple[dict, int]:
    """The workload's memory call under tracemalloc: (its outputs, peak bytes it allocated).

    tracemalloc sees every Python object and numpy buffer allocated after it
    starts, so the peak counts what the call itself holds at once, whatever
    the allocator keeps mapped or how the host backs it.  The call runs
    outside the speed reference, whose samples would add their own buffers.
    A full collection first resets the collector's generation counts, so the
    garbage freed inside the call does not depend on how many calls ran before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        res = run_plan_call(modules, None, {"argv": wl.get("memory", wl["argv"])}, kind, seed, out_dir, prefix,
                            traced=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak


def untraced_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    from speed import SpeedReference

    wl, kind = WORKLOADS[workload], WORKLOADS[workload]["argv"][0]
    setup = measure_setup(workload)
    modules, out_dir = prepare(workload, seed)
    seeds = [derive_seed(workload, seed, i) for i in range(wl["plan"])]
    plan, calls, checks = [], [], []
    with SpeedReference() as ref:
        start = time.perf_counter()
        while True:
            k = len(calls) % len(seeds)
            res = run_plan_call(modules, None, wl, kind, seeds[k], out_dir, f"c{k}", traced=False)
            if len(calls) < len(seeds):
                plan.append(res)
            elif res["digest"] != plan[k]["digest"]:
                res["ok"] = False
            calls.append(res)
            if len(calls) == len(seeds):
                checks = check_outputs(workload, plan, out_dir)
            mean_call = sum(r["seconds"] for r in calls) / len(calls)
            if len(calls) >= len(seeds) and time.perf_counter() - start + mean_call > seconds:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before tracemalloc adds its own
    mem, peak_bytes = peak_alloc_call(modules, wl, kind, seeds[0], out_dir, "memory")
    if "memory" not in wl and mem["digest"] != plan[0]["digest"]:
        mem["ok"] = False
    call_s = ref.normalize([r["span"] for r in calls])
    errs = [e for r in plan for _, e in r["errors"] if math.isfinite(e)]
    metrics = {
        "setup_s": (statistics.median(n for n, _ in setup), "s"),
        "steps_per_s": (sum(r["steps"] for r in calls) / sum(call_s), "steps/s"),
        "call_ms_p50": (statistics.median(call_s) * 1e3, "ms"),
        "peak_alloc_mb": (peak_bytes / 2**20, "MiB"),
    }
    extra = {
        "err_p50": (statistics.median(errs) if errs else math.nan, "sq_dist"),
        # Not gated: on decay_n1000 runs of the same code read about 72 or
        # about 80 MiB, one N x N array apart, as the allocator happens to
        # keep a freed buffer mapped or not.
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    if len(call_s) >= 100:  # at least ten samples beyond p90
        extra["call_ms_p90"] = (statistics.quantiles(call_s, n=10)[-1] * 1e3, "ms")
    raw_s = [r["seconds"] for r in calls]
    extra["raw.setup_s"] = (statistics.median(r for _, r in setup), "s")
    extra["raw.steps_per_s"] = (sum(r["steps"] for r in calls) / sum(raw_s), "steps/s")
    extra["raw.call_ms_p50"] = (statistics.median(raw_s) * 1e3, "ms")
    extra["speed.kernel_us_p50"] = (ref.kernel_s_p50() * 1e6, "us")
    detail = {"setup_samples_s": setup, "calls": len(calls), "plan_calls": len(plan), "checks": checks,
              "speed_samples": ref.samples}
    return finish(workload, kind, calls + [mem], plan, checks, metrics, extra, detail)


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    from spans import Tracer

    wl, kind = WORKLOADS[workload], WORKLOADS[workload]["argv"][0]
    modules, out_dir = prepare(workload, seed)
    tracer = Tracer()
    plan, traced = [], []
    for k in range(wl["plan"]):
        s = derive_seed(workload, seed, k)
        pair = {}
        for t in ((False, True) if k % 2 == 0 else (True, False)):
            pair[t] = run_plan_call(modules, tracer, wl, kind, s, out_dir, f"c{k}", traced=t)
        plan.append(pair[False])
        traced.append(pair[True])
    checks = check_outputs(workload, plan, out_dir)
    same = all(p["digest"] == t["digest"] and p["ok"] and t["ok"] for p, t in zip(plan, traced))
    checks.append({"check": "traced outputs equal untraced outputs", "value": same, "passed": same})
    tracer.save(out_dir / "spans.npz")
    metrics, extra, detail = layer_metrics(tracer, plan, traced)
    detail["checks"] = checks
    return finish(workload, kind, plan + traced, plan, checks, metrics, extra, detail)


def layer_metrics(tracer, plan: list[dict], traced: list[dict]) -> tuple[dict, dict, dict]:
    import numpy as np

    an = tracer.analyse()
    layer, incl, count = an["self_ns_by_layer"], an["incl_ns_by_name"], tracer.counts

    def ms(name: str) -> float:
        return layer.get(name, 0.0) / 1e6

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def p50(parts: list) -> float:
        return float(np.median(np.concatenate(parts))) if parts else 0.0

    steps = sum(r["steps"] for r in traced)
    run_ns = incl.get("dynamics.run", 0.0)
    traced_s = sum(r["seconds"] for r in traced)
    untraced_s = sum(r["seconds"] for r in plan)
    metrics = {
        "objectives.pair_evals": (count["pair_evals"], "count"),
        "objectives.outer_evals": (count["outer_evals"], "count"),
        "objectives.pair_matrix_ms": (ms("pair_matrix"), "ms"),
        "objectives.ns_per_pair_eval": (ratio(layer.get("pair_matrix", 0.0), count["pair_evals"]), "ns"),
        "consensus.self_ms": (ms("consensus"), "ms"),
        "consensus.exp_weights_ms": (ms("exp_weights"), "ms"),
        "consensus.exp_entries": (count["exp_entries"], "count"),
        "consensus.exp_zero_frac": (ratio(count["exp_zeros"], count["exp_entries"]), "ratio"),
        "consensus.ess_x_p50": (p50(tracer.ess_x), "particles"),
        "consensus.ess_y_p50": (p50(tracer.ess_y), "particles"),
        "consensus.exp_bytes_computed": (count["exp_bytes"], "bytes"),
        "dynamics.steps": (steps, "count"),
        "dynamics.rng_builds": (count["rng_builds"], "count"),
        "dynamics.rng_build_ms": (ms("rng"), "ms"),
        "dynamics.clamp_ms": (ms("clamp"), "ms"),
        "dynamics.self_ms": (ms("dynamics"), "ms"),
        "dynamics.us_per_step": (ratio(run_ns / 1e3, steps), "us"),
        "diagnostics.record_ms": (ms("record"), "ms"),
        "diagnostics.record_share": (ratio(layer.get("record", 0.0), run_ns), "ratio"),
        "harness.trials": (sum(len(r["errors"]) for r in traced), "count"),
        "harness.self_ms": (ms("harness"), "ms"),
        "harness.emit_ms": (ms("emit"), "ms"),
        "harness.emit_bytes": (sum(r["emit_bytes"] for r in traced), "bytes"),
        "cli.self_ms": (ms("cli"), "ms"),
        "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "ratio"),
    }
    consensus_ns = sum(layer.get(k, 0.0) for k in ("consensus", "exp_weights", "pair_matrix", "outer_batch"))
    extra = {
        "harness.run_sweep_self_ms": (an["self_ns_by_name"].get("harness.run_sweep", 0.0) / 1e6, "ms"),
        "harness.trials_failed": (sum(not math.isfinite(e) for r in traced for _, e in r["errors"]), "count"),
        "objectives.outer_ms": (ms("outer_batch"), "ms"),
        "trace.hook_ms": (ms("trace"), "ms"),
    }
    detail = {
        "absent_layers": tracer.absent,
        "self_ms_by_layer": {k: v / 1e6 for k, v in sorted(layer.items())},
        "layer_sum_ms": sum(layer.values()) / 1e6,
        "traced_call_ms": traced_s * 1e3,
        "untraced_call_ms": untraced_s * 1e3,
        "share_of_run": {
            "record": ratio(layer.get("record", 0.0), run_ns),
            "rng": ratio(layer.get("rng", 0.0), run_ns),
            "consensus": ratio(consensus_ns, run_ns),
            "clamp": ratio(layer.get("clamp", 0.0), run_ns),
            "dynamics_self": ratio(layer.get("dynamics", 0.0), run_ns),
        },
        "phases": an["phases"],
        "counts": dict(count),
        "spans": len(tracer.start),
    }
    return metrics, extra, detail


def finish(workload, kind, calls, plan, checks, metrics, extra, detail) -> tuple[dict, dict]:
    """Count attempts and failures, and build the report and the result line."""
    trials = sum(len(r["errors"]) for r in calls) if kind == "sweep" else 0
    nan_trials = sum(not math.isfinite(e) for r in calls for _, e in r["errors"]) if kind == "sweep" else 0
    attempted = len(calls) + trials + len(checks)
    failed = sum(not r["ok"] for r in calls) + nan_trials + sum(not c["passed"] for c in checks)
    extra["fail_frac"] = (failed / attempted, "ratio")
    digest = hashlib.sha256("".join(r["digest"] for r in plan).encode()).hexdigest()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "metrics": result["metrics"],
        "also_reported": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "output_sha256": digest,
        **detail,
    }
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cap_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    import_package()  # fail before any work when the package is missing
    if args.trace:
        result, report = traced_run(args.workload, args.seed)
    else:
        result, report = untraced_run(args.workload, args.seed, args.seconds)
    report["environment"] = environment(args.seed, args.seconds)
    report["correct"], report["attempted"], report["failed"] = result["correct"], result["attempted"], result["failed"]
    text = json.dumps(report, indent=1, sort_keys=True)
    (OUT / f"report-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
