"""Paired benchmark runs of a parent revision against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --workload decay_n1000 --seeds 1,501,502 --topic row_blocks

The parent revision (``--parent``, default HEAD) is exported with
``git archive`` into a temporary directory.  For each seed, ``perfbench/run.py
--workload W --seed S --seconds T --trace 0``, with T the ``run_seconds`` of
BENCHMARK.json, runs once in the parent's copy and once in the working tree,
one run at a time; pair i runs the parent first when i is even and the
working tree first when it is odd, so drift of the host's speed does not
favour one side.

The results go to ``BENCH_<date>_<topic>.json`` (``--out`` overrides the
path) under ``workloads.<W>``; the other workloads of an existing file are
kept, so one file can collect several invocations.  For each workload it
holds every pair's metrics, output digests and failure counts, and for each
end-to-end metric of BENCHMARK.json the median and quartiles of each side,
the change of the medians, the pairs the working tree won (ties count for
neither), the parent's interquartile range and whether the medians differ by
more than it, and whether the working tree's median is within the metric's
regression bound; ``also_summary`` holds each side's median and quartiles of
the raw set-up time, rate and call time and of the speed kernel's time.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]


def export_revision(rev: str, dest: Path) -> str:
    """Extract the files of ``rev`` into ``dest`` with git archive; returns the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = dest / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha], cwd=ROOT, check=True)
    tree = dest / "parent"
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return sha


def run_side(root: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``root``: its report, with the result line's counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    *report_lines, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads("\n".join(report_lines)), json.loads(result_line)
    return {
        "output_sha256": report["output_sha256"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in report["metrics"].items()},
        "also_reported": {k: v["value"] for k, v in report["also_reported"].items()},
        "environment": report["environment"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


# Reported metrics summarized beside the gated ones: the raw set-up time, rate
# and call time show a gain without the speed kernel's normalization, and the
# kernel's own time shows how much that normalization moved between the sides.
ALSO_SUMMARIZED = ("raw.setup_s", "raw.steps_per_s", "raw.call_ms_p50", "speed.kernel_us_p50")


def summarize_also(pairs: list[dict]) -> dict:
    """Per side, the median and quartiles of each ALSO_SUMMARIZED metric."""
    summary = {}
    for name in ALSO_SUMMARIZED:
        summary[name] = {}
        for side in ("parent", "change"):
            values = [p[side]["also_reported"][name] for p in pairs]
            q1, median, q3 = quartiles(values)
            summary[name][side] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    return summary


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, wins, the parent's IQR and the bound check."""
    summary = {}
    for spec in end_to_end:
        name, lower_better = spec["name"], spec["better"] == "lower"
        runs = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        stats = {}
        for side, values in runs.items():
            q1, median, q3 = quartiles(values)
            stats[side] = {"median": median, "q1": q1, "q3": q3, "runs": values}
        wins = sum((c < p) if lower_better else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        parent_median, change_median = stats["parent"]["median"], stats["change"]["median"]
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        worse_by = (change_median - parent_median) if lower_better else (parent_median - change_median)
        summary[name] = {
            "better": spec["better"],
            "bound": spec["bound"],
            **stats,
            "change_vs_parent": change_median / parent_median - 1.0 if parent_median else None,
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "parent_iqr": parent_iqr,
            "median_gain_exceeds_parent_iqr": -worse_by > parent_iqr,
            "within_bound": worse_by <= spec["bound"] * abs(parent_median),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds, one pair each")
    parser.add_argument("--topic", required=True, help="names the output file BENCH_<date>_<topic>.json")
    parser.add_argument("--parent", default="HEAD", help="revision to compare the working tree against")
    parser.add_argument("--out", type=Path, help="output path; default: BENCH_<date>_<topic>.json at the root")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.workload not in {w["name"] for w in BENCHMARK["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    today = datetime.date.today().isoformat()
    out = args.out or ROOT / f"BENCH_{today}_{args.topic}.json"

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_sha = export_revision(args.parent, Path(tmp))
        roots = {"parent": Path(tmp) / "parent", "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "ran_first": order[0]}
            for side in order:
                pair[side] = run_side(roots[side], args.workload, seed)
                print(f"{args.workload} seed {seed} {side}: "
                      + json.dumps({k: round(v, 4) for k, v in pair[side]["metrics"].items()}), file=sys.stderr)
            pair["output_sha256_equal"] = pair["parent"]["output_sha256"] == pair["change"]["output_sha256"]
            pairs.append(pair)

    environment = pairs[0]["change"]["environment"]
    for pair in pairs:
        for side in ("parent", "change"):
            del pair[side]["environment"]
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"workloads": {}}
    doc.update({
        "topic": args.topic,
        "date": today,
        "parent": parent_sha,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} --trace 0",
        "protocol": "pairs of one parent run (git archive of the parent commit) and one working-tree run, one run "
                    "at a time; pair i runs the parent first when i is even. Quartiles are inclusive "
                    "(statistics.quantiles, n=4); change_better_pairs counts strict wins.",
        "machine": {
            "python": platform.python_version(),
            "numpy": environment.get("numpy"),
            "blas": environment.get("blas"),
            "blas_threads": environment.get("blas_threads"),
            "cpu_model": environment.get("cpu_model"),
            "cpus_usable": environment.get("cpus_usable"),
            "caches": environment.get("caches"),
        },
    })
    doc["workloads"][args.workload] = {
        "seeds": seeds,
        "pairs": pairs,
        "summary": summarize(pairs, BENCHMARK["end_to_end"]),
        "also_summary": summarize_also(pairs),
        "all_output_sha256_equal": all(p["output_sha256_equal"] for p in pairs),
        "failed_total": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
