"""Experiment harness: configuration, single runs, sweeps, CSV/JSON emission.

Sweep trial t of a parameter value always runs with seed base_seed + t, so
any row of a sweep can be reproduced standalone, although the trials of a
value advance together in batches.  Quantiles use the
nearest-rank method: the q-quantile of n sorted values is the element at
index ceil(q * n) - 1.
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import dynamics
from .consensus import _usable_cpus
from .diagnostics import RunRecord, error_to_reference
from .dynamics import SolverConfig, run
from .errors import ConfigError, InputError, NumericalError, check_counts
from .objectives import (
    ObjectiveFunction,
    ReferencePoint,
    benchmark_reference,
    lookup_benchmark,
    make_benchmark,
)

__all__ = [
    "ConfigKey",
    "CONFIG_KEYS",
    "SWEEP_PARAMETERS",
    "SweepSpec",
    "TrialSummary",
    "SWEEP_HORIZON",
    "RUN_CSV_SCHEMA",
    "SWEEP_CSV_SCHEMA",
    "TRIAL_CSV_SCHEMA",
    "nearest_rank_quantile",
    "parse_bool",
    "parse_floats",
    "parse_value",
    "benchmark_config",
    "parse_config_file",
    "apply_overrides",
    "run_benchmark",
    "run_sweep",
    "write_run_csv",
    "write_run_summary",
    "write_sweep_csv",
]

# Single-run horizons come from the benchmark registry; sweeps use a longer
# common horizon.
SWEEP_HORIZON = 50.0

# v2: each consensus average divides its weighted sum by its weights' sum.
# v3: the step noise is keyed by chunks of steps (see dynamics._StepNoise).
RUN_CSV_SCHEMA = "minmaxcbo/run/v3"
SWEEP_CSV_SCHEMA = "minmaxcbo/sweep/v3"
TRIAL_CSV_SCHEMA = "minmaxcbo/trials/v3"
RUN_JSON_SCHEMA = "minmaxcbo/summary/v3"

# Pair entries of one consensus block that a sweep batch may hold: T trials
# of N particles make T * N^2.  Measured on forsaken with one BLAS thread:
# 5 trials of N = 10 ran 3.3 times and 40 of N = 20 5.3 times faster in one
# batch than alone, 2 of N = 128 1.1 times.  At N = 160 the cap is set by
# memory: 5 trials in one (5, 160, 160) block ran faster than alone, but
# raised a sweep's tracemalloc peak from 0.49 to 2.1 MiB, and blocks capped
# at 25 600 entries gained nothing (ROADMAP, settled notes).  2**14 keeps
# 163 trials at N = 10, 40 at N = 20 and one from N = 129 on.
_BATCH_ENTRIES = 2**14

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_bool(text: str) -> bool:
    v = text.strip().lower()
    if v in _BOOL_TRUE:
        return True
    if v in _BOOL_FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def parse_floats(text: str) -> list[float]:
    """Numbers separated by commas and/or blanks."""
    try:
        return [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_pair(text: str) -> tuple[float, float]:
    values = parse_floats(text)
    if len(values) != 2:
        raise ConfigError(f"expected two comma-separated numbers, got {text!r}")
    return values[0], values[1]


@dataclass(frozen=True)
class ConfigKey:
    """One configuration key: its text parser, the fields it sets and its CLI flags.

    ``sets`` names SolverConfig fields; the benchmark and box keys set
    none because they select the objective.  A key parsed by parse_bool
    also gets a ``--no-`` flag.  Values are checked where they are used:
    benchmark ids by the registry, boxes by BoxDomain, every other value
    by SolverConfig.
    """

    parse: Callable[[str], object]
    sets: tuple[str, ...]
    flags: tuple[str, ...]
    help: str | None = None


# The one table of configuration keys: config files, the solve/sweep flags,
# apply_overrides and the sweep parameters all read it.
CONFIG_KEYS = {
    "benchmark": ConfigKey(str, (), ("--benchmark",), "benchmark objective id"),
    "n_particles": ConfigKey(int, ("n_particles",), ("-N", "--n-particles")),
    "lambda": ConfigKey(float, ("lambda_x", "lambda_y"), ("--lam",), "drift rate for both populations"),
    "lambda_x": ConfigKey(float, ("lambda_x",), ("--lambda-x",)),
    "lambda_y": ConfigKey(float, ("lambda_y",), ("--lambda-y",)),
    "sigma": ConfigKey(float, ("sigma_x", "sigma_y"), ("--sigma",), "noise strength for both populations"),
    "sigma_x": ConfigKey(float, ("sigma_x",), ("--sigma-x",)),
    "sigma_y": ConfigKey(float, ("sigma_y",), ("--sigma-y",)),
    "alpha": ConfigKey(float, ("alpha",), ("--alpha",)),
    "beta": ConfigKey(float, ("beta",), ("--beta",)),
    "dt": ConfigKey(float, ("dt_y",), ("--dt",), "y-population step size"),
    "epsilon": ConfigKey(float, ("epsilon_scale",), ("--epsilon",), "time-scale ratio dt_x / dt_y"),
    "horizon": ConfigKey(float, ("horizon",), ("-T", "--horizon")),
    "diffusion": ConfigKey(str, ("diffusion",), ("--diffusion",), "anisotropic or isotropic"),
    "seed": ConfigKey(int, ("seed",), ("--seed",)),
    "init": ConfigKey(str, ("init",), ("--init",), "uniform_box, border or gaussian"),
    "init_mean": ConfigKey(float, ("init_mean",), ("--init-mean",)),
    "init_std": ConfigKey(float, ("init_std",), ("--init-std",)),
    "project": ConfigKey(parse_bool, ("project",), ("--project",)),
    "box_x": ConfigKey(_parse_pair, (), ("--box-x",), "override x-domain, e.g. --box-x=-4,4"),
    "box_y": ConfigKey(_parse_pair, (), ("--box-y",), "override y-domain, e.g. --box-y=-4,4"),
}

# Sweep parameter -> the configuration keys one swept value sets.
SWEEP_PARAMETERS = {
    "n_particles": ("n_particles",),
    "alpha_beta": ("alpha", "beta"),
    "sigma": ("sigma",),
    "epsilon_scale": ("epsilon",),
}


def parse_value(key: str, text: str):
    """Parse the text of one configuration key with that key's parser."""
    try:
        return CONFIG_KEYS[key].parse(text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """Read a flat ``key = value`` UTF-8 document, with or without a byte-order mark; '#' starts a comment."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parse_value(key, text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def apply_overrides(config: SolverConfig, overrides: dict) -> SolverConfig:
    """Set the fields each key names, in the order given; later keys win."""
    fields = {}
    for key, value in overrides.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        fields.update(dict.fromkeys(CONFIG_KEYS[key].sets, value))
    return replace(config, **fields)


def benchmark_config(benchmark: str, overrides: dict | None = None) -> tuple[SolverConfig, ObjectiveFunction]:
    """Default solver configuration and objective for a benchmark.

    Defaults: N=20, dt=0.1, lambda=1, sigma=1.5, alpha=beta=1e4 and the
    per-benchmark horizon; overrides have the precedence the caller built
    (flags over file over defaults).
    """
    overrides = overrides or {}
    obj = make_benchmark(benchmark, box_x=overrides.get("box_x"), box_y=overrides.get("box_y"))
    config = SolverConfig(horizon=lookup_benchmark(benchmark).horizon)
    return apply_overrides(config, overrides), obj


def run_benchmark(benchmark: str, overrides: dict | None = None) -> tuple[RunRecord, SolverConfig]:
    """Single seeded run on a benchmark with its reference solution attached."""
    config, obj = benchmark_config(benchmark, overrides)
    record = run(config, obj, reference=benchmark_reference(obj.name))
    return record, config


@dataclass
class SweepSpec:
    """One-parameter sweep of a built objective; alpha_beta moves alpha and beta jointly.

    The objective's registry reference measures each trial's error; it is
    resolved here so a benchmark without one fails before any trial runs.
    """

    parameter: str
    values: list
    objective: ObjectiveFunction
    base: SolverConfig
    trials: int = 100
    jobs: int = 1
    reference: ReferencePoint = field(init=False, repr=False)

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"sweep parameter must be one of {tuple(SWEEP_PARAMETERS)}")
        if not self.values:
            raise ConfigError("sweep needs at least one parameter value")
        check_counts(self, {"trials": 1, "jobs": 1}, ConfigError)
        try:
            self.reference = benchmark_reference(self.objective.name)
        except InputError as exc:
            raise ConfigError(f"cannot sweep: {exc}") from exc
        if self.jobs > 1:
            try:
                pickle.dumps(self.objective)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ConfigError(f"jobs > 1 needs a picklable (module-level) objective function: {exc}") from exc


@dataclass
class TrialSummary:
    parameter_value: float
    median_error: float
    q20: float
    q80: float
    errors: list[float] = field(default_factory=list)


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """q-quantile by the nearest-rank rule on the sorted sample."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return float("nan")
    rank = max(1, math.ceil(q * values.size))
    return float(values[rank - 1])


def _sweep_trials(obj: ObjectiveFunction, ref: ReferencePoint, config: SolverConfig, seeds: list[int]) -> list[float]:
    """Best-pair squared error of the final state of ``config``'s run under each seed; NaN flags a failed trial.

    The runs advance together as one batch (``dynamics.trajectory`` with
    seeds), and each error is bitwise that of the run alone.  A batch that
    raises NumericalError is replayed one seed at a time, so only the
    trials that fail alone read NaN.  A finished trial whose error
    overflows reads inf.  numpy's floating-point warnings are silenced:
    the NaN is the failure report.
    """
    try:
        with np.errstate(all="ignore"):
            for _, _, (bx, by, _) in dynamics.trajectory(config, obj, seeds):
                pass  # only the final state's best pairs are kept
            return error_to_reference((bx, by), ref).tolist()
    except NumericalError:
        if len(seeds) == 1:
            return [math.nan]
        return [e for s in seeds for e in _sweep_trials(obj, ref, config, [s])]


def _batches(seeds: list[int], n: int, workers: int) -> list[list[int]]:
    """The seeds of one parameter value in batches of at most _BATCH_ENTRIES // n^2 trials (at least one).

    A value of at least ``workers`` trials splits into at least ``workers``
    batches, so that every worker gets one; batch sizes differ by at most 1.
    """
    cap = max(1, _BATCH_ENTRIES // n**2)
    count = min(len(seeds), max(workers, -(-len(seeds) // cap)))
    size, extra = divmod(len(seeds), count)
    bounds = [b * size + min(b, extra) for b in range(count + 1)]
    return [seeds[a:b] for a, b in zip(bounds, bounds[1:])]


def run_sweep(spec: SweepSpec) -> list[TrialSummary]:
    """Run trials x values seeded runs and summarize errors per value.

    Trial t uses seed base.seed + t.  Every value's configuration is
    validated before the first trial starts.  The trials of a value advance
    together in batches cut for min(jobs, usable CPUs) workers (see
    ``_batches``), which run on min(workers, batches) processes: a pool,
    imported and started only for two or more, else this process.  Rows are
    ordered by (value, trial) regardless of execution order, and each is
    bitwise the error of its trial run alone; failed trials enter the error
    list as NaN and are excluded from the quantiles, while a finished
    trial's error of inf counts.
    """
    keys = SWEEP_PARAMETERS[spec.parameter]
    configs = [apply_overrides(spec.base, dict.fromkeys(keys, value)) for value in spec.values]
    seeds = [spec.base.seed + trial for trial in range(spec.trials)]
    workers = min(spec.jobs, _usable_cpus())
    batches = [(config, batch) for config in configs for batch in _batches(seeds, config.n_particles, workers)]
    obj, ref = spec.objective, spec.reference
    if (processes := min(workers, len(batches))) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool may start all its workers at the first submit, so ask for no more than can run
        with ProcessPoolExecutor(max_workers=processes) as pool:
            done = list(pool.map(partial(_sweep_trials, obj, ref), *zip(*batches)))
    else:
        done = [_sweep_trials(obj, ref, config, batch) for config, batch in batches]
    results = [error for errors in done for error in errors]
    summaries = []
    for vi, value in enumerate(spec.values):
        errors = results[vi * spec.trials : (vi + 1) * spec.trials]
        finished = np.asarray([e for e in errors if not math.isnan(e)])
        summaries.append(
            TrialSummary(
                parameter_value=float(value),
                median_error=nearest_rank_quantile(finished, 0.5),
                q20=nearest_rank_quantile(finished, 0.2),
                q80=nearest_rank_quantile(finished, 0.8),
                errors=list(errors),
            )
        )
    return summaries


def _write_csv(path, header: list[str], rows) -> None:
    """The bytes csv.writer's default dialect writes: commas, CRLF line ends, and no field holds a character it quotes.

    str of a Python or numpy float64 is its shortest round-trip repr, which that writer writes for a float.
    """
    lines = [",".join(header) + "\r\n", *(",".join(map(str, row)) + "\r\n" for row in rows)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def write_run_csv(path, record: RunRecord) -> None:
    named = [
        ("t", record.times),
        ("Vx", record.variance_x),
        ("Vy", record.variance_y),
        ("V", record.variance_total),
        ("spread_x", record.spread_x),
        ("spread_y", record.spread_y),
        *((f"mean_x_{k}", column) for k, column in enumerate(record.mean_x.T)),
        *((f"mean_y_{k}", column) for k, column in enumerate(record.mean_y.T)),
        ("best_value", record.best_value_trace),
        ("best_err", record.best_error_trace),
    ]
    # the row generator owns the columns' float lists, so they are freed before the lines are joined
    _write_csv(path, ["schema", "step", *(name for name, _ in named)], (
        (RUN_CSV_SCHEMA, k, *values) for k, values in enumerate(zip(*(column.tolist() for _, column in named)))))


def write_run_summary(path, record: RunRecord, config: SolverConfig, benchmark: str, wall_time: float) -> dict:
    bx, by = record.best_x[-1], record.best_y[-1]
    summary = {
        "schema": RUN_JSON_SCHEMA,
        "benchmark": benchmark,
        "seed": config.seed,
        "n_particles": config.n_particles,
        "horizon": config.horizon,
        "dt_y": config.dt_y,
        "epsilon_scale": config.epsilon_scale,
        "steps": len(record) - 1,
        "best_x": [float(v) for v in bx],
        "best_y": [float(v) for v in by],
        "best_value": float(record.best_value_trace[-1]),
        "best_err": float(record.best_error_trace[-1]),
        "eval_count": record.eval_count,
        "wall_time_s": wall_time,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def write_sweep_csv(summary_path, trials_path, spec: SweepSpec, summaries: list[TrialSummary]) -> None:
    _write_csv(summary_path, ["schema", "parameter", "value", "median_error", "q20", "q80", "n_ok", "trials"],
               ((SWEEP_CSV_SCHEMA, spec.parameter, s.parameter_value, s.median_error, s.q20, s.q80,
                 sum(1 for e in s.errors if not math.isnan(e)), spec.trials) for s in summaries))
    _write_csv(trials_path, ["schema", "parameter", "value", "trial", "seed", "error"],
               ((TRIAL_CSV_SCHEMA, spec.parameter, s.parameter_value, trial, spec.base.seed + trial, err)
                for s in summaries for trial, err in enumerate(s.errors)))
