"""Experiment harness: configuration, single runs, sweeps, CSV/JSON emission.

Sweep trial t of a parameter value always runs with seed base_seed + t, so
any row of a sweep can be reproduced standalone.  Quantiles use the
nearest-rank method: the q-quantile of n sorted values is the element at
index ceil(q * n) - 1.
"""

from __future__ import annotations

import csv
import json
import math
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable

import numpy as np

from . import dynamics
from .diagnostics import RunRecord, error_to_reference
from .dynamics import DIFFUSION_MODES, INIT_MODES, SolverConfig, run
from .errors import ConfigError, InputError, NumericalError
from .objectives import (
    BENCHMARK_IDS,
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

RUN_CSV_SCHEMA = "minmaxcbo/run/v1"
SWEEP_CSV_SCHEMA = "minmaxcbo/sweep/v1"
TRIAL_CSV_SCHEMA = "minmaxcbo/trials/v1"
RUN_JSON_SCHEMA = "minmaxcbo/summary/v1"

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

    ``sets`` names SolverConfig fields, or InitSpec fields as ``init.<name>``;
    the benchmark and box keys set none because they select the objective.
    A key parsed by parse_bool also gets a ``--no-`` flag.
    """

    parse: Callable[[str], object]
    sets: tuple[str, ...]
    flags: tuple[str, ...]
    help: str | None = None
    choices: tuple[str, ...] | None = None


# The one table of configuration keys: config files, the solve/sweep flags,
# apply_overrides and the sweep parameters all read it.
CONFIG_KEYS = {
    "benchmark": ConfigKey(str, (), ("--benchmark",), "benchmark objective id", BENCHMARK_IDS),
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
    "diffusion": ConfigKey(str, ("diffusion",), ("--diffusion",), choices=DIFFUSION_MODES),
    "seed": ConfigKey(int, ("seed",), ("--seed",)),
    "init": ConfigKey(str, ("init.mode",), ("--init",), choices=INIT_MODES),
    "init_mean": ConfigKey(float, ("init.mean",), ("--init-mean",)),
    "init_std": ConfigKey(float, ("init.std",), ("--init-std",)),
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
    """Read a flat ``key = value`` document; '#' starts a comment."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    solver, init = {}, {}
    for key, value in overrides.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        for target in CONFIG_KEYS[key].sets:
            owner, _, name = target.rpartition(".")
            (init if owner else solver)[name] = value
    return replace(config, init=replace(config.init, **init), **solver)


def benchmark_config(benchmark: str, overrides: dict | None = None) -> tuple[SolverConfig, ObjectiveFunction]:
    """Default solver configuration and objective for a benchmark.

    Defaults: N=20, dt=0.1, lambda=1, sigma=1.5, alpha=beta=1e4 and the
    per-benchmark horizon; overrides have the precedence the caller built
    (flags over file over defaults).
    """
    overrides = overrides or {}
    obj = make_benchmark(benchmark, box_x=overrides.get("box_x"), box_y=overrides.get("box_y"))
    config = SolverConfig(horizon=lookup_benchmark(benchmark).horizon)
    return apply_overrides(config, overrides).validate(), obj


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
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
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


def _configured(spec: SweepSpec, value, trial: int) -> SolverConfig:
    overrides = {key: value for key in SWEEP_PARAMETERS[spec.parameter]}
    return apply_overrides(replace(spec.base, seed=spec.base.seed + trial), overrides).validate()


def _sweep_trial(obj: ObjectiveFunction, ref: ReferencePoint, cfg: SolverConfig) -> float:
    """Best-pair squared error of one seeded run's final state; NaN flags a failed trial."""
    try:
        for ensemble, _, pair_values in dynamics.trajectory(cfg, obj.fresh()):
            if ensemble.step_index == cfg.n_steps:
                # looked up on dynamics at call time, as run's recorder does
                bx, by, _ = dynamics.best_pair_from_matrix(ensemble.xs, ensemble.ys, pair_values)
            del pair_values
    except NumericalError:
        return float("nan")
    return error_to_reference((bx, by), ref)


def run_sweep(spec: SweepSpec) -> list[TrialSummary]:
    """Run trials x values seeded runs and summarize errors per value.

    Trial t uses seed base.seed + t.  Every trial configuration is validated
    before the first trial starts.  Rows are ordered by (value, trial)
    regardless of execution order; failed trials enter the error list as
    NaN and are excluded from the quantiles.
    """
    configs = [_configured(spec, value, trial) for value in spec.values for trial in range(spec.trials)]
    obj, ref = spec.objective, spec.reference
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            results = list(pool.map(_sweep_trial, repeat(obj), repeat(ref), configs))
    else:
        results = [_sweep_trial(obj, ref, cfg) for cfg in configs]
    summaries = []
    for vi, value in enumerate(spec.values):
        errors = results[vi * spec.trials : (vi + 1) * spec.trials]
        finite = np.asarray([e for e in errors if math.isfinite(e)])
        summaries.append(
            TrialSummary(
                parameter_value=float(value),
                median_error=nearest_rank_quantile(finite, 0.5),
                q20=nearest_rank_quantile(finite, 0.2),
                q80=nearest_rank_quantile(finite, 0.8),
                errors=list(errors),
            )
        )
    return summaries


def _fmt(value) -> str:
    """Shortest round-trip decimal form; deterministic for byte comparisons."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_run_csv(path, record: RunRecord, d1: int, d2: int) -> None:
    header = (
        ["schema", "step", "t", "Vx", "Vy", "V", "spread_x", "spread_y"]
        + [f"mean_x_{k}" for k in range(d1)]
        + [f"mean_y_{k}" for k in range(d2)]
        + ["best_value", "best_err"]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(record)):
            row = [
                RUN_CSV_SCHEMA,
                k,
                _fmt(record.times[k]),
                _fmt(record.variance_x[k]),
                _fmt(record.variance_y[k]),
                _fmt(record.variance_x[k] + record.variance_y[k]),
                _fmt(record.spread_x[k]),
                _fmt(record.spread_y[k]),
            ]
            row += [_fmt(v) for v in record.mean_x[k]]
            row += [_fmt(v) for v in record.mean_y[k]]
            row += [_fmt(record.best_value_trace[k]), _fmt(record.best_error_trace[k])]
            writer.writerow(row)


def write_run_summary(path, record: RunRecord, config: SolverConfig, benchmark: str, wall_time: float) -> dict:
    bx, by = record.best_pair_trace[-1]
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
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "parameter", "value", "median_error", "q20", "q80", "n_ok", "trials"])
        for s in summaries:
            n_ok = sum(1 for e in s.errors if math.isfinite(e))
            writer.writerow(
                [SWEEP_CSV_SCHEMA, spec.parameter, _fmt(s.parameter_value), _fmt(s.median_error),
                 _fmt(s.q20), _fmt(s.q80), n_ok, spec.trials]
            )
    with open(trials_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "parameter", "value", "trial", "seed", "error"])
        for s in summaries:
            for trial, err in enumerate(s.errors):
                writer.writerow(
                    [TRIAL_CSV_SCHEMA, spec.parameter, _fmt(s.parameter_value), trial,
                     spec.base.seed + trial, _fmt(err)]
                )
