"""Acceptance suite: one callable per criterion, runnable via `minmaxcbo bench`.

Every criterion pins its parameters and tolerances here; the pytest module
tests/test_acceptance.py asserts the same results.  Criteria print one
PASS/FAIL line each through run_all.
"""

from __future__ import annotations

import filecmp
import math
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import GdaConfig, gda_run
from .consensus import consensus_points, y_consensus
from .diagnostics import error_to_reference, fit_decay_rate
from .dynamics import InitSpec, SolverConfig, run
from .errors import ConfigError
from .harness import SweepSpec, benchmark_config, run_benchmark, run_sweep, _sweep_trial
from .objectives import BoxDomain, ObjectiveFunction, benchmark_reference, make_benchmark
from .oracle import GridSpec, solve_minmax

__all__ = ["CriterionResult", "run_all"] + [f"criterion_{k}" for k in range(1, 8)]

_ORACLE_TARGETS = {
    "bilinearly_coupled": (0.0, (2.24, -2.24)),
    "forsaken": (0.0, (1.31, -1.31)),
    "sixth_order": (0.0, (0.0,)),
}
_COORD_TOL = 0.02

_FIG3_RUNS = (("bilinearly_coupled", 15.0), ("forsaken", 15.0), ("sixth_order", 30.0))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number}] {status} {self.name} ({self.seconds:.1f}s): {self.detail}"


def criterion_1() -> CriterionResult:
    """Oracle certification of the three benchmark solutions."""
    start = time.perf_counter()
    details, ok = [], True
    for name, (x_target, y_targets) in _ORACLE_TARGETS.items():
        t0 = time.perf_counter()
        sol = solve_minmax(make_benchmark(name), GridSpec(points_per_dim=2049, refine_rounds=3))
        elapsed = time.perf_counter() - t0
        x_ok = abs(float(sol.x_star[0]) - x_target) <= _COORD_TOL
        found = [float(y[0]) for y in sol.y_star_all]
        y_ok = all(any(abs(f - t) <= _COORD_TOL for f in found) for t in y_targets)
        time_ok = elapsed < 10.0
        ok &= x_ok and y_ok and time_ok
        details.append(f"{name}: x*={float(sol.x_star[0]):.4f} y*={found} ({elapsed:.1f}s)")
    return CriterionResult(1, "oracle certification", ok, "; ".join(details), time.perf_counter() - start)


def criterion_2() -> CriterionResult:
    """Benchmark convergence at the single-run reference parameters."""
    start = time.perf_counter()
    details, ok = [], True
    for name, horizon in _FIG3_RUNS:
        errors = []
        for seed in range(20):
            record, _ = run_benchmark(
                name, {"n_particles": 25, "horizon": horizon, "seed": seed, "init": "uniform_box"}
            )
            errors.append(record.best_error_trace[-1])
        errors = np.asarray(errors)
        median = float(np.median(errors))
        frac = float(np.mean(errors < 0.1))
        ok &= median < 0.05 and frac >= 0.7
        details.append(f"{name}: median={median:.4g} frac<0.1={frac:.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    return CriterionResult(2, "benchmark convergence", ok, "; ".join(details), elapsed)


def _sweep_medians(benchmark: str, parameter: str, values, trials: int = 40, base_seed: int = 1000):
    base, obj = benchmark_config(benchmark, {"horizon": 50.0, "init": "border", "seed": base_seed})
    spec = SweepSpec(parameter=parameter, values=list(values), objective=obj, base=base, trials=trials)
    return {s.parameter_value: s.median_error for s in run_sweep(spec)}


def criterion_3() -> CriterionResult:
    """Qualitative sweep trends at 40 trials, horizon 50, border init."""
    start = time.perf_counter()
    details, ok = [], True
    for name in ("bilinearly_coupled", "forsaken", "sixth_order"):
        med = _sweep_medians(name, "n_particles", [10, 160])
        ok &= med[160.0] < med[10.0]
        details.append(f"{name} N: {med[10.0]:.3g} -> {med[160.0]:.3g}")
    med = _sweep_medians("forsaken", "sigma", [0.1, 1.5, 4.0])
    ok &= med[1.5] < med[0.1] and med[1.5] < med[4.0]
    details.append(f"forsaken sigma: {med[0.1]:.3g} / {med[1.5]:.3g} / {med[4.0]:.3g}")
    for name in ("bilinearly_coupled", "forsaken"):
        med = _sweep_medians(name, "epsilon_scale", [0.5, 4.0])
        ok &= med[0.5] <= med[4.0]
        details.append(f"{name} eps: {med[0.5]:.3g} vs {med[4.0]:.3g}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    return CriterionResult(3, "sweep trends", ok, "; ".join(details), elapsed)


def criterion_4() -> CriterionResult:
    """Variance decay at contraction-regime parameters on the bilinear problem."""
    start = time.perf_counter()
    obj = make_benchmark("bilinear")
    ref = benchmark_reference("bilinear")
    slopes, ok = [], True
    for seed in range(5):
        config = SolverConfig(
            n_particles=1000,
            sigma_x=1.0,
            sigma_y=1.0,
            dt_y=0.01,
            horizon=10.0,
            seed=seed,
            init=InitSpec(mode="uniform_box"),
            check_decay_regime=True,
        )
        record = run(config, obj, reference=ref)
        slope = fit_decay_rate(record)
        slopes.append(slope)
        ok &= slope <= -0.25
    detail = "slopes: " + ", ".join(f"{s:.3f}" for s in slopes) + " (target <= -0.25)"
    return CriterionResult(4, "theorem-regime decay", ok, detail, time.perf_counter() - start)


_DYADIC = 2.0**20
_BOX8 = BoxDomain(np.array([-8.0]), np.array([8.0]))


def _quantized_objective(rng) -> ObjectiveFunction:
    """Random smooth objective whose values are dyadic multiples of 2^-20 in [-8, 8].

    Dyadic values make adding a dyadic constant exact in floating point, so
    shift invariance can be asserted bit for bit through the real code path.
    """
    a, b, c, d = rng.uniform(-2, 2, 4)

    def fn(x, y):
        raw = a * x[..., 0] * y[..., 0] + b * x[..., 0] + c * y[..., 0] + d * (x[..., 0] ** 2 - y[..., 0] ** 2)
        return np.round(np.clip(raw, -8.0, 8.0) * _DYADIC) / _DYADIC

    return ObjectiveFunction("synthetic", 1, 1, _BOX8, _BOX8, fn)


def _shifted(obj: ObjectiveFunction, c: float) -> ObjectiveFunction:
    return ObjectiveFunction(obj.name, obj.dim_x, obj.dim_y, obj.domain_x, obj.domain_y,
                             lambda x, y, _f=obj.fn: _f(x, y) + c)


def _hull_ok(points: np.ndarray, ensemble: np.ndarray) -> bool:
    """Rows of ``points`` inside the coordinate hull of ``ensemble``, with roundoff slack."""
    lo, hi = ensemble.min(axis=0), ensemble.max(axis=0)
    tol = 1e-12 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return bool(np.all(points >= lo - tol) and np.all(points <= hi + tol))


def _case_ensembles(rng):
    n_x, n_y = int(rng.integers(1, 33)), int(rng.integers(1, 33))
    xs = rng.uniform(-4, 4, (n_x, 1))
    ys = rng.uniform(-4, 4, (n_y, 1))
    return xs, ys


def criterion_5(cases: int = 10_000) -> CriterionResult:
    """Randomized consensus property suite; every case must hold."""
    start = time.perf_counter()
    rng = np.random.default_rng(874517)
    fail = {"hull": 0, "shift": 0, "mean": 0, "argmax": 0}

    for _ in range(cases):
        obj = _quantized_objective(rng)
        xs, ys = _case_ensembles(rng)
        alpha = float(rng.uniform(0, 1e4))
        beta = float(rng.uniform(0, 1e4))

        cp, _ = consensus_points(obj, xs, ys, alpha, beta)
        hull_ok = _hull_ok(cp.x_cons[None, :], xs) and _hull_ok(cp.y_cons_per_particle, ys)
        fail["hull"] += not hull_ok

        c = float(rng.integers(-8 * 2**20, 8 * 2**20 + 1)) / _DYADIC
        cp_shift, _ = consensus_points(_shifted(obj, c), xs, ys, alpha, beta)
        shift_ok = np.array_equal(cp.x_cons, cp_shift.x_cons) and np.array_equal(
            cp.y_cons_per_particle, cp_shift.y_cons_per_particle
        )
        fail["shift"] += not shift_ok

        y_mean = y_consensus(obj, ys, xs[0], beta=0.0)
        mean_ok = np.allclose(y_mean, ys.mean(axis=0), rtol=0.0, atol=1e-11 * (1.0 + np.abs(ys).max()))
        fail["mean"] += not mean_ok

    # hard-selection cases: enforce value gaps so the beta, alpha -> inf
    # limits are exact one-hot weights, then compare against brute force
    done = 0
    while done < cases:
        obj = _quantized_objective(rng)
        xs, ys = _case_ensembles(rng)
        matrix = obj.fresh().pair_matrix(xs, ys)
        if ys.shape[0] > 1:
            top2 = np.partition(matrix, -2, axis=1)[:, -2:]
            if np.any(top2[:, 1] - top2[:, 0] < 1e-5):
                continue
        j_star = np.argmax(matrix, axis=1)
        inner = matrix[np.arange(xs.shape[0]), j_star]
        if xs.shape[0] > 1:
            low2 = np.partition(inner, 1)[:2]
            if low2[1] - low2[0] < 1e-5:
                continue
        i_star = int(np.argmin(inner))
        cp, _ = consensus_points(obj, xs, ys, alpha=1e8, beta=1e8)
        fail["argmax"] += not np.array_equal(cp.x_cons, xs[i_star])
        done += 1

    ok = not any(fail.values())
    detail = f"failures per property over {cases} cases: {fail}"
    return CriterionResult(5, "consensus property suite", ok, detail, time.perf_counter() - start)


def criterion_6() -> CriterionResult:
    """GDA contrast: dilation on the bilinear problem, stalling near the
    suboptimal stationary point on the coupled problem."""
    start = time.perf_counter()
    bilinear = make_benchmark("bilinear")
    growth = math.sqrt(1.0 + 0.1**2)
    result = gda_run(
        bilinear,
        GdaConfig(step_size=0.1, iterations=100, start=(np.array([1.0]), np.array([0.0]))),
    )
    norms = np.sqrt(result.xs[:, 0] ** 2 + result.ys[:, 0] ** 2)
    ratios = norms[1:] / norms[:-1]
    growth_ok = bool(np.all(np.abs(ratios - growth) <= 1e-4 * growth))

    coupled = make_benchmark("bilinearly_coupled")
    stall = gda_run(
        coupled,
        GdaConfig(step_size=1e-3, iterations=50, start=(np.array([0.01]), np.array([0.01]))),
    )
    stall_sq = float(stall.xs[-1, 0] ** 2 + stall.ys[-1, 0] ** 2)
    stall_ok = stall_sq < 0.01

    ref = benchmark_reference("bilinearly_coupled")
    record, _ = run_benchmark(
        "bilinearly_coupled", {"n_particles": 25, "horizon": 15.0, "seed": 0, "init": "uniform_box"}
    )
    cbo_err = record.best_error_trace[-1]
    gda_err = error_to_reference((stall.xs[-1], stall.ys[-1]), ref)
    contrast_ok = cbo_err < 0.05 and gda_err > 1.0

    ok = growth_ok and stall_ok and contrast_ok
    detail = (
        f"bilinear growth |ratio-sqrt(1.01)|max={np.max(np.abs(ratios - growth)):.2e}; "
        f"coupled GDA stays at sq dist {stall_sq:.4g} from (0,0) while CBO error to (0,+-2.24) "
        f"is {cbo_err:.4g} (GDA error {gda_err:.3g})"
    )
    return CriterionResult(6, "GDA contrast", ok, detail, time.perf_counter() - start)


def criterion_7() -> CriterionResult:
    """Determinism: byte-identical CSVs and standalone-reproducible sweep rows."""
    from .cli import main as cli_main

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out_a, out_b = Path(tmp) / "a", Path(tmp) / "b"
        for out in (out_a, out_b):
            code = cli_main(
                ["solve", "--benchmark", "bilinear", "--seed", "7", "-T", "5", "--out", str(out)]
            )
            if code != 0:
                return CriterionResult(7, "determinism", False, f"solve exited {code}", time.perf_counter() - start)
        csv_equal = filecmp.cmp(out_a / "run_bilinear_seed7.csv", out_b / "run_bilinear_seed7.csv", shallow=False)

    base, obj = benchmark_config("bilinear", {"horizon": 5.0, "init": "border", "seed": 42})
    spec = SweepSpec(parameter="sigma", values=[1.5], objective=obj, base=base, trials=3)
    sweep_errors = run_sweep(spec)[0].errors
    ref = benchmark_reference("bilinear")
    replayed = [
        _sweep_trial(obj, ref, replace(base, seed=base.seed + trial, sigma_x=1.5, sigma_y=1.5))
        for trial in range(3)
    ]
    rows_equal = sweep_errors == replayed

    ok = csv_equal and rows_equal
    detail = f"solve CSVs identical: {csv_equal}; sweep rows replay bitwise: {rows_equal}"
    return CriterionResult(7, "determinism", ok, detail, time.perf_counter() - start)


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
}


def run_all(only=None) -> list[CriterionResult]:
    numbers = sorted(only) if only else sorted(_CRITERIA)
    if not set(numbers) <= set(_CRITERIA):
        raise ConfigError(f"criterion numbers must be among {sorted(_CRITERIA)}, got {numbers}")
    results = []
    for n in numbers:
        result = _CRITERIA[n]()
        print(result.line(), flush=True)
        results.append(result)
    return results
