"""Consensus-based particle solver for nonconvex-nonconcave min-max problems.

Two coupled particle populations minimize over x and maximize over y using
exponentially weighted consensus points, multiplicative exploration noise,
and an explicit Euler-Maruyama time discretization.  The package also ships
a brute-force grid oracle, a gradient descent-ascent baseline, and a CLI
harness for seeded runs and parameter sweeps.
"""

from .baselines import GdaConfig, GdaRun, gda_run
from .consensus import ConsensusPoint, laplace_gap, y_consensus
from .diagnostics import RunRecord, best_pair, error_to_reference, fit_decay_rate, spread, variance
from .dynamics import Ensemble, InitSpec, SolverConfig, initialize, run, step, trajectory
from .errors import ConfigError, InputError, NumericalError
from .harness import SweepSpec, TrialSummary, run_benchmark, run_sweep
from .objectives import (
    BENCHMARK_IDS,
    BoxDomain,
    ObjectiveFunction,
    ReferencePoint,
    benchmark_reference,
    make_benchmark,
    register_benchmark,
)
from .oracle import GridSpec, OracleSolution, envelope, solve_minmax

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_IDS",
    "BoxDomain",
    "ConfigError",
    "ConsensusPoint",
    "Ensemble",
    "GdaConfig",
    "GdaRun",
    "GridSpec",
    "InitSpec",
    "InputError",
    "NumericalError",
    "ObjectiveFunction",
    "OracleSolution",
    "ReferencePoint",
    "RunRecord",
    "SolverConfig",
    "SweepSpec",
    "TrialSummary",
    "benchmark_reference",
    "best_pair",
    "envelope",
    "error_to_reference",
    "fit_decay_rate",
    "gda_run",
    "initialize",
    "laplace_gap",
    "make_benchmark",
    "register_benchmark",
    "run",
    "run_benchmark",
    "run_sweep",
    "solve_minmax",
    "spread",
    "step",
    "trajectory",
    "variance",
    "y_consensus",
]
