"""Consensus-based particle solver for nonconvex-nonconcave min-max problems.

Two coupled particle populations minimize over x and maximize over y using
exponentially weighted consensus points, multiplicative exploration noise,
and an explicit Euler-Maruyama time discretization.  The package also ships
a brute-force grid oracle, a gradient descent-ascent baseline, and a CLI
harness for seeded runs and parameter sweeps.
"""

from .baselines import GdaConfig, GdaRun, gda_run
from .consensus import ConsensusPoint
from .diagnostics import RunRecord, error_to_reference, fit_decay_rate, spread, variance
from .dynamics import Ensemble, SolverConfig, initialize, run, trajectory
from .errors import ConfigError, InputError, NumericalError
from .harness import SweepSpec, TrialSummary, run_benchmark, run_sweep
from .objectives import (
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
    "BoxDomain",
    "ConfigError",
    "ConsensusPoint",
    "Ensemble",
    "GdaConfig",
    "GdaRun",
    "GridSpec",
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
    "envelope",
    "error_to_reference",
    "fit_decay_rate",
    "gda_run",
    "initialize",
    "make_benchmark",
    "register_benchmark",
    "run",
    "run_benchmark",
    "run_sweep",
    "solve_minmax",
    "spread",
    "trajectory",
    "variance",
]
