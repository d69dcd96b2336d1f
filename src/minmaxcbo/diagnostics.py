"""Per-step run metrics: variance functionals, spread, best pair, decay fits.

The variance functionals substitute the empirical N-particle average for
the mean-field expectation; they are the finite-N estimators of the
quantities whose exponential decay the theory predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .consensus import _fold_min_max
from .errors import InputError, NumericalError
from .objectives import ObjectiveFunction, ReferencePoint

if TYPE_CHECKING:
    from .dynamics import Ensemble

__all__ = [
    "RunRecord",
    "variance",
    "spread",
    "best_pair",
    "error_to_reference",
    "fit_decay_rate",
]

# Floor below which the decay fit window is cut, relative to V(0); keeps the
# stochastic-equilibrium plateau out of the least-squares fit.
_FIT_FLOOR_REL = 1e-3
_FIT_FLOOR_ABS = 1e-12


@dataclass
class RunRecord:
    """Diagnostics time series of one solver run; all lists have steps+1 rows."""

    times: list[float] = field(default_factory=list)
    variance_x: list[float] = field(default_factory=list)
    variance_y: list[float] = field(default_factory=list)
    spread_x: list[float] = field(default_factory=list)
    spread_y: list[float] = field(default_factory=list)
    mean_x: list[np.ndarray] = field(default_factory=list)
    mean_y: list[np.ndarray] = field(default_factory=list)
    best_pair_trace: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    best_value_trace: list[float] = field(default_factory=list)
    best_error_trace: list[float] = field(default_factory=list)
    final_ensemble: "Ensemble | None" = None
    eval_count: int = 0

    @property
    def variance_total(self) -> np.ndarray:
        return np.asarray(self.variance_x) + np.asarray(self.variance_y)

    def __len__(self) -> int:
        return len(self.times)


def _nearest_y_sq(ys: np.ndarray, ref: ReferencePoint) -> np.ndarray:
    """Squared distance of each y-row to the nearest y* (zero if y is free)."""
    if ref.y_free:
        return np.zeros(ys.shape[0])
    diffs = ys[:, None, :] - ref.y_star_set[None, :, :]
    return np.min(np.sum(diffs**2, axis=2), axis=1)


def variance(ensemble: "Ensemble", ref: ReferencePoint) -> tuple[float, float]:
    """Empirical variance functionals (V^X, V^Y) about the reference solution."""
    xs, ys = ensemble.xs, ensemble.ys
    if ref.x_star.size != xs.shape[1] or ref.y_star_set.shape[1] != ys.shape[1]:
        raise InputError("reference dimensions do not match ensemble")
    vx = float(np.mean(np.sum((xs - ref.x_star) ** 2, axis=1)))
    vy = float(np.mean(_nearest_y_sq(ys, ref)))
    return vx, vy


def spread(ensemble: "Ensemble") -> tuple[float, float]:
    """Max pairwise l-infinity distance within each population."""
    sx = float(np.max(ensemble.xs.max(axis=0) - ensemble.xs.min(axis=0)))
    sy = float(np.max(ensemble.ys.max(axis=0) - ensemble.ys.min(axis=0)))
    return sx, sy


def best_pair(ensemble: "Ensemble", obj: ObjectiveFunction) -> tuple[np.ndarray, np.ndarray, float]:
    """Exhaustive min over i of max over j of E(X^i, Y^j).

    Ties break to the lowest x-index, then the lowest y-index, as in the
    best pair that ``consensus.consensus_points`` returns.
    """
    if ensemble.xs.shape[0] == 0:
        raise InputError("ensemble is empty")
    pair_values = obj.pair_matrix(ensemble.xs, ensemble.ys)
    i, j, value = _fold_min_max(None, pair_values.max(axis=1), pair_values, 0)
    return ensemble.xs[i].copy(), ensemble.ys[j].copy(), value


def error_to_reference(pair: tuple[np.ndarray, np.ndarray], ref: ReferencePoint) -> float:
    """Squared norm from the pair to the closest global min-max point."""
    x, y = (np.atleast_1d(np.asarray(p, dtype=float)) for p in pair)
    if x.size != ref.x_star.size or y.size != ref.y_star_set.shape[1]:
        raise InputError("pair dimensions do not match reference")
    ex = float(np.sum((x - ref.x_star) ** 2))
    ey = float(_nearest_y_sq(y[None, :], ref)[0])
    return ex + ey


def fit_decay_rate(record: RunRecord) -> float:
    """Least-squares slope of log V(t) over the window before the noise floor.

    The window is the initial stretch where V exceeds
    max(1e-12, 1e-3 * V(0)); a negative slope means decay.
    """
    v = record.variance_total
    t = np.asarray(record.times, dtype=float)
    if v.size < 10 or np.count_nonzero(v > 0) < 10:
        raise NumericalError("decay fit needs at least 10 steps with positive variance")
    if v[0] <= 0:
        raise NumericalError("decay fit undefined: zero variance at t=0")
    floor = max(_FIT_FLOOR_ABS, _FIT_FLOOR_REL * v[0])
    above = v > floor
    n = int(np.argmin(above)) if not above.all() else v.size
    if n < 2:
        raise NumericalError("decay fit undefined: variance at or below floor from the start")
    slope = np.polyfit(t[:n], np.log(v[:n]), 1)[0]
    return float(slope)
