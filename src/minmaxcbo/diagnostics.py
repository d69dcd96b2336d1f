"""Per-step run metrics: variance functionals, spread, errors to the reference, decay fits.

The variance functionals substitute the empirical N-particle average for
the mean-field expectation; they are the finite-N estimators of the
quantities whose exponential decay the theory predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, NumericalError
from .objectives import ReferencePoint

if TYPE_CHECKING:
    from .dynamics import Ensemble

__all__ = [
    "RunRecord",
    "variance",
    "spread",
    "error_to_reference",
    "fit_decay_rate",
]

# Floor below which the decay fit window is cut, relative to V(0); keeps the
# stochastic-equilibrium plateau out of the least-squares fit.
_FIT_FLOOR_REL = 1e-3
_FIT_FLOOR_ABS = 1e-12


@dataclass
class RunRecord:
    """Diagnostics time series of one solver run, one row per state (n_steps + 1 rows).

    ``times``, ``variance_x``/``variance_y`` (NaN without a reference),
    ``spread_x``/``spread_y``, ``best_value_trace`` and ``best_error_trace``
    (NaN without a reference) have shape (rows,).  ``mean_x`` and the best
    pair's ``best_x`` have shape (rows, d1); ``mean_y`` and ``best_y``
    (rows, d2).
    """

    times: np.ndarray
    variance_x: np.ndarray
    variance_y: np.ndarray
    spread_x: np.ndarray
    spread_y: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    best_x: np.ndarray
    best_y: np.ndarray
    best_value_trace: np.ndarray
    best_error_trace: np.ndarray
    final_ensemble: "Ensemble | None" = None
    eval_count: int = 0

    @classmethod
    def allocate(cls, rows: int, d1: int, d2: int) -> "RunRecord":
        """A record of ``rows`` unfilled rows; the reference-dependent series start as NaN."""
        return cls(
            times=np.empty(rows),
            variance_x=np.full(rows, np.nan),
            variance_y=np.full(rows, np.nan),
            spread_x=np.empty(rows),
            spread_y=np.empty(rows),
            mean_x=np.empty((rows, d1)),
            mean_y=np.empty((rows, d2)),
            best_x=np.empty((rows, d1)),
            best_y=np.empty((rows, d2)),
            best_value_trace=np.empty(rows),
            best_error_trace=np.full(rows, np.nan),
        )

    @property
    def variance_total(self) -> np.ndarray:
        return self.variance_x + self.variance_y

    def __len__(self) -> int:
        return len(self.times)


def _float_or_array(values):
    """A Python float for one state or pair (leading shape ()), else the array of the stack."""
    return float(values) if np.ndim(values) == 0 else values


def _nearest_y_sq(ys: np.ndarray, ref: ReferencePoint) -> np.ndarray:
    """Squared distance of each y-row (the last axis) to the nearest y* (zero if y is free)."""
    if ref.y_free:
        return np.zeros(ys.shape[:-1])
    diffs = ys[..., None, :] - ref.y_star_set
    return np.min(np.sum(diffs**2, axis=-1), axis=-1)


def variance(ensemble: "Ensemble", ref: ReferencePoint) -> tuple[float, float]:
    """Empirical variance functionals (V^X, V^Y) about the reference solution.

    ``ensemble.xs`` and ``ensemble.ys`` have shape (..., N, d): one state,
    or a stack of states along the leading axes, for which the results are
    arrays of the leading shape.  The same holds for ``spread``.
    """
    xs, ys = ensemble.xs, ensemble.ys
    if ref.x_star.size != xs.shape[-1] or ref.y_star_set.shape[1] != ys.shape[-1]:
        raise InputError("reference dimensions do not match ensemble")
    vx = np.mean(np.sum((xs - ref.x_star) ** 2, axis=-1), axis=-1)
    vy = np.mean(_nearest_y_sq(ys, ref), axis=-1)
    return _float_or_array(vx), _float_or_array(vy)


def spread(ensemble: "Ensemble") -> tuple[float, float]:
    """Max pairwise l-infinity distance within each population."""
    xs, ys = ensemble.xs, ensemble.ys
    sx = np.max(xs.max(axis=-2) - xs.min(axis=-2), axis=-1)
    sy = np.max(ys.max(axis=-2) - ys.min(axis=-2), axis=-1)
    return _float_or_array(sx), _float_or_array(sy)


def error_to_reference(pair: tuple[np.ndarray, np.ndarray], ref: ReferencePoint) -> float:
    """Squared norm from the pair to the closest global min-max point.

    x and y may carry leading axes, (..., d1) and (..., d2), for a stack of
    pairs; the result then has the leading shape.
    """
    x, y = (np.atleast_1d(np.asarray(p, dtype=float)) for p in pair)
    if x.shape[-1] != ref.x_star.size or y.shape[-1] != ref.y_star_set.shape[1]:
        raise InputError("pair dimensions do not match reference")
    return _float_or_array(np.sum((x - ref.x_star) ** 2, axis=-1) + _nearest_y_sq(y, ref))


def fit_decay_rate(times, v) -> float:
    """Least-squares slope of log V(t) over the window before the noise floor.

    ``times`` and ``v`` are the series t and V(t), such as a record's
    ``times`` and ``variance_total``.  The window is the initial stretch
    where V exceeds max(1e-12, 1e-3 * V(0)); a negative slope means decay.
    """
    t, v = np.asarray(times, dtype=float), np.asarray(v, dtype=float)
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
