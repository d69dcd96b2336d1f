"""Gradient descent-ascent reference dynamics.

Kept fully zero-order: gradients come from central finite differences, so
any objective the solver accepts works here too.  No projection is applied;
leaving the search box (or cycling) is exactly the behavior this baseline
exists to exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, check_counts
from .objectives import ObjectiveFunction

__all__ = ["GdaConfig", "GdaRun", "gda_run"]

_FD_SCALE = 1e-6
_DIVERGENCE_LIMIT = 1e6


@dataclass
class GdaConfig:
    step_size: float
    iterations: int
    start: tuple[np.ndarray, np.ndarray]
    mode: str = "simultaneous"

    def __post_init__(self):
        if not 0 < self.step_size < np.inf:
            raise InputError(f"step_size must be finite and > 0, got {self.step_size!r}")
        check_counts(self, {"iterations": 0}, InputError)
        if self.mode not in ("simultaneous", "alternating"):
            raise InputError("mode must be 'simultaneous' or 'alternating'")


@dataclass
class GdaRun:
    """Unprojected GDA trajectory; diverged marks an early halt past 1e6."""

    xs: np.ndarray
    ys: np.ndarray
    diverged: bool = False

    def __len__(self) -> int:
        return self.xs.shape[0]


def _central_diff(f, z: np.ndarray) -> np.ndarray:
    """Central finite differences with per-coordinate step 1e-6 * max(1, |z_k|)."""
    grad = np.empty_like(z)
    for k in range(z.size):
        h = _FD_SCALE * max(1.0, abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        grad[k] = (f(zp) - f(zm)) / (2.0 * h)
    return grad


def gda_run(obj: ObjectiveFunction, config: GdaConfig) -> GdaRun:
    """Run descent in x, ascent in y, from config.start.

    simultaneous mode updates both variables from the same state;
    alternating mode updates x first and lets y react to the new x.
    Returns the full trajectory including the start point.
    """
    x = np.atleast_1d(np.asarray(config.start[0], dtype=float)).copy()
    y = np.atleast_1d(np.asarray(config.start[1], dtype=float)).copy()
    if x.size != obj.dim_x or y.size != obj.dim_y:
        raise InputError("start point dimensions do not match objective")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("start point must be finite")
    eta = config.step_size
    xs, ys = [x.copy()], [y.copy()]
    diverged = False
    for k in range(config.iterations):
        x_next = x - eta * _central_diff(lambda z: obj.value(z, y), x)
        x_for_y = x_next if config.mode == "alternating" else x
        y = y + eta * _central_diff(lambda z: obj.value(x_for_y, z), y)
        x = x_next
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NumericalError(f"non-finite GDA iterate at iteration {k + 1}")
        xs.append(x.copy())
        ys.append(y.copy())
        if max(np.max(np.abs(x)), np.max(np.abs(y))) > _DIVERGENCE_LIMIT:
            diverged = True
            break
    return GdaRun(xs=np.array(xs), ys=np.array(ys), diverged=diverged)
