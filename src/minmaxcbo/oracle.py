"""Brute-force grid solver certifying global min-max points.

Scans the upper envelope max_y E(x, y) over an x-grid, refines the box
around the incumbent, and reports every maximizer cluster of the inner
problem so symmetric solution pairs both appear.  Ground truth for the
acceptance tests; only meant for low-dimensional problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_counts
from .objectives import BoxDomain, ObjectiveFunction

__all__ = ["GridSpec", "OracleSolution", "envelope", "solve_minmax"]

_MAX_DIM = 2
_SHRINK = 0.25  # box width factor per refinement round
_TIE_TOL = 1e-6  # absolute slack for grouping near-maximal grid values
_CLUSTER_GAP = 2  # grid cells; larger index gaps split maximizer clusters


@dataclass
class GridSpec:
    points_per_dim: int = 2049
    refine_rounds: int = 3

    def __post_init__(self):
        check_counts(self, {"points_per_dim": 3, "refine_rounds": 0}, InputError)


@dataclass
class OracleSolution:
    x_star: np.ndarray
    y_star: np.ndarray
    value: float
    y_star_all: list[np.ndarray] = field(default_factory=list)
    resolution: float = 0.0


def _check_domain(box: BoxDomain, label: str) -> None:
    if not box.is_bounded:
        raise InputError(f"oracle requires a bounded {label}-domain")
    if box.dim > _MAX_DIM:
        raise InputError(f"oracle supports at most {_MAX_DIM} dimensions per variable, got {box.dim}")


def _grid_points(lower: np.ndarray, upper: np.ndarray, m: int) -> np.ndarray:
    """Cartesian grid with m points per axis, flattened to (m^d, d) rows."""
    axes = [np.linspace(lower[k], upper[k], m) for k in range(lower.size)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lower.size)


def _shrunk(lower, upper, center, box: BoxDomain):
    """Window of width SHRINK * (upper - lower) around center, clipped to the box."""
    half = _SHRINK * (upper - lower) / 2.0
    lo = np.maximum(center - half, box.lower)
    hi = np.minimum(center + half, box.upper)
    return lo, hi


def _envelope_over(obj, x, y_lower, y_upper, m):
    """Max of E(x, .) over one y-grid; ties resolve to the lowest grid index."""
    ys = _grid_points(y_lower, y_upper, m)
    vals = obj.batch(np.broadcast_to(x, (ys.shape[0], x.size)), ys)
    j = int(np.argmax(vals))
    return float(vals[j]), ys[j], ys, vals


def _refine_y(obj, x, grid: GridSpec, value: float, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Shrink the y-window around the incumbent y and rescan it, refine_rounds times: (max value, maximizer)."""
    box_y = obj.domain_y
    lo, hi = box_y.lower, box_y.upper
    for _ in range(grid.refine_rounds):
        lo, hi = _shrunk(lo, hi, y, box_y)
        value, y, _, _ = _envelope_over(obj, x, lo, hi, grid.points_per_dim)
    return value, y


def envelope(obj: ObjectiveFunction, x, grid: GridSpec | None = None) -> tuple[float, np.ndarray]:
    """Upper envelope value max_y E(x, y) and its maximizer on the refined grid."""
    grid = grid or GridSpec()
    box_y = obj.domain_y
    _check_domain(box_y, "y")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    value, y, _, _ = _envelope_over(obj, x, box_y.lower, box_y.upper, grid.points_per_dim)
    return _refine_y(obj, x, grid, value, y)


def _maximizer_clusters(ys: np.ndarray, vals: np.ndarray) -> list[int]:
    """Representative flat indices of every near-maximal cluster on a 1-d grid.

    Grid points within _TIE_TOL of the max belong to clusters; an index gap
    larger than _CLUSTER_GAP cells starts a new cluster.  Each cluster is
    represented by its best point (ties to the lowest index).  For y-grids
    with more than one dimension only the single argmax is reported.
    """
    if ys.shape[1] != 1:
        return [int(np.argmax(vals))]
    near = np.flatnonzero(vals >= float(vals.max()) - _TIE_TOL)
    clusters = np.split(near, np.flatnonzero(np.diff(near) > _CLUSTER_GAP) + 1)
    return [int(members[np.argmax(vals[members])]) for members in clusters]


def solve_minmax(obj: ObjectiveFunction, grid: GridSpec | None = None) -> OracleSolution:
    """Global min-max point by nested grid search with local refinement.

    The outer argmin over x is refined with the y-grid always spanning the
    full y-domain, so x-refinement cannot lose inner maximizers; the inner
    maximizers are then refined per cluster at the final x.
    """
    grid = grid or GridSpec()
    box_x, box_y = obj.domain_x, obj.domain_y
    _check_domain(box_x, "x")
    _check_domain(box_y, "y")
    m = grid.points_per_dim
    if m ** (box_x.dim + box_y.dim) > 5e8:
        raise InputError("grid too large; reduce points_per_dim for multi-dimensional domains")

    xlo, xhi = box_x.lower, box_x.upper
    y_grid = _grid_points(box_y.lower, box_y.upper, m)
    for round_idx in range(grid.refine_rounds + 1):
        if round_idx > 0:
            xlo, xhi = _shrunk(xlo, xhi, x_star, box_x)
        xs = _grid_points(xlo, xhi, m)
        upper_envelope = obj.pair_matrix(xs, y_grid).max(axis=1)
        x_star = xs[int(np.argmin(upper_envelope))]

    # inner maximizers at the final x*: cluster on the full coarse y-grid,
    # then refine each representative in its own shrinking window
    _, _, y_grid, y_vals = _envelope_over(obj, x_star, box_y.lower, box_y.upper, m)
    y_stars = [
        _refine_y(obj, x_star, grid, float(y_vals[rep]), y_grid[rep]) for rep in _maximizer_clusters(y_grid, y_vals)
    ]

    value, y_star = max(y_stars, key=lambda pair: pair[0])
    res_x = float(np.max((xhi - xlo) / (m - 1)))
    res_y = float(np.max(box_y.width * _SHRINK**grid.refine_rounds / (m - 1)))
    return OracleSolution(
        x_star=x_star,
        y_star=y_star,
        value=value,
        y_star_all=[y for _, y in y_stars],
        resolution=max(res_x, res_y),
    )
