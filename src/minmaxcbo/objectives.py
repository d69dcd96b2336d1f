"""Objective-function abstraction and the built-in min-max benchmark problems.

All benchmarks are scalar in each variable, but the abstraction carries
arbitrary dimensions (d1, d2) so user-supplied objectives work unchanged.
Evaluation callables are vectorized: they accept arrays whose last axis is
the variable dimension and broadcast over any leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

try:  # numpy's private name for the ufunc that ndarray.clip reaches through a Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # moved in some later numpy: the public wrapper gives the same bits, a little slower
    _clip = np.clip

from .errors import InputError

__all__ = [
    "BoxDomain",
    "ReferencePoint",
    "ObjectiveFunction",
    "Benchmark",
    "canonical_id",
    "lookup_benchmark",
    "benchmark_reference",
    "make_benchmark",
    "register_benchmark",
]


@dataclass
class BoxDomain:
    """Axis-aligned box {z : lower <= z <= upper} in R^d."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise InputError("box bounds must be 1-d arrays of equal length")
        if self.lower.size < 1:
            raise InputError("box dimension must be >= 1")
        if not np.all(self.lower < self.upper):
            raise InputError("box requires lower[k] < upper[k] for every k")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def is_bounded(self) -> bool:
        """A finite width in every coordinate; a width that overflows a float counts as unbounded."""
        with np.errstate(over="ignore"):
            return bool(np.all(np.isfinite(self.width)))

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def clamp(self, points: np.ndarray) -> np.ndarray:
        """Coordinate-wise projection onto the box (last axis indexes coordinates); bit for bit ``points.clip``."""
        return _clip(points, self.lower, self.upper)


@dataclass
class ReferencePoint:
    """Known global min-max solution used to measure run error.

    Problems whose inner maximizer is not unique carry every y* in
    y_star_set and errors use the nearest one.  For problems whose min-max
    set is a continuum {x*} x R (bilinear, bivariate), y_free is set and
    the y-component of every distance is zero.
    """

    x_star: np.ndarray
    y_star_set: np.ndarray
    y_free: bool = False

    def __post_init__(self):
        self.x_star = np.atleast_1d(np.asarray(self.x_star, dtype=float))
        self.y_star_set = np.atleast_2d(np.asarray(self.y_star_set, dtype=float))
        if self.y_star_set.shape[0] < 1:
            raise InputError("y_star_set must be nonempty")


@dataclass
class ObjectiveFunction:
    """Evaluatable E(x, y) with its dimensions and box domains.

    ``fn`` must be deterministic and finite on domain_x x domain_y.  From
    N = 257 particles on, a run may call it in a helper process forked for
    the run as well as in the calling process: nothing ``fn`` keeps or
    changes in Python there (a counter, a cache) comes back to the caller,
    so it should be a pure function of its arrays.  consensus_points writes its
    weights over a returned writeable C-contiguous float64 array that owns
    its data, which ``fn`` must therefore not keep, and over a C-ordered
    copy of any other array, so the layout ``fn`` returns does not matter.
    """

    name: str
    dim_x: int
    dim_y: int
    domain_x: BoxDomain
    domain_y: BoxDomain
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_y < 1:
            raise InputError("objective dimensions must be positive")
        if self.domain_x.dim != self.dim_x or self.domain_y.dim != self.dim_y:
            raise InputError("domain dimensions do not match objective dimensions")

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        """E at a single point; validates dimensions."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.shape != (self.dim_x,):
            raise InputError(f"x has shape {x.shape}, expected ({self.dim_x},)")
        if y.shape != (self.dim_y,):
            raise InputError(f"y has shape {y.shape}, expected ({self.dim_y},)")
        return float(self.fn(x, y))

    def batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Broadcast evaluation; xs (..., d1) against ys (..., d2)."""
        return np.asarray(self.fn(xs, ys), dtype=float)

    def pair_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """All-pairs matrix M[..., i, j] = E(xs[..., i, :], ys[..., j, :]) in one vectorized call.

        xs (..., r, d1) and ys (..., N, d2) share their leading axes, and so
        does the (..., r, N) result.
        """
        return self.batch(xs[..., :, None, :], ys[..., None, :, :])


def _quartic(z):
    return (z + 1.0) * (z - 1.0) * (z + 3.0) * (z - 3.0)


def _even_sextic(z):
    z2 = z * z
    return z2 / 4.0 - z2 * z2 / 2.0 + z2 * z2 * z2 / 6.0


def _bilinear(x, y):
    return x[..., 0] * y[..., 0]


def _bivariate(x, y):
    xx = x[..., 0]
    return xx**4 / 4.0 - xx**2 / 2.0 + xx * y[..., 0]


def _bilinearly_coupled(x, y):
    xx, yy = x[..., 0], y[..., 0]
    return _quartic(xx) + 10.0 * xx * yy - _quartic(yy)


def _forsaken(x, y):
    xx, yy = x[..., 0], y[..., 0]
    return xx * (yy - 0.45) + _even_sextic(xx) - _even_sextic(yy)


def _sixth_order(x, y):
    xx, yy = x[..., 0], y[..., 0]
    poly = 4.0 * xx**2 - (yy - 3.0 * xx + 0.05 * xx**3) ** 2 - 0.1 * yy**4
    return poly * np.exp(-0.01 * (xx**2 + yy**2))


def _remark_function(x, y):
    xx, yy = x[..., 0], y[..., 0]
    a = np.sin(xx) / (1.0 + xx**2)
    b = np.sin(xx) / (1.0 + xx**2) ** 2
    bump = -((yy - a) ** 2) / (1.0 + (yy - b) ** 2)
    return bump + np.abs(np.tanh(xx)) / (1.0 + np.sin(xx) ** 2)


# y* of the bilinearly coupled problem is the positive root of f'(y) = 0
# with f(z) = (z^2-1)(z^2-9), i.e. sqrt(5); for the forsaken problem it is
# the global minimizer of z^2/4 - z^4/2 + z^6/6, i.e. sqrt(1 + sqrt(2)/2).
_Y_STAR_COUPLED = math.sqrt(5.0)
_Y_STAR_FORSAKEN = math.sqrt(1.0 + math.sqrt(2.0) / 2.0)


@dataclass(frozen=True)
class Benchmark:
    """Registry record of one problem: its objective on the default boxes, known solution, horizon.

    reference is None for a registered objective whose global min-max point
    is unknown; such an objective can be built and run, but not solved
    through the harness or swept.  horizon is the default single-run T.
    """

    objective: ObjectiveFunction
    reference: ReferencePoint | None
    horizon: float


_REGISTRY: dict[str, Benchmark] = {}


def canonical_id(benchmark_id: str) -> str:
    """Registry key of an id: case, outer blanks and '-'/' ' versus '_' do not matter."""
    return str(benchmark_id).strip().lower().replace("-", "_").replace(" ", "_")


def _box(bounds) -> BoxDomain:
    return bounds if isinstance(bounds, BoxDomain) else BoxDomain(*bounds)


def register_benchmark(
    name: str,
    fn: Callable,
    box_x,
    box_y,
    reference: ReferencePoint | None = None,
    horizon: float = 15.0,
) -> None:
    """Code-level extension point: add an objective, its boxes, solution and horizon under a new id.

    Boxes are BoxDomain instances or (lower, upper) pairs.  Sweeps in worker
    processes receive the objective itself, so fn must be a module-level
    function there.  fn may run in a forked helper process (see
    ObjectiveFunction), where nothing it keeps in Python comes back to the
    caller, so it must keep no Python-side state between calls.
    """
    key = canonical_id(name)
    if key in _REGISTRY:
        raise InputError(f"benchmark id {name!r} already registered")
    dom_x, dom_y = _box(box_x), _box(box_y)
    _REGISTRY[key] = Benchmark(ObjectiveFunction(key, dom_x.dim, dom_y.dim, dom_x, dom_y, fn), reference, horizon)


def lookup_benchmark(benchmark_id: str) -> Benchmark:
    """Registry record of a built-in or registered id, in any accepted spelling."""
    key = canonical_id(benchmark_id)
    if key not in _REGISTRY:
        raise InputError(f"unknown benchmark {benchmark_id!r}; valid ids: {', '.join(_REGISTRY)}")
    return _REGISTRY[key]


def benchmark_reference(benchmark_id: str) -> ReferencePoint:
    """Reference solution for a built-in or registered benchmark."""
    ref = lookup_benchmark(benchmark_id).reference
    if ref is None:
        raise InputError(f"no reference solution for benchmark {benchmark_id!r}")
    return ref


def make_benchmark(benchmark_id: str, box_x=None, box_y=None) -> ObjectiveFunction:
    """A new copy of the named benchmark's objective, optionally on other boxes; the registry's stays as it is."""
    obj = lookup_benchmark(benchmark_id).objective
    dom_x = obj.domain_x if box_x is None else _box(box_x)
    dom_y = obj.domain_y if box_y is None else _box(box_y)
    return replace(obj, dim_x=dom_x.dim, dim_y=dom_y.dim, domain_x=dom_x, domain_y=dom_y)


# The bilinear, bivariate and remark problems are stated on all of R x R;
# they get [-4, 4]^2 by convention so projection and border initialization
# are well defined (override via make_benchmark).  The bilinear and
# bivariate min-max sets are the continuum {0} x R, hence y_free.
register_benchmark("bilinear", _bilinear, (-4.0, 4.0), (-4.0, 4.0), ReferencePoint([0.0], [[0.0]], y_free=True))
register_benchmark("bivariate", _bivariate, (-4.0, 4.0), (-4.0, 4.0), ReferencePoint([0.0], [[0.0]], y_free=True))
register_benchmark(
    "bilinearly_coupled", _bilinearly_coupled, (-4.0, 4.0), (-4.0, 4.0),
    ReferencePoint([0.0], [[_Y_STAR_COUPLED], [-_Y_STAR_COUPLED]]),
)
register_benchmark(
    "forsaken", _forsaken, (-1.5, 1.5), (-1.5, 1.5),
    ReferencePoint([0.0], [[_Y_STAR_FORSAKEN], [-_Y_STAR_FORSAKEN]]),
)
register_benchmark("sixth_order", _sixth_order, (-2.0, 2.0), (-2.0, 2.0), ReferencePoint([0.0], [[0.0]]), 30.0)
register_benchmark("remark_function", _remark_function, (-4.0, 4.0), (-4.0, 4.0), ReferencePoint([0.0], [[0.0]]))
