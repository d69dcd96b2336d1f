"""Weighted consensus points of the two particle populations.

The y-consensus at a point x is the soft-argmax of E(x, .) over the
y-ensemble; the x-consensus is the soft-argmin of x -> E(x, yhat(x)) over
the x-ensemble, where yhat(x) is the y-consensus evaluated at that x.  All
exponential weights are computed max-shifted (the largest exponent becomes
zero) so that weight parameters of 1e4 and far beyond cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .objectives import ObjectiveFunction

__all__ = [
    "ConsensusPoint",
    "exp_weights",
    "y_consensus",
    "consensus_points",
    "laplace_gap",
]


@dataclass
class ConsensusPoint:
    """Consensus data computed from one ensemble state.

    x_cons is the weighted x-population average; y_cons_per_particle[i] is
    the y-consensus evaluated at the i-th x-particle, which is the drift
    target of the i-th y-particle.
    """

    x_cons: np.ndarray
    y_cons_per_particle: np.ndarray


# exp(z) is exactly 0.0 for every z below ln(2**-1075) ~ -745.133: the true
# value is under half the smallest subnormal and rounds to zero.  The cut
# sits a little lower, so the entries it skips are zero in any exp.
_EXP_ZERO_CUT = -746.0
# Below about this many entries, counting the entries under the cut costs
# more than skipping them saves.
_SKIP_MIN_ENTRIES = 1024


def exp_weights(values: np.ndarray, scale: float, axis: int = -1) -> np.ndarray:
    """Normalized exp(scale * values) along ``axis``, computed max-shifted.

    The values are shifted by their extremum BEFORE scaling, i.e.
    w_i ~ exp(scale * (v_i - pivot)) with the pivot chosen so every exponent
    is <= 0: the max for scale >= 0, the min otherwise.  Shifting first
    keeps every intermediate finite for |scale * v| far beyond 1e14 and
    makes the weights exactly invariant under v -> v + c whenever the
    constant adds without rounding.

    The result is bit for bit ``e / e.sum(axis, keepdims=True)`` with
    ``e = np.exp(scale * (values - pivot))``, computed in one buffer that
    keeps the layout of ``e``, so the sums and the division are the same
    operations on the same bits.  In an input of at least
    ``_SKIP_MIN_ENTRIES`` entries where more than half of the scaled
    exponents lie below ``_EXP_ZERO_CUT``, where exp returns exactly 0.0,
    only the others are exponentiated and the rest of the buffer is
    zero-filled.  Such inputs arise while the particles are spread out and
    the weight parameters are large, and exp is slowest on them.  NaN
    exponents are not below the cut, so they reach exp as before.
    """
    values = np.asarray(values, dtype=float)
    if scale >= 0:
        pivot = values.max(axis=axis, keepdims=True)
    else:
        pivot = values.min(axis=axis, keepdims=True)
    w = values - pivot
    w *= scale
    _exp_in_place(w)
    w /= w.sum(axis=axis, keepdims=True)
    return w


def _exp_in_place(w: np.ndarray) -> None:
    if w.size >= _SKIP_MIN_ENTRIES:
        flat = w.ravel(order="K")  # a view in memory order: w is a fresh dense array
        dead = flat < _EXP_ZERO_CUT
        if 2 * np.count_nonzero(dead) > flat.size:
            live_idx = np.flatnonzero(np.logical_not(dead, out=dead))
            live = flat[live_idx]
            np.exp(live, out=live)
            w.fill(0.0)
            flat[live_idx] = live
            return
    np.exp(w, out=w)


def _as_ensemble(arr, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InputError(f"{what} must have shape (N, {dim})")
    if arr.shape[0] == 0:
        raise InputError(f"{what} is empty")
    return arr


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        idx = np.argwhere(~np.isfinite(np.atleast_1d(values)))[0]
        raise NumericalError(f"non-finite objective value in {what} at particle index {tuple(idx)}")


def y_consensus(obj: ObjectiveFunction, ensemble_y, x, beta: float) -> np.ndarray:
    """Soft-argmax of E(x, .) over the y-ensemble: sum_i w_i Y^i, w_i ~ exp(beta E(x, Y^i))."""
    ys = _as_ensemble(ensemble_y, obj.dim_y, "ensemble_y")
    if beta < 0:
        raise InputError("beta must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (obj.dim_x,):
        raise InputError(f"x has shape {x.shape}, expected ({obj.dim_x},)")
    vals = obj.batch(np.broadcast_to(x, (ys.shape[0], obj.dim_x)), ys)
    _check_finite(vals, "y_consensus")
    w = exp_weights(vals, beta)
    return w @ ys


def consensus_points(
    obj: ObjectiveFunction, ensemble_x, ensemble_y, alpha: float, beta: float
) -> tuple[ConsensusPoint, np.ndarray]:
    """Both consensus quantities from one all-pairs evaluation.

    Evaluates E(X^i, Y^j) exactly once per (i, j) pair and returns the
    matrix alongside the consensus data so callers (the time stepper, the
    best-pair diagnostic) can reuse it.
    """
    xs = _as_ensemble(ensemble_x, obj.dim_x, "ensemble_x")
    ys = _as_ensemble(ensemble_y, obj.dim_y, "ensemble_y")
    if alpha < 0 or beta < 0:
        raise InputError("alpha and beta must be >= 0")
    pair_values = obj.pair_matrix(xs, ys)
    _check_finite(pair_values, "consensus pair matrix")
    w_y = exp_weights(pair_values, beta, axis=1)
    yhat = w_y @ ys
    outer_vals = obj.batch(xs, yhat)
    _check_finite(outer_vals, "x-consensus outer weights")
    w_x = exp_weights(outer_vals, -alpha)
    x_cons = w_x @ xs
    return ConsensusPoint(x_cons=x_cons, y_cons_per_particle=yhat), pair_values


def laplace_gap(obj: ObjectiveFunction, ensemble, fixed_point, param: float, mode: str) -> float:
    """Gap between the soft and hard extremum of E over an ensemble.

    mode="min": ensemble plays the x-role against a fixed y, and the gap is
    |softmin - min| with softmin = -(1/param) log mean exp(-param E).
    mode="max": ensemble plays the y-role at a fixed x, soft and hard max.
    Diagnostic of weight concentration; decreases as param grows.
    """
    if param <= 0:
        raise InputError("param must be > 0")
    fixed = np.atleast_1d(np.asarray(fixed_point, dtype=float))
    if mode == "min":
        zs = _as_ensemble(ensemble, obj.dim_x, "ensemble")
        vals = obj.batch(zs, np.broadcast_to(fixed, (zs.shape[0], obj.dim_y)))
    elif mode == "max":
        zs = _as_ensemble(ensemble, obj.dim_y, "ensemble")
        vals = obj.batch(np.broadcast_to(fixed, (zs.shape[0], obj.dim_x)), zs)
    else:
        raise InputError("mode must be 'min' or 'max'")
    _check_finite(vals, "laplace_gap")
    d = vals - vals.min() if mode == "min" else vals.max() - vals
    # |softext - ext| reduces to (log N - log sum exp(-param d)) / param, d >= 0
    return float((np.log(d.size) - np.log(np.sum(np.exp(-param * d)))) / param)
