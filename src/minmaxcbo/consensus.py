"""Weighted consensus points of the two particle populations.

The y-consensus at a point x is the soft-argmax of E(x, .) over the
y-ensemble; the x-consensus is the soft-argmin of x -> E(x, yhat(x)) over
the x-ensemble, where yhat(x) is the y-consensus evaluated at that x.  All
exponential weights are computed max-shifted (the largest exponent becomes
zero) so that weight parameters of 1e4 and far beyond cannot overflow.
Both averages sum_j w_j z_j / sum_j w_j form the weighted sum of the
unnormalized weights first and divide it by their sum once per point.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

try:  # numpy's private name for np.count_nonzero without its Python wrapper
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # moved in some later numpy: the public wrapper gives the same count, a little slower
    _count_nonzero = np.count_nonzero

from .errors import InputError, NumericalError
from .objectives import ObjectiveFunction

__all__ = [
    "ConsensusPoint",
    "exp_weights",
    "consensus_points",
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
# sits a little lower, so the entries below it are zero in any exp.
_EXP_ZERO_CUT = -746.0
# numpy's SIMD exp is fast only while every lane of an 8-lane vector has a
# normal result: a vector with a lane whose result is 0 costs about 15x as
# much, one with a subnormal result 100-150x.  The fast path ends between
# -707.5 and -707.8 (results are normal down to ln(tiny) ~ -708.40); the cut
# sits a little above, so exp of the cut itself is a normal float.
_EXP_FAST_CUT = -707.0
# Below about this many entries, masking the exponents under the fast cut
# costs more than it saves.
_MASK_MIN_ENTRIES = 1024
# A block is masked only when at least 1/_MASK_MIN_SHARE of a sample of at
# most _MASK_SAMPLE evenly spaced exponents lies below the fast cut (the mask
# makes six more numpy calls than one exp).  Both were set while the second
# consensus worker was a thread; ROADMAP item 6 measures them again.
_MASK_MIN_SHARE = 16
_MASK_SAMPLE = 500
# Pair entries per trial of a consensus_points call that takes one block:
# 2**16 float64 values (512 KiB) and their weights stay in a core's L2 cache.
# Longer rows split into blocks of half as many entries, the same blocks on
# one worker or two (README gives their one-CPU timings against full-size
# blocks).  Row counts are multiples of 8: BLAS gemv groups output rows by
# 4, and blocks off that grid changed some y-consensus bits.
_BLOCK_ENTRIES = 2**16


def exp_weights(values: np.ndarray, scale: float, *, pivot: np.ndarray) -> np.ndarray:
    """Unnormalized exp(scale * (values - pivot)), written over ``values``.

    ``values`` is a writeable C-contiguous float64 array; the result is
    ``values`` itself.  ``pivot`` is its max along the last axis, with the
    axis kept, for scale >= 0 and its min otherwise, so every exponent is
    <= 0.  Shifting before scaling keeps every intermediate finite for
    |scale * v| far beyond 1e14 and makes the weights exactly invariant
    under v -> v + c whenever the constant adds without rounding.

    The result is bit for bit ``np.exp(scale * (values - pivot))``.  Each
    pivot's lane is exactly 1.0, so every row sums to at least 1; the
    caller divides its weighted sums by the row sums, one divide per row
    rather than one per weight.  While the particles are
    spread out and the weight parameters are large, many scaled exponents
    lie below ``_EXP_FAST_CUT``, where exp's result is 0.0 or subnormal and
    numpy's exp leaves its fast path for the whole vector of lanes.  In an
    input of at least ``_MASK_MIN_ENTRIES`` entries where at least
    1/``_MASK_MIN_SHARE`` of an evenly spaced sample of the exponents lies
    below the cut, those exponents are raised to the cut before the one
    exp over the buffer, and their lanes are then set to +0.0; the few of
    them at or above ``_EXP_ZERO_CUT``, whose result may be subnormal, are
    exponentiated apart and written back.  Other inputs go to one exp.
    NaN and infinite exponents give what exp gives them.  The masked lanes
    raise no floating-point flag, so under an errstate that reports
    underflow the formula can warn where this does not.
    """
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and (flags := values.flags).c_contiguous and flags.writeable):
        raise InputError("exp_weights writes over values: pass a writeable C-contiguous float64 array")
    np.subtract(values, pivot, out=values)
    np.multiply(values, scale, out=values)
    _exp_in_place(values)
    return values


def _exp_in_place(values: np.ndarray) -> None:
    """``np.exp(values, out=values)`` bit for bit on a C-contiguous array, a large one kept on numpy's fast path."""
    if values.size < _MASK_MIN_ENTRIES:
        np.exp(values, out=values)
        return
    flat = values.reshape(-1)
    sample = flat[:: -(-flat.size // _MASK_SAMPLE)]
    if _count_nonzero(sample < _EXP_FAST_CUT) * _MASK_MIN_SHARE < sample.size:
        np.exp(flat, out=flat)
        return
    keep = flat >= _EXP_FAST_CUT  # False for NaN, which the clamp, the exp and the product leave NaN
    band = flat >= _EXP_ZERO_CUT
    band ^= keep  # from the zero cut up to the fast cut: results that may be subnormal, exponentiated apart
    band_idx = np.flatnonzero(band)
    del band  # freed before the product's 64 KiB cast buffer
    band_vals = flat[band_idx]
    np.exp(band_vals, out=band_vals)
    np.maximum(flat, _EXP_FAST_CUT, out=flat)
    np.exp(flat, out=flat)
    np.multiply(flat, keep, out=flat)  # each lane below the fast cut becomes +0.0
    flat[band_idx] = band_vals


def _owned(values: np.ndarray) -> np.ndarray:
    """``values`` if it is a writeable C-contiguous float64 array that owns its data, else a C-ordered copy.

    A view may share memory with an array the objective keeps, and C order
    makes the weights' sums the same operations whatever layout it chose.
    """
    flags = values.flags
    if values.dtype == np.float64 and flags.c_contiguous and flags.writeable and flags.owndata:
        return values
    return np.array(values, dtype=np.float64, order="C")


def _as_ensemble(arr, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim in (2, 3) and arr.shape[-1] == dim and arr.size:
        return arr
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim not in (2, 3) or arr.shape[-1] != dim:
        raise InputError(f"{what} must have shape (N, {dim}) or (T, N, {dim})")
    if arr.size == 0:
        raise InputError(f"{what} is empty")
    return arr


def _first_non_finite(values: np.ndarray) -> list[int] | None:
    """The full index of the first non-finite value, as plain ints; None when every value is finite."""
    # count_nonzero takes 0.1 us where .all() takes 1.0 at 20 x 20, and 0.1 us more on a 32 x 1000 block.
    # A sum would be cheaper than isfinite on small arrays, but a sum of finite values can overflow and set
    # numpy's floating-point flags, which the caller's errstate may turn into a warning or an error.
    finite = np.isfinite(values)
    if _count_nonzero(finite) == finite.size:
        return None
    return np.argwhere(np.atleast_1d(~finite))[0].tolist()


def _check_finite(values: np.ndarray, what: str, row_offset: int = 0) -> None:
    """Raise at the first non-finite value, named by its full index; ``row_offset`` shifts a pair block's rows."""
    idx = _first_non_finite(values)
    if idx is not None:
        if row_offset:
            idx[-2] += row_offset
        raise NumericalError(f"non-finite objective value in {what} at particle index {tuple(idx)}")


@functools.lru_cache(maxsize=64)
def _offsets(shape: tuple[int, ...], stride: int) -> np.ndarray:
    """0, stride, 2 * stride, ... in ``shape``, read-only: the flat start of each row of ``stride`` entries."""
    offsets = np.arange(0, math.prod(shape) * stride, stride).reshape(shape)
    offsets.flags.writeable = False
    return offsets


def consensus_points(
    obj: ObjectiveFunction, ensemble_x, ensemble_y, alpha: float, beta: float, *, _helper=None
) -> tuple[ConsensusPoint, tuple[np.ndarray, np.ndarray, float]]:
    """Both consensus quantities and the best pair from one all-pairs evaluation.

    The ensembles are (N, d) arrays, or (T, N, d) arrays of T trials that
    are computed together; every result then gains the leading axis T, and
    a trial's results are bitwise those of its (N, d) call.  Evaluates
    E(X^i, Y^j) exactly once per (i, j) pair of each trial: in one block
    when the x-rows hold at most ``_BLOCK_ENTRIES`` pairs per trial, else in
    blocks of fewer x-rows (see ``_block_rows``).
    ``_row_block`` gives a block's rows' max and first maximizing y-index
    and its rows of the y-consensus; for one block these are the call's
    arrays, else each block writes them into the call's arrays before the
    worker evaluates its next block, so no N x N array is built.  Both
    weight sets are written over arrays that ``_owned`` returns, so the
    results do not depend on the layout of the objective's output.  Split
    rows are stepped on one worker, unless ``_helper`` is the second worker
    that ``dynamics.trajectory`` forks for its run (see ``_second_worker``)
    and was made for this objective and these shapes: then the same blocks
    alternate between this process and the helper process, so ``obj.fn``
    also runs in a forked process, and the results are bitwise those of one
    worker.  The best pair is (x, y, value): x minimizes the max over j of
    E(x, Y^j) over the x-ensemble, y attains that max, and value is E(x, y)
    bit for bit.  Ties go to the lowest x-index, then the lowest y-index.
    An error is the one of the lowest failing block; a block that fails in
    the helper is evaluated again here, so every error and warning comes
    from this process, but on two workers a warning of an even block above
    the lowest failing block is emitted too, where one worker stops before
    it.  In a batch, a NumericalError names the full index (t, i, j).  A
    helper that dies during the call raises ChildProcessError.
    """
    xs = _as_ensemble(ensemble_x, obj.dim_x, "ensemble_x")
    ys = _as_ensemble(ensemble_y, obj.dim_y, "ensemble_y")
    lead = xs.shape[:-2]
    if ys.shape[:-2] != lead:
        raise InputError(f"ensemble_x has trial shape {lead}, ensemble_y {ys.shape[:-2]}")
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):  # False for NaN
        raise InputError(f"alpha and beta must be finite and >= 0, got {alpha!r} and {beta!r}")
    (n_x, d1), (n_y, d2) = xs.shape[-2:], ys.shape[-2:]
    if _block_rows(n_x, n_y) == n_x:
        row_max, row_arg, yhat = _row_block(obj, xs, ys, beta, 0)
    elif _helper is not None and _helper.fits(obj, xs, ys):
        row_max, row_arg, yhat = _helper.call(xs, ys, beta)
    else:
        row_max, row_arg = np.empty((*lead, n_x)), np.empty((*lead, n_x), dtype=np.intp)
        yhat = np.empty((*lead, n_x, d2))
        failure = _row_blocks(obj, xs, ys, beta, 0, 1, row_max, row_arg, yhat)
        if failure is not None:
            raise failure[1]
    # argmin and argmax return the first extremal entry, so ties go to the
    # lowest x-index, then the lowest y-index.  The best pair is gathered with
    # take() on trial-major flat indices, a few times faster than fancy
    # indexing at small N.
    best_i = row_max.argmin(axis=-1) + _offsets(lead, n_x)
    best_j = row_arg.take(best_i) + _offsets(lead, n_y)
    best_value = row_max.take(best_i)
    outer_vals = _owned(obj.batch(xs, yhat))
    _check_finite(outer_vals, "x-consensus outer weights")
    weights = exp_weights(outer_vals, -alpha, pivot=np.minimum.reduce(outer_vals, -1, keepdims=True))
    x_cons = np.matmul(weights[..., None, :], xs)[..., 0, :]
    x_cons /= np.add.reduce(weights, -1, keepdims=True)
    return ConsensusPoint(x_cons, yhat), (  # positional: a dataclass's keyword arguments cost about 0.3 us more
        xs.reshape(-1, d1).take(best_i, 0),
        ys.reshape(-1, d2).take(best_j, 0),
        best_value if lead else best_value.item(),
    )


def _row_block(obj: ObjectiveFunction, xs: np.ndarray, ys: np.ndarray, beta: float, a: int, out=None):
    """Each x-row's max of E over the y-ensemble, the first y-index attaining it, and its y-consensus.

    ``xs`` holds the x-rows of each trial from row ``a`` on.  The max and
    the index have the shape of ``xs`` without its last axis, the
    y-consensus that of ``xs`` with the last axis of ``ys``; it is written
    into ``out`` when given.
    """
    rows = _owned(obj.pair_matrix(xs, ys))
    _check_finite(rows, "consensus pair matrix", a)
    arg = rows.argmax(axis=-1)
    pivot = rows.take(arg + _offsets(arg.shape, rows.shape[-1]))  # the row max: the y-weights' pivot
    # exp_weights sees one row per (trial, x-row): its tracer hook reads one effective sample size per row.
    weights = exp_weights(rows.reshape(-1, rows.shape[-1]), beta, pivot=pivot.reshape(-1, 1)).reshape(rows.shape)
    yhat = np.matmul(weights, ys, out=out)
    yhat /= np.add.reduce(weights, -1, keepdims=True)
    return pivot, arg, yhat


def _row_blocks(obj, xs, ys, beta, first: int, step: int, row_max, row_arg, yhat):
    """Row blocks first, first + step, ... of row_max, row_arg and yhat, in order, each of ``_block_rows`` rows.

    Stops at the first block that raises an Exception and returns its
    index and the exception; returns None when every block succeeds.
    """
    n_rows = _block_rows(xs.shape[-2], ys.shape[-2])
    for a in range(first * n_rows, xs.shape[-2], step * n_rows):
        rows = slice(a, a + n_rows)
        try:
            row_max[..., rows], row_arg[..., rows], _ = _row_block(obj, xs[..., rows, :], ys, beta, a,
                                                                   yhat[..., rows, :])
        except Exception as exc:
            return a // n_rows, exc
    return None


def _block_rows(n_x: int, n_y: int) -> int:
    """x-rows per block: all n_x if at most 8, or at most ``_BLOCK_ENTRIES`` pairs per trial on the 8-row grid.

    Else the call splits into blocks of about ``_BLOCK_ENTRIES / 2`` pairs: a multiple of 8, at least 8, below n_x.
    """
    if n_x <= 8 or -(-n_x // 8) * 8 * n_y <= _BLOCK_ENTRIES:
        return n_x
    return max(8, _BLOCK_ENTRIES // 2 // n_y // 8 * 8)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _second_worker(obj: ObjectiveFunction, xs_shape: tuple[int, ...], ys_shape: tuple[int, ...]):
    """A helper process for the ``consensus_points`` calls of one run, reaped on exit; None for one worker.

    The run's ensembles have the shapes ``xs_shape`` and ``ys_shape``.  The
    helper is forked only when their rows split into two or more blocks,
    ``os.fork`` exists, this process may run on two or more CPUs and no
    other Python thread is alive: a fork beside a running thread can
    deadlock the child, and Python 3.12 warns about it.  A fork that fails
    leaves the run on one worker too.
    """
    helper = None
    if _block_rows(xs_shape[-2], ys_shape[-2]) < xs_shape[-2] and hasattr(os, "fork") and _usable_cpus() >= 2:
        import threading  # loaded by then in any process; only its thread count is read

        from .second_worker import Helper  # here, so only a run that may fork compiles and loads it

        if threading.active_count() == 1:
            with contextlib.suppress(OSError):  # no pipe, no shared buffer or no fork
                helper = Helper(obj, xs_shape, ys_shape)
    try:
        yield helper
    finally:
        if helper is not None:
            helper.close()
