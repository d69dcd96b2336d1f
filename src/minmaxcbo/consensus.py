"""Weighted consensus points of the two particle populations.

The y-consensus at a point x is the soft-argmax of E(x, .) over the
y-ensemble; the x-consensus is the soft-argmin of x -> E(x, yhat(x)) over
the x-ensemble, where yhat(x) is the y-consensus evaluated at that x.  All
exponential weights are computed max-shifted (the largest exponent becomes
zero) so that weight parameters of 1e4 and far beyond cannot overflow.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, NumericalError
from .objectives import ObjectiveFunction

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

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
# sits a little lower, so the entries it skips are zero in any exp.
_EXP_ZERO_CUT = -746.0
# Below about this many entries, counting the entries under the cut costs
# more than skipping them saves.
_SKIP_MIN_ENTRIES = 1024
# Pair entries per row block of consensus_points: 2**16 float64 values
# (512 KiB) and their weights stay in a core's L2 cache.  The row count is
# a multiple of 8 because BLAS gemv groups output rows by 4: with blocks
# that start off that grid, the last bits of some y-consensus rows differed
# from the product over the whole matrix.  When the blocks run on two
# workers, each worker's block holds half as many entries.
_BLOCK_ENTRIES = 2**16


def exp_weights(
    values: np.ndarray,
    scale: float,
    axis: int = -1,
    *,
    pivot: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
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

    A caller that already holds the pivot (that max or min along ``axis``,
    with the axis kept) passes it as ``pivot`` and saves that pass.  A
    float64 array of the values' shape passed as ``out``, ``values``
    itself included, receives the weights instead of a new array, with the
    same bits and warnings; the result is ``out``.
    """
    values = np.asarray(values, dtype=float)
    if pivot is None:
        pivot = values.max(axis=axis, keepdims=True) if scale >= 0 else values.min(axis=axis, keepdims=True)
    w = np.subtract(values, pivot, out=out)
    w *= scale
    _exp_in_place(w)
    w /= w.sum(axis=axis, keepdims=True)
    return w


def _exp_in_place(w: np.ndarray) -> None:
    if w.size >= _SKIP_MIN_ENTRIES:
        flat = w.ravel(order="K")  # a view in memory order, unless an out= array has gaps or reversed axes
        dead = flat < _EXP_ZERO_CUT
        if not flat.flags.owndata and 2 * np.count_nonzero(dead) > flat.size:
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
    if arr.ndim not in (2, 3) or arr.shape[-1] != dim:
        raise InputError(f"{what} must have shape (N, {dim}) or (T, N, {dim})")
    if arr.size == 0:
        raise InputError(f"{what} is empty")
    return arr


def _check_finite(values: np.ndarray, what: str, row_offset: int = 0) -> None:
    """Raise at the first non-finite value, named by its full index; ``row_offset`` shifts a pair block's rows."""
    if not np.isfinite(values).all():  # the method skips np.all's dispatch, a few us per step
        idx = np.argwhere(~np.isfinite(np.atleast_1d(values)))[0].tolist()
        if row_offset:
            idx[-2] += row_offset
        raise NumericalError(f"non-finite objective value in {what} at particle index {tuple(idx)}")


def consensus_points(
    obj: ObjectiveFunction, ensemble_x, ensemble_y, alpha: float, beta: float
) -> tuple[ConsensusPoint, tuple[np.ndarray, np.ndarray, float]]:
    """Both consensus quantities and the best pair from one all-pairs evaluation.

    The ensembles are (N, d) arrays, or (T, N, d) arrays of T trials that
    are computed together; every result then gains the leading axis T, and
    a trial's results are bitwise those of its (N, d) call.  Evaluates
    E(X^i, Y^j) exactly once per (i, j) pair of each trial, in blocks of
    x-rows of about ``_BLOCK_ENTRIES`` pairs per trial.  Each block's share
    of the best pair, its y-weights and its rows of the y-consensus are
    taken before the worker evaluates its next block, so no N x N array is
    built.  The weights overwrite the block's pair values when the
    objective returned a writeable array of its own.  When the rows split
    into two or more such blocks and ``_worker_count`` allows two workers,
    blocks of half the size alternate between this thread and a helper
    thread, so ``obj.fn`` may run on two threads at once; the shares are
    folded in block order afterwards and the results are bitwise those of
    one worker.  The best pair is (x, y, value) with value = min over i of
    max over j of E(X^i, Y^j); ties go to the lowest x-index, then the
    lowest y-index.  An error is the one of the lowest failing block; in a
    batch, a NumericalError names the full index (t, i, j).
    """
    xs = _as_ensemble(ensemble_x, obj.dim_x, "ensemble_x")
    ys = _as_ensemble(ensemble_y, obj.dim_y, "ensemble_y")
    lead = xs.shape[:-2]
    if ys.shape[:-2] != lead:
        raise InputError(f"ensemble_x has trial shape {lead}, ensemble_y {ys.shape[:-2]}")
    if alpha < 0 or beta < 0:
        raise InputError("alpha and beta must be >= 0")
    (n_x, d1), (n_y, d2) = xs.shape[-2:], ys.shape[-2:]
    n_trials = math.prod(lead)  # one (N, d) call is the batch of one trial
    n_rows = _block_rows(_BLOCK_ENTRIES, n_y)
    workers = _worker_count() if n_x > n_rows else 1
    if workers > 1:
        n_rows = _block_rows(_BLOCK_ENTRIES // workers, n_y)
    yhat = np.empty((*lead, n_x, d2))
    # The best pair is gathered with take() on trial-major flat row indices,
    # a few times faster than fancy indexing at small N.
    x_flat, y_flat = xs.reshape(-1, d1), ys.reshape(-1, d2)
    y_starts = np.arange(0, n_trials * n_y, n_y)

    def block(a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows a:a + n_rows of yhat; returns the block's share (i, j, value) of each trial's best pair."""
        rows = obj.pair_matrix(xs[..., a : a + n_rows, :], ys)
        _check_finite(rows, "consensus pair matrix", a)
        pair_rows = rows.reshape(-1, n_y)  # trial-major
        row_max = pair_rows.max(axis=1, keepdims=True)  # the y-weights' pivot
        # Each trial's lowest row max in this block and the first y-index that
        # attains it (argmin and argmax return the first extremal entry).
        n_block = rows.shape[-2]
        r = row_max.reshape(n_trials, n_block).argmin(axis=1)
        in_block = r + np.arange(0, n_trials * n_block, n_block)
        # flat rows of xs, which are the block's own when one block holds all rows
        i = in_block if n_block == n_x else r + np.arange(a, n_trials * n_x, n_x)
        j = pair_rows.take(in_block, 0).argmax(axis=1) + y_starts
        own = rows.flags.owndata and rows.flags.writeable
        weights = exp_weights(pair_rows, beta, axis=1, pivot=row_max, out=pair_rows if own else None)
        np.matmul(weights.reshape(rows.shape), ys, out=yhat[..., a : a + n_rows, :])
        return i, j, row_max.take(in_block)

    starts = range(0, n_x, n_rows)
    shares = [block(a) for a in starts] if workers == 1 else _on_two_workers(block, starts)
    # a later block replaces a trial's best pair only where strictly lower
    best_i, best_j, best_value = shares[0]
    for i, j, value in shares[1:]:
        lower = value < best_value
        best_i, best_j = np.where(lower, i, best_i), np.where(lower, j, best_j)
        best_value = np.minimum(value, best_value)
    outer_vals = obj.batch(xs, yhat)
    _check_finite(outer_vals, "x-consensus outer weights")
    x_cons = np.matmul(exp_weights(outer_vals, -alpha)[..., None, :], xs)[..., 0, :]
    return ConsensusPoint(x_cons=x_cons, y_cons_per_particle=yhat), (
        x_flat.take(best_i, 0).reshape(*lead, d1),
        y_flat.take(best_j, 0).reshape(*lead, d2),
        best_value.reshape(lead) if lead else best_value.item(),
    )


def _block_rows(entries: int, n_y: int) -> int:
    """x-rows per block of about ``entries`` pair entries per trial: a multiple of 8, at least 8."""
    return max(8, entries // n_y // 8 * 8)


_helper: tuple[int, ThreadPoolExecutor] | None = None  # (pid, executor) of the process that made it


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _worker_count() -> int:
    """Threads that step the row blocks of a multi-block call: min(2, usable CPUs)."""
    return min(2, _usable_cpus())


def _helper_thread() -> ThreadPoolExecutor:
    """This process's one helper thread, made on first use.

    A forked child inherits its parent's executor but not the thread
    behind it, so the executor is keyed by the process id.  The executor
    module is imported here, so a process that never steps two workers
    does not load it.
    """
    global _helper
    if _helper is None or _helper[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _helper = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="minmaxcbo-consensus"))
    return _helper[1]


def _on_two_workers(block, starts: range) -> list:
    """[block(a) for a in starts], the even blocks on this thread and the odd ones on the helper.

    The helper runs in a copy of the caller's context, so numpy's errstate
    holds there too.  A worker stops at its first failing block, so every
    block below the lowest failure runs; what the lowest failing block
    raised is raised here once both workers are done.
    """
    shares: list = [None] * len(starts)

    def work(first: int) -> None:
        for b in range(first, len(starts), 2):
            try:
                shares[b] = block(starts[b])
            except Exception as exc:
                shares[b] = exc
                return

    helper = _helper_thread().submit(contextvars.copy_context().run, work, 1)
    try:
        work(0)
    finally:
        helper.result()
    for share in shares:
        if isinstance(share, Exception):
            raise share
    return shares
