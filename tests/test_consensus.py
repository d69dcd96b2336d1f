import contextlib
import itertools
import math
import mmap
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minmaxcbo import (
    InputError,
    NumericalError,
    SolverConfig,
    benchmark_reference,
    make_benchmark,
    run,
    trajectory,
)
from minmaxcbo import consensus, second_worker
from minmaxcbo.consensus import (
    _BLOCK_ENTRIES,
    _EXP_FAST_CUT,
    _EXP_ZERO_CUT,
    _MASK_MIN_ENTRIES,
    _MASK_MIN_SHARE,
    _MASK_SAMPLE,
    _block_rows,
    consensus_points,
    exp_weights,
)
from minmaxcbo.objectives import BoxDomain, ObjectiveFunction

BILINEAR = make_benchmark("bilinear")
FORSAKEN = make_benchmark("forsaken")
BUILT_IN_IDS = ("bilinear", "bivariate", "bilinearly_coupled", "forsaken", "sixth_order", "remark_function")


def _y_consensus(obj, ys, x, beta):
    """The y-consensus at the one x-particle x: the soft-argmax of E(x, .) over ys."""
    return consensus_points(obj, np.atleast_2d(x), ys, 0.0, beta)[0].y_cons_per_particle[0]


def test_single_particle_is_its_own_consensus():
    y = np.array([[0.7]])
    assert np.array_equal(_y_consensus(BILINEAR, y, np.array([1.0]), beta=123.0), y[0])
    cp, _ = consensus_points(BILINEAR, np.array([[0.3]]), y, alpha=5.0, beta=5.0)
    assert np.array_equal(cp.x_cons, np.array([0.3]))


def test_beta_zero_gives_arithmetic_mean():
    ys = np.array([[-1.0], [0.0], [4.0]])
    out = _y_consensus(BILINEAR, ys, np.array([2.0]), beta=0.0)
    assert out[0] == pytest.approx(1.0, abs=1e-14)


def test_alpha_zero_gives_mean_of_x():
    xs = np.array([[-3.0], [1.0], [5.0]])
    ys = np.array([[-1.0], [2.0]])
    cp, _ = consensus_points(BILINEAR, xs, ys, alpha=0.0, beta=777.0)
    assert cp.x_cons[0] == pytest.approx(1.0, abs=1e-14)


def test_large_beta_selects_ensemble_argmax():
    # E(1, y) = y over the ensemble; the beta -> inf limit is the hard argmax
    ys = np.array([[-1.0], [0.0], [2.0]])
    out = _y_consensus(BILINEAR, ys, np.array([1.0]), beta=1e6)
    brute = ys[np.argmax(ys[:, 0])]
    assert abs(out[0] - brute[0]) < 1e-6


def test_large_alpha_beta_select_min_max_particle():
    xs = np.array([[-1.0], [0.01], [1.0]])
    ys = np.array([[-1.0], [1.0]])
    out = consensus_points(BILINEAR, xs, ys, alpha=1e6, beta=1e6)[0].x_cons
    # brute force: inner argmax per row, then argmin of E(x_i, yhat_i)
    matrix = BILINEAR.pair_matrix(xs, ys)
    inner = matrix[np.arange(3), np.argmax(matrix, axis=1)]
    assert np.array_equal(out, xs[np.argmin(inner)])
    assert out[0] == pytest.approx(0.01, abs=1e-9)


def test_empty_ensemble_rejected():
    with pytest.raises(InputError):
        _y_consensus(BILINEAR, np.empty((0, 1)), np.array([1.0]), beta=1.0)


def test_negative_weights_rejected():
    ys = np.array([[0.0]])
    with pytest.raises(InputError):
        _y_consensus(BILINEAR, ys, np.array([1.0]), beta=-1.0)
    with pytest.raises(InputError):
        consensus_points(BILINEAR, ys, ys, alpha=-2.0, beta=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_non_finite_weight_parameters_rejected(which, bad):
    # alpha = NaN or inf used to return a NaN x_cons; beta = NaN or inf raised
    # a NumericalError about a non-finite objective value
    xs, ys = np.array([[0.2], [-0.4]]), np.array([[0.3], [0.9]])
    weights = {"alpha": 1.0, "beta": 1.0, which: bad}
    with pytest.raises(InputError, match="^alpha and beta must be finite and >= 0"):
        consensus_points(BILINEAR, xs, ys, **weights)


def test_non_finite_objective_reports_particle():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))

    def bad(x, y):
        out = x[..., 0] * y[..., 0]
        return np.where(y[..., 0] > 0.5, np.inf, out)

    obj = ObjectiveFunction("bad", 1, 1, box, box, bad)
    ys = np.array([[0.0], [0.9]])
    with pytest.raises(NumericalError, match="particle index"):
        _y_consensus(obj, ys, np.array([1.0]), beta=1.0)


def test_no_overflow_at_extreme_weights():
    # |E| up to 1e6 with alpha = beta = 1e8 must stay finite
    box = BoxDomain(np.array([-4.0]), np.array([4.0]))
    obj = ObjectiveFunction("scaled", 1, 1, box, box, lambda x, y: 1e6 * np.tanh(x[..., 0] * y[..., 0]))
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(-4, 4, (5, 1)), rng.uniform(-4, 4, (5, 1))
    cp, _ = consensus_points(obj, xs, ys, alpha=1e8, beta=1e8)
    assert np.all(np.isfinite(cp.x_cons))
    assert np.all(np.isfinite(cp.y_cons_per_particle))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_x=st.integers(1, 20),
    n_y=st.integers(1, 20),
    alpha=st.floats(0.0, 1e8),
    beta=st.floats(0.0, 1e8),
)
def test_hull_containment_property(seed, n_x, n_y, alpha, beta):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-4, 4, (n_x, 1))
    ys = rng.uniform(-4, 4, (n_y, 1))
    cp, _ = consensus_points(BILINEAR, xs, ys, alpha, beta)
    tol = 1e-12 * 4
    assert xs.min() - tol <= cp.x_cons[0] <= xs.max() + tol
    assert np.all(cp.y_cons_per_particle >= ys.min() - tol)
    assert np.all(cp.y_cons_per_particle <= ys.max() + tol)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=st.floats(0.0, 1e4))
def test_permutation_invariance(seed, beta):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-4, 4, (8, 1))
    ys = rng.uniform(-4, 4, (8, 1))
    perm = rng.permutation(8)
    a = _y_consensus(BILINEAR, ys, np.array([1.3]), beta)
    b = _y_consensus(BILINEAR, ys[perm], np.array([1.3]), beta)
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_shift_invariance_bitwise_on_dyadic_values():
    # dyadic objective values make E + c exact, so the max-shifted weights
    # must reproduce the consensus bit for bit
    box = BoxDomain(np.array([-8.0]), np.array([8.0]))
    scale = 2.0**20

    def quantized(x, y):
        return np.round(np.clip(x[..., 0] * y[..., 0], -8, 8) * scale) / scale

    obj = ObjectiveFunction("dyadic", 1, 1, box, box, quantized)
    rng = np.random.default_rng(11)
    xs, ys = rng.uniform(-2.8, 2.8, (9, 1)), rng.uniform(-2.8, 2.8, (7, 1))
    for c in (1.0, -3.5, 4096 / scale, 2.75):
        shifted = ObjectiveFunction("dyadic+c", 1, 1, box, box, lambda x, y, c=c: quantized(x, y) + c)
        base, _ = consensus_points(obj, xs, ys, alpha=1e4, beta=1e4)
        moved, _ = consensus_points(shifted, xs, ys, alpha=1e4, beta=1e4)
        assert np.array_equal(base.x_cons, moved.x_cons)
        assert np.array_equal(base.y_cons_per_particle, moved.y_cons_per_particle)


def test_stable_weights_normalized_rows():
    # the weights are unnormalized: each row's pivot lane is exactly 1.0 and no weight exceeds it
    rng = np.random.default_rng(5)
    scores = rng.uniform(-1e5, 1e5, (6, 9))
    w = exp_weights(scores, 1.0, pivot=scores.max(axis=1, keepdims=True))
    assert np.array_equal(w.max(axis=1), np.ones(6))
    assert np.all((w >= 0) & (w <= 1))


# --- exp_weights against the plain formula, bit for bit ---------------------


def _pivot(values, scale):
    """The max along the last axis for scale >= 0, the min otherwise, with the axis kept."""
    return values.max(axis=-1, keepdims=True) if scale >= 0 else values.min(axis=-1, keepdims=True)


def _reference_weights(values, scale):
    return np.exp(scale * (values - _pivot(values, scale)))


def _masks(values, scale):
    """Whether exp_weights masks the exponents below the fast cut of a C-ordered copy of this input."""
    values = np.array(values, dtype=float, order="C")
    with np.errstate(invalid="ignore"):
        z = scale * (values - _pivot(values, scale))
    sample = z.reshape(-1)[:: -(-z.size // _MASK_SAMPLE)]
    return values.size >= _MASK_MIN_ENTRIES and np.count_nonzero(sample < _EXP_FAST_CUT) * _MASK_MIN_SHARE >= sample.size


def _assert_matches_reference(values, scale):
    """exp_weights over a C-ordered copy of ``values`` is that copy, holding the formula's bits and warnings."""
    values = np.array(values, dtype=float, order="C")
    with warnings.catch_warnings(record=True) as expected_warnings:
        warnings.simplefilter("always")
        expected = _reference_weights(values, scale)
    expected_messages = [(w.category, str(w.message)) for w in expected_warnings]
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = exp_weights(values, scale, pivot=_pivot(values, scale))
    assert got is values
    assert got.tobytes() == expected.tobytes()
    assert [(w.category, str(w.message)) for w in got_warnings] == expected_messages


@pytest.mark.parametrize("layout", ["F", "reversed", "read_only", "int"])
def test_exp_weights_rejects_values_it_cannot_write_over(layout):
    values = np.arange(12.0).reshape(3, 4)
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "reversed":
        values = values[:, ::-1]
    elif layout == "read_only":
        values.flags.writeable = False
    else:
        values = values.astype(int)
    before = values.copy()
    with pytest.raises(InputError, match="writeable C-contiguous float64"):
        exp_weights(values, 1.0, pivot=values.max(axis=-1, keepdims=True))
    assert values.tobytes() == before.tobytes()


# Exponent bands: dead (exp is 0.0 and the lane is only masked), just above
# the zero cut (exp is still 0.0 but the lane is computed apart), subnormal
# results, normal results, and "fast": normal results at or above the fast
# cut, the only lanes a masked block hands to the exp over the whole buffer.
# Each (shape, axis) case is built along ``axis`` and handed to exp_weights,
# which reduces over the last axis, with that axis moved last.
_BANDS = {"dead": (-5000.0, _EXP_ZERO_CUT), "near_cut": (_EXP_ZERO_CUT, -745.0),
          "subnormal": (-745.0, -708.0), "normal": (-708.0, 0.0), "fast": (_EXP_FAST_CUT, 0.0)}
_SMALL_SHAPES_AXES = [((37,), 0), ((1,), -1), ((6, 9), 0), ((6, 9), 1), ((30, 30), -1)]
_LARGE_SHAPES_AXES = [((1500,), 0), ((1100,), -1), ((40, 30), 0), ((30, 40), 1), ((36, 36), -1),
                      ((2, 600), 1), ((600, 2), 0)]
_SHAPES_AXES = _SMALL_SHAPES_AXES + _LARGE_SHAPES_AXES


def _exponent_input(seed, shape, axis, scale, live_bands, dead_share):
    """Values whose scaled exponents fall in the given bands, with a zero exponent in every row, ``axis`` moved last."""
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    bands = ["dead"] * round(dead_share * n)
    bands += [live_bands[i % len(live_bands)] for i in range(n - len(bands))]
    z = np.array([rng.uniform(*_BANDS[b]) for b in bands])[rng.permutation(n)]
    return _values_of_exponents(z.reshape(shape), axis, scale)


def _values_of_exponents(z, axis, scale):
    """Values whose scaled exponents are ``z``, except for a zero exponent in every row along ``axis``, moved last."""
    np.moveaxis(z, axis, 0)[0] = 0.0  # one pivot per row
    values = z / scale if scale != 0 else z
    return np.ascontiguousarray(np.moveaxis(values, axis, -1))


@pytest.mark.parametrize("branch", ["mask", "dense"])
@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.one_of(st.sampled_from([1.0, -1.0, 1e4, -1e4, 1e8]), st.floats(-1e6, 1e6).filter(lambda s: abs(s) > 1e-3)),
    live_bands=st.lists(st.sampled_from(["near_cut", "subnormal", "normal"]), min_size=1, max_size=3),
    share=st.floats(0.0, 1.0),
)
def test_exp_weights_bitwise_equals_reference(branch, data, seed, scale, live_bands, share):
    if branch == "mask":  # at least a quarter of the lanes dead, far above the share that masks
        shape, axis = data.draw(st.sampled_from(_LARGE_SHAPES_AXES))
        dead_share = 0.25 + 0.75 * share
    else:  # small inputs mask nothing whatever their dead share; large ones hold fast lanes and at most 1/64 dead
        shape, axis = data.draw(st.sampled_from(_SHAPES_AXES))
        if (shape, axis) in _SMALL_SHAPES_AXES:
            dead_share = share
        else:
            live_bands, dead_share = ["fast"], share / 64
    values = _exponent_input(seed, shape, axis, scale, live_bands, dead_share)
    assert _masks(values, scale) == (branch == "mask")
    _assert_matches_reference(values, scale)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape_axis=st.sampled_from(_SHAPES_AXES),
    scale=st.sampled_from([1e4, -1e4, 3.0, -0.5]),
    dead_share=st.floats(0.0, 1.0),
)
def test_exp_weights_subnormal_band_bitwise(seed, shape_axis, scale, dead_share):
    # every live exponent other than the pivots lies in (-746, -708]
    shape, axis = shape_axis
    values = _exponent_input(seed, shape, axis, scale, ["near_cut", "subnormal"], dead_share)
    _assert_matches_reference(values, scale)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape_axis=st.sampled_from(_SHAPES_AXES), width=st.floats(0.0, 1e300))
def test_exp_weights_scale_zero_bitwise(seed, shape_axis, width):
    shape, axis = shape_axis
    values = np.moveaxis(np.random.default_rng(seed).uniform(-1.0, 1.0, shape) * width, axis, -1)
    _assert_matches_reference(values, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [1e4, -1e4, 0.0])
@pytest.mark.parametrize("dead_share", [0.0, 0.95])
def test_exp_weights_non_finite_inputs_bitwise_and_same_warnings(bad, scale, dead_share):
    for axis in (0, 1):
        values = _exponent_input(3, (40, 30), axis, scale or 1.0, ["fast"], dead_share)
        values[2, 3] = bad
        values[7, 0] = bad
        # with no dead lanes, an infinite value can make the 30 or 40 lanes of its row low,
        # and whether that reaches the share that masks depends on how many of them the sample holds
        if dead_share > 0 or not np.isinf(bad):
            assert _masks(values, scale) == (dead_share > 0 and scale != 0)
        _assert_matches_reference(values, scale)
    _assert_matches_reference(np.array([0.5, bad, -2.0]), scale)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape_axis=st.sampled_from(_LARGE_SHAPES_AXES),
    scale=st.sampled_from([1e4, -1e4, 3.0, -0.5]),
    low_bands=st.lists(st.sampled_from(["dead", "near_cut", "subnormal"]), min_size=1, max_size=3),
    low_share=st.one_of(st.none(), st.floats(0.05, 0.5)),
)
def test_exp_weights_sparse_low_lanes_bitwise(seed, shape_axis, scale, low_bands, low_share):
    # fast lanes with one low lane in every group of 8 in C order (low_share
    # None), which puts one in each of exp's 8-lane vectors of a C layout,
    # or with 5-50% low lanes at random places; a draw whose sample of
    # exponents holds fewer than 1/16 low ones takes the one exp and is
    # skipped (most draws near 5%, about 1e-5 of the one-per-8 draws)
    shape, axis = shape_axis
    shape = np.moveaxis(np.empty(shape), axis, -1).shape  # the lanes are placed in the C order exp_weights gets
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    z = rng.uniform(*_BANDS["fast"], n)
    if low_share is None:
        low = np.arange(0, n, 8) + rng.integers(0, 8, -(-n // 8))
        low = low[low < n]
    else:
        low = rng.permutation(n)[: round(low_share * n)]
    z[low] = [rng.uniform(*_BANDS[low_bands[i % len(low_bands)]]) for i in range(len(low))]
    values = _values_of_exponents(z.reshape(shape), -1, scale)
    assume(_masks(values, scale))
    _assert_matches_reference(values, scale)


@pytest.mark.parametrize("low_share", [0.3, 0.51, 0.8, 0.97])
def test_exp_of_a_block_allocates_at_most_4_bytes_per_entry(low_share):
    rng = np.random.default_rng(5)
    n = 32 * 1000
    z = rng.uniform(*_BANDS["fast"], n)
    low = rng.permutation(n)[: round(low_share * n)]
    z[low] = rng.uniform(*_BANDS["dead"], len(low))
    z[low[:64]] = rng.uniform(_EXP_ZERO_CUT, _EXP_FAST_CUT, 64)  # a few with subnormal or tiny results
    w = z.reshape(32, 1000)
    expected = np.exp(w)
    tracemalloc.start()
    try:
        consensus._exp_in_place(w.reshape(-1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.tobytes() == expected.tobytes()
    assert peak <= 4 * n, f"{peak / n:.2f} bytes per entry"


def test_exp_of_the_fast_cut_is_a_normal_float():
    assert np.exp(_EXP_FAST_CUT) >= np.finfo(float).tiny


def test_exp_underflows_to_exact_zero_below_the_cut():
    # exp_weights sets the lanes below the cut to +0.0 without exponentiating
    # them; this holds only while exp returns +0.0 there
    z = np.concatenate([np.linspace(-1000.0, _EXP_ZERO_CUT, 2_000_001), [-1e300, -np.inf]])
    z = np.concatenate([z, np.nextafter(_EXP_ZERO_CUT, -np.inf) - np.arange(1000) * 2**-40])
    zeros = np.zeros_like(z)
    assert np.exp(z).tobytes() == zeros.tobytes()
    assert np.exp(z[::-3]).tobytes() == zeros[::-3].tobytes()


def test_runs_bitwise_equal_with_reference_weights(monkeypatch):
    # The uniform start's pair matrix has 98% of its exponents below the fast
    # cut at first and 30% at the end; the concentrated start's reaches the
    # share that masks in about a quarter of its steps.
    ref = benchmark_reference("bilinear")
    for init, init_std, masked in (("uniform_box", 1.0, {True}), ("gaussian", 0.03, {True, False})):
        cfg = SolverConfig(n_particles=200, dt_y=0.01, horizon=2.0, seed=4, init=init, init_std=init_std)
        branches = set()  # of the pair-matrix calls; the outer weights of 200 entries are never masked

        def spy(values, scale, *, pivot):
            if values.ndim == 2:
                branches.add(_masks(values, scale))
            return exp_weights(values, scale, pivot=pivot)

        with monkeypatch.context() as patch:
            patch.setattr(consensus, "exp_weights", spy)
            fast = run(cfg, BILINEAR, reference=ref)
            patch.setattr(consensus, "exp_weights", lambda values, scale, *, pivot: _reference_weights(values, scale))
            slow = run(cfg, BILINEAR, reference=ref)
        assert branches == masked, init
        assert len(fast) == cfg.n_steps + 1 == 201
        for name in ("times", "variance_x", "variance_y", "spread_x", "spread_y", "mean_x", "mean_y",
                     "best_x", "best_y", "best_value_trace", "best_error_trace"):
            assert np.asarray(getattr(fast, name)).tobytes() == np.asarray(getattr(slow, name)).tobytes(), name
        assert fast.final_ensemble.xs.tobytes() == slow.final_ensemble.xs.tobytes()
        assert fast.final_ensemble.ys.tobytes() == slow.final_ensemble.ys.tobytes()


def _weighted_average(e, z):
    """The averages of the rows of ``z`` under the unnormalized weights ``e``: the product first, then one divide."""
    return (e @ z) / e.sum(axis=-1, keepdims=True)


def _reference_consensus(obj, xs, ys, alpha, beta):
    """consensus_points over the whole pair matrix: x_cons, yhat and the best pair (x, y, value)."""
    pair_values = obj.pair_matrix(xs, ys)
    yhat = _weighted_average(_reference_weights(pair_values, beta), ys)
    x_cons = _weighted_average(_reference_weights(obj.batch(xs, yhat), -alpha), xs)
    i = int(np.argmin(pair_values.max(axis=1)))
    j = int(np.argmax(pair_values[i]))
    return x_cons, yhat, (xs[i], ys[j], float(pair_values[i, j]))


def _reference_results(obj, xs, ys, weight):
    """_reference_consensus of each trial of (N, d) or (T, N, d) ensembles as (x_cons, yhat, x, y, value), stacked."""
    lead = xs.ndim == 3
    refs = [_reference_consensus(obj, x, y, weight, weight) for x, y in (zip(xs, ys) if lead else [(xs, ys)])]
    flat = [(x_cons, yhat, bx, by, np.float64(v)) for x_cons, yhat, (bx, by, v) in refs]
    return tuple(np.stack(parts) if lead else parts[0] for parts in zip(*flat))


def _blocked_mismatches():
    """(benchmark, n_x, n_y, trial shape, alpha=beta) of each case where consensus_points is not bitwise the reference."""
    cases = [(name, n, n, ()) for name in BUILT_IN_IDS for n in (1, 7, 513, 997, 1000, 1031)]
    cases += [("forsaken", 1000, 1500, ()), ("bilinearly_coupled", 997, 130, ()), ("sixth_order", 40, 2000, ())]
    # the rows of 256 particles fit one block, those of 257 split into two
    cases += [(name, n, n, lead) for name in BUILT_IN_IDS for n in (256, 257) for lead in ((), (1,), (3,))]
    mismatches = []
    for name, n_x, n_y, lead in cases:
        obj = make_benchmark(name)
        rng = np.random.default_rng([n_x, n_y, *lead])
        xs = rng.uniform(obj.domain_x.lower, obj.domain_x.upper, (*lead, n_x, obj.dim_x))
        ys = rng.uniform(obj.domain_y.lower, obj.domain_y.upper, (*lead, n_y, obj.dim_y))
        for weight in (1e4, 30.0):
            cp, (bx, by, value) = consensus_points(obj, xs, ys, weight, weight)
            got = (cp.x_cons, cp.y_cons_per_particle, bx, by, np.float64(value))
            if any(g.tobytes() != w.tobytes() for g, w in zip(got, _reference_results(obj, xs, ys, weight))):
                mismatches.append((name, n_x, n_y, lead, weight))
    return mismatches


def _normalize_first_average(e, z):
    """The averages of the rows of ``z`` by the earlier definition: each weight divided by its row's sum, then the product."""
    return np.matmul(e / e.sum(axis=-1, keepdims=True), z)


@pytest.mark.parametrize("name", BUILT_IN_IDS)
def test_dividing_after_the_product_moves_the_averages_by_a_few_eps(name):
    # Against the normalize-first formula on the same pair matrix and, for
    # x, on the same outer values, the averages move by at most a few
    # rounding units of the largest particle coordinate.
    obj, eps = make_benchmark(name), np.finfo(float).eps
    for n, lead in ((20, ()), (257, ()), (1000, ()), (257, (3,))):
        rng = np.random.default_rng([n, len(lead)])
        xs = rng.uniform(obj.domain_x.lower, obj.domain_x.upper, (*lead, n, obj.dim_x))
        ys = rng.uniform(obj.domain_y.lower, obj.domain_y.upper, (*lead, n, obj.dim_y))
        for weight in (1e4, 30.0, 1.0):
            cp, _ = consensus_points(obj, xs, ys, weight, weight)
            yhat = _normalize_first_average(_reference_weights(obj.pair_matrix(xs, ys), weight), ys)
            outer = _reference_weights(obj.batch(xs, cp.y_cons_per_particle), -weight)
            x_cons = _normalize_first_average(outer[..., None, :], xs)[..., 0, :]
            assert np.abs(cp.y_cons_per_particle - yhat).max() <= 8 * eps * np.abs(ys).max(), (n, lead, weight)
            assert np.abs(cp.x_cons - x_cons).max() <= 8 * eps * np.abs(xs).max(), (n, lead, weight)


# OpenBLAS may split the rows of one large product between threads, and a
# split that leaves the grid of 4 rows its kernel works in changes the last
# bits of the whole-matrix product: at N = 997 on two threads, y-consensus
# rows 496, 497, 995 and 996 of the reference changed, and those of the row
# blocks did not.  The comparison therefore runs in a child process with one
# BLAS thread, as the benchmark runs.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_row_blocks_bitwise_equal_whole_matrix_reference():
    assert _block_rows(256, 256) == 256 and _block_rows(257, 257) < 257  # so N = 257 is the first size that splits
    code = f"import runpy; print(runpy.run_path({__file__!r})['_blocked_mismatches']())"
    env = {**os.environ, **_ONE_BLAS_THREAD, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_best_pair_tie_across_a_block_boundary_goes_to_the_lowest_indices():
    # every row peaks at min(y, 1) = 1, first reached at y-index 10; rows 63
    # and 64 end the second block and start the third and tie at the lowest
    # row max with row 900, so row 63 and y-index 10 must win
    box = BoxDomain(np.array([-4.0]), np.array([4.0]))
    obj = ObjectiveFunction("tie", 1, 1, box, box, lambda x, y: (x[..., 0] - 1.0) ** 2 + np.minimum(y[..., 0], 1.0))
    rng = np.random.default_rng(2)
    xs = rng.uniform(2.0, 4.0, (1000, 1))
    xs[[63, 64, 900], 0] = 1.5, 0.5, 0.5
    ys = rng.uniform(-4.0, 0.5, (1000, 1))
    ys[[10, 20, 700], 0] = 2.0, 1.0, 3.0
    assert _block_rows(1000, 1000) == 32  # rows per block
    _, (bx, by, value) = consensus_points(obj, xs, ys, 1e4, 1e4)
    assert (bx[0], by[0], value) == (1.5, 2.0, 1.25)
    _, _, whole = _reference_consensus(obj, xs, ys, 1e4, 1e4)
    assert (whole[0][0], whole[1][0], whole[2]) == (1.5, 2.0, 1.25)
    # in a batch, beside a trial whose best row lies in another block, the tie resolves the same way
    perm = rng.permutation(1000)
    _, (bx, by, value) = consensus_points(obj, np.stack([xs, xs[perm]]), np.stack([ys, ys[perm]]), 1e4, 1e4)
    _, alone = consensus_points(obj, xs[perm], ys[perm], 1e4, 1e4)
    assert (bx[0, 0], by[0, 0], value[0]) == (1.5, 2.0, 1.25)
    assert (bx[1].tobytes(), by[1].tobytes(), value[1]) == (alone[0].tobytes(), alone[1].tobytes(), alone[2])


def _assert_value_is_e_at_the_pair(obj, best):
    """Each trial's best value has the bits of E at its best pair, the sign of a zero included."""
    bx, by, value = best
    for x, y, v in zip(np.reshape(bx, (-1, bx.shape[-1])), np.reshape(by, (-1, by.shape[-1])), np.ravel(value)):
        assert np.float64(v).tobytes() == np.float64(obj.fn(x, y)).tobytes(), (x, y, v)


@pytest.mark.parametrize("ys", [[-1.0, 2.0], [2.0, -1.0], [-1.0] * 7 + [2.0], [2.0] + [-1.0] * 40])
def test_best_value_is_the_objective_at_the_best_pair_bit_for_bit(ys):
    # the row of x = 0 is the best one; E(0, y) is -0.0 for y < 0 and 0.0 for y > 0
    xs, ys = np.array([[0.5], [0.0], [-0.7]]), np.array(ys)[:, None]
    _, best = consensus_points(BILINEAR, xs, ys, 1e4, 1e4)
    assert (best[0][0], best[1][0]) == (0.0, ys[0, 0])
    _assert_value_is_e_at_the_pair(BILINEAR, best)


def test_best_value_is_the_objective_at_the_best_pair_in_a_batch_and_on_two_workers():
    xs = np.array([[0.5], [0.0], [-0.7]])
    _, best = consensus_points(BILINEAR, np.stack([xs, xs]), np.array([[[-1.0], [2.0]], [[2.0], [-1.0]]]), 1e4, 1e4)
    _assert_value_is_e_at_the_pair(BILINEAR, best)
    # N = 300 splits into blocks on two workers; every row but that of x = 0 has a positive max
    rng = np.random.default_rng(9)
    xs, ys = rng.uniform(-4, 4, (300, 1)), rng.uniform(-4, 4, (300, 1))
    xs[211, 0] = 0.0
    for first in (-1.0, 2.0):
        ys[0, 0] = first
        _, best = _consensus_with(2, BILINEAR, xs, ys, 1e4)
        assert (best[0][0], best[1][0]) == (0.0, first)
        _assert_value_is_e_at_the_pair(BILINEAR, best)


def _kept_arrays_objective(kind):
    """forsaken returning its values as ``kind`` says, the arrays it keeps in this process, and its calls.

    "view" returns a view of an array it keeps, "read_only" that array made
    read-only, "fortran" an F-ordered copy of it, and "transposed" the
    transposed view of a C-ordered array of the transposed values.  Each
    kept array is listed with a copy.  Calls made in a forked helper keep
    their arrays there; ``_calls_by_process`` counts them.
    """
    kept = []

    def fn(x, y):
        full = FORSAKEN.fn(x, y)
        if kind == "transposed":
            full = np.ascontiguousarray(full.T)
        kept.append((full, full.copy()))
        if kind == "read_only":
            full.flags.writeable = False
            return full
        if kind == "fortran":
            return np.array(full, order="F")
        return full.T if kind == "transposed" else full[...]

    fn, calls = _calls_by_process(fn)
    return ObjectiveFunction("kept", 1, 1, FORSAKEN.domain_x, FORSAKEN.domain_y, fn), kept, calls


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [20, 300, 1000])
# the ids of the first two cases say whether the kept array itself is returned read-only
@pytest.mark.parametrize("kind", ["view", "read_only", "fortran", "transposed"],
                         ids=["False", "True", "fortran", "transposed"])
def test_arrays_the_objective_keeps_stay_intact(workers, n, kind):
    # the results are bitwise those of the C-ordered objective whatever layout
    # its values come in, and no array the objective keeps is written over:
    # checked on this process's share of the blocks, which runs the same code
    # as the helper's share
    rng = np.random.default_rng(n)
    # blocks here and in the helper: a split call takes 104 rows per block at N = 300 and 32 at 1000, and
    # on two workers the helper takes the odd blocks
    blocks = {20: (1, 0), 300: (3, 0), 1000: (32, 0)} if workers == 1 else {20: (1, 0), 300: (2, 1), 1000: (16, 16)}
    for lead, weight in itertools.product(((), (2,)), (30.0, 1e4)):  # 1e4 masks most blocks' exp
        xs, ys = rng.uniform(-1.5, 1.5, (*lead, n, 1)), rng.uniform(-1.5, 1.5, (*lead, n, 1))
        obj, kept, calls = _kept_arrays_objective(kind)
        cp, best = _consensus_with(workers, obj, xs, ys, weight)
        want_cp, want_best = consensus_points(FORSAKEN, xs, ys, weight, weight)
        got = (cp.x_cons, cp.y_cons_per_particle, *map(np.asarray, best))
        want = (want_cp.x_cons, want_cp.y_cons_per_particle, *map(np.asarray, want_best))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        here, helper = blocks[n]
        assert calls.tolist() == [here + 1, helper]  # the pair blocks, then here the outer values
        assert len(kept) == here + 1
        assert all(array.tobytes() == copy.tobytes() for array, copy in kept)


def test_non_finite_pair_value_in_a_later_block_reports_its_global_index():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))

    def bad(x, y):
        return np.where((x[..., 0] == 0.25) & (y[..., 0] == -0.5), np.nan, x[..., 0] * y[..., 0])

    obj = ObjectiveFunction("bad", 1, 1, box, box, bad)
    rng = np.random.default_rng(4)
    xs, ys = rng.uniform(-1, 1, (1000, 1)), rng.uniform(-1, 1, (1000, 1))
    xs[700, 0], ys[3, 0] = 0.25, -0.5
    message = "non-finite objective value in consensus pair matrix at particle index (700, 3)"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        consensus_points(obj, xs, ys, 1e4, 1e4)


def _marked_objective(bad: float, where: str, trials) -> ObjectiveFunction:
    """E = x * y, but ``bad`` at the pair of x = 7 and y = 3 (``where="pair"``) or at x = 7 in the outer call."""
    box = BoxDomain(np.array([-8.0]), np.array([8.0]))
    pair_ndim = 3 if trials is None else 4  # pair_matrix adds an axis to each ensemble; the outer call does not

    def fn(x, y):
        values = x[..., 0] * y[..., 0]
        if where == "pair" and x.ndim == pair_ndim:
            return np.where((x[..., 0] == 7.0) & (y[..., 0] == 3.0), bad, values)
        if where == "outer" and x.ndim < pair_ndim:
            return np.where(x[..., 0] == 7.0, bad, values)
        return values

    return ObjectiveFunction(f"marked_{where}", 1, 1, box, box, fn)


_BAD = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=60, deadline=None)
@given(bad=_BAD, trials=st.sampled_from([None, 2]), n=st.sampled_from([1, 5, 20, 300]), data=st.data())
def test_a_non_finite_pair_value_anywhere_raises_with_its_full_index(bad, trials, n, data):
    # at N = 300 the rows split into blocks of 104, so a later block adds its row offset
    t, i, j = data.draw(st.integers(0, (trials or 1) - 1)), data.draw(st.integers(0, n - 1)), data.draw(
        st.integers(0, n - 1))
    rng = np.random.default_rng(n)
    lead, at = ((), ()) if trials is None else ((trials,), (t,))
    xs, ys = rng.uniform(-1, 1, (*lead, n, 1)), rng.uniform(-1, 1, (*lead, n, 1))
    xs[(*at, i, 0)], ys[(*at, j, 0)] = 7.0, 3.0
    index = (i, j) if trials is None else (t, i, j)
    message = f"non-finite objective value in consensus pair matrix at particle index {index}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        consensus_points(_marked_objective(bad, "pair", trials), xs, ys, 1e4, 1e4)


@settings(max_examples=40, deadline=None)
@given(bad=_BAD, trials=st.sampled_from([None, 2]), n=st.sampled_from([1, 5, 20]), data=st.data())
def test_a_non_finite_outer_value_anywhere_raises_with_its_full_index(bad, trials, n, data):
    t, i = data.draw(st.integers(0, (trials or 1) - 1)), data.draw(st.integers(0, n - 1))
    rng = np.random.default_rng(n)
    lead, at = ((), ()) if trials is None else ((trials,), (t,))
    xs, ys = rng.uniform(-1, 1, (*lead, n, 1)), rng.uniform(-1, 1, (*lead, n, 1))
    xs[(*at, i, 0)] = 7.0
    index = (i,) if trials is None else (t, i)
    message = f"non-finite objective value in x-consensus outer weights at particle index {index}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        consensus_points(_marked_objective(bad, "outer", trials), xs, ys, 1e4, 1e4)


@pytest.mark.parametrize("values", [[1e308, 1e308], [[1e308], [1e308]], [[-1e308, -1e308], [1e308, 1e308]],
                                    [[[1.5e308]], [[1.5e308]]]])
def test_finite_values_whose_sum_overflows_pass_the_finiteness_check_without_a_warning(values):
    values = np.array(values)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert consensus._first_non_finite(values) is None
        consensus._check_finite(values, "a test array")


@pytest.mark.parametrize("trials", [None, 3])
def test_a_call_whose_values_sum_past_the_largest_float_raises_no_floating_point_error(trials):
    # every pair value and outer value is 1e308: each block, row and outer sum overflows, no weight does
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    flat = ObjectiveFunction("flat", 1, 1, box, box, lambda x, y: np.full(np.broadcast_shapes(x.shape, y.shape)[:-1],
                                                                             1e308))
    lead = () if trials is None else (trials,)
    xs = np.random.default_rng(1).uniform(-1, 1, (*lead, 20, 1))
    with np.errstate(all="raise"):
        cp, (_, _, value) = consensus_points(flat, xs, xs[..., ::-1, :].copy(), 1e4, 1e4)
    assert np.all(value == 1e308)
    np.testing.assert_allclose(cp.x_cons, xs.mean(axis=-2), rtol=0, atol=1e-15)  # equal weights


def test_cached_offsets_are_read_only_and_hold_each_rows_flat_start():
    rng = np.random.default_rng(2)
    consensus_points(FORSAKEN, rng.uniform(-1, 1, (3, 20, 1)), rng.uniform(-1, 1, (3, 20, 1)), 1.0, 1.0)
    for shape, stride in (((), 20), ((3,), 20), ((3, 20), 20), ((2, 104), 300)):
        offsets = consensus._offsets(shape, stride)
        assert not offsets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            offsets[...] = 1
        assert offsets.tolist() == (np.arange(int(np.prod(shape))) * stride).reshape(shape).tolist()


@pytest.mark.parametrize("trials, n", [((), 20), ((3,), 20), ((10,), 10), ((2,), 300)])
def test_exp_weights_gets_one_row_per_weighted_point(monkeypatch, trials, n):
    # perfbench's tracer reads one effective sample size per row of each call and concatenates them.
    shapes, exp = [], consensus.exp_weights

    def recorded(values, scale, *, pivot):
        shapes.append(values.shape)
        return exp(values, scale, pivot=pivot)

    monkeypatch.setattr(consensus, "exp_weights", recorded)
    rng = np.random.default_rng(4)
    consensus_points(FORSAKEN, rng.uniform(-1, 1, (*trials, n, 1)), rng.uniform(-1, 1, (*trials, n, 1)), 1.0, 1.0)
    rows = _block_rows(n, n)
    trial_count = int(np.prod(trials))
    assert shapes[:-1] == [(trial_count * min(rows, n - a), n) for a in range(0, n, rows)]
    assert shapes[-1] == ((*trials, n) if trials else (n,))


def test_non_finite_messages_print_plain_integer_indices():
    # argwhere yields numpy integers, whose repr under numpy 2 is np.int64(1)
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    pair = ObjectiveFunction("pair", 1, 1, box, box, lambda x, y: np.where(x[..., 0] > 0.5, np.inf, y[..., 0]))
    xs, ys = np.array([[0.0], [0.9], [0.2]]), np.array([[0.1], [0.3]])
    with pytest.raises(NumericalError) as info:
        consensus_points(pair, xs, ys, 1.0, 1.0)
    assert str(info.value) == "non-finite objective value in consensus pair matrix at particle index (1, 0)"
    # the outer values, one per x-particle, have a one-element index; with
    # beta = 0 every y-consensus is 0.25, where E is NaN, but no y-particle is
    outer = ObjectiveFunction("outer", 1, 1, box, box, lambda x, y: np.where(y[..., 0] == 0.25, np.nan, x[..., 0]))
    xs, ys = np.array([[0.0], [0.9]]), np.array([[0.0], [0.5]])
    with pytest.raises(NumericalError) as info:
        consensus_points(outer, xs, ys, 1.0, 0.0)
    assert str(info.value) == "non-finite objective value in x-consensus outer weights at particle index (0,)"


def _saddle2(x, y):
    return x[..., 0] * (y[..., 0] - 2.0 * y[..., 1]) - (y[..., 0] - 1.5) ** 2 - 0.5 * (y[..., 1] - 1.0) ** 2


_SADDLE2 = ObjectiveFunction("saddle2", 1, 2, BoxDomain(np.array([-2.0]), np.array([2.0])),
                             BoxDomain(np.array([0.5, 0.5]), np.array([3.0, 3.0])), _saddle2)


def test_two_dimensional_y_agrees_with_whole_matrix_reference():
    # gemm sums the blocked and the whole product in different orders, so
    # the bits may differ; y lies in a positive box, so every entry of yhat
    # is well away from zero and a relative bound is meaningful
    obj = _SADDLE2
    rng = np.random.default_rng(6)
    for n in (513, 1000, 1031):
        xs = rng.uniform(-2.0, 2.0, (n, 1))
        ys = rng.uniform(0.5, 3.0, (n, 2))
        cp, (bx, by, value) = consensus_points(obj, xs, ys, 30.0, 30.0)
        x_cons, yhat, (rx, ry, rvalue) = _reference_consensus(obj, xs, ys, 30.0, 30.0)
        np.testing.assert_allclose(cp.y_cons_per_particle, yhat, rtol=1e-14, atol=0)
        np.testing.assert_allclose(cp.x_cons, x_cons, rtol=1e-14, atol=0)
        assert (bx.tobytes(), by.tobytes(), value) == (rx.tobytes(), ry.tobytes(), rvalue)


# --- row blocks on two workers ------------------------------------------------


def _calls_by_process(fn):
    """``fn`` counting its calls in shared memory, and the counts: [in this process, in other processes].

    A forked helper writes its count into the same memory, so the caller
    reads both once the call returns.
    """
    counts = np.frombuffer(mmap.mmap(-1, 16), np.int64)
    here = os.getpid()

    def counted(x, y):
        counts[int(os.getpid() != here)] += 1
        return fn(x, y)

    return counted, counts


@contextlib.contextmanager
def _second_worker_for(obj, xs, ys, cpus=2):
    """The helper ``trajectory`` opens for ensembles of these shapes, on a process that may use ``cpus`` CPUs."""
    saved = consensus._usable_cpus
    consensus._usable_cpus = lambda: cpus
    try:
        with consensus._second_worker(obj, np.shape(xs), np.shape(ys)) as helper:
            consensus._usable_cpus = saved
            yield helper
    finally:
        consensus._usable_cpus = saved


def _consensus_with(workers, obj, xs, ys, weight):
    """consensus_points on one worker, or on two with the second opened as ``trajectory`` opens it."""
    if workers == 1:
        return consensus_points(obj, xs, ys, weight, weight)
    with _second_worker_for(obj, xs, ys) as helper:
        assert (helper is not None) == (np.shape(xs)[-2] * np.shape(ys)[-2] > _BLOCK_ENTRIES)  # square here
        return consensus_points(obj, xs, ys, weight, weight, _helper=helper)


def _no_child_left() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _consensus_on(workers, obj, xs, ys, weight):
    """consensus_points with the given worker count: its results and the processes that evaluated pairs."""
    fn, calls = _calls_by_process(obj.fn)
    counted = ObjectiveFunction(obj.name, obj.dim_x, obj.dim_y, obj.domain_x, obj.domain_y, fn)
    cp, (bx, by, value) = _consensus_with(workers, counted, xs, ys, weight)
    return (cp.x_cons, cp.y_cons_per_particle, bx, by, np.float64(value)), np.count_nonzero(calls)


def _worker_mismatches():
    """Every case where two workers differ in a bit from one worker, or a 1-d y from the whole-matrix reference."""
    mismatches = []
    for obj in [*(make_benchmark(name) for name in ("bilinear", "forsaken", "remark_function")), _SADDLE2]:
        for n in (300, 1000):
            for lead in ((), (2,)):
                rng = np.random.default_rng([n, len(lead)])
                xs = rng.uniform(obj.domain_x.lower, obj.domain_x.upper, (*lead, n, obj.dim_x))
                ys = rng.uniform(obj.domain_y.lower, obj.domain_y.upper, (*lead, n, obj.dim_y))
                for weight in (1e4, 30.0):
                    one, one_processes = _consensus_on(1, obj, xs, ys, weight)
                    two, two_processes = _consensus_on(2, obj, xs, ys, weight)
                    wants = [one]
                    if obj.dim_y == 1:  # gemm may sum a 2-d y's blocks and whole product differently
                        wants.append(_reference_results(obj, xs, ys, weight))
                    if (one_processes, two_processes) != (1, 2) or any(
                        g.tobytes() != w.tobytes() for want in wants for g, w in zip(two, want)
                    ):
                        mismatches.append((obj.name, n, lead, weight))
    return mismatches


def test_two_workers_bitwise_equal_one_worker_and_whole_matrix_reference():
    code = f"import runpy; print(runpy.run_path({__file__!r})['_worker_mismatches']())"
    env = {**os.environ, **_ONE_BLAS_THREAD, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_one_usable_cpu_keeps_one_worker_and_the_full_blocks(monkeypatch):
    rng = np.random.default_rng(8)
    xs, ys = rng.uniform(-4, 4, (1000, 1)), rng.uniform(-4, 4, (1000, 1))
    fn, calls = _calls_by_process(BILINEAR.fn)
    counted = ObjectiveFunction("counted", 1, 1, BILINEAR.domain_x, BILINEAR.domain_y, fn)
    with _second_worker_for(counted, xs, ys, cpus=1) as helper:
        assert helper is None
        consensus_points(counted, xs, ys, 1e4, 1e4, _helper=helper)
    assert calls.tolist() == [33, 0]  # 32 row blocks of 32 rows, then the outer values
    # a call that is given no helper steps on one worker whatever the CPU count
    monkeypatch.setattr(consensus, "_usable_cpus", lambda: 2)
    calls[:] = 0
    consensus_points(counted, xs, ys, 1e4, 1e4)
    assert calls.tolist() == [33, 0]
    assert _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_an_n1000_call_steps_the_same_32_row_blocks_on_one_worker_or_two(workers):
    rng = np.random.default_rng(8)
    xs, ys = rng.uniform(-4, 4, (1000, 1)), rng.uniform(-4, 4, (1000, 1))
    fn, calls = _calls_by_process(BILINEAR.fn)
    counted = ObjectiveFunction("counted", 1, 1, BILINEAR.domain_x, BILINEAR.domain_y, fn)
    with _second_worker_for(counted, xs, ys, cpus=workers) as helper:
        consensus_points(counted, xs, ys, 1e4, 1e4, _helper=helper)
    # 32 pair blocks of 32 rows (the last of 8) and the outer values: all here, or the odd blocks in the helper
    assert calls.tolist() == ([32 + 1, 0] if workers == 1 else [16 + 1, 16])


def test_a_helper_is_used_only_for_its_objective_and_shapes():
    rng = np.random.default_rng(8)
    xs, ys = rng.uniform(-4, 4, (1000, 1)), rng.uniform(-4, 4, (1000, 1))
    fn, calls = _calls_by_process(BILINEAR.fn)
    counted = ObjectiveFunction("counted", 1, 1, BILINEAR.domain_x, BILINEAR.domain_y, fn)
    with _second_worker_for(counted, xs, ys) as helper:
        for obj, x, y in ((BILINEAR, xs, ys), (counted, xs[:999], ys), (counted, xs, ys[:999])):
            want, _ = consensus_points(obj, x, y, 1e4, 1e4)
            got, _ = consensus_points(obj, x, y, 1e4, 1e4, _helper=helper)
            assert got.y_cons_per_particle.tobytes() == want.y_cons_per_particle.tobytes()
        assert calls[1] == 0
        consensus_points(counted, xs, ys, 1e4, 1e4, _helper=helper)
        assert calls[1] == 16


def _planted(bad_rows):
    """An objective that is NaN on the x-particles at bad_rows of a fixed N=1000 ensemble, and the ensemble."""
    rng = np.random.default_rng(5)
    xs, ys = rng.uniform(-1, 1, (1000, 1)), rng.uniform(-1, 1, (1000, 1))
    marks = [2.0 + k for k in range(len(bad_rows))]
    xs[bad_rows, 0] = marks
    box = BoxDomain(np.array([-1.0]), np.array([1.0 + len(bad_rows)]))
    obj = ObjectiveFunction("planted", 1, 1, box, box,
                            lambda x, y: np.where(x[..., 0] >= 2.0, np.nan, x[..., 0] * y[..., 0]))
    return obj, xs, ys


@pytest.mark.parametrize("bad_rows", [[100, 200], [70, 170]])
def test_failures_on_both_workers_report_the_lowest_block(bad_rows):
    # 32-row blocks: rows 100 and 200 lie in blocks 3 (helper) and 6 (caller), rows 70 and 170 in 2 (caller) and 5
    obj, xs, ys = _planted(bad_rows)
    low = min(bad_rows)
    with pytest.raises(NumericalError, match=re.escape(f"at particle index ({low}, 0)")):
        _consensus_with(2, obj, xs, ys, 1e4)


def _fails_in_other_processes(make_exception):
    """bilinear, raising ``make_exception()`` in any process but this one."""
    here = os.getpid()

    def fails_off_here(x, y):
        if os.getpid() != here:
            raise make_exception()
        return x[..., 0] * y[..., 0]

    return ObjectiveFunction("off_here", 1, 1, BILINEAR.domain_x, BILINEAR.domain_y, fails_off_here)


def test_an_objective_that_fails_only_on_the_helper_returns_one_workers_results_bitwise():
    # the helper's first block fails, so this process evaluates every odd block again itself
    obj = _fails_in_other_processes(lambda: ValueError("raised on the helper"))
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(-4, 4, (1000, 1)), rng.uniform(-4, 4, (1000, 1))
    one, _ = _consensus_on(1, obj, xs, ys, 1e4)
    two, processes = _consensus_on(2, obj, xs, ys, 1e4)
    assert processes == 2 and _no_child_left()
    assert [g.tobytes() for g in two] == [w.tobytes() for w in one]


def _in_block(fn, block=1):
    """An objective of ``fn`` and N = 1000 ensembles whose x is 3 only in the pair rows of 32-row block ``block``.

    The helper of two workers evaluates the odd blocks: rows 32-63 are block 1, rows 96-127 block 3.
    """
    xs = np.linspace(-1.0, 1.0, 1000)[:, None]
    xs[32 * block : 32 * (block + 1), 0] = 3.0
    box = BoxDomain(np.array([-1.0]), np.array([3.0]))
    return ObjectiveFunction(fn.__name__, 1, 1, box, box, fn), xs, np.linspace(-1.0, 1.0, 1000)[:, None]


def test_a_helper_that_first_fails_at_block_3_has_this_process_evaluate_blocks_3_5_and_on_bitwise():
    # the helper evaluates block 1, fails at block 3 (rows 96-127) and names that block, so this process
    # evaluates blocks 3, 5, ..., 31 again, and not block 1, and the results are one worker's bits
    here = os.getpid()

    def fails_at_3_off_here(x, y):
        if os.getpid() != here and np.any(x == 3.0):
            raise ValueError("x = 3 on the helper")
        return x[..., 0] * y[..., 0]

    fn, calls = _calls_by_process(fails_at_3_off_here)
    obj, xs, ys = _in_block(fn, 3)
    results = []
    for workers in (1, 2):
        calls[:] = 0
        cp, best = _consensus_with(workers, obj, xs, ys, 1e4)
        results.append([np.asarray(v).tobytes() for v in (cp.x_cons, cp.y_cons_per_particle, *best)])
    # here: 16 even blocks, the 15 odd blocks from 3 to 31 and the outer values; in the helper: blocks 1 and 3
    assert calls.tolist() == [16 + 15 + 1, 2]
    assert results[1] == results[0] and _no_child_left()


@pytest.mark.parametrize("n_x, n_y, rows", [(256, 256, 256), (257, 257, 120), (1000, 1000, 32), (16, 4096, 16),
                                            (17, 4096, 8), (8, 10**5, 8), (3, 8193, 3), (9, 8193, 8)])
def test_block_rows_are_all_rows_for_one_block_else_a_split_on_the_8_row_grid(n_x, n_y, rows):
    assert _block_rows(n_x, n_y) == rows


@settings(max_examples=500, deadline=None, derandomize=True)
@given(n_x=st.integers(1, 5000), n_y=st.integers(1, 10**6))
def test_a_split_call_gets_fewer_rows_than_n_x_a_multiple_of_8(n_x, n_y):
    rows = _block_rows(n_x, n_y)
    assert rows == n_x or (8 <= rows < n_x and rows % 8 == 0)
    assert (rows == n_x) == (n_x <= 8 or -(-n_x // 8) * 8 * n_y <= _BLOCK_ENTRIES)


def test_an_exception_that_cannot_be_pickled_arrives_from_an_odd_block_as_itself():
    class LocalError(Exception):  # a local class cannot be pickled by reference
        pass

    def fails_at_3(x, y):
        if np.any(x == 3.0):
            raise LocalError(f"x = 3 in pair rows of shape {x.shape}")
        return x[..., 0] * y[..., 0]

    obj, xs, ys = _in_block(fails_at_3)
    messages = []
    for workers in (1, 2):
        with pytest.raises(LocalError) as info:
            _consensus_with(workers, obj, xs, ys, 1e4)
        messages.append(str(info.value))
    assert messages == ["x = 3 in pair rows of shape (32, 1, 1)"] * 2
    assert _no_child_left()


def test_a_helper_that_dies_during_a_call_raises_child_process_error_at_once():
    here = os.getpid()

    def exits_off_here(x, y):
        if os.getpid() != here:
            os._exit(1)
        return x[..., 0] * y[..., 0]

    obj = ObjectiveFunction("exits", 1, 1, BILINEAR.domain_x, BILINEAR.domain_y, exits_off_here)
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(-4, 4, (1000, 1)), rng.uniform(-4, 4, (1000, 1))
    with _second_worker_for(obj, xs, ys) as helper:
        start = time.monotonic()
        with pytest.raises(ChildProcessError, match="exited during a call"):
            consensus_points(obj, xs, ys, 1e4, 1e4, _helper=helper)
        assert time.monotonic() - start < 30
        assert _no_child_left()  # reaped by the failed call
        want, _ = consensus_points(BILINEAR, xs, ys, 1e4, 1e4)
        got, _ = consensus_points(obj, xs, ys, 1e4, 1e4, _helper=helper)  # the closed helper is not used again
        assert got.y_cons_per_particle.tobytes() == want.y_cons_per_particle.tobytes()


def test_a_failed_fork_leaves_the_run_on_one_worker_bitwise(monkeypatch):
    config = SolverConfig(n_particles=300, horizon=0.3, seed=4)
    monkeypatch.setattr(consensus, "_usable_cpus", lambda: 1)
    one = run(config, FORSAKEN)
    monkeypatch.setattr(consensus, "_usable_cpus", lambda: 2)
    two = run(config, FORSAKEN)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    refused = run(config, FORSAKEN)
    for record in (two, refused):
        assert record.final_ensemble.xs.tobytes() == one.final_ensemble.xs.tobytes()
        assert record.final_ensemble.ys.tobytes() == one.final_ensemble.ys.tobytes()
        assert record.best_value_trace.tobytes() == one.best_value_trace.tobytes()


def test_a_two_worker_call_leaves_no_process_behind():
    rng = np.random.default_rng(4)
    xs, ys = rng.uniform(-4, 4, (1000, 1)), rng.uniform(-4, 4, (1000, 1))
    _, processes = _consensus_on(2, BILINEAR, xs, ys, 1e4)
    assert processes == 2 and _no_child_left()


def test_the_helper_ignores_sigint():
    rng = np.random.default_rng(4)
    xs, ys = rng.uniform(-4, 4, (1000, 1)), rng.uniform(-4, 4, (1000, 1))
    want, _ = consensus_points(BILINEAR, xs, ys, 1e4, 1e4)
    with _second_worker_for(BILINEAR, xs, ys) as helper:
        consensus_points(BILINEAR, xs, ys, 1e4, 1e4, _helper=helper)
        os.kill(helper.pid, signal.SIGINT)
        got, _ = consensus_points(BILINEAR, xs, ys, 1e4, 1e4, _helper=helper)
    assert got.y_cons_per_particle.tobytes() == want.y_cons_per_particle.tobytes()


@pytest.mark.parametrize("stop", ["exhausted", "numerical_error", "closed"])
def test_a_run_reaps_its_helper_however_it_ends(monkeypatch, stop):
    monkeypatch.setattr(consensus, "_usable_cpus", lambda: 2)
    sigma = 1e300 if stop == "numerical_error" else 1.0  # the first update overflows the state
    config = SolverConfig(n_particles=300, horizon=0.5, sigma_x=sigma, sigma_y=sigma, project=False, seed=1)
    states = trajectory(config, FORSAKEN)
    with np.errstate(all="ignore"):
        next(states)
        assert len(second_worker._open_helpers) == 1
        if stop == "closed":
            next(states)
            states.close()
        elif stop == "numerical_error":
            with pytest.raises(NumericalError, match="non-finite"):
                next(states)
        else:
            assert len(list(states)) == config.n_steps
    assert not second_worker._open_helpers and _no_child_left()


def test_interleaved_runs_each_step_on_their_own_helper_bitwise(monkeypatch):
    # three runs advanced in turn keep three helpers open beside this process, more workers than cores
    monkeypatch.setattr(consensus, "_usable_cpus", lambda: 2)
    configs = [SolverConfig(n_particles=n, horizon=0.4, seed=seed) for n, seed in ((300, 1), (300, 2), (520, 3))]
    objs = [FORSAKEN, BILINEAR, FORSAKEN]
    runs = [trajectory(config, obj) for config, obj in zip(configs, objs)]
    together = [[] for _ in runs]
    for states in zip(*runs):
        assert len(second_worker._open_helpers) == len(runs)
        for kept, (ensemble, cp, best) in zip(together, states):
            kept.append((ensemble.xs.tobytes(), cp.y_cons_per_particle.tobytes(), np.float64(best[2]).tobytes()))
    assert [next(states, None) for states in runs[1:]] == [None, None]  # zip stopped at the first run's end
    assert not second_worker._open_helpers and _no_child_left()
    monkeypatch.setattr(consensus, "_usable_cpus", lambda: 1)
    for config, obj, kept in zip(configs, objs, together):
        alone = [(e.xs.tobytes(), cp.y_cons_per_particle.tobytes(), np.float64(best[2]).tobytes())
                 for e, cp, best in trajectory(config, obj)]
        assert kept == alone


def _overflows_in_block_1():
    """exp overflows, to a finite result, only in the pair rows 32-63: block 1, on the helper of two workers."""

    def overflow(x, y):
        scale = 400.0 if x.ndim == 3 else 1.0  # the pair calls broadcast x to (rows, 1, 1); the outer call does not
        return np.minimum(np.exp(scale * x[..., 0]), 2.0) * y[..., 0]

    return _in_block(overflow)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_helper_keeps_the_callers_numpy_error_state(workers):
    # the helper is opened before every errstate, as a run opens it, so
    # each call must carry the caller's state to it; a warning comes from
    # the caller's own evaluation of the block, through its filters
    obj, xs, ys = _overflows_in_block_1()
    with _second_worker_for(obj, xs, ys, cpus=workers) as helper:
        assert (helper is not None) == (workers == 2)
        for errstate, want in (({"all": "ignore"}, []), ({"over": "warn"}, ["overflow encountered in exp"])):
            with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
                warnings.simplefilter("always")
                consensus_points(obj, xs, ys, 1e4, 1e4, _helper=helper)
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == want
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
            consensus_points(obj, xs, ys, 1e4, 1e4, _helper=helper)
    assert str(info.value) == "overflow encountered in exp"


@pytest.mark.parametrize("workers", [1, 2])
def test_a_python_warning_of_a_helper_block_reaches_the_callers_filters(workers):
    def warns_at_3(x, y):
        if x.ndim == 3 and np.any(x == 3.0):  # the pair calls broadcast x to (rows, 1, 1); the outer call does not
            warnings.warn("x = 3 in a pair block")
        return x[..., 0] * y[..., 0]

    obj, xs, ys = _in_block(warns_at_3)
    with _second_worker_for(obj, xs, ys, cpus=workers) as helper, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        consensus_points(obj, xs, ys, 1e4, 1e4, _helper=helper)
    assert [str(w.message) for w in caught] == ["x = 3 in a pair block"]


_FORK_SCRIPT = """
import multiprocessing
import numpy as np
from minmaxcbo import SolverConfig, make_benchmark
from minmaxcbo.consensus import _second_worker, _usable_cpus, consensus_points
from minmaxcbo.harness import SweepSpec, run_sweep

obj = make_benchmark("forsaken")
rng = np.random.default_rng(1)
xs, ys = rng.uniform(-1.5, 1.5, (1000, 1)), rng.uniform(-1.5, 1.5, (1000, 1))

def call(helper):
    cp, best = consensus_points(obj, xs, ys, 1e4, 1e4, _helper=helper)
    return cp.y_cons_per_particle.tobytes() + np.asarray(best[:2]).tobytes()

def in_child(pipe, inherited):
    pipe.send(call(inherited))  # the parent's helper is closed in this process: one worker
    with _second_worker(obj, xs.shape, ys.shape) as own:
        pipe.send(call(own))
    pipe.recv()  # stay alive, holding this process's copies of the parent's descriptors

parent_end, child_end = multiprocessing.Pipe()
with _second_worker(obj, xs.shape, ys.shape) as helper:
    first = call(helper)
    child = multiprocessing.get_context("fork").Process(target=in_child, args=(child_end, helper))
    child.start()
    for _ in range(2):
        if not parent_end.poll(60):
            child.kill()
            raise SystemExit("the forked child hung")
        assert parent_end.recv() == first
# the helper was reaped while the child was still alive
parent_end.send(None)
child.join(60)
assert child.exitcode == 0, child.exitcode
base = SolverConfig(n_particles=300, horizon=0.3, init="border", seed=2)
rows = {jobs: run_sweep(SweepSpec("sigma", [1.0, 2.0], obj, base, trials=3, jobs=jobs)) for jobs in (2, 1)}
assert [s.errors for s in rows[2]] == [s.errors for s in rows[1]], rows
print("ok", min(2, _usable_cpus()))
"""


def test_fork_after_a_two_worker_call_neither_hangs_nor_changes_results():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.Popen([sys.executable, "-c", _FORK_SCRIPT], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=180)
    except subprocess.TimeoutExpired:  # a hang: end the script's helpers and children with it
        os.killpg(child.pid, signal.SIGKILL)
        out, err = child.communicate()
    assert child.returncode == 0, err
    assert out.split()[0] == "ok"
