import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxcbo import (
    InitSpec,
    InputError,
    NumericalError,
    SolverConfig,
    benchmark_reference,
    laplace_gap,
    make_benchmark,
    run,
    y_consensus,
)
from minmaxcbo import consensus
from minmaxcbo.consensus import _EXP_ZERO_CUT, _SKIP_MIN_ENTRIES, consensus_points, exp_weights
from minmaxcbo.objectives import BoxDomain, ObjectiveFunction

BILINEAR = make_benchmark("bilinear")


def test_single_particle_is_its_own_consensus():
    y = np.array([[0.7]])
    assert np.array_equal(y_consensus(BILINEAR, y, np.array([1.0]), beta=123.0), y[0])
    cp, _ = consensus_points(BILINEAR, np.array([[0.3]]), y, alpha=5.0, beta=5.0)
    assert np.array_equal(cp.x_cons, np.array([0.3]))


def test_beta_zero_gives_arithmetic_mean():
    ys = np.array([[-1.0], [0.0], [4.0]])
    out = y_consensus(BILINEAR, ys, np.array([2.0]), beta=0.0)
    assert out[0] == pytest.approx(1.0, abs=1e-14)


def test_alpha_zero_gives_mean_of_x():
    xs = np.array([[-3.0], [1.0], [5.0]])
    ys = np.array([[-1.0], [2.0]])
    cp, _ = consensus_points(BILINEAR, xs, ys, alpha=0.0, beta=777.0)
    assert cp.x_cons[0] == pytest.approx(1.0, abs=1e-14)


def test_large_beta_selects_ensemble_argmax():
    # E(1, y) = y over the ensemble; the beta -> inf limit is the hard argmax
    ys = np.array([[-1.0], [0.0], [2.0]])
    out = y_consensus(BILINEAR, ys, np.array([1.0]), beta=1e6)
    brute = ys[np.argmax(ys[:, 0])]
    assert abs(out[0] - brute[0]) < 1e-6


def test_large_alpha_beta_select_min_max_particle():
    xs = np.array([[-1.0], [0.01], [1.0]])
    ys = np.array([[-1.0], [1.0]])
    out = consensus_points(BILINEAR, xs, ys, alpha=1e6, beta=1e6)[0].x_cons
    # brute force: inner argmax per row, then argmin of E(x_i, yhat_i)
    matrix = BILINEAR.fresh().pair_matrix(xs, ys)
    inner = matrix[np.arange(3), np.argmax(matrix, axis=1)]
    assert np.array_equal(out, xs[np.argmin(inner)])
    assert out[0] == pytest.approx(0.01, abs=1e-9)


def test_empty_ensemble_rejected():
    with pytest.raises(InputError):
        y_consensus(BILINEAR, np.empty((0, 1)), np.array([1.0]), beta=1.0)


def test_negative_weights_rejected():
    ys = np.array([[0.0]])
    with pytest.raises(InputError):
        y_consensus(BILINEAR, ys, np.array([1.0]), beta=-1.0)
    with pytest.raises(InputError):
        consensus_points(BILINEAR, ys, ys, alpha=-2.0, beta=1.0)


def test_non_finite_objective_reports_particle():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))

    def bad(x, y):
        out = x[..., 0] * y[..., 0]
        return np.where(y[..., 0] > 0.5, np.inf, out)

    obj = ObjectiveFunction("bad", 1, 1, box, box, bad)
    ys = np.array([[0.0], [0.9]])
    with pytest.raises(NumericalError, match="particle index"):
        y_consensus(obj, ys, np.array([1.0]), beta=1.0)


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
    cp, _ = consensus_points(BILINEAR.fresh(), xs, ys, alpha, beta)
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
    a = y_consensus(BILINEAR.fresh(), ys, np.array([1.3]), beta)
    b = y_consensus(BILINEAR.fresh(), ys[perm], np.array([1.3]), beta)
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
    rng = np.random.default_rng(5)
    scores = rng.uniform(-1e5, 1e5, (6, 9))
    w = exp_weights(scores, 1.0, axis=1)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w >= 0)


def test_laplace_gap_constant_values_is_zero():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    obj = ObjectiveFunction("const", 1, 1, box, box, lambda x, y: np.full(np.broadcast(x[..., 0], y[..., 0]).shape, 3.7))
    ens = np.linspace(-1, 1, 5)[:, None]
    assert laplace_gap(obj, ens, np.array([0.0]), param=10.0, mode="min") == pytest.approx(0.0, abs=1e-12)
    assert laplace_gap(obj, ens, np.array([0.0]), param=10.0, mode="max") == pytest.approx(0.0, abs=1e-12)


def test_laplace_gap_hand_computed_value():
    # ensemble values {0, 1} at param ln 2 in min mode: gap = log2(4/3)
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    obj = ObjectiveFunction("lin", 1, 1, box, box, lambda x, y: x[..., 0])
    ens = np.array([[0.0], [1.0]])
    gap = laplace_gap(obj, ens, np.array([0.0]), param=math.log(2.0), mode="min")
    assert gap == pytest.approx(math.log(4.0 / 3.0) / math.log(2.0), rel=1e-12)


def test_laplace_gap_decreases_with_param():
    rng = np.random.default_rng(13)
    for _ in range(25):
        ens = rng.uniform(-4, 4, (rng.integers(2, 30), 1))
        for mode in ("min", "max"):
            big = laplace_gap(BILINEAR.fresh(), ens, np.array([1.0]), param=1e3, mode=mode)
            small = laplace_gap(BILINEAR.fresh(), ens, np.array([1.0]), param=1.0, mode=mode)
            assert big <= small + 1e-12


def test_laplace_gap_param_zero_rejected():
    with pytest.raises(InputError):
        laplace_gap(BILINEAR, np.array([[1.0]]), np.array([0.0]), param=0.0, mode="min")


# --- exp_weights against the plain formula, bit for bit ---------------------


def _reference_weights(values, scale, axis=-1):
    values = np.asarray(values, dtype=float)
    pivot = values.max(axis=axis, keepdims=True) if scale >= 0 else values.min(axis=axis, keepdims=True)
    e = np.exp(scale * (values - pivot))
    return e / e.sum(axis=axis, keepdims=True)


def _gathers(values, scale, axis=-1):
    """Whether exp_weights exponentiates only the live entries of this input."""
    values = np.asarray(values, dtype=float)
    pivot = values.max(axis=axis, keepdims=True) if scale >= 0 else values.min(axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        dead = np.count_nonzero(scale * (values - pivot) < _EXP_ZERO_CUT)
    return values.size >= _SKIP_MIN_ENTRIES and 2 * dead > values.size


def _assert_matches_reference(values, scale, axis):
    before = values.copy()
    with warnings.catch_warnings(record=True) as expected_warnings:
        warnings.simplefilter("always")
        expected = _reference_weights(values, scale, axis)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = exp_weights(values, scale, axis)
    assert got.shape == expected.shape and got.strides == expected.strides
    assert got.tobytes() == expected.tobytes()
    assert values.tobytes() == before.tobytes()
    assert [(w.category, str(w.message)) for w in got_warnings] == [
        (w.category, str(w.message)) for w in expected_warnings
    ]


# Exponent bands: dead (exp is 0.0 and the entry is skipped), just above the
# cut (exp is still 0.0 but the entry is computed), subnormal results, normal.
_BANDS = {"dead": (-5000.0, _EXP_ZERO_CUT), "near_cut": (_EXP_ZERO_CUT, -745.0),
          "subnormal": (-745.0, -708.0), "normal": (-708.0, 0.0)}
_SMALL_SHAPES_AXES = [((37,), 0), ((1,), -1), ((6, 9), 0), ((6, 9), 1), ((30, 30), -1)]
_LARGE_SHAPES_AXES = [((1500,), 0), ((1100,), -1), ((40, 30), 0), ((30, 40), 1), ((36, 36), -1),
                      ((2, 600), 1), ((600, 2), 0)]
_SHAPES_AXES = _SMALL_SHAPES_AXES + _LARGE_SHAPES_AXES
_LAYOUTS = ("C", "F", "reversed")


def _exponent_input(seed, shape, axis, scale, live_bands, dead_share, layout):
    """Values whose scaled exponents fall in the given bands, with a zero exponent in every row."""
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    bands = ["dead"] * round(dead_share * n)
    bands += [live_bands[i % len(live_bands)] for i in range(n - len(bands))]
    z = np.array([rng.uniform(*_BANDS[b]) for b in bands])[rng.permutation(n)].reshape(shape)
    np.moveaxis(z, axis, 0)[0] = 0.0  # one pivot per row
    values = z / scale if scale != 0 else z
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "reversed":
        values = values[..., ::-1].copy()[..., ::-1]
    return values


@pytest.mark.parametrize("branch", ["gather", "dense"])
@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    scale=st.one_of(st.sampled_from([1.0, -1.0, 1e4, -1e4, 1e8]), st.floats(-1e6, 1e6).filter(lambda s: abs(s) > 1e-3)),
    live_bands=st.lists(st.sampled_from(["near_cut", "subnormal", "normal"]), min_size=1, max_size=3),
    share=st.floats(0.0, 1.0),
    layout=st.sampled_from(_LAYOUTS),
)
def test_exp_weights_bitwise_equals_reference(branch, data, seed, scale, live_bands, share, layout):
    if branch == "gather":
        shape, axis = data.draw(st.sampled_from(_LARGE_SHAPES_AXES))
        dead_share = 0.8 + 0.2 * share
    else:  # small inputs skip nothing whatever their dead share
        shape, axis = data.draw(st.sampled_from(_SHAPES_AXES))
        dead_share = share if (shape, axis) in _SMALL_SHAPES_AXES else 0.3 * share
    values = _exponent_input(seed, shape, axis, scale, live_bands, dead_share, layout)
    assert _gathers(values, scale, axis) == (branch == "gather")
    _assert_matches_reference(values, scale, axis)


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
    values = _exponent_input(seed, shape, axis, scale, ["near_cut", "subnormal"], dead_share, "C")
    _assert_matches_reference(values, scale, axis)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape_axis=st.sampled_from(_SHAPES_AXES), width=st.floats(0.0, 1e300))
def test_exp_weights_scale_zero_bitwise(seed, shape_axis, width):
    shape, axis = shape_axis
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, shape) * width
    _assert_matches_reference(values, 0.0, axis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scale", [1e4, -1e4, 0.0])
@pytest.mark.parametrize("dead_share", [0.0, 0.95])
def test_exp_weights_non_finite_inputs_bitwise_and_same_warnings(bad, scale, dead_share):
    for axis in (0, 1):
        values = _exponent_input(3, (40, 30), axis, scale or 1.0, ["normal"], dead_share, "C")
        values[2, 3] = bad
        values[7, 0] = bad
        assert _gathers(values, scale, axis) == (dead_share > 0.5 and scale != 0)
        _assert_matches_reference(values, scale, axis)
    _assert_matches_reference(np.array([0.5, bad, -2.0]), scale, -1)


def test_exp_underflows_to_exact_zero_below_the_cut():
    # exp_weights zero-fills instead of exponentiating below the cut; this
    # holds only while exp returns +0.0 there
    z = np.concatenate([np.linspace(-1000.0, _EXP_ZERO_CUT, 2_000_001), [-1e300, -np.inf]])
    z = np.concatenate([z, np.nextafter(_EXP_ZERO_CUT, -np.inf) - np.arange(1000) * 2**-40])
    zeros = np.zeros_like(z)
    assert np.exp(z).tobytes() == zeros.tobytes()
    assert np.exp(z[::-3]).tobytes() == zeros[::-3].tobytes()


def test_runs_bitwise_equal_with_reference_weights(monkeypatch):
    # the pair matrix drops below half dead entries after about 150 steps
    cfg = SolverConfig(n_particles=200, dt_y=0.01, horizon=2.0, seed=4, init=InitSpec("uniform_box"))
    ref = benchmark_reference("bilinear")
    branches = set()  # of the pair-matrix calls; the outer weights of 200 entries never skip

    def spy(values, scale, axis=-1):
        if values.ndim == 2:
            branches.add(_gathers(values, scale, axis))
        return exp_weights(values, scale, axis)

    monkeypatch.setattr(consensus, "exp_weights", spy)
    fast = run(cfg, BILINEAR, reference=ref)
    monkeypatch.setattr(consensus, "exp_weights", _reference_weights)
    slow = run(cfg, BILINEAR, reference=ref)
    assert branches == {True, False}
    assert len(fast) == cfg.n_steps + 1 == 201
    for name in ("times", "variance_x", "variance_y", "spread_x", "spread_y", "mean_x", "mean_y",
                 "best_pair_trace", "best_value_trace", "best_error_trace"):
        assert np.asarray(getattr(fast, name)).tobytes() == np.asarray(getattr(slow, name)).tobytes(), name
    assert fast.final_ensemble.xs.tobytes() == slow.final_ensemble.xs.tobytes()
    assert fast.final_ensemble.ys.tobytes() == slow.final_ensemble.ys.tobytes()
    assert fast.eval_count == slow.eval_count
