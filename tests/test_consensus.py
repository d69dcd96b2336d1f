import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxcbo import InputError, NumericalError, laplace_gap, make_benchmark, x_consensus, y_consensus
from minmaxcbo.consensus import consensus_points, exp_weights
from minmaxcbo.objectives import BoxDomain, ObjectiveFunction

BILINEAR = make_benchmark("bilinear")


def test_single_particle_is_its_own_consensus():
    y = np.array([[0.7]])
    assert np.array_equal(y_consensus(BILINEAR, y, np.array([1.0]), beta=123.0), y[0])
    out = x_consensus(BILINEAR, np.array([[0.3]]), y, alpha=5.0, beta=5.0)
    assert np.array_equal(out, np.array([0.3]))


def test_beta_zero_gives_arithmetic_mean():
    ys = np.array([[-1.0], [0.0], [4.0]])
    out = y_consensus(BILINEAR, ys, np.array([2.0]), beta=0.0)
    assert out[0] == pytest.approx(1.0, abs=1e-14)


def test_alpha_zero_gives_mean_of_x():
    xs = np.array([[-3.0], [1.0], [5.0]])
    ys = np.array([[-1.0], [2.0]])
    out = x_consensus(BILINEAR, xs, ys, alpha=0.0, beta=777.0)
    assert out[0] == pytest.approx(1.0, abs=1e-14)


def test_large_beta_selects_ensemble_argmax():
    # E(1, y) = y over the ensemble; the beta -> inf limit is the hard argmax
    ys = np.array([[-1.0], [0.0], [2.0]])
    out = y_consensus(BILINEAR, ys, np.array([1.0]), beta=1e6)
    brute = ys[np.argmax(ys[:, 0])]
    assert abs(out[0] - brute[0]) < 1e-6


def test_large_alpha_beta_select_min_max_particle():
    xs = np.array([[-1.0], [0.01], [1.0]])
    ys = np.array([[-1.0], [1.0]])
    out = x_consensus(BILINEAR, xs, ys, alpha=1e6, beta=1e6)
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
        x_consensus(BILINEAR, ys, ys, alpha=-2.0, beta=1.0)


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
