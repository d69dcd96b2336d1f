import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxcbo import (
    NumericalError,
    ReferencePoint,
    benchmark_reference,
    error_to_reference,
    fit_decay_rate,
    make_benchmark,
    run_benchmark,
    spread,
    variance,
)
from minmaxcbo.consensus import consensus_points
from minmaxcbo.dynamics import Ensemble

COUPLED = make_benchmark("bilinearly_coupled")


def _ens(xs, ys):
    return Ensemble(xs=np.asarray(xs, float), ys=np.asarray(ys, float), step_index=0)


def best_pair(ensemble, obj):
    """The kernel's best pair of one state, checked against the min-max pair of the whole pair matrix."""
    _, (bx, by, value) = consensus_points(obj, ensemble.xs, ensemble.ys, 1e4, 1e4)
    matrix = obj.pair_matrix(ensemble.xs, ensemble.ys)
    i = int(np.argmin(matrix.max(axis=1)))
    j = int(np.argmax(matrix[i]))
    assert (bx.tobytes(), by.tobytes(), value) == (ensemble.xs[i].tobytes(), ensemble.ys[j].tobytes(), matrix[i, j])
    return bx, by, value


def test_variance_zero_at_reference():
    ref = ReferencePoint(np.array([0.5]), np.array([[1.0], [-1.0]]))
    ens = _ens([[0.5]] * 4, [[1.0]] * 4)
    assert variance(ens, ref) == (0.0, 0.0)


def test_variance_simple_arithmetic():
    ref = ReferencePoint(np.array([0.0]), np.array([[0.0]]))
    ens = _ens([[-1.0], [1.0]], [[0.0], [0.0]])
    vx, vy = variance(ens, ref)
    assert vx == 1.0 and vy == 0.0


def test_variance_nearest_y_star():
    ref = ReferencePoint(np.array([0.0]), np.array([[2.0], [-2.0]]))
    ens = _ens([[0.0]], [[-1.9]])
    _, vy = variance(ens, ref)
    assert vy == pytest.approx(0.01, abs=1e-12)


def test_variance_y_free_reference_measures_x_only():
    ref = ReferencePoint(np.array([0.0]), np.array([[0.0]]), y_free=True)
    ens = _ens([[2.0]], [[123.0]])
    assert variance(ens, ref) == (4.0, 0.0)


def test_variance_translation_consistency():
    rng = np.random.default_rng(0)
    xs, ys = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    ref = ReferencePoint(np.array([0.3]), np.array([[-0.7]]))
    shift = 1.25
    v1 = variance(_ens(xs, ys), ref)
    v2 = variance(
        _ens(xs + shift, ys + shift),
        ReferencePoint(ref.x_star + shift, ref.y_star_set + shift),
    )
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_spread_is_max_pairwise_linf():
    ens = _ens([[0.0], [0.25], [-1.0]], [[2.0], [2.0], [2.0]])
    sx, sy = spread(ens)
    assert sx == 1.25 and sy == 0.0


def test_best_pair_single_particle():
    ens = _ens([[1.0]], [[2.0]])
    bx, by, value = best_pair(ens, make_benchmark("bilinear"))
    assert bx[0] == 1.0 and by[0] == 2.0 and value == 2.0


def test_best_pair_hand_table_with_tie_break():
    # E = x*y over xs {-1, 0, 1}, ys {-1, 1}: row maxima are {1, 0, 1},
    # so i* is x=0; its row ties at 0, lowest y-index wins: y=-1
    ens = _ens([[-1.0], [0.0], [1.0]], [[-1.0], [1.0]])
    bx, by, value = best_pair(ens, make_benchmark("bilinear"))
    assert bx[0] == 0.0 and by[0] == -1.0 and value == 0.0


def test_best_pair_with_planted_solution():
    rng = np.random.default_rng(42)
    xs = np.vstack([rng.uniform(-4, 4, (50, 1)), [[0.0]]])
    ys = np.vstack([rng.uniform(-4, 4, (50, 1)), [[2.24]]])
    planted_value = COUPLED.value(np.array([0.0]), np.array([2.24]))
    _, _, value = best_pair(_ens(xs, ys), COUPLED)
    assert abs(value - planted_value) < 0.5


def test_error_to_reference_exact_hit_and_nearest():
    ref = ReferencePoint(np.array([0.0]), np.array([[2.24], [-2.24]]))
    assert error_to_reference((np.array([0.0]), np.array([-2.24])), ref) == 0.0
    err = error_to_reference((np.array([0.1]), np.array([2.14])), ref)
    assert err == pytest.approx(0.02, rel=1e-12)


def test_error_to_reference_symmetric_in_y_star_order():
    pair = (np.array([0.3]), np.array([1.8]))
    a = ReferencePoint(np.array([0.0]), np.array([[2.24], [-2.24]]))
    b = ReferencePoint(np.array([0.0]), np.array([[-2.24], [2.24]]))
    assert error_to_reference(pair, a) == error_to_reference(pair, b)


def test_fit_decay_rate_exact_exponential():
    t = np.arange(0, 101) * 0.1
    assert fit_decay_rate(t, np.exp(-0.5 * t)) == pytest.approx(-0.5, abs=1e-9)


def test_fit_decay_rate_constant_is_zero():
    t = np.arange(0, 50) * 0.1
    assert fit_decay_rate(t, [3.0] * 50) == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_rate_ignores_noise_floor():
    # exact decay for 5 time units, then a plateau far above 1e-12 but
    # below the relative floor of 1e-3 * V(0)
    t = np.arange(0, 101) * 0.1
    v = np.exp(-2.0 * t)
    v[t > 5.0] = v[t <= 5.0][-1]
    slope = fit_decay_rate(t, v)
    assert slope == pytest.approx(-2.0, rel=1e-6)


def test_fit_decay_rate_undefined_cases():
    with pytest.raises(NumericalError):
        fit_decay_rate([0.0] * 20, [0.0] * 20)
    with pytest.raises(NumericalError):
        fit_decay_rate([0.0, 0.1], [1.0, 0.5])


def test_bilinear_run_variance_drops_tenfold():
    record, _ = run_benchmark("bilinear", {"n_particles": 25, "seed": 0})
    v = record.variance_total
    assert v[150] < v[0] / 10.0


def test_benchmark_reference_values():
    ref = benchmark_reference("bilinearly_coupled")
    assert ref.y_star_set[:, 0] == pytest.approx([np.sqrt(5), -np.sqrt(5)])
    assert benchmark_reference("bilinear").y_free
    assert benchmark_reference("bivariate").y_free
    assert not benchmark_reference("forsaken").y_free
    assert benchmark_reference("forsaken").y_star_set[0, 0] == pytest.approx(1.30656296, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 7, 8, 9, 20, 129, 160, 1000]),
    d1=st.sampled_from([1, 2, 3, 5, 9]),
    d2=st.sampled_from([1, 2, 3, 5, 9]),
    states=st.integers(1, 4),
    m=st.integers(1, 3),
    y_free=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_states_equal_each_state_bitwise(n, d1, d2, states, m, y_free, seed):
    # run fills many rows in one call; each row must be that state's own value
    rng = np.random.default_rng(seed)
    xs, ys = rng.normal(size=(states, n, d1)), rng.normal(size=(states, n, d2))
    ref = ReferencePoint(rng.normal(size=d1), rng.normal(size=(m, d2)), y_free=y_free)
    stacked = (*variance(_ens(xs, ys), ref), *spread(_ens(xs, ys)), xs.mean(axis=-2), ys.mean(axis=-2),
               error_to_reference((xs[:, 0], ys[:, -1]), ref))
    for s in range(states):
        one = (*variance(_ens(xs[s], ys[s]), ref), *spread(_ens(xs[s], ys[s])), xs[s].mean(axis=0),
               ys[s].mean(axis=0), error_to_reference((xs[s, 0], ys[s, -1]), ref))
        for got, want in zip(stacked, one):
            assert np.asarray(got[s]).tobytes() == np.asarray(want).tobytes()
