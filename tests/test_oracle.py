import itertools
import math

import numpy as np
import pytest

from minmaxcbo import GridSpec, InputError, envelope, make_benchmark, oracle, solve_minmax
from minmaxcbo.objectives import BoxDomain, ObjectiveFunction

GRID = GridSpec(points_per_dim=2049, refine_rounds=3)
BUILT_IN_IDS = ("bilinear", "bivariate", "bilinearly_coupled", "forsaken", "sixth_order", "remark_function")

# global maximum of -phi(y) on [-1.5, 1.5] for the forsaken inner problem,
# attained at y = +-sqrt(1 + sqrt(2)/2); frozen from the closed-form roots
FORSAKEN_ENVELOPE_AT_ZERO = 0.2011844635310913
FORSAKEN_Y_STAR = 1.3065629648763766


def test_envelope_bilinear_monotone_in_y():
    value, y = envelope(make_benchmark("bilinear"), np.array([1.0]), GRID)
    assert value == pytest.approx(4.0, abs=1e-9)
    assert y[0] == pytest.approx(4.0, abs=1e-9)


def test_envelope_bivariate_tie_breaks_to_lowest_index():
    # E(0, y) = 0 for every y: the whole grid ties and the first point wins
    value, y = envelope(make_benchmark("bivariate"), np.array([0.0]), GRID)
    assert value == 0.0
    assert y[0] == -4.0


def test_envelope_forsaken_at_zero():
    grid = GridSpec(points_per_dim=4097, refine_rounds=3)
    value, y = envelope(make_benchmark("forsaken"), np.array([0.0]), grid)
    assert value == pytest.approx(FORSAKEN_ENVELOPE_AT_ZERO, abs=1e-9)
    assert abs(y[0]) == pytest.approx(FORSAKEN_Y_STAR, abs=1e-4)


def test_solve_bilinearly_coupled():
    sol = solve_minmax(make_benchmark("bilinearly_coupled"), GRID)
    assert abs(sol.x_star[0]) < 0.01
    found = sorted(float(y[0]) for y in sol.y_star_all)
    assert len(found) == 2
    assert found[0] == pytest.approx(-math.sqrt(5), abs=0.02)
    assert found[1] == pytest.approx(math.sqrt(5), abs=0.02)


def test_solve_forsaken():
    sol = solve_minmax(make_benchmark("forsaken"), GRID)
    assert abs(sol.x_star[0]) < 0.01
    found = sorted(float(y[0]) for y in sol.y_star_all)
    assert found[0] == pytest.approx(-FORSAKEN_Y_STAR, abs=0.02)
    assert found[-1] == pytest.approx(FORSAKEN_Y_STAR, abs=0.02)


def test_solve_sixth_order():
    sol = solve_minmax(make_benchmark("sixth_order"), GRID)
    assert abs(sol.x_star[0]) < 0.02
    assert abs(sol.y_star[0]) < 0.02


def test_solve_remark_function():
    sol = solve_minmax(make_benchmark("remark_function"), GridSpec(points_per_dim=1025, refine_rounds=2))
    assert abs(sol.x_star[0]) < 0.02
    assert abs(sol.y_star[0]) < 0.02


def test_oracle_self_consistency():
    obj = make_benchmark("bilinearly_coupled")
    sol = solve_minmax(obj, GRID)
    env_value, _ = envelope(obj, sol.x_star, GRID)
    assert sol.value == pytest.approx(env_value, rel=1e-9)
    attained = obj.value(sol.x_star, sol.y_star)
    assert sol.value == pytest.approx(attained, rel=1e-12)


def test_monotone_refinement():
    # refinement lowers the outer min but can raise the inner max toward its
    # true value, by at most the quadratic resolution error of the previous
    # round's y-grid; 100 bounds |d2E/dy2| on these benchmarks
    m = 257
    for name in ("bilinearly_coupled", "forsaken", "sixth_order"):
        obj = make_benchmark(name)
        values = [
            solve_minmax(obj, GridSpec(points_per_dim=m, refine_rounds=r)).value
            for r in range(4)
        ]
        for r, (previous, refined) in enumerate(zip(values, values[1:])):
            cell = float(obj.domain_y.width[0]) * 0.25**r / (m - 1)
            assert refined <= previous + 100.0 * cell**2


def test_grid_halving_stability():
    for name in BUILT_IN_IDS:
        obj = make_benchmark(name)
        coarse = solve_minmax(obj, GridSpec(points_per_dim=513, refine_rounds=1))
        fine = solve_minmax(obj, GridSpec(points_per_dim=1025, refine_rounds=1))
        cell = float(np.max(obj.domain_x.width / 512))
        assert np.all(np.abs(coarse.x_star - fine.x_star) < cell), name
        cell_y = float(np.max(obj.domain_y.width / 512))
        assert np.all(np.abs(coarse.y_star - fine.y_star) < cell_y), name


def test_resolution():
    sol = solve_minmax(make_benchmark("sixth_order"), GridSpec(points_per_dim=129, refine_rounds=2))
    assert sol.resolution == pytest.approx(4.0 * 0.25**2 / 128)


def test_high_dimension_rejected():
    box3 = BoxDomain(np.zeros(3), np.ones(3))
    obj = ObjectiveFunction("3d", 3, 3, box3, box3, lambda x, y: np.sum(x, axis=-1))
    with pytest.raises(InputError, match="at most 2"):
        solve_minmax(obj, GridSpec(points_per_dim=5))


@pytest.mark.parametrize("field, value", [
    ("points_per_dim", 2), ("points_per_dim", 5.5), ("points_per_dim", 5.0), ("points_per_dim", True),
    ("points_per_dim", "5"), ("refine_rounds", -1), ("refine_rounds", 1.5), ("refine_rounds", False),
])
def test_grid_spec_rejects_counts_that_are_not_integers_in_range(field, value):
    with pytest.raises(InputError, match=f"^{field} must be an integer >= "):
        GridSpec(**{field: value})


def test_grid_spec_takes_numpy_integers():
    assert solve_minmax(make_benchmark("bilinear"), GridSpec(np.int64(5), np.int64(0))).value == 0.0


def test_unbounded_domain_rejected():
    box = BoxDomain(np.array([-np.inf]), np.array([np.inf]))
    obj = ObjectiveFunction("free", 1, 1, box, box, lambda x, y: x[..., 0] * y[..., 0])
    with pytest.raises(InputError, match="bounded"):
        solve_minmax(obj, GridSpec(points_per_dim=5))


def test_two_dimensional_variables_supported():
    # separable 2-d quadratic saddle: x* = (0, 0), y* = (0, 0)
    box = BoxDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    obj = ObjectiveFunction(
        "quad2", 2, 2, box, box,
        lambda x, y: np.sum(x**2, axis=-1) - np.sum(y**2, axis=-1),
    )
    sol = solve_minmax(obj, GridSpec(points_per_dim=41, refine_rounds=2))
    assert np.all(np.abs(sol.x_star) < 0.05)
    assert np.all(np.abs(sol.y_star) < 0.05)


def _product_grid(lower, upper, m):
    """The grid as itertools.product of the axes, the 1-d grid as one column: the reference formulation."""
    axes = [np.linspace(lower[k], upper[k], m) for k in range(lower.size)]
    if len(axes) == 1:
        return axes[0][:, None]
    return np.array(list(itertools.product(*axes)))


@pytest.mark.parametrize("lower, upper, m", [
    ([-1.5], [1.5], 3), ([-4.0], [4.0], 2049), ([-2.0, 0.5], [2.0, 3.0], 3), ([-1.0, -3.0], [0.5, 3.0], 65),
    ([0.1, -1e-3], [0.7, 1e300], 17),
])
def test_grid_points_equal_the_product_of_the_axes(lower, upper, m):
    lower, upper = np.array(lower), np.array(upper)
    got, want = oracle._grid_points(lower, upper, m), _product_grid(lower, upper, m)
    assert got.shape == want.shape == (m ** lower.size, lower.size)
    assert got.tobytes() == want.tobytes()


def _loop_clusters(vals):
    """Representatives of the near-maximal clusters by a scan over the near indices: the reference formulation."""
    near = np.flatnonzero(vals >= float(vals.max()) - oracle._TIE_TOL)
    reps, start = [], 0
    for pos in range(1, near.size + 1):
        if pos == near.size or near[pos] - near[pos - 1] > oracle._CLUSTER_GAP:
            members = near[start:pos]
            reps.append(int(members[np.argmax(vals[members])]))
            start = pos
    return reps


def test_maximizer_clusters_equal_the_loop_on_random_tie_patterns():
    rng = np.random.default_rng(22)
    for _ in range(2000):
        m = int(rng.integers(1, 40))
        vals = rng.uniform(-1.0, 0.0, m)
        ties = rng.random(m) < rng.uniform(0.05, 0.9)
        vals[ties] = rng.choice([0.0, -0.5e-6, -2e-6], ties.sum())  # near, near and not near the max 0
        vals[rng.integers(m)] = 0.0
        ys = np.linspace(-1.0, 1.0, m)[:, None]
        assert oracle._maximizer_clusters(ys, vals) == _loop_clusters(vals), vals
