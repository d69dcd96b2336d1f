import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxcbo import BoxDomain, InputError, ReferencePoint, benchmark_reference, make_benchmark, register_benchmark
from minmaxcbo.objectives import _even_sextic, lookup_benchmark

BUILT_IN_IDS = ("bilinear", "bivariate", "bilinearly_coupled", "forsaken", "sixth_order", "remark_function")


def test_benchmark_point_values():
    cases = [
        ("bilinear", 2.0, 3.0, 6.0),
        ("bilinearly_coupled", 0.0, 0.0, 0.0),
        ("forsaken", 0.0, 0.0, 0.0),
        ("bivariate", 1.0, 0.0, -0.25),
        ("bivariate", 0.0, 7.0, 0.0),
        ("sixth_order", 0.0, 0.0, 0.0),
        ("remark_function", 0.0, 0.0, 0.0),
    ]
    for name, x, y, expected in cases:
        obj = make_benchmark(name)
        assert obj.value([x], [y]) == pytest.approx(expected, abs=1e-12), name


def test_every_id_resolves():
    for name in BUILT_IN_IDS:
        obj = make_benchmark(name)
        assert np.isfinite(obj.value(obj.domain_x.lower, obj.domain_y.upper))


def test_alias_normalization():
    assert make_benchmark("Bilinearly-Coupled").name == "bilinearly_coupled"
    assert make_benchmark(" SIXTH_ORDER ").name == "sixth_order"
    # a registered id is canonicalized the same way, at registration and lookup
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    ref = ReferencePoint(np.array([0.0]), np.array([[0.0]]))
    register_benchmark("My Bench", lambda x, y: x[..., 0] * y[..., 0], box, box, reference=ref)
    for spelling in ("My Bench", "my_bench", "My-Bench", " MY_BENCH ", "my bench"):
        assert make_benchmark(spelling).name == "my_bench"
        assert benchmark_reference(spelling) is ref
    with pytest.raises(InputError):
        register_benchmark("my-bench", lambda x, y: 0.0, box, box)


def test_unknown_id_rejected():
    with pytest.raises(InputError):
        make_benchmark("rosenbrock")


def test_evaluation_deterministic_bitwise():
    obj = make_benchmark("sixth_order")
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, 2)
        assert obj.value([x], [y]) == obj.value([x], [y])


def test_bilinear_sign_symmetry():
    obj = make_benchmark("bilinear")
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y = rng.uniform(-4, 4, 2)
        e = obj.value([x], [y])
        assert e == -obj.value([x], [-y])
        assert e == -obj.value([-x], [y])


def test_bilinearly_coupled_pointwise_identity():
    # E(x,y) - 10xy + f(y) - f(x) == 0 for the coupling structure
    def f(z):
        return (z + 1) * (z - 1) * (z + 3) * (z - 3)

    obj = make_benchmark("bilinearly_coupled")
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y = rng.uniform(-4, 4, 2)
        residual = obj.value([x], [y]) - 10 * x * y + f(y) - f(x)
        assert abs(residual) < 1e-9


def test_forsaken_polynomial_is_even():
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.5, 1.5, 500)
    assert np.array_equal(_even_sextic(z), _even_sextic(-z))


def test_dimension_mismatch_raises():
    obj = make_benchmark("bilinear")
    with pytest.raises(InputError):
        obj.value([1.0, 2.0], [3.0])
    with pytest.raises(InputError):
        obj.value([1.0], [3.0, 4.0])


def test_box_override():
    obj = make_benchmark("bilinear", box_x=(-1.0, 1.0), box_y=(-2.0, 2.0))
    assert obj.domain_x.lower[0] == -1.0
    assert obj.domain_y.upper[0] == 2.0


def test_make_benchmark_returns_a_new_objective_and_leaves_the_registrys_boxes_alone():
    registered = lookup_benchmark("forsaken").objective
    first, second = make_benchmark("forsaken"), make_benchmark("forsaken")
    assert first is not second and first is not registered and first == registered
    wider = make_benchmark("forsaken", box_x=(-3.0, 3.0), box_y=BoxDomain(np.array([-2.0, -2.0]), np.array([2.0, 2.0])))
    assert (wider.dim_x, wider.dim_y, wider.domain_x.upper[0], wider.fn) == (1, 2, 3.0, registered.fn)
    assert (registered.dim_y, registered.domain_x.upper[0], registered.domain_y.upper.tolist()) == (1, 1.5, [1.5])
    assert make_benchmark("forsaken").domain_x.upper[0] == 1.5


def test_box_domain_invariants():
    with pytest.raises(InputError):
        BoxDomain(np.array([1.0]), np.array([1.0]))
    with pytest.raises(InputError):
        BoxDomain(np.array([2.0]), np.array([1.0]))
    box = BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
    assert box.dim == 2
    clamped = box.clamp(np.array([[5.0, -5.0]]))
    assert clamped.tolist() == [[1.0, 0.0]]


# One coordinate's (lower, upper): zero bounds of either sign, and infinite ones.
_CLAMP_BOUNDS = [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-np.inf, 0.0), (-0.0, np.inf), (-2.5, 3.0)]
_CLAMP_POINTS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0]) | st.floats()


@pytest.mark.parametrize("lower, upper, point", [(0.0, 1.0, -0.0), (-0.0, 1.0, 0.0), (-1.0, 0.0, -0.0),
                                                 (-1.0, -0.0, 0.0)])
def test_clamp_keeps_a_zero_on_a_zero_bound_as_clip_does(lower, upper, point):
    # np.maximum(-0.0, 0.0) is +0.0, where clip keeps the point's -0.0
    box = BoxDomain(np.array([lower]), np.array([upper]))
    points = np.array([[point]])
    assert box.clamp(points).tobytes() == points.clip(box.lower, box.upper).tobytes()


@settings(max_examples=300, deadline=None)
@given(bounds=st.lists(st.sampled_from(_CLAMP_BOUNDS), min_size=1, max_size=3), n=st.integers(1, 5),
       trials=st.sampled_from([None, 1, 3]), data=st.data())
def test_clamp_is_ndarray_clip_bit_for_bit(bounds, n, trials, data):
    lower, upper = zip(*bounds)
    box = BoxDomain(np.array(lower), np.array(upper))
    shape = (n, len(bounds)) if trials is None else (trials, n, len(bounds))
    size = int(np.prod(shape))
    points = np.array(data.draw(st.lists(_CLAMP_POINTS, min_size=size, max_size=size))).reshape(shape)
    assert box.clamp(points).tobytes() == points.clip(box.lower, box.upper).tobytes()


def test_register_benchmark():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    register_benchmark("quadratic_demo", lambda x, y: x[..., 0] ** 2 - y[..., 0] ** 2, box, box)
    obj = make_benchmark("quadratic_demo")
    assert obj.value([0.5], [0.5]) == 0.0
    with pytest.raises(InputError):
        register_benchmark("quadratic_demo", lambda x, y: 0.0, box, box)
