import math

import numpy as np
import pytest

from minmaxcbo import GdaConfig, InputError, gda_run, make_benchmark

BILINEAR = make_benchmark("bilinear")
COUPLED = make_benchmark("bilinearly_coupled")


def _start(x, y):
    return (np.array([x]), np.array([y]))


def test_fd_gradient_matches_analytic_on_bilinear():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(-4, 4, 2)
        # one unit step: x1 = x0 - gx and y1 = y0 + gy
        step = gda_run(BILINEAR, GdaConfig(step_size=1.0, iterations=1, start=_start(x, y)))
        gx, gy = step.xs[0] - step.xs[1], step.ys[1] - step.ys[0]
        assert abs(gx[0] - y) < 1e-5
        assert abs(gy[0] - x) < 1e-5


def test_bilinear_simultaneous_norm_growth():
    # the map (x, y) -> (x - eta y, y + eta x) dilates norms by sqrt(1 + eta^2)
    eta = 0.1
    result = gda_run(BILINEAR, GdaConfig(step_size=eta, iterations=100, start=_start(1.0, 0.0)))
    norms = np.sqrt(result.xs[:, 0] ** 2 + result.ys[:, 0] ** 2)
    growth = math.sqrt(1.0 + eta**2)
    ratios = norms[1:] / norms[:-1]
    assert np.all(np.abs(ratios - growth) < 1e-4 * growth)
    assert norms[-1] == pytest.approx(1.01**50, rel=1e-2)


def test_trajectory_bookkeeping():
    result = gda_run(BILINEAR, GdaConfig(step_size=0.1, iterations=7, start=_start(1.0, 0.5)))
    assert len(result) == 8
    assert result.xs.shape == (8, 1) and result.ys.shape == (8, 1)
    assert result.xs[0, 0] == 1.0 and result.ys[0, 0] == 0.5
    zero = gda_run(BILINEAR, GdaConfig(step_size=0.1, iterations=0, start=_start(1.0, 0.5)))
    assert len(zero) == 1 and not zero.diverged


def test_coupled_gda_lingers_near_stationary_point():
    # (0, 0) is the only stationary point of the descent-ascent field; with a
    # small step the iterate stays in its neighborhood (squared distance)
    # instead of moving toward the min-max solution (0, +-2.24)
    result = gda_run(COUPLED, GdaConfig(step_size=1e-3, iterations=50, start=_start(0.01, 0.01)))
    sq = float(result.xs[-1, 0] ** 2 + result.ys[-1, 0] ** 2)
    assert sq < 0.01
    far_sq = (result.xs[-1, 0] - 0.0) ** 2 + (abs(result.ys[-1, 0]) - 2.24) ** 2
    assert far_sq > 1.0


def test_alternating_mode_uses_updated_x():
    eta = 0.1
    result = gda_run(
        BILINEAR, GdaConfig(step_size=eta, iterations=1, start=_start(1.0, 0.5), mode="alternating")
    )
    x1 = 1.0 - eta * 0.5
    y1 = 0.5 + eta * x1
    assert result.xs[1, 0] == pytest.approx(x1, abs=1e-6)
    assert result.ys[1, 0] == pytest.approx(y1, abs=1e-6)


def test_divergence_halts_with_flag():
    result = gda_run(BILINEAR, GdaConfig(step_size=10.0, iterations=1000, start=_start(1.0, 1.0)))
    assert result.diverged
    assert len(result) < 1001
    assert np.max(np.abs(result.xs[-1])) > 1e6 or np.max(np.abs(result.ys[-1])) > 1e6


@pytest.mark.parametrize("iterations", [-1, 2.5, 2.0, True, False, "2", None])
def test_iterations_must_be_an_integer_of_at_least_zero(iterations):
    with pytest.raises(InputError, match="^iterations must be an integer >= 0"):
        GdaConfig(step_size=0.1, iterations=iterations, start=_start(0, 0))


def test_config_validation():
    with pytest.raises(InputError):
        GdaConfig(step_size=0.0, iterations=5, start=_start(0, 0))
    with pytest.raises(InputError):
        GdaConfig(step_size=0.1, iterations=-1, start=_start(0, 0))
    with pytest.raises(InputError):
        GdaConfig(step_size=0.1, iterations=5, start=_start(0, 0), mode="leapfrog")
    with pytest.raises(InputError):
        gda_run(BILINEAR, GdaConfig(step_size=0.1, iterations=1, start=(np.zeros(2), np.zeros(1))))
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite"):
            GdaConfig(step_size=bad, iterations=5, start=_start(0, 0))
        with pytest.raises(InputError, match="finite"):
            gda_run(BILINEAR, GdaConfig(step_size=0.1, iterations=1, start=_start(bad, 0)))
