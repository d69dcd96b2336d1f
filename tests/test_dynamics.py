import math
import weakref

import numpy as np
import pytest

from minmaxcbo import (
    ConfigError,
    InitSpec,
    NumericalError,
    SolverConfig,
    benchmark_reference,
    fit_decay_rate,
    initialize,
    make_benchmark,
    run,
    step,
    trajectory,
)
from minmaxcbo import dynamics, harness
from minmaxcbo.consensus import ConsensusPoint
from minmaxcbo.dynamics import _TAG_STEP_X, _TAG_STEP_Y, _advance, _rng
from minmaxcbo.objectives import BoxDomain, ObjectiveFunction

FORSAKEN = make_benchmark("forsaken")
BILINEAR = make_benchmark("bilinear")


def _cfg(**kw):
    defaults = dict(n_particles=10, dt_y=0.1, horizon=1.0, seed=0)
    defaults.update(kw)
    return SolverConfig(**defaults)


def test_uniform_init_moments():
    # mean of U(-4, 4) within 3 sigma / sqrt(N) of zero, per coordinate
    config = _cfg(n_particles=10_000, seed=3)
    ens = initialize(config, BILINEAR)
    bound = 3.0 * (8.0 / math.sqrt(12.0)) / math.sqrt(10_000)
    assert abs(ens.xs.mean()) < bound
    assert abs(ens.ys.mean()) < bound
    assert ens.step_index == 0


def test_border_init_puts_joint_particle_on_boundary():
    config = _cfg(n_particles=500, init=InitSpec(mode="border"), seed=1)
    ens = initialize(config, FORSAKEN)
    joint_max = np.maximum(np.abs(ens.xs[:, 0]), np.abs(ens.ys[:, 0]))
    assert np.all(joint_max == 1.5)
    assert np.all(np.abs(ens.xs) <= 1.5)
    assert np.all(np.abs(ens.ys) <= 1.5)


def test_same_seed_same_ensemble_bitwise():
    config = _cfg(seed=9)
    a, b = initialize(config, BILINEAR), initialize(config, BILINEAR)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    c = initialize(_cfg(seed=10), BILINEAR)
    assert not np.array_equal(a.xs, c.xs)


def test_unbounded_box_rejected_for_uniform_and_border():
    box = BoxDomain(np.array([-np.inf]), np.array([np.inf]))
    obj = ObjectiveFunction("free", 1, 1, box, box, lambda x, y: x[..., 0] * y[..., 0])
    for mode in ("uniform_box", "border"):
        with pytest.raises(ConfigError):
            initialize(_cfg(init=InitSpec(mode=mode)), obj)


def test_gaussian_mean_outside_box_projected_on_first_step():
    config = _cfg(init=InitSpec(mode="gaussian", mean=10.0, std=0.1), sigma_x=0.5, sigma_y=0.5)
    ens = initialize(config, BILINEAR)
    assert np.any(ens.xs > 4.0)  # allowed before the first step
    stepped = step(ens, config, BILINEAR)
    assert BILINEAR.domain_x.contains(stepped.xs)
    assert BILINEAR.domain_y.contains(stepped.ys)


def test_single_particle_zero_noise_is_fixed_point():
    config = _cfg(n_particles=1, sigma_x=0.0, sigma_y=0.0)
    ens = initialize(config, BILINEAR)
    nxt = step(ens, config, BILINEAR)
    assert np.array_equal(nxt.xs, ens.xs) and np.array_equal(nxt.ys, ens.ys)
    assert nxt.step_index == 1


def test_zero_noise_contracts_deviations_by_one_minus_lambda_dt():
    config = _cfg(sigma_x=0.0, sigma_y=0.0, dt_y=0.2, project=False)
    ens = initialize(config, BILINEAR)
    from minmaxcbo.consensus import consensus_points

    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    nxt = _advance(ens, config, BILINEAR, cp)
    factor = 1.0 - config.lambda_x * config.dt_x
    np.testing.assert_allclose(nxt.xs - cp.x_cons, factor * (ens.xs - cp.x_cons), rtol=1e-13)
    np.testing.assert_allclose(
        nxt.ys - cp.y_cons_per_particle,
        (1.0 - config.lambda_y * config.dt_y) * (ens.ys - cp.y_cons_per_particle),
        rtol=1e-13,
    )


def test_anisotropic_noise_vanishes_on_zero_deviation_coordinate():
    box = BoxDomain(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
    obj = ObjectiveFunction("2d", 2, 2, box, box, lambda x, y: np.sum(x, axis=-1) * np.sum(y, axis=-1))
    config = SolverConfig(n_particles=2, dt_y=0.1, horizon=1.0, seed=0, project=False)
    from minmaxcbo.dynamics import Ensemble

    xs = np.array([[1.0, 2.0], [3.0, -1.0]])
    ys = np.array([[0.5, 0.5], [0.5, 2.0]])
    ens = Ensemble(xs=xs, ys=ys, step_index=0, seed=0)
    # freeze consensus so particle 0 of the y-population has deviation (0, 3)
    cp = ConsensusPoint(x_cons=xs[0].copy(), y_cons_per_particle=np.array([[0.5, -2.5], [0.5, 2.0]]))
    nxt = _advance(ens, config, obj, cp)
    # zero deviation in coordinate 0: no drift, no noise there
    assert nxt.ys[0, 0] == ys[0, 0]
    assert nxt.ys[0, 1] != ys[0, 1]
    # x-particle 0 sits at the consensus: fully frozen
    assert np.array_equal(nxt.xs[0], xs[0])


def test_isotropic_noise_scales_by_euclidean_norm():
    config = _cfg(diffusion="isotropic", project=False, seed=4)
    ens = initialize(config, BILINEAR)
    from minmaxcbo.consensus import consensus_points

    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    nxt = _advance(ens, config, BILINEAR, cp)
    noise = _rng(config.seed, _TAG_STEP_X, 0).standard_normal(ens.xs.shape)
    dev = ens.xs - cp.x_cons[None, :]
    expected = ens.xs - config.lambda_x * config.dt_x * dev + config.sigma_x * math.sqrt(
        config.dt_x
    ) * np.linalg.norm(dev, axis=1, keepdims=True) * noise
    np.testing.assert_allclose(nxt.xs, expected, rtol=0, atol=0)


def test_run_step_count_and_series_lengths():
    config = _cfg(horizon=15.0, dt_y=0.1, n_particles=5)
    record = run(config, BILINEAR, reference=benchmark_reference("bilinear"))
    assert len(record) == 151
    for series in (
        record.variance_x,
        record.variance_y,
        record.spread_x,
        record.spread_y,
        record.mean_x,
        record.mean_y,
        record.best_value_trace,
        record.best_error_trace,
        record.best_pair_trace,
    ):
        assert len(series) == 151
    assert record.final_ensemble.step_index == 150
    # one pair matrix (N^2) plus N outer evaluations per recorded state
    assert record.eval_count == 151 * (25 + 5)


def test_run_determinism_bitwise():
    config = _cfg(horizon=2.0, seed=21)
    a = run(config, FORSAKEN)
    b = run(config, FORSAKEN)
    assert np.array_equal(a.final_ensemble.xs, b.final_ensemble.xs)
    assert np.array_equal(a.final_ensemble.ys, b.final_ensemble.ys)
    assert a.best_value_trace == b.best_value_trace


def test_projection_keeps_every_step_inside_box():
    config = _cfg(sigma_x=4.0, sigma_y=4.0, horizon=3.0, seed=2)
    for ensemble, _, pair_values in trajectory(config, FORSAKEN.fresh()):
        assert FORSAKEN.domain_x.contains(ensemble.xs)
        assert FORSAKEN.domain_y.contains(ensemble.ys)
        del pair_values


def test_trajectory_yields_every_state_and_counts_like_run():
    config = _cfg(horizon=2.0, seed=8)
    before = FORSAKEN.eval_count
    record = run(config, FORSAKEN)
    obj = FORSAKEN.fresh()
    indices = []
    for ensemble, cp, pair_values in trajectory(config, obj):
        indices.append(ensemble.step_index)
        assert pair_values.shape == (10, 10) and cp.y_cons_per_particle.shape == (10, 1)
        del pair_values
    assert indices == list(range(config.n_steps + 1)) == list(range(21))
    assert obj.eval_count == record.eval_count == 21 * (100 + 10)
    assert FORSAKEN.eval_count == before  # run counts on its own copy
    assert ensemble.xs.tobytes() == record.final_ensemble.xs.tobytes()
    assert ensemble.ys.tobytes() == record.final_ensemble.ys.tobytes()


@pytest.mark.parametrize("consumer", ["run", "sweep_trial"])
def test_no_earlier_pair_matrix_alive_when_the_next_is_built(monkeypatch, consumer):
    real, alive, built = dynamics.consensus_points, [], []

    def spy(*args):
        alive.append(sum(ref() is not None for ref in built))
        cp, pair_values = real(*args)
        built.append(weakref.ref(pair_values))
        return cp, pair_values

    monkeypatch.setattr(dynamics, "consensus_points", spy)
    config = _cfg(n_particles=40, horizon=1.0, seed=3)
    ref = benchmark_reference("forsaken")
    if consumer == "run":
        run(config, FORSAKEN, reference=ref)
    else:
        harness._sweep_trial(FORSAKEN, ref, config)
    assert len(alive) == config.n_steps + 1
    assert alive == [0] * len(alive)


def test_epsilon_one_matches_single_timescale_update():
    # with epsilon = 1 the x-update must use exactly the y step size
    config = _cfg(epsilon_scale=1.0, seed=6, project=False)
    ens = initialize(config, BILINEAR)
    from minmaxcbo.consensus import consensus_points

    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    nxt = _advance(ens, config, BILINEAR, cp)
    noise = _rng(6, _TAG_STEP_X, 0).standard_normal(ens.xs.shape)
    dev = ens.xs - cp.x_cons[None, :]
    dt = config.dt_y
    manual = ens.xs - config.lambda_x * dt * dev + config.sigma_x * math.sqrt(dt) * dev * noise
    assert np.array_equal(nxt.xs, manual)


def test_simultaneity_under_particle_permutation():
    # deterministic (sigma = 0) step commutes with relabeling the particles,
    # which fails for any sequential Gauss-Seidel style sweep
    config = _cfg(sigma_x=0.0, sigma_y=0.0, n_particles=8, seed=12)
    ens = initialize(config, BILINEAR)
    base = step(ens, config, BILINEAR)
    perm = np.random.default_rng(0).permutation(8)
    from minmaxcbo.dynamics import Ensemble

    shuffled = Ensemble(xs=ens.xs[perm], ys=ens.ys[perm], step_index=0, seed=config.seed)
    stepped = step(shuffled, config, BILINEAR)
    np.testing.assert_allclose(stepped.xs, base.xs[perm], rtol=0, atol=1e-12)
    np.testing.assert_allclose(stepped.ys, base.ys[perm], rtol=0, atol=1e-12)


def test_unweighted_mean_is_random_walk_without_selection():
    # alpha = beta = 0: consensus is the plain mean, so the population mean
    # is a martingale; its total drift stays within 4 standard errors
    config = _cfg(
        n_particles=16,
        lambda_x=0.5,
        lambda_y=0.5,
        sigma_x=1.0,
        sigma_y=1.0,
        alpha=0.0,
        beta=0.0,
        dt_y=0.01,
        horizon=100.0,
        project=False,
        seed=5,
    )
    record = run(config, BILINEAR)
    means = np.array([m[0] for m in record.mean_x])
    increments = np.diff(means)
    total = means[-1] - means[0]
    stderr = increments.std() * math.sqrt(increments.size)
    assert abs(total) <= 4.0 * stderr


def test_bilinear_reference_run_reaches_consensus_on_solution_set():
    # at the reference parameters all particles collapse (spread < 0.5) and
    # the best pair lands on the min-max solution set {0} x R; the y-limit
    # is seed-dependent on this degenerate problem, so proximity is
    # measured as squared error to the solution set, not to the saddle (0,0)
    ref = benchmark_reference("bilinear")
    spread_ok = err_ok = 0
    for seed in range(20):
        config = SolverConfig(n_particles=25, horizon=15.0, seed=seed)
        record = run(config, BILINEAR, reference=ref)
        spread_ok += max(record.spread_x[-1], record.spread_y[-1]) < 0.5
        err_ok += record.best_error_trace[-1] < 0.3**2
    assert spread_ok >= 16
    assert err_ok >= 16


def test_decay_regime_variance_slope():
    config = SolverConfig(
        n_particles=200,
        sigma_x=1.0,
        sigma_y=1.0,
        dt_y=0.01,
        horizon=5.0,
        seed=0,
        check_decay_regime=True,
    )
    record = run(config, BILINEAR, reference=benchmark_reference("bilinear"))
    assert fit_decay_rate(record) <= -0.25


def test_decay_regime_flag_enforced():
    with pytest.raises(ConfigError):
        _cfg(sigma_x=1.5, sigma_y=1.5, check_decay_regime=True).validate()


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(dt_y=1.5).validate()
    with pytest.raises(ConfigError):
        _cfg(dt_y=0.3, epsilon_scale=5.0).validate()  # dt_x = 1.5
    with pytest.raises(ConfigError):
        _cfg(n_particles=0).validate()
    with pytest.raises(ConfigError):
        _cfg(horizon=-1.0).validate()
    with pytest.raises(ConfigError):
        SolverConfig(diffusion="banana").validate()
    with pytest.raises(ConfigError):
        InitSpec(mode="everywhere")
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "alpha", "beta", "horizon"):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                _cfg(**{name: bad}).validate()
        with pytest.raises(ConfigError, match="finite"):
            InitSpec(mode="gaussian", mean=bad)
        with pytest.raises(ConfigError, match="finite"):
            InitSpec(std=bad)


def test_non_finite_state_raises_numerical_error():
    config = _cfg(sigma_x=1e308, sigma_y=1e308, project=False, seed=0)
    ens = initialize(config, BILINEAR)
    with pytest.raises(NumericalError, match="step 0"):
        step(ens, config, BILINEAR)
