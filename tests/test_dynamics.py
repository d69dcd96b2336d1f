import gc
import math
import mmap
import os
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxcbo import (
    ConfigError,
    InputError,
    NumericalError,
    ReferencePoint,
    SolverConfig,
    benchmark_reference,
    error_to_reference,
    fit_decay_rate,
    initialize,
    make_benchmark,
    run,
    trajectory,
)
from minmaxcbo import consensus, dynamics, harness
from minmaxcbo.consensus import ConsensusPoint, consensus_points
from minmaxcbo.dynamics import (
    _TAG_INIT_AUX,
    _TAG_INIT_X,
    _TAG_INIT_Y,
    _TAG_STEP_X,
    _TAG_STEP_Y,
    Ensemble,
    _advance,
    _StepNoise,
    _rng,
)
from minmaxcbo.objectives import BoxDomain, ObjectiveFunction

FORSAKEN = make_benchmark("forsaken")
BILINEAR = make_benchmark("bilinear")
BUILT_IN_IDS = ("bilinear", "bivariate", "bilinearly_coupled", "forsaken", "sixth_order", "remark_function")


def _cfg(**kw):
    defaults = dict(n_particles=10, dt_y=0.1, horizon=1.0, seed=0)
    defaults.update(kw)
    return SolverConfig(**defaults)


def _noise(*seeds):
    """The step noise of the trials of these seeds, as trajectory makes it."""
    return _StepNoise(list(seeds))


def test_uniform_init_moments():
    # mean of U(-4, 4) within 3 sigma / sqrt(N) of zero, per coordinate
    config = _cfg(n_particles=10_000, seed=3)
    ens = initialize(config, BILINEAR)
    bound = 3.0 * (8.0 / math.sqrt(12.0)) / math.sqrt(10_000)
    assert abs(ens.xs.mean()) < bound
    assert abs(ens.ys.mean()) < bound
    assert ens.step_index == 0


def test_border_init_puts_joint_particle_on_boundary():
    config = _cfg(n_particles=500, init="border", seed=1)
    ens = initialize(config, FORSAKEN)
    joint_max = np.maximum(np.abs(ens.xs[:, 0]), np.abs(ens.ys[:, 0]))
    assert np.all(joint_max == 1.5)
    assert np.all(np.abs(ens.xs) <= 1.5)
    assert np.all(np.abs(ens.ys) <= 1.5)


def _border_init_reference(config, obj):
    """The border start placed one particle at a time: each particle's drawn face coordinate set to its bound."""
    n, box_x, box_y = config.n_particles, obj.domain_x, obj.domain_y
    xs = _rng(config.seed, _TAG_INIT_X, 0).uniform(box_x.lower, box_x.upper, (n, box_x.dim))
    ys = _rng(config.seed, _TAG_INIT_Y, 0).uniform(box_y.lower, box_y.upper, (n, box_y.dim))
    faces = _rng(config.seed, _TAG_INIT_AUX, 0).integers(0, 2 * (box_x.dim + box_y.dim), n)
    lo = np.concatenate([box_x.lower, box_y.lower])
    hi = np.concatenate([box_x.upper, box_y.upper])
    for i in range(n):
        k = faces[i] // 2
        value = (hi if faces[i] % 2 else lo)[k]
        if k < box_x.dim:
            xs[i, k] = value
        else:
            ys[i, k - box_x.dim] = value
    return xs, ys


_BOX_2D_3D = ObjectiveFunction(
    "box_2d_3d", 2, 3,
    BoxDomain(np.array([-1.0, -2.5]), np.array([0.5, 3.0])),
    BoxDomain(np.array([-4.0, 0.25, -1.0]), np.array([-3.0, 2.0, 7.5])),
    lambda x, y: x[..., 0] * y[..., 0] + x[..., 1] * y[..., 2],
)


@pytest.mark.parametrize("obj", [FORSAKEN, _BOX_2D_3D], ids=["forsaken", "box_2d_3d"])
@pytest.mark.parametrize("n", [1, 7, 160, 1000])
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 1])
def test_border_init_equals_the_per_particle_loop_bitwise(obj, n, seed):
    config = _cfg(n_particles=n, init="border", seed=seed)
    ens = initialize(config, obj)
    want_xs, want_ys = _border_init_reference(config, obj)
    assert ens.xs.tobytes() == want_xs.tobytes() and ens.ys.tobytes() == want_ys.tobytes()
    assert ens.xs.flags.c_contiguous and ens.ys.flags.c_contiguous


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
            initialize(_cfg(init=mode), obj)


def test_box_whose_width_overflows_is_rejected_for_uniform_and_border():
    # finite bounds 2e308 apart: numpy's uniform() cannot draw from such a range
    box = BoxDomain(np.array([-1e308]), np.array([1e308]))
    obj = ObjectiveFunction("wide", 1, 1, box, box, lambda x, y: x[..., 0] * y[..., 0])
    for mode in ("uniform_box", "border"):
        with pytest.raises(ConfigError, match="bounded"):
            initialize(_cfg(init=mode), obj)


def test_gaussian_mean_outside_box_projected_on_first_step():
    config = _cfg(init="gaussian", init_mean=10.0, init_std=0.1, sigma_x=0.5, sigma_y=0.5)
    ens = initialize(config, BILINEAR)
    assert np.any(ens.xs > 4.0)  # allowed before the first step
    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    stepped = _advance(ens, config, BILINEAR, cp, _noise(config.seed))
    assert np.all((stepped.xs >= -4.0) & (stepped.xs <= 4.0))
    assert np.all((stepped.ys >= -4.0) & (stepped.ys <= 4.0))


def test_single_particle_zero_noise_is_fixed_point():
    config = _cfg(n_particles=1, sigma_x=0.0, sigma_y=0.0)
    ens = initialize(config, BILINEAR)
    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    nxt = _advance(ens, config, BILINEAR, cp, _noise(config.seed))
    assert np.array_equal(nxt.xs, ens.xs) and np.array_equal(nxt.ys, ens.ys)
    assert nxt.step_index == 1


def test_zero_noise_contracts_deviations_by_one_minus_lambda_dt():
    config = _cfg(sigma_x=0.0, sigma_y=0.0, dt_y=0.2, project=False)
    ens = initialize(config, BILINEAR)
    from minmaxcbo.consensus import consensus_points

    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    nxt = _advance(ens, config, BILINEAR, cp, _noise(config.seed))
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
    ens = Ensemble(xs=xs, ys=ys, step_index=0)
    # freeze consensus so particle 0 of the y-population has deviation (0, 3)
    cp = ConsensusPoint(x_cons=xs[0].copy(), y_cons_per_particle=np.array([[0.5, -2.5], [0.5, 2.0]]))
    nxt = _advance(ens, config, obj, cp, _noise(config.seed))
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
    nxt = _advance(ens, config, BILINEAR, cp, _noise(config.seed))
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
        record.best_x,
        record.best_y,
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
    assert a.best_value_trace.tobytes() == b.best_value_trace.tobytes()


def test_projection_keeps_every_step_inside_box():
    config = _cfg(sigma_x=4.0, sigma_y=4.0, horizon=3.0, seed=2)
    for ensemble, _, _ in trajectory(config, FORSAKEN):
        assert np.all((ensemble.xs >= -1.5) & (ensemble.xs <= 1.5))
        assert np.all((ensemble.ys >= -1.5) & (ensemble.ys <= 1.5))


def test_trajectory_yields_every_state_and_counts_like_run():
    config = _cfg(horizon=2.0, seed=8)
    record = run(config, FORSAKEN)
    indices, pairs = [], []
    for ensemble, cp, (bx, by, bval) in trajectory(config, FORSAKEN):
        indices.append(ensemble.step_index)
        pairs.append((bx, by, bval))
        assert bx.shape == by.shape == (1,) and cp.y_cons_per_particle.shape == (10, 1)
    assert indices == list(range(config.n_steps + 1)) == list(range(21))
    assert [(bx.tobytes(), by.tobytes()) for bx, by, _ in pairs] == [
        (bx.tobytes(), by.tobytes()) for bx, by in zip(record.best_x, record.best_y)
    ]
    assert [bval for _, _, bval in pairs] == record.best_value_trace.tolist()
    assert record.eval_count == 21 * (100 + 10)
    assert ensemble.xs.tobytes() == record.final_ensemble.xs.tobytes()
    assert ensemble.ys.tobytes() == record.final_ensemble.ys.tobytes()


def test_eval_count_equals_the_evaluations_made():
    # fn tallies the broadcast size of every call it gets, whichever path makes the call; the tallies
    # live in shared memory, so the calls of a run's forked consensus helper count too
    tally = np.frombuffer(mmap.mmap(-1, 32), np.int64).reshape(2, 2)  # [calls, entries] here, then in the helper
    here = os.getpid()

    def tallied(x, y):
        tally[int(os.getpid() != here)] += 1, math.prod(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
        return x[..., 0] * y[..., 0]

    obj = ObjectiveFunction("tallied", 1, 1, BILINEAR.domain_x, BILINEAR.domain_y, tallied)
    for n, horizon in ((5, 15.0), (1000, 0.2)):  # N=1000: 3 states of 32 row blocks each
        tally[:] = 0
        record = run(_cfg(n_particles=n, horizon=horizon), obj)
        assert tally[:, 1].sum() == record.eval_count == len(record) * n * (n + 1), n
    # each state's 32 pair blocks and its outer call here, or on two workers 16 of the blocks in the helper
    assert tally[:, 0].tolist() == ([3 * (32 + 1), 0] if consensus._usable_cpus() == 1 else [3 * (16 + 1), 3 * 16])
    config, seeds = _cfg(n_particles=7, horizon=2.0), [4, 9, 2]
    tally[:] = 0
    for _ in trajectory(config, obj, seeds):
        pass
    assert tally[:, 1].sum() == len(seeds) * (config.n_steps + 1) * 7 * 8


@pytest.mark.parametrize("consumer", ["run", "sweep_trial"] + [f"consensus_points-{n}" for n in BUILT_IN_IDS])
def test_no_pair_matrix_held_at_n1000(consumer):
    # one 1000 x 1000 pair matrix is 7.6 MiB; a peak below half of it rules out any whole matrix built or
    # kept, and leaves room for the row blocks in flight (measured peaks 0.7-1.5 MiB)
    config = _cfg(n_particles=1000, dt_y=0.01, horizon=0.05, seed=3, init="uniform_box")
    ref = benchmark_reference("forsaken")
    if consumer == "run":
        call = lambda: run(config, FORSAKEN, reference=ref)
    elif consumer == "sweep_trial":
        call = lambda: harness._sweep_trials(FORSAKEN, ref, config, [config.seed])
    else:
        obj = make_benchmark(consumer.split("-", 1)[1])
        ensemble = initialize(config, obj)
        call = lambda: consensus_points(obj, ensemble.xs, ensemble.ys, config.alpha, config.beta)
    gc.collect()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 1000 * 8 // 2


def test_epsilon_one_matches_single_timescale_update():
    # with epsilon = 1 the x-update must use exactly the y step size
    config = _cfg(epsilon_scale=1.0, seed=6, project=False)
    ens = initialize(config, BILINEAR)
    from minmaxcbo.consensus import consensus_points

    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    nxt = _advance(ens, config, BILINEAR, cp, _noise(config.seed))
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
    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    base = _advance(ens, config, BILINEAR, cp, _noise(config.seed))
    perm = np.random.default_rng(0).permutation(8)
    from minmaxcbo.dynamics import Ensemble

    shuffled = Ensemble(xs=ens.xs[perm], ys=ens.ys[perm], step_index=0)
    cp, _ = consensus_points(BILINEAR, shuffled.xs, shuffled.ys, config.alpha, config.beta)
    stepped = _advance(shuffled, config, BILINEAR, cp, _noise(config.seed))
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
    # lambda = sigma = 1 satisfies the contraction condition 2 * lambda > sigma^2
    config = SolverConfig(
        n_particles=200,
        sigma_x=1.0,
        sigma_y=1.0,
        dt_y=0.01,
        horizon=5.0,
        seed=0,
    )
    record = run(config, BILINEAR, reference=benchmark_reference("bilinear"))
    assert fit_decay_rate(record.times, record.variance_total) <= -0.25


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(dt_y=1.5)
    with pytest.raises(ConfigError):
        _cfg(dt_y=0.3, epsilon_scale=5.0)  # dt_x = 1.5
    with pytest.raises(ConfigError):
        _cfg(n_particles=0)
    with pytest.raises(ConfigError):
        _cfg(horizon=-1.0)
    # 2**32 - 1 steps are the most a run may take
    assert SolverConfig(horizon=(2**32 - 1) / 2, dt_y=0.5).n_steps == 2**32 - 1
    for horizon, dt_y in ((2**32 / 2, 0.5), (1e308, 0.5), (0.3, 1e-300)):
        with pytest.raises(ConfigError, match="must not exceed 4294967295 steps"):
            SolverConfig(horizon=horizon, dt_y=dt_y)
    with pytest.raises(ConfigError):
        SolverConfig(diffusion="banana")
    with pytest.raises(ConfigError):
        SolverConfig(init="everywhere")
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "alpha", "beta", "horizon"):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                _cfg(**{name: bad})
        with pytest.raises(ConfigError, match="finite"):
            SolverConfig(init="gaussian", init_mean=bad)
        with pytest.raises(ConfigError, match="finite"):
            SolverConfig(init_std=bad)
    # n_particles and seed must be integers, the other numbers reals
    for name, bad in (("n_particles", 10.5), ("seed", 1.5), ("seed", "3"), ("alpha", "1"), ("dt_y", None),
                      ("epsilon_scale", "1"), ("init_std", 1j)):
        with pytest.raises(ConfigError, match=name):
            _cfg(**{name: bad})
    assert _cfg(n_particles=np.int64(5), seed=np.uint32(3), alpha=np.float32(2.0), horizon=1).n_particles == 5
    assert _cfg(project=np.False_).project is np.False_
    # replace builds a new config, so no change of a field escapes validation
    with pytest.raises(ConfigError):
        replace(_cfg(), dt_y=1.5)
    with pytest.raises(FrozenInstanceError):
        _cfg().dt_y = 1.5


@pytest.mark.parametrize("project", ["false", "true", 0, 1, 1.0, None])
def test_project_must_be_a_bool(project):
    # any truthy value used to project, the string "false" included
    with pytest.raises(ConfigError, match="^project must be a bool"):
        _cfg(project=project)


@pytest.mark.parametrize("name", ["n_particles", "seed"])
@pytest.mark.parametrize("flag", [True, False])
def test_integer_fields_reject_bools(name, flag):
    # bool is a numbers.Integral, so SolverConfig(n_particles=True, seed=False) used to construct
    with pytest.raises(ConfigError, match=f"^{name} must be an integer >= {int(name == 'n_particles')}, got {flag}$"):
        _cfg(**{name: flag})


def test_non_finite_state_raises_numerical_error():
    config = _cfg(sigma_x=1e308, sigma_y=1e308, project=False, seed=0)
    ens = initialize(config, BILINEAR)
    cp, _ = consensus_points(BILINEAR, ens.xs, ens.ys, config.alpha, config.beta)
    with pytest.raises(NumericalError, match="step 0"):
        _advance(ens, config, BILINEAR, cp, _noise(config.seed))


@settings(max_examples=80, deadline=None)
@given(bad=st.sampled_from([np.nan, np.inf, -np.inf, "overflow"]), population=st.sampled_from("xy"),
       trials=st.sampled_from([None, 2]), n=st.sampled_from([1, 4, 20]), d=st.sampled_from([1, 2]), data=st.data())
def test_a_non_finite_state_anywhere_raises_with_its_particle(bad, population, trials, n, d, data):
    # a non-finite input makes its particle NaN (inf - inf); "overflow" gives one coordinate a deviation of
    # 1e300 at sigma = 1e308, so its noise term, and the new state there, is +inf or -inf
    t, i, c = (data.draw(st.integers(0, (trials or 1) - 1)), data.draw(st.integers(0, n - 1)),
               data.draw(st.integers(0, d - 1)))
    box = BoxDomain(np.full(d, -1.0), np.full(d, 1.0))
    obj = ObjectiveFunction("flat", d, d, box, box, lambda x, y: x[..., 0] * 0.0)
    sigma = 1e308 if bad == "overflow" else 1.5
    config = _cfg(n_particles=n, project=False, sigma_x=sigma, sigma_y=sigma)
    lead, at = ((), ()) if trials is None else ((trials,), (t,))
    xs, ys = np.zeros((*lead, n, d)), np.zeros((*lead, n, d))
    (xs if population == "x" else ys)[(*at, i, c)] = 1e300 if bad == "overflow" else bad
    cp = ConsensusPoint(x_cons=np.zeros((*lead, d)), y_cons_per_particle=np.zeros((*lead, n, d)))
    particle = i if trials is None else (t, i)
    message = f"non-finite {population}-state after step 3 at particle {particle}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        _advance(Ensemble(xs, ys, 3), config, obj, cp, _noise(*range(trials or 1)))


def test_finite_states_whose_sum_overflows_step_on():
    # every particle sits at its consensus, 1e308, so it stays there; the sum of the state overflows
    config = _cfg(n_particles=4, project=False)
    xs, ys = np.full((4, 1), 1e308), np.full((4, 1), -1e308)
    cp = ConsensusPoint(x_cons=np.full(1, 1e308), y_cons_per_particle=np.full((4, 1), -1e308))
    stepped = _advance(Ensemble(xs, ys, 0), config, BILINEAR, cp, _noise(0))
    assert stepped.xs.tobytes() == xs.tobytes() and stepped.ys.tobytes() == ys.tobytes()


_SERIES = ("times", "variance_x", "variance_y", "spread_x", "spread_y", "mean_x", "mean_y",
           "best_x", "best_y", "best_value_trace", "best_error_trace")


@pytest.mark.parametrize("n, d, steps", [(1000, 1, 1), (256, 2, 2), (20, 1, 51), (5, 2, 102), (1, 1, 1024)])
def test_step_noise_is_the_row_of_its_keyed_chunk_bitwise(n, d, steps):
    # with deviation 1, lambda * dt = 1 and sigma * sqrt(dt) = 1, a state after the step is its noise
    assert steps == max(1, dynamics._NOISE_FLOATS // (n * d))
    box = BoxDomain(np.full(d, -1.0), np.full(d, 1.0))
    obj = ObjectiveFunction("flat", d, d, box, box, lambda x, y: x[..., 0] * 0.0)
    config = _cfg(n_particles=n, lambda_x=4.0, lambda_y=4.0, sigma_x=2.0, sigma_y=2.0, dt_y=0.25, project=False)
    cp = ConsensusPoint(x_cons=np.zeros(d), y_cons_per_particle=np.zeros((n, d)))
    seed, noise = 2**64 + 5, _noise(2**64 + 5)
    for k in (steps - 1, steps, 2 * steps):
        stepped = _advance(Ensemble(np.ones((n, d)), np.ones((n, d)), k), config, obj, cp, noise)
        for got, tag in ((stepped.xs, _TAG_STEP_X), (stepped.ys, _TAG_STEP_Y)):
            want = _rng(seed, tag, k // steps).standard_normal((steps, n, d))[k % steps]
            assert got.tobytes() == want.tobytes(), (k, tag)


def test_run_at_a_wide_seed_equals_the_run_with_numpy_keyed_generators(monkeypatch):
    # 150 steps cross the noise chunk edge at step 85 (N * d = 12); the seed takes two 32-bit words
    config = _cfg(n_particles=12, horizon=15.0, seed=2**32 + 11, init="border")
    ref = benchmark_reference("forsaken")
    chunked = run(config, FORSAKEN, reference=ref)

    def draw(noise, tag, k, shape):  # one keyed generator per call, no buffer
        steps = max(1, dynamics._NOISE_FLOATS // math.prod(shape))
        return _rng(noise.seeds[0], tag, k // steps).standard_normal((steps, *shape))[k % steps]

    monkeypatch.setattr(_StepNoise, "draw", draw)
    reference = run(config, FORSAKEN, reference=ref)
    for name in _SERIES:
        assert getattr(chunked, name).tobytes() == getattr(reference, name).tobytes(), name
    assert chunked.final_ensemble.xs.tobytes() == reference.final_ensemble.xs.tobytes()
    assert chunked.final_ensemble.ys.tobytes() == reference.final_ensemble.ys.tobytes()


def _reference_record(config, obj, reference):
    """The series of run, recorded one state at a time with the per-state formulas."""

    def nearest_y_sq(ys, ref):
        if ref.y_free:
            return np.zeros(ys.shape[0])
        return np.min(np.sum((ys[:, None, :] - ref.y_star_set[None, :, :]) ** 2, axis=2), axis=1)

    series = {name: [] for name in _SERIES}
    for ensemble, _, (bx, by, bval) in trajectory(config, obj):
        xs, ys = ensemble.xs, ensemble.ys
        series["times"].append(ensemble.step_index * config.dt_y)
        if reference is not None:
            vx = float(np.mean(np.sum((xs - reference.x_star) ** 2, axis=1)))
            vy = float(np.mean(nearest_y_sq(ys, reference)))
            err = float(np.sum((bx - reference.x_star) ** 2)) + float(nearest_y_sq(by[None, :], reference)[0])
        else:
            vx = vy = err = float("nan")
        series["variance_x"].append(vx)
        series["variance_y"].append(vy)
        series["spread_x"].append(float(np.max(xs.max(axis=0) - xs.min(axis=0))))
        series["spread_y"].append(float(np.max(ys.max(axis=0) - ys.min(axis=0))))
        series["mean_x"].append(xs.mean(axis=0))
        series["mean_y"].append(ys.mean(axis=0))
        series["best_x"].append(bx)
        series["best_y"].append(by)
        series["best_value_trace"].append(bval)
        series["best_error_trace"].append(err)
    return {name: np.array(values) for name, values in series.items()}


def _two_dim_saddle(x, y):
    return np.sum(x * y, axis=-1) + 0.25 * np.sum(x**2, axis=-1) - 0.5 * (y[..., 0] - 0.5) ** 2 - 0.25 * y[..., 1] ** 2


_SQUARE = BoxDomain(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
_TWO_DIM = ObjectiveFunction("two_dim", 2, 2, _SQUARE, _SQUARE, _two_dim_saddle)
_TWO_DIM_REF = ReferencePoint(np.array([0.1, -0.2]), np.array([[0.5, 0.0], [-0.5, 1.0]]))


@pytest.mark.parametrize(
    "name, n, horizon, with_reference",
    [(name, 20, 15.0, True) for name in BUILT_IN_IDS]  # 151 rows: a chunk of 102, then a partial one of 49
    + [
        ("bilinearly_coupled", 20, 15.0, False),
        ("forsaken", 1, 3.0, True),  # 31 rows in one partial chunk of 2048
        ("forsaken", 1000, 0.05, True),  # 6 rows in full chunks of 2
        ("two_dim", 20, 15.0, True),  # chunks of 51
        ("two_dim", 1100, 0.03, False),  # chunks of one state
    ],
)
def test_run_series_equal_per_state_reference_bitwise(name, n, horizon, with_reference):
    obj = _TWO_DIM if name == "two_dim" else make_benchmark(name)
    ref = (_TWO_DIM_REF if name == "two_dim" else benchmark_reference(name)) if with_reference else None
    dt = 0.01 if n >= 1000 else 0.1
    config = _cfg(n_particles=n, horizon=horizon, dt_y=dt, seed=5, init="uniform_box")
    record = run(config, obj, reference=ref)
    expected = _reference_record(config, obj, ref)
    assert len(record) == config.n_steps + 1
    for series in _SERIES:
        got = getattr(record, series)
        assert got.shape == expected[series].shape and got.tobytes() == expected[series].tobytes(), series


def _random_ensembles(obj, n_trials, n, seed):
    rng = np.random.default_rng([n_trials, n, seed])
    xs = rng.uniform(obj.domain_x.lower, obj.domain_x.upper, (n_trials, n, obj.dim_x))
    ys = rng.uniform(obj.domain_y.lower, obj.domain_y.upper, (n_trials, n, obj.dim_y))
    return xs, ys


@pytest.mark.parametrize("name", list(BUILT_IN_IDS) + ["two_dim"])
@pytest.mark.parametrize("n_trials, n", [(1, 7), (3, 10), (5, 160), (2, 1000)])  # N=1000: 32 row blocks
def test_batched_kernel_equals_each_trial_alone_bitwise(name, n_trials, n):
    obj = _TWO_DIM if name == "two_dim" else make_benchmark(name)
    xs, ys = _random_ensembles(obj, n_trials, n, 0)
    config = _cfg(n_particles=n, diffusion="isotropic" if name == "two_dim" else "anisotropic", project=False)
    seeds = tuple(range(40, 40 + n_trials))
    cp, (bx, by, value) = consensus_points(obj, xs, ys, 30.0, 1e4)
    assert value.shape == (n_trials,)
    cps = []
    for t in range(n_trials):
        cp_t, (bx_t, by_t, value_t) = consensus_points(obj, xs[t], ys[t], 30.0, 1e4)
        got = (cp.x_cons[t], cp.y_cons_per_particle[t], bx[t], by[t], value[t])
        want = (cp_t.x_cons, cp_t.y_cons_per_particle, bx_t, by_t, np.float64(value_t))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (name, t)
        cps.append(cp_t)
    # step 3, then the last step of the x-noise's first chunk and the first step of its second
    edge = max(1, dynamics._NOISE_FLOATS // (n * obj.dim_x))
    batch, alone = _noise(*seeds), [_noise(seed) for seed in seeds]
    for k in (3, edge - 1, edge):
        stepped = _advance(Ensemble(xs, ys, k), config, obj, cp, batch)
        assert stepped.step_index == k + 1
        for t in range(n_trials):
            one = _advance(Ensemble(xs[t], ys[t], k), config, obj, cps[t], alone[t])
            assert stepped.xs[t].tobytes() == one.xs.tobytes() and stepped.ys[t].tobytes() == one.ys.tobytes(), k


@pytest.mark.parametrize("seeds", [[], np.array([], dtype=np.int64)])
def test_a_batch_of_no_seeds_raises_input_error(seeds):
    with pytest.raises(InputError, match="at least one seed"):
        next(trajectory(_cfg(), BILINEAR, seeds))


def test_batch_errors_name_the_failing_trial():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    obj = ObjectiveFunction("hole", 1, 1, box, box,
                            lambda x, y: np.where(x[..., 0] == 0.5, np.nan, x[..., 0] * y[..., 0]))
    xs, ys = np.zeros((3, 4, 1)), np.zeros((3, 4, 1))
    xs[2, 1, 0] = 0.5
    message = r"^non-finite objective value in consensus pair matrix at particle index \(2, 1, 0\)$"
    with pytest.raises(NumericalError, match=message):
        consensus_points(obj, xs, ys, 1.0, 1.0)
    message = r"^non-finite objective value in consensus pair matrix at particle index \(1, 0\)$"
    with pytest.raises(NumericalError, match=message):
        consensus_points(obj, xs[2], ys[2], 1.0, 1.0)
    # a state that overflows in trial 1 only
    config = _cfg(n_particles=4, project=False)
    xs, ys = np.zeros((2, 4, 1)), np.zeros((2, 4, 1))
    xs[1, 3, 0] = 1e308
    cp = ConsensusPoint(x_cons=np.array([[0.0], [-1e308]]), y_cons_per_particle=np.zeros((2, 4, 1)))
    with pytest.raises(NumericalError, match=r"^non-finite x-state after step 0 at particle \(1, 3\)$"):
        _advance(Ensemble(xs, ys, 0), config, BILINEAR, cp, _noise(5, 6))
    # that trial alone, as a single run, names the particle only
    alone = ConsensusPoint(x_cons=cp.x_cons[1], y_cons_per_particle=cp.y_cons_per_particle[1])
    with pytest.raises(NumericalError, match=r"^non-finite x-state after step 0 at particle 3$"):
        _advance(Ensemble(xs[1], ys[1], 0), config, BILINEAR, alone, _noise(6))


def _bounded(x, y):
    return np.tanh(x[..., 0]) * np.tanh(y[..., 0])


def test_trial_whose_state_overflows_fails_its_batch_and_reads_nan_in_the_sweep():
    # at sigma = 3e28 the states grow by about 1e28 per step; of seeds 7-14, the state of seed 13 alone
    # overflows within the 11 steps
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    obj = ObjectiveFunction("bounded", 1, 1, box, box, _bounded)
    ref = ReferencePoint(np.array([0.0]), np.array([[0.0]]))
    config = _cfg(n_particles=5, sigma_x=3e28, sigma_y=3e28, horizon=1.1, project=False)
    seeds = list(range(7, 15))
    with pytest.raises(NumericalError, match="-state after step"):
        for _ in trajectory(config, obj, seeds):
            pass
    with np.errstate(over="ignore"):  # the surviving states pass 1e154, whose squared error is inf
        errors = harness._sweep_trials(obj, ref, config, seeds)
        survivors = [seed for seed, error in zip(seeds, errors) if not math.isnan(error)]
        for ensemble, _, (bx, by, value) in trajectory(config, obj, survivors):
            pass
        for seed, error in zip(seeds, errors):
            try:
                alone = run(replace(config, seed=seed), obj)
            except NumericalError as exc:
                assert "x-state" in str(exc) or "y-state" in str(exc)
                assert math.isnan(error), seed
                continue
            assert error.hex() == error_to_reference((alone.best_x[-1], alone.best_y[-1]), ref).hex(), seed
            t = survivors.index(seed)
            assert ensemble.xs[t].tobytes() == alone.final_ensemble.xs.tobytes()
            assert ensemble.ys[t].tobytes() == alone.final_ensemble.ys.tobytes()
            assert (bx[t].tobytes(), by[t].tobytes(), value[t]) == (
                alone.best_x[-1].tobytes(), alone.best_y[-1].tobytes(), alone.best_value_trace[-1])
    assert 0 < len(survivors) < len(seeds)


def _states(config, obj, seeds=None):
    """The bytes of every state of a run, or of a batch, and of its best pairs."""
    return [(e.xs.tobytes(), e.ys.tobytes(), bx.tobytes(), by.tobytes(), np.asarray(value).tobytes())
            for e, _, (bx, by, value) in trajectory(config, obj, seeds)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(BUILT_IN_IDS + ("two_dim",)),
    n=st.one_of(st.sampled_from([1, 256, 257, 300]), st.integers(1, 300)),
    n_trials=st.integers(1, 4),
    steps=st.integers(1, 3),
    init=st.sampled_from(dynamics.INIT_MODES),
    project=st.booleans(),
    diffusion=st.sampled_from(dynamics.DIFFUSION_MODES),
    first_seed=st.integers(0, 2**64),
)
def test_a_batch_on_one_worker_or_two_is_each_seed_alone_bitwise(
    name, n, n_trials, steps, init, project, diffusion, first_seed
):
    # N = 257 on is where the rows split into blocks and a run forks its helper on two workers
    obj = _TWO_DIM if name == "two_dim" else make_benchmark(name)
    config = _cfg(n_particles=n, horizon=0.1 * steps, init=init, project=project, diffusion=diffusion)
    seeds = [first_seed + 7 * t for t in range(n_trials)]
    batch = {}
    with pytest.MonkeyPatch.context() as patch:
        for cpus in (1, 2):
            patch.setattr(consensus, "_usable_cpus", lambda cpus=cpus: cpus)
            batch[cpus] = _states(config, obj, seeds)
    assert batch[1] == batch[2]
    assert len(batch[1]) == steps + 1
    for t, seed in enumerate(seeds):
        alone = _states(replace(config, seed=seed), obj)
        for state, state_alone in zip(batch[1], alone):
            xs, ys, bx, by, value = (np.frombuffer(b) for b in state)
            trial = (xs.reshape(n_trials, -1)[t], ys.reshape(n_trials, -1)[t], bx.reshape(n_trials, -1)[t],
                     by.reshape(n_trials, -1)[t], value[t : t + 1])
            assert tuple(a.tobytes() for a in trial) == state_alone, (seed, t)
