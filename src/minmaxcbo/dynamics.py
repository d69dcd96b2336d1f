"""Euler-Maruyama time stepper for the coupled two-population particle system.

Each iteration advances both populations simultaneously from the same
frozen consensus data (no sequential mixing).  The x-population may run on
a slower clock: its step size is epsilon_scale times the y step size, with
drift scaled accordingly and noise by the square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random import SeedSequence, default_rng

from .consensus import ConsensusPoint, consensus_points
from .diagnostics import RunRecord, best_pair_from_matrix, error_to_reference, spread, variance
from .errors import ConfigError, NumericalError
from .objectives import ObjectiveFunction, ReferencePoint

__all__ = ["InitSpec", "SolverConfig", "Ensemble", "initialize", "step", "trajectory", "run"]

INIT_MODES = ("uniform_box", "border", "gaussian")
DIFFUSION_MODES = ("anisotropic", "isotropic")

# Stream tags for the keyed generator: (seed, tag, step) identifies every
# draw, so no execution order can reshuffle noise between runs.
_TAG_INIT_X, _TAG_INIT_Y, _TAG_STEP_X, _TAG_STEP_Y, _TAG_INIT_AUX = 0, 1, 2, 3, 4


def _rng(seed: int, tag: int, step_index: int):
    return default_rng(SeedSequence(seed, spawn_key=(tag, step_index)))


@dataclass
class InitSpec:
    """How the initial particle positions are drawn.

    border mode puts each joint particle (X^i, Y^i) on the boundary of the
    product search box: one coordinate sits at a face chosen uniformly
    among the 2*(d1+d2) faces, the rest are uniform.
    """

    mode: str = "uniform_box"
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.mode not in INIT_MODES:
            raise ConfigError(f"init mode must be one of {INIT_MODES}, got {self.mode!r}")
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ConfigError(f"init mean and std must be finite, got {self.mean!r} and {self.std!r}")
        if self.mode == "gaussian" and not self.std > 0:
            raise ConfigError("gaussian init requires std > 0")


@dataclass
class SolverConfig:
    """Parameters of the particle dynamics.

    dt_y is the master step size; the x-population uses dt_x =
    epsilon_scale * dt_y.  When check_decay_regime is set, the config
    enforces the contraction condition 2*lambda > sigma^2 for both
    populations.
    """

    n_particles: int = 20
    lambda_x: float = 1.0
    lambda_y: float = 1.0
    sigma_x: float = 1.5
    sigma_y: float = 1.5
    alpha: float = 1e4
    beta: float = 1e4
    dt_y: float = 0.1
    epsilon_scale: float = 1.0
    horizon: float = 15.0
    diffusion: str = "anisotropic"
    seed: int = 0
    init: InitSpec = field(default_factory=InitSpec)
    project: bool = True
    check_decay_regime: bool = False

    @property
    def dt_x(self) -> float:
        return self.epsilon_scale * self.dt_y

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt_y - 1e-9))

    def validate(self) -> "SolverConfig":
        for name in ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "alpha", "beta", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_particles < 1:
            raise ConfigError("n_particles must be >= 1")
        if self.lambda_x <= 0 or self.lambda_y <= 0:
            raise ConfigError("drift parameters lambda must be > 0")
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise ConfigError("diffusion parameters sigma must be >= 0")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be >= 0")
        if not 0 < self.dt_y < 1:
            raise ConfigError("dt_y must lie in (0, 1)")
        if not 0 < self.dt_x < 1:
            raise ConfigError("dt_x = epsilon_scale * dt_y must lie in (0, 1)")
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0")
        if self.diffusion not in DIFFUSION_MODES:
            raise ConfigError(f"diffusion must be one of {DIFFUSION_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.check_decay_regime:
            for lam, sig, name in ((self.lambda_x, self.sigma_x, "x"), (self.lambda_y, self.sigma_y, "y")):
                if not 2 * lam - sig**2 > 0:
                    raise ConfigError(f"decay regime requires 2*lambda > sigma^2 in {name}")
        return self


@dataclass
class Ensemble:
    """State of the 2N coupled particles; rows are particles."""

    xs: np.ndarray
    ys: np.ndarray
    step_index: int = 0
    seed: int = 0

    @property
    def n_particles(self) -> int:
        return self.xs.shape[0]


def initialize(config: SolverConfig, obj: ObjectiveFunction) -> Ensemble:
    """Draw the initial ensemble from the seeded generator per the init spec."""
    config.validate()
    n, mode = config.n_particles, config.init.mode
    box_x, box_y = obj.domain_x, obj.domain_y
    if mode in ("uniform_box", "border") and not (box_x.is_bounded and box_y.is_bounded):
        raise ConfigError(f"{mode} initialization requires bounded domains")
    gen_x = _rng(config.seed, _TAG_INIT_X, 0)
    gen_y = _rng(config.seed, _TAG_INIT_Y, 0)
    if mode == "gaussian":
        xs = gen_x.normal(config.init.mean, config.init.std, (n, box_x.dim))
        ys = gen_y.normal(config.init.mean, config.init.std, (n, box_y.dim))
    else:
        xs = gen_x.uniform(box_x.lower, box_x.upper, (n, box_x.dim))
        ys = gen_y.uniform(box_y.lower, box_y.upper, (n, box_y.dim))
    if mode == "border":  # border of the product box
        gen_f = _rng(config.seed, _TAG_INIT_AUX, 0)
        d1, d_total = box_x.dim, box_x.dim + box_y.dim
        faces = gen_f.integers(0, 2 * d_total, n)
        coords, sides = faces // 2, faces % 2
        lo = np.concatenate([box_x.lower, box_y.lower])
        hi = np.concatenate([box_x.upper, box_y.upper])
        for i in range(n):
            k, value = coords[i], (hi if sides[i] else lo)[coords[i]]
            if k < d1:
                xs[i, k] = value
            else:
                ys[i, k - d1] = value
    return Ensemble(xs=xs, ys=ys, step_index=0, seed=config.seed)


def _diffusion_factor(dev: np.ndarray, mode: str) -> np.ndarray:
    """Noise scale per particle: the deviation itself, or its Euclidean norm."""
    if mode == "anisotropic":
        return dev
    return np.linalg.norm(dev, axis=1, keepdims=True)


def _advance(ensemble: Ensemble, config: SolverConfig, obj: ObjectiveFunction, cp: ConsensusPoint) -> Ensemble:
    """Apply one Euler-Maruyama update from precomputed consensus data."""
    k = ensemble.step_index
    dt_x, dt_y = config.dt_x, config.dt_y
    dev_x = ensemble.xs - cp.x_cons[None, :]
    dev_y = ensemble.ys - cp.y_cons_per_particle
    noise_x = _rng(ensemble.seed, _TAG_STEP_X, k).standard_normal(ensemble.xs.shape)
    noise_y = _rng(ensemble.seed, _TAG_STEP_Y, k).standard_normal(ensemble.ys.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite states raise below
        xs = (
            ensemble.xs
            - config.lambda_x * dt_x * dev_x
            + config.sigma_x * math.sqrt(dt_x) * _diffusion_factor(dev_x, config.diffusion) * noise_x
        )
        ys = (
            ensemble.ys
            - config.lambda_y * dt_y * dev_y
            + config.sigma_y * math.sqrt(dt_y) * _diffusion_factor(dev_y, config.diffusion) * noise_y
        )
    if config.project:
        xs = obj.domain_x.clamp(xs)
        ys = obj.domain_y.clamp(ys)
    for arr, name in ((xs, "x"), (ys, "y")):
        if not np.all(np.isfinite(arr)):
            i = int(np.argwhere(~np.isfinite(arr))[0][0])
            raise NumericalError(f"non-finite {name}-state after step {k} at particle {i}")
    return Ensemble(xs=xs, ys=ys, step_index=k + 1, seed=ensemble.seed)


def step(ensemble: Ensemble, config: SolverConfig, obj: ObjectiveFunction) -> Ensemble:
    """One simultaneous update of all particles from the pre-step state."""
    cp, _ = consensus_points(obj, ensemble.xs, ensemble.ys, config.alpha, config.beta)
    return _advance(ensemble, config, obj, cp)


def _record_state(
    record: RunRecord,
    ensemble: Ensemble,
    config: SolverConfig,
    pair_values: np.ndarray,
    reference: ReferencePoint | None,
) -> None:
    record.times.append(ensemble.step_index * config.dt_y)
    if reference is not None:
        vx, vy = variance(ensemble, reference)
    else:
        vx = vy = float("nan")
    record.variance_x.append(vx)
    record.variance_y.append(vy)
    sx, sy = spread(ensemble)
    record.spread_x.append(sx)
    record.spread_y.append(sy)
    record.mean_x.append(ensemble.xs.mean(axis=0))
    record.mean_y.append(ensemble.ys.mean(axis=0))
    bx, by, bval = best_pair_from_matrix(ensemble.xs, ensemble.ys, pair_values)
    record.best_pair_trace.append((bx, by))
    record.best_value_trace.append(bval)
    err = error_to_reference((bx, by), reference) if reference is not None else float("nan")
    record.best_error_trace.append(err)


def trajectory(config: SolverConfig, obj: ObjectiveFunction) -> Iterator[tuple[Ensemble, ConsensusPoint, np.ndarray]]:
    """Yield (ensemble, consensus, pair matrix) for each of the n_steps + 1 states: the one time loop.

    Evaluations are counted on ``obj``; pass ``obj.fresh()`` for a per-run
    count.  Consumers drop the pair matrix (``del``) before asking for the
    next state, so no two N x N matrices are alive at once.
    """
    ensemble = initialize(config, obj)
    for k in range(config.n_steps + 1):
        cp, pair_values = consensus_points(obj, ensemble.xs, ensemble.ys, config.alpha, config.beta)
        yield ensemble, cp, pair_values
        del pair_values
        if k < config.n_steps:
            ensemble = _advance(ensemble, config, obj, cp)


def run(config: SolverConfig, obj: ObjectiveFunction, reference: ReferencePoint | None = None) -> RunRecord:
    """Execute ceil(horizon / dt_y) steps and collect the full diagnostics record.

    The record includes the t=0 state, so every series has n_steps + 1
    entries.  Evaluation counting is per-run: the objective handle is
    copied up front and the copy's counter is reported.
    """
    obj = obj.fresh()
    record = RunRecord()
    for ensemble, _, pair_values in trajectory(config, obj):
        _record_state(record, ensemble, config, pair_values, reference)
        del pair_values  # the next state's N x N matrix is built without this one alive
    record.final_ensemble = ensemble
    record.eval_count = obj.eval_count
    return record
