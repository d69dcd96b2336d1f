"""Euler-Maruyama time stepper for the coupled two-population particle system.

Each iteration advances both populations simultaneously from the same
frozen consensus data (no sequential mixing).  The x-population may run on
a slower clock: its step size is epsilon_scale times the y step size, with
drift scaled accordingly and noise by the square root.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np
from numpy.random import SeedSequence, default_rng

from .consensus import ConsensusPoint, _first_non_finite, _second_worker, consensus_points
from .diagnostics import RunRecord, error_to_reference, spread, variance
from .errors import ConfigError, InputError, NumericalError, check_counts
from .objectives import ObjectiveFunction, ReferencePoint

__all__ = ["SolverConfig", "Ensemble", "initialize", "trajectory", "run"]

INIT_MODES = ("uniform_box", "border", "gaussian")
DIFFUSION_MODES = ("anisotropic", "isotropic")

# Stream tags for the keyed generator: (seed, tag, index) identifies every
# draw, so no execution order can reshuffle noise between runs.
_TAG_INIT_X, _TAG_INIT_Y, _TAG_STEP_X, _TAG_STEP_Y, _TAG_INIT_AUX = 0, 1, 2, 3, 4
# Floats of particle state that run stages before it fills their rows.
_STAGE_FLOATS = 4096
# Floats of step noise that one keyed draw gives a trial's population: a
# buffer of 8 KiB per trial and step tag.
_NOISE_FLOATS = 1024
# The most steps a run may take: far more than any run could finish, and a
# horizon / dt_y of inf (say 1e308 / 0.5) is turned away before n_steps.
_MAX_STEPS = 2**32 - 1


def _rng(seed: int, tag: int, index: int):
    """The keyed generator: the draws of ``(seed, tag, index)``, for an init draw (index 0) or a chunk of steps."""
    return default_rng(SeedSequence(seed, spawn_key=(tag, index)))


class _StepNoise:
    """The standard normals of the steps of a run, or of a batch with one trial per seed.

    A population of N particles of dimension d takes its noise in chunks of
    S = max(1, _NOISE_FLOATS // (N * d)) steps: step k of the trial of
    ``seed`` reads row k % S of ``_rng(seed, tag, k // S).standard_normal((S,
    N, d))``.  So a draw depends only on (seed, tag, k, N, d), never on the
    other trials of a batch or on the order of the steps.  Each tag keeps
    its current chunk of all trials in one (T, S, N, d) buffer, filled in
    place.
    """

    def __init__(self, seeds: Sequence[int]):
        self.seeds = seeds
        self._chunks = {}  # tag -> (chunk index, buffer)

    def draw(self, tag: int, k: int, shape: tuple[int, ...]) -> np.ndarray:
        """The noise of step k: shape (N, d), or (T, N, d) for a batch."""
        n, d = shape[-2:]
        steps = max(1, _NOISE_FLOATS // (n * d))
        chunk, row = divmod(k, steps)
        held, buffer = self._chunks.get(tag, (None, None))
        if held != chunk:
            if buffer is None:
                buffer = np.empty((len(self.seeds), steps, n, d))
            for seed, out in zip(self.seeds, buffer):
                _rng(seed, tag, chunk).standard_normal(out=out)
            self._chunks[tag] = chunk, buffer
        return buffer[:, row] if len(shape) == 3 else buffer[0, row]


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the particle dynamics, validated on construction.

    dt_y is the master step size; the x-population uses dt_x =
    epsilon_scale * dt_y.  init names how the initial particle positions
    are drawn: uniformly in the box, on its border, or from a gaussian of
    init_mean and init_std.  border mode puts each joint particle
    (X^i, Y^i) on the boundary of the product search box: one coordinate
    sits at a face chosen uniformly among the 2*(d1+d2) faces, the rest are
    uniform.
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
    init: str = "uniform_box"
    init_mean: float = 0.0
    init_std: float = 1.0
    project: bool = True

    @property
    def dt_x(self) -> float:
        return self.epsilon_scale * self.dt_y

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.dt_y - 1e-9))

    def __post_init__(self):
        check_counts(self, {"n_particles": 1, "seed": 0}, ConfigError)
        if not isinstance(self.project, (bool, np.bool_)):
            raise ConfigError(f"project must be a bool, got {self.project!r}")
        finite = ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "alpha", "beta", "horizon", "init_mean", "init_std")
        for name in (*finite, "dt_y", "epsilon_scale"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if name in finite and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
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
        if not self.horizon / self.dt_y - 1e-9 <= _MAX_STEPS:
            raise ConfigError(f"horizon / dt_y must not exceed {_MAX_STEPS} steps, got {self.horizon / self.dt_y:g}")
        if self.diffusion not in DIFFUSION_MODES:
            raise ConfigError(f"diffusion must be one of {DIFFUSION_MODES}, got {self.diffusion!r}")
        if self.init not in INIT_MODES:
            raise ConfigError(f"init mode must be one of {INIT_MODES}, got {self.init!r}")
        if self.init == "gaussian" and not self.init_std > 0:
            raise ConfigError("gaussian init requires init_std > 0")


@dataclass
class Ensemble:
    """State of the 2N coupled particles; rows are particles.

    One run holds (N, d) arrays.  A batch of runs that differ only in their
    seeds holds (T, N, d) arrays, one trial per leading index.
    """

    xs: np.ndarray
    ys: np.ndarray
    step_index: int = 0


def initialize(config: SolverConfig, obj: ObjectiveFunction) -> Ensemble:
    """Draw the initial ensemble from the seeded generator per the config's init mode."""
    n, mode = config.n_particles, config.init
    box_x, box_y = obj.domain_x, obj.domain_y
    if mode in ("uniform_box", "border") and not (box_x.is_bounded and box_y.is_bounded):
        raise ConfigError(f"{mode} initialization requires bounded domains")
    gen_x = _rng(config.seed, _TAG_INIT_X, 0)
    gen_y = _rng(config.seed, _TAG_INIT_Y, 0)
    if mode == "gaussian":
        xs = gen_x.normal(config.init_mean, config.init_std, (n, box_x.dim))
        ys = gen_y.normal(config.init_mean, config.init_std, (n, box_y.dim))
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
        values = np.where(sides, hi[coords], lo[coords])
        on_x = coords < d1
        xs[on_x, coords[on_x]] = values[on_x]
        ys[~on_x, coords[~on_x] - d1] = values[~on_x]
    return Ensemble(xs=xs, ys=ys)


def _diffusion_factor(dev: np.ndarray, mode: str) -> np.ndarray:
    """Noise scale per particle: the deviation itself, or its Euclidean norm."""
    if mode == "anisotropic":
        return dev
    return np.linalg.norm(dev, axis=-1, keepdims=True)


@np.errstate(over="ignore", invalid="ignore")  # non-finite states raise below; cheaper than a with block per call
def _advance(
    ensemble: Ensemble,
    config: SolverConfig,
    obj: ObjectiveFunction,
    cp: ConsensusPoint,
    noise: _StepNoise,
) -> Ensemble:
    """Apply one Euler-Maruyama update from precomputed consensus data.

    The ensemble is one run or a batch (see ``Ensemble``); ``noise`` holds
    the seeds of its trials, in order.
    """
    k = ensemble.step_index
    dt_x, dt_y = config.dt_x, config.dt_y
    noise_x = noise.draw(_TAG_STEP_X, k, ensemble.xs.shape)
    noise_y = noise.draw(_TAG_STEP_Y, k, ensemble.ys.shape)
    dev_x = ensemble.xs - cp.x_cons[..., None, :]
    dev_y = ensemble.ys - cp.y_cons_per_particle
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
        idx = _first_non_finite(arr)
        if idx is not None:
            at = idx[0] if len(idx) == 2 else tuple(idx[:-1])  # (t, i) in a batch
            raise NumericalError(f"non-finite {name}-state after step {k} at particle {at}")
    return Ensemble(xs, ys, k + 1)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc reuse the memory a step frees instead of returning it to the OS, once per process.

    From about N = 128 on, every step allocates and frees arrays of 128 KiB
    and more: the pair block, its weights and the objective's temporaries.
    Under glibc's adaptive thresholds these are mapped and unmapped, or
    trimmed off the heap, at every step, and the next step faults their
    pages in again: about 70 minor faults per N = 160 step, which took
    about 30% of a sweep's CPU time (2 cores, Linux VM).  Fixed thresholds
    keep such arrays in the heap.  ``trajectory`` calls this, so every
    caller that steps gets it, library callers included.  Where the C
    library has no mallopt this does nothing.
    """
    import ctypes  # here, so a process that never steps does not load it

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def trajectory(
    config: SolverConfig, obj: ObjectiveFunction, seeds: Sequence[int] | None = None
) -> Iterator[tuple[Ensemble, ConsensusPoint, tuple[np.ndarray, np.ndarray, float]]]:
    """Yield (ensemble, consensus, best pair) for each of the n_steps + 1 states: the one time loop.

    The best pair is the state's (x, y, value) from ``consensus_points``.
    Without ``seeds`` this is the run of ``config.seed``.  With ``seeds``
    the runs of ``config`` under each of those seeds advance together as
    one batch: every array gains a leading trial axis, trial t being the
    run of ``seeds[t]``.  No trial's arithmetic reads another trial's
    data, so each trial is bitwise the run of its seed alone.  A non-finite
    value in any trial raises NumericalError.

    When the rows of a state split into two or more consensus blocks (N
    from 257 on), the run forks one helper process that evaluates half of
    each state's blocks (``consensus._second_worker``); the results are
    bitwise those of one worker.  The helper is reaped when the run ends,
    raises or is closed early, so no process outlives it.
    """
    if seeds is not None and len(seeds) == 0:
        raise InputError("seeds must hold at least one seed")
    _keep_freed_memory()
    if seeds is None:
        ensemble = initialize(config, obj)
    else:
        runs = [initialize(replace(config, seed=seed), obj) for seed in seeds]
        ensemble = Ensemble(np.stack([e.xs for e in runs]), np.stack([e.ys for e in runs]))
    noise = _StepNoise([config.seed] if seeds is None else seeds)
    with _second_worker(obj, ensemble.xs.shape, ensemble.ys.shape) as helper:
        for k in range(config.n_steps + 1):
            if k:
                ensemble = _advance(ensemble, config, obj, cp, noise)
            cp, best_pair = consensus_points(obj, ensemble.xs, ensemble.ys, config.alpha, config.beta,
                                             _helper=helper)
            yield ensemble, cp, best_pair


def run(config: SolverConfig, obj: ObjectiveFunction, reference: ReferencePoint | None = None) -> RunRecord:
    """Execute ceil(horizon / dt_y) steps and collect the full diagnostics record.

    The record includes the t=0 state, so every series has n_steps + 1
    rows.  Each state's particles are copied into a staging buffer of
    about _STAGE_FLOATS floats, and each full buffer, then the last partial
    one, fills its rows in one vectorized pass.  ``eval_count`` is the
    run's budget by construction: each state evaluates E once per (X^i, Y^j)
    pair and once per outer point (X^i, yhat(X^i)).  numpy's floating-point
    warnings are silenced, as in a sweep: a non-finite state raises
    NumericalError, and a finite state's overflowing metric reads inf.  A
    record that cannot be allocated is a ConfigError.
    """
    n, rows = config.n_particles, config.n_steps + 1
    try:
        record = RunRecord.allocate(rows, obj.dim_x, obj.dim_y)
    except MemoryError as exc:
        size = rows * (7 + 2 * (obj.dim_x + obj.dim_y)) * 8  # 7 series of one float per state, 4 of d floats
        raise ConfigError(
            f"the record of {rows} states needs {size / 2**30:.1f} GiB, more than can be allocated;"
            " use a shorter horizon or a larger dt"
        ) from exc
    record.times[:] = np.arange(rows) * config.dt_y
    chunk = max(1, _STAGE_FLOATS // (n * (obj.dim_x + obj.dim_y)))
    stage_x, stage_y = np.empty((chunk, n, obj.dim_x)), np.empty((chunk, n, obj.dim_y))
    with np.errstate(all="ignore"):
        for ensemble, _, (bx, by, bval) in trajectory(config, obj):
            k = ensemble.step_index
            i = k % chunk
            stage_x[i], stage_y[i] = ensemble.xs, ensemble.ys
            record.best_x[k], record.best_y[k], record.best_value_trace[k] = bx, by, bval
            if i == chunk - 1 or k == rows - 1:
                filled = slice(k - i, k + 1)
                states = Ensemble(xs=stage_x[: i + 1], ys=stage_y[: i + 1])
                if reference is not None:
                    record.variance_x[filled], record.variance_y[filled] = variance(states, reference)
                record.spread_x[filled], record.spread_y[filled] = spread(states)
                record.mean_x[filled], record.mean_y[filled] = states.xs.mean(axis=-2), states.ys.mean(axis=-2)
        if reference is not None:
            record.best_error_trace[:] = error_to_reference((record.best_x, record.best_y), reference)
    record.final_ensemble = ensemble
    record.eval_count = rows * n * (n + 1)
    return record
