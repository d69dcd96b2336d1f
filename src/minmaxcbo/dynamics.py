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
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from .consensus import ConsensusPoint, _first_non_finite, _second_worker, consensus_points
from .diagnostics import RunRecord, error_to_reference, spread, variance
from .errors import ConfigError, InputError, NumericalError
from .objectives import ObjectiveFunction, ReferencePoint

__all__ = ["SolverConfig", "Ensemble", "initialize", "trajectory", "run"]

INIT_MODES = ("uniform_box", "border", "gaussian")
DIFFUSION_MODES = ("anisotropic", "isotropic")

# Stream tags for the keyed generator: (seed, tag, step) identifies every
# draw, so no execution order can reshuffle noise between runs.
_TAG_INIT_X, _TAG_INIT_Y, _TAG_STEP_X, _TAG_STEP_Y, _TAG_INIT_AUX = 0, 1, 2, 3, 4
# Floats of particle state that run stages before it fills their rows.
_STAGE_FLOATS = 4096


def _rng(seed: int, tag: int, step_index: int):
    """The keyed generator: the reference definition of every draw."""
    return default_rng(SeedSequence(seed, spawn_key=(tag, step_index)))


# numpy's SeedSequence (stable under NEP 19; O'Neill's seed_seq_fe) and the
# PCG64 setseq seeding rule, restated for _KeyedStreams.
_MASK32, _MASK64, _MASK128 = 0xFFFFFFFF, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Steps whose seed words one vectorized pass forms.
_NOISE_CHUNK = 64


def _hashmix(value, h, mult=_MULT_A):
    """seed_seq_fe's hash of ``value`` with constant ``h``.

    Works on ints and on uint64 arrays alike: every product of two 32-bit
    words fits in 64 bits, and masking gives the uint32 result.
    """
    value = ((value ^ h) * ((h * mult) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _schedule(h: int, mult: int, n: int) -> np.ndarray:
    """The n hash constants h, h*mult, h*mult^2, ... (mod 2^32) as a uint64 column."""
    consts = [h]
    for _ in range(n - 1):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint64)[:, None]


# generate_state(4, uint64) hashes the pool words 0-3 twice over with these constants.
_STATE_SOURCES = [0, 1, 2, 3, 0, 1, 2, 3]
_STATE_CONSTS = _schedule(_INIT_B, _MULT_B, 8)


class _KeyedStreams:
    """The keyed generators of one run: ``generator(tag, step)`` is in the state of ``_rng(seed, tag, step)``.

    The entropy of a key is the seed's words padded to the pool size of 4,
    then the tag, then the step, and SeedSequence's hash constants advance
    on a schedule that does not depend on the data.  So the pool after the
    tag is read once per tag from numpy's ``SeedSequence(seed,
    spawn_key=(tag,))``; a chunk of _NOISE_CHUNK steps then mixes its step
    words into it and runs generate_state's output hashes in one pass of
    uint64 arithmetic, and each step's PCG64 (state, inc) follows from its
    four output words by the setseq rule.  Per key, these go to the one
    generator this object reuses: written into its state struct when
    ``_state_words_checked`` passed in this process, else through the
    ``state`` setter.  A step is one 32-bit word, which ``SolverConfig``
    guarantees by capping the step count.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._pools = {}  # tag -> (pool words, hash constants for the step word), uint64 columns
        self._chunks = {}  # tag -> (first step, the PCG64 state and inc of each step)
        self._bitgen = PCG64(0)
        self._gen = Generator(self._bitgen)
        if capsule_pointer := _state_words_checked():
            self._set_pcg_state = functools.partial(_write_state, _state_words(self._bitgen, capsule_pointer))
        else:
            self._set_pcg_state = functools.partial(_set_state, self._bitgen)

    def _pool_after_tag(self, tag: int):
        pool = np.array(SeedSequence(self.seed, spawn_key=(tag,)).pool, dtype=np.uint64)[:, None]
        # mixing the pool hashed each of its max(4, seed words) + 1 entropy words 4 times
        hashed = 4 * (max(4, (int(self.seed).bit_length() + 31) // 32) + 1)
        return pool, _schedule(_INIT_A * pow(_MULT_A, hashed, 1 << 32) & _MASK32, _MULT_A, 4)

    def _chunk(self, tag: int, first: int) -> tuple[int, list[int], list[int]]:
        if tag not in self._pools:
            self._pools[tag] = self._pool_after_tag(tag)
        pool, consts = self._pools[tag]
        steps = np.arange(first, first + _NOISE_CHUNK, dtype=np.uint64)
        pool = _mix(pool, _hashmix(steps, consts))
        out = _hashmix(pool[_STATE_SOURCES], _STATE_CONSTS, _MULT_B)
        seed_hi, seed_lo, inc_hi, inc_lo = (out[0::2] | (out[1::2] << 32)).tolist()
        # the (state, inc) of each step as two 128-bit ints: about half the
        # memory of its four 64-bit words
        incs = [((hi << 65) | (lo << 1) | 1) & _MASK128 for hi, lo in zip(inc_hi, inc_lo)]
        states = [
            ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128 for inc, hi, lo in zip(incs, seed_hi, seed_lo)
        ]
        return first, states, incs

    def generator(self, tag: int, step: int) -> Generator:
        chunk = self._chunks.get(tag)
        if chunk is None or not chunk[0] <= step < chunk[0] + _NOISE_CHUNK:
            chunk = self._chunks[tag] = self._chunk(tag, step - step % _NOISE_CHUNK)
        first, states, incs = chunk
        self._set_pcg_state(states[step - first], incs[step - first])
        return self._gen


def _set_state(bitgen: PCG64, state: int, inc: int) -> None:
    """Set a PCG64's (state, inc) with no buffered uint32 through its ``state`` setter."""
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _state_words(bitgen: PCG64, capsule_pointer):
    """ctypes views of ``bitgen``'s state struct: the four 64-bit words of its (state, inc), then its uint32 buffer.

    The struct's address is the first field of the bitgen_t in
    ``bitgen.capsule``, which ``capsule_pointer`` (PyCapsule_GetPointer)
    reads; ``bitgen.ctypes`` would give it too, but builds about 1 KB of
    function pointers per generator.  numpy's pcg64_state holds a pointer
    to the (state, inc) pair, then the int has_uint32 and the uint32
    uinteger; with a native 128-bit integer the pair is four 64-bit words,
    low word first.  The views borrow memory ``bitgen`` owns.
    """
    import ctypes

    address = ctypes.c_void_p.from_address(capsule_pointer(bitgen.capsule, b"BitGenerator")).value
    pair = ctypes.c_void_p.from_address(address).value
    words = [ctypes.c_uint64.from_address(pair + 8 * k) for k in range(4)]
    return (*words, ctypes.c_uint64.from_address(address + ctypes.sizeof(ctypes.c_void_p)))


def _write_state(views, state: int, inc: int) -> None:
    """What ``_set_state`` sets, written through the ``_state_words`` views of the generator."""
    state_lo, state_hi, inc_lo, inc_hi, buffered = views
    state_lo.value, state_hi.value = state & _MASK64, state >> 64
    inc_lo.value, inc_hi.value = inc & _MASK64, inc >> 64
    buffered.value = 0  # has_uint32 and uinteger


# (state, inc) pairs that _state_words_checked writes: a write that swaps
# words or halves, or drops a word, changes at least one of them.
_CHECK_KEYS = (
    (1, 3),
    (_MASK128, _MASK128),
    (0x0123456789ABCDEF_FEDCBA9876543210, 0xF0E1D2C3B4A59687_1122334455667789),
)


@functools.cache
def _state_words_checked():
    """A private PyCapsule_GetPointer for ``_state_words`` if its writes give the ``state`` setter's states, else None.

    Checked once per process.  The struct layout is a build detail of
    numpy: a build without a native 128-bit integer type keeps each 128-bit
    value as two words in another order.  No view is written unless all lie
    inside the generator object.  Then each check key is written both ways
    over a generator that has just drawn a uint32, so it has one buffered,
    and the ``state`` dicts must agree.
    """
    direct, reference = PCG64(0), PCG64(0)
    try:
        import ctypes  # here, so a process that never steps does not load it

        prototype = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)
        capsule_pointer = prototype(("PyCapsule_GetPointer", ctypes.pythonapi))
        views = _state_words(direct, capsule_pointer)
    except (ImportError, AttributeError, ValueError):  # no ctypes, no CPython C API in it, another capsule name
        return None
    if not all(0 <= ctypes.addressof(v) - id(direct) <= sys.getsizeof(direct) - ctypes.sizeof(v) for v in views):
        return None
    for state, inc in _CHECK_KEYS:
        Generator(direct).integers(0, 2**32 - 1, dtype=np.uint32)
        _write_state(views, state, inc)
        _set_state(reference, state, inc)
        if direct.state != reference.state:
            return None
    return capsule_pointer


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
        for name in ("n_particles", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):  # bool is an Integral
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.project, (bool, np.bool_)):
            raise ConfigError(f"project must be a bool, got {self.project!r}")
        finite = ("lambda_x", "lambda_y", "sigma_x", "sigma_y", "alpha", "beta", "horizon", "init_mean", "init_std")
        for name in (*finite, "dt_y", "epsilon_scale"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if name in finite and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
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
        if not self.horizon / self.dt_y - 1e-9 <= _MASK32:  # the keyed streams key a step by one 32-bit word
            raise ConfigError(f"horizon / dt_y must not exceed {_MASK32} steps, got {self.horizon / self.dt_y:g}")
        if self.diffusion not in DIFFUSION_MODES:
            raise ConfigError(f"diffusion must be one of {DIFFUSION_MODES}, got {self.diffusion!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
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


def _noise(streams: list[_KeyedStreams], tag: int, k: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of shape (N, d), or (T, N, d) for a batch: each trial's own keyed draw (tag, k)."""
    draws = [trial_streams.generator(tag, k).standard_normal(shape[-2:]) for trial_streams in streams]
    return np.stack(draws) if len(shape) == 3 else draws[0]


def _advance(
    ensemble: Ensemble,
    config: SolverConfig,
    obj: ObjectiveFunction,
    cp: ConsensusPoint,
    streams: list[_KeyedStreams],
) -> Ensemble:
    """Apply one Euler-Maruyama update from precomputed consensus data.

    The ensemble is one run or a batch (see ``Ensemble``); ``streams`` are
    the keyed generators of its trials, in order.
    """
    k = ensemble.step_index
    dt_x, dt_y = config.dt_x, config.dt_y
    noise_x = _noise(streams, _TAG_STEP_X, k, ensemble.xs.shape)
    noise_y = _noise(streams, _TAG_STEP_Y, k, ensemble.ys.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite states raise below
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
    return Ensemble(xs=xs, ys=ys, step_index=k + 1)


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
    streams = [_KeyedStreams(seed) for seed in ([config.seed] if seeds is None else seeds)]
    with _second_worker(obj, ensemble.xs.shape, ensemble.ys.shape) as helper:
        for k in range(config.n_steps + 1):
            if k:
                ensemble = _advance(ensemble, config, obj, cp, streams)
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
