import csv
import itertools
import math
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmaxcbo import (
    ConfigError,
    GdaConfig,
    GridSpec,
    InputError,
    NumericalError,
    ReferencePoint,
    SolverConfig,
    SweepSpec,
    benchmark_reference,
    run,
    run_sweep,
)
from minmaxcbo import dynamics, harness
from minmaxcbo.harness import (
    CONFIG_KEYS,
    RUN_CSV_SCHEMA,
    SWEEP_CSV_SCHEMA,
    SWEEP_PARAMETERS,
    TRIAL_CSV_SCHEMA,
    TrialSummary,
    apply_overrides,
    benchmark_config,
    nearest_rank_quantile,
    parse_config_file,
    run_benchmark,
    write_run_csv,
    write_sweep_csv,
)
from minmaxcbo.diagnostics import RunRecord, error_to_reference
from minmaxcbo.cli import main
from minmaxcbo.objectives import BoxDomain, ObjectiveFunction, make_benchmark, register_benchmark

BUILT_IN_IDS = ("bilinear", "bivariate", "bilinearly_coupled", "forsaken", "sixth_order", "remark_function")


def test_nearest_rank_quantile_rules():
    vals = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    assert nearest_rank_quantile(vals, 0.2) == 1.0  # ceil(1) -> rank 1
    assert nearest_rank_quantile(vals, 0.5) == 3.0  # ceil(2.5) -> rank 3
    assert nearest_rank_quantile(vals, 0.8) == 4.0  # ceil(4) -> rank 4
    single = np.array([7.0])
    assert (
        nearest_rank_quantile(single, 0.2)
        == nearest_rank_quantile(single, 0.5)
        == nearest_rank_quantile(single, 0.8)
        == 7.0
    )


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        """
        # reference parameters
        benchmark = forsaken
        n_particles = 25
        sigma = 1.5      # both populations
        dt = 0.1
        project = true
        box_x = -1.5, 1.5
        """
    )
    values = parse_config_file(path)
    assert values["benchmark"] == "forsaken"
    assert values["n_particles"] == 25
    assert values["sigma"] == 1.5
    assert values["project"] is True
    assert values["box_x"] == (-1.5, 1.5)


@pytest.mark.parametrize("bom", [False, True])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_parse_config_file_reads_a_byte_order_mark_and_crlf(tmp_path, bom, newline):
    # an editor may save UTF-8 with a byte-order mark, which used to read as the key '\ufeffbenchmark'
    path = tmp_path / "run.conf"
    path.write_bytes((("\ufeff" if bom else "") + newline.join(["benchmark = forsaken", "seed = 3", ""])).encode())
    assert parse_config_file(path) == {"benchmark": "forsaken", "seed": 3}


def test_parse_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(path)


def test_parse_config_file_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("n_particles = many\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_apply_overrides_tied_and_scalar_keys():
    config, obj = benchmark_config("bilinear", {"lambda": 2.0, "sigma": 0.7, "dt": 0.05, "epsilon": 0.5})
    assert config.lambda_x == config.lambda_y == 2.0
    assert config.sigma_x == config.sigma_y == 0.7
    assert config.dt_y == 0.05 and config.dt_x == 0.025
    assert obj.name == "bilinear"
    with pytest.raises(ConfigError):
        apply_overrides(config, {"bogus": 1})


def test_benchmark_config_defaults():
    config, _ = benchmark_config("sixth_order")
    assert config.n_particles == 20
    assert config.sigma_x == 1.5
    assert config.alpha == config.beta == 1e4
    assert config.horizon == 30.0  # per-benchmark default
    assert benchmark_config("forsaken")[0].horizon == 15.0


def test_run_benchmark_attaches_reference_error():
    record, config = run_benchmark("forsaken", {"horizon": 2.0, "seed": 1, "n_particles": 8})
    assert math.isfinite(record.best_error_trace[-1])
    assert config.seed == 1


def _tiny_spec(**kw):
    base, obj = benchmark_config("bilinear", {"horizon": 2.0, "init": "border", "seed": 100})
    defaults = dict(parameter="sigma", values=[1.5], objective=obj, base=base, trials=3)
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_sweep_quantile_ordering_and_trial_count():
    summaries = run_sweep(_tiny_spec(values=[0.5, 1.5]))
    assert len(summaries) == 2
    for s in summaries:
        assert len(s.errors) == 3
        assert s.q20 <= s.median_error <= s.q80


def test_sweep_single_trial_collapses_quantiles():
    s = run_sweep(_tiny_spec(trials=1))[0]
    assert s.q20 == s.median_error == s.q80


def test_sweep_more_particles_reduce_error():
    base, obj = benchmark_config("bilinearly_coupled", {"horizon": 50.0, "init": "border", "seed": 300})
    spec = SweepSpec(parameter="n_particles", values=[10, 160], objective=obj, base=base, trials=5)
    med = {s.parameter_value: s.median_error for s in run_sweep(spec)}
    assert med[160.0] < med[10.0]


def test_sweep_records_failures_as_nan():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    register_benchmark("always_inf", lambda x, y: np.full(np.broadcast(x[..., 0], y[..., 0]).shape, np.inf),
                       box, box, reference=ReferencePoint(np.array([0.0]), np.array([[0.0]])))
    base, obj = benchmark_config("always_inf", {"horizon": 1.0, "seed": 0})
    spec = SweepSpec(parameter="sigma", values=[1.0], objective=obj, base=base, trials=2)
    s = run_sweep(spec)[0]
    assert all(math.isnan(e) for e in s.errors)
    assert math.isnan(s.median_error)


def _bounded(x, y):
    return np.tanh(x[..., 0]) * np.tanh(y[..., 0])


def test_sweep_counts_a_finished_trial_of_infinite_error_and_writes_inf(tmp_path):
    # at sigma = 3e28 the states grow by about 1e28 per step: of seeds 7-14 the state of seed 13 overflows,
    # so its trial fails, while the others finish past 1e154, where the squared error is inf
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    register_benchmark("bounded_tanh", _bounded, box, box,
                       reference=ReferencePoint(np.array([0.0]), np.array([[0.0]])))
    base, obj = benchmark_config("bounded_tanh", {"n_particles": 5, "horizon": 1.1, "project": False, "seed": 7})
    spec = SweepSpec(parameter="sigma", values=[3e28], objective=obj, base=base, trials=8)
    summaries = run_sweep(spec)
    s = summaries[0]
    assert [repr(e) for e in s.errors] == ["inf"] * 6 + ["nan"] + ["inf"]
    assert s.median_error == s.q20 == s.q80 == math.inf
    write_sweep_csv(tmp_path / "s.csv", tmp_path / "t.csv", spec, summaries)
    with open(tmp_path / "s.csv", newline="") as fh:
        [row] = list(csv.DictReader(fh))
    summary = (row["median_error"], row["q20"], row["q80"], row["n_ok"], row["trials"])
    assert summary == ("inf", "inf", "inf", "7", "8")
    with open(tmp_path / "t.csv", newline="") as fh:
        assert [r["error"] for r in csv.DictReader(fh)] == ["inf"] * 6 + ["nan"] + ["inf"]


# Values per sweep parameter: N = 300 splits into row blocks, and an unprojected sigma of 1e154 fails every trial.
_SWEPT = {"n_particles": [1, 5, 12, 300], "sigma": [0.5, 1.0, 2.0, 1e154], "alpha_beta": [1.0, 30.0, 1e4],
          "epsilon_scale": [0.5, 1.0, 2.0]}


@st.composite
def _sweeps(draw):
    """(benchmark, base overrides, parameter, values, trials) of a sweep small enough to run three ways."""
    parameter = draw(st.sampled_from(sorted(_SWEPT)))
    base = {"horizon": draw(st.sampled_from([0.3, 1.0])), "init": draw(st.sampled_from(["border", "uniform_box"])),
            "project": draw(st.booleans()), "seed": draw(st.integers(0, 1000))}
    values = draw(st.lists(st.sampled_from(_SWEPT[parameter]), min_size=1, max_size=2, unique=True))
    return draw(st.sampled_from(BUILT_IN_IDS)), base, parameter, values, draw(st.integers(1, 4))


def _hex_rows(summaries):
    return [[float(v).hex() for v in (s.parameter_value, s.median_error, s.q20, s.q80, *s.errors)] for s in summaries]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_sweeps())
@example(("bilinear", {"horizon": 2.0, "init": "border", "seed": 100}, "sigma", [1.0, 2.0], 2))
@example(("forsaken", {"horizon": 0.3, "project": False, "seed": 3}, "sigma", [1e154, 1.0], 3))
def test_a_sweep_on_one_job_or_two_gives_every_trial_its_seed_replayed_alone(drawn):
    name, overrides, parameter, values, trials = drawn
    base, obj = benchmark_config(name, overrides)
    rows = {jobs: run_sweep(SweepSpec(parameter, values, obj, base, trials=trials, jobs=jobs)) for jobs in (1, 2)}
    assert _hex_rows(rows[2]) == _hex_rows(rows[1])
    ref = benchmark_reference(obj.name)
    for value, summary in zip(values, rows[1]):
        config = apply_overrides(base, dict.fromkeys(SWEEP_PARAMETERS[parameter], value))
        alone = [harness._sweep_trials(obj, ref, config, [base.seed + t])[0] for t in range(trials)]
        assert [e.hex() for e in summary.errors] == [e.hex() for e in alone]


def _tilted_saddle(x, y):
    """Module-level, so sweep workers started by spawn can unpickle it."""
    return x[..., 0] * y[..., 0] + 0.25 * x[..., 0] ** 2 - 0.25 * y[..., 0] ** 2


def test_sweep_custom_benchmark_under_spawn_matches_serial(monkeypatch):
    # spawn workers do not inherit the registry; they get the objective itself
    box = BoxDomain(np.array([-2.0]), np.array([2.0]))
    register_benchmark("tilted_saddle", _tilted_saddle, box, box,
                       reference=ReferencePoint(np.array([0.0]), np.array([[0.0]])))
    base, obj = benchmark_config("tilted_saddle", {"horizon": 1.0, "init": "border", "seed": 7})
    serial = run_sweep(SweepSpec(parameter="sigma", values=[0.5, 1.0], objective=obj, base=base, trials=2))
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=spawn))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers, so a pool on one CPU too
    parallel = run_sweep(SweepSpec(parameter="sigma", values=[0.5, 1.0], objective=obj, base=base, trials=2, jobs=2))
    assert [s.errors for s in parallel] == [s.errors for s in serial]
    assert all(math.isfinite(e) for s in serial for e in s.errors)


def test_sweep_fails_fast_without_reference_or_picklable_objective():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    register_benchmark("no_reference", _tilted_saddle, box, box)
    base, obj = benchmark_config("no_reference", {"horizon": 1.0})
    with pytest.raises(ConfigError, match="no reference"):
        SweepSpec(parameter="sigma", values=[1.0], objective=obj, base=base)
    register_benchmark("lambda_saddle", lambda x, y: x[..., 0] * y[..., 0], box, box,
                       reference=ReferencePoint(np.array([0.0]), np.array([[0.0]])))
    base, obj = benchmark_config("lambda_saddle", {"horizon": 1.0})
    SweepSpec(parameter="sigma", values=[1.0], objective=obj, base=base, jobs=1)
    with pytest.raises(ConfigError, match="picklable"):
        SweepSpec(parameter="sigma", values=[1.0], objective=obj, base=base, jobs=2)


def test_sweep_trial_equals_final_error_of_a_recorded_run():
    obj, ref = make_benchmark("forsaken"), benchmark_reference("forsaken")
    for seed in range(6):
        cfg = SolverConfig(n_particles=12, horizon=3.0, seed=seed, init="border")
        record = run(cfg, obj, reference=ref)
        expected = error_to_reference((record.best_x[-1], record.best_y[-1]), ref)
        assert harness._sweep_trials(obj, ref, cfg, [seed])[0].hex() == expected.hex()
    obj, ref = make_benchmark("bilinear"), benchmark_reference("bilinear")
    blowup = SolverConfig(n_particles=10, sigma_x=1e308, sigma_y=1e308, project=False)
    with pytest.raises(NumericalError, match="step 0"):
        run(blowup, obj, reference=ref)
    assert math.isnan(harness._sweep_trials(obj, ref, blowup, [blowup.seed])[0])


def test_sweep_validates_every_trial_before_running(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "_sweep_trials", lambda *args: ran.append(args) or [0.0])
    with pytest.raises(ConfigError, match="sigma_x must be finite"):
        run_sweep(_tiny_spec(values=[1.0, float("nan")]))
    assert ran == []


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration files", 1)[1].split("###", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert sorted(k for row in rows for k in re.findall(r"`(\w+)`", row)) == sorted(CONFIG_KEYS)


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        _tiny_spec(parameter="gravity")
    with pytest.raises(ConfigError):
        _tiny_spec(values=[])
    with pytest.raises(ConfigError):
        _tiny_spec(trials=0)
    assert _tiny_spec(trials=np.int64(2), jobs=np.int32(1)).trials == 2


# Every integer count of the four records, its error type and its lowest value; check_counts checks them all.
_COUNTS = {
    "n_particles": (lambda v: SolverConfig(n_particles=v), ConfigError, 1),
    "seed": (lambda v: SolverConfig(seed=v), ConfigError, 0),
    "trials": (lambda v: _tiny_spec(trials=v), ConfigError, 1),
    "jobs": (lambda v: _tiny_spec(jobs=v), ConfigError, 1),
    "points_per_dim": (lambda v: GridSpec(points_per_dim=v), InputError, 3),
    "refine_rounds": (lambda v: GridSpec(refine_rounds=v), InputError, 0),
    "iterations": (lambda v: GdaConfig(0.1, v, (np.zeros(1), np.zeros(1))), InputError, 0),
}


@pytest.mark.parametrize("name", list(_COUNTS))
def test_every_count_rejects_bools_fractions_and_values_below_its_bound(name):
    build, error, low = _COUNTS[name]
    for bad in (True, False, np.bool_(True), 2.5, low - 1):
        with pytest.raises(error, match=f"^{name} must be an integer >= {low}, got {re.escape(repr(bad))}$"):
            build(bad)
    for good in (low, np.int64(low + 2), np.uint32(low + 1)):
        assert getattr(build(good), name) == good


@pytest.mark.parametrize("name", ["trials", "jobs"])
@pytest.mark.parametrize("value", [2.5, True, np.bool_(True), np.float64(2.0), "2", None])
def test_sweep_spec_rejects_a_count_that_is_not_an_integer(name, value):
    # 2.5 ended in a TypeError from range, and True ran one trial
    with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
        _tiny_spec(**{name: value})


def test_run_csv_schema_and_roundtrip(tmp_path):
    record, _ = run_benchmark("bilinear", {"horizon": 1.0, "seed": 0, "n_particles": 4})
    path = tmp_path / "run.csv"
    write_run_csv(path, record)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(record)
    assert rows[0]["schema"] == RUN_CSV_SCHEMA
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(1.0)
    # values round-trip through repr exactly
    assert float(rows[3]["Vx"]) == record.variance_x[3]


def _csv_writer_reference(path, record):
    """The run CSV as csv.writer writes it: the header, then one row per state of repr'd floats."""
    columns = [record.times, record.variance_x, record.variance_y, record.variance_total, record.spread_x,
               record.spread_y, *record.mean_x.T, *record.mean_y.T, record.best_value_trace, record.best_error_trace]
    names = ["t", "Vx", "Vy", "V", "spread_x", "spread_y", *(f"mean_x_{k}" for k in range(record.mean_x.shape[1])),
             *(f"mean_y_{k}" for k in range(record.mean_y.shape[1])), "best_value", "best_err"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "step", *names])
        for k in range(len(record)):
            writer.writerow([RUN_CSV_SCHEMA, k, *(repr(float(column[k])) for column in columns)])


_SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-308]


@pytest.mark.parametrize("rows", [1, 7])
def test_run_csv_bytes_equal_csv_writer(tmp_path, rows):
    specials = np.array(_SPECIAL_VALUES)
    record = RunRecord.allocate(rows, 2, 3)
    values = np.resize(specials, (rows, 12))  # each special value lands in the first row
    for k, series in enumerate((record.times, record.variance_x, record.variance_y, record.spread_x,
                                record.spread_y, record.best_value_trace, record.best_error_trace)):
        series[:] = values[:, k]
    record.mean_x[:], record.mean_y[:] = values[:, 7:9], values[:, 9:12]
    with np.errstate(invalid="ignore"):  # V = Vx + Vy meets inf + -inf
        write_run_csv(tmp_path / "run.csv", record)
        _csv_writer_reference(tmp_path / "want.csv", record)
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _sweep_csv_writer_reference(summary_path, trials_path, spec, summaries):
    """The sweep CSVs as csv.writer writes them, with repr(float(v)) for each float v and each int as it is."""
    text = lambda v: repr(float(v)) if isinstance(v, (float, np.floating)) else v
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "parameter", "value", "median_error", "q20", "q80", "n_ok", "trials"])
        for s in summaries:
            n_ok = sum(not math.isnan(e) for e in s.errors)
            writer.writerow([SWEEP_CSV_SCHEMA, spec.parameter, text(s.parameter_value), text(s.median_error),
                             text(s.q20), text(s.q80), n_ok, spec.trials])
    with open(trials_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema", "parameter", "value", "trial", "seed", "error"])
        for s in summaries:
            for trial, err in enumerate(s.errors):
                writer.writerow([TRIAL_CSV_SCHEMA, spec.parameter, text(s.parameter_value), trial,
                                 spec.base.seed + trial, text(err)])


@pytest.mark.parametrize("kind", [float, np.float64])
def test_sweep_csv_bytes_equal_csv_writer(tmp_path, kind):
    # every special value is a parameter value, a quantile and an error; np.float64 values come with a numpy seed
    values = [kind(v) for v in _SPECIAL_VALUES]
    spec = _tiny_spec(trials=len(values))
    if kind is np.float64:
        spec.base = replace(spec.base, seed=np.int64(2**40))
    summaries = [TrialSummary(values[k], values[k - 1], values[k - 2], values[k - 3], values[k:] + values[:k])
                 for k in range(len(values))]
    write_sweep_csv(tmp_path / "s.csv", tmp_path / "t.csv", spec, summaries)
    _sweep_csv_writer_reference(tmp_path / "want_s.csv", tmp_path / "want_t.csv", spec, summaries)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "want_s.csv").read_bytes()
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "want_t.csv").read_bytes()


def test_sweep_csv_schema(tmp_path):
    spec = _tiny_spec(trials=2)
    summaries = run_sweep(spec)
    write_sweep_csv(tmp_path / "s.csv", tmp_path / "t.csv", spec, summaries)
    with open(tmp_path / "s.csv", newline="") as fh:
        srows = list(csv.DictReader(fh))
    assert srows[0]["schema"] == SWEEP_CSV_SCHEMA
    assert srows[0]["n_ok"] == "2"
    with open(tmp_path / "t.csv", newline="") as fh:
        trows = list(csv.DictReader(fh))
    assert [int(r["trial"]) for r in trows] == [0, 1]
    assert [int(r["seed"]) for r in trows] == [100, 101]


def _assert_batch_equals_runs_alone(obj, ref, config, n_trials):
    """Each trial of the batch of seeds config.seed + t equals its run alone: final ensemble and best-pair error."""
    seeds = [config.seed + t for t in range(n_trials)]
    for ensemble, _, _ in dynamics.trajectory(config, obj, seeds):
        pass
    assert ensemble.step_index == config.n_steps and ensemble.xs.shape[0] == len(seeds)
    errors = harness._sweep_trials(obj, ref, config, seeds)
    for t, seed in enumerate(seeds):
        alone = run(replace(config, seed=seed), obj, reference=ref)
        assert ensemble.xs[t].tobytes() == alone.final_ensemble.xs.tobytes(), t
        assert ensemble.ys[t].tobytes() == alone.final_ensemble.ys.tobytes(), t
        assert errors[t].hex() == error_to_reference((alone.best_x[-1], alone.best_y[-1]), ref).hex(), t


# Every trial count with every N, the built-ins in turn; N=300 takes three row blocks.
_BATCH_CASES = [
    (BUILT_IN_IDS[k % len(BUILT_IN_IDS)], n_trials, n)
    for k, (n_trials, n) in enumerate(itertools.product((1, 2, 7, 40), (1, 7, 10, 25, 128, 160)))
] + [("forsaken", 3, 300)]


@pytest.mark.parametrize("name, n_trials, n", _BATCH_CASES)
def test_batch_trials_equal_their_runs_alone_bitwise(name, n_trials, n):
    config = SolverConfig(n_particles=n, horizon=2.0, seed=11, init="border")
    _assert_batch_equals_runs_alone(make_benchmark(name), benchmark_reference(name), config, n_trials)


def _two_dim_saddle(x, y):
    return np.sum(x * y, axis=-1) + 0.25 * np.sum(x**2, axis=-1) - 0.5 * (y[..., 0] - 0.5) ** 2 - 0.25 * y[..., 1] ** 2


@pytest.mark.parametrize(
    "diffusion, epsilon, project", [("isotropic", 0.5, False), ("isotropic", 4.0, True), ("anisotropic", 0.5, False)]
)
def test_two_dimensional_batch_equals_runs_alone_bitwise(diffusion, epsilon, project):
    square = BoxDomain(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    obj = ObjectiveFunction("two_dim", 2, 2, square, square, _two_dim_saddle)
    ref = ReferencePoint(np.array([0.1, -0.2]), np.array([[0.5, 0.0], [-0.5, 1.0]]))
    config = SolverConfig(n_particles=12, horizon=3.0, seed=4, diffusion=diffusion, epsilon_scale=epsilon,
                          project=project, init="uniform_box")
    _assert_batch_equals_runs_alone(obj, ref, config, 7)


def _edge(x, y):
    """A saddle that is NaN beyond |x| = 2, which unprojected particles reach in some runs."""
    xx, yy = x[..., 0], y[..., 0]
    return np.where(np.abs(xx) > 2.0, np.nan, xx * yy + 0.25 * xx**2 - 0.25 * yy**2)


def test_failed_trial_reads_nan_and_the_others_equal_their_runs_alone():
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    obj = ObjectiveFunction("edge", 1, 1, box, box, _edge)
    ref = ReferencePoint(np.array([0.0]), np.array([[0.0]]))
    base = SolverConfig(n_particles=7, sigma_x=2.0, sigma_y=2.0, horizon=3.0, project=False)
    seeds = list(range(12))
    errors = harness._sweep_trials(obj, ref, base, seeds)
    failed = 0
    for seed, error in zip(seeds, errors):
        try:
            alone = run(replace(base, seed=seed), obj, reference=ref)
        except NumericalError:
            failed += 1
            assert math.isnan(error), seed
        else:
            assert error.hex() == error_to_reference((alone.best_x[-1], alone.best_y[-1]), ref).hex(), seed
    assert 0 < failed < len(seeds)


def test_sweep_trials_reads_a_repeated_seed_alike_in_both_rows():
    obj, ref = make_benchmark("bilinear"), benchmark_reference("bilinear")
    cfg = SolverConfig(n_particles=4, horizon=0.5)
    twice = harness._sweep_trials(obj, ref, cfg, [0, 1, 0])
    assert twice[0] == twice[2] == harness._sweep_trials(obj, ref, cfg, [0])[0]


def test_sweep_trials_replay_a_failing_batch_one_seed_at_a_time(monkeypatch):
    calls, trajectory = [], dynamics.trajectory

    def spy(config, obj, seeds):
        calls.append(list(seeds))
        return trajectory(config, obj, seeds)

    monkeypatch.setattr(dynamics, "trajectory", spy)
    obj, ref = make_benchmark("bilinear"), benchmark_reference("bilinear")
    clean = SolverConfig(n_particles=4, horizon=0.5)
    assert len(harness._sweep_trials(obj, ref, clean, [0, 1, 2])) == 3
    assert calls == [[0, 1, 2]]
    # the edge saddle is NaN beyond |x| = 2: of seeds 0-11, some runs reach it
    calls.clear()
    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    edge = ObjectiveFunction("edge", 1, 1, box, box, _edge)
    origin = ReferencePoint(np.array([0.0]), np.array([[0.0]]))
    failing = SolverConfig(n_particles=7, sigma_x=2.0, sigma_y=2.0, horizon=3.0, project=False)
    errors = harness._sweep_trials(edge, origin, failing, list(range(12)))
    assert calls == [list(range(12))] + [[s] for s in range(12)]
    assert any(math.isnan(e) for e in errors) and not all(math.isnan(e) for e in errors)


@pytest.mark.parametrize("n, trials, jobs", [(10, 400, 1), (10, 7, 2), (20, 100, 1), (20, 3, 4), (128, 5, 1),
                                             (129, 3, 1), (160, 40, 2), (1, 1000, 3)])
def test_batches_respect_the_entry_cap_and_keep_every_job_busy(monkeypatch, n, trials, jobs):
    # batches are cut for min(jobs, usable CPUs) workers; with 64 CPUs that is every case's jobs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    ran = []
    monkeypatch.setattr(harness, "_sweep_trials",
                        lambda obj, ref, config, seeds: ran.append(seeds) or [0.0] * len(seeds))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)
    spec = _tiny_spec(parameter="n_particles", values=[n], trials=trials, jobs=jobs)
    run_sweep(spec)
    assert [seed for batch in ran for seed in batch] == [spec.base.seed + t for t in range(trials)]
    sizes = [len(batch) for batch in ran]
    cap = max(1, harness._BATCH_ENTRIES // (n * n))
    assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
    assert len(ran) == max(min(jobs, trials), -(-trials // cap))  # as few batches as the cap and the jobs allow
    if n >= 129:
        assert sizes == [1] * trials


@pytest.mark.parametrize("values, trials, cpus, workers", [([10], 2, 64, 2), ([10, 20], 40, 3, 3), ([10], 1, 64, 1)])
def test_sweep_pool_asks_for_no_more_workers_than_batches_or_cpus(monkeypatch, values, trials, cpus, workers):
    # a fork pool starts all max_workers processes at the first submit, so jobs=5000 must not reach it;
    # should a real pool be reached anyway, it fails before starting a process
    asked = []
    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", _refuse_to_start_a_process)
    monkeypatch.setattr(harness, "_sweep_trials", lambda obj, ref, config, seeds: [0.0] * len(seeds))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: asked.append(max_workers) or _InlinePool(max_workers))
    run_sweep(_tiny_spec(parameter="n_particles", values=values, trials=trials, jobs=5000))
    assert asked == ([workers] if workers > 1 else [])  # one batch runs in this process, with no pool


def test_a_sweep_on_one_usable_cpu_runs_jobs_2_in_this_process_as_jobs_1(monkeypatch):
    # a sweep has min(jobs, usable CPUs) workers: on one CPU, jobs=2 cuts its batches for one and starts no pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _refuse_to_start_a_process)
    cut, batches = [], harness._batches
    monkeypatch.setattr(harness, "_batches", lambda seeds, n, w: cut.append(w) or batches(seeds, n, w))
    rows = {jobs: run_sweep(_tiny_spec(parameter="n_particles", values=[5, 12], trials=7, jobs=jobs))
            for jobs in (1, 2)}
    assert cut == [1, 1, 1, 1]
    assert _hex_rows(rows[2]) == _hex_rows(rows[1])


def test_sweep_batch_blocks_hold_at_most_the_batch_entries():
    entries = []

    def counted(x, y):
        entries.append(np.broadcast(x[..., 0], y[..., 0]).size)
        return x[..., 0] * y[..., 0]

    box = BoxDomain(np.array([-1.0]), np.array([1.0]))
    obj = ObjectiveFunction("counted", 1, 1, box, box, counted)
    ref = ReferencePoint(np.array([0.0]), np.array([[0.0]]))
    base = SolverConfig(horizon=0.2, init="border")
    # 200 trials at N=10 (163 fit) run as two batches of 100, 41 at N=20 (40 fit) as 21 and 20, N=160 alone
    for n, trials, largest in ((10, 200, 100 * 10 * 10), (20, 41, 21 * 20 * 20), (160, 2, 160 * 160)):
        entries.clear()
        for batch in harness._batches(list(range(trials)), n, 1):
            harness._sweep_trials(obj, ref, replace(base, n_particles=n), batch)
        assert max(entries) == largest


def _refuse_to_start_a_process(*args, **kwargs):
    raise AssertionError("the test reached a real process pool")


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_cli_writes_the_same_bytes_at_jobs_1_and_2(tmp_path):
    # N=5 and 12 run their 7 trials in one batch at --jobs 1 and in batches of 4 and 3 at --jobs 2; N=160 one at a time
    argv = ["sweep", "--benchmark", "forsaken", "--parameter", "n_particles", "--values", "5,12,160",
            "--trials", "7", "-T", "1", "--seed", "9"]
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    for name in ("sweep_forsaken_n_particles.csv", "sweep_forsaken_n_particles_trials.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
