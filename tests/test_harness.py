import csv
import math
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from minmaxcbo import (
    ConfigError,
    InitSpec,
    NumericalError,
    ReferencePoint,
    SolverConfig,
    SweepSpec,
    benchmark_reference,
    run,
    run_sweep,
)
from minmaxcbo import harness
from minmaxcbo.harness import (
    CONFIG_KEYS,
    RUN_CSV_SCHEMA,
    SWEEP_CSV_SCHEMA,
    apply_overrides,
    benchmark_config,
    nearest_rank_quantile,
    parse_config_file,
    run_benchmark,
    write_run_csv,
    write_sweep_csv,
)
from minmaxcbo.diagnostics import error_to_reference
from minmaxcbo.objectives import BoxDomain, make_benchmark, register_benchmark


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


def test_sweep_parallel_jobs_match_serial():
    spec = _tiny_spec(values=[1.0, 2.0], trials=2)
    serial = run_sweep(spec)
    parallel = run_sweep(_tiny_spec(values=[1.0, 2.0], trials=2, jobs=2))
    assert [s.errors for s in serial] == [p.errors for p in parallel]


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
    monkeypatch.setattr(harness, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=spawn))
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
        cfg = SolverConfig(n_particles=12, horizon=3.0, seed=seed, init=InitSpec("border"))
        record = run(cfg, obj, reference=ref)
        expected = error_to_reference((record.best_x[-1], record.best_y[-1]), ref)
        assert harness._sweep_trial(obj, ref, cfg).hex() == expected.hex()
    obj, ref = make_benchmark("bilinear"), benchmark_reference("bilinear")
    blowup = SolverConfig(n_particles=10, sigma_x=1e308, sigma_y=1e308, project=False)
    with pytest.raises(NumericalError, match="step 0"):
        run(blowup, obj, reference=ref)
    assert math.isnan(harness._sweep_trial(obj, ref, blowup))


def test_sweep_validates_every_trial_before_running(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "_sweep_trial", lambda *args: ran.append(args) or 0.0)
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


def test_run_csv_schema_and_roundtrip(tmp_path):
    record, _ = run_benchmark("bilinear", {"horizon": 1.0, "seed": 0, "n_particles": 4})
    path = tmp_path / "run.csv"
    write_run_csv(path, record, 1, 1)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(record)
    assert rows[0]["schema"] == RUN_CSV_SCHEMA
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(1.0)
    # values round-trip through repr exactly
    assert float(rows[3]["Vx"]) == record.variance_x[3]


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
