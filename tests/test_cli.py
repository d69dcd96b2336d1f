import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxcbo import ReferencePoint, benchmark_reference, make_benchmark, register_benchmark
from minmaxcbo.cli import _collect_overrides, build_parser, main
from minmaxcbo.diagnostics import RunRecord
from minmaxcbo.harness import _sweep_trials, benchmark_config, run_benchmark, write_run_csv


def test_solve_writes_csv_and_json(tmp_path, capsys):
    code = main(["solve", "--benchmark", "bilinear", "--seed", "7", "-T", "2", "--out", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "run_bilinear_seed7.csv"
    json_path = tmp_path / "run_bilinear_seed7.json"
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert summary["schema"] == "minmaxcbo/summary/v3"
    assert summary["seed"] == 7
    assert summary["steps"] == 20
    assert summary["eval_count"] > 0
    assert math.isfinite(summary["best_err"])
    printed = json.loads(capsys.readouterr().out)
    assert printed["best_value"] == summary["best_value"]


def test_solve_byte_identical_across_invocations(tmp_path):
    args = ["solve", "--benchmark", "bilinear", "--seed", "7", "-T", "2"]
    code_a = main(args + ["--out", str(tmp_path / "a")])
    code_b = main(args + ["--out", str(tmp_path / "b")])
    assert code_a == code_b == 0
    bytes_a = (tmp_path / "a" / "run_bilinear_seed7.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "run_bilinear_seed7.csv").read_bytes()
    assert bytes_a == bytes_b


def test_solve_without_benchmark_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "nothing"
    code = main(["solve", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "benchmark" in capsys.readouterr().err


def test_solve_flag_overrides_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("benchmark = bilinear\ndt = 0.2\nseed = 3\n")
    code = main(["solve", "--config", str(conf), "--dt", "0.1", "-T", "1", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "run_bilinear_seed3.json").read_text())
    assert summary["dt_y"] == 0.1  # flag beats file
    assert summary["seed"] == 3  # file beats default


def test_solve_bad_config_value_exits_2(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("benchmark = bilinear\ndt = 5.0\n")
    assert main(["solve", "--config", str(conf), "--out", str(tmp_path)]) == 2
    assert "dt" in capsys.readouterr().err


def test_oracle_cli_sixth_order(tmp_path, capsys):
    code = main(["oracle", "--benchmark", "sixth_order", "--points", "513", "--rounds", "2",
                 "--out", str(tmp_path / "oracle.json")])
    assert code == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert abs(payload["x_star"][0]) < 0.02
    assert abs(payload["y_star"][0]) < 0.02
    assert payload["wall_time_s"] < 10.0


def test_gda_cli_dilation(capsys):
    code = main(["gda", "--benchmark", "bilinear", "--mode", "simultaneous", "--eta", "0.1",
                 "--iters", "100", "--start", "1,0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["final_norm"] == pytest.approx(1.01**50, rel=0.01)
    assert payload["diverged"] is False


def test_gda_cli_zero_iterations(capsys):
    code = main(["gda", "--benchmark", "bilinear", "--iters", "0", "--start", "0.5,0.25"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["iterations"] == 0
    assert payload["final_x"] == [0.5] and payload["final_y"] == [0.25]


def test_gda_cli_trajectory_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["gda", "--benchmark", "bilinear", "--iters", "5", "--start", "1,0",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "schema,iter,x_0,y_0"
    assert len(lines) == 7  # header + start + 5 iterates


def test_sweep_cli(tmp_path, capsys):
    code = main(["sweep", "--benchmark", "bilinear", "--parameter", "sigma", "--values", "1.0,2.0",
                 "--trials", "2", "-T", "1", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sweep_bilinear_sigma.csv").exists()
    trials = (tmp_path / "sweep_bilinear_sigma_trials.csv").read_text().strip().splitlines()
    assert len(trials) == 5  # header + 2 values * 2 trials
    out = capsys.readouterr().out
    assert "sigma=1" in out and "sigma=2" in out


def test_solve_forsaken_majority_of_seeds_converge(tmp_path):
    # default parameters, T = 15: most seeds end near (0, +-1.31)
    good = 0
    for seed in range(20):
        code = main(["solve", "--benchmark", "forsaken", "-T", "15", "--seed", str(seed),
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / f"run_forsaken_seed{seed}.json").read_text())
        good += summary["best_err"] < 0.15
    assert good > 10


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MINMAXCBO_OUT", str(tmp_path / "from_env"))
    code = main(["solve", "--benchmark", "bilinear", "--seed", "1", "-T", "1"])
    assert code == 0
    assert (tmp_path / "from_env" / "run_bilinear_seed1.csv").exists()


def test_unknown_flag_exits_2():
    assert main(["solve", "--warp", "9"]) == 2


def test_unknown_subcommand_exits_2():
    assert main(["fly"]) == 2


@pytest.mark.parametrize("flags", [
    ["--sigma", "nan"], ["--alpha", "nan"], ["--lam", "nan"], ["--init-mean", "nan"],
    ["-T", "inf"], ["-T", "nan"], ["--config", "{conf}"],
])
def test_non_finite_parameters_exit_2(tmp_path, capsys, flags):
    conf = tmp_path / "inf.conf"
    conf.write_text("horizon = inf\n")
    flags = [f.format(conf=conf) for f in flags]
    out = tmp_path / "out"
    assert main(["solve", "--benchmark", "bilinear", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--horizon", "1e12", "--dt", "0.5"], ["-T", "0.3", "--dt", "1e-300"]])
def test_step_counts_beyond_one_word_exit_2_before_any_work(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["solve", "--benchmark", "forsaken", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizon / dt_y must not exceed 4294967295 steps") and err.count("\n") == 1
    assert not out.exists()


def test_a_record_that_cannot_be_allocated_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    # 2e9 states pass the step cap; the record's allocation is made to fail
    # rather than tried, as numpy fails it when the memory is not there
    def allocate(cls, rows, d1, d2):
        raise MemoryError(f"Unable to allocate {rows * 8 / 2**30:.1f} GiB for an array with shape ({rows},)")

    monkeypatch.setattr(RunRecord, "allocate", classmethod(allocate))
    out = tmp_path / "out"
    assert main(["solve", "--benchmark", "forsaken", "--horizon", "1e9", "--dt", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the record of 2000000001 states needs 163.9 GiB") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--benchmark", "bilinear", "-N", "1000000000", "-T", "0.2", "--out", "{tmp}/out"],
    ["sweep", "--benchmark", "bilinear", "--parameter", "n_particles", "--values", "1000000000", "--trials", "1",
     "-T", "0.2", "--out", "{tmp}/out"],
    ["oracle", "--benchmark", "forsaken", "--points", "20000"],  # within the oracle's own grid check
], ids=lambda argv: argv[0])
def test_a_size_that_does_not_fit_in_memory_exits_2_with_one_error_line(tmp_path, argv):
    resource = pytest.importorskip("resource")
    limit = 2 * 10**9  # room for the interpreter and numpy, not for 1e9 particles or a 20000^2 grid

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-m", "minmaxcbo.cli", *(a.format(tmp=tmp_path) for a in argv)],
                           env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space)
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("error: Unable to allocate") and child.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_gda_reports_overflow_only_through_its_exit_code(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gda", "--benchmark", "forsaken", "--eta", "1e308", "--iters", "5"]) == 0
        assert capsys.readouterr().err == ""
        assert main(["gda", "--benchmark", "forsaken", "--start=1e308,1e308"]) == 3
        assert capsys.readouterr().err == "numerical failure: non-finite GDA iterate at iteration 1\n"


def test_flag_precedence_tied_then_specific():
    # within one source the specific key wins over the tied one, in either order
    for flags in (["--lam", "2", "--lambda-x", "3"], ["--lambda-x", "3", "--lam", "2"]):
        args = build_parser().parse_args(["solve", "--benchmark", "bilinear", *flags])
        config, _ = benchmark_config(*_collect_overrides(args))
        assert config.lambda_x == 3.0 and config.lambda_y == 2.0


def _sweep_exit(tmp_path, capsys, *flags):
    code = main(["sweep", "--benchmark", "bilinear", "--trials", "1", "-T", "0.5", *flags,
                 "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_sweep_unparsable_value_exits_2(tmp_path, capsys):
    code, err = _sweep_exit(tmp_path, capsys, "--parameter", "sigma", "--values", "abc")
    assert code == 2 and err.startswith("error: ")


def test_sweep_fractional_particle_count_exits_2(tmp_path, capsys):
    code, err = _sweep_exit(tmp_path, capsys, "--parameter", "n_particles", "--values", "10.7")
    assert code == 2 and "n_particles" in err
    assert not (tmp_path / "out").exists()


def test_sweep_nan_value_exits_2(tmp_path, capsys):
    code, err = _sweep_exit(tmp_path, capsys, "--parameter", "sigma", "--values", "1.0,nan")
    assert code == 2 and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", ["10,,160", "10,160,", ",10", "10, ,160", ""])
def test_sweep_empty_value_item_exits_2(tmp_path, capsys, values):
    # an empty item is an error, not a value to skip
    code, err = _sweep_exit(tmp_path, capsys, "--parameter", "n_particles", f"--values={values}")
    assert code == 2 and err == f"error: --values {values!r} has an empty item\n"
    assert not (tmp_path / "out").exists()


def test_gda_unparsable_start_exits_2(capsys):
    assert main(["gda", "--benchmark", "bilinear", "--start", "a,b"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [["--eta", "nan"], ["--eta", "inf"], ["--start=nan,0"]])
def test_gda_non_finite_input_exits_2(capsys, flags):
    assert main(["gda", "--benchmark", "bilinear", "--iters", "3", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("only", ["9", "0", "x", "1,9", "1,"])
def test_bench_unknown_criterion_exits_2_before_running(monkeypatch, capsys, only):
    from minmaxcbo import acceptance

    ran = []
    monkeypatch.setitem(acceptance._CRITERIA, 1, lambda: ran.append(1))
    assert main(["bench", "--only", only]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert ran == []


def test_negative_comma_values_in_equals_form(tmp_path, capsys):
    # argparse reads a separate "-1,1" as an option, so the help and README use the = form
    assert main(["solve", "--benchmark", "bilinear", "-T", "0.2", "--box-x=-1,1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["gda", "--benchmark", "bilinear", "--iters", "0", "--start=-1,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["final_x"] == [-1.0] and payload["final_y"] == [0.0]


def test_sweep_honours_box_override(tmp_path):
    argv = ["sweep", "--benchmark", "bilinear", "--parameter", "sigma", "--values", "1.0,2.0",
            "--trials", "2", "-T", "1", "--seed", "5"]
    box = ["--box-x=-1,1", "--box-y=-2,2"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert main(argv + box + ["--out", str(tmp_path / "boxed")]) == 0
    plain = (tmp_path / "plain" / "sweep_bilinear_sigma_trials.csv").read_text()
    boxed = (tmp_path / "boxed" / "sweep_bilinear_sigma_trials.csv").read_text()
    assert boxed != plain
    obj = make_benchmark("bilinear", box_x=(-1.0, 1.0), box_y=(-2.0, 2.0))
    base, _ = benchmark_config("bilinear", {"horizon": 1.0, "seed": 5, "init": "border"})
    for row in boxed.strip().splitlines()[1:]:
        _, _, value, trial, seed, error = row.split(",")
        sigma = float(value)
        cfg = replace(base, seed=int(seed), sigma_x=sigma, sigma_y=sigma)
        assert repr(_sweep_trials(obj, benchmark_reference("bilinear"), cfg, [cfg.seed])[0]) == error


def test_sweep_with_overflowing_trials_raises_no_numpy_warning(tmp_path, capsys):
    # at sigma = 3.16e5, unprojected, some trials overflow: their rows read nan, and nothing else reports them
    argv = ["sweep", "--benchmark", "bilinear", "--parameter", "sigma", "--values", "1.5,3.16e5", "--no-project",
            "-T", "3", "--trials", "7", "--seed", "9", "--prefix", "sweep"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv + ["--out", str(tmp_path / "ignored")]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "strict")]) == 0
    assert capsys.readouterr().err == ""
    for name in ("sweep.csv", "sweep_trials.csv"):
        assert (tmp_path / "strict" / name).read_bytes() == (tmp_path / "ignored" / name).read_bytes(), name
    assert ",nan" in (tmp_path / "strict" / "sweep_trials.csv").read_text()


def test_cached_parser_carries_no_flags_into_the_next_call(tmp_path):
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["solve", "--benchmark", "bilinear", "--sigma", "0.5", "--no-project"])
    second = build_parser().parse_args(["solve", "--benchmark", "forsaken"])
    assert (first.benchmark, first.sigma, first.project) == ("bilinear", "0.5", "false")
    assert (second.benchmark, second.sigma, second.project) == ("forsaken", None, None)
    # a solve after one with overrides writes what a solve with defaults writes
    common = ["solve", "--benchmark", "bilinear", "--seed", "2", "-T", "1", "--prefix", "run"]
    assert main(common + ["--sigma", "0.5", "--no-project", "--out", str(tmp_path / "a")]) == 0
    assert main(common + ["--out", str(tmp_path / "b")]) == 0
    record, _ = run_benchmark("bilinear", {"seed": 2, "horizon": 1.0})
    write_run_csv(tmp_path / "fresh.csv", record)
    assert (tmp_path / "b" / "run.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert (tmp_path / "a" / "run.csv").read_bytes() != (tmp_path / "fresh.csv").read_bytes()


def test_solve_reports_overflow_only_through_its_exit_code(tmp_path, capsys):
    # unprojected at sigma = 3.16e5, seed 9 overflows to a non-finite pair value and seed 10 only inside the weights
    argv = ["solve", "--benchmark", "bilinear", "--sigma", "3.16e5", "--no-project", "-T", "3", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--seed", "9"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert main(argv + ["--seed", "10"]) == 0
        assert capsys.readouterr().err == ""


def _outputs(out):
    """Every file under out by name, a JSON file without its wall_time_s."""
    files = {}
    for path in out.iterdir():
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("wall_time_s")
            data = json.dumps(payload, sort_keys=True).encode()
        files[path.name] = data
    return files


_EVERY_SUBCOMMAND = [
    ["solve", "-T", "0.5", "--seed", "4"],
    ["sweep", "--parameter", "sigma", "--values", "1.0", "--trials", "2", "-T", "0.5"],
    ["oracle", "--points", "65", "--rounds", "1"],
    ["gda", "--iters", "5"],
]


def _out_arg(argv, out):
    """The --out value of a call: oracle and gda write the one file it names, solve and sweep into it."""
    name = {"oracle": "oracle.json", "gda": "gda.csv"}.get(argv[0])
    return str(out / name if name else out)


@pytest.mark.parametrize("spelled, canonical", [("Forsaken", "forsaken"), ("bilinearly-coupled", "bilinearly_coupled")])
def test_any_id_spelling_writes_the_canonical_file_names_and_bytes(tmp_path, capsys, spelled, canonical):
    outputs = {}
    for benchmark in (spelled, canonical):
        out = tmp_path / benchmark
        for argv in _EVERY_SUBCOMMAND:
            assert main([*argv, "--benchmark", benchmark, "--out", _out_arg(argv, out)]) == 0, argv
        outputs[benchmark] = _outputs(out)
        outputs[benchmark]["gda stdout"] = capsys.readouterr().out.splitlines()[-1]
    assert sorted(outputs[canonical]) == sorted([
        f"run_{canonical}_seed4.csv", f"run_{canonical}_seed4.json", f"sweep_{canonical}_sigma.csv",
        f"sweep_{canonical}_sigma_trials.csv", "oracle.json", "gda.csv", "gda stdout",
    ])
    assert outputs[spelled] == outputs[canonical]


def _registered_saddle(x, y):
    return x[..., 0] * y[..., 0] + 0.5 * x[..., 0] ** 2


def test_benchmark_registered_after_import_is_selected_by_the_flag(tmp_path):
    register_benchmark("CLI Registered", _registered_saddle, (-2.0, 2.0), (-2.0, 2.0),
                       reference=ReferencePoint([0.0], [[0.0]]))
    for argv in _EVERY_SUBCOMMAND:
        assert main([*argv, "--benchmark", "cli-registered", "--out", _out_arg(argv, tmp_path)]) == 0, argv
    assert (tmp_path / "run_cli_registered_seed4.csv").exists()
    assert (tmp_path / "sweep_cli_registered_sigma.csv").exists()


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_unknown_benchmark_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--benchmark", "nope", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown benchmark 'nope'")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--init", "everywhere"], ["--diffusion", "banana"]])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND[:2], ids=lambda argv: argv[0])
def test_bad_mode_exits_2_with_one_error_line(tmp_path, capsys, argv, flags):
    out = tmp_path / "out"
    assert main([*argv, "--benchmark", "bilinear", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flags[0][2:] in err and flags[1] in err
    assert not out.exists()


_FAULTS_PER_STEP = """
import contextlib, io, resource, sys
from minmaxcbo import run
from minmaxcbo.cli import main
from minmaxcbo.harness import benchmark_config

def steps(horizon):
    if sys.argv[1] == "cli":
        argv = ["solve", "--benchmark", "forsaken", "-N", "200", "-T", str(horizon),
                "--out", f"{sys.argv[2]}/{horizon}"]
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    else:
        run(*benchmark_config("forsaken", {"n_particles": 200, "horizon": horizon}))

steps(0.5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps(3)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
"""


def _faults_per_step(caller: str, out: Path) -> float:
    # a child process keeps this process's allocator out of it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP, caller, str(out)], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return float(child.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_cli_steps_reuse_freed_memory_instead_of_faulting_it_in_again(tmp_path):
    # an N=200 step frees arrays of 312 KiB; under glibc's default thresholds each step of this run
    # faulted in about 130 fresh pages
    assert _faults_per_step("cli", tmp_path) < 10


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_library_steps_reuse_freed_memory_without_the_cli(tmp_path):
    assert _faults_per_step("library", tmp_path) < 10


_POOLS_ON_FIRST_USE = """
import contextlib, io, sys
from minmaxcbo import consensus
from minmaxcbo.cli import main

POOLS = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
sweep = ["sweep", "--benchmark", "forsaken", "--parameter", "n_particles", "--values", "10,256", "--trials", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--benchmark", "forsaken", "-T", "0.3", "--out", sys.argv[1] + "/solve"]) == 0
    assert main(sweep + ["-T", "0.3", "--jobs", "1", "--out", sys.argv[1] + "/sweep"]) == 0
print([m for m in POOLS if m in sys.modules])
consensus._usable_cpus = lambda: 2
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["solve", "--benchmark", "forsaken", "-N", "300", "-T", "0.3", "--out", sys.argv[1] + "/n300"]) == 0
print([m for m in POOLS if m in sys.modules])
"""


def test_commands_load_a_pool_only_when_they_use_it(tmp_path):
    # N=256 fits one row block, so nothing below N=257 steps on two workers; N=300 splits into three blocks,
    # which step in a helper process forked without a pool
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", _POOLS_ON_FIRST_USE, str(tmp_path)], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["[]", "[]"]


def _session_members(sid: int) -> list[int]:
    """The pids of the processes in session ``sid``, read from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # the process ended meanwhile
                continue
            if int(stat[stat.rindex(")") + 2:].split()[3]) == sid:  # after the name: state, ppid, pgrp, session
                members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the sessions of processes under /proc")
def test_a_solve_that_steps_on_two_workers_leaves_no_process_in_its_session(tmp_path):
    # the child is a session leader, so any helper process it leaves keeps the child's pid as its session
    code = ("import sys; from minmaxcbo import consensus; from minmaxcbo.cli import main; "
            "consensus._usable_cpus = lambda: 2; sys.exit(main(sys.argv[1:]))")
    argv = ["solve", "--benchmark", "bilinear", "-N", "300", "-T", "0.05", "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    child = subprocess.Popen([sys.executable, "-c", code, *argv], env=env, start_new_session=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    _, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert _session_members(child.pid) == []


_MAIN_PID = os.getpid()


def _exits_in_a_helper(x, y):
    if os.getpid() != _MAIN_PID:
        os._exit(1)
    return x[..., 0] * y[..., 0]


def test_a_helper_that_dies_makes_solve_exit_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    from minmaxcbo import consensus, objectives

    monkeypatch.setattr(consensus, "_usable_cpus", lambda: 2)
    register_benchmark("CLI Helper Exit", _exits_in_a_helper, (-2.0, 2.0), (-2.0, 2.0),
                       reference=ReferencePoint([0.0], [[0.0]]))
    try:
        code = main(["solve", "--benchmark", "cli-helper-exit", "-N", "300", "-T", "0.05", "--out", str(tmp_path)])
    finally:
        del objectives._REGISTRY["cli_helper_exit"]
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: the consensus helper process ") and err.endswith(" exited during a call\n")
    assert err.count("\n") == 1


def _refuse_work(*args, **kwargs):
    raise AssertionError("the command started its work before checking its paths")


@pytest.mark.parametrize("argv", [
    ["oracle", "--benchmark", "forsaken", "--points", "65", "--rounds", "1", "--out", "{tmp}/missing_dir/x.json"],
    ["oracle", "--benchmark", "forsaken", "--points", "65", "--rounds", "1", "--out", "{tmp}"],
    ["gda", "--benchmark", "bilinear", "--iters", "3", "--out", "{tmp}/missing_dir/x.csv"],
    ["solve", "--benchmark", "bilinear", "-T", "0.2", "--out", "{tmp}/occupied"],
    ["solve", "--benchmark", "bilinear", "-T", "0.2", "--out", "{tmp}/occupied/sub"],
    ["sweep", "--benchmark", "bilinear", "--parameter", "sigma", "--values", "1", "--trials", "1", "-T", "0.2",
     "--out", "{tmp}/occupied"],
    ["solve", "--config", "{tmp}/nope.conf"],
    ["solve", "--config", "{tmp}"],
    ["solve", "--config", "{tmp}/latin1.conf"],
], ids=["oracle-missing-dir", "oracle-a-dir", "gda-missing-dir", "solve-occupied", "solve-under-a-file",
        "sweep-occupied", "missing-config", "config-a-dir", "config-not-utf8"])
def test_bad_path_exits_2_with_one_error_line_before_any_work(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "occupied").write_text("a file\n")
    (tmp_path / "latin1.conf").write_bytes("benchmark = forsak\xe9n\n".encode("latin-1"))
    for work in ("run_benchmark", "run_sweep", "solve_minmax", "gda_run"):
        monkeypatch.setattr(f"minmaxcbo.cli.{work}", _refuse_work)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "occupied").read_text() == "a file\n"


def test_bench_prints_one_line_per_criterion(capsys):
    from minmaxcbo import acceptance

    (result,) = acceptance.run_all(only=[7])
    assert capsys.readouterr().out.splitlines() == [result.line()]


# Values for the argv property test, each flag's as (accepted, rejected).  Runs stay tiny: a horizon of at
# most 0.3 with dt >= 0.05, N <= 64, at most 3 trials, oracle grids of at most 65 points and 1 round, at
# most 50 GDA iterations, bench only for criterion 7, and --jobs in {-1, 0, 1}, so no process pool
# starts.  A horizon of 1e12 and a dt of 1e-300 ask for more steps than a run may take.
_BAD = ["nan", "inf", "-inf", "-1", "x", ""]
_SPELLINGS = (["forsaken", "Bilinearly-Coupled", " SIXTH_ORDER ", "remark function", "bivariate"], ["nope", ""])
_BOXES = (["-1,1", "0.5,3"], ["-1e308,1e308", "-inf,inf", "1,-1", "nan,1", "1", "x"])
_SOLVER_FLAGS = {
    "--benchmark": _SPELLINGS,
    "-T": (["0.1", "0.3"], ["0", "-1", "nan", "inf", "x", "1e12"]),
    "-N": (["1", "5", "64"], ["0", "-3", "1.5", "nan", "x"]),
    "--dt": (["0.05", "0.1", "0.5"], ["0", "1", "-1", "nan", "inf", "x", "1e-300"]),
    "--epsilon": (["0.5", "1"], ["0", "-1", "1e308", "nan", "x"]),
    "--seed": (["0", "3", str(2**70)], ["-1", "1.5", "x"]),
    "--init": (["uniform_box", "border", "gaussian"], ["everywhere"]),
    "--diffusion": (["anisotropic", "isotropic"], ["banana"]),
    "--box-x": _BOXES,
    "--box-y": _BOXES,
    "--project": None,
    "--no-project": None,
    "--lam": (["1", "2.5", "1e308"], _BAD),
    "--lambda-x": (["1", "2.5", "1e308"], _BAD),
    "--sigma": (["0", "1.5", "1e308"], _BAD),
    "--sigma-y": (["0", "1.5", "1e308"], _BAD),
    "--alpha": (["0", "30", "1e308"], _BAD),
    "--beta": (["0", "30", "1e308"], _BAD),
    "--init-mean": (["0", "-1", "1e308"], _BAD),
    "--init-std": (["0.5", "1e308"], ["0", *_BAD]),
    "--config": (["{conf}"], ["{missing}", "{tmp}", "{latin1}"]),
    "--out": (["{tmp}/new_dir", "{tmp}"], ["{occupied}", "{occupied}/sub"]),
}
_FILE_OUT = (["{tmp}/new.out", "{occupied}"], ["{tmp}/missing_dir/x.out", "{tmp}"])
_FLAGS = {
    "solve": _SOLVER_FLAGS,
    "sweep": {
        **_SOLVER_FLAGS,
        "--parameter": (["n_particles", "sigma", "alpha_beta", "epsilon_scale"], ["bogus"]),
        "--values": (["5,12", "64", "1"], ["0", "-1", "1.5", "nan", "1e308", "x", ""]),
        "--trials": (["1", "3"], ["0", "-1", "x"]),
        "--jobs": (["1"], ["-1", "0"]),
    },
    "oracle": {"--benchmark": _SPELLINGS, "--points": (["3", "17", "65"], ["2", "-1", "x"]),
               "--rounds": (["0", "1"], ["-1", "x"]), "--out": _FILE_OUT},
    "gda": {"--benchmark": _SPELLINGS, "--mode": (["simultaneous", "alternating"], ["leapfrog"]),
            "--eta": (["0.1", "2.5", "1e308"], ["0", *_BAD]), "--iters": (["0", "7", "50"], ["-1", "x"]),
            "--start": (["1,0", "-0.5,2", "1e308,1e308"], ["nan,0", "1", "x"]), "--out": _FILE_OUT},
    "bench": {"--only": (["7"], ["0", "9", "x", "1,9", "1,"])},
}
# Flags every draw carries: no run takes its default horizon, trial count or oracle grid, and bench runs
# one cheap criterion at most.
_ALWAYS = {
    "solve": ["--benchmark", "-T"],
    "sweep": ["--benchmark", "-T", "--parameter", "--values", "--trials"],
    "oracle": ["--benchmark", "--points", "--rounds"],
    "gda": ["--benchmark"],
    "bench": ["--only"],
}
_CONF_LINES = (["benchmark = bilinear", "horizon = 0.2", "# a comment"],
               ["n_particles = 10.5", "alpha = nan", "bogus = 1", "no equals sign"])


@st.composite
def _argv(draw):
    """(argv, lines of the config file): half the draws take only accepted values, so that runs happen."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags, accepted_only = _FLAGS[command], draw(st.booleans())
    names = draw(st.lists(st.sampled_from(sorted(flags)), max_size=6, unique=True))
    argv = [command]
    for name in names + [name for name in _ALWAYS[command] if name not in names]:
        if flags[name] is None:
            argv.append(name)
        else:
            accepted, rejected = flags[name]
            argv += [name, draw(st.sampled_from(accepted if accepted_only else accepted + rejected))]
    lines = _CONF_LINES[0] if accepted_only else _CONF_LINES[0] + _CONF_LINES[1]
    return argv, draw(st.lists(st.sampled_from(lines), max_size=4))


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_any_argv_exits_0_2_or_3_and_exit_2_prints_one_error_line(drawn):
    argv, conf_lines = drawn
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"tmp": tmp, "missing": f"{tmp}/nope.conf", "conf": f"{tmp}/run.conf", "occupied": f"{tmp}/occupied",
                 "latin1": f"{tmp}/latin1.conf"}
        Path(paths["conf"]).write_text("".join(f"{line}\n" for line in conf_lines))
        Path(paths["latin1"]).write_bytes("benchmark = forsak\xe9n\n".encode("latin-1"))
        Path(paths["occupied"]).write_text("a file\n")
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"MINMAXCBO_OUT": tmp}), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the property is exit codes and error lines, not numpy's warnings
            code = main([arg.format(**paths) for arg in argv])
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
