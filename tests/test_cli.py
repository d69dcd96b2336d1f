import json
import math
from dataclasses import replace

import pytest

from minmaxcbo import benchmark_reference, make_benchmark
from minmaxcbo.cli import _collect_overrides, build_parser, main
from minmaxcbo.harness import _sweep_trial, benchmark_config


def test_solve_writes_csv_and_json(tmp_path, capsys):
    code = main(["solve", "--benchmark", "bilinear", "--seed", "7", "-T", "2", "--out", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "run_bilinear_seed7.csv"
    json_path = tmp_path / "run_bilinear_seed7.json"
    assert csv_path.exists() and json_path.exists()
    summary = json.loads(json_path.read_text())
    assert summary["schema"] == "minmaxcbo/summary/v1"
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
        assert repr(_sweep_trial(obj, benchmark_reference("bilinear"), cfg)) == error
