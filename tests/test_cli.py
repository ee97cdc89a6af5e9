import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ngmpn.cli import _parse_grid, _round12, main
from ngmpn.estimate import MAX_GRID_POINTS, SweepConfig, sweep
from ngmpn.sim import MAX_REPLICATES

SIR_FILE = """\
model tiny kind=vapn
param beta=0.4
param gamma=0.2
place S init=9999
place I init=1 infected
place R init=0
trans infect
trans recover
arc S -> infect weight="beta*S*I/N"
arc infect -> I weight="beta*S*I/N"
arc I -> recover weight="gamma*I"
arc recover -> R weight="gamma*I"
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --------------------------------------------------------------------- r0

def test_r0_builtin_json(capsys):
    code, out, err = run(capsys, "r0", "--builtin", "sirs")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["F", "K", "V", "Vinv", "dfe", "diagnostics",
                           "findings", "r0"]
    assert doc["r0"] == 3.0
    assert doc["dfe"]["marking"] == {"S": 1000000.0, "I": 0.0, "R": 0.0}


def test_r0_with_param_overrides(capsys):
    code, out, _ = run(capsys, "r0", "--builtin", "sirs",
                       "-p", "beta=0.4", "-p", "gamma=0.2")
    assert code == 0
    assert json.loads(out)["r0"] == 2.0


def test_calls_in_one_process_share_no_state(capsys):
    # one parser serves every call: -p values must not build up across calls
    r0s = []
    for params in (["-p", "beta=0.4", "-p", "gamma=0.2"], ["-p", "gamma=0.3"], []):
        code, out, _ = run(capsys, "r0", "--builtin", "sirs", *params)
        assert code == 0
        r0s.append(json.loads(out)["r0"])
    assert r0s == [2.0, 1.0, 3.0]


def test_r0_from_model_file(tmp_path, capsys):
    path = tmp_path / "tiny.pnet"
    path.write_text(SIR_FILE)
    code, out, _ = run(capsys, "r0", str(path))
    assert code == 0
    assert json.loads(out)["r0"] == 2.0


def test_model_source_is_exactly_one(tmp_path, capsys):
    code, _, err = run(capsys, "r0")
    assert code == 2 and "exactly one model source" in err
    path = tmp_path / "tiny.pnet"
    path.write_text(SIR_FILE)
    code, _, err = run(capsys, "r0", str(path), "--builtin", "sirs")
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "r0", "/no/such/model.pnet")
    assert code == 2 and "no such file" in err


def test_bad_param_syntax(capsys):
    code, _, err = run(capsys, "r0", "--builtin", "sirs", "-p", "beta")
    assert code == 2
    code, _, err = run(capsys, "r0", "--builtin", "sirs", "-p", "beta=zz")
    assert code == 2


def test_unknown_param_is_domain_error(capsys):
    code, _, err = run(capsys, "r0", "--builtin", "sirs", "-p", "zeta=1")
    assert code == 1 and "zeta" in err


@pytest.mark.parametrize("param", ["beta=nan", "gamma=inf"])
def test_non_finite_param_is_domain_error(capsys, param):
    code, out, err = run(capsys, "r0", "--builtin", "sirs", "-p", param)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and param.split("=")[0] in err


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "r0", "--builtin", "nope")
    assert code == 2 and "nope" in err      # a usage error, like a missing file


# --------------------------------------------------------------- validate

def test_validate_clean_model(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "sirs")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(": satisfied" in ln or ": skipped" in ln for ln in lines)


def test_validate_reports_fatal(tmp_path, capsys):
    bad = SIR_FILE.replace(" infected", "")
    path = tmp_path / "bad.pnet"
    path.write_text(bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "violated" in out


# --------------------------------------------------------------- simulate

def test_simulate_vapn_to_file(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "simulate", "--builtin", "sirs",
                     "--t-end", "1", "--dt", "0.5", "-o", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,S,I,R"
    assert len(lines) == 4


def test_simulate_reads_a_negative_zero_start_as_zero(tmp_path, capsys):
    path = tmp_path / "tiny.pnet"
    path.write_text(SIR_FILE.replace("place R init=0", "place R init=-0"))
    code, out, _ = run(capsys, "simulate", str(path), "--t-end", "1")
    assert code == 0
    assert out.splitlines()[1] == "0,9999,1,0"


def test_simulate_requires_t_end(capsys):
    code, _, err = run(capsys, "simulate", "--builtin", "sirs")
    assert code == 2 and "--t-end" in err


def test_simulate_rejects_bad_dt(capsys):
    code, _, err = run(capsys, "simulate", "--builtin", "sirs",
                       "--t-end", "1", "--dt", "0")
    assert code == 2


@pytest.mark.parametrize("dt,t_end", [("nan", "1"), ("0.5", "inf"), ("0.5", "nan")])
def test_simulate_rejects_non_finite_dt_and_t_end(capsys, dt, t_end):
    code, out, err = run(capsys, "simulate", "--builtin", "sirs",
                         "--t-end", t_end, "--dt", dt)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_simulate_vapn_rejects_replicates(capsys):
    code, _, err = run(capsys, "simulate", "--builtin", "sirs",
                       "--t-end", "1", "--replicates", "3")
    assert code == 2 and "stochastic" in err


@pytest.mark.parametrize("model,option,value,kind", [
    ("sirs", "--sample-dt", "0.5", "stochastic"),
    ("sirs", "--replicates", "1", "stochastic"),
    ("sirs_spn", "--dt", "0.3", "deterministic"),
    ("sirs_spn", "--sample-every", "5", "deterministic"),
])
def test_simulate_refuses_the_other_simulators_option(capsys, model, option, value, kind):
    code, out, err = run(capsys, "simulate", "--builtin", model, "--t-end", "1",
                         "--seed", "3", option, value)
    assert code == 2 and out == ""
    assert err == f"error: {option} applies to {kind} models only\n"


def test_simulate_spn_seed_reproducible(capsys):
    args = ("simulate", "--builtin", "sirs_spn", "--t-end", "2",
            "--seed", "42", "--sample-dt", "0.5")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert out1.startswith("t,S,I,R\n")


def test_simulate_spn_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("NGMPN_SEED", "7")
    _, out_env, _ = run(capsys, "simulate", "--builtin", "sirs_spn",
                        "--t-end", "2")
    _, out_flag, _ = run(capsys, "simulate", "--builtin", "sirs_spn",
                         "--t-end", "2", "--seed", "7")
    assert out_env == out_flag


def test_seed_option_leaves_the_environment_unread(capsys, monkeypatch):
    _, expected, _ = run(capsys, "simulate", "--builtin", "sirs_spn", "--t-end", "2",
                         "--seed", "7")
    monkeypatch.setenv("NGMPN_SEED", "abc")
    code, out, _ = run(capsys, "simulate", "--builtin", "sirs_spn", "--t-end", "2",
                       "--seed", "7")
    assert code == 0 and out == expected


def test_simulate_bad_seed_in_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NGMPN_SEED", "abc")
    code, out, err = run(capsys, "simulate", "--builtin", "sirs_spn",
                         "--t-end", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "NGMPN_SEED" in err


def test_simulate_negative_seed_in_environment_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("NGMPN_SEED", "-3")
    code, out, err = run(capsys, "simulate", "--builtin", "sirs_spn",
                         "--t-end", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err


def test_simulate_replicates_to_files(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    code, _, _ = run(capsys, "simulate", "--builtin", "sirs_spn",
                     "--t-end", "1", "--seed", "1", "--replicates", "2",
                     "-o", str(out_csv))
    assert code == 0
    assert (tmp_path / "runs.rep0.csv").exists()
    assert (tmp_path / "runs.rep1.csv").exists()


def test_simulate_replicates_stdout_separators(capsys):
    code, out, _ = run(capsys, "simulate", "--builtin", "sirs_spn",
                       "--t-end", "1", "--seed", "1", "--replicates", "2")
    assert code == 0
    assert out.count("# replicate") == 2


# ------------------------------------------------------------------ sweep

def test_sweep_stdout_csv_and_stderr_summary(capsys):
    code, out, err = run(capsys, "sweep", "--builtin", "sirs",
                         "--grid", "beta=0.3:0.4:2", "-p", "delta=0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "beta,r0_alg,r0_hat,rel_err"
    assert len(lines) == 3
    summary = json.loads(err)
    assert summary["n_points"] == 2 and summary["failures"] == 0
    assert summary["rrmse"] < 0.01


def test_sweep_output_file_and_stdout_summary(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--builtin", "sirs",
                       "--grid", "beta=0.3:0.3:1", "-p", "delta=0",
                       "-o", str(out_csv))
    assert code == 0
    assert json.loads(out)["n_points"] == 1
    assert out_csv.read_text().startswith("beta,r0_alg,r0_hat,rel_err")


def test_sweep_has_no_jobs_option(capsys):
    # nor a susceptible option: the model's roles decide those places
    for option in (["--jobs", "2"], ["--susceptible", "S"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1", *option])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err


def test_validate_has_no_param_option(capsys):
    # validate reads no parameter value, so -p would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--builtin", "sirs", "-p", "beta=1"])
    assert exc.value.code == 2
    assert "-p" in capsys.readouterr().err


def test_sweep_options_not_given_take_the_configs_defaults(capsys, monkeypatch):
    configs = []
    monkeypatch.setattr("ngmpn.cli.sweep", lambda m, grid, config: configs.append(config)
                        or sweep(m, grid, config))
    code, _, _ = run(capsys, "sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1")
    assert code == 0
    fields = ("dt", "conv_tol", "max_t")
    assert [getattr(configs[0], f) for f in fields] == \
        [getattr(SweepConfig(), f) for f in fields]


def test_sweep_with_every_point_failed_exits_1(capsys):
    # a horizon far too short for any point to plateau: the one chunk,
    # 1/gamma = 1000 long, ends while S still falls
    code, out, err = run(capsys, "sweep", "--builtin", "sirs",
                         "--grid", "beta=0.003:0.004:2", "-p", "delta=0",
                         "-p", "gamma=0.001", "--max-t", "10", "--conv-tol", "1e-12")
    assert code == 1
    assert len(out.splitlines()) == 3
    summary, *points, message = err.splitlines()
    assert json.loads(summary) == {"failures": 2, "max_rel_err": None,
                                   "n_points": 2, "rrmse": None}
    assert [p.split(": ")[0] for p in points] == ["point beta=0.003 failed",
                                                 "point beta=0.004 failed"]
    assert message.startswith("error: ")


def test_sweep_with_a_chunk_of_more_than_max_steps_steps_exits_1(capsys):
    # 400/1e-310 Euler steps overflows to inf: a row error, not a traceback
    code, out, err = run(capsys, "sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                         "-p", "delta=0", "--dt", "1e-310")
    assert code == 1
    assert out.splitlines()[1] == "0.3,,,"
    summary, point, message = err.splitlines()
    assert json.loads(summary)["failures"] == 1
    assert point == ("point beta=0.3 failed: SimError: the run would take inf Euler "
                     "steps, more than 1000000000; use a larger dt")
    assert message == "error: every grid point failed"


def test_sweep_requires_grid(capsys):
    code, _, err = run(capsys, "sweep", "--builtin", "sirs")
    assert code == 2 and "--grid" in err


def test_sweep_rejects_unknown_grid_param(capsys):
    code, _, err = run(capsys, "sweep", "--builtin", "sirs",
                       "--grid", "zeta=1:2:2")
    assert code == 1 and "zeta" in err


def test_sweep_rejects_malformed_grid(capsys):
    code, _, err = run(capsys, "sweep", "--builtin", "sirs",
                       "--grid", "beta=1:2")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--builtin", "sirs",
                       "--grid", "beta=1:2:0")
    assert code == 2


# ------------------------------------------------------------ list-models

def test_list_models(capsys):
    code, out, _ = run(capsys, "list-models")
    assert code == 0
    assert "sirs" in out and "params:" in out
    assert out.count("\n") == 18   # two lines per entry


# ---------------------------------------------------------------- helpers

def test_parse_grid_exact_endpoints():
    grid = _parse_grid(["beta=0.1:0.5:5"])
    assert grid["beta"][0] == 0.1 and grid["beta"][-1] == 0.5
    assert len(grid["beta"]) == 5
    assert _parse_grid(["g=2:9:1"]) == {"g": [2.0]}


def test_round12_trims_float_noise():
    assert _round12(0.1 + 0.2) == 0.3
    assert _round12({"a": [1 / 3]}) == {"a": [0.333333333333]}
    assert repr(_round12(-0.0)) == "0.0"


# ------------------------------------------------------------- no tracebacks

def sir_net(kind="vapn", s_init=99, i_init=1, incidence="beta*S*I/N"):
    """A three-place SIR net whose incidence term is given."""
    if kind == "spn":
        return f"""\
model odd kind=spn
param beta=0.3
param gamma=0.1
place S init={s_init}
place I init={i_init} infected
place R init=0
trans infect rate="{incidence}"
trans recover rate="gamma*I"
arc S -> infect mult=1
arc I -> infect mult=1
arc infect -> I mult=2
arc I -> recover mult=1
arc recover -> R mult=1
"""
    return f"""\
model odd kind=vapn
param beta=0.3
param gamma=0.1
place S init={s_init}
place I init={i_init} infected
place R init=0
trans infect
trans recover
arc S -> infect weight="{incidence}"
arc infect -> I weight="{incidence}"
arc I -> recover weight="gamma*I"
arc recover -> R weight="gamma*I"
"""


NETS = {
    "pow_overflow": sir_net(s_init="1e200", incidence="beta*S^2*I/N"),
    "divzero_vapn": sir_net(incidence="beta*S/(I-I)"),
    "divzero_spn": sir_net("spn", incidence="beta*S/(I-I)"),
    "complex_power": sir_net(s_init=1, i_init=5, incidence="beta*(S-I)^0.5"),
    "infinite_exponent": sir_net(incidence="beta*S*I^1e400"),
    "infinite_number": sir_net(incidence="1e400*S"),
    "exponent_divzero": sir_net(incidence="beta*S*I^(1/0)"),
    "exponent_zero_to_negative": sir_net(incidence="beta*S*I^(0^-1)"),
    "exponent_complex": sir_net(incidence="beta*S*I^((-1)^0.5)"),
    "unterminated_quote": sir_net().replace('weight="gamma*I"', 'weight="gamma*II', 1),
    "infected_transition": sir_net().replace("trans recover", "trans recover infected"),
    "param_nan": sir_net().replace("param beta=0.3", "param beta=nan"),
    "init_nan_vapn": sir_net(s_init="nan"),
    "init_inf_spn": sir_net("spn", s_init="inf"),
    "init_nan_spn": sir_net("spn", s_init="nan"),
    "count_bound_spn": sir_net("spn", s_init=2**53),
    # beyond expr.MAX_DEPTH or expr.MAX_NODES; unbounded, the parser's or
    # diff's recursion overflows the stack, and the derivatives of a product
    # cost about the square of its factors
    "expr_nested_brackets": sir_net(incidence="(" * 200 + "beta*S*I/N" + ")" * 200),
    "expr_quotient_chain": sir_net(incidence="beta*S*I" + "/N" * 199),
    "expr_oversized_product": sir_net(incidence="beta*S*I/N" + "*1" * 1000),
    # dX/dt = X^3 from X = 5: the Euler run passes 1e308 at t = 0.7
    "vapn_overflow": """\
model blowup kind=vapn
param a=2
place X init=5 infected
place R init=0
trans grow
trans leave
arc grow -> X weight="a*X*X*X"
arc X -> leave weight="X*X*X"
arc leave -> R weight="X*X*X"
""",
}

# (argv with {dir} and {net} placeholders, exit code); each must end in one
# "error:" line
ERROR_CASES = {
    "r0_directory": (["r0", "{dir}"], 2),
    "r0_not_utf8": (["r0", "{dir}/latin1.pnet"], 2),
    "unknown_builtin": (["validate", "--builtin", "nonexistent"], 2),
    "output_is_directory": (["simulate", "--builtin", "sirs", "--t-end", "1",
                             "-o", "{dir}"], 2),
    "pow_overflow": (["r0", "{net}"], 1),
    "divzero_vapn": (["simulate", "{net}", "--t-end", "1"], 1),
    "divzero_spn": (["simulate", "{net}", "--t-end", "1", "--seed", "1"], 1),
    "complex_power": (["simulate", "{net}", "--t-end", "1"], 1),
    # a marking that turns inf or nan ends the run, not a CSV of nan rows
    "vapn_overflow": (["simulate", "{net}", "--t-end", "1", "--dt", "0.1"], 1),
    "infinite_exponent": (["r0", "{net}"], 2),
    "infinite_number": (["simulate", "{net}", "--t-end", "1"], 2),
    # an exponent is evaluated at parse time, so its failure is the file's
    "exponent_divzero": (["r0", "{net}"], 2),
    "exponent_zero_to_negative": (["r0", "{net}"], 2),
    "exponent_complex": (["r0", "{net}"], 2),
    "expr_nested_brackets": (["r0", "{net}"], 2),
    "expr_quotient_chain": (["r0", "{net}"], 2),
    "expr_oversized_product": (["r0", "{net}"], 2),
    # a malformed model file is a usage error, found before any computation
    "unterminated_quote": (["r0", "{net}"], 2),
    "infected_transition": (["simulate", "{net}", "--t-end", "1"], 2),
    "param_nan": (["r0", "{net}"], 2),
    "init_nan_vapn": (["simulate", "{net}", "--t-end", "1"], 2),
    "init_inf_spn": (["simulate", "{net}", "--t-end", "1", "--seed", "1"], 2),
    "init_nan_spn": (["r0", "{net}"], 2),
    # refused before the sample lists are allocated
    "too_many_samples_vapn": (["simulate", "--builtin", "sirs", "--t-end", "2e8",
                               "--dt", "10"], 1),
    "too_many_samples_spn": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                              "--sample-dt", "1e-300", "--seed", "1"], 1),
    # refused before any event: the counts could pass 2**53, past which
    # floats do not count exactly
    "count_bound_spn": (["simulate", "{net}", "--t-end", "1", "--seed", "1"], 1),
    # 1001 samples, but refused before any of its 1e12 Euler steps
    "too_many_steps_vapn": (["simulate", "--builtin", "sirs", "--t-end", "1",
                             "--dt", "1e-12", "--sample-every", "1000000000"], 1),
    # a step that is not positive and finite is the command line's fault
    "dt_infinite_simulate": (["simulate", "--builtin", "sirs", "--t-end", "10",
                              "--dt", "inf"], 2),
    "dt_nan_simulate": (["simulate", "--builtin", "sirs", "--t-end", "10",
                         "--dt", "nan"], 2),
    "dt_infinite_sweep": (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                           "--dt", "inf"], 2),
    "dt_zero_sweep": (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                       "--dt", "0"], 2),
    # so is every other numeric option the library would refuse
    "sample_every_zero": (["simulate", "--builtin", "sirs", "--t-end", "1",
                           "--sample-every", "0"], 2),
    "sample_dt_zero": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                        "--seed", "1", "--sample-dt", "0"], 2),
    "sample_dt_nan": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                       "--seed", "1", "--sample-dt", "nan"], 2),
    "replicates_zero": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                         "--seed", "1", "--replicates", "0"], 2),
    "max_t_infinite_sweep": (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                              "--max-t", "inf"], 2),
    "conv_tol_nan_sweep": (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                            "--conv-tol", "nan"], 2),
    "conv_tol_negative_sweep": (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                                 "--conv-tol", "-1"], 2),
    # an option of the other simulator is refused, not silently ignored
    "sample_dt_on_vapn": (["simulate", "--builtin", "sirs", "--t-end", "1",
                           "--sample-dt", "0.5", "--seed", "3"], 2),
    "sample_every_on_spn": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                             "--sample-every", "5", "--seed", "3"], 2),
    "dt_on_spn": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                   "--dt", "0.3", "--seed", "3"], 2),
    "replicates_one_on_vapn": (["simulate", "--builtin", "sirs", "--t-end", "1",
                                "--replicates", "1"], 2),
    "seed_on_vapn": (["simulate", "--builtin", "sirs", "--t-end", "1",
                      "--seed", "3"], 2),
    "negative_seed": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                       "--seed", "-1"], 1),
    "negative_seed_replicates": (["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                                  "--seed", "-1", "--replicates", "2"], 1),
    # the sweep's simulator is deterministic
    "sweep_spn": (["sweep", "--builtin", "sirs_spn", "--grid", "beta=0.3:0.4:2",
                   "-p", "delta=0"], 1),
    # a grid value that is not finite is the spec's fault, not the model's
    "grid_bound_overflows": (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:1e400:2",
                              "-p", "delta=0"], 2),
    "grid_bound_nan": (["sweep", "--builtin", "sirs", "--grid", "beta=nan:0.3:2",
                        "-p", "delta=0"], 2),
    "grid_step_overflows": (["sweep", "--builtin", "sirs", "--grid", "beta=-1e308:1e308:3",
                             "-p", "delta=0"], 2),
    "grid_without_equals": (["sweep", "--builtin", "sirs", "--grid", "beta"], 2),
    # a later spec of the same name would silently replace the first
    "grid_name_repeated": (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.4:2",
                            "--grid", " beta =0.5:0.5:1", "-p", "delta=0"], 2),
    "grid_bound_not_a_number": (["sweep", "--builtin", "sirs", "--grid", "beta=low:0.3:2",
                                 "-p", "delta=0"], 2),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_ends_in_one_error_line(case, tmp_path, capsys):
    argv, expected = ERROR_CASES[case]
    (tmp_path / "latin1.pnet").write_bytes(b"model x kind=vapn\n# caf\xe9\n")
    net = tmp_path / "net.pnet"
    net.write_text(NETS.get(case, ""))
    argv = [a.format(dir=tmp_path, net=net) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""                     # a sweep stops before any CSV row
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_sweep_summary_has_no_infinity(capsys, tmp_path):
    # the first Euler step empties S exactly, without a clip
    # (dt*beta*S*I/N = 0.5*4*0.5*0.5/1 = S): r0_hat is infinite
    net = tmp_path / "net.pnet"
    net.write_text(sir_net(s_init=0.5, i_init=0.5))
    code, out, err = run(capsys, "sweep", str(net), "--grid", "beta=4:4:1", "--dt", "0.5")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "inf"

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    summary = json.loads(err, parse_constant=reject)
    assert summary["rrmse"] is None and summary["max_rel_err"] is None
    assert summary["failures"] == 0


def test_sweep_point_whose_run_clips_is_a_failure(capsys):
    # dt so coarse that the susceptibles overshoot zero and are clipped
    code, out, err = run(capsys, "sweep", "--builtin", "nonlinear",
                         "--grid", "beta=50:50:1", "--dt", "30", "-p", "mu=0")
    assert code == 1
    assert out.splitlines()[1] == "50,,,"
    summary, point, message = err.splitlines()
    assert json.loads(summary)["failures"] == 1
    assert point == ("point beta=50 failed: EstimateError: clipping at zero created "
                     "tokens in 6 place-steps of the run; use a smaller dt (--dt)")
    assert message == "error: every grid point failed"


def test_sweep_names_each_failed_point_on_stderr(capsys, tmp_path):
    # at dt 3 the beta=1.5 run clips and beta=0.3 does not: the sweep
    # succeeds, and stderr says why the row with empty cells failed
    argv = ["sweep", "--builtin", "sirs", "--grid", "beta=0.3:1.5:2", "-p", "delta=0",
            "-p", "gamma=0.1", "--dt", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[2] == "1.5,,,"
    summary, point = err.splitlines()
    assert json.loads(summary)["failures"] == 1
    assert point == ("point beta=1.5 failed: EstimateError: clipping at zero created "
                     "tokens in 1 place-steps of the run; use a smaller dt (--dt)")
    # with -o the summary goes to stdout, and the point still to stderr
    code, out, err = run(capsys, *argv, "-o", str(tmp_path / "sweep.csv"))
    assert code == 0
    assert json.loads(out)["failures"] == 1
    assert err == point + "\n"


# ------------------------------------------------------------------ imports

# Run in a fresh interpreter: after each step, which of numpy and
# dataclasses are loaded. Command output goes to a buffer.
IMPORT_PROBE = """
import contextlib, io, json, sys
loaded = lambda: [m for m in ("numpy", "dataclasses") if m in sys.modules]
steps = {}
import ngmpn.cli
steps["import"] = loaded()
for name, argv in [
        ("r0", ["r0", "--builtin", "patch2"]),
        ("simulate vapn", ["simulate", "--builtin", "sirs", "--t-end", "1"]),
        ("sweep", ["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                   "-p", "delta=0"]),
        ("simulate spn", ["simulate", "--builtin", "sirs_spn", "--t-end", "1",
                          "--seed", "1"])]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert ngmpn.cli.main(argv) == 0, name
    steps[name] = loaded()
print(json.dumps(steps))
"""


def test_only_a_stochastic_run_loads_numpy():
    # one R0, a vapn run and a sweep are the paper's one-shot uses: a process
    # doing them pays for neither numpy nor dataclasses at import
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "r0": [], "simulate vapn": [],
                                       "sweep": [], "simulate spn": ["numpy"]}


def test_builtin_models_load_without_importlib_resources():
    # modelzoo reads its models from the directory next to it; without site
    # (-S) nothing else imports importlib.resources on the way
    probe = ("import contextlib, io, sys\n"
             "import ngmpn.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert ngmpn.cli.main(['r0', '--builtin', 'sirs']) == 0\n"
             "print('importlib.resources' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# ------------------------------------------------------------------ bounds

# Run in a fresh interpreter whose address space is capped at 1 GiB: an
# oversized grid or replicate count must be refused before anything of its
# size is built, so no case may end in MemoryError.
BOUND_PROBE = """
import contextlib, io, json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from ngmpn import builtin, run_spn_replicates, sweep
from ngmpn.cli import main
out = {}
for name, argv in [
        ("grid count", ["sweep", "--builtin", "sirs", "--grid", "beta=0.1:0.5:1000000000"]),
        ("grid product", ["sweep", "--builtin", "sirs", "--grid", "beta=0.1:0.5:100000",
                          "--grid", "gamma=0.1:0.2:100000"]),
        ("replicates", ["simulate", "--builtin", "sirs_spn", "--t-end", "1", "--seed", "1",
                        "--replicates", "100000000"])]:
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = type(exc).__name__
    out[name] = [code, err.getvalue()]
for name, call in [
        ("sweep", lambda: sweep(builtin("sirs"), {"beta": [0.3] * 100000,
                                                  "gamma": [0.1] * 100000})),
        ("run_spn_replicates", lambda: run_spn_replicates(builtin("sirs_spn"), 1.0, seed=1,
                                                          replicates=10**8))]:
    try:
        out[name] = repr(call())
    except Exception as exc:
        out[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(out))
"""


def test_oversized_grids_and_replicate_counts_are_refused_before_allocating():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", BOUND_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grid = f"error: --grid: the grid has more than {MAX_GRID_POINTS} points\n"
    assert json.loads(proc.stdout) == {
        "grid count": [2, grid],
        "grid product": [2, grid],
        "replicates": [2, f"error: --replicates must be an integer from 1 to "
                          f"{MAX_REPLICATES}\n"],
        "sweep": f"EstimateError: the grid has more than {MAX_GRID_POINTS} points",
        "run_spn_replicates": f"SimError: replicates must be an integer from 1 to "
                              f"{MAX_REPLICATES}, got 100000000",
    }
