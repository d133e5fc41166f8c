import argparse
import dataclasses
import json
import re
import shlex
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import pytest

from adiophantine import decision, hamiltonians
from adiophantine.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    SETTINGS,
    build_parser,
    main,
)
from adiophantine.decision import (
    REPORT_SCHEMA,
    DecideConfig,
    decide,
    report_to_json_dict,
)
from adiophantine.diophantine import parse_equation
from adiophantine.fock import TruncationWarning

README = Path(__file__).resolve().parents[1] / "README.md"

pytestmark = pytest.mark.filterwarnings(
    "ignore::adiophantine.fock.TruncationWarning"
)

SCHEDULE = ["--T0", "10", "--jmax", "3", "--step", "0.05"]
FAST = ["--cutoff", "7", *SCHEDULE]


# -- check ---------------------------------------------------------------------


def test_check_ok(capsys):
    assert main(["check", "x+y-5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "canonical: x + y - 5" in out
    assert "num_vars: 2" in out


def test_check_expands(capsys):
    assert main(["check", "(x+1)^3-8"]) == EXIT_OK
    assert "x^3 + 3*x^2 + 3*x - 7" in capsys.readouterr().out


@pytest.mark.parametrize(
    "equation",
    [
        "x^y",
        "x^²",
        "x - ٣",
        # more digits than Python converts to an int
        pytest.param("1" * 5001, id="5001-digit-literal"),
        pytest.param("x^" + "1" * 5001, id="5001-digit-exponent"),
    ],
)
def test_check_parse_error_exit_code(capsys, equation):
    assert main(["check", equation]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "position" in err


@pytest.mark.parametrize(
    "args",
    [
        ["check", "x^" + "9" * 4300 + "*x^" + "9" * 4300],
        ["decide", f"x^{2**63} - 1", "--cutoff", "1", "--out", "out"],
        ["oracle", f"x^{2**63} - 1", "--bound", "1"],
    ],
    ids=["check", "decide", "oracle"],
)
def test_exponents_past_the_64_bit_range_exit_two_and_write_nothing(
    tmp_path, monkeypatch, capsys, args
):
    monkeypatch.chdir(tmp_path)
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error: 64-bit exponent exceeds the signed 64-bit range" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, position",
    [
        (["check", "2^64"], 2),
        (["check", f"{2**63 - 1} + 1"], 20),
        (["check", str(2**64)], 0),
        (["decide", "(x+1)^100", "--out", "out"], 6),
    ],
    ids=["power", "sum", "literal", "decide"],
)
def test_coefficients_past_the_64_bit_range_exit_two_and_write_nothing(
    tmp_path, monkeypatch, capsys, args, position
):
    monkeypatch.chdir(tmp_path)
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: coefficient ")
    assert captured.err.rstrip().endswith(
        f"exceeds the signed 64-bit range (at position {position})"
    )
    assert list(tmp_path.iterdir()) == []


def test_the_largest_exponent_decides(tmp_path, capsys):
    equation = f"x^{2**63 - 1} - 1"
    assert main(["decide", equation, "--cutoff", "1", "--out", str(tmp_path)]) == EXIT_OK
    assert main(["oracle", equation, "--bound", "1"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("(1)\n")


# -- oracle --------------------------------------------------------------------


def test_oracle_witness(capsys):
    assert main(["oracle", "x+y-5", "--bound", "10"]) == EXIT_OK
    assert "(0, 5)" in capsys.readouterr().out


def test_oracle_none(capsys):
    assert main(["oracle", "2*x-3", "--bound", "100"]) == EXIT_OK
    assert "none within bound 100" in capsys.readouterr().out


def test_oracle_pythagorean(capsys):
    assert main(["oracle", "(x+1)^2+(y+1)^2-(z+1)^2", "--bound", "6"]) == EXIT_OK
    assert "(2, 3, 4)" in capsys.readouterr().out


def test_oracle_positive_semantics(capsys):
    assert main(["oracle", "x^2-4", "--bound", "8", "--semantics", "positive"]) == EXIT_OK
    assert "(2)" in capsys.readouterr().out


def test_oracle_cutoff_is_the_default_bound(capsys):
    # a box search holds no dense array, so no dimension limit applies
    assert main(["oracle", "x - 9000", "--cutoff", "9000"]) == EXIT_OK
    assert main(["oracle", "x - 1", "--cutoff", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "(9000)\nnone within bound 0\n"


def test_oracle_negative_bound_is_a_config_error(capsys):
    assert main(["oracle", "x - 1", "--bound", "-1"]) == EXIT_USAGE
    assert "config error: bound must be non-negative" in capsys.readouterr().err


# -- spectrum / evolve -----------------------------------------------------------


def test_spectrum_writes_csv(tmp_path, capsys):
    code = main(["spectrum", "x-1", "--cutoff", "8", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
    assert len(lines) == 102  # header + 101 grid rows
    header = lines[0].split(",")
    assert header[0] == "s" and "gap" in header
    gap_column = header.index("gap")
    gaps = [float(line.split(",")[gap_column]) for line in lines[1:]]
    assert all(g > 0 for g in gaps)


def test_evolve_writes_trace(tmp_path, capsys):
    code = main(
        ["evolve", "x-1", "--cutoff", "6", "--T", "5", "--step", "0.05",
         "--out", str(tmp_path), "--dump-probabilities"]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "t,norm_error,p_top1,p_top2,top1_index"
    assert len(lines) == 102
    dump = json.loads((tmp_path / "probabilities.json").read_text())
    assert dump["basis"] == {"num_modes": 1, "cutoff": 6}


# -- decide ------------------------------------------------------------------------


def test_decide_solution_exists(tmp_path, capsys):
    code = main(["decide", "x-1", *FAST, "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "decision.json").read_text())
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["verdict"] == "solution_exists"
    assert data["witness"] == [1]
    assert data["config"]["cutoff"] == 7
    out = capsys.readouterr().out
    assert "solution_exists" in out


def test_decide_defaults_to_split_and_midexp_keeps_its_golden(tmp_path):
    out_split, out_midexp = tmp_path / "split", tmp_path / "midexp"
    assert main(["decide", "x - 1", "--out", str(out_split)]) == EXIT_OK
    data = json.loads((out_split / "decision.json").read_text())
    assert data["config"]["integrator"] == "split"
    # with no flags, every run setting is the library's default
    report = decide(parse_equation("x - 1"), DecideConfig())
    assert data["config"] == report_to_json_dict(report)["config"]
    code = main(["decide", "x - 1", "--integrator", "midexp", "--out", str(out_midexp)])
    assert code == EXIT_OK
    data = json.loads((out_midexp / "decision.json").read_text())
    assert data["config"]["integrator"] == "midexp"
    # the x - 1 golden of the decision tests, default cutoff 8
    assert data["class_probability"] == pytest.approx(0.9181706202384153, abs=1e-12)


def test_decide_inconclusive_exit_three(tmp_path):
    code = main(
        ["decide", "x+y-5", "--cutoff", "5", "--T0", "0.01", "--jmax", "0",
         "--step", "0.05", "--out", str(tmp_path)]
    )
    assert code == EXIT_INCONCLUSIVE
    data = json.loads((tmp_path / "decision.json").read_text())
    assert data["verdict"] == "inconclusive"


def test_decide_negative_jmax_is_a_config_error(tmp_path, capsys):
    code = main(["decide", "x - 1", "--jmax", "-1", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "config error: j_max must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "decision.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cutoff", "0"], "cutoff must be at least 1"),
        (["--step", "0"], "step must be positive and finite"),
        (["--step", "nan"], "step must be positive and finite"),
        (["--T0", "-1"], "t0 must be positive and finite"),
    ],
)
def test_decide_out_of_range_settings_are_config_errors(tmp_path, capsys, flags, message):
    code = main(["decide", "x - 1", *flags, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "decision.json").exists()


def test_decide_requires_equation(capsys):
    assert main(["decide"]) == EXIT_USAGE
    assert "equation" in capsys.readouterr().err


def test_decide_runtime_error_exit_one(tmp_path, capsys):
    # squared values overflow the 64-bit guard
    code = main(["decide", "3000000000*x", *FAST, "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME


def test_decide_unstable_rk4_exit_one(tmp_path, capsys):
    code = main(
        ["decide", "x - 20", "--cutoff", "8", "--integrator", "rk4",
         "--out", str(tmp_path)]
    )
    assert code == EXIT_RUNTIME
    assert "smaller step" in capsys.readouterr().err


# -- sample ------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["evolve", "sample"])
def test_a_single_run_is_checked_as_its_own_rung(tmp_path, capsys, command):
    # 100 steps; the decide ladder's last rung, 640 / 1e-192 steps, would
    # overflow, but a single run builds no ladder
    flags = ["--cutoff", "4", "--T", "1e-190", "--step", "1e-192"]
    assert main([command, "x - 1", *flags, "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / WRITES[command]).exists()


def test_sample_writes_csv(tmp_path, capsys):
    code = main(
        ["sample", "x-1", "--cutoff", "6", "--T", "10", "--step", "0.05",
         "--shots", "2000", "--seed", "11", "--out", str(tmp_path)]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "measurements.csv").read_text().strip().split("\n")
    assert lines[0] == "index,count,frequency,exact_probability"
    assert len(lines) == 8
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 2000


# -- sweep -------------------------------------------------------------------------


def test_sweep_stable(tmp_path, capsys):
    code = main(["sweep", "x-1", *SCHEDULE, "--cutoffs", "3,5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["stable"] is True
    assert len(data["reports"]) == 2
    assert "cutoff" in data["caveat"]


def test_sweep_requires_cutoffs(tmp_path, capsys):
    assert main(["sweep", "x-1", "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "cutoffs, message",
    [
        ("0", "cutoff must be at least 1, got 0"),
        ("3,2", "cutoffs must be strictly ascending"),
    ],
)
def test_sweep_bad_cutoffs_are_config_errors(tmp_path, capsys, cutoffs, message):
    code = main(["sweep", "x - 1", "--cutoffs", cutoffs, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_schedule_that_overflows_is_a_config_error(tmp_path, capsys):
    args = ["sweep", "x - 1", "--cutoffs", "2,3", "--T0", "1e308"]
    assert main([*args, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: last run time t0 * 2^j_max overflows" in err
    assert not (tmp_path / "out").exists()


# -- config files and overrides -------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    config = {
        "equation": "x-1",
        "cutoff": 7,
        "t0": 10.0,
        "j_max": 3,
        "step": 0.05,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_a = tmp_path / "a"
    code = main(["decide", "--config", str(path), "--out", str(out_a)])
    assert code == EXIT_OK
    data = json.loads((out_a / "decision.json").read_text())
    assert data["cutoff"] == 7
    # flag overrides the file
    out_b = tmp_path / "b"
    code = main(["decide", "--config", str(path), "--cutoff", "5", "--out", str(out_b)])
    assert code == EXIT_OK
    data_b = json.loads((out_b / "decision.json").read_text())
    assert data_b["cutoff"] == 5


def test_config_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"equation": "x-1", "cutof": 5}))
    assert main(["decide", "--config", str(path)]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err


# -- reproducibility --------------------------------------------------------------------


def test_reports_are_byte_identical_modulo_sidecar(tmp_path):
    args = ["decide", "x-1", *FAST]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == EXIT_OK
    assert main([*args, "--out", str(out_b)]) == EXIT_OK
    data_a = json.loads((out_a / "decision.json").read_text())
    data_b = json.loads((out_b / "decision.json").read_text())
    data_a.pop("sidecar")
    data_b.pop("sidecar")
    assert json.dumps(data_a, sort_keys=True) == json.dumps(data_b, sort_keys=True)


def test_reproducible_knob_is_gone(tmp_path, capsys):
    # BLAS threads are pinned from the environment, not by a flag
    with pytest.raises(SystemExit) as exc:
        main(["decide", "x-1", *FAST, "--reproducible", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"equation": "x-1", "reproducible": True}))
    assert main(["decide", "--config", str(path), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "unknown config key 'reproducible'" in capsys.readouterr().err


# -- the option surface -------------------------------------------------------------

REMOVED_FLAGS = {
    "check": "--out --seed --cutoff --T0 --jmax --T --step --integrator --semantics "
    "--strict-criterion",
    "oracle": "--out --seed --T0 --jmax --T --step --integrator --strict-criterion",
    "spectrum": "--seed --T0 --jmax --T --step --integrator --strict-criterion",
    "evolve": "--seed --T0 --jmax --strict-criterion",
    "decide": "--seed --T --extrapolation-steps --record-grid",
    "sample": "--T0 --jmax --strict-criterion --record-grid",
    "sweep": "--cutoff --seed --T --extrapolation-steps --record-grid",
}
FLAG_VALUES = {"--integrator": ["rk4"], "--semantics": ["positive"], "--strict-criterion": []}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags.split()],
)
def test_flags_a_subcommand_does_not_read_are_refused(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "x - 1", flag, *FLAG_VALUES.get(flag, ["1"])])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_decide_config_holds_exactly_the_settings_of_decide():
    names = {f.name for f in dataclasses.fields(DecideConfig)}
    assert names == set(SETTINGS["decide"]) - {"out_dir"}
    assert len(names) == 8


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "x - 1", "--cutoff", "7"],
        ["decide", "x - 1", "--jm", "0"],
        ["decide", "x - 1", "--stri"],
        ["spectrum", "x - 1", "--lev", "3"],
    ],
)
def test_abbreviated_flags_are_refused(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("check", "cutoff", 5),
        ("oracle", "out_dir", "."),
        ("spectrum", "seed", 1),
        ("evolve", "j_max", 2),
        ("decide", "shots", 100),
        ("sample", "strict_criterion", True),
        ("sample", "record_grid", 5),
        ("sweep", "cutoff", 7),
        # removed settings are refused, also when null
        ("decide", "extrapolation_steps", [0.04, 0.02, 0.01]),
        ("sweep", "extrapolation_steps", None),
        ("decide", "record_grid", 1),
        ("sweep", "record_grid", 101),
        # ties are broken at the fixed DecideConfig.tie_tol
        ("decide", "tie_tol", -1),
        ("decide", "tie_tol", None),
        ("sweep", "tie_tol", 1e-9),
        # a crossing is flagged under the fixed hamiltonians.GAP_TOL
        ("spectrum", "gap_tol", 1e-9),
        # a single run's time is --T
        ("evolve", "t0", 10.0),
        ("sample", "t0", 10.0),
    ],
)
def test_config_keys_a_subcommand_does_not_read_are_refused(
    tmp_path, monkeypatch, capsys, command, key, value
):
    assert key not in SETTINGS[command]
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({"equation": "x - 1", key: value}))
    assert main([command, "--config", "config.json"]) == EXIT_USAGE
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, config, message",
    [
        ("evolve", ["--record-grid", "1"], None, "record_grid must be at least 2"),
        ("evolve", ["--T", "-1"], None, "total_time must be positive"),
        # schedules that cannot be stepped
        (
            "evolve",
            ["--T", "1e300", "--step", "1e-300"],
            None,
            "step count 1e+300 / 1e-300 overflows",
        ),
        ("decide", ["--T0", "1e308"], None, "last run time t0 * 2^j_max overflows"),
        ("decide", ["--jmax", "2000"], None, "last run time t0 * 2^j_max overflows"),
        ("spectrum", ["--grid", "1"], None, "grid_size must be at least 2"),
        ("spectrum", ["--levels", "-3"], None, "levels must be at least 2, got -3"),
        ("sample", ["--shots", "0"], None, "shots must be at least 1"),
        # numpy draws at most 2^63 - 1 shots
        (
            "sample",
            ["--shots", "100000000000000000000"],
            None,
            "shots must be at least 1 and below 2^63, got 100000000000000000000",
        ),
        (
            "sample",
            [],
            {"shots": 100000000000000000000},
            "shots must be at least 1 and below 2^63, got 100000000000000000000",
        ),
        ("decide", ["--jmax", "-1"], None, "j_max must be at least 0, got -1"),
    ],
)
def test_out_of_range_settings_exit_two_and_write_nothing(
    tmp_path, capsys, command, flags, config, message
):
    out = tmp_path / "out"
    args = [command, "x - 1", "--cutoff", "4", *flags, "--out", str(out)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, run_time",
    [
        # the one run, at the default T
        ("evolve", ["--cutoff", "4"], "10.0"),
        ("sample", ["--cutoff", "4"], "10.0"),
        # the longest rung, T0 * 2^6
        ("decide", ["--cutoff", "4"], "640.0"),
        ("sweep", ["--cutoffs", "3,4"], "640.0"),
    ],
)
def test_step_count_past_int64_exits_two_and_writes_nothing(
    tmp_path, capsys, command, flags, run_time
):
    # 1e201 steps is finite, but does not fit int64: refused before any
    # run starts
    out = tmp_path / "out"
    args = [command, "x - 1", *flags, "--step", "1e-200", "--out", str(out)]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: step count {run_time} / 1e-200 overflows" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_huge_spectrum_grid_is_refused_before_it_allocates(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["spectrum", "x - 1", "--grid", "1000000000", "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: grid_size 1000000000 at 6 levels" in err
    assert "48 GB" in err
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("decide", {"strict_criterion": "no"}),
        ("evolve", {"dump_probabilities": "no"}),
        ("oracle", {"bound": "3"}),
        ("spectrum", {"cutoff": 2.5}),
        ("decide", {"cutoff": True}),
        ("decide", {"t0": "10"}),
        ("evolve", {"out_dir": 5}),
        ("sweep", {"cutoffs": [3, "5"]}),
        ("decide", {"integrator": 1}),
        ("spectrum", {"equation": 5}),
        ("sweep", {"j_max": 1.5}),
        ("decide", {"alphas": True}),
        ("decide", {"alphas": [[True, False]]}),
    ],
)
def test_config_values_of_the_wrong_type_exit_two_and_write_nothing(
    tmp_path, monkeypatch, capsys, command, config
):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({"equation": "x - 1", **config}))
    assert main([command, "--config", "config.json"]) == EXIT_USAGE
    err = capsys.readouterr().err
    key, value = next(iter(config.items()))
    assert f"config error: invalid {key} {value!r}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["decide", "sweep", "evolve", "spectrum", "sample"])
@pytest.mark.parametrize(
    "equation, config, message",
    [
        ("5", "{}", "equation has no variables to solve for"),
        ("x + y - 1", '{"alphas": [[1, 0]]}', "expected 2 displacements, got 1"),
        ("x + y - 1", '{"alphas": 1e400}', "alphas must be finite"),
        ("x + y - 1", '{"alphas": NaN}', "alphas must be finite"),
        (
            "x + y - 1",
            '{"alphas": [[1e308, 1e308], [0, 0]]}',
            "displacements ((1e+308+1e+308j), 0j) overflow the start state",
        ),
    ],
)
def test_equation_config_errors_exit_two_and_write_nothing(
    tmp_path, monkeypatch, capsys, command, equation, config, message
):
    # the equation's variable count and the displacements are checked
    # against each other before any run, by every subcommand that builds a path
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(config)
    cutoffs = ["--cutoffs", "2,3"] if command == "sweep" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, equation, "--config", "config.json", *cutoffs])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["decide", "sweep", "evolve", "spectrum", "sample"])
def test_a_basis_over_the_dimension_limit_exits_two_and_writes_nothing(
    tmp_path, monkeypatch, capsys, command
):
    # the limit is patched down to 100 and x*y*z - 8 at cutoff 4 has d = 125:
    # a regressed guard at the real limit would allocate gigabytes
    monkeypatch.setattr(hamiltonians, "MAX_DIMENSION", 100)
    monkeypatch.chdir(tmp_path)
    cutoffs = ["--cutoffs", "3,4"] if command == "sweep" else ["--cutoff", "4"]
    assert main([command, "x*y*z - 8", *cutoffs]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: basis dimension 125 exceeds 100: each dense" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_cutoff_over_the_dimension_limit_is_refused_before_the_start_norms(
    tmp_path, monkeypatch, capsys
):
    # _log_norms builds a list of cutoff floats: at 10^21 a regressed guard
    # would run out of memory, so the stub fails the test instead
    log_norms = decision._log_norms

    def guarded(alphas, cutoff):
        if cutoff >= hamiltonians.MAX_DIMENSION:
            pytest.fail(f"_log_norms was called at cutoff {cutoff}")
        return log_norms(alphas, cutoff)

    monkeypatch.setattr(decision, "_log_norms", guarded)
    huge = 10**21
    message = f"cutoff must be below 8192, got {huge}"
    with pytest.raises(ValueError, match=message):
        DecideConfig(cutoff=huge)
    with pytest.raises(ValueError, match="below 8192, got 8192"):
        DecideConfig(cutoff=hamiltonians.MAX_DIMENSION)
    monkeypatch.chdir(tmp_path)
    for args in (["decide", "--cutoff", str(huge)], ["sweep", "--cutoffs", f"1,{huge}"]):
        assert main([args[0], "x - 1", *args[1:]]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_large_displacements_run_and_overflowing_ones_are_config_errors(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text('{"alphas": 30}')
    with pytest.warns(TruncationWarning, match="loses weight 1.000e"):
        code = main(["evolve", "x - 1", "--cutoff", "4", "--config", "config.json"])
    assert code == EXIT_OK
    assert Path("trace.csv").exists()
    Path("trace.csv").unlink()
    Path("config.json").write_text('{"alphas": [[1e308, 1e308]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["evolve", "x - 1", "--cutoff", "4", "--config", "config.json"])
    assert code == EXIT_USAGE
    assert "config error: displacements" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    # one mode's state is representable at cutoff 2, two modes' are not;
    # a sweep checks them at its largest cutoff
    Path("config.json").write_text('{"alphas": 1e50}')
    for command, flags in (("decide", "--cutoff=2"), ("sweep", "--cutoffs=1,2")):
        args = [command, "x + y - 1", flags, "--config", "config.json"]
        assert main(args) == EXIT_USAGE
        assert "overflow the start state at cutoff 2" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "equation, flags",
    [
        ("x*y - 6", ["--cutoff", "5"]),
        ("x*y*z - 8", ["--cutoff", "3", "--semantics", "positive"]),
        ("x - 2", ["--cutoff", "6", "--integrator", "midexp", "--step", "0.04"]),
    ],
)
def test_a_reports_config_replays_the_report(tmp_path, equation, flags):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["decide", equation, *flags, "--out", str(first)]) == EXIT_OK
    report = json.loads((first / "decision.json").read_text())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"equation": equation, **report["config"]}))
    assert main(["decide", "--config", str(path), "--out", str(second)]) == EXIT_OK
    replayed = json.loads((second / "decision.json").read_text())
    report.pop("sidecar")
    replayed.pop("sidecar")
    assert replayed == report


# the file each subcommand writes into --out
WRITES = {
    "spectrum": "spectrum.csv",
    "evolve": "trace.csv",
    "decide": "decision.json",
    "sample": "measurements.csv",
    "sweep": "sweep.json",
}


def test_readme_commands_run(tmp_path, monkeypatch):
    # the command block under "Command line", one command a line
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert words[0] == "adiophantine"
        assert main(words[1:]) == EXIT_OK, words
        command = words[1]
        if command in WRITES:
            out = Path(words[words.index("--out") + 1])
            assert (out / WRITES[command]).exists(), words


def test_readme_lists_the_parsers_flags():
    # every --flag named under "Command line", against every subcommand's
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    named = set(re.findall(r"--[A-Za-z][\w-]*", section.split("\n## ", 1)[0]))
    (subcommands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        flag
        for parser in subcommands.choices.values()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert named == flags
