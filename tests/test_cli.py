import json
from pathlib import Path

import jsonschema
import pytest

from adiophantine.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
    report_comparison_hash,
)
from adiophantine.decision import REPORT_SCHEMA

pytestmark = pytest.mark.filterwarnings(
    "ignore::adiophantine.fock.TruncationWarning"
)

FAST = ["--cutoff", "7", "--T0", "10", "--jmax", "3", "--step", "0.05"]


# -- check ---------------------------------------------------------------------


def test_check_ok(capsys):
    assert main(["check", "x+y-5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "canonical: x + y - 5" in out
    assert "num_vars: 2" in out


def test_check_expands(capsys):
    assert main(["check", "(x+1)^3-8"]) == EXIT_OK
    assert "x^3 + 3*x^2 + 3*x - 7" in capsys.readouterr().out


def test_check_parse_error_exit_code(capsys):
    assert main(["check", "x^y"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "position" in err


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


def test_decide_inconclusive_exit_three(tmp_path):
    code = main(
        ["decide", "x+y-5", "--cutoff", "5", "--T0", "0.01", "--jmax", "0",
         "--step", "0.05", "--out", str(tmp_path)]
    )
    assert code == EXIT_INCONCLUSIVE
    data = json.loads((tmp_path / "decision.json").read_text())
    assert data["verdict"] == "inconclusive"


def test_decide_requires_equation(capsys):
    assert main(["decide"]) == EXIT_USAGE
    assert "equation" in capsys.readouterr().err


def test_decide_runtime_error_exit_one(tmp_path, capsys):
    # squared values overflow the 64-bit guard
    code = main(["decide", "3000000000*x", *FAST, "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME


# -- sample ------------------------------------------------------------------------


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
    code = main(["sweep", "x-1", *FAST, "--cutoffs", "3,5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["stable"] is True
    assert len(data["reports"]) == 2
    assert "cutoff" in data["caveat"]


def test_sweep_requires_cutoffs(tmp_path, capsys):
    assert main(["sweep", "x-1", "--out", str(tmp_path)]) == EXIT_USAGE


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
    args = ["decide", "x-1", *FAST, "--seed", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == EXIT_OK
    assert main([*args, "--out", str(out_b)]) == EXIT_OK
    data_a = json.loads((out_a / "decision.json").read_text())
    data_b = json.loads((out_b / "decision.json").read_text())
    assert report_comparison_hash(data_a) == report_comparison_hash(data_b)
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
