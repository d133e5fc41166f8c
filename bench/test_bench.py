"""Self-check of the benchmark: ``python3 -m pytest bench -q`` from the repository root.

Checks the benchmark definition against the run contract, every corpus
equation's oracle value, the false-certificate counts of the commit that
introduced the benchmark, and one short run of each kind.
"""

import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import ops  # noqa: E402
from adiophantine import (  # noqa: E402
    DecideConfig,
    TruncationWarning,
    Verdict,
    decide,
    min_over_box,
    parse_equation,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_definition_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
    assert 1 <= len(SPEC["command"]) <= 32 and all(len(a) <= 200 for a in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in SPEC["workloads"]] == list(corpus.WORKLOADS)
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_decide_corpus_oracle_values():
    for text, cutoff in corpus.DECIDE_1MODE + corpus.DECIDE_DENSE:
        p = parse_equation(text)
        assert min_over_box(p, cutoff).value == corpus.DECIDE_BOX_MIN[text], text
        assert tuple(ops.box_oracle(p, cutoff)) == tuple(min_over_box(p, cutoff)), text


def test_certify_corpus_oracle_values():
    for (text, bound), expected in corpus.CERTIFY_BOX_MIN.items():
        assert ops.box_oracle(parse_equation(text), bound).value == expected, text
    for text, cutoff in corpus.SPECTRAL:
        p = parse_equation(text)
        assert tuple(ops.box_oracle(p, cutoff)) == tuple(min_over_box(p, cutoff)), text


def _false_certificates(equations):
    false = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for text, cutoff in equations:
            report = decide(parse_equation(text), DecideConfig(cutoff=cutoff))
            if (
                report.verdict is not Verdict.INCONCLUSIVE
                and report.class_value != corpus.DECIDE_BOX_MIN[text]
            ):
                false.add(text)
    return false


def test_seed_false_certificates_decide_1mode():
    found = _false_certificates(corpus.DECIDE_1MODE)
    assert found == corpus.SEED_FALSE_CERTIFICATES["decide-1mode"]
    assert len(found) == 6


def test_seed_false_certificates_decide_dense():
    """Slow: about 35 s of decide at d = 36 to 125."""
    found = _false_certificates(corpus.DECIDE_DENSE)
    assert found == corpus.SEED_FALSE_CERTIFICATES["decide-dense"]
    assert len(found) == 1


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-1mode", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_declared_metric(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 13
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["oracle.false_certificates"]["value"] == 6


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
