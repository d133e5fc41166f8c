"""Print one SHA-256 per output family of the command line.

The families are the ``decide`` runs of the 21 benchmark equations
(``bench/corpus.py``: ``DECIDE_1MODE`` and ``DECIDE_DENSE``) under the split
integrator and under the midpoint exponential, the ``spectrum`` runs of
the 13 certify equations (``SPECTRAL`` at ``GRID_SIZE`` points), the
``evolve`` runs of ``EVOLVE_CASES`` under every integrator (rk4, midexp,
split and cf4), each writing its trace CSV and probability history, the
``evolve`` runs of ``REFUSED_CASES`` under the split, whose checks are
refused (family ``evolve split refused``), the
``sample`` runs of ``SAMPLE_CASES``, the ``oracle`` searches of
``ORACLE_CASES`` with the box bound given as ``--bound`` and as
``--cutoff`` under both semantics, the
``decide`` and ``spectrum`` runs of ``DISPLACE_CASES`` with the per-mode
displacements of ``DISPLACE_ALPHAS`` given in a ``--config`` file, the
``decide`` runs under the split integrator and under the midpoint
exponential and the ``spectrum`` runs of ``ASYMMETRIC_CASES``, and the
README's command block.  A family whose runs name an integrator gets one
digest per integrator and per side of the split bar, named for the
equations' variables: ``1mode`` for one variable (a sector of m <= 11 at
the cutoffs here, where the split runs CF4) and ``modes`` for more (m >=
21, where it runs the checked Strang step).  Each digest's runs go through
``cli.main`` in a temporary directory, and the digest covers every file
they write (their config files included), their standard output and their
exit codes.  The timings are dropped: every ``sidecar`` field of a JSON
file.  Two source trees that print the same digests give byte-identical
outputs on these inputs.

Run from the repository root: ``python tools/output_digest.py``.  It reads
the package under ``src/`` of the tree it sits in; about 20 s on a
2-core host, 1.5 s of it the ``evolve`` family and under a second each
the ``sample``, ``oracle`` and ``displace`` families.  A tree without an
integrator still prints its digests: the runs that name it exit 2.  BLAS
is pinned to one thread, whatever the environment says, and the first
line prints that setting: the ``spectrum`` digest moves with the thread
count, so digests are comparable across hosts only at one setting.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARIABLES:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adiophantine import cli  # noqa: E402
from adiophantine.diophantine import parse_equation  # noqa: E402


# (equation, cutoff, step) of the ``evolve`` family: one mode, then two
# modes in sectors that take the split integrator.  Each step is one at
# which RK4 is neither refused nor aborted: x^2 + y^2 - 25 at cutoff 5 has
# max H_P = 625, so RK4 is stable for h <= 0.0045, but its norm drift
# passes the limit before T at h = 0.002, 0.001 and 0.0005.
EVOLVE_CASES = [
    ("x - 1", 8, 0.002),
    ("x^2 + y^2 - 25", 5, 0.00025),
    ("x + y - 5", 8, 0.002),
]

# T = 2.01 ends every run with a partial step, and 7 snapshots fall inside
# blocks
EVOLVE_FLAGS = ["--T", "2.01", "--record-grid", "7", "--dump-probabilities"]

# (equation, cutoff, T) of the ``evolve split refused`` family, each run
# under the split at the default step h = 0.02: x^2 + y^2 - 25 at cutoff 8
# (m = 45) refuses the check at h and accepts the retry at h/2, and
# (x-7)*(x-8) at cutoff 12 (m = 13) refuses both and runs CF4
REFUSED_CASES = [("x^2 + y^2 - 25", 8, 80.0), ("(x-7)*(x-8)", 12, 10.0)]

# (equation, cutoff, integrator) of the ``sample`` family, each run with
# SAMPLE_FLAGS
SAMPLE_CASES = [
    ("x - 1", 8, "split"),
    ("x + y - 5", 8, "split"),
    ("x^2 + y^2 - 25", 5, "split"),
    ("x - 1", 8, "midexp"),
]
SAMPLE_FLAGS = ["--T", "2.01", "--shots", "1000", "--seed", "7"]

# (equation, box bound) of the ``oracle`` family: a witness, none, three
# variables, a witness under positive semantics only
ORACLE_CASES = [
    ("x+y-5", 10),
    ("2*x-3", 100),
    ("(x+1)^2+(y+1)^2-(z+1)^2", 6),
    ("x^2-4", 8),
]


# (equation, cutoff) of the ``displace`` family, each run under every
# entry of DISPLACE_ALPHAS
DISPLACE_CASES = [("x + y - 5", 5), ("x*y*z - 8", 3)]

# name -> per-mode [re, im] displacements, one list for each entry of
# DISPLACE_CASES (2 and 3 modes): equal magnitudes (0.5, exactly) with
# different phases, whose mode permutations form a non-trivial group;
# unequal magnitudes, whose group is trivial; and no displacement at all
DISPLACE_ALPHAS = {
    "phases": ([[0.3, 0.4], [-0.4, 0.3]], [[0.3, 0.4], [-0.4, 0.3], [0.5, 0.0]]),
    "unequal": ([[0.5, 0.0], [0.25, 0.0]], [[0.5, 0.0], [0.25, 0.0], [0.75, 0.0]]),
    "zero": ([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
}


# (equation, cutoff) of the ``asymmetric`` family: several modes, but no
# mode permutation fixes the problem diagonal, so every run is on the full
# space
ASYMMETRIC_CASES = [("x + 2*y - 7", 8), ("x + 2*y + 3*z - 7", 4)]


def _corpus():
    """``bench/corpus.py``, loaded by path: the benchmark is no package."""
    spec = importlib.util.spec_from_file_location("corpus", ROOT / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def _readme_commands() -> list[list[str]]:
    """The command block under "Command line" in the README, without the
    leading ``adiophantine``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def _side(text: str) -> str:
    """The side of the split bar that an equation's runs fall on here."""
    return "1mode" if parse_equation(text).num_vars == 1 else "modes"


def _grouped(runs) -> dict[str, list[list[str]]]:
    """(digest name, command) pairs, as the commands of each name in order."""
    groups: dict[str, list[list[str]]] = {}
    for name, command in runs:
        groups.setdefault(name, []).append(command)
    return groups


def _without_sidecars(value):
    if isinstance(value, dict):
        return {k: _without_sidecars(v) for k, v in value.items() if k != "sidecar"}
    if isinstance(value, list):
        return [_without_sidecars(v) for v in value]
    return value


def _exit_code(words: list[str]) -> int:
    """``cli.main``'s exit code for ``words``, also when argparse exits."""
    try:
        return cli.main(words)
    except SystemExit as exit:
        return exit.code


def digest(commands: list[list[str]], inputs: dict[str, str] | None = None) -> str:
    """The SHA-256 of ``commands`` run in order through ``cli.main`` in one
    fresh temporary directory, which first holds the files ``inputs`` maps
    names to texts of: the exit codes, the standard output and every file
    there, JSON without its sidecars and with sorted keys."""
    out = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (inputs or {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                codes = [_exit_code(words) for words in commands]
        finally:
            os.chdir(home)
        files = {}
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                text = path.read_text(encoding="utf-8")
                if path.suffix == ".json":
                    text = json.dumps(_without_sidecars(json.loads(text)), sort_keys=True)
                files[path.relative_to(tmp).as_posix()] = text
    record = {"codes": codes, "stdout": out.getvalue(), "files": files}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main() -> int:
    corpus = _corpus()
    decide = [
        (
            f"decide {integrator} {_side(text)}",
            ["decide", text, "--cutoff", str(cutoff), "--integrator", integrator]
            + ["--out", f"{integrator}/{index}"],
        )
        for integrator in ("split", "midexp")
        for index, (text, cutoff) in enumerate(corpus.DECIDE_1MODE + corpus.DECIDE_DENSE)
    ]
    spectrum = [
        ["spectrum", text, "--cutoff", str(cutoff), "--grid", str(corpus.GRID_SIZE)]
        + ["--out", str(index)]
        for index, (text, cutoff) in enumerate(corpus.SPECTRAL)
    ]
    evolve = [
        (
            f"evolve {integrator} {_side(text)}",
            ["evolve", text, "--cutoff", str(cutoff), "--step", str(step)]
            + ["--integrator", integrator, "--out", f"{integrator}/{index}"]
            + EVOLVE_FLAGS,
        )
        for integrator in ("rk4", "midexp", "split", "cf4")
        for index, (text, cutoff, step) in enumerate(EVOLVE_CASES)
    ]
    refused = [
        ["evolve", text, "--cutoff", str(cutoff), "--T", str(total_time)]
        + ["--integrator", "split", "--out", f"refused/{index}", "--dump-probabilities"]
        for index, (text, cutoff, total_time) in enumerate(REFUSED_CASES)
    ]
    sample = [
        (
            f"sample {integrator} {_side(text)}",
            ["sample", text, "--cutoff", str(cutoff), "--integrator", integrator]
            + ["--out", f"{integrator}/{index}"]
            + SAMPLE_FLAGS,
        )
        for index, (text, cutoff, integrator) in enumerate(SAMPLE_CASES)
    ]
    oracle = [
        ["oracle", text, flag, str(bound), "--semantics", semantics]
        for text, bound in ORACLE_CASES
        for flag in ("--bound", "--cutoff")
        for semantics in ("nonneg", "positive")
    ]
    configs = {
        f"{name}-{index}.json": json.dumps({"alphas": mode_alphas})
        for name, alphas in DISPLACE_ALPHAS.items()
        for index, mode_alphas in enumerate(alphas)
    }
    displace = [
        [command, text, "--cutoff", str(cutoff), "--config", f"{name}-{index}.json"]
        + ["--out", f"{command}/{name}/{index}"]
        for command in ("decide", "spectrum")
        for name in DISPLACE_ALPHAS
        for index, (text, cutoff) in enumerate(DISPLACE_CASES)
    ]
    asymmetric = [
        [command, text, "--cutoff", str(cutoff), *flags, "--out", f"{name}/{index}"]
        for command, name, flags in (
            ("decide", "split", ["--integrator", "split"]),
            ("decide", "midexp", ["--integrator", "midexp"]),
            ("spectrum", "spectrum", []),
        )
        for index, (text, cutoff) in enumerate(ASYMMETRIC_CASES)
    ]
    families = {
        **_grouped(decide),
        "spectrum": spectrum,
        **_grouped(evolve),
        "evolve split refused": refused,
        **_grouped(sample),
        "oracle": oracle,
        "displace": displace,
        "asymmetric": asymmetric,
        "readme": _readme_commands(),
    }
    inputs = {"displace": configs}
    print(" ".join(f"{var}={os.environ[var]}" for var in _THREAD_VARIABLES))
    for name, commands in families.items():
        print(f"{name:20} {digest(commands, inputs.get(name))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
