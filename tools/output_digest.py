"""Print one SHA-256 per output family of the command line.

The families are the ``decide`` runs of the 21 benchmark equations
(``bench/corpus.py``: ``DECIDE_1MODE`` and ``DECIDE_DENSE``) under the split
integrator and under the midpoint exponential, the ``spectrum`` runs of
the 13 certify equations (``SPECTRAL`` at ``GRID_SIZE`` points), and the
README's command block.  Each family runs through ``cli.main`` in a
temporary directory, and its digest covers every file it writes, its
standard output and its exit codes.  The timings are dropped: every
``sidecar`` field of a JSON file.  Two source trees that print the same
digests give byte-identical outputs on these inputs.

Run from the repository root: ``python tools/output_digest.py``.  It reads
the package under ``src/`` of the tree it sits in; about 10 s on a
2-core host.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adiophantine import cli  # noqa: E402


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


def _without_sidecars(value):
    if isinstance(value, dict):
        return {k: _without_sidecars(v) for k, v in value.items() if k != "sidecar"}
    if isinstance(value, list):
        return [_without_sidecars(v) for v in value]
    return value


def digest(commands: list[list[str]]) -> str:
    """The SHA-256 of ``commands`` run in order through ``cli.main`` in one
    fresh temporary directory: their exit codes, their standard output and
    every file they write, JSON without its sidecars and with sorted keys."""
    out = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                codes = [cli.main(words) for words in commands]
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
        ["decide", text, "--cutoff", str(cutoff), "--integrator", integrator]
        + ["--out", f"{integrator}/{index}"]
        for integrator in ("split", "midexp")
        for index, (text, cutoff) in enumerate(corpus.DECIDE_1MODE + corpus.DECIDE_DENSE)
    ]
    spectrum = [
        ["spectrum", text, "--cutoff", str(cutoff), "--grid", str(corpus.GRID_SIZE)]
        + ["--out", str(index)]
        for index, (text, cutoff) in enumerate(corpus.SPECTRAL)
    ]
    families = {"decide": decide, "spectrum": spectrum, "readme": _readme_commands()}
    for name, commands in families.items():
        print(f"{name:10} {digest(commands)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
