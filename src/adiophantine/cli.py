"""Command-line front end.

Subcommands: check, oracle, spectrum, evolve, decide, sample, sweep.
Settings come from an optional JSON config file (--config) with individual
flags taking precedence.  Reports are JSON, curves are CSV, and every file
is written atomically (temp file + rename).

Exit codes: 0 decided/ok, 1 runtime error, 2 usage or parse error,
3 inconclusive decision.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .decision import (
    DecideConfig,
    Verdict,
    decide,
    report_to_json_dict,
    sample_measurements,
    sweep_configs,
    sweep_to_json_dict,
    truncation_sweep,
)
from .diophantine import (
    ParseError,
    VariableSemantics,
    WorkCapExceeded,
    brute_force_search,
    parse_equation,
    substitute_shift,
    to_text,
)
from .evolution import EvolutionAborted, EvolutionParams, Integrator, evolve
from .fock import FockBasis
from .hamiltonians import DEFAULT_ALPHA, AdiabaticFamily, spectral_profile

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_SEMANTICS = {
    "nonneg": VariableSemantics.NON_NEGATIVE,
    "nonnegative": VariableSemantics.NON_NEGATIVE,
    "positive": VariableSemantics.POSITIVE,
}


class ConfigError(Exception):
    """Invalid configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Complete run description; the exact values used are embedded in
    every emitted report."""

    equation: str | None = None
    semantics: str = "nonneg"
    cutoff: int = 8
    cutoffs: list[int] | None = None
    alphas: list[list[float]] | float | None = None
    integrator: str = "split"
    step: float = 0.02
    t0: float = 10.0
    j_max: int = 6
    total_time: float | None = None
    grid_size: int = 101
    levels: int = 6
    record_grid: int = 101
    gap_tol: float = 1e-9
    seed: int = 0
    shots: int = 10000
    strict_criterion: bool = False
    tie_tol: float = 1e-9
    extrapolation_steps: list[float] | None = None
    bound: int | None = None
    out_dir: str = "."
    dump_probabilities: bool = False

    def semantics_enum(self) -> VariableSemantics:
        try:
            return _SEMANTICS[self.semantics]
        except KeyError:
            raise ConfigError(f"unknown semantics {self.semantics!r}") from None

    def integrator_enum(self) -> Integrator:
        try:
            return Integrator(self.integrator)
        except ValueError:
            raise ConfigError(f"unknown integrator {self.integrator!r}") from None

    def alphas_value(self):
        if self.alphas is None:
            return DEFAULT_ALPHA
        if isinstance(self.alphas, (int, float)):
            return complex(self.alphas)
        try:
            return tuple(complex(re, im) for re, im in self.alphas)
        except (TypeError, ValueError):
            raise ConfigError(
                "alphas must be a number or a list of [re, im] pairs"
            ) from None

    def decide_config(self) -> DecideConfig:
        try:
            return DecideConfig(
                cutoff=self.cutoff,
                semantics=self.semantics_enum(),
                alphas=self.alphas_value(),
                integrator=self.integrator_enum(),
                step=self.step,
                t0=self.t0,
                j_max=self.j_max,
                strict_criterion=self.strict_criterion,
                tie_tol=self.tie_tol,
                record_grid=self.record_grid,
                extrapolation_steps=(
                    tuple(self.extrapolation_steps)
                    if self.extrapolation_steps
                    else None
                ),
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Start from defaults, apply the JSON file, then non-None flags."""
    config = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            setattr(config, key, value)
    for key, value in overrides.items():
        if value is not None and key in known:
            setattr(config, key, value)
    return config


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def report_comparison_hash(report_dict: dict) -> str:
    """Hash of a report with the timing sidecar excluded."""
    trimmed = {k: v for k, v in report_dict.items() if k != "sidecar"}
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _now_utc() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _require_equation(config: RunConfig) -> str:
    if not config.equation:
        raise ConfigError("an equation is required (positional argument or config)")
    return config.equation


def _build_family(config: RunConfig):
    p = parse_equation(_require_equation(config))
    if p.num_vars == 0:
        raise ConfigError("equation has no variables to solve for")
    shifted = substitute_shift(p, config.semantics_enum())
    basis = FockBasis(shifted.num_vars, config.cutoff)
    return AdiabaticFamily.from_polynomial(shifted, basis, alphas=config.alphas_value())


CUTOFF_NOTE = "no statement about solutions beyond the cutoff"


# -- subcommands -------------------------------------------------------------


def cmd_check(config: RunConfig) -> int:
    p = parse_equation(_require_equation(config))
    print(f"canonical: {to_text(p)}")
    print(f"variables: {', '.join(p.variable_names) if p.variable_names else '(none)'}")
    print(f"num_vars: {p.num_vars}")
    print(f"terms: {len(p.terms)}")
    return EXIT_OK


def cmd_oracle(config: RunConfig) -> int:
    p = parse_equation(_require_equation(config))
    shifted = substitute_shift(p, config.semantics_enum())
    bound = config.bound if config.bound is not None else config.cutoff
    if bound < 0:
        raise ConfigError(f"bound must be non-negative, got {bound}")
    witness = brute_force_search(shifted, bound)
    if witness is None:
        print(f"none within bound {bound}")
        return EXIT_OK
    if config.semantics_enum() is VariableSemantics.POSITIVE:
        witness = tuple(n + 1 for n in witness)
    print(f"({', '.join(str(n) for n in witness)})")
    return EXIT_OK


def cmd_spectrum(config: RunConfig) -> int:
    family, _ = _build_family(config)
    profile = spectral_profile(
        family,
        grid_size=config.grid_size,
        levels=config.levels,
        gap_tol=config.gap_tol,
    )
    out = Path(config.out_dir) / "spectrum.csv"
    _write_atomic(out, profile.to_csv())
    print(f"wrote {out}")
    print(
        f"min gap {profile.min_gap:.6g} at s={profile.s_at_min_gap:.4g}; "
        f"ground degeneracy {profile.ground_degeneracy}; "
        f"min class gap {profile.min_class_gap:.6g} at "
        f"s={profile.s_at_min_class_gap:.4g}"
    )
    if profile.crossing_suspected:
        print("warning: crossing suspected (class gap under tolerance)")
    return EXIT_OK


def _evolve_once(config: RunConfig):
    """One run for --T (default --T0) on the configured family."""
    family, start_state = _build_family(config)
    total_time = config.total_time if config.total_time is not None else config.t0
    params = EvolutionParams(
        total_time=total_time,
        step=min(config.step, total_time),
        integrator=config.integrator_enum(),
        record_grid=config.record_grid,
    )
    return family, evolve(family, start_state, params)


def cmd_evolve(config: RunConfig) -> int:
    family, trace = _evolve_once(config)
    out = Path(config.out_dir) / "trace.csv"
    _write_atomic(out, trace.to_csv())
    print(f"wrote {out}")
    if config.dump_probabilities:
        dump = Path(config.out_dir) / "probabilities.json"
        _write_atomic(dump, _dump_json(trace.probabilities_json_dict()))
        print(f"wrote {dump}")
    probs = trace.final_probabilities()
    top = int(np.argmax(probs))
    print(
        f"T={trace.params.total_time}: top state {family.basis.occupation(top)} "
        f"with probability {float(probs[top]):.6f}"
    )
    return EXIT_OK


def cmd_decide(config: RunConfig) -> int:
    p = parse_equation(_require_equation(config))
    report = decide(p, config.decide_config())
    out = Path(config.out_dir) / "decision.json"
    report_dict = report_to_json_dict(report, created_utc=_now_utc())
    _write_atomic(out, _dump_json(report_dict))
    print(f"wrote {out}")
    print(f"equation: {report.equation}")
    print(f"verdict: {report.verdict.value} (criterion: {report.criterion})")
    if report.verdict is Verdict.SOLUTION_EXISTS:
        print(
            f"witness: {report.witness} at T={report.successful_time} "
            f"with class probability {report.class_probability:.4f}"
        )
    elif report.verdict is Verdict.NO_SOLUTION_WITHIN_CUTOFF:
        print(
            f"ground level {report.class_value} > 0 on the box at "
            f"T={report.successful_time}; {CUTOFF_NOTE}"
        )
    else:
        print("schedule exhausted without identification; try a larger --jmax")
    return EXIT_OK if report.verdict is not Verdict.INCONCLUSIVE else EXIT_INCONCLUSIVE


def cmd_sample(config: RunConfig) -> int:
    family, trace = _evolve_once(config)
    run = sample_measurements(trace.final_state, config.shots, config.seed)
    out = Path(config.out_dir) / "measurements.csv"
    _write_atomic(out, run.to_csv())
    print(f"wrote {out}")
    top = max(range(len(run.counts)), key=lambda i: run.counts[i])
    print(
        f"{run.shots} shots, seed {run.seed}: top index {top} "
        f"(occupation {family.basis.occupation(top)}) frequency "
        f"{run.frequencies[top]:.4f} vs exact {run.exact_probabilities[top]:.4f}"
    )
    return EXIT_OK


def cmd_sweep(config: RunConfig) -> int:
    p = parse_equation(_require_equation(config))
    if not config.cutoffs:
        raise ConfigError("sweep requires --cutoffs, e.g. --cutoffs 3,5,7")
    decide_config = config.decide_config()
    try:
        sweep_configs(config.cutoffs, decide_config)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    result = truncation_sweep(p, config.cutoffs, decide_config)
    out = Path(config.out_dir) / "sweep.json"
    _write_atomic(out, _dump_json(sweep_to_json_dict(result, created_utc=_now_utc())))
    print(f"wrote {out}")
    for report in result.reports:
        extra = f" witness {report.witness}" if report.witness else ""
        print(f"cutoff {report.cutoff}: {report.verdict.value}{extra}")
    print(f"stable: {result.stable}")
    last = result.reports[-1]
    return (
        EXIT_OK if last.verdict is not Verdict.INCONCLUSIVE else EXIT_INCONCLUSIVE
    )


# -- argument parsing --------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiophantine",
        description="Adiabatic ground-state search for Diophantine solvability",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_equation: bool = True):
        if with_equation:
            p.add_argument("equation", nargs="?", help="equation text, e.g. 'x^2 - 4'")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--seed", type=int, help="random seed for sampling")
        p.add_argument("--cutoff", type=int, help="per-mode occupation cutoff")
        p.add_argument("--T0", dest="t0", type=float, help="first run time")
        p.add_argument("--jmax", dest="j_max", type=int, help="number of doublings")
        p.add_argument("--T", dest="total_time", type=float, help="single run time")
        p.add_argument("--step", type=float, help="integrator step size")
        p.add_argument(
            "--integrator", choices=[i.value for i in Integrator], help="scheme"
        )
        p.add_argument(
            "--semantics",
            choices=["nonneg", "positive"],
            help="variable domain",
        )
        p.add_argument(
            "--strict-criterion",
            dest="strict_criterion",
            action="store_const",
            const=True,
            help="apply the >1/2 bar to the single top state, not its class",
        )

    p_check = sub.add_parser("check", help="parse and echo the canonical form")
    add_common(p_check)

    p_oracle = sub.add_parser("oracle", help="brute-force search on the box")
    add_common(p_oracle)
    p_oracle.add_argument("--bound", type=int, help="box bound (defaults to cutoff)")

    p_spectrum = sub.add_parser("spectrum", help="write the level curves as CSV")
    add_common(p_spectrum)
    p_spectrum.add_argument("--grid", dest="grid_size", type=int, help="s-grid points")
    p_spectrum.add_argument("--levels", type=int, help="levels to record")
    p_spectrum.add_argument("--gap-tol", dest="gap_tol", type=float)

    p_evolve = sub.add_parser("evolve", help="run one evolution, write trace CSV")
    add_common(p_evolve)
    p_evolve.add_argument("--record-grid", dest="record_grid", type=int)
    p_evolve.add_argument(
        "--dump-probabilities",
        dest="dump_probabilities",
        action="store_const",
        const=True,
        help="also write the full probability history as JSON",
    )

    p_decide = sub.add_parser("decide", help="escalating-time decision, JSON report")
    add_common(p_decide)
    p_decide.add_argument(
        "--extrapolation-steps",
        dest="extrapolation_steps",
        type=_float_list,
        help="comma-separated step sizes for zero-step refinement",
    )

    p_sample = sub.add_parser("sample", help="measure the evolved state repeatedly")
    add_common(p_sample)
    p_sample.add_argument("--shots", type=int, help="number of measurements")

    p_sweep = sub.add_parser("sweep", help="decide across an ascending cutoff list")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--cutoffs", type=_int_list, help="comma-separated cutoffs, e.g. 3,5,7"
    )

    return parser


_HANDLERS = {
    "check": cmd_check,
    "oracle": cmd_oracle,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "decide": cmd_decide,
    "sample": cmd_sample,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    config_path = args.pop("config", None)
    try:
        config = load_config(config_path, args)
        return _HANDLERS[command](config)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (WorkCapExceeded, EvolutionAborted, OverflowError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
