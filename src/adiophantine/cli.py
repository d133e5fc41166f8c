"""Command-line front end.

Subcommands: check, oracle, spectrum, evolve, decide, sample, sweep.
``SETTINGS`` lists the settings each subcommand reads.  Its parser has a
flag for each of them that has one, and its optional JSON config file
(--config) may hold only those keys and ``equation``; flags take
precedence.  Only the settings given are passed on, so the defaults and
range checks are those of ``DecideConfig``, ``EvolutionParams`` and
``spectral_profile``.  Each subcommand builds only the runs it starts:
decide and sweep run ``DecideConfig``'s ladder of rungs, evolve and sample
run the one rung --T, and oracle runs none.  Reports are JSON, curves are
CSV, and every file is written atomically (temp file + rename).

Exit codes: 0 decided/ok, 1 runtime error, 2 usage or parse error,
3 inconclusive decision.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
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
    Polynomial,
    VariableSemantics,
    WorkCapExceeded,
    brute_force_search,
    parse_equation,
    substitute_shift,
    to_text,
)
from .evolution import (
    CF4_STEP_MULTIPLE,
    SPLIT_MIN_DIMENSION,
    EvolutionAborted,
    EvolutionParams,
    Integrator,
    evolve,
)
from .fock import FockBasis, as_mode_alphas
from .hamiltonians import AdiabaticFamily, check_dimension, spectral_profile

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_SEMANTICS = {
    "nonneg": VariableSemantics.NON_NEGATIVE,
    "nonnegative": VariableSemantics.NON_NEGATIVE,
    "positive": VariableSemantics.POSITIVE,
}

# DecideConfig's fields: those every run reads, and those of the decide
# ladder; evolve and sample run one rung of --T
_RUN = ("cutoff", "semantics", "alphas", "integrator", "step")
_DECIDE = ("t0", "j_max", "strict_criterion")

SETTINGS = {
    "check": (),
    "oracle": ("cutoff", "semantics", "bound"),
    "spectrum": ("cutoff", "semantics", "alphas", "grid_size", "levels", "out_dir"),
    "evolve": (*_RUN, "record_grid", "total_time", "dump_probabilities", "out_dir"),
    "decide": (*_RUN, *_DECIDE, "out_dir"),
    "sample": (*_RUN, "total_time", "shots", "seed", "out_dir"),
    # cutoffs replace cutoff
    "sweep": (*_RUN[1:], *_DECIDE, "cutoffs", "out_dir"),
}


class ConfigError(Exception):
    """Invalid configuration (exit code 2)."""


@contextmanager
def _config_errors():
    """Report a library's refusal of a setting as a config error."""
    try:
        yield
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None


def _alphas(value):
    if isinstance(value, (int, float)):
        return complex(value)
    return tuple(complex(re, im) for re, im in value)


_CONVERT = {
    "semantics": _SEMANTICS.__getitem__,
    "integrator": Integrator,
    "alphas": _alphas,
    "cutoffs": tuple,
}


def load_settings(command: str, path: str | None, flags: dict) -> dict:
    """The settings given for ``command``: the JSON file's, then the flags
    that are set, converted to the library's types.  A null is not given."""
    given = {}
    if path is not None:
        try:
            given = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        if not isinstance(given, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        for key, value in given.items():
            if key != "equation" and key not in SETTINGS[command]:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            if value is not None and not _has_flag_type(key, value):
                raise ConfigError(f"invalid {key} {value!r} in {path}")
    given.update((key, value) for key, value in flags.items() if value is not None)
    settings = {}
    for key, value in given.items():
        if value is None:
            continue
        try:
            settings[key] = _CONVERT.get(key, lambda v: v)(value)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"invalid {key} {value!r}") from None
    return settings


def _has_flag_type(key: str, value) -> bool:
    """Whether a config-file value has the type its flag parses to.  Of the
    keys with no flag, the equation is a string and alphas a number or a
    list of [re, im] number pairs."""
    if key == "equation":
        return isinstance(value, str)
    if key == "alphas":
        return _is_a(value, float) or isinstance(value, list) and all(
            _is_list_of(pair, float) and len(pair) == 2 for pair in value
        )
    options = _FLAGS[key][1]
    kind = options.get("type", bool if options is _SWITCH else str)
    return _is_list_of(value, int) if kind is _int_list else _is_a(value, kind)


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(_is_a(v, kind) for v in value)


def _is_a(value, kind) -> bool:
    """``isinstance`` for JSON values: a bool is no number, an int is a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _pick(settings: dict, names) -> dict:
    return {name: settings[name] for name in names if name in settings}


def _run_config(settings: dict) -> DecideConfig:
    with _config_errors():
        return DecideConfig(**_pick(settings, (*_RUN, *_DECIDE)))


def _write(settings: dict, name: str, text: str) -> None:
    """Write ``text`` to the file ``name`` in the output directory, through
    a temp file and a rename, and say so."""
    path = Path(settings.get("out_dir", ".")) / name
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
    print(f"wrote {path}")


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _now_utc() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _require_equation(settings: dict) -> str:
    if not settings.get("equation"):
        raise ConfigError("an equation is required (positional argument or config)")
    return settings["equation"]


def _equation(settings: dict, config: DecideConfig) -> Polynomial:
    """The parsed equation, refused as a config error when it has no
    variables, when its basis at ``config``'s cutoff is too large to build,
    or when ``config`` has a displacement count that does not match or
    displacements whose start state overflows on its modes."""
    p = parse_equation(_require_equation(settings))
    with _config_errors():
        if p.num_vars == 0:
            raise ValueError("equation has no variables to solve for")
        check_dimension(FockBasis(p.num_vars, config.cutoff))
        replace(config, alphas=as_mode_alphas(config.alphas, p.num_vars))
    return p


def _build_family(settings: dict, config: DecideConfig):
    shifted = substitute_shift(_equation(settings, config), config.semantics)
    basis = FockBasis(shifted.num_vars, config.cutoff)
    return AdiabaticFamily.from_polynomial(shifted, basis, alphas=config.alphas)


CUTOFF_NOTE = "no statement about solutions beyond the cutoff"


# -- subcommands -------------------------------------------------------------


def cmd_check(settings: dict) -> int:
    """parse and echo the canonical form"""
    p = parse_equation(_require_equation(settings))
    print(f"canonical: {to_text(p)}")
    print(f"variables: {', '.join(p.variable_names) if p.variable_names else '(none)'}")
    print(f"num_vars: {p.num_vars}")
    print(f"terms: {len(p.terms)}")
    return EXIT_OK


def cmd_oracle(settings: dict) -> int:
    """brute-force search on the box"""
    semantics = settings.get("semantics", DecideConfig.semantics)
    bound = settings.get("bound", settings.get("cutoff", DecideConfig.cutoff))
    if bound < 0:
        raise ConfigError(f"bound must be non-negative, got {bound}")
    p = parse_equation(_require_equation(settings))
    witness = brute_force_search(substitute_shift(p, semantics), bound)
    if witness is None:
        print(f"none within bound {bound}")
        return EXIT_OK
    if semantics is VariableSemantics.POSITIVE:
        witness = tuple(n + 1 for n in witness)
    print(f"({', '.join(str(n) for n in witness)})")
    return EXIT_OK


def cmd_spectrum(settings: dict) -> int:
    """write the level curves as CSV"""
    config = _run_config(settings)
    family, _ = _build_family(settings, config)
    with _config_errors():
        profile = spectral_profile(family, **_pick(settings, ("grid_size", "levels")))
    _write(settings, "spectrum.csv", profile.to_csv())
    print(
        f"min gap {profile.min_gap:.6g} at s={profile.s_at_min_gap:.4g}; "
        f"ground degeneracy {profile.ground_degeneracy}; "
        f"min class gap {profile.min_class_gap:.6g} at "
        f"s={profile.s_at_min_class_gap:.4g}"
    )
    if profile.crossing_suspected:
        print("warning: crossing suspected (class gap under tolerance)")
    return EXIT_OK


def _evolution_params(settings: dict) -> tuple[DecideConfig, EvolutionParams]:
    """The run settings as a decide ladder of the one rung --T, and its run."""
    total_time = settings.get("total_time", DecideConfig.t0)
    if not 0 < total_time < np.inf:
        raise ConfigError("total_time must be positive and finite")
    config = _run_config({**settings, "t0": total_time, "j_max": 0})
    return config, config.rung(total_time)


def cmd_evolve(settings: dict) -> int:
    """run one evolution, write trace CSV"""
    config, params = _evolution_params(settings)
    record_grid = settings.get("record_grid", EvolutionParams.record_grid)
    with _config_errors():
        params = replace(params, record_grid=record_grid)
    family, start_state = _build_family(settings, config)
    trace = evolve(family, start_state, params)
    _write(settings, "trace.csv", trace.to_csv())
    if settings.get("dump_probabilities"):
        dump = _dump_json(trace.probabilities_json_dict())
        _write(settings, "probabilities.json", dump)
    probs = trace.final_probabilities()
    top = int(np.argmax(probs))
    print(
        f"T={trace.params.total_time}: top state {family.basis.occupation(top)} "
        f"with probability {float(probs[top]):.6f}"
    )
    return EXIT_OK


def cmd_decide(settings: dict) -> int:
    """escalating-time decision, JSON report"""
    config = _run_config(settings)
    report = decide(_equation(settings, config), config)
    report_dict = report_to_json_dict(report, created_utc=_now_utc())
    _write(settings, "decision.json", _dump_json(report_dict))
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


def cmd_sample(settings: dict) -> int:
    """measure the evolved state repeatedly"""
    config, params = _evolution_params(settings)
    shots, seed = settings.get("shots", 10000), settings.get("seed", 0)
    family, start_state = _build_family(settings, config)
    with _config_errors():  # shots and seed are checked before the run
        sample_measurements(start_state, shots, seed)
    trace = evolve(family, start_state, params)
    run = sample_measurements(trace.final_state, shots, seed)
    _write(settings, "measurements.csv", run.to_csv())
    top = max(range(len(run.counts)), key=lambda i: run.counts[i])
    print(
        f"{run.shots} shots, seed {run.seed}: top index {top} "
        f"(occupation {family.basis.occupation(top)}) frequency "
        f"{run.frequencies[top]:.4f} vs exact {run.exact_probabilities[top]:.4f}"
    )
    return EXIT_OK


def cmd_sweep(settings: dict) -> int:
    """decide across an ascending cutoff list"""
    # the cutoffs replace the cutoff: sweep_configs checks each of them
    config = _run_config({**settings, "cutoff": 1})
    if "cutoffs" not in settings:
        raise ConfigError("sweep requires --cutoffs, e.g. --cutoffs 3,5,7")
    with _config_errors():
        configs = sweep_configs(settings["cutoffs"], config)
    # a start state needs the most room at the largest cutoff
    p = _equation(settings, configs[-1])
    result = truncation_sweep(p, settings["cutoffs"], config)
    result_dict = sweep_to_json_dict(result, created_utc=_now_utc())
    _write(settings, "sweep.json", _dump_json(result_dict))
    for report in result.reports:
        extra = f" witness {report.witness}" if report.witness else ""
        print(f"cutoff {report.cutoff}: {report.verdict.value}{extra}")
    print(f"stable: {result.stable}")
    last = result.reports[-1]
    return (
        EXIT_OK if last.verdict is not Verdict.INCONCLUSIVE else EXIT_INCONCLUSIVE
    )


_HANDLERS = {
    "check": cmd_check,
    "oracle": cmd_oracle,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "decide": cmd_decide,
    "sample": cmd_sample,
    "sweep": cmd_sweep,
}


# -- argument parsing --------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


_INT, _FLOAT = {"type": int}, {"type": float}
_SWITCH = {"action": "store_const", "const": True}

# setting -> (flag, argparse options, help); alphas has no flag
_FLAGS = {
    "out_dir": ("--out", {}, "output directory"),
    "seed": ("--seed", _INT, "random seed for sampling"),
    "cutoff": ("--cutoff", _INT, "per-mode occupation cutoff"),
    "cutoffs": (
        "--cutoffs", {"type": _int_list}, "comma-separated cutoffs, e.g. 3,5,7"
    ),
    "bound": ("--bound", _INT, "box bound (defaults to the cutoff)"),
    "semantics": (
        "--semantics", {"choices": ["nonneg", "positive"]}, "variable domain"
    ),
    "t0": ("--T0", _FLOAT, "first run time"),
    "j_max": ("--jmax", _INT, "number of doublings"),
    "total_time": ("--T", _FLOAT, f"single run time (default {DecideConfig.t0})"),
    "step": (
        "--step",
        _FLOAT,
        f"integrator step size; below sector dimension {SPLIT_MIN_DIMENSION} split "
        f"runs CF4 at {CF4_STEP_MULTIPLE} times it, or at the record grid's "
        "spacing where that is shorter (never below the step)",
    ),
    "integrator": (
        "--integrator", {"choices": [i.value for i in Integrator]}, "scheme"
    ),
    "strict_criterion": (
        "--strict-criterion",
        _SWITCH,
        "apply the >1/2 bar to the single top state, not its class",
    ),
    "record_grid": ("--record-grid", _INT, "recorded trace points"),
    "grid_size": ("--grid", _INT, "s-grid points"),
    "levels": ("--levels", _INT, "levels to record"),
    "dump_probabilities": (
        "--dump-probabilities",
        _SWITCH,
        "also write the full probability history as JSON",
    ),
    "shots": ("--shots", _INT, "number of measurements"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiophantine",
        description="Adiabatic ground-state search for Diophantine solvability",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__, allow_abbrev=False)
        p.add_argument("equation", nargs="?", help="equation text, e.g. 'x^2 - 4'")
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in SETTINGS[command]:
            if name in _FLAGS:
                flag, options, text = _FLAGS[name]
                p.add_argument(flag, dest=name, help=text, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        settings = load_settings(command, args.pop("config"), args)
        return _HANDLERS[command](settings)
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
