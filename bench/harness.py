"""Passes, metrics and records of one benchmark run; ``run.py`` is the entry point.

Imported only after ``run.py`` has pinned BLAS to one thread and put the
checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import adiophantine
import corpus
import hostspeed
import ops
import probes
import tracing

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SETUP_RUNS = 7
# Reported with the end-to-end metrics but declared per layer, because
# they are 0 on some workloads.
COUNT_METRICS = ("oracle.false_certificates", "decision.inconclusive", "oracle.failed_share")


@dataclass
class Pass:
    """One pass over the corpus, by operation name: ``latencies`` are measured
    seconds with the probe's time removed, ``windows`` the (start, end) of
    each call and ``scaled`` the latencies at nominal host speed (untraced
    runs only)."""

    latencies: dict[str, float] = field(default_factory=dict)
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)
    scaled: dict[str, float] = field(default_factory=dict)
    outcomes: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    spans: list[dict] | None = None  # set on traced passes

    @property
    def op_time(self) -> float:
        return sum(self.latencies.values())

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        o = self.outcomes
        return o["exception"] + o["failed_check"] + o[ops.FALSE_CERTIFICATE]


def run_pass(operations, order, tracer, ref, reference=None) -> Pass:
    """One pass over the corpus; checks every output, never raises."""
    result = Pass()
    for i in order:
        op = operations[i]
        tracer.op = op.name
        probe_time = ref.probe_time
        t = time.perf_counter()
        try:
            output = op.run(tracer)
        except Exception:
            result.outcomes["exception"] += 1
            result.failures.append(f"{op.name}: {traceback.format_exc()}")
            continue
        end = time.perf_counter()
        result.latencies[op.name] = end - t - (ref.probe_time - probe_time)
        result.windows[op.name] = (t, end)
        result.outputs[op.name] = output
        try:
            outcome = op.check(output, tracer)
            if reference is not None and op.replay_key is not None:
                expected = op.replay_key(reference[op.name])
                if op.replay_key(output) != expected:
                    raise ops.CheckFailed(
                        f"replay {op.replay_key(output)} differs from decide {expected}"
                    )
        except ops.CheckFailed as err:
            result.outcomes["failed_check"] += 1
            result.failures.append(f"{op.name}: {err}")
            continue
        result.outcomes[outcome] += 1
    return result


def measure_setup(texts: list[str]) -> list[tuple[float, float]]:
    """Fresh interpreter: import adiophantine and parse the corpus."""
    code = (
        f"import sys; sys.path.insert(0, {str(Path.cwd() / 'src')!r}); "
        f"from adiophantine import parse_equation; "
        f"[parse_equation(t) for t in {texts!r}]"
    )
    times = []
    for _ in range(SETUP_RUNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append((t, time.perf_counter()))
    return times


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def per_op_medians(tables: list[dict[str, float]]) -> dict[str, float]:
    """Each operation's median time over the passes.

    ``latency_p50_s`` is the median of these: the corpus mixes groups of
    similar operations, and a median of the pooled calls would fall on the
    edge of a group, where per-call noise moves it most.
    """
    names = dict.fromkeys(name for table in tables for name in table)
    return {n: statistics.median(t[n] for t in tables if n in t) for n in names}


def untraced_run(workload: str, operations, seed: int, seconds: float, ref) -> dict:
    ref.sample()
    setup_windows = measure_setup(corpus.equations(workload))
    ref.sample()
    with ref.sampling():
        passes = timed_passes(operations, seed, seconds, ref, traced=False)
    setup = [(end - start) * ref.factor(start, end) for start, end in setup_windows]
    for p in passes:
        p.scaled = {name: x * ref.factor(*p.windows[name]) for name, x in p.latencies.items()}
    walls = [sum(p.scaled.values()) for p in passes]
    latencies = [x for p in passes for x in p.scaled.values()]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    op_medians = per_op_medians([p.scaled for p in passes])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "latency_p50_s": statistics.median(op_medians.values()),
        "latency_p90_s": p90,
        "correct_ops_per_s": sum(p.outcomes[ops.OK] for p in passes) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": {"processes": len(setup), "quartiles": quartiles(setup)},
        "wall_s": {"passes": len(walls), "quartiles": quartiles(walls)},
        "latency": {
            "operations": len(latencies),
            "beyond_p90": sum(x > p90 for x in latencies),
        },
        "measured_s": {
            "setup": statistics.median(end - start for start, end in setup_windows),
            "wall": statistics.median(p.op_time for p in passes),
            "latency_p50": statistics.median(
                per_op_medians([p.latencies for p in passes]).values()
            ),
        },
    }
    return {"passes": passes, "metrics": metrics, "samples": samples, "op_median_s": op_medians}


def timed_passes(operations, seed: int, seconds: float, ref, traced: bool) -> list[Pass]:
    """Passes (or untraced/traced pairs) until the next would end late."""
    rng = random.Random(seed)
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        order = list(range(len(operations)))
        rng.shuffle(order)
        plain = run_pass(operations, order, tracing.NullTracer(), ref)
        passes.append(plain)
        if traced:
            tracer = tracing.Tracer()
            traced_pass = run_pass(operations, order, tracer, ref, reference=plain.outputs)
            traced_pass.spans = tracer.spans
            passes.append(traced_pass)
        if any(p.failures for p in passes):
            break
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    return passes


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans."""
    spans = p.spans
    total = Counter()
    for s in spans:
        total[s["name"]] += tracing.duration(s)
    evolves = [s for s in spans if s["name"] == "evolution.evolve"]
    rungs = [s for s in evolves if "identified" in s]
    steps = sum(s["steps"] for s in evolves)
    rung_steps = sum(s["steps"] for s in rungs)
    counted = [s for s in spans if "points" in s]
    points = sum(s["points"] for s in counted)
    point_time = sum(tracing.duration(s) for s in counted)
    return {
        "diophantine.box_points": points,
        "diophantine.points_per_s": points / point_time if point_time else 0.0,
        "hamiltonians.spectral_profile_s": total["hamiltonians.spectral_profile"],
        "hamiltonians.eigensolves": sum(s.get("eigensolves", 0) for s in spans),
        "evolution.steps": steps,
        "evolution.evolve_s": total["evolution.evolve"],
        "evolution.share": total["evolution.evolve"] / p.op_time,
        "decision.rungs": len(rungs),
        "decision.identify_ratio": (
            sum(s["identified"] for s in rungs) / len(rungs) if rungs else 0.0
        ),
        "decision.wasted_step_share": (
            sum(s["steps"] for s in rungs if not s["identified"]) / rung_steps
            if rung_steps
            else 0.0
        ),
        "decision.classify_s": total["decision.identify_ground_state"],
    }


def traced_run(workload: str, operations, seed: int, seconds: float, ref) -> dict:
    metrics = probes.run(corpus.equations(workload), RESULTS_DIR)
    passes = timed_passes(operations, seed, seconds, ref, traced=True)
    plain = [p for p in passes if p.spans is None]
    traced = [p for p in passes if p.spans is not None]
    per_pass = [layer_metrics(p) for p in traced]
    for name in per_pass[0]:
        metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics["trace.overhead_s"] = statistics.median(
        p.op_time for p in traced
    ) - statistics.median(p.op_time for p in plain)
    spans = [s for p in traced for s in p.spans]
    return {
        "passes": passes,
        "metrics": metrics,
        "samples": {"pairs": {"untraced_passes": len(plain), "traced_passes": len(traced)}},
        "spans": spans,
        "self_times": tracing.self_times(spans),
        "not_measured": probes.NOT_MEASURED,
    }


def count_metrics(passes: list[Pass]) -> dict[str, float]:
    attempted = sum(p.attempted for p in passes)
    return {
        "oracle.false_certificates": max(p.outcomes[ops.FALSE_CERTIFICATE] for p in passes),
        "decision.inconclusive": max(p.outcomes[ops.INCONCLUSIVE] for p in passes),
        "oracle.failed_share": sum(p.failed for p in passes) / attempted if attempted else 1.0,
    }


def blas_record() -> dict:
    record = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(vendor=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        record.update(vendor=None, version=None)
    record["threads"] = _openblas_threads()
    return record


def _openblas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    from importlib import metadata

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def execute(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> int:
    """One run; prints the summary and, last, the result line.  Returns the
    exit code: 0, or 1 when any oracle or replay check failed."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    warnings.simplefilter("ignore", adiophantine.TruncationWarning)
    RESULTS_DIR.mkdir(exist_ok=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    ref = hostspeed.Reference()
    ref.sample()

    operations = ops.build(workload)
    # warm-up: load the LAPACK paths before timing
    adiophantine.decide(
        adiophantine.parse_equation("x*y - 2"), adiophantine.DecideConfig(cutoff=2)
    )
    run = traced_run if trace else untraced_run
    result = run(workload, operations, seed, seconds, ref)
    ref.sample()
    passes = result["passes"]
    counts = count_metrics(passes)
    env["loadavg_end"] = os.getloadavg()
    probe_times = [p for _, p in ref.samples]
    env["reference_probe_s"] = {
        "nominal": hostspeed.NOMINAL_S,
        "first": probe_times[0],
        "last": probe_times[-1],
        "samples": len(probe_times),
        "min": min(probe_times),
        "quartiles": quartiles(probe_times),
        "max": max(probe_times),
    }

    metrics = {**result["metrics"], **counts}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"declared metrics not produced: {sorted(missing)}")
    failures = [f for p in passes for f in p.failures]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "metrics": metrics,
        "samples": result["samples"],
        "outcomes": dict(sum((p.outcomes for p in passes), Counter())),
        "pass_walls": [sum(p.scaled.values()) for p in passes],
        "pass_walls_measured": [p.op_time for p in passes],
        "failures": failures,
    }
    for key in ("op_median_s", "spans", "self_times", "not_measured"):
        if key in result:
            record[key] = result[key]
    out_path = RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(
        f"workload {workload}  seed {seed}  trace {trace}  passes {len(passes)}  "
        f"operations {sum(p.attempted for p in passes)}  (closed loop, one client)"
    )
    shown = list(units) + [name for name in COUNT_METRICS if name not in units]
    all_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in shown:
        print(f"  {name:36s} {metrics[name]:>14.6g} {all_units[name]}")
    for name, info in result["samples"].items():
        print(f"  samples {name}: {info}")
    for failure in failures:
        print(f"FAILED {failure}")
    print("environment: " + json.dumps(env))
    print(f"record: {out_path}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if failures else 0
