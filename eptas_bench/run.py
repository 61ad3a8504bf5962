"""EPTAS benchmark: times ``repro.eptas.eptas_schedule`` on fixed workloads.

Usage, from the root of a checkout::

    python3 eptas_bench/run.py --workload milp-solve --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each call starts when the previous one
returns.  A run repeats passes over the workload's instances (every instance
solved once per pass, default ``EptasConfig`` with only ``eps`` set) until
``--seconds`` have elapsed.  Every call is checked: its schedule must be
complete and conflict-free on the instance, and its makespan must lie between
``best_lower_bound`` and the greedy upper bound.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``spans.py`` with ``--trace 1``.  README.md describes the workloads and
what each metric should move.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

# Everything imported from here on counts as set-up time.
import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 3  # set-up timings per run: this process and two fresh ones

UNITS = {
    "pass_s": "s",
    "makespan_ratio": "ratio",
    "greedy_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace.overhead": "ratio",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: the reduced instances of the self-test",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's own ``repro`` first on the path, never an installed one."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")


@dataclass
class Reference:
    lower: float  # best_lower_bound
    upper: float  # the greedy schedule eptas_schedule starts its search from


@dataclass
class Case:
    """One instance over a run: its call times and its first checked result."""

    spec: Any  # workloads.Spec
    instance: Any
    reference: Reference
    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    makespan: float = math.nan
    regime: str = ""
    guesses: int = 0
    feasible_guesses: int = 0
    fallback: bool = False
    error: str | None = None


def _reference(instance: Any) -> Reference:
    from repro.baselines.list_scheduling import greedy_assign
    from repro.bounds import best_lower_bound

    order = sorted(instance.jobs, key=lambda job: (-job.size, job.id))
    return Reference(
        lower=best_lower_bound(instance).best,
        upper=greedy_assign(instance, order).makespan(),
    )


def _check(instance: Any, result: Any, reference: Reference) -> str | None:
    """Why the call failed, or None.  Checked here, not by the program's validate."""
    assignment = result.schedule.assignment
    if len(assignment) != instance.num_jobs:
        return f"{len(assignment)} of {instance.num_jobs} jobs assigned"
    loads = [0.0] * instance.num_machines
    used: set[tuple[int, int]] = set()
    for job in instance.jobs:
        machine = assignment.get(job.id)
        if machine is None or not 0 <= machine < instance.num_machines:
            return f"job {job.id} has no valid machine"
        if (machine, job.bag) in used:
            return f"two jobs of bag {job.bag} on machine {machine}"
        used.add((machine, job.bag))
        loads[machine] += job.size
    makespan = max(loads)
    tolerance = 1e-9 * max(1.0, makespan)
    if abs(makespan - result.makespan) > tolerance:
        return f"reported makespan {result.makespan} but the schedule has {makespan}"
    if not reference.lower - tolerance <= makespan <= reference.upper + tolerance:
        return f"makespan {makespan} outside [{reference.lower}, {reference.upper}]"
    return None


def _regime(diagnostics: dict[str, Any]) -> str:
    """How the call's search ended: cap, optimal, limit or infeasible."""
    limit_errors = diagnostics.get("limit_errors") or []
    if any("max_patterns" in error for error in limit_errors):
        return "cap"
    attempts = diagnostics.get("attempts") or []
    status = attempts[-1].get("milp_status") if attempts else None
    if limit_errors or status in ("limit", "feasible"):
        return "limit"
    return status or "none"


def _record(case: Case, result: Any) -> None:
    diagnostics = result.diagnostics
    attempts = diagnostics.get("attempts") or []
    case.makespan = result.makespan
    case.regime = _regime(diagnostics)
    case.guesses = int(diagnostics.get("search_iterations", 0))
    case.feasible_guesses = sum(1 for attempt in attempts if attempt.get("feasible"))
    case.fallback = case.feasible_guesses == 0


def _solve(eptas_schedule: Callable, case: Case, tracer: Any = None) -> tuple[float, bool]:
    """One checked call; returns its wall seconds and whether it failed.

    With a tracer the call is the root ``eptas`` span; garbage collection and
    the check stay outside it.
    """
    gc.collect()
    started = time.perf_counter()
    try:
        with tracer.span("eptas") if tracer else contextlib.nullcontext():
            result = eptas_schedule(case.instance, case.spec.eps)
    except Exception as exc:  # noqa: BLE001 — a raising call is a failed operation
        case.error = case.error or f"raised {exc!r}"
        return time.perf_counter() - started, True
    elapsed = time.perf_counter() - started
    problem = _check(case.instance, result, case.reference)
    if problem is not None:
        case.error = case.error or problem
        return elapsed, True
    if not case.regime:
        _record(case, result)
    return elapsed, False


def _pass_seconds(times: list[list[float]]) -> float:
    """Sum over instances of each instance's median call time."""
    return sum(statistics.median(calls) for calls in times)


def _gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values)) if values else 0.0


def _setup_sample(args: argparse.Namespace) -> float:
    """Set-up seconds of a fresh process: import, generation, warm-up solve."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _host_facts() -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "scipy_highs": scipy.__version__,
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _layer_metrics(tracer: Any) -> dict[str, float]:
    from spans import LAYER_COUNTS, LAYER_SECONDS

    self_s = tracer.self_seconds()
    metrics = {name: self_s.get(span, 0.0) for name, span in LAYER_SECONDS.items()}
    metrics.update({name: float(tracer.counts.get(name, 0)) for name in LAYER_COUNTS})
    return metrics


def _search_metrics(cases: list[Case]) -> dict[str, float]:
    guesses = sum(case.guesses for case in cases)
    feasible = sum(case.feasible_guesses for case in cases)
    metrics = {
        "search.guesses": float(guesses),
        "search.feasible_share": feasible / guesses if guesses else 0.0,
        "search.fallback_share": sum(case.fallback for case in cases) / len(cases),
    }
    for regime in ("cap", "optimal", "limit", "infeasible"):
        metrics[f"regime.{regime}"] = float(sum(case.regime == regime for case in cases))
    return metrics


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("share") else "count"


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    _import_program()
    from repro.eptas import eptas_schedule
    from spans import Tracer, instrument
    from workloads import WARMUP, WORKLOADS, build_instance

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    specs = workload.smoke if args.size == "smoke" else workload.specs
    instances = [build_instance(spec, args.seed) for spec in specs]
    eptas_schedule(build_instance(WARMUP, args.seed), WARMUP.eps)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    host = _host_facts()
    print("host " + json.dumps(host), flush=True)
    cases = [
        Case(spec, instance, _reference(instance)) for spec, instance in zip(specs, instances)
    ]
    attempted = failed = 0
    layer_samples: list[dict[str, float]] = []
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        for case in cases:
            elapsed, bad = _solve(eptas_schedule, case)
            case.times.append(elapsed)
            attempted, failed = attempted + 1, failed + bad
        if args.trace:
            # Traced passes alternate with untraced ones, so the overhead
            # ratio compares passes made under the same host conditions.
            tracer = Tracer()
            with instrument(tracer):
                for case in cases:
                    elapsed, bad = _solve(eptas_schedule, case, tracer)
                    case.traced_times.append(elapsed)
                    attempted, failed = attempted + 1, failed + bad
            layer_samples.append(_layer_metrics(tracer))
        if time.perf_counter() >= deadline:
            break

    for case in cases:
        print(
            f"instance {case.spec.name}: regime={case.regime} "
            f"(expected {case.spec.regime}) guesses={case.guesses} "
            f"makespan={case.makespan:.6g} lower={case.reference.lower:.6g} "
            f"greedy={case.reference.upper:.6g} calls={len(case.times)} "
            f"median_s={statistics.median(case.times):.4f}"
            + (f" error={case.error}" if case.error else "")
        )
    pass_s = _pass_seconds([case.times for case in cases])
    if args.trace:
        metrics = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        metrics.update(_search_metrics(cases))
        metrics["traced.pass_s"] = _pass_seconds([case.traced_times for case in cases])
        metrics["trace.overhead"] = metrics["traced.pass_s"] / pass_s
        metrics["host.nproc"] = float(host["nproc"] or 0)
        for layer in ("solver.highs_s", "patterns.enumerate_s"):
            share = metrics[layer] / metrics["traced.pass_s"]
            print(f"share {layer} / traced.pass_s = {share:.3f}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps({
            "host": host,
            "spans_of_last_traced_pass": [span.to_dict() for span in tracer.spans],
        }))
    else:
        # Set-up is timed in this process and in fresh ones; report the median.
        setup_samples = [setup_s] + [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        solved = [case for case in cases if case.regime]
        metrics = {
            "pass_s": pass_s,
            "makespan_ratio": _gmean([c.makespan / c.reference.lower for c in solved]),
            "greedy_ratio": _gmean([c.makespan / c.reference.upper for c in solved]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {_unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
