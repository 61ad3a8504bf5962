"""Identity fingerprint of the repository's MILP builders and ``eptas_schedule``.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 benchmarks/eptas_fingerprint.py --seed 1 [--size smoke]

It first prints one ``backend <fingerprint>`` line per builtin MILP backend
(``scipy``, ``bnb``, ``lp``): the backend's cache identity, which keys every
stored MILP-backed result.  Then comes one ``reference`` line for each of
three small instances the script builds from the seed (12 to 20 jobs on 3
or 4 machines).  It gives the sha256 of the exact assignment MILP with and
without symmetry breaking, the LP lower bound to 12 significant digits,
and the makespan ``repr`` and assignment sha256 of the Das–Wiese baseline
at ε = 1/4.  One ``milp`` line follows for each Das–Wiese ILP that call
solved, and one ``baselines`` line gives, per greedy baseline, the makespan
``repr`` and the assignment sha256: bag-aware greedy in instance order,
first-fit without a capacity and at the instance's combined lower bound
(where jobs that fit nowhere take the least-loaded fallback), LPT, LPT with
local search, and the coloring scheduler.  Then, for every instance of the
three workloads of ``eptas_bench/workloads.py``, it prints the makespan's
``repr`` and the sha256 of the sorted assignment; one line per guess the
search tried, with the guess's ``repr``, its pattern count and how it ended:
the MILP status, or the message of the limit or error that stopped it
(``attempt guess=3.88 patterns=0 limit=pattern enumeration exceeded ...``);
and one line per configuration MILP solved in the call: its sha256, then
its column, row and nonzero counts (``milp <sha256> cols=20 rows=25
nnz=76``).  A guess stopped by the pattern cap solves no MILP, so only its
attempt line shows a changed cap decision.  A change that must leave cache
identity, schedules and models byte-identical is checked by fingerprinting
both sides with this one script and comparing the output; a change that
alters a model on purpose shows in the diff how its shape moved::

    PYTHONPATH=/path/to/old/src python3 benchmarks/eptas_fingerprint.py --seed 1 > old.txt
    PYTHONPATH=src python3 benchmarks/eptas_fingerprint.py --seed 1 > new.txt
    diff old.txt new.txt

``repro`` comes from ``PYTHONPATH``, so the script fingerprints whichever
checkout that names.  Models are hashed by a solver service installed with
``service_scope``, so the script runs the program's own pipeline and copies
none of it.  The output is not a golden file: another HiGHS version may pick
another optimal solution, and with it another schedule, and may move the LP
bound in its last digits.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Any

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "eptas_bench"))

from repro.baselines import (  # noqa: E402
    coloring_schedule,
    das_wiese_schedule,
    first_fit_schedule,
    greedy_schedule,
    local_search_schedule,
    lpt_schedule,
)
from repro.bounds import combined_lower_bound, lp_relaxation_lower_bound  # noqa: E402
from repro.eptas import eptas_schedule  # noqa: E402
from repro.exact import build_assignment_model  # noqa: E402
from repro.generators import bag_heavy_instance, uniform_random_instance  # noqa: E402
from repro.milp.model import CompiledModel, LinearModel  # noqa: E402
from repro.solver import backend_fingerprint  # noqa: E402
from repro.solver.service import SolverService, service_scope  # noqa: E402
from workloads import WORKLOADS, build_instance  # noqa: E402


def model_digest(compiled: CompiledModel) -> str:
    """sha256 over names, objective, bounds, integrality, CSR arrays and rhs."""
    digest = hashlib.sha256("\n".join(compiled.variable_names).encode())
    for vector in (compiled.objective, compiled.lower, compiled.upper, compiled.integrality):
        digest.update(np.ascontiguousarray(vector, dtype=np.float64).tobytes())
    for matrix, rhs in ((compiled.a_ub, compiled.b_ub), (compiled.a_eq, compiled.b_eq)):
        digest.update(np.asarray(matrix.shape, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(matrix.indptr, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(matrix.indices, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(matrix.data, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(rhs, dtype=np.float64).tobytes())
    return digest.hexdigest()


def model_shape(compiled: CompiledModel) -> str:
    nnz = compiled.a_ub.nnz + compiled.a_eq.nnz
    return f"cols={compiled.num_variables} rows={compiled.num_constraints} nnz={nnz}"


def attempt_line(attempt: dict[str, Any]) -> str:
    """One guess of the search: its ``repr``, pattern count and outcome."""
    outcome = next(
        f"{key}={attempt[key]}" for key in ("milp_status", "limit", "error") if key in attempt
    )
    return f"attempt guess={attempt['guess']!r} patterns={attempt['num_patterns']} {outcome}"


def assignment_digest(assignment: dict[int, int]) -> str:
    text = ",".join(f"{job_id}:{machine}" for job_id, machine in sorted(assignment.items()))
    return hashlib.sha256(text.encode()).hexdigest()


class _HashingService(SolverService):
    """Inline solver service that records every solved model's digest and shape."""

    def __init__(self) -> None:
        super().__init__()
        self.models: list[str] = []

    def solve(self, model: LinearModel | CompiledModel, **kwargs: Any) -> Any:
        compiled = model.compile() if isinstance(model, LinearModel) else model
        self.models.append(f"{model_digest(compiled)} {model_shape(compiled)}")
        return super().solve(compiled, **kwargs)


def reference_instances(seed: int) -> list[Any]:
    """Three small instances for the exact, LP-bound and Das–Wiese lines."""
    return [
        uniform_random_instance(num_jobs=12, num_machines=3, num_bags=5, seed=seed).instance,
        uniform_random_instance(num_jobs=20, num_machines=4, num_bags=8, seed=seed).instance,
        bag_heavy_instance(num_machines=4, num_full_bags=2, extra_jobs=8, seed=seed).instance,
    ]


def reference_line(instance: Any, service: _HashingService) -> str:
    """The exact models' digests, the LP bound and, solved under ``service``,
    the Das–Wiese schedule of one instance."""
    exact, exact_nosym = (
        model_digest(build_assignment_model(instance, symmetry_breaking=sym).compile())
        for sym in (True, False)
    )
    lp = lp_relaxation_lower_bound(instance)
    # Only the Das–Wiese call runs under ``service``: the ``milp`` lines
    # list its ILPs alone.
    with service_scope(service):
        das_wiese = das_wiese_schedule(instance, eps=0.25)
    return (
        f"reference {instance.name} exact={exact} exact_nosym={exact_nosym} lp={lp:.12g} "
        f"das_wiese makespan={das_wiese.makespan!r} "
        f"assignment={assignment_digest(das_wiese.schedule.assignment)}"
    )


def baselines_line(instance: Any) -> str:
    """Makespan ``repr`` and assignment sha256 of each greedy baseline."""
    results = {
        "greedy": greedy_schedule(instance),
        "first_fit": first_fit_schedule(instance),
        "first_fit_lb": first_fit_schedule(instance, capacity=combined_lower_bound(instance)),
        "lpt": lpt_schedule(instance),
        "local_search": local_search_schedule(instance),
        "coloring": coloring_schedule(instance),
    }
    return "baselines " + " ".join(
        f"{name}={result.makespan!r}:{assignment_digest(result.schedule.assignment)}"
        for name, result in results.items()
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    for backend in ("scipy", "bnb", "lp"):
        print(f"backend {backend_fingerprint(backend)}")
    for instance in reference_instances(args.seed):
        service = _HashingService()
        print(reference_line(instance, service))
        for line in service.models:
            print(f"  milp {line}")
        print(f"  {baselines_line(instance)}")
    for workload_name, workload in WORKLOADS.items():
        specs = workload.smoke if args.size == "smoke" else workload.specs
        for spec in specs:
            service = _HashingService()
            with service_scope(service):
                result = eptas_schedule(build_instance(spec, args.seed), spec.eps)
            print(
                f"{workload_name} {spec.name} makespan={result.makespan!r} "
                f"assignment={assignment_digest(result.schedule.assignment)}"
            )
            for attempt in result.diagnostics["attempts"]:
                print(f"  {attempt_line(attempt)}")
            for line in service.models:
                print(f"  milp {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
