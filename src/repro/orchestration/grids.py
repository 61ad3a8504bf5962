"""Builtin experiment specs: E1…E10 (DESIGN.md) re-expressed as grids.

Each spec decomposes the corresponding driver loop into independent,
JSON-parameterised cells so the worker pool can execute them in parallel and
the store can persist/resume them.  Cells whose outputs are pure summaries
(makespans, ratios, counters) funnel their solver calls through
:func:`repro.orchestration.cache.cached_solve`; cells that *measure wall
time* (E3, E4, E10 timings) or need full schedules (E5, E6, E9) call the
solvers directly — caching a timing study would falsify it.

A ``smoke`` spec (tiny LPT cells) exists for CI and for exercising the
store/runner machinery in tests without paying for a real experiment.

Scheduling metadata: specs carry ``cost_hint`` callables (relative expected
cell cost, rescaled into seconds by the duration-history cost model) and —
for the experiments that start by solving an exact MILP (E2, E4, E10) —
``prerequisites`` declarations that let the planner hoist exact optima
shared by several cells into dedicated ``prereq`` rows (see
:mod:`repro.orchestration.planner`).
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from ..baselines import (
    coloring_schedule,
    das_wiese_schedule,
    first_fit_schedule,
    greedy_schedule,
    local_search_schedule,
    lpt_schedule,
)
from ..baselines.das_wiese import DasWieseConfig
from ..bounds import combined_lower_bound
from ..core.instance import Instance
from ..core.result import SolverResult
from ..core.schedule import Schedule
from ..eptas import (
    ConstantsMode,
    EptasConfig,
    classify_bags,
    classify_jobs,
    eptas_schedule,
    forward_transform_schedule,
    normalise_eps,
    reinsert_medium_jobs,
    revert_to_original,
    scale_and_round,
    solve_for_guess,
    theory_constants_report,
    transform_instance,
)
from ..exact import ExactMilpConfig, exact_milp_schedule
from ..generators import (
    bag_heavy_instance,
    clustered_sizes_instance,
    figure1_adversarial_instance,
    replica_workload_instance,
    two_size_instance,
    uniform_random_instance,
)
from ..simulation import ClusterSimulator
from .cache import cached_solve
from .planner import PREREQ_EXPERIMENT, PrereqCall, prereq_cost_hint
from .registry import CellPair, ExperimentSpec, register

__all__ = ["BUILTIN_SPECS"]


def _exact_optimum(instance: Instance) -> float:
    """Exact optimum through the result cache (the most expensive sub-call)."""
    config = ExactMilpConfig()
    payload = cached_solve(
        instance,
        "exact-milp",
        lambda: exact_milp_schedule(instance, config=config),
        backend=config.backend_spec,
    )
    return float(payload["makespan"])


def _exact_prereq(instance: Instance) -> PrereqCall:
    """The planner-visible description of one :func:`_exact_optimum` call.

    Solver name, config and backend spec must mirror ``_exact_optimum``
    exactly — the hoisted row and the dependent cell meet at the cache key.
    """
    config = ExactMilpConfig()
    return PrereqCall(
        instance=instance,
        solver="exact-milp",
        compute=lambda: exact_milp_schedule(instance, config=config),
        backend=config.backend_spec,
        cost_hint=float(instance.num_jobs * instance.num_machines),
    )


def _group_means(
    cells: list[CellPair],
    group_key: str,
    mean_fields: dict[str, str],
    *,
    max_fields: dict[str, str] | None = None,
    cast_int_max: bool = False,
) -> list[dict[str, Any]]:
    """Group cell results by ``group_key`` (insertion order) and average.

    ``mean_fields``/``max_fields`` map output column -> cell result field.
    """
    order: list[Any] = []
    grouped: dict[Any, list[dict[str, Any]]] = {}
    for params, result in cells:
        key = params[group_key]
        if key not in grouped:
            order.append(key)
            grouped[key] = []
        grouped[key].append(result)
    rows = []
    for key in order:
        results = grouped[key]
        row: dict[str, Any] = {group_key: key}
        for column, fieldname in mean_fields.items():
            row[column] = float(np.mean([r[fieldname] for r in results]))
        for column, fieldname in (max_fields or {}).items():
            value = max(r[fieldname] for r in results)
            row[column] = int(value) if cast_int_max else value
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# E1 — Figure 1: large-job placement matters
# ----------------------------------------------------------------------
def grid_e1(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    machine_counts = [4, 6] if quick else [4, 6, 8, 12]
    return [{"machines": machines, "seed": seed} for machines in machine_counts]


def cell_e1(*, machines: int, seed: int) -> dict[str, Any]:
    generated = figure1_adversarial_instance(num_machines=machines, seed=seed)
    instance = generated.instance
    naive = cached_solve(instance, "first-fit", lambda: first_fit_schedule(instance))
    greedy = cached_solve(instance, "greedy-list", lambda: greedy_schedule(instance))
    lpt = cached_solve(instance, "lpt", lambda: lpt_schedule(instance))
    eptas_config = EptasConfig(eps=0.25)
    eptas = cached_solve(
        instance,
        "eptas",
        lambda: eptas_schedule(instance, eps=0.25, config=eptas_config),
        config={"eps": 0.25},
        backend=eptas_config.backend_spec,
    )
    if generated.known_optimum is not None:
        optimum = generated.known_optimum
    else:
        optimum = _exact_optimum(instance)
    return {
        "machines": machines,
        "optimum": optimum,
        "first_fit": naive["makespan"],
        "greedy_list": greedy["makespan"],
        "lpt": lpt["makespan"],
        "eptas(0.25)": eptas["makespan"],
    }


# ----------------------------------------------------------------------
# E2 — Theorem 1: approximation ratios across solvers and families
# ----------------------------------------------------------------------
_E2_EPS_VALUES = (0.5, 0.25)


def _e2_solvers() -> dict[str, tuple[Callable[[Instance], SolverResult], Any]]:
    """E2's solver roster: name -> (callable, backend spec or None).

    MILP-backed entries carry the backend spec of the config they actually
    solve with, so their cache keys stay coupled to the real backend (a
    backend or option change can never serve a stale cached ratio).
    """
    das_config = DasWieseConfig(eps=0.25)
    solvers: dict[str, tuple[Callable[[Instance], SolverResult], Any]] = {
        "greedy_list": (greedy_schedule, None),
        "lpt": (lpt_schedule, None),
        "lpt+local_search": (local_search_schedule, None),
        "coloring": (coloring_schedule, None),
        "das_wiese(0.25)": (
            lambda inst: das_wiese_schedule(inst, eps=0.25, config=das_config),
            das_config.backend_spec,
        ),
    }
    for eps in _E2_EPS_VALUES:
        eptas_config = EptasConfig(eps=eps)
        solvers[f"eptas({eps:g})"] = (
            lambda inst, eps=eps, cfg=eptas_config: eptas_schedule(inst, eps=eps, config=cfg),
            eptas_config.backend_spec,
        )
    return solvers


def _e2_instance(
    family: str, s: int, num_jobs: int, num_machines: int, num_bags: int
) -> Instance:
    if family == "uniform":
        return uniform_random_instance(
            num_jobs=num_jobs, num_machines=num_machines, num_bags=num_bags, seed=s
        ).instance
    if family == "figure1":
        return figure1_adversarial_instance(num_machines=num_machines, seed=s).instance
    if family == "replicas":
        return replica_workload_instance(
            num_services=num_bags, num_machines=num_machines, seed=s
        ).instance
    if family == "bag_heavy":
        return bag_heavy_instance(
            num_machines=num_machines, num_full_bags=3, extra_jobs=6, seed=s
        ).instance
    raise KeyError(f"unknown E2 family {family!r}")


def grid_e2(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    num_seeds = 2 if quick else 5
    size = (
        dict(num_jobs=14, num_machines=4, num_bags=6)
        if quick
        else dict(num_jobs=24, num_machines=5, num_bags=8)
    )
    return [
        {"family": family, "seed": seed + offset, **size}
        for family in ("uniform", "figure1", "replicas", "bag_heavy")
        for offset in range(num_seeds)
    ]


def prereqs_e2(
    *, family: str, seed: int, num_jobs: int, num_machines: int, num_bags: int
) -> list[PrereqCall]:
    instance = _e2_instance(family, seed, num_jobs, num_machines, num_bags)
    return [_exact_prereq(instance)]


def cell_e2(
    *, family: str, seed: int, num_jobs: int, num_machines: int, num_bags: int
) -> dict[str, Any]:
    instance = _e2_instance(family, seed, num_jobs, num_machines, num_bags)
    optimum = _exact_optimum(instance)
    ratios: dict[str, float] = {}
    for name, (solver, backend_spec) in _e2_solvers().items():
        payload = cached_solve(
            instance,
            name,
            lambda solver=solver: solver(instance),
            backend=backend_spec,
        )
        ratios[name] = payload["makespan"] / optimum
    return {"family": family, **ratios}


def reduce_e2(cells: list[CellPair]) -> list[dict[str, Any]]:
    solver_names = list(_e2_solvers())
    return _group_means(cells, "family", {name: name for name in solver_names})


# ----------------------------------------------------------------------
# E3 — running time scaling with n at fixed eps (a timing study: no cache)
# ----------------------------------------------------------------------
def grid_e3(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    sizes = [16, 32, 64, 128] if quick else [16, 32, 64, 128, 256, 512]
    exact_cap = 32 if quick else 48
    return [
        {"num_jobs": n, "seed": seed, "with_exact": n <= exact_cap} for n in sizes
    ]


def cell_e3(*, num_jobs: int, seed: int, with_exact: bool) -> dict[str, Any]:
    # Weak scaling: the machine count grows with n so that the per-machine
    # load (and hence the large/small structure seen by the EPTAS) stays
    # comparable across the sweep.
    machines = max(4, num_jobs // 8)
    instance = clustered_sizes_instance(
        num_jobs=num_jobs,
        num_machines=machines,
        num_bags=max(6, num_jobs // 3),
        size_values=(1.0, 0.6, 0.3, 0.1),
        seed=seed,
    ).instance
    row: dict[str, Any] = {"n": num_jobs, "m": machines}
    start = time.perf_counter()
    lpt = lpt_schedule(instance)
    row["lpt_time"] = time.perf_counter() - start

    start = time.perf_counter()
    eptas = eptas_schedule(instance, eps=0.5)
    row["eptas_time"] = time.perf_counter() - start

    start = time.perf_counter()
    das = das_wiese_schedule(instance, eps=0.5)
    row["das_wiese_time"] = time.perf_counter() - start

    if with_exact:
        start = time.perf_counter()
        exact = exact_milp_schedule(instance)
        row["exact_time"] = time.perf_counter() - start
        optimum = exact.makespan
    else:
        row["exact_time"] = None
        optimum = combined_lower_bound(instance)
    row["eptas_ratio"] = eptas.makespan / optimum
    row["lpt_ratio"] = lpt.makespan / optimum
    row["das_wiese_ratio"] = das.makespan / optimum
    return row


# ----------------------------------------------------------------------
# E4 — eps trade-off (timed EPTAS runs; only the optimum is cached)
# ----------------------------------------------------------------------
def grid_e4(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    eps_values = [1.0, 0.5, 0.25] if quick else [1.0, 0.5, 1 / 3, 0.25, 0.2]
    return [
        {"eps": eps, "num_jobs": 20 if quick else 32, "seed": seed}
        for eps in eps_values
    ]


def _e4_instance(num_jobs: int, seed: int) -> Instance:
    """The instance every E4 eps value shares (one exact optimum per seed)."""
    return uniform_random_instance(
        num_jobs=num_jobs, num_machines=4, num_bags=7, seed=seed
    ).instance


def prereqs_e4(*, eps: float, num_jobs: int, seed: int) -> list[PrereqCall]:
    return [_exact_prereq(_e4_instance(num_jobs, seed))]


def cell_e4(*, eps: float, num_jobs: int, seed: int) -> dict[str, Any]:
    instance = _e4_instance(num_jobs, seed)
    optimum = _exact_optimum(instance)
    start = time.perf_counter()
    result = eptas_schedule(instance, eps=eps)
    elapsed = time.perf_counter() - start
    return {
        "eps": normalise_eps(eps),
        "ratio": result.makespan / optimum,
        "guarantee": 1 + 2 * eps + eps * eps,
        "time_s": elapsed,
        "patterns": result.diagnostics.get("num_patterns"),
        "integer_vars": result.diagnostics.get("integer_variables"),
        "constraints": result.diagnostics.get("constraints"),
    }


# ----------------------------------------------------------------------
# E5 — Lemma 2: transformation overhead (needs schedules: no cache)
# ----------------------------------------------------------------------
def grid_e5(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    num_cases = 3 if quick else 8
    return [{"case_seed": seed + offset} for offset in range(num_cases)]


def cell_e5(*, case_seed: int) -> dict[str, Any]:
    eps = 0.25
    # Many bags relative to the priority cap and a wide size spread, so a
    # substantial fraction of bags becomes non-priority and is actually
    # transformed (large jobs split off, fillers added).
    instance = clustered_sizes_instance(
        num_jobs=40,
        num_machines=5,
        num_bags=18,
        size_values=(0.9, 0.6, 0.05, 0.03, 0.02),
        weights=(0.25, 0.2, 0.2, 0.2, 0.15),
        seed=case_seed,
    ).instance
    # A feasible schedule S of the original instance (LPT).
    schedule = lpt_schedule(instance).schedule
    c_value = schedule.makespan()
    rounded = scale_and_round(instance, eps, c_value)
    working = rounded.instance
    job_classes = classify_jobs(working, eps)
    bag_classes = classify_bags(
        working, job_classes, mode=ConstantsMode.PRACTICAL, practical_priority_cap=1
    )
    record = transform_instance(working, job_classes, bag_classes)
    scaled_schedule = Schedule(working, schedule.assignment)
    transformed_schedule = forward_transform_schedule(record, scaled_schedule)
    inflation = transformed_schedule.makespan() / max(scaled_schedule.makespan(), 1e-12)
    return {
        "seed": case_seed,
        "original_makespan": scaled_schedule.makespan(),
        "transformed_makespan": transformed_schedule.makespan(),
        "inflation": inflation,
        "lemma2_bound": 1 + eps,
        "within_bound": inflation <= 1 + eps + 1e-9,
        "filler_jobs": record.num_filler_jobs,
        "non_priority_bags_split": len(record.companion_bag),
    }


# ----------------------------------------------------------------------
# E6 — Lemmas 3 & 4: medium re-insertion and revert
# ----------------------------------------------------------------------
def grid_e6(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    num_cases = 3 if quick else 8
    return [{"case_seed": seed + offset} for offset in range(num_cases)]


def cell_e6(*, case_seed: int) -> dict[str, Any]:
    eps = 0.25
    # Hand-crafted shape in already-normalised units (the guessed optimum is
    # fixed to 1, so the Lemma-1 window for eps = 1/4 and k = 1 is
    # [1/16, 1/4)): many bags mixing one large job, a few small jobs, and
    # occasionally one *medium* job of size 0.1.  With a priority cap of 1
    # most bags are non-priority, so their medium jobs are removed by the
    # transformation and Lemma 3 genuinely has work to do.
    rng = np.random.default_rng(case_seed)
    sizes: list[float] = []
    bags: list[int] = []
    num_bags = 14
    for bag in range(num_bags):
        sizes.append(float(rng.choice([0.55, 0.35])))
        bags.append(bag)
        for _ in range(2):
            sizes.append(float(rng.uniform(0.01, 0.04)))
            bags.append(bag)
        if bag % 4 == 0:
            sizes.append(0.1)  # medium window [1/16, 1/4) for eps = 1/4
            bags.append(bag)
    instance = Instance.from_sizes(
        sizes, bags, num_machines=6, name=f"e6-{case_seed}"
    )
    guess = 1.0
    rounded = scale_and_round(instance, eps, guess)
    working = rounded.instance
    working_job_classes = classify_jobs(working, eps)
    bag_classes = classify_bags(
        working,
        working_job_classes,
        mode=ConstantsMode.PRACTICAL,
        practical_priority_cap=1,
    )
    record = transform_instance(working, working_job_classes, bag_classes)
    base_schedule = lpt_schedule(record.transformed).schedule
    before = base_schedule.makespan()
    augmented = reinsert_medium_jobs(record, base_schedule)
    after = augmented.makespan()
    reverted = revert_to_original(record, augmented)
    reverted.validate()
    return {
        "seed": case_seed,
        "medium_jobs_reinserted": record.num_removed_medium,
        "makespan_before": before,
        "makespan_after_lemma3": after,
        "lemma3_increase": after - before,
        "lemma3_bound": 2 * eps,
        "makespan_after_revert": reverted.makespan(),
        "revert_conflict_free": reverted.is_conflict_free(),
        "revert_within_augmented": reverted.makespan() <= after + 1e-9,
    }


# ----------------------------------------------------------------------
# E7 — Lemma 6: MILP size as a function of eps
# ----------------------------------------------------------------------
def grid_e7(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    eps_values = [1.0, 0.5, 0.25] if quick else [1.0, 0.5, 1 / 3, 0.25, 0.2]
    return [
        {"eps": eps, "num_jobs": 18 if quick else 30, "seed": seed}
        for eps in eps_values
    ]


def cell_e7(*, eps: float, num_jobs: int, seed: int) -> dict[str, Any]:
    instance = clustered_sizes_instance(
        num_jobs=num_jobs,
        num_machines=4,
        num_bags=6,
        size_values=(1.0, 0.55, 0.3),
        seed=seed,
    ).instance
    guess = combined_lower_bound(instance)
    theory = theory_constants_report(eps)
    config = EptasConfig(eps=eps, max_patterns=200_000).normalised()
    _, report = solve_for_guess(instance, guess, config)
    worst = theory["k=worst"]
    return {
        "eps": normalise_eps(eps),
        "theory_q": worst["q"],
        "theory_b_prime": worst["b_prime"],
        "theory_log10_patterns": worst["log10_pattern_bound"],
        "measured_patterns": report.num_patterns,
        "measured_integer_vars": report.integer_variables,
        "measured_continuous_vars": report.continuous_variables,
        "measured_constraints": report.constraints,
        "milp_feasible": report.feasible,
    }


# ----------------------------------------------------------------------
# E8 — Lemmas 7 & 11: repair statistics
# ----------------------------------------------------------------------
_E8_FAMILIES = ("uniform", "bag_heavy", "two_size", "many_bags_clustered")


def _e8_instance(family: str, s: int) -> Instance:
    if family == "uniform":
        return uniform_random_instance(
            num_jobs=24, num_machines=4, num_bags=8, seed=s
        ).instance
    if family == "bag_heavy":
        return bag_heavy_instance(
            num_machines=4, num_full_bags=3, extra_jobs=8, seed=s
        ).instance
    if family == "two_size":
        return two_size_instance(num_machines=6, seed=s).instance
    if family == "many_bags_clustered":
        # Many bags sharing few large sizes with a priority cap of 1 puts
        # most large jobs into wildcard slots, which is where Lemma-7 swaps
        # can become necessary.
        return clustered_sizes_instance(
            num_jobs=36,
            num_machines=6,
            num_bags=18,
            size_values=(0.7, 0.45, 0.05),
            seed=s,
        ).instance
    raise KeyError(f"unknown E8 family {family!r}")


def grid_e8(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    num_seeds = 2 if quick else 5
    return [
        {"family": family, "seed": seed + offset}
        for family in _E8_FAMILIES
        for offset in range(num_seeds)
    ]


def cell_e8(*, family: str, seed: int) -> dict[str, Any]:
    instance = _e8_instance(family, seed)
    config = EptasConfig(eps=0.25, practical_priority_cap=1)
    payload = cached_solve(
        instance,
        "eptas",
        lambda: eptas_schedule(instance, eps=0.25, config=config),
        config={"eps": 0.25, "practical_priority_cap": 1},
        backend=config.backend_spec,
        extra=lambda result: {"residual_conflicts": result.schedule.num_conflicts()},
    )
    diagnostics = payload["diagnostics"]
    fallback = 0
    for attempt in diagnostics.get("attempts") or []:
        fallback += attempt.get("large_fallback_moves") or 0
        fallback += attempt.get("resolved_by_fallback") or 0
    return {
        "family": family,
        "lemma7_swaps": diagnostics.get("large_swaps") or 0,
        "lemma11_conflicts": diagnostics.get("repair_conflicts") or 0,
        "fallback_moves": fallback,
        "residual_conflicts": payload["residual_conflicts"],
    }


def reduce_e8(cells: list[CellPair]) -> list[dict[str, Any]]:
    return _group_means(
        cells,
        "family",
        {
            "mean_lemma7_swaps": "lemma7_swaps",
            "mean_lemma11_conflicts": "lemma11_conflicts",
            "mean_fallback_moves": "fallback_moves",
        },
        max_fields={"residual_conflicts": "residual_conflicts"},
        cast_int_max=True,
    )


# ----------------------------------------------------------------------
# E9 — fault tolerance of bag-constrained schedules (needs schedules)
# ----------------------------------------------------------------------
def grid_e9(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    num_seeds = 3 if quick else 10
    return [
        {
            "num_failures": num_failures,
            "case_seed": seed + offset,
            "failures_seed": seed * 1000 + offset,
        }
        for num_failures in (1, 2)
        for offset in range(num_seeds)
    ]


def cell_e9(*, num_failures: int, case_seed: int, failures_seed: int) -> dict[str, Any]:
    generated = replica_workload_instance(
        num_services=10, num_machines=6, replicas_range=(2, 3), seed=case_seed
    )
    instance = generated.instance
    bag_schedule = lpt_schedule(instance).schedule
    # The bag-oblivious schedule ignores replica separation entirely:
    # first-fit on singleton bags happily co-locates the replicas of one
    # service on a single machine.
    no_bag_instance = Instance(
        [job.with_bag(job.id) for job in instance.jobs],
        instance.num_machines,
        name=instance.name + "#nobags",
    )
    no_bag_schedule_raw = first_fit_schedule(
        no_bag_instance, capacity=bag_schedule.makespan()
    ).schedule
    no_bag_schedule = Schedule(instance, no_bag_schedule_raw.assignment, allow_partial=True)

    report_bag = ClusterSimulator(instance, bag_schedule).run_with_random_failures(
        num_failures=num_failures, seed=failures_seed
    )
    simulator_nobag = ClusterSimulator.__new__(ClusterSimulator)
    simulator_nobag.instance = instance
    simulator_nobag.schedule = no_bag_schedule
    report_nobag = simulator_nobag.run_with_random_failures(
        num_failures=num_failures, seed=failures_seed
    )
    return {
        "num_failures": num_failures,
        "survivability_with_bags": report_bag.survivability(),
        "survivability_without_bags": report_nobag.survivability(),
        "makespan_with_bags": bag_schedule.makespan(),
        "makespan_without_bags": no_bag_schedule.makespan(),
    }


def reduce_e9(cells: list[CellPair]) -> list[dict[str, Any]]:
    rows = _group_means(
        cells,
        "num_failures",
        {
            "survivability_with_bags": "survivability_with_bags",
            "survivability_without_bags": "survivability_without_bags",
            "makespan_with_bags": "makespan_with_bags",
            "makespan_without_bags": "makespan_without_bags",
        },
    )
    # Match the historical driver column name.
    return [{"machine_failures": row.pop("num_failures"), **row} for row in rows]


# ----------------------------------------------------------------------
# E10 — ablations of the EPTAS design choices (timed: only optimum cached)
# ----------------------------------------------------------------------
_E10_VARIANTS: dict[str, dict[str, Any]] = {
    "default (cap=3, scipy)": {},
    "priority cap = 1": {"practical_priority_cap": 1},
    "priority cap = 12": {"practical_priority_cap": 12},
    "own branch-and-bound MILP": {"milp_backend": "bnb"},
    "single-shot (no binary search)": {"max_search_iterations": 1},
}


def grid_e10(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    return [
        {
            "variant": variant,
            "overrides": overrides,
            "num_jobs": 24 if quick else 36,
            "seed": seed,
        }
        for variant, overrides in _E10_VARIANTS.items()
    ]


def _e10_instance(num_jobs: int, seed: int) -> Instance:
    # Few distinct sizes but many bags: this is the regime where the priority
    # cap genuinely changes the set of priority bags (and hence the MILP).
    # Every E10 variant ablates the same instance, so they share one optimum.
    return clustered_sizes_instance(
        num_jobs=num_jobs,
        num_machines=4,
        num_bags=12,
        size_values=(0.8, 0.5, 0.2),
        seed=seed,
    ).instance


def prereqs_e10(
    *, variant: str, overrides: dict[str, Any], num_jobs: int, seed: int
) -> list[PrereqCall]:
    return [_exact_prereq(_e10_instance(num_jobs, seed))]


def cell_e10(
    *, variant: str, overrides: dict[str, Any], num_jobs: int, seed: int
) -> dict[str, Any]:
    instance = _e10_instance(num_jobs, seed)
    optimum = _exact_optimum(instance)
    config = EptasConfig(eps=0.25, **overrides)
    start = time.perf_counter()
    result = eptas_schedule(instance, eps=config.eps, config=config)
    elapsed = time.perf_counter() - start
    return {
        "variant": variant,
        "ratio": result.makespan / optimum,
        "time_s": elapsed,
        "patterns": result.diagnostics.get("num_patterns"),
        "integer_vars": result.diagnostics.get("integer_variables"),
        "priority_bags": result.diagnostics.get("num_priority_bags"),
    }


# ----------------------------------------------------------------------
# smoke — tiny LPT cells exercising store/runner/cache end-to-end
# ----------------------------------------------------------------------
def grid_smoke(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    num_cells = 4 if quick else 16
    return [{"index": index, "seed": seed} for index in range(num_cells)]


def cell_smoke(*, index: int, seed: int) -> dict[str, Any]:
    instance = uniform_random_instance(
        num_jobs=10, num_machines=3, num_bags=4, seed=seed * 100 + index
    ).instance
    payload = cached_solve(instance, "lpt", lambda: lpt_schedule(instance))
    return {
        "index": index,
        "makespan": payload["makespan"],
        "cache_hit": payload["cache_hit"],
    }


# ----------------------------------------------------------------------
# prereq — hoisted shared sub-solves (rows inserted by the planner)
# ----------------------------------------------------------------------
def grid_prereq(*, quick: bool = True, seed: int = 0) -> list[dict[str, Any]]:
    # Prerequisite rows are planner-derived, never grid-expanded: the grid
    # is empty so `repro orch run prereq` populates nothing on its own.
    return []


def cell_prereq(*, source: str, cell: dict[str, Any], index: int, solver: str) -> dict[str, Any]:
    """Execute one hoisted sub-solve through the shared result cache.

    The row's params name the *representative* dependent cell; re-deriving
    the :class:`~repro.orchestration.planner.PrereqCall` from the source
    spec guarantees the cache key matches what every dependent will ask for.
    """
    from . import registry

    spec = registry.get_spec(source)
    if spec.prerequisites is None:
        raise KeyError(f"experiment {source!r} declares no prerequisites")
    calls = spec.prerequisites(**cell)
    call = calls[index]
    if call.solver != solver:
        raise KeyError(
            f"prerequisite {index} of {source!r} is {call.solver!r}, row says {solver!r}"
        )
    payload = cached_solve(
        call.instance, call.solver, call.compute, config=call.config, backend=call.backend
    )
    return {
        "source": source,
        "solver": call.solver,
        "makespan": payload["makespan"],
        "cache_hit": payload["cache_hit"],
    }


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
BUILTIN_SPECS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        name="e1",
        experiment_id="E1",
        title="Figure 1 — large-job placement matters (makespans, optimum = 1)",
        make_grid=grid_e1,
        run_cell=cell_e1,
        cost_hint=lambda p: float(p["machines"]) ** 2,
        notes=(
            "first-fit packs large jobs to height OPT and is then forced to stack "
            "the full bag of small jobs — the phenomenon of the paper's Figure 1; "
            "the EPTAS places large jobs so small jobs still fit.",
        ),
    ),
    ExperimentSpec(
        name="e2",
        experiment_id="E2",
        title="Theorem 1 — measured approximation ratios (vs exact optimum)",
        make_grid=grid_e2,
        run_cell=cell_e2,
        reduce_rows=reduce_e2,
        # The exact optimum (MILP over all n jobs) dominates an E2 cell.
        cost_hint=lambda p: float(p["num_jobs"] * p["num_machines"]),
        prerequisites=prereqs_e2,
        notes=(
            "expected shape: eptas <= 1 + O(eps) and never worse than the "
            "2-approximations; greedy/list scheduling degrades on adversarial families.",
        ),
    ),
    ExperimentSpec(
        name="e3",
        experiment_id="E3",
        title="Running time vs number of jobs (fixed eps)",
        make_grid=grid_e3,
        run_cell=cell_e3,
        timing_sensitive=True,
        # Cells with the exact MILP blow up superlinearly in n; the rest
        # stay near-linear — precisely the spread priority claiming fixes.
        cost_hint=lambda p: float(p["num_jobs"]) ** (2.0 if p["with_exact"] else 1.3),
        notes=(
            "expected shape: the exact MILP blows up first; EPTAS and Das-Wiese "
            "grow polynomially in n, with the EPTAS paying a constant (eps-only) "
            "MILP cost per binary-search step.",
        ),
    ),
    ExperimentSpec(
        name="e4",
        experiment_id="E4",
        title="Accuracy-versus-cost trade-off in eps",
        make_grid=grid_e4,
        run_cell=cell_e4,
        timing_sensitive=True,
        # Smaller eps -> more patterns -> a bigger configuration MILP.
        cost_hint=lambda p: float(p["num_jobs"]) / max(float(p["eps"]), 1e-9),
        prerequisites=prereqs_e4,
        notes=(
            "ratio stays below the (1 + 2eps + eps^2) budget; cost rises as eps shrinks.",
        ),
    ),
    ExperimentSpec(
        name="e5",
        experiment_id="E5",
        title="Lemma 2 — instance transformation overhead",
        make_grid=grid_e5,
        run_cell=cell_e5,
        notes=(
            "Lemma 2: the transformed instance admits a schedule of makespan <= (1+eps)*C.",
        ),
    ),
    ExperimentSpec(
        name="e6",
        experiment_id="E6",
        title="Lemmas 3-4 — medium-job re-insertion and filler revert",
        make_grid=grid_e6,
        run_cell=cell_e6,
        notes=(
            "Lemma 3 bounds the increase by 2*eps (in units of the guessed optimum); "
            "Lemma 4 never increases the makespan and removes every conflict.",
        ),
    ),
    ExperimentSpec(
        name="e7",
        experiment_id="E7",
        title="Lemma 6 — size of the configuration MILP",
        make_grid=grid_e7,
        run_cell=cell_e7,
        cost_hint=lambda p: float(p["num_jobs"]) / max(float(p["eps"]), 1e-9),
        notes=(
            "the theory columns reproduce the 2^{O(...)} growth of Lemma 6 (log10 of the "
            "pattern bound); the measured columns use the practical constants on a real instance.",
        ),
    ),
    ExperimentSpec(
        name="e8",
        experiment_id="E8",
        title="Lemmas 7 & 11 — conflict-repair statistics",
        make_grid=grid_e8,
        run_cell=cell_e8,
        reduce_rows=reduce_e8,
        notes=("residual_conflicts must be 0: every returned schedule is feasible.",),
    ),
    ExperimentSpec(
        name="e9",
        experiment_id="E9",
        title="Motivation — replica survivability under machine failures",
        make_grid=grid_e9,
        run_cell=cell_e9,
        reduce_rows=reduce_e9,
        notes=(
            "bag-constrained schedules keep (almost) every service alive after failures at a "
            "small makespan premium — the paper's introductory motivation.",
        ),
    ),
    ExperimentSpec(
        name="e10",
        experiment_id="E10",
        title="Ablation of EPTAS design choices",
        make_grid=grid_e10,
        run_cell=cell_e10,
        timing_sensitive=True,
        # The bnb backend and a large priority cap both inflate the MILP.
        cost_hint=lambda p: float(p["num_jobs"])
        * {"own branch-and-bound MILP": 4.0, "priority cap = 12": 3.0}.get(
            p["variant"], 1.0
        ),
        prerequisites=prereqs_e10,
        notes=(
            "all variants stay feasible; a larger priority cap grows the MILP, a smaller one "
            "shifts work to the swap-repair stages.",
        ),
    ),
    ExperimentSpec(
        name="smoke",
        experiment_id="SMOKE",
        title="Orchestration smoke — tiny LPT cells through store/runner/cache",
        make_grid=grid_smoke,
        run_cell=cell_smoke,
        cost_hint=lambda p: 1.0,
    ),
    ExperimentSpec(
        name=PREREQ_EXPERIMENT,
        experiment_id="PREREQ",
        title="Hoisted shared prerequisites (planner-inserted rows)",
        make_grid=grid_prereq,
        run_cell=cell_prereq,
        cost_hint=prereq_cost_hint,
    ),
)

for _spec in BUILTIN_SPECS:
    register(_spec)
