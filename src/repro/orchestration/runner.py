"""Parallel, crash-safe execution of store rows.

The runner is deliberately dumb: *all* coordination lives in the store's
atomic claim semantics.  Each worker process opens its own
:class:`~repro.orchestration.store.ExperimentStore`, activates the persistent
result cache against the same file, and loops ``claim → execute → write
back`` until no pending rows remain.  Because claims are status-guarded row
updates, any number of workers on one host (including workers of *other*
runner invocations) cooperate safely.  Do not share the store file across
machines: SQLite WAL mode is unsafe on network filesystems.

Crash safety: a worker killed mid-cell leaves its row ``running``.  The next
:func:`run_pool` invocation calls ``reclaim_stale`` before spawning workers,
so interrupted rows are re-executed while ``done`` rows are never touched —
that is the resume path.

Distributed fleets: :func:`run_worker` and :func:`run_workers` take a
``tcp://host:port`` target in place of a store path — the worker then
opens a :class:`repro.distributed.RemoteStore` against a ``repro orch
serve`` process instead of the SQLite file, and the whole
claim/complete/re-plan loop (including the persistent result cache, which
rides the same connection) runs unchanged across machines.
:func:`run_workers` is the attach-and-drain entry point behind ``repro
orch worker --connect``: no grid expansion, no planning — just reclaim +
drain against a store that was seeded elsewhere.  :func:`run_pool` is the
seed-plan-drain pipeline and stays local-only (it rejects remote targets):
grids are expanded and planned once, where the file lives.

Solver telemetry: every MILP a cell solves runs inline through the
current :class:`repro.solver.SolverService`.  The per-cell delta of its
counters (solve count, wall time, backend fingerprints) is attached to every
result under ``_solver_telemetry`` and surfaced by ``repro orch export`` and
``repro orch status``.

Scheduling: ``run_pool`` plans before it drains (``plan=True``): the
:mod:`~repro.orchestration.planner` hoists shared prerequisites and the
:mod:`~repro.orchestration.scheduling` cost model assigns claim priorities,
so workers execute longest-expected cells first instead of FIFO.  A worker
whose claim comes back empty while rows are still *blocked* on
prerequisites does not exit: it heals stale dependency counters, cascades
prerequisite failures, reclaims dependency-blocking rows abandoned by dead
workers (``stale_after``), and polls until the blocked rows resolve or no
live path to them remains.

Online re-planning (``replan_every > 0``, the default): the scheduling
decision is no longer spent once per run.  After every landed completion a
worker offers the store a re-plan round
(:meth:`~repro.orchestration.store.ExperimentStore.try_begin_replan`); the
epoch protocol guarantees exactly one winner per ``replan_every``
completions, and the winner EWMA-refits its cost model from the durations
that streamed in since its last refit, then re-ranks every still-pending
row (prerequisite gate boosts are recomputed, not wiped).  A grid whose
``cost_hint`` calibration is off by orders of magnitude therefore converges
to near-LPT claim order within the first few completions instead of never.
"""

from __future__ import annotations

import os
import time
import traceback
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..observability import events, metrics
from ..solver import get_solver_service
from . import registry
from .cache import cache_scope
from .planner import PREREQ_EXPERIMENT, replan
from .scheduling import CostModel
from .store import ExperimentStore

if TYPE_CHECKING:
    from ..distributed.protocol import StoreProtocol

__all__ = ["RunReport", "populate", "run_pool", "run_worker", "run_workers"]

SOLVER_TELEMETRY_KEY = "_solver_telemetry"

# How long an idle worker sleeps between polls while rows it could run are
# still blocked on an in-flight prerequisite of another worker.
BLOCKED_POLL_SECONDS = 0.05
# Remote workers poll blocked rows more gently: one poll cycle is several
# RPCs that all serialize through the store server's single dispatch lock,
# and a large fleet spinning at the local cadence would starve the worker
# actually executing the prerequisite of claim/complete latency.
REMOTE_BLOCKED_POLL_SECONDS = 0.5

# Default re-plan cadence: one priority refresh per this many landed
# completions.  Small enough that a badly calibrated grid converges within
# its first few cells, large enough that re-ranking (a handful of SELECTs
# plus one bulk UPDATE) stays negligible next to cell execution.
DEFAULT_REPLAN_EVERY = 5


@dataclass(slots=True)
class RunReport:
    """Aggregate outcome of one runner invocation."""

    claimed: int = 0
    done: int = 0
    errors: int = 0
    reclaimed: int = 0
    populated: int = 0
    workers: int = 1
    wall_time: float = 0.0
    worker_tags: list[str] = field(default_factory=list)
    # Planner summary (zero when planning is disabled or nothing to hoist).
    hoisted: int = 0
    dependency_edges: int = 0
    # Re-plan rounds this invocation's workers won (0 with --no-replan).
    replans: int = 0

    def merge(self, other: "RunReport") -> None:
        self.claimed += other.claimed
        self.done += other.done
        self.errors += other.errors
        self.replans += other.replans
        self.worker_tags.extend(other.worker_tags)


def _open_store(
    target: "str | os.PathLike[str]",
    *,
    fifo_every: int | None = None,
    token: str | None = None,
) -> "StoreProtocol":
    """A store for a target: local path or ``tcp://host:port`` server address."""
    # Deferred import: repro.distributed imports this package's store module.
    from ..distributed import open_store

    return open_store(target, fifo_every=fifo_every, token=token)


def _is_remote(target: "str | os.PathLike[str]") -> bool:
    from ..distributed import is_remote_target

    return is_remote_target(target)


def populate(
    store: ExperimentStore,
    experiments: Sequence[str],
    *,
    quick: bool = True,
    seed: int = 0,
) -> int:
    """Expand the grids of the named experiments into the store (idempotent)."""
    added = 0
    for name in experiments:
        spec = registry.get_spec(name)
        grid = registry.expand_grid(spec, quick=quick, seed=seed)
        added += store.add_rows(spec.name, grid)
    return added


def _blocked_rows_can_progress(
    store: ExperimentStore,
    experiments: Sequence[str] | None,
    *,
    stale_after: float,
) -> bool:
    """Housekeeping for dependency-blocked rows; True if claiming may retry.

    Called when a claim came back empty but blocked pending rows remain.
    In order: heal stale ``deps_pending`` counters, cascade prerequisite
    failures onto their dependents, reclaim blocking rows whose worker died
    (``stale_after``-old ``running`` claims), and finally decide whether any
    unfinished prerequisite can still complete — if every blocking row is
    unreachable (deleted, or pending outside this runner's experiment
    filter), waiting would deadlock and the worker gives up instead.
    """
    if store.sync_dependencies(experiments):
        return True
    if store.fail_blocked_on_error(experiments):
        return True
    blocking = store.blocking_dependencies(experiments)
    if not blocking:
        return False
    running_experiments = sorted(
        {dep["experiment"] for dep in blocking if dep["status"] == "running"}
    )
    if running_experiments:
        store.reclaim_stale(older_than=stale_after, experiments=running_experiments)
        return True
    for dep in blocking:
        if (
            dep["status"] == "pending"
            and dep["deps_pending"] == 0
            and (experiments is None or dep["experiment"] in experiments)
        ):
            # Genuinely claimable by this very loop (or a sibling): the
            # empty claim was a race against another worker's state change.
            # A pending dependency that is itself gated does NOT count —
            # a dependency cycle (or a chain whose root is gone) must break
            # the loop, not spin it at the poll interval forever.
            return True
    return False


def run_worker(
    db_path: str,
    experiments: Sequence[str] | None,
    worker_tag: str,
    *,
    use_cache: bool = True,
    stale_after: float = 600.0,
    replan_every: int = 0,
    fifo_every: int | None = None,
    token: str | None = None,
) -> RunReport:
    """Claim-execute-writeback loop of a single worker (also used inline).

    ``db_path`` may be a local store path or a ``tcp://host:port`` server
    address — the loop is identical either way; against a server, the
    persistent result cache is the *server's* cache table, reached over the
    same connection as the claims (``token`` authenticates every request).

    ``stale_after`` bounds how long the loop waits on a dependency-blocking
    row claimed by a worker that may have died before reclaiming it.

    ``replan_every > 0`` turns on online re-planning: after each landed
    completion the worker offers the store a re-plan round, and when it wins
    the epoch it refits its cost model (EWMA over the durations completed
    since its previous refit, across *all* workers) and re-ranks the pending
    rows.  Each worker keeps its own model; only round winners write
    priorities, and a round has exactly one winner, so concurrent workers
    never interleave partial priority updates.  ``fifo_every`` overrides the
    store's bounded-wait interleave (``None`` keeps the store default).
    """
    report = RunReport(worker_tags=[worker_tag])
    # This worker's cost model, materialised lazily on its first re-plan
    # win: store priors seed it, then every win EWMA-consumes the durations
    # finished after `refit_watermark` (its last refit), so samples are
    # counted exactly once per worker regardless of who won other rounds.
    model: CostModel | None = None
    refit_watermark: tuple[float, int] | None = None
    remote = _is_remote(db_path)
    blocked_poll = REMOTE_BLOCKED_POLL_SECONDS if remote else BLOCKED_POLL_SECONDS
    store = _open_store(db_path, fifo_every=fifo_every, token=token)
    if not use_cache:
        cache_target = None
    elif remote:
        cache_target = store  # cache reads/writes ride the server connection
    else:
        cache_target = db_path
    # cache_scope (not activate_cache) so the inline workers=1 path does not
    # leave the process-global cache pointed at this store after returning;
    # a None target pins the persistent layer (and its env fallback) off, so
    # use_cache=False cannot be overridden by REPRO_CACHE_DB.
    with store, cache_scope(cache_target):
        while True:
            claim_started = time.perf_counter()
            claimed = store.claim_next(worker_tag, experiments)
            metrics.observe(
                "runner.claim_latency_s", time.perf_counter() - claim_started
            )
            if claimed is None:
                if store.blocked_count(experiments) == 0:
                    break
                if not _blocked_rows_can_progress(
                    store, experiments, stale_after=stale_after
                ):
                    break
                time.sleep(blocked_poll)
                continue
            report.claimed += 1
            metrics.counter("runner.claims")
            # The claim's wire op id (None against a local store): stamping
            # the execution span with it is what chains client.call →
            # server.dispatch → worker.cell in the journaled trace.
            claim_op = getattr(store, "last_op", None)
            start = time.perf_counter()
            solver_service = get_solver_service()
            solver_before = solver_service.stats()
            try:
                result = registry.execute_cell(claimed.experiment, claimed.params)
            except Exception:
                duration = time.perf_counter() - start
                store.fail(
                    claimed.id,
                    traceback.format_exc(),
                    duration=duration,
                    worker=worker_tag,
                )
                report.errors += 1
                metrics.counter("runner.failures")
                events.emit(
                    "worker.cell",
                    op=claim_op,
                    actor=worker_tag,
                    duration=duration,
                    detail={
                        "experiment": claimed.experiment,
                        "row_id": claimed.id,
                        "error": True,
                    },
                )
            else:
                duration = time.perf_counter() - start
                delta = solver_service.stats_delta(solver_before)
                if delta["solves"]:
                    result = {**result, SOLVER_TELEMETRY_KEY: delta}
                store.complete(
                    claimed.id,
                    result,
                    duration=duration,
                    worker=worker_tag,
                )
                report.done += 1
                metrics.counter("runner.completes")
                metrics.observe("runner.cell_duration_s", duration)
                events.emit(
                    "worker.cell",
                    op=claim_op,
                    actor=worker_tag,
                    duration=duration,
                    detail={"experiment": claimed.experiment, "row_id": claimed.id},
                )
            # Journal this cell's spans (plus any client.call spans buffered
            # alongside them).  Best-effort by contract; against a pre-events
            # server the spans drop and are counted instead.
            events.flush(store)
            if replan_every > 0:
                round_no = store.try_begin_replan(replan_every)
                if round_no is not None:
                    if model is None:
                        model = CostModel.from_priors(store.load_cost_priors())
                    # Refit over every experiment's history, not just the
                    # claim scope: prereq rows and sibling runners' cells
                    # calibrate the same per-experiment scales.
                    _, refit_watermark = model.refit(store, since=refit_watermark)
                    summary = replan(
                        store,
                        model=model,
                        experiments=experiments,
                        round_no=round_no,
                    )
                    # The guarded write published the epoch atomically with
                    # the new priorities; a stale round (a newer winner
                    # superseded this one mid-refit) wrote nothing.
                    if not summary["stale"]:
                        report.replans += 1
                        metrics.counter("runner.replans")
    return report


def _claim_scope(store: Any, names: Sequence[str] | None) -> Sequence[str] | None:
    """Widen an experiment filter to include unfinished ``prereq`` rows.

    Workers must be able to claim the prerequisite rows their cells are
    gated on — including when no new planning happens, since edges already
    in the store still apply: stranding prereq rows outside the claim scope
    would leave gated cells pending forever while the drain exits 0.
    "running" counts too: an orphaned prereq claimed by a dead worker must
    fall inside the reclaim and claim scope or its dependents would wait on
    it forever.  ``names=None`` (claim everything) already covers prereqs.
    """
    if names is None or PREREQ_EXPERIMENT in names:
        return names
    prereq_counts = store.status_counts().get(PREREQ_EXPERIMENT, {})
    unfinished = prereq_counts.get("pending", 0) + prereq_counts.get("running", 0)
    return list(names) + [PREREQ_EXPERIMENT] if unfinished else names


def _drain(
    target: "str | os.PathLike[str]",
    claim_names: Sequence[str] | None,
    report: RunReport,
    *,
    use_cache: bool,
    stale_after: float,
    replan_every: int,
    fifo_every: int | None,
    token: str | None = None,
) -> None:
    """Run ``report.workers`` claim loops against ``target``, merging results.

    Worker tags must be unique across the whole fleet, not just this host:
    the store's late-writeback guard (``complete ... AND worker = ?``)
    would otherwise let a stalled worker on one machine clobber the claim
    of an identically-tagged worker on another after a stale reclaim.  A
    worker index + pid alone can collide across machines (and containers
    may even share hostnames), so each invocation adds a random fleet
    suffix.
    """
    fleet = f"{os.getpid()}.{uuid.uuid4().hex[:6]}"
    if report.workers == 1:
        report.merge(
            run_worker(
                target,
                claim_names,
                f"w0.{fleet}",
                use_cache=use_cache,
                stale_after=stale_after,
                replan_every=replan_every,
                fifo_every=fifo_every,
                token=token,
            )
        )
        return
    with ProcessPoolExecutor(max_workers=report.workers) as pool:
        futures = [
            pool.submit(
                run_worker,
                target,
                claim_names,
                f"w{i}.{fleet}",
                use_cache=use_cache,
                stale_after=stale_after,
                replan_every=replan_every,
                fifo_every=fifo_every,
                token=token,
            )
            for i in range(report.workers)
        ]
        for future in futures:
            report.merge(future.result())


def run_workers(
    target: "str | os.PathLike[str]",
    experiments: Sequence[str] | None = None,
    *,
    workers: int = 2,
    stale_after: float = 600.0,
    use_cache: bool = True,
    replan_every: int = DEFAULT_REPLAN_EVERY,
    fifo_every: int | None = None,
    token: str | None = None,
) -> RunReport:
    """Attach to an existing store and drain its pending rows with workers.

    The fleet half of :func:`run_pool`, behind ``repro orch worker``: no
    grid expansion and no planning — the store was seeded and planned where
    the file lives (``repro orch run`` / ``repro orch plan``), and this
    invocation only contributes claim loops.  ``target`` is a local path
    or, for remote fleets, the ``tcp://host:port`` of a ``repro orch
    serve`` process.  Stale rows in scope are reclaimed first (the resume
    path after a worker machine dies), and online re-planning stays on by
    default: the store's priorities keep refitting as this fleet's
    durations land, exactly as in a local run.
    """
    start = time.perf_counter()
    names = [registry.get_spec(name).name for name in experiments] if experiments else None
    report = RunReport(workers=max(1, int(workers)))
    with _open_store(target, fifo_every=fifo_every, token=token) as store:
        claim_names = _claim_scope(store, names)
        report.reclaimed = store.reclaim_stale(
            older_than=stale_after, experiments=claim_names
        )
        pending = store.pending_count(claim_names)
    if pending > 0:
        _drain(
            target,
            claim_names,
            report,
            use_cache=use_cache,
            stale_after=stale_after,
            replan_every=replan_every,
            fifo_every=fifo_every,
            token=token,
        )
    report.wall_time = time.perf_counter() - start
    return report


def run_pool(
    db_path: str | os.PathLike[str],
    experiments: Sequence[str] | None = None,
    *,
    workers: int = 2,
    quick: bool = True,
    seed: int = 0,
    do_populate: bool | None = None,
    stale_after: float = 600.0,
    use_cache: bool = True,
    plan: bool = True,
    replan_every: int = DEFAULT_REPLAN_EVERY,
    fifo_every: int | None = None,
) -> RunReport:
    """Populate (optionally), plan, reclaim stale rows, then drain with workers.

    ``experiments=None`` drains every experiment already present in the
    store (grid expansion needs explicit names, so ``do_populate`` then
    defaults to off; it defaults to on when names are given).  Stale-row
    reclaim is scoped to the experiments being run, so this invocation never
    steals in-progress rows a concurrent runner was asked to handle.
    ``stale_after`` is the age in seconds beyond which a ``running`` row is
    considered orphaned by a dead worker and reclaimed; pass ``0`` to
    reclaim all running rows (safe when no other runner shares the file).

    ``plan=True`` (the default, applied when explicit names are given) runs
    the dependency-aware planner before draining: shared prerequisites are
    hoisted into ``prereq`` rows the workers also claim, and cost-model
    priorities replace FIFO ordering.  ``plan=False`` restores the plain
    FIFO queue (existing priorities/edges in the store still apply).

    ``replan_every`` is the online re-planning cadence (completions per
    priority refresh, default :data:`DEFAULT_REPLAN_EVERY`; ``0`` — the CLI's
    ``--no-replan`` — freezes priorities at their initial plan).
    ``plan=False`` implies ``replan_every=0``: its contract is "no
    scheduling, priorities already in the store still apply", and a
    mid-drain re-rank would write brand-new ones.  ``fifo_every`` overrides
    the workers' bounded-wait FIFO interleave (``None`` keeps the store
    default).
    """
    from .planner import plan as plan_grids

    db_path = str(db_path)
    if _is_remote(db_path):
        # Passing a tcp:// target to Path() would silently create a local
        # "tcp:" directory and drain a brand-new empty store.
        raise ValueError(
            "run_pool seeds and plans a local store; attach to a served "
            "store with run_workers() / `repro orch worker --connect`"
        )
    start = time.perf_counter()
    names = [registry.get_spec(name).name for name in experiments] if experiments else None
    if do_populate is None:
        do_populate = names is not None
    report = RunReport(workers=max(1, int(workers)))
    claim_names = names
    if not plan:
        replan_every = 0
    store_kwargs = {} if fifo_every is None else {"fifo_every": fifo_every}
    with ExperimentStore(db_path, **store_kwargs) as store:
        if do_populate:
            if names is None:
                raise ValueError("populate requires an explicit experiment list")
            report.populated = populate(store, names, quick=quick, seed=seed)
        if plan and names is not None:
            plan_report = plan_grids(
                store,
                names,
                quick=quick,
                seed=seed,
                workers=report.workers,
                populate_rows=False,
                # Hoisted results travel via the persistent cache; without
                # it a prerequisite row would be dead weight.
                hoist=use_cache,
            )
            report.hoisted = len(plan_report.hoisted)
            report.dependency_edges = plan_report.edges
        # Unfinished prereq rows of *earlier* plans are picked up too —
        # finishing them only warms the cache their dependents are
        # waiting for (see _claim_scope).
        claim_names = _claim_scope(store, claim_names)
        report.reclaimed = store.reclaim_stale(
            older_than=stale_after, experiments=claim_names
        )
        pending = store.pending_count(claim_names)
    if pending > 0:
        _drain(
            db_path,
            claim_names,
            report,
            use_cache=use_cache,
            stale_after=stale_after,
            replan_every=replan_every,
            fifo_every=fifo_every,
        )
    report.wall_time = time.perf_counter() - start
    return report
