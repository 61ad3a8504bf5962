"""Content-hash result caching for solver invocations.

A solver call is identified by ``(instance digest, solver name, config,
backend fingerprint)``: the digest covers the job multiset (ids, sizes,
bags) and the machine count — *not* the instance name, so renamed but
identical instances share cache entries.  For solvers that go through the
MILP service, callers pass the :class:`repro.solver.BackendSpec` and the
key includes the backend fingerprint (backend name + version +
option digest), so a scipy upgrade or a solver-option change never reuses
stale cached results.  Payloads are small JSON summaries (makespan, wall time, optimality
flag, diagnostics, optional solver-specific extras) — never full schedules —
so the cache stays cheap to read even on slow disks.

Two layers:

* an in-process memo (always on) so that one grid cell / driver table never
  recomputes the same exact optimum twice inside a process, and
* an optional persistent layer backed by the ``cache`` table of an
  :class:`~repro.orchestration.store.ExperimentStore`, activated per process
  via :func:`activate_cache` (the worker pool does this automatically) or the
  ``REPRO_CACHE_DB`` environment variable (used by the benchmark harness).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

from ..analysis import racecheck
from ..core.instance import Instance
from ..core.result import SolverResult
from .store import ExperimentStore, _to_jsonable

__all__ = [
    "DEFAULT_MEMO_ENTRIES",
    "activate_cache",
    "deactivate_cache",
    "active_cache",
    "cache_key",
    "cached_payload",
    "cached_solve",
    "clear_memo",
    "instance_digest",
    "memo_stats",
    "set_memo_limit",
    "summarise_result",
]

# The in-process memo is LRU-bounded: one grid run never feels the cap, but
# a forever-lived process (the scheduling service) must not grow a dict per
# distinct instance it has ever seen.  Adjustable via set_memo_limit.
DEFAULT_MEMO_ENTRIES = 4096

_memo: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
# The memo is shared mutable state: the scheduling service's executor
# threads all solve through cached_solve concurrently, and an unguarded
# OrderedDict corrupts under simultaneous move_to_end/popitem.
_memo_lock = racecheck.tracked_lock("cache.memo")
_memo_hits = 0
_memo_limit = DEFAULT_MEMO_ENTRIES
# The persistent layer: a local ExperimentStore, or any store-shaped object
# installed via cache_scope (a RemoteStore in distributed workers).
_active: Any = None
# Whether *this module* opened _active (and therefore must close it).  A
# caller-owned store installed via cache_scope is never closed here — its
# owner may be sharing the connection with claim/complete traffic.
_active_owned = False
_env_checked = False

ENV_CACHE_DB = "REPRO_CACHE_DB"


def instance_digest(instance: Instance) -> str:
    """Stable content hash of an instance (ignores the display name)."""
    blob = json.dumps(
        {
            "m": instance.num_machines,
            "jobs": [(job.id, float(job.size), int(job.bag)) for job in instance.jobs],
        },
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def cache_key(
    instance: Instance,
    solver: str,
    config: Mapping[str, Any] | None = None,
    *,
    backend: "str | Any | None" = None,
) -> str:
    """Cache key for one solver invocation on one instance.

    ``backend`` (a name or :class:`repro.solver.BackendSpec`) adds the
    backend fingerprint to the key for MILP-backed solvers; combinatorial
    solvers (LPT, greedy, …) omit it so their entries survive backend
    upgrades they cannot be affected by.
    """
    config_blob = json.dumps(_to_jsonable(config or {}), sort_keys=True, separators=(",", ":"))
    fingerprint = ""
    if backend is not None:
        from ..solver import BackendSpec, backend_fingerprint

        fingerprint = backend_fingerprint(BackendSpec.coerce(backend))
    blob = f"{instance_digest(instance)}\x00{solver}\x00{config_blob}\x00{fingerprint}".encode()
    return hashlib.sha256(blob).hexdigest()


def activate_cache(path: str | os.PathLike[str]) -> ExperimentStore:
    """Point this process's persistent cache layer at a store file."""
    global _active, _active_owned
    if _active is not None and _active_owned:
        _active.close()
    _active = ExperimentStore(path)
    _active_owned = True
    return _active


@contextmanager
def cache_scope(
    target: "str | os.PathLike[str] | Any | None",
) -> Iterator[Any]:
    """Temporarily install a persistent cache layer, restoring the previous one.

    ``target=None`` disables the persistent layer for the scope's duration —
    including the ``REPRO_CACHE_DB`` env fallback, so ``--no-cache`` really
    means no persistent reads or writes.  A path opens (and owns) a local
    :class:`ExperimentStore`; an already-open store-shaped object — anything
    with the cache methods of
    :class:`~repro.distributed.protocol.StoreProtocol`, in practice a
    :class:`~repro.distributed.client.RemoteStore` — is used as-is and left
    open for its owner to close, which is how a remote worker's cache reads
    and writes travel over the same server connection as its claims.
    Unlike :func:`activate_cache` this never leaks process-global state: the
    runner wraps each worker loop in it, so a ``workers=1`` inline run
    inside a larger process (library use, tests) leaves the ambient cache
    untouched.
    """
    global _active, _active_owned, _env_checked
    prev_active, prev_owned, prev_checked = _active, _active_owned, _env_checked
    owned: ExperimentStore | None = None
    if target is None:
        store = None
    elif hasattr(target, "cache_get"):
        store = target
    else:
        store = owned = ExperimentStore(target)
    _active = store
    _active_owned = owned is not None
    _env_checked = True  # pin: no lazy env activation while the scope holds
    try:
        yield store
    finally:
        if _active is store:
            _active = prev_active
            _active_owned = prev_owned
            _env_checked = prev_checked
        if owned is not None:
            owned.close()


def deactivate_cache() -> None:
    global _active, _active_owned, _env_checked
    if _active is not None and _active_owned:
        _active.close()
    _active = None
    _active_owned = False
    _env_checked = True  # an explicit deactivate also disables the env fallback


def active_cache() -> Any:
    """The persistent cache layer, lazily honouring ``REPRO_CACHE_DB``."""
    global _active, _active_owned, _env_checked
    if _active is None and not _env_checked:
        _env_checked = True
        env_path = os.environ.get(ENV_CACHE_DB)
        if env_path:
            _active = ExperimentStore(env_path)
            _active_owned = True
    return _active


def clear_memo() -> None:
    global _memo_hits
    with _memo_lock:
        _memo.clear()
        _memo_hits = 0


def set_memo_limit(limit: int) -> None:
    """Cap the in-process memo at ``limit`` entries (LRU eviction)."""
    global _memo_limit
    if limit < 1:
        raise ValueError(f"memo limit must be >= 1, got {limit}")
    with _memo_lock:
        _memo_limit = limit
        while len(_memo) > _memo_limit:
            _memo.popitem(last=False)


def memo_stats() -> dict[str, int]:
    with _memo_lock:
        return {"entries": len(_memo), "hits": _memo_hits}


def _memo_get(key: str, *, count_hit: bool = False) -> dict[str, Any] | None:
    global _memo_hits
    with _memo_lock:
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
            if count_hit:
                _memo_hits += 1
        return hit


def _memo_put(key: str, payload: dict[str, Any]) -> None:
    with _memo_lock:
        _memo[key] = payload
        _memo.move_to_end(key)
        while len(_memo) > _memo_limit:
            _memo.popitem(last=False)


def summarise_result(result: SolverResult) -> dict[str, Any]:
    """The standard JSON summary payload for one solve (what gets cached)."""
    return {
        "makespan": float(result.makespan),
        "wall_time": float(result.wall_time),
        "optimal": bool(result.optimal),
        "solver": result.solver,
        "diagnostics": _to_jsonable(result.diagnostics),
    }


_summarise = summarise_result


def cached_payload(
    instance: Instance,
    solver: str,
    *,
    config: Mapping[str, Any] | None = None,
    backend: "str | Any | None" = None,
) -> dict[str, Any] | None:
    """Probe both cache layers for a solve's payload without computing it.

    Unlike :func:`cached_solve` a miss returns ``None`` (nothing runs), and
    unlike ``store.cache_get`` the in-process memo is consulted too.  The
    planner's cheaper existence probe is ``store.cache_contains`` (it skips
    the hit counter); this helper is for callers that want the payload —
    library users inspecting cached optima, and tests asserting a
    prerequisite's result actually landed in the cache.
    """
    key = cache_key(instance, solver, config, backend=backend)
    hit = _memo_get(key)
    if hit is not None:
        return dict(hit)
    store = active_cache()
    if store is not None:
        payload = store.cache_get(key)
        if payload is not None:
            _memo_put(key, payload)
            return dict(payload)
    return None


def cached_solve(
    instance: Instance,
    solver: str,
    compute: Callable[[], SolverResult],
    *,
    config: Mapping[str, Any] | None = None,
    backend: "str | Any | None" = None,
    extra: Callable[[SolverResult], Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Run ``compute`` through the cache; returns the JSON summary payload.

    ``backend`` names the MILP backend spec the solver will use (when it
    uses one); it folds the registry fingerprint into the cache key.
    ``extra`` extracts additional JSON-able fields from the
    :class:`SolverResult` (e.g. residual conflict counts) which are persisted
    alongside the standard summary, so cache hits reproduce them too.  The
    returned payload carries a ``cache_hit`` flag for reporting.
    """
    key = cache_key(instance, solver, config, backend=backend)
    hit = _memo_get(key, count_hit=True)
    if hit is not None:
        return {**hit, "cache_hit": True}
    store = active_cache()
    if store is not None:
        payload = store.cache_get(key)
        if payload is not None:
            _memo_put(key, payload)
            return {**payload, "cache_hit": True}
    result = compute()
    payload = summarise_result(result)
    if extra is not None:
        payload.update(_to_jsonable(extra(result)))
    _memo_put(key, payload)
    if store is not None:
        store.cache_put(key, solver, payload)
    return {**payload, "cache_hit": False}
