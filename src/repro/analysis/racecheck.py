"""Runtime lock-order and store-thread checker for the distributed stack.

The stack's thread-safety rests on two conventions that no test asserts
directly:

* **Lock ordering** — the RPC dispatch lock, the scheduling service's store
  lock and the cache memo lock are only ever nested in one direction.  A
  new code path that nests two of them the other way round deadlocks only
  under load, typically in CI's chaos jobs, where the hang is a timeout
  rather than a diagnosis.
* **Store thread confinement** — an :class:`ExperimentStore` is used from
  the thread that opened it, *except* for owners that pass
  ``check_same_thread=False`` and serialize every access themselves (the
  store server under its dispatch lock, the scheduling service under its
  ``_store_lock``).  SQLite does not reliably detect violations of that
  contract; it corrupts cursors instead.

This module makes both conventions checkable at runtime.  It is **opt-in**
and zero-cost when off: the lock factories (:func:`tracked_lock`,
:func:`tracked_rlock`, :func:`tracked_condition`) return plain ``threading``
primitives unless checking was enabled *before* the lock was created, and
:func:`wrap_store_connection` returns the raw sqlite3 connection unchanged.

Enable it with the ``REPRO_RACECHECK=1`` environment variable (the tier-1
suite's ``conftest`` honours it, which is how CI runs the whole suite under
the checker) or programmatically::

    from repro.analysis import racecheck
    racecheck.enable()
    ...build servers and stores...
    racecheck.disable()

Violations raise :class:`LockOrderViolation` / :class:`StoreThreadViolation`
at the offending acquisition or store access — the stack trace *is* the
diagnosis — and are also recorded in :func:`violations` for post-hoc
assertions.

Ordering is tracked per lock *name* (lock class), not per instance, the way
kernel lockdep tracks lock classes: every ``RpcServer`` dispatch lock is
one node called ``rpc.dispatch``.  An edge ``A -> B`` is recorded when a
thread acquires a ``B`` while holding an ``A``; a cycle in that graph is a
potential deadlock even if this particular run never interleaved into it.
Reentrant acquisition of the same name (RLocks, conditions sharing their
owner's lock) is never an edge.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from typing import Any, Iterable, Iterator

__all__ = [
    "ENV_RACECHECK",
    "ENV_RACECHECK_DUMP",
    "LockOrderViolation",
    "StoreThreadViolation",
    "RacecheckViolation",
    "enable",
    "disable",
    "enabled",
    "session",
    "reset",
    "violations",
    "tracked_lock",
    "tracked_rlock",
    "tracked_condition",
    "guard_store",
    "wrap_store_connection",
    "dump_edges",
    "edges_to_dot",
]

ENV_RACECHECK = "REPRO_RACECHECK"

# When set to a path, the process writes its observed lock-order graph
# there at exit (JSON: {"edges": [[src, dst], ...], "violations": [...]}).
# CI's smoke jobs set it on one worker and archive the rendered DOT via
# ``repro racecheck-dump``.
ENV_RACECHECK_DUMP = "REPRO_RACECHECK_DUMP"


class RacecheckViolation(RuntimeError):
    """Base class for everything the race checker can flag."""


class LockOrderViolation(RacecheckViolation):
    """Two lock classes were nested in both directions (potential deadlock)."""


class StoreThreadViolation(RacecheckViolation):
    """A store was touched from a foreign thread outside its sanctioned path."""


# ----------------------------------------------------------------------
# Global checker state
# ----------------------------------------------------------------------
_enabled = False
_state_lock = threading.Lock()
# Lock-class ordering graph: edges[a] = {b, ...} means "a held while
# acquiring b was observed".  Example stacks recorded for diagnostics.
_edges: dict[str, set[str]] = {}
_violations: list[RacecheckViolation] = []
# Per-thread stack of held lock names (with counts for reentrancy).
_held = threading.local()


def enabled() -> bool:
    """Whether checking is on (explicitly or via ``REPRO_RACECHECK``)."""
    return _enabled or os.environ.get(ENV_RACECHECK, "") not in ("", "0")


def enable() -> None:
    """Turn checking on for locks/stores created from now on."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn checking off (already-created tracked locks keep recording)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop the recorded ordering graph and violation list."""
    with _state_lock:
        _edges.clear()
        _violations.clear()


def violations() -> list[RacecheckViolation]:
    """Violations recorded so far (raised ones are recorded too)."""
    with _state_lock:
        return list(_violations)


class session:
    """Context manager: enable checking, reset state, disable on exit."""

    def __enter__(self) -> "session":
        reset()
        enable()
        return self

    def __exit__(self, *exc_info: object) -> None:
        disable()


def _held_stack() -> list[list[Any]]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


def _reaches(start: str, target: str) -> bool:
    """DFS over the ordering graph: is ``target`` reachable from ``start``?"""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        for nxt in _edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _record_violation(exc: RacecheckViolation) -> None:
    _violations.append(exc)


def _note_acquire(name: str) -> None:
    """Record intent to acquire ``name`` with the current thread's held set."""
    stack = _held_stack()
    for entry in stack:
        if entry[0] == name:
            return  # reentrant / sibling same-class: never an edge
    with _state_lock:
        for entry in stack:
            held = entry[0]
            _edges.setdefault(held, set()).add(name)
            # A cycle means some thread can nest name -> ... -> held while
            # we nest held -> name: the classic inversion.
            if _reaches(name, held):
                exc = LockOrderViolation(
                    f"lock order inversion: acquiring {name!r} while holding "
                    f"{held!r}, but the reverse nesting "
                    f"({name!r} -> ... -> {held!r}) was already observed"
                )
                _record_violation(exc)
                raise exc


def _push(name: str) -> None:
    stack = _held_stack()
    for entry in stack:
        if entry[0] == name:
            entry[1] += 1
            return
    stack.append([name, 1])


def _pop(name: str, *, all_counts: bool = False) -> int:
    """Drop one (or all) holds of ``name``; returns the count released."""
    stack = _held_stack()
    for index, entry in enumerate(stack):
        if entry[0] == name:
            released = entry[1] if all_counts else 1
            entry[1] -= released
            if entry[1] <= 0:
                del stack[index]
            return released
    return 0


def _holds(name: str) -> bool:
    return any(entry[0] == name for entry in _held_stack())


# ----------------------------------------------------------------------
# Tracked primitives
# ----------------------------------------------------------------------
class _TrackedLockBase:
    """Order-tracking wrapper around a ``threading`` lock primitive.

    Exposes the ``_release_save`` / ``_acquire_restore`` / ``_is_owned``
    trio, so a plain :class:`threading.Condition` can be built directly on
    top of a tracked lock.
    """

    _reentrant = False

    def __init__(self, name: str, inner: Any) -> None:
        self.name = name
        self._inner = inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking:
            _note_acquire(self.name)
        got = self._inner.acquire(blocking, timeout)
        if got:
            _push(self.name)
        return got

    def release(self) -> None:
        self._inner.release()
        _pop(self.name)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        return bool(probe()) if callable(probe) else _holds(self.name)

    def held_by_current_thread(self) -> bool:
        """Best-effort: does *this* thread hold the lock right now?"""
        return _holds(self.name)

    # --- Condition-compatibility surface -------------------------------
    def _release_save(self) -> Any:
        # Condition.wait: fully release (all reentrant counts) and remember.
        count = _pop(self.name, all_counts=True)
        inner_state = (
            self._inner._release_save()  # type: ignore[attr-defined]
            if hasattr(self._inner, "_release_save")
            else (self._inner.release() or None)
        )
        return (inner_state, count)

    def _acquire_restore(self, state: Any) -> None:
        inner_state, count = state
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(inner_state)  # type: ignore[attr-defined]
        else:
            self._inner.acquire()
        for _ in range(max(1, count)):
            _push(self.name)

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return bool(self._inner._is_owned())  # type: ignore[attr-defined]
        # Plain Lock (Condition's fallback probe): owned iff we can't acquire.
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<tracked {type(self._inner).__name__} {self.name!r}>"


class _TrackedLock(_TrackedLockBase):
    pass


class _TrackedRLock(_TrackedLockBase):
    _reentrant = True


def tracked_lock(name: str) -> Any:
    """A ``threading.Lock`` — order-tracked when checking is enabled."""
    if not enabled():
        return threading.Lock()
    return _TrackedLock(name, threading.Lock())


def tracked_rlock(name: str) -> Any:
    """A ``threading.RLock`` — order-tracked when checking is enabled."""
    if not enabled():
        return threading.RLock()
    return _TrackedRLock(name, threading.RLock())


def tracked_condition(name: str) -> threading.Condition:
    """A standalone ``threading.Condition`` over a tracked RLock."""
    if not enabled():
        return threading.Condition()
    return threading.Condition(_TrackedRLock(name, threading.RLock()))


# ----------------------------------------------------------------------
# Store thread confinement
# ----------------------------------------------------------------------
# store id -> (owner thread ident, shared, guard lock or None).  Keyed by
# id() with explicit unregistration on close — the store owns the entry's
# lifetime exactly like it owns the connection's.
_stores: dict[int, list[Any]] = {}


def guard_store(store: Any, lock: Any) -> None:
    """Declare ``lock`` as the sanctioned serializer for ``store``.

    Cross-thread access to a ``check_same_thread=False`` store is legal only
    while the current thread holds this (tracked) lock.
    """
    if not enabled():
        return
    with _state_lock:
        entry = _stores.get(id(store))
        if entry is not None:
            entry[2] = lock


class _TrackedConnection:
    """Thin sqlite3 connection proxy that checks thread confinement.

    Every ``execute``/``executescript``/``executemany``/``close`` first runs
    the confinement check; everything else delegates untouched.
    """

    def __init__(self, conn: Any, store: Any) -> None:
        object.__setattr__(self, "_conn", conn)
        object.__setattr__(self, "_store_id", id(store))

    def _check(self) -> None:
        entry = _stores.get(self._store_id)
        if entry is None:
            return
        owner, shared, guard = entry
        ident = threading.get_ident()
        if ident == owner:
            return
        if not shared:
            exc: StoreThreadViolation = StoreThreadViolation(
                "ExperimentStore opened with check_same_thread=True was "
                f"accessed from thread {threading.current_thread().name!r} "
                "(not its opener)"
            )
            with _state_lock:
                _record_violation(exc)
            raise exc
        if guard is not None and hasattr(guard, "held_by_current_thread"):
            if guard.held_by_current_thread():
                return
            exc = StoreThreadViolation(
                "cross-thread access to a shared ExperimentStore from "
                f"thread {threading.current_thread().name!r} without holding "
                f"its sanctioned guard lock {getattr(guard, 'name', guard)!r}"
            )
            with _state_lock:
                _record_violation(exc)
            raise exc
        # No checkable guard registered (yet): a check_same_thread=False
        # store whose owner never declared a serializer. Tolerated — the
        # owner may serialize some other way — but only the guarded path
        # gives the hard guarantee.

    def execute(self, *args: Any, **kwargs: Any) -> Any:
        self._check()
        return self._conn.execute(*args, **kwargs)

    def executemany(self, *args: Any, **kwargs: Any) -> Any:
        self._check()
        return self._conn.executemany(*args, **kwargs)

    def executescript(self, *args: Any, **kwargs: Any) -> Any:
        self._check()
        return self._conn.executescript(*args, **kwargs)

    def close(self) -> None:
        self._check()
        _stores.pop(self._store_id, None)
        self._conn.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._conn, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._conn, name, value)


def wrap_store_connection(conn: Any, store: Any, *, shared: bool) -> Any:
    """Register ``store`` and wrap its connection; identity when disabled.

    Called by :class:`~repro.orchestration.store.ExperimentStore` at
    construction.  ``shared`` mirrors ``not check_same_thread``: only shared
    stores may be touched cross-thread, and then only under the guard lock
    registered via :func:`guard_store`.
    """
    if not enabled():
        return conn
    with _state_lock:
        _stores[id(store)] = [threading.get_ident(), shared, None]
    return _TrackedConnection(conn, store)


def iter_edges() -> Iterator[tuple[str, str]]:
    """Snapshot of the observed ordering edges (diagnostics / tests)."""
    with _state_lock:
        for src, dsts in _edges.items():
            for dst in sorted(dsts):
                yield (src, dst)


def dump_edges(path: "str | os.PathLike[str]") -> int:
    """Write the observed lock-order graph to ``path`` as JSON.

    The payload is ``{"edges": [[src, dst], ...], "violations": [str, ...]}``
    — the input format of ``repro racecheck-dump``, which renders it to DOT
    for CI artifacts.  Returns the number of edges written.
    """
    edges = sorted(iter_edges())
    payload = {
        "edges": [list(edge) for edge in edges],
        "violations": [str(violation) for violation in violations()],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(edges)


def edges_to_dot(edges: Iterable[tuple[str, str]]) -> str:
    """Render ordering edges as a Graphviz digraph (lock classes as nodes)."""
    lines = ["digraph lock_order {", "  rankdir=LR;", "  node [shape=box];"]
    for src, dst in sorted(set(tuple(edge) for edge in edges)):
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dump_at_exit() -> None:  # pragma: no cover - exercised via subprocess
    target = os.environ.get(ENV_RACECHECK_DUMP)
    if not target:
        return
    try:
        dump_edges(target)
    except OSError:
        # Best-effort: a failed diagnostics dump must not turn a clean
        # worker exit into a traceback.
        pass


if os.environ.get(ENV_RACECHECK_DUMP):
    atexit.register(_dump_at_exit)
