"""RemoteStore: the experiment store over a socket.

Implements the full :class:`~repro.distributed.protocol.StoreProtocol`
against a :class:`~repro.distributed.server.StoreServer`, so the runner,
scheduler, planner, export and cache layers work unchanged when handed one
— a worker process on another machine is just ``run_worker`` with a
``tcp://host:port`` target instead of a file path.

The transport is the shared :class:`~repro.distributed.rpc.RpcClient`: one
persistent socket, one request in flight at a time (workers are
sequential; concurrency comes from running many workers, each with its own
``RemoteStore``), and every transport failure retried on a fresh
connection with backoff.  Reads are naturally idempotent and are resent
verbatim.  Mutating calls (claims, completions, reclaims, priority writes:
:data:`~repro.distributed.protocol.MUTATING_METHODS`) carry an op id, so
if the original request executed and only the reply was lost, the server
replays the recorded reply — a retried ``complete()`` never
double-releases dependents, and a timed-out ``claim_next()`` recovers the
very row the lost reply claimed rather than claiming (and stranding) a
second one.  Structured error replies are never retried, and an
``AuthError`` cannot become a reconnect storm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..orchestration.store import ClaimedRow, StoredRow
from .protocol import DEFAULT_PORT, MUTATING_METHODS, PROTOCOL_VERSION
from .rpc import RpcClient, RpcConnectionError

__all__ = ["RemoteStore", "StoreConnectionError"]


class StoreConnectionError(RpcConnectionError):
    """The server could not be reached (after the configured retries)."""


class RemoteStore(RpcClient):
    """A :class:`StoreProtocol` implementation speaking to a store server.

    ``target`` is ``"host:port"`` or ``"tcp://host:port"``.  ``fifo_every``
    (when given) is pushed to the server — the interleave counter is global
    scheduler state, so this adjusts every worker's bounded-wait knob, last
    writer wins.  ``timeout`` bounds each request round-trip; ``retries``
    transport-level retry attempts are made before
    :class:`StoreConnectionError` (reads and op-id-guarded mutations are
    both safe to retry, see the module docstring).
    """

    default_port = DEFAULT_PORT
    info_method = "store_info"
    protocol_version = PROTOCOL_VERSION
    mutating_methods = MUTATING_METHODS
    connection_error = StoreConnectionError
    metrics_prefix = "remote_store"
    server_name = "store server"

    def __init__(
        self,
        target: str,
        *,
        token: str | None = None,
        fifo_every: int | None = None,
        timeout: float = 60.0,
        connect_timeout: float = 10.0,
        retries: int = 4,
        retry_delay: float = 0.2,
    ) -> None:
        super().__init__(
            target,
            token=token,
            timeout=timeout,
            connect_timeout=connect_timeout,
            retries=retries,
            retry_delay=retry_delay,
        )
        if fifo_every is not None:
            with self._closed_on_error():
                self.fifo_every = int(
                    self._call("set_fifo_every", {"fifo_every": int(fifo_every)})
                )
        else:
            self.fifo_every = int(self._server_info["fifo_every"])

    def store_info(self) -> dict[str, Any]:
        return self._call("store_info", {})

    # ------------------------------------------------------------------
    # Grid population and claiming
    # ------------------------------------------------------------------
    def add_rows(self, experiment: str, grid: Iterable[Mapping[str, Any]]) -> int:
        return int(
            self._call(
                "add_rows",
                {"experiment": experiment, "grid": [dict(params) for params in grid]},
            )
        )

    def claim_next(
        self, worker: str, experiments: Sequence[str] | None = None
    ) -> ClaimedRow | None:
        result = self._call(
            "claim_next", {"worker": worker, "experiments": _names(experiments)}
        )
        return ClaimedRow(**result) if result is not None else None

    def complete(
        self,
        row_id: int,
        result: Mapping[str, Any],
        *,
        duration: float,
        worker: str | None = None,
    ) -> bool:
        return bool(
            self._call(
                "complete",
                {
                    "row_id": row_id,
                    "result": dict(result),
                    "duration": duration,
                    "worker": worker,
                },
            )
        )

    def fail(
        self, row_id: int, error: str, *, duration: float, worker: str | None = None
    ) -> bool:
        return bool(
            self._call(
                "fail",
                {"row_id": row_id, "error": error, "duration": duration, "worker": worker},
            )
        )

    def resubmit(self, row_id: int) -> bool:
        return bool(self._call("resubmit", {"row_id": row_id}))

    def reclaim_stale(
        self, *, older_than: float = 0.0, experiments: Sequence[str] | None = None
    ) -> int:
        return int(
            self._call(
                "reclaim_stale",
                {"older_than": older_than, "experiments": _names(experiments)},
            )
        )

    def reset(
        self,
        experiments: Sequence[str] | None = None,
        *,
        statuses: Sequence[str] = ("running", "error"),
    ) -> int:
        return int(
            self._call(
                "reset", {"experiments": _names(experiments), "statuses": list(statuses)}
            )
        )

    def delete_rows(
        self,
        experiments: Sequence[str] | None = None,
        *,
        statuses: Sequence[str] | None = None,
    ) -> int:
        return int(
            self._call(
                "delete_rows",
                {
                    "experiments": _names(experiments),
                    "statuses": list(statuses) if statuses is not None else None,
                },
            )
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def set_schedule(
        self,
        entries: Iterable[tuple[str, str, float, float | None]],
        *,
        if_replan_round: int | None = None,
    ) -> int | None:
        result = self._call(
            "set_schedule",
            {
                "entries": [list(entry) for entry in entries],
                "if_replan_round": if_replan_round,
            },
        )
        return int(result) if result is not None else None

    def set_dependencies(
        self, experiment: str, param_hash: str, depends_on: Sequence[str]
    ) -> bool:
        return bool(
            self._call(
                "set_dependencies",
                {
                    "experiment": experiment,
                    "param_hash": param_hash,
                    "depends_on": list(depends_on),
                },
            )
        )

    def sync_dependencies(self, experiments: Sequence[str] | None = None) -> int:
        return int(self._call("sync_dependencies", {"experiments": _names(experiments)}))

    def blocked_count(self, experiments: Sequence[str] | None = None) -> int:
        return int(self._call("blocked_count", {"experiments": _names(experiments)}))

    def blocking_dependencies(
        self, experiments: Sequence[str] | None = None
    ) -> list[dict[str, Any]]:
        return self._call("blocking_dependencies", {"experiments": _names(experiments)})

    def fail_blocked_on_error(self, experiments: Sequence[str] | None = None) -> int:
        return int(
            self._call("fail_blocked_on_error", {"experiments": _names(experiments)})
        )

    # ------------------------------------------------------------------
    # Online re-planning
    # ------------------------------------------------------------------
    def completion_count(self) -> int:
        return int(self._call("completion_count", {}))

    def replan_epoch(self) -> int:
        return int(self._call("replan_epoch", {}))

    def try_begin_replan(self, every: int) -> int | None:
        result = self._call("try_begin_replan", {"every": every})
        return int(result) if result is not None else None

    def publish_replan_epoch(self, round_no: int) -> None:
        self._call("publish_replan_epoch", {"round_no": round_no})

    def duration_history(
        self, experiments: Sequence[str] | None = None
    ) -> list[tuple[str, dict[str, Any], float]]:
        return [
            (experiment, params, duration)
            for experiment, params, duration, _, _ in self.duration_samples(experiments)
        ]

    def duration_samples(
        self,
        experiments: Sequence[str] | None = None,
        *,
        since: tuple[float, int] | None = None,
    ) -> list[tuple[str, dict[str, Any], float, float, int]]:
        rows = self._call(
            "duration_samples",
            {"experiments": _names(experiments), "since": list(since) if since else None},
        )
        # Tuples (not JSON's lists): CostModel.refit compares watermarks.
        return [tuple(row) for row in rows]

    # ------------------------------------------------------------------
    # Cross-store cost priors
    # ------------------------------------------------------------------
    def save_cost_priors(self, priors: Mapping[str, Mapping[str, Any]]) -> int:
        return int(
            self._call(
                "save_cost_priors",
                {"priors": {name: dict(stats) for name, stats in priors.items()}},
            )
        )

    # ------------------------------------------------------------------
    # Service telemetry tail
    # ------------------------------------------------------------------
    def service_telemetry_tail(self) -> dict[str, int]:
        return {
            str(key): int(value)
            for key, value in self._call("service_telemetry_tail", {}).items()
        }

    def set_service_telemetry_tail(self, counters: Mapping[str, int]) -> None:
        self._call(
            "set_service_telemetry_tail",
            {"counters": {str(key): int(value) for key, value in counters.items()}},
        )

    def load_cost_priors(self) -> dict[str, dict[str, Any]]:
        return self._call("load_cost_priors", {})

    # ------------------------------------------------------------------
    # Trace spans
    # ------------------------------------------------------------------
    def record_events(
        self, events: Sequence[Mapping[str, Any]], *, retain: int | None = None
    ) -> int:
        return int(
            self._call(
                "record_events",
                {"events": [dict(event) for event in events], "retain": retain},
            )
        )

    def fetch_events(
        self,
        *,
        op: str | None = None,
        kinds: Sequence[str] | None = None,
        limit: int = 500,
    ) -> list[dict[str, Any]]:
        return self._call(
            "fetch_events",
            {"op": op, "kinds": list(kinds) if kinds is not None else None, "limit": limit},
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status_counts(self) -> dict[str, dict[str, int]]:
        return self._call("status_counts", {})

    def pending_count(self, experiments: Sequence[str] | None = None) -> int:
        return int(self._call("pending_count", {"experiments": _names(experiments)}))

    def fetch_rows(
        self, experiment: str, *, status: str | None = None
    ) -> list[StoredRow]:
        rows = self._call("fetch_rows", {"experiment": experiment, "status": status})
        return [
            StoredRow(**{**row, "depends_on": tuple(row.get("depends_on") or ())})
            for row in rows
        ]

    def experiments(self) -> list[str]:
        return list(self._call("experiments", {}))

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    def cache_contains(self, key: str) -> bool:
        return bool(self._call("cache_contains", {"key": key}))

    def cache_get(self, key: str) -> dict[str, Any] | None:
        return self._call("cache_get", {"key": key})

    def cache_put(self, key: str, solver: str, payload: Mapping[str, Any]) -> None:
        self._call("cache_put", {"key": key, "solver": solver, "payload": dict(payload)})

    def cache_stats(self) -> dict[str, int]:
        return self._call("cache_stats", {})

    def clear_cache(self) -> int:
        return int(self._call("clear_cache", {}))


def _names(experiments: Sequence[str] | None) -> list[str] | None:
    return list(experiments) if experiments is not None else None


if TYPE_CHECKING:
    # Static conformance gate: mypy rejects this module if either store
    # drifts from StoreProtocol (missing method, mismatched signature).
    # Runtime never executes it — the protocol stays a structural contract
    # with zero import cost, but CI still catches a skew before a worker
    # does at 2am.
    from ..orchestration.store import ExperimentStore
    from .protocol import StoreProtocol

    def _assert_store_protocol(
        local: ExperimentStore, remote: RemoteStore
    ) -> tuple[StoreProtocol, StoreProtocol]:
        return local, remote
