"""The solver fabric: fleet-wide MILP solve routing with work-stealing.

Two halves:

* :class:`SolverFabricServer` — a solver *server* any host runs (``repro
  orch solver-serve``): N local :class:`~repro.solver.pool.SolverPool`
  workers behind one TCP socket, speaking the same length-prefixed frame
  protocol, token auth and structured errors as the store server
  (:mod:`repro.distributed.rpc`).  Each ``solve`` request decodes a
  compiled model, runs it on the owned pool, and replies with the solution
  plus the server-side queue-wait/solve-time split.
* :class:`SolverFabric` — the client.  :class:`~repro.solver.service.SolverService`
  treats it as just another pool (``submit`` / ``solve_many`` / ``stats`` /
  ``num_servers``), but behind the futures API it routes every compiled
  model to the *least-loaded endpoint* and work-steals around failures.

Wire format
-----------
A model crosses the wire as JSON: dense vectors as lists, the constraint
matrices in CSR form (``data``/``indices``/``indptr``/``shape``), ``±inf``
bounds riding Python's JSON ``Infinity`` literals (both ends of this
protocol are this codebase).  Solutions return as status/objective/values/
diagnostics.  Everything is one request frame → one reply frame on the
shared protocol, so the fabric inherits the frame ceiling, auth and
structured-error semantics the store traffic already has.

Routing policy
--------------
Each endpoint carries an EWMA *rate* (seconds per model unit, where a
model's units are ``variables + constraints``) seeded from the same
model-size cost signal the orchestration scheduler fits (a default
seconds-per-unit prior, refined by every completed solve).  A solve is
assigned to the live endpoint minimising ``(load + units) * rate /
capacity`` — queue depth scaled by measured speed — so a slow or busy
endpoint sheds work to faster ones.  Before dispatching over the wire the
fabric probes its content-hash memo (SHA-256 of the wire model + backend
fingerprint + limits): a deterministic result seen before is returned
without touching the network.

Failure semantics
-----------------
*Endpoint death* (connection drops mid-batch): the endpoint is marked dead,
its queued solves are re-routed, and each in-flight solve is re-dispatched
to another live endpoint **exactly once** — a second infrastructure failure
fails the future with :class:`~repro.solver.pool.SolverServerCrashError`.
*Per-solve deadline* (``hard_timeout + wire_grace`` passes with no reply):
the solve is stolen onto another endpoint the same way, while the original
socket lingers briefly as a lame duck so a slow original landing late is
*deduplicated* (first result wins the future; the op id names the solve, so
a late duplicate is counted in ``duplicates_dropped``, never double-counted
as a completion).  The op id also rides every request, so a resend of a
solve to the *same* endpoint (single-endpoint retry) replays server-side
instead of executing twice.  A solver-pool hard timeout on the server comes
back as :class:`~repro.solver.pool.SolverPoolTimeoutError` and degrades to
a ``LIMIT`` solution in the service layer, exactly like a local pool.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import select
import socket
import threading
import time
import uuid
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np
from scipy import sparse

from ..analysis import racecheck
from ..core.errors import ReproError
from ..distributed.protocol import (
    AddressError,
    AuthError,
    ConnectionClosed,
    FrameError,
    encode_frame,
    format_address,
    parse_address,
    recv_frame,
    send_encoded,
    send_frame,
)
from ..distributed.rpc import RpcServer, knock, raise_reply_error
from ..observability import metrics
from ..milp.model import CompiledModel, LinearModel, MilpSolution, SolutionStatus
from .pool import (
    DEFAULT_TIMEOUT_GRACE,
    SolveRequest,
    SolverBackendError,
    SolverPool,
    SolverPoolError,
    SolverPoolTimeoutError,
    SolverServerCrashError,
)
from .registry import BackendSpec, available_backends, backend_fingerprint

__all__ = [
    "DEFAULT_SOLVER_PORT",
    "SOLVER_PROTOCOL_VERSION",
    "SOLVER_RPC_METHODS",
    "FabricStats",
    "SolverFabric",
    "SolverFabricError",
    "SolverFabricServer",
    "model_from_wire",
    "model_to_wire",
    "parse_endpoint",
    "solution_from_wire",
    "solution_to_wire",
    "solve_content_key",
]

SOLVER_PROTOCOL_VERSION = 1

# Default TCP port of `repro orch solver-serve` (store server is 7479).
DEFAULT_SOLVER_PORT = 7480

SOLVER_RPC_METHODS = frozenset({"ping", "solver_info", "solve"})

# Seconds-per-model-unit seed for a fresh endpoint's EWMA rate — the same
# kind of size→seconds signal the orchestration cost model fits for cells,
# here at MILP granularity.  Refined by the first completed solve, so only
# the very first routing decisions lean on it.
DEFAULT_SECONDS_PER_UNIT = 2e-4

# EWMA smoothing for per-endpoint rates (matches the scheduler's refit
# weighting: recent solves dominate, history decays geometrically).
EWMA_ALPHA = 0.3

# Extra wall-clock a fabric client grants an endpoint past a solve's
# hard_timeout before stealing the solve: the server enforces hard_timeout
# itself (kill + structured timeout reply), so only a wedged endpoint ever
# reaches this client-side deadline.
DEFAULT_WIRE_GRACE = 15.0

# How long a slot keeps listening on the original socket after a deadline
# steal, so a slow original landing late is observed (and deduplicated)
# instead of desynchronising the connection.
DEFAULT_LAME_DUCK_GRACE = 30.0

# Deterministic solve outcomes worth memoising client-side; FEASIBLE and
# LIMIT depend on time limits and luck, so they are never cached.
_MEMOIZABLE = frozenset(
    {SolutionStatus.OPTIMAL, SolutionStatus.INFEASIBLE, SolutionStatus.UNBOUNDED}
)
DEFAULT_MEMO_SIZE = 256


class SolverFabricError(SolverPoolError):
    """Fabric infrastructure failure (no endpoints, bad endpoint, ...)."""


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------
def _csr_to_wire(matrix: sparse.csr_matrix) -> dict[str, Any]:
    csr = sparse.csr_matrix(matrix)
    return {
        "data": np.asarray(csr.data, dtype=float).tolist(),
        "indices": np.asarray(csr.indices, dtype=np.int64).tolist(),
        "indptr": np.asarray(csr.indptr, dtype=np.int64).tolist(),
        "shape": [int(csr.shape[0]), int(csr.shape[1])],
    }


def _csr_from_wire(wire: Mapping[str, Any]) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (
            np.asarray(wire["data"], dtype=float),
            np.asarray(wire["indices"], dtype=np.int64),
            np.asarray(wire["indptr"], dtype=np.int64),
        ),
        shape=tuple(wire["shape"]),
    )


def model_to_wire(model: LinearModel | CompiledModel) -> dict[str, Any]:
    """A compiled model as a JSON-shaped dict (CSR matrices, dense lists)."""
    compiled = model.compile() if isinstance(model, LinearModel) else model
    return {
        "variable_names": list(compiled.variable_names),
        "objective": np.asarray(compiled.objective, dtype=float).tolist(),
        "lower": np.asarray(compiled.lower, dtype=float).tolist(),
        "upper": np.asarray(compiled.upper, dtype=float).tolist(),
        "integrality": np.asarray(compiled.integrality, dtype=float).tolist(),
        "a_ub": _csr_to_wire(compiled.a_ub),
        "b_ub": np.asarray(compiled.b_ub, dtype=float).tolist(),
        "a_eq": _csr_to_wire(compiled.a_eq),
        "b_eq": np.asarray(compiled.b_eq, dtype=float).tolist(),
    }


def model_from_wire(wire: Mapping[str, Any]) -> CompiledModel:
    """Rebuild a :class:`CompiledModel` from its wire form."""
    return CompiledModel(
        variable_names=tuple(wire["variable_names"]),
        objective=np.asarray(wire["objective"], dtype=float),
        lower=np.asarray(wire["lower"], dtype=float),
        upper=np.asarray(wire["upper"], dtype=float),
        integrality=np.asarray(wire["integrality"], dtype=float),
        a_ub=_csr_from_wire(wire["a_ub"]),
        b_ub=np.asarray(wire["b_ub"], dtype=float),
        a_eq=_csr_from_wire(wire["a_eq"]),
        b_eq=np.asarray(wire["b_eq"], dtype=float),
    )


def _jsonable(value: Any) -> Any:
    """Best-effort JSON shaping of solution diagnostics (lossy for objects)."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def solution_to_wire(solution: MilpSolution) -> dict[str, Any]:
    """A solution as a JSON-shaped dict (telemetry is client-side, not sent)."""
    return {
        "status": solution.status.value,
        "objective": float(solution.objective),
        "values": {name: float(value) for name, value in solution.values.items()},
        "diagnostics": _jsonable(solution.diagnostics),
    }


def solution_from_wire(wire: Mapping[str, Any]) -> MilpSolution:
    """Rebuild a :class:`MilpSolution` from its wire form."""
    return MilpSolution(
        status=SolutionStatus(wire["status"]),
        objective=float(wire["objective"]),
        values=dict(wire.get("values") or {}),
        diagnostics=dict(wire.get("diagnostics") or {}),
    )


def solve_content_key(
    wire_model: Mapping[str, Any],
    spec: BackendSpec,
    *,
    time_limit: float | None,
    mip_rel_gap: float,
) -> str:
    """Content hash identifying a solve: model bytes + backend + limits."""
    blob = json.dumps(
        {
            "model": wire_model,
            "backend": backend_fingerprint(spec),
            "time_limit": time_limit,
            "mip_rel_gap": mip_rel_gap,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_endpoint(target: str) -> tuple[str, int]:
    """``HOST[:PORT]`` / ``tcp://HOST[:PORT]`` → ``(host, port)``.

    Like :func:`~repro.distributed.protocol.parse_address` but defaulting
    the *solver* port (:data:`DEFAULT_SOLVER_PORT`), which the store-centric
    parser cannot express.
    """
    text = target[len("tcp://") :] if target.startswith("tcp://") else target
    text = text.strip()
    if not text:
        raise AddressError(f"invalid solver endpoint {target!r}; expected HOST[:PORT]")
    if text.startswith("["):
        _, _, rest = text[1:].partition("]")
        has_port = rest.startswith(":")
    else:
        has_port = ":" in text
        if text.count(":") > 1:  # bare IPv6 literal must be bracketed
            return parse_address(target)
    if has_port:
        return parse_address(target)
    return text.strip("[]"), DEFAULT_SOLVER_PORT


def _revive_error(
    error_type: str, message: str, data: Mapping[str, Any] | None
) -> Exception:
    """Turn a structured error reply back into the library exception.

    Repro's own exception types survive the wire by name so callers'
    isinstance-based fallback logic (the EPTAS guess search, the service's
    timeout degrade) treats fabric solves exactly like inline and pooled
    ones; anything unrecognised degrades to :class:`SolverBackendError`.
    """
    if error_type == "SolverPoolTimeoutError":
        exc: Exception = SolverPoolTimeoutError(message)
        wall = (data or {}).get("solve_wall_time")
        if wall is not None:
            exc.solve_wall_time = float(wall)  # type: ignore[attr-defined]
        return exc
    from ..core import errors as core_errors

    candidate = getattr(core_errors, error_type, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        return candidate(message)
    for pool_error in (SolverServerCrashError, SolverBackendError, SolverPoolError):
        if pool_error.__name__ == error_type:
            return pool_error(message)
    return SolverBackendError(f"{error_type}: {message}")


# ----------------------------------------------------------------------
# Server half
# ----------------------------------------------------------------------
class SolverFabricServer(RpcServer):
    """N subprocess solver servers behind one TCP socket.

    ``servers=None`` sizes the pool to the host's cores — the point of a
    fabric endpoint is to saturate its machine.  Requests dispatch
    *concurrently* (``serialize_dispatch = False``): each ``solve`` blocks
    its handler thread on the pool future while other connections keep
    being served; duplicate op ids are deduplicated by the shared RPC base
    (in-flight ops park the retry, finished ops replay the recorded reply).
    """

    rpc_methods = SOLVER_RPC_METHODS
    serialize_dispatch = False
    thread_name = "repro-solver-fabric-server"

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        servers: int | None = None,
        timeout_grace: float = DEFAULT_TIMEOUT_GRACE,
        initializer: Any = None,
    ) -> None:
        self.num_solver_servers = int(servers) if servers else (os.cpu_count() or 1)
        self._pool = SolverPool(
            self.num_solver_servers,
            timeout_grace=timeout_grace,
            initializer=initializer,
        )
        self._active = 0
        self._active_lock = racecheck.tracked_lock("fabric.server.active")
        try:
            super().__init__(host=host, port=port, token=token)
        except BaseException:
            self._pool.close()
            raise

    def _on_shutdown(self) -> None:
        # Fails every in-flight pool future, which unblocks the handler
        # threads parked on them; their sockets are already being dropped.
        self._pool.close()

    def _error_data(self, exc: Exception) -> dict[str, Any] | None:
        wall = getattr(exc, "solve_wall_time", None)
        if isinstance(exc, SolverPoolTimeoutError) and wall is not None:
            # The client re-raises with this attached, so the service's
            # LIMIT degrade charges the solve its true wall time instead of
            # the whole batch wait.
            return {"solve_wall_time": float(wall)}
        return None

    def _invoke(self, method: str, params: dict[str, Any]) -> Any:
        if method == "ping":
            return "pong"
        if method == "solver_info":
            stats = self._pool.stats()
            with self._active_lock:
                queue_depth = self._active
            return {
                "protocol": SOLVER_PROTOCOL_VERSION,
                "servers": self._pool.num_servers,
                "backends": available_backends(),
                "queue_depth": queue_depth,
                "completed": stats.completed,
                "pid": os.getpid(),
            }
        # method == "solve" (the allowlist admits nothing else)
        received = time.perf_counter()
        model = model_from_wire(params["model"])
        spec = BackendSpec.coerce(params.get("spec") or "scipy")
        time_limit = params.get("time_limit")
        hard_timeout = params.get("hard_timeout")
        with self._active_lock:
            self._active += 1
        metrics.gauge_add("fabric.server.active", 1)
        try:
            future = self._pool.submit(
                model,
                spec=spec,
                time_limit=float(time_limit) if time_limit is not None else None,
                mip_rel_gap=float(params.get("mip_rel_gap") or 0.0),
                hard_timeout=float(hard_timeout) if hard_timeout is not None else None,
            )
            solution = future.result()
        finally:
            with self._active_lock:
                self._active -= 1
            metrics.gauge_add("fabric.server.active", -1)
        total = time.perf_counter() - received
        solve_s = float(solution.diagnostics.get("server_wall_time", total))
        queue_wait = float(
            solution.diagnostics.get("queue_wait_s", max(0.0, total - solve_s))
        )
        return {
            "solution": solution_to_wire(solution),
            "solve_s": solve_s,
            "queue_wait_s": queue_wait,
            "server_pid": solution.diagnostics.get("server_pid"),
        }


# ----------------------------------------------------------------------
# Client half
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FabricStats:
    """Counters exposed by :meth:`SolverFabric.stats`."""

    submitted: int = 0
    completed: int = 0
    dispatched: int = 0
    cache_hits: int = 0
    steals: int = 0
    duplicates_dropped: int = 0
    endpoint_failures: int = 0


class _FabricItem:
    """One solve travelling through the fabric."""

    __slots__ = (
        "op_id",
        "model",
        "spec",
        "time_limit",
        "mip_rel_gap",
        "hard_timeout",
        "params",
        "units",
        "content_key",
        "future",
        "started",
        "stolen",
        "settled",
    )

    def __init__(
        self,
        *,
        model: CompiledModel,
        spec: BackendSpec,
        time_limit: float | None,
        mip_rel_gap: float,
        hard_timeout: float | None,
        params: dict[str, Any],
        units: int,
        content_key: str,
    ) -> None:
        self.op_id = uuid.uuid4().hex
        self.model = model
        self.spec = spec
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.hard_timeout = hard_timeout
        self.params = params
        self.units = units
        self.content_key = content_key
        self.future: Future = Future()
        self.started = False  # set_running_or_notify_cancel already called
        self.stolen = False  # the one-steal budget
        self.settled = False  # future claimed (result or exception)


@dataclass(slots=True, eq=False)
class _Endpoint:
    """Client-side view of one solve destination (remote or local pool)."""

    label: str
    capacity: int
    host: str = ""
    port: int = 0
    pool: SolverPool | None = None  # set → the local endpoint
    alive: bool = True
    rate: float = DEFAULT_SECONDS_PER_UNIT  # EWMA seconds per model unit
    load: float = 0.0  # units queued + in flight here
    completed: int = 0
    queue: deque = field(default_factory=deque)
    cond: threading.Condition | None = None
    threads: list = field(default_factory=list)

    @property
    def is_local(self) -> bool:
        return self.pool is not None


class _Abandon(Exception):
    """Internal: this slot's wait on a reply is over (stolen/closed)."""


class SolverFabric:
    """Route solves across solver-serve endpoints (and an optional local pool).

    Quacks like :class:`~repro.solver.pool.SolverPool` — ``submit`` /
    ``solve_many`` / ``stats`` / ``num_servers`` / ``close`` — so
    :class:`~repro.solver.service.SolverService` runs batches on it
    unchanged.  ``endpoints`` is a sequence of ``HOST[:PORT]`` targets (or
    one comma-separated string, the CLI's ``--solver-connect`` form); each
    endpoint is probed at construction (auth + protocol check, capacity
    discovery) and gets one client connection per remote pool worker so the
    endpoint can actually be saturated.  ``local_pool`` adds this process's
    own pool as one more endpoint (label ``local``); with
    ``own_local_pool=True`` the fabric closes it on :meth:`close`.
    """

    def __init__(
        self,
        endpoints: str | Sequence[str],
        *,
        token: str | None = None,
        local_pool: SolverPool | None = None,
        own_local_pool: bool = False,
        timeout: float = 60.0,
        connect_timeout: float = 10.0,
        wire_grace: float = DEFAULT_WIRE_GRACE,
        lame_duck_grace: float = DEFAULT_LAME_DUCK_GRACE,
        timeout_grace: float = DEFAULT_TIMEOUT_GRACE,
        default_hard_timeout: float | None = None,
        seed_rate: float = DEFAULT_SECONDS_PER_UNIT,
        memo_size: int = DEFAULT_MEMO_SIZE,
    ) -> None:
        if isinstance(endpoints, str):
            targets = [part.strip() for part in endpoints.split(",") if part.strip()]
        else:
            targets = [str(part) for part in endpoints]
        if not targets and local_pool is None:
            raise SolverFabricError("a solver fabric needs at least one endpoint")
        self._token = token
        self._timeout = float(timeout)
        self._connect_timeout = float(connect_timeout)
        self._wire_grace = float(wire_grace)
        self._lame_duck_grace = float(lame_duck_grace)
        self.timeout_grace = float(timeout_grace)
        self.default_hard_timeout = default_hard_timeout
        self._seed_rate = float(seed_rate)
        # One RLock for queue + endpoints + memo; endpoint conditions are
        # built on it (tracked locks expose the Condition compat surface).
        self._lock = racecheck.tracked_rlock("fabric.client")
        self._request_ids = itertools.count(1)
        self._stats = FabricStats()
        self._memo: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._memo_size = int(memo_size)
        self._closed = False
        self._own_local_pool = bool(own_local_pool)
        self._endpoints: list[_Endpoint] = []
        try:
            for target in targets:
                host, port = parse_endpoint(target)
                self._endpoints.append(self._open_endpoint(host, port))
            if local_pool is not None:
                self._endpoints.append(
                    _Endpoint(
                        label="local",
                        capacity=local_pool.num_servers,
                        pool=local_pool,
                        rate=self._seed_rate,
                    )
                )
        except BaseException:
            self.close()
            raise
        for endpoint in self._endpoints:
            if endpoint.is_local:
                continue
            endpoint.cond = threading.Condition(self._lock)
            for slot in range(endpoint.capacity):
                thread = threading.Thread(
                    target=self._slot_main,
                    args=(endpoint,),
                    name=f"solver-fabric-{endpoint.label}-{slot}",
                    daemon=True,
                )
                endpoint.threads.append(thread)
                thread.start()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _open_endpoint(self, host: str, port: int) -> _Endpoint:
        label = format_address(host, port)
        try:
            sock = knock(
                host, port, timeout=self._timeout, connect_timeout=self._connect_timeout
            )
        except OSError as exc:
            raise SolverFabricError(
                f"cannot connect to solver endpoint {label}: {exc}"
            ) from exc
        try:
            request: dict[str, Any] = {"id": 0, "method": "solver_info", "params": {}}
            if self._token is not None:
                request["token"] = self._token
            send_frame(sock, request)
            reply = recv_frame(sock)
        except (OSError, ConnectionClosed, FrameError) as exc:
            raise SolverFabricError(
                f"solver endpoint {label} failed its initial probe: {exc}"
            ) from exc
        finally:
            try:
                sock.close()
            except OSError:
                pass
        error = reply.get("error")
        if error is not None:
            raise_reply_error(error)  # AuthError keeps its own class
        info = reply.get("result") or {}
        if info.get("protocol") != SOLVER_PROTOCOL_VERSION:
            raise SolverFabricError(
                f"solver endpoint {label} speaks protocol {info.get('protocol')!r}; "
                f"this client speaks {SOLVER_PROTOCOL_VERSION}"
            )
        return _Endpoint(
            label=label,
            capacity=max(1, int(info.get("servers") or 1)),
            host=host,
            port=port,
            rate=self._seed_rate,
        )

    # ------------------------------------------------------------------
    # Pool-compatible API
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        """Total live solver capacity."""
        with self._lock:
            total = sum(ep.capacity for ep in self._endpoints if ep.alive)
        return max(1, total)

    @property
    def endpoints(self) -> list[str]:
        return [ep.label for ep in self._endpoints]

    def submit(
        self,
        model: LinearModel | CompiledModel,
        *,
        spec: BackendSpec | str = "scipy",
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
        hard_timeout: float | None = None,
    ) -> Future:
        """Enqueue one solve on the least-loaded endpoint; returns a future."""
        backend_spec = BackendSpec.coerce(spec)
        compiled = model.compile() if isinstance(model, LinearModel) else model
        if hard_timeout is None:
            if time_limit is not None:
                hard_timeout = float(time_limit) + self.timeout_grace
            else:
                hard_timeout = self.default_hard_timeout
        wire_model = model_to_wire(compiled)
        content_key = solve_content_key(
            wire_model, backend_spec, time_limit=time_limit, mip_rel_gap=mip_rel_gap
        )
        item = _FabricItem(
            model=compiled,
            spec=backend_spec,
            time_limit=time_limit,
            mip_rel_gap=mip_rel_gap,
            hard_timeout=hard_timeout,
            params={
                "model": wire_model,
                "spec": backend_spec.to_dict(),
                "time_limit": time_limit,
                "mip_rel_gap": float(mip_rel_gap),
                "hard_timeout": hard_timeout,
            },
            # Floor at 1 so degenerate (empty) models still accumulate load
            # and spread across endpoints instead of piling onto tied scores.
            units=max(1, compiled.num_variables + compiled.num_constraints),
            content_key=content_key,
        )
        with self._lock:
            if self._closed:
                raise SolverPoolError("fabric is closed")
            self._stats.submitted += 1
            metrics.counter("fabric.submitted")
            cached = self._memo.get(content_key)
            if cached is not None:
                self._memo.move_to_end(content_key)
                self._stats.cache_hits += 1
                metrics.counter("fabric.memo_hits")
                item.settled = True
                item.future.set_result(self._memo_solution(cached))
                return item.future
            endpoint = self._pick_endpoint(item, exclude=frozenset())
            if endpoint is None:
                raise SolverFabricError("no live solver endpoints")
            self._enqueue(endpoint, item)
        return item.future

    def solve_many(self, requests: Sequence[SolveRequest]) -> list[MilpSolution]:
        """Solve a batch across the fleet; results in request order."""
        futures = [
            self.submit(
                request.model,
                spec=request.spec,
                time_limit=request.time_limit,
                mip_rel_gap=request.mip_rel_gap,
                hard_timeout=request.hard_timeout,
            )
            for request in requests
        ]
        return [future.result() for future in futures]

    def stats(self) -> FabricStats:
        with self._lock:
            return FabricStats(
                submitted=self._stats.submitted,
                completed=self._stats.completed,
                dispatched=self._stats.dispatched,
                cache_hits=self._stats.cache_hits,
                steals=self._stats.steals,
                duplicates_dropped=self._stats.duplicates_dropped,
                endpoint_failures=self._stats.endpoint_failures,
            )

    def endpoint_stats(self) -> list[dict[str, Any]]:
        """Routing state per endpoint (tests, benchmarks, debugging)."""
        with self._lock:
            return [
                {
                    "endpoint": ep.label,
                    "capacity": ep.capacity,
                    "alive": ep.alive,
                    "rate": ep.rate,
                    "load": ep.load,
                    "completed": ep.completed,
                }
                for ep in self._endpoints
            ]

    def close(self) -> None:
        """Stop routing; queued futures fail, slot threads drain out."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            orphans: list[_FabricItem] = []
            for endpoint in self._endpoints:
                orphans.extend(endpoint.queue)
                endpoint.queue.clear()
                if endpoint.cond is not None:
                    endpoint.cond.notify_all()
            for item in orphans:
                self._settle_locked(
                    item, error=SolverPoolError("fabric closed before dispatch")
                )
        for endpoint in self._endpoints:
            for thread in endpoint.threads:
                thread.join(timeout=5.0)
            if endpoint.is_local and self._own_local_pool:
                endpoint.pool.close()

    def __enter__(self) -> "SolverFabric":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing (callers hold self._lock)
    # ------------------------------------------------------------------
    def _pick_endpoint(
        self, item: _FabricItem, *, exclude: frozenset | set
    ) -> _Endpoint | None:
        """The live endpoint with the least expected wait for this solve."""
        best: _Endpoint | None = None
        best_score = float("inf")
        for endpoint in self._endpoints:
            if not endpoint.alive or endpoint in exclude:
                continue
            score = (endpoint.load + item.units) * endpoint.rate / endpoint.capacity
            if score < best_score:
                best, best_score = endpoint, score
        return best

    def _enqueue(self, endpoint: _Endpoint, item: _FabricItem) -> None:
        self._stats.dispatched += 1
        endpoint.load += item.units
        if endpoint.is_local:
            self._dispatch_local(endpoint, item)
        else:
            endpoint.queue.append(item)
            endpoint.cond.notify()

    def _record_result(
        self, endpoint: _Endpoint, item: _FabricItem, solution: MilpSolution
    ) -> None:
        """Complete an item: first result wins, late duplicates are dropped."""
        with self._lock:
            if item.settled or item.future.done():
                self._stats.duplicates_dropped += 1
                metrics.counter("fabric.duplicates_dropped")
                return
            self._stats.completed += 1
            metrics.counter("fabric.completed")
            endpoint.completed += 1
            solve_s = solution.diagnostics.get("server_wall_time")
            if solve_s is not None and item.units > 0:
                sample = float(solve_s) / item.units
                endpoint.rate = (1 - EWMA_ALPHA) * endpoint.rate + EWMA_ALPHA * sample
                metrics.gauge(f"fabric.endpoint_rate.{endpoint.label}", endpoint.rate)
            if solution.status in _MEMOIZABLE:
                self._memo_put_locked(item.content_key, solution)
            self._settle_locked(item, result=solution)

    def _settle_locked(
        self,
        item: _FabricItem,
        *,
        result: MilpSolution | None = None,
        error: Exception | None = None,
    ) -> None:
        if item.settled or item.future.done():
            return
        item.settled = True
        if not item.started:
            # A queued item may still be in PENDING state; futures refuse
            # set_result/set_exception transitions only from CANCELLED.
            if not item.future.set_running_or_notify_cancel():
                return
            item.started = True
        if result is not None:
            item.future.set_result(result)
        else:
            item.future.set_exception(error)

    def _settle_error(self, item: _FabricItem, error: Exception) -> None:
        with self._lock:
            if item.settled or item.future.done():
                self._stats.duplicates_dropped += 1
                metrics.counter("fabric.duplicates_dropped")
                return
            self._settle_locked(item, error=error)

    # ------------------------------------------------------------------
    # Content-hash memo
    # ------------------------------------------------------------------
    def _memo_put_locked(self, key: str, solution: MilpSolution) -> None:
        diagnostics = {
            name: value
            for name, value in solution.diagnostics.items()
            # Per-dispatch measurements would be misleading on a replay.
            if name not in ("queue_wait_s", "wire_s")
        }
        self._memo[key] = {
            "status": solution.status,
            "objective": solution.objective,
            "values": dict(solution.values),
            "diagnostics": diagnostics,
        }
        self._memo.move_to_end(key)
        while len(self._memo) > self._memo_size:
            self._memo.popitem(last=False)

    def _memo_solution(self, snapshot: dict[str, Any]) -> MilpSolution:
        # A fresh object every hit: the service mutates .telemetry in place.
        return MilpSolution(
            status=snapshot["status"],
            objective=snapshot["objective"],
            values=dict(snapshot["values"]),
            diagnostics={**snapshot["diagnostics"], "fabric_cache_hit": True},
        )

    # ------------------------------------------------------------------
    # Local endpoint
    # ------------------------------------------------------------------
    def _dispatch_local(self, endpoint: _Endpoint, item: _FabricItem) -> None:
        if not item.started:
            if not item.future.set_running_or_notify_cancel():
                endpoint.load -= item.units
                return
            item.started = True
        try:
            inner = endpoint.pool.submit(
                item.model,
                spec=item.spec,
                time_limit=item.time_limit,
                mip_rel_gap=item.mip_rel_gap,
                hard_timeout=item.hard_timeout,
            )
        except Exception as exc:  # pool closed under us
            endpoint.load -= item.units
            self._settle_locked(item, error=exc)
            return
        inner.add_done_callback(
            lambda future: self._local_done(endpoint, item, future)
        )

    def _local_done(self, endpoint: _Endpoint, item: _FabricItem, future: Future) -> None:
        with self._lock:
            endpoint.load -= item.units
        try:
            solution = future.result()
        except SolverServerCrashError as exc:
            # The local pool already retried; treat a crash that escapes it
            # like an endpoint failure and steal onto the remote fleet once.
            with self._lock:
                if item.settled or item.future.done():
                    self._stats.duplicates_dropped += 1
                    metrics.counter("fabric.duplicates_dropped")
                    return
                target = None
                if not item.stolen:
                    target = self._pick_endpoint(item, exclude={endpoint})
                if target is None:
                    self._settle_locked(item, error=exc)
                    return
                item.stolen = True
                self._stats.steals += 1
                metrics.counter("fabric.steals")
                self._enqueue(target, item)
            return
        except Exception as exc:  # timeouts, backend errors: same as a pool
            self._settle_error(item, exc)
            return
        solution.diagnostics.setdefault("endpoint", "local")
        self._record_result(endpoint, item, solution)

    # ------------------------------------------------------------------
    # Remote endpoint slots
    # ------------------------------------------------------------------
    def _slot_main(self, endpoint: _Endpoint) -> None:
        sock: socket.socket | None = None
        try:
            while True:
                with self._lock:
                    while (
                        not self._closed and endpoint.alive and not endpoint.queue
                    ):
                        endpoint.cond.wait(0.5)
                    if self._closed or not endpoint.alive:
                        return
                    item = endpoint.queue.popleft()
                    if not item.started:
                        if not item.future.set_running_or_notify_cancel():
                            endpoint.load -= item.units
                            continue
                        item.started = True
                sock = self._process(endpoint, item, sock)
        finally:
            self._close_sock(sock)

    @staticmethod
    def _close_sock(sock: socket.socket | None) -> None:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _process(
        self, endpoint: _Endpoint, item: _FabricItem, sock: socket.socket | None
    ) -> socket.socket | None:
        """Run one item on this slot's connection; returns the live socket."""
        request_id = next(self._request_ids)
        payload: dict[str, Any] = {
            "id": request_id,
            "method": "solve",
            "params": item.params,
            "op": item.op_id,
        }
        if self._token is not None:
            payload["token"] = self._token
        try:
            frame = encode_frame(payload)
        except FrameError as exc:  # model over the frame ceiling: a local bug
            with self._lock:
                endpoint.load -= item.units
            self._settle_error(item, exc)
            return sock
        started = time.perf_counter()
        try:
            if sock is None:
                sock = knock(
                    endpoint.host,
                    endpoint.port,
                    timeout=self._timeout,
                    connect_timeout=self._connect_timeout,
                )
            send_encoded(sock, frame)
            reply = self._await_reply(sock, request_id, item, endpoint, started)
        except _Abandon:
            # The slot's wait is over without a usable reply: a lame-duck
            # window expired after a steal, the solve was settled with a
            # client-side timeout, or the fabric is closing.  The stream may
            # hold a half-delivered frame either way — drop the connection.
            self._close_sock(sock)
            with self._lock:
                endpoint.load -= item.units
                if self._closed:
                    self._settle_locked(
                        item, error=SolverPoolError("fabric closed mid-solve")
                    )
            return None
        except (OSError, ConnectionClosed, FrameError) as exc:
            self._close_sock(sock)
            with self._lock:
                endpoint.load -= item.units
            self._transport_failure(endpoint, item, exc)
            return None
        with self._lock:
            endpoint.load -= item.units
        round_trip = time.perf_counter() - started
        error = reply.get("error")
        if error is not None:
            if error.get("type") == "ServerClosed":
                self._close_sock(sock)
                self._transport_failure(
                    endpoint,
                    item,
                    ConnectionClosed(f"solver endpoint {endpoint.label} is shutting down"),
                )
                return None
            if error.get("type") == "AuthError":
                # The probe accepted this token, so a mid-run mismatch means
                # the server was restarted with another secret: not a
                # transport blip, never retried.
                self._settle_error(item, AuthError(str(error.get("message", ""))))
                return sock
            self._settle_error(
                item,
                _revive_error(
                    str(error.get("type", "Error")),
                    str(error.get("message", "")),
                    error.get("data"),
                ),
            )
            return sock
        result = reply.get("result") or {}
        solution = solution_from_wire(result.get("solution") or {})
        solve_s = float(result.get("solve_s") or 0.0)
        queue_wait = float(result.get("queue_wait_s") or 0.0)
        solution.diagnostics["server_wall_time"] = solve_s
        solution.diagnostics["queue_wait_s"] = queue_wait
        solution.diagnostics["wire_s"] = max(0.0, round_trip - solve_s - queue_wait)
        solution.diagnostics["endpoint"] = endpoint.label
        if result.get("server_pid") is not None:
            solution.diagnostics.setdefault("server_pid", int(result["server_pid"]))
        self._record_result(endpoint, item, solution)
        return sock

    def _await_reply(
        self,
        sock: socket.socket,
        request_id: int,
        item: _FabricItem,
        endpoint: _Endpoint,
        started: float,
    ) -> dict[str, Any]:
        """Wait for this request's reply, enforcing the per-solve deadline.

        Raises :class:`_Abandon` when waiting stops making sense: the fabric
        closed, the solve was stolen and its lame-duck window expired, or it
        was settled with a client-side timeout.  Transport errors propagate.
        """
        deadline = (
            started + item.hard_timeout + self._wire_grace
            if item.hard_timeout is not None
            else None
        )
        lame_until: float | None = None
        while True:
            now = time.perf_counter()
            if self._closed:
                raise _Abandon
            if lame_until is not None and now >= lame_until:
                raise _Abandon
            if deadline is not None and lame_until is None and now >= deadline:
                if self._steal_for_deadline(item, endpoint, now - started):
                    # Keep listening: if the slow original lands before the
                    # stolen copy, it wins the future and the copy becomes
                    # the deduplicated late arrival instead.
                    lame_until = now + self._lame_duck_grace
                    continue
                raise _Abandon
            wait = 0.25
            if deadline is not None and lame_until is None:
                wait = min(wait, max(0.01, deadline - now))
            readable, _, _ = select.select([sock], [], [], wait)
            if not readable:
                continue
            reply = recv_frame(sock)
            if reply.get("id") != request_id:
                raise FrameError(
                    f"reply id {reply.get('id')!r} does not match request "
                    f"{request_id!r}"
                )
            return reply

    def _steal_for_deadline(
        self, item: _FabricItem, endpoint: _Endpoint, elapsed: float
    ) -> bool:
        """Deadline passed with no reply: re-dispatch once, else time out.

        Returns True when the solve was stolen onto another endpoint (the
        caller becomes a lame duck), False when there is nothing left to
        wait for (already done, or settled with a timeout here).
        """
        with self._lock:
            if item.settled or item.future.done():
                return False
            target = None
            if not item.stolen:
                target = self._pick_endpoint(item, exclude={endpoint})
            if target is None:
                timeout_error = SolverPoolTimeoutError(
                    f"solver endpoint {endpoint.label} did not reply within "
                    f"hard timeout {item.hard_timeout:.3g}s + wire grace "
                    f"{self._wire_grace:.3g}s (op {item.op_id})"
                )
                timeout_error.solve_wall_time = elapsed  # type: ignore[attr-defined]
                self._settle_locked(item, error=timeout_error)
                return False
            item.stolen = True
            self._stats.steals += 1
            metrics.counter("fabric.steals")
            self._enqueue(target, item)
            return True

    def _transport_failure(
        self, endpoint: _Endpoint, item: _FabricItem | None, exc: Exception
    ) -> None:
        """The connection to ``endpoint`` died with ``item`` in flight.

        With other live endpoints available the endpoint is declared dead:
        its queued solves re-route and the in-flight solve is re-dispatched
        (the one steal).  As the *last* live endpoint it stays alive — the
        in-flight solve retries on a fresh connection once (op-id replay
        makes the resend safe), then fails.
        """
        with self._lock:
            self._stats.endpoint_failures += 1
            others = [
                ep for ep in self._endpoints if ep is not endpoint and ep.alive
            ]
            orphans: list[_FabricItem] = []
            if others and endpoint.alive:
                endpoint.alive = False
                orphans = list(endpoint.queue)
                endpoint.queue.clear()
                if endpoint.cond is not None:
                    endpoint.cond.notify_all()
            if item is not None and not item.settled and not item.future.done():
                if item.stolen:
                    self._settle_locked(
                        item,
                        error=SolverServerCrashError(
                            f"solver endpoint failed twice for op {item.op_id} "
                            f"(last: {endpoint.label}: {exc})"
                        ),
                    )
                else:
                    exclude = {endpoint} if others else set()
                    target = self._pick_endpoint(item, exclude=exclude)
                    if target is None:
                        self._settle_locked(
                            item,
                            error=SolverFabricError(
                                f"no live solver endpoints left for op "
                                f"{item.op_id}: {exc}"
                            ),
                        )
                    else:
                        item.stolen = True
                        self._stats.steals += 1
                        metrics.counter("fabric.steals")
                        self._enqueue(target, item)
            for orphan in orphans:
                if orphan.settled or orphan.future.done():
                    continue
                # Never-dispatched work re-routes freely; it does not spend
                # its steal budget (nothing could have executed it yet).
                target = self._pick_endpoint(orphan, exclude=set())
                if target is None:
                    self._settle_locked(
                        orphan,
                        error=SolverFabricError("all solver endpoints are gone"),
                    )
                else:
                    self._enqueue(target, orphan)
