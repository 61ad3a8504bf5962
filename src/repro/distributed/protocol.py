"""Wire protocol shared by the store server and the remote client.

Frames
------
Every message is one *frame*: a 4-byte big-endian unsigned length prefix
followed by that many bytes of UTF-8 JSON.  Length-prefixing (rather than
newline delimiting) keeps the framing independent of the payload — result
rows may contain arbitrary text — and lets the receiver reject oversized
frames (:data:`MAX_FRAME_BYTES`) before allocating anything.

Requests and replies
--------------------
A request frame is ``{"id": N, "method": name, "params": {...}}`` plus two
optional fields: ``"token"`` (shared-secret auth, checked per request so
reconnects need no handshake state) and ``"op"`` (a client-generated
operation id attached to *mutating* methods — the server remembers the
reply of every executed op, so a retry after a lost response replays the
recorded reply instead of executing twice; see
:class:`repro.distributed.server.StoreServer`).

A reply frame is ``{"id": N, "result": ...}`` on success or
``{"id": N, "error": {"type": ..., "message": ...}}`` on failure; replayed
replies additionally carry ``"replayed": true``.  ``id`` always echoes the
request, so a client can detect a desynchronised connection and drop it.

:class:`StoreProtocol` is the extracted public surface of
:class:`~repro.orchestration.store.ExperimentStore` — the contract the
runner, scheduler, planner and export paths actually consume.  Both the
local store and :class:`~repro.distributed.client.RemoteStore` satisfy it,
which is what lets every orchestration layer run unchanged against either
backend.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from ..orchestration.store import ClaimedRow, StoredRow

__all__ = [
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "AddressError",
    "AuthError",
    "ConnectionClosed",
    "FrameError",
    "ProtocolError",
    "RemoteOperationError",
    "StoreProtocol",
    "encode_frame",
    "format_address",
    "is_remote_target",
    "parse_address",
    "recv_frame",
    "send_encoded",
    "send_frame",
]

PROTOCOL_VERSION = 1

# Default TCP port of `repro orch serve`.
DEFAULT_PORT = 7479

# Hard ceiling on one frame's JSON payload.  Store traffic is small (claim
# rows, result summaries, priority batches); anything near this size is a bug
# or an attack, and rejecting by the prefix alone keeps a malformed peer
# from ballooning server memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """Base class for wire-level failures."""


class FrameError(ProtocolError):
    """A frame violated the length-prefixed JSON format."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection mid-frame (or before one)."""


class AddressError(ProtocolError, ValueError):
    """A server address string could not be parsed.

    Also a ``ValueError`` so plain-library callers can catch it naturally;
    the ``ProtocolError`` base is what lets the CLI render it as a
    one-line error instead of a traceback.
    """


class RemoteOperationError(ProtocolError):
    """A structured error reply from the server.

    ``type`` is the server-side exception class name (``"KeyError"``,
    ``"AuthError"``, ...), ``message`` its rendering — enough for callers to
    branch on without the server shipping picklable exception objects.
    """

    def __init__(
        self, error_type: str, message: str, data: Mapping[str, Any] | None = None
    ) -> None:
        super().__init__(f"{error_type}: {message}")
        self.type = error_type
        self.message = message
        # Optional structured payload a server attached to the error reply
        # (e.g. the measured wall time of a solve killed by its deadline).
        self.data: dict[str, Any] = dict(data) if data else {}


class AuthError(RemoteOperationError):
    """The server rejected the request's shared token.

    A :class:`RemoteOperationError` whose ``type`` is always ``AuthError``,
    raised as its own class so callers can catch a credential problem
    without string-matching — and so the clients can refuse to retry it (a
    wrong token must never become a reconnect storm).
    """

    def __init__(self, message: str = "missing or invalid token") -> None:
        super().__init__("AuthError", message)


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialise one message to its length-prefixed wire form.

    Split from :func:`send_frame` so a sender can surface serialisation
    problems (oversized payload, non-JSON values) *before* touching the
    socket — a local payload bug must not be retried as a transport
    failure.
    """
    blob = json.dumps(payload, separators=(",", ":")).encode()
    if len(blob) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(blob)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(blob)) + blob


def send_frame(sock: socket.socket, payload: Mapping[str, Any]) -> None:
    """Serialise one message and write it as a length-prefixed frame."""
    sock.sendall(encode_frame(payload))


def send_encoded(sock: socket.socket, frame: bytes) -> None:
    """Write an already-:func:`encode_frame`-ed message to the socket.

    The complete-write counterpart of :func:`send_frame` for callers that
    encode early (to fail fast on payload bugs, or to build the frame once
    and send it on whichever connection survives a retry loop).  All wire
    writes go through this module so framing — and the repro-lint rule
    banning raw ``socket.send*`` elsewhere — stays in one place.
    """
    sock.sendall(frame)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buffer = bytearray()
    while len(buffer) < count:
        chunk = sock.recv(count - len(buffer))
        if not chunk:
            raise ConnectionClosed("connection closed mid-frame")
        buffer.extend(chunk)
    return bytes(buffer)


def recv_frame(sock: socket.socket) -> dict[str, Any]:
    """Read one length-prefixed JSON frame; raises :class:`ConnectionClosed`."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"peer announced a {length}-byte frame (max {MAX_FRAME_BYTES})")
    blob = _recv_exact(sock, length)
    try:
        payload = json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# Target addressing
# ----------------------------------------------------------------------
def is_remote_target(target: Any) -> bool:
    """Whether a store target names a server (``tcp://host:port``) or a file."""
    return isinstance(target, str) and target.startswith("tcp://")


def parse_address(target: str, *, default_port: int = DEFAULT_PORT) -> tuple[str, int]:
    """``"host[:port]"`` / ``"tcp://host[:port]"`` → ``(host, port)``.

    A target that names no port gets ``default_port`` (each service has
    its own); IPv6 literal hosts must be bracketed (``tcp://[::1]:7479``).
    """
    text = target.strip().removeprefix("tcp://")
    if text.startswith("["):  # bracketed IPv6 literal
        host, _, rest = text[1:].partition("]")
        sep, port_text = rest[:1], rest[1:]
    else:
        host, sep, port_text = text.partition(":")
    if not host or sep not in ("", ":"):
        raise AddressError(f"invalid address {target!r}; expected HOST[:PORT]")
    if not sep:
        return host, default_port
    try:
        port = int(port_text)  # an empty port ("host:") is invalid too
    except ValueError as exc:
        raise AddressError(f"invalid port in address {target!r}") from exc
    if not 0 < port < 65536:
        raise AddressError(f"port out of range in address {target!r}")
    return host, port


def format_address(host: str, port: int) -> str:
    """The canonical ``tcp://`` form of a server address."""
    return f"tcp://[{host}]:{port}" if ":" in host else f"tcp://{host}:{port}"


# ----------------------------------------------------------------------
# The store surface
# ----------------------------------------------------------------------
@runtime_checkable
class StoreProtocol(Protocol):
    """Public :class:`~repro.orchestration.store.ExperimentStore` surface.

    Everything the runner, scheduler, planner, CLI and export paths call —
    extracted so they run unchanged against the local SQLite store or a
    :class:`~repro.distributed.client.RemoteStore` speaking this module's
    wire protocol.  ``isinstance`` checks verify member *presence* only
    (``runtime_checkable``); semantics are pinned by the parity tests in
    ``tests/test_distributed.py``.
    """

    fifo_every: int

    # Lifecycle
    def close(self) -> None: ...
    def __enter__(self) -> "StoreProtocol": ...
    def __exit__(self, *exc_info: object) -> None: ...

    # Grid population and claiming
    def add_rows(self, experiment: str, grid: Iterable[Mapping[str, Any]]) -> int: ...
    def claim_next(
        self, worker: str, experiments: Sequence[str] | None = None
    ) -> ClaimedRow | None: ...
    def complete(
        self,
        row_id: int,
        result: Mapping[str, Any],
        *,
        duration: float,
        worker: str | None = None,
    ) -> bool: ...
    def fail(
        self, row_id: int, error: str, *, duration: float, worker: str | None = None
    ) -> bool: ...
    def reclaim_stale(
        self, *, older_than: float = 0.0, experiments: Sequence[str] | None = None
    ) -> int: ...
    def resubmit(self, row_id: int) -> bool: ...
    def reset(
        self,
        experiments: Sequence[str] | None = None,
        *,
        statuses: Sequence[str] = ("running", "error"),
    ) -> int: ...
    def delete_rows(
        self,
        experiments: Sequence[str] | None = None,
        *,
        statuses: Sequence[str] | None = None,
    ) -> int: ...

    # Scheduling
    def set_schedule(
        self,
        entries: Iterable[tuple[str, str, float, float | None]],
        *,
        if_replan_round: int | None = None,
    ) -> int | None: ...
    def set_dependencies(
        self, experiment: str, param_hash: str, depends_on: Sequence[str]
    ) -> bool: ...
    def sync_dependencies(self, experiments: Sequence[str] | None = None) -> int: ...
    def blocked_count(self, experiments: Sequence[str] | None = None) -> int: ...
    def blocking_dependencies(
        self, experiments: Sequence[str] | None = None
    ) -> list[dict[str, Any]]: ...
    def fail_blocked_on_error(self, experiments: Sequence[str] | None = None) -> int: ...

    # Online re-planning
    def completion_count(self) -> int: ...
    def replan_epoch(self) -> int: ...
    def try_begin_replan(self, every: int) -> int | None: ...
    def publish_replan_epoch(self, round_no: int) -> None: ...
    def duration_history(
        self, experiments: Sequence[str] | None = None
    ) -> list[tuple[str, dict[str, Any], float]]: ...
    def duration_samples(
        self,
        experiments: Sequence[str] | None = None,
        *,
        since: tuple[float, int] | None = None,
    ) -> list[tuple[str, dict[str, Any], float, float, int]]: ...

    # Cross-store cost priors
    def save_cost_priors(self, priors: Mapping[str, Mapping[str, Any]]) -> int: ...
    def load_cost_priors(self) -> dict[str, dict[str, Any]]: ...

    # Service telemetry tail (scheduling-service counters not yet folded
    # into completed journal rows; journaled so restarts don't lose them)
    def service_telemetry_tail(self) -> dict[str, int]: ...
    def set_service_telemetry_tail(self, counters: Mapping[str, int]) -> None: ...

    # Trace spans (bounded-retention journal written by
    # repro.observability.events.flush, read by the dashboard)
    def record_events(
        self, events: Sequence[Mapping[str, Any]], *, retain: int | None = None
    ) -> int: ...
    def fetch_events(
        self,
        *,
        op: str | None = None,
        kinds: Sequence[str] | None = None,
        limit: int = 500,
    ) -> list[dict[str, Any]]: ...

    # Introspection
    def status_counts(self) -> dict[str, dict[str, int]]: ...
    def pending_count(self, experiments: Sequence[str] | None = None) -> int: ...
    def fetch_rows(
        self, experiment: str, *, status: str | None = None
    ) -> list[StoredRow]: ...
    def experiments(self) -> list[str]: ...

    # Result cache
    def cache_contains(self, key: str) -> bool: ...
    def cache_get(self, key: str) -> dict[str, Any] | None: ...
    def cache_put(self, key: str, solver: str, payload: Mapping[str, Any]) -> None: ...
    def cache_stats(self) -> dict[str, int]: ...
    def clear_cache(self) -> int: ...


# Methods a client may invoke over the wire, i.e. StoreProtocol minus the
# local-only lifecycle plus the server-side extras (store_info reports the
# served path / fifo knob / protocol version; set_fifo_every adjusts the
# *global* claim interleave — it lives in shared scheduler state, so the
# last writer wins for every worker; ping is the liveness probe).
RPC_METHODS = frozenset(
    {
        "add_rows",
        "claim_next",
        "complete",
        "fail",
        "reclaim_stale",
        "reset",
        "resubmit",
        "delete_rows",
        "set_schedule",
        "set_dependencies",
        "sync_dependencies",
        "blocked_count",
        "blocking_dependencies",
        "fail_blocked_on_error",
        "completion_count",
        "replan_epoch",
        "try_begin_replan",
        "publish_replan_epoch",
        "duration_samples",
        "save_cost_priors",
        "load_cost_priors",
        "service_telemetry_tail",
        "set_service_telemetry_tail",
        "record_events",
        "fetch_events",
        "status_counts",
        "pending_count",
        "fetch_rows",
        "experiments",
        "cache_contains",
        "cache_get",
        "cache_put",
        "cache_stats",
        "clear_cache",
        "store_info",
        "set_fifo_every",
        "ping",
    }
)

# Methods that change store state: the client attaches a generated op id so
# a retry after a lost reply replays instead of re-executing.  cache_get
# bumps a hit counter but re-bumping on retry is harmless, so it stays a
# plain read (the dedup window is better spent on claims and completions).
MUTATING_METHODS = frozenset(
    {
        "add_rows",
        "claim_next",
        "complete",
        "fail",
        "reclaim_stale",
        "reset",
        "resubmit",
        "delete_rows",
        "set_schedule",
        "set_dependencies",
        "sync_dependencies",
        "fail_blocked_on_error",
        "try_begin_replan",
        "publish_replan_epoch",
        "save_cost_priors",
        "set_service_telemetry_tail",
        "record_events",
        "cache_put",
        "clear_cache",
        "set_fifo_every",
    }
)
