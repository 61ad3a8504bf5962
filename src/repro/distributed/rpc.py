"""Shared RPC machinery for every framed-JSON TCP service in the repo.

The store server and the scheduling service speak the same wire dialect —
length-prefixed JSON frames, per-request token auth, structured error
replies, op-id replay for safe client retries — so both ends of the
transport live here once: :class:`~repro.distributed.server.StoreServer`
and :class:`repro.service.ScheduleServer` subclass :class:`RpcServer`, and
their clients :class:`~repro.distributed.client.RemoteStore` and
:class:`repro.service.ScheduleClient` subclass :class:`RpcClient`.

:class:`RpcServer` owns the threaded TCP listener, the per-connection
handler loop, graceful shutdown (stop accepting, unblock the accept loop,
drop live handler sockets so blocked clients reconnect instead of hanging),
and the request → reply dispatch pipeline: token check, method allowlist,
op-id replay, structured errors.  Subclasses provide :meth:`_invoke` and
choose a dispatch policy:

* ``serialize_dispatch = True`` (the store): *every* request executes under
  one lock — the single writer SQLite requires anyway, and what makes the
  op-replay check atomic with execution.
* ``serialize_dispatch = False`` (the scheduling service): requests execute
  concurrently (a solve blocks its handler thread for seconds); only op
  bookkeeping takes the lock.  An op id that is *in flight* — a client
  resent a solve whose reply was lost while the original is still running —
  parks the retry until the original finishes and then replays its recorded
  reply, so one op never executes twice on the same server.

:class:`RpcClient` owns the other end: one persistent socket with one
request in flight, a protocol-version check at connect time, patient
connects (:func:`knock`: a server mid-restart comes up within moments),
and a retry loop that resends a request on a fresh connection after any
transport failure — including a ``ServerClosed`` reply from a server
mid-shutdown.  Mutating calls carry an op id generated once per call, so a
resend whose first reply was lost replays that reply instead of executing
twice.  Structured error replies are never retried; they raise through
:func:`raise_reply_error` (``AuthError`` gets its own class, so a wrong
token never becomes a reconnect storm).
"""
from __future__ import annotations

import dataclasses
import hmac
import socket
import socketserver
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, NoReturn, TypeVar

from ..analysis import racecheck
from ..observability import events, metrics
from .protocol import (
    AuthError,
    ConnectionClosed,
    FrameError,
    ProtocolError,
    RemoteOperationError,
    encode_frame,
    format_address,
    parse_address,
    recv_frame,
    send_encoded,
    send_frame,
)

__all__ = [
    "OP_CACHE_SIZE",
    "RpcClient",
    "RpcConnectionError",
    "RpcServer",
    "knock",
    "raise_reply_error",
]

# Replies remembered for op-id replay.  Sized for hundreds of workers each
# with a handful of retryable calls in flight; FIFO eviction means an op
# is forgotten only after thousands of newer ops — far beyond any client's
# retry window.
OP_CACHE_SIZE = 4096


class _OpCache:
    """Bounded FIFO map of executed op ids to their recorded replies."""

    def __init__(self, size: int = OP_CACHE_SIZE) -> None:
        self._size = size
        self._replies: OrderedDict[str, dict[str, Any]] = OrderedDict()

    def get(self, op_id: str) -> dict[str, Any] | None:
        return self._replies.get(op_id)

    def put(self, op_id: str, reply: dict[str, Any]) -> None:
        self._replies[op_id] = reply
        while len(self._replies) > self._size:
            self._replies.popitem(last=False)


def encode_result(value: Any) -> Any:
    """JSON-shape a dispatch result (dataclasses → dicts, tuples → lists)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return encode_result(dataclasses.asdict(value))
    if isinstance(value, (list, tuple)):
        return [encode_result(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_result(item) for key, item in value.items()}
    return value


def error_reply(
    request_id: Any,
    error_type: str,
    message: str,
    data: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    reply: dict[str, Any] = {
        "id": request_id,
        "error": {"type": error_type, "message": message},
    }
    if data:
        reply["error"]["data"] = dict(data)
    return reply


class _Handler(socketserver.BaseRequestHandler):
    """Per-connection loop: read a frame, dispatch, reply, repeat."""

    def setup(self) -> None:
        self.server.owner._track(self.request)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.owner._untrack(self.request)  # type: ignore[attr-defined]

    def handle(self) -> None:
        while True:
            try:
                request = recv_frame(self.request)
            except (ConnectionClosed, FrameError, OSError):
                return  # peer gone or speaking garbage: drop the connection
            metrics.counter("rpc.frames_in")
            reply = self.server.owner.dispatch(request)  # type: ignore[attr-defined]
            try:
                send_frame(self.request, reply)
                metrics.counter("rpc.frames_out")
            except OSError:
                return
            except (FrameError, TypeError, ValueError) as exc:
                # The reply itself cannot be framed (result over the frame
                # ceiling, or not JSON-serializable): fail the one call with
                # a structured error instead of dying with no reply — the
                # client would otherwise retry the same request into the
                # same wall and misreport it as a network failure.
                try:
                    send_frame(
                        self.request,
                        error_reply(request.get("id"), "ReplyError", str(exc)),
                    )
                except OSError:
                    return
            if reply.get("error", {}).get("type") == "AuthError":
                return  # no second guesses on a shared-token mismatch


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    owner: "RpcServer"


class _TCP6Server(_TCPServer):
    address_family = socket.AF_INET6


def _server_class(host: str, port: int) -> type[_TCPServer]:
    """Pick the socket family from the bind host (``::1`` needs AF_INET6)."""
    try:
        info = socket.getaddrinfo(host or None, port, type=socket.SOCK_STREAM)
    except OSError:
        return _TCPServer  # let bind() produce the real error
    if info and info[0][0] == socket.AF_INET6:
        return _TCP6Server
    return _TCPServer


class RpcServer:
    """A threaded TCP server speaking the framed request/reply protocol.

    Subclasses set :attr:`rpc_methods` (the allowlist), implement
    :meth:`_invoke`, release owned resources in :meth:`_on_shutdown`, and
    pick :attr:`serialize_dispatch` (see module docstring).  The subclass
    must fully initialise its own state *before* calling ``__init__`` here:
    binding the port is the last construction step, so a request can arrive
    as soon as it returns.
    """

    rpc_methods: frozenset[str] = frozenset()
    serialize_dispatch: bool = True
    thread_name: str = "repro-rpc-server"
    # Methods whose dispatches emit a ``server.dispatch`` trace span keyed
    # by the request's op id (see repro.observability.events).  Empty by
    # default: subclasses opt their claim-lifecycle methods in.
    spanned_methods: frozenset[str] = frozenset()

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
    ) -> None:
        self._token = token
        # Lock names are per-class so the racecheck ordering graph keeps the
        # store server's dispatch lock distinct from the service's.
        self._lock = racecheck.tracked_lock(f"rpc.dispatch.{type(self).__name__}")
        self._ops = _OpCache()
        # Op ids currently executing on the concurrent path: a resent op
        # waits on its original's event instead of executing a second time.
        self._inflight_ops: dict[str, threading.Event] = {}
        self._connections: set[Any] = set()
        self._conn_lock = racecheck.tracked_lock(f"rpc.conns.{type(self).__name__}")
        self._serve_thread: threading.Thread | None = None
        self._serving = threading.Event()
        self._closed = False
        self._tcp = _server_class(host, port)((host, port), _Handler)
        self._tcp.owner = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolved even when ``port=0`` was asked)."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """The ``tcp://host:port`` form clients pass to ``--connect``."""
        return format_address(*self.address)

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called."""
        self._serving.set()
        self._tcp.serve_forever(poll_interval=0.1)

    def start(self) -> "RpcServer":
        """Serve on a background thread (tests and embedded use)."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name=self.thread_name, daemon=True
            )
            self._serve_thread.start()
            # Wait for the accept loop to be entered: a shutdown() racing an
            # unstarted loop would skip the stop request and leave the
            # thread serving a closed listener.  (If the loop is entered
            # with a stop already requested, serve_forever exits at once.)
            self._serving.wait(timeout=5.0)
        return self

    def shutdown(self) -> None:
        """Stop accepting, unblock ``serve_forever``, release resources."""
        if self._closed:
            return
        self._closed = True
        # BaseServer.shutdown blocks on an event only serve_forever sets, so
        # it must be skipped when the accept loop was never entered.
        if self._serving.is_set():
            self._tcp.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        # Daemon handler threads are not joined by server_close; dropping
        # their sockets unblocks the recv they sit in, so connected clients
        # see a closed connection (and reconnect) rather than a half-dead
        # server that still answers.
        with self._conn_lock:
            for sock in list(self._connections):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._tcp.server_close()
        with self._lock:
            waiters = list(self._inflight_ops.values())
            self._inflight_ops.clear()
        for event in waiters:
            event.set()
        # Taking the lock drains any serialized request already mid-dispatch
        # before the owned resources go away beneath it.
        with self._lock:
            self._on_shutdown()

    def _on_shutdown(self) -> None:
        """Release subclass-owned resources (store, executors, ...)."""

    def __enter__(self) -> "RpcServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def _track(self, sock: Any) -> None:
        with self._conn_lock:
            self._connections.add(sock)

    def _untrack(self, sock: Any) -> None:
        with self._conn_lock:
            self._connections.discard(sock)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """One request frame → one reply frame (never raises)."""
        request_id = request.get("id")
        method = request.get("method")
        metrics.counter("rpc.requests")
        # Compared as UTF-8 bytes: compare_digest refuses non-ASCII *str*
        # operands, and raising here would kill the handler with no reply.
        if self._token is not None and not hmac.compare_digest(
            str(request.get("token") or "").encode(), self._token.encode()
        ):
            return error_reply(request_id, "AuthError", "missing or invalid token")
        if not isinstance(method, str) or method not in self.rpc_methods:
            return error_reply(request_id, "UnknownMethod", f"unknown method {method!r}")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return error_reply(request_id, "BadRequest", "params must be an object")
        op_id = request.get("op")
        if self.serialize_dispatch:
            started = time.perf_counter()
            with self._lock:
                if self._closed:
                    return error_reply(
                        request_id, "ServerClosed", "server is shutting down"
                    )
                if op_id is not None:
                    recorded = self._ops.get(str(op_id))
                    if recorded is not None:
                        metrics.counter("rpc.op_replays")
                        return {**recorded, "id": request_id, "replayed": True}
                reply = self._execute(request_id, method, params, op_id)
            # Span emission and flushing happen after the dispatch lock is
            # released: the flush re-enters the store through _flush_spans,
            # which takes the lock itself.
            self._post_dispatch(method, op_id, time.perf_counter() - started)
            return reply
        return self._dispatch_concurrent(request_id, method, params, op_id)

    def _dispatch_concurrent(
        self, request_id: Any, method: str, params: dict[str, Any], op_id: Any
    ) -> dict[str, Any]:
        """Execute outside the lock; dedup concurrent resends of one op."""
        key = str(op_id) if op_id is not None else None
        while True:
            with self._lock:
                if self._closed:
                    return error_reply(
                        request_id, "ServerClosed", "server is shutting down"
                    )
                if key is not None:
                    recorded = self._ops.get(key)
                    if recorded is not None:
                        metrics.counter("rpc.op_replays")
                        return {**recorded, "id": request_id, "replayed": True}
                    running = self._inflight_ops.get(key)
                    if running is None:
                        self._inflight_ops[key] = threading.Event()
                    # else: fall through to wait outside the lock
                else:
                    running = None
            if running is None:
                break
            # The original request for this op is still executing on another
            # handler thread: wait for it, then loop to replay its recorded
            # reply.  (If the original *failed*, nothing was recorded — the
            # loop re-registers this retry as the new runner, which is the
            # correct outcome: a failed op committed nothing.)
            running.wait()
        started = time.perf_counter()
        try:
            try:
                result = encode_result(self._invoke(method, params))
            except Exception as exc:  # structured reply; connection survives
                # Errors are deliberately not recorded for replay: a failed
                # op committed nothing, so re-executing the retry is the
                # correct (and possibly now-successful) outcome.
                return error_reply(
                    request_id, type(exc).__name__, str(exc), data=self._error_data(exc)
                )
            if key is not None:
                with self._lock:
                    self._ops.put(key, {"result": result})
            self._post_dispatch(method, op_id, time.perf_counter() - started)
            return {"id": request_id, "result": result}
        finally:
            if key is not None:
                with self._lock:
                    event = self._inflight_ops.pop(key, None)
                if event is not None:
                    event.set()

    def _execute(
        self, request_id: Any, method: str, params: dict[str, Any], op_id: Any
    ) -> dict[str, Any]:
        """Serialized-path execution; caller holds the lock."""
        try:
            result = encode_result(self._invoke(method, params))
        except Exception as exc:  # structured reply; connection survives
            return error_reply(
                request_id, type(exc).__name__, str(exc), data=self._error_data(exc)
            )
        if op_id is not None:
            self._ops.put(str(op_id), {"result": result})
        return {"id": request_id, "result": result}

    def _invoke(self, method: str, params: dict[str, Any]) -> Any:
        raise NotImplementedError

    def _post_dispatch(self, method: str, op_id: Any, duration: float) -> None:
        """Trace hook run after a successful dispatch, outside the lock."""
        if method in self.spanned_methods:
            events.emit(
                "server.dispatch",
                op=str(op_id) if op_id is not None else None,
                actor=type(self).__name__,
                duration=duration,
                detail={"method": method},
            )
        self._flush_spans()

    def _flush_spans(self) -> None:
        """Journal buffered spans; subclasses that own a store override."""

    def _error_data(self, exc: Exception) -> dict[str, Any] | None:
        """Structured payload to attach to this exception's error reply."""
        return None


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
def knock(
    host: str,
    port: int,
    *,
    timeout: float,
    connect_timeout: float,
    retry_delay: float = 0.2,
) -> socket.socket:
    """Connect to ``host:port``, retrying until ``connect_timeout`` passes.

    A server mid-restart (or a CI job that just forked a server process)
    comes up within moments, and waiting here is what lets every client
    simply outlive it.  The returned socket has ``timeout`` installed as
    its per-operation deadline and TCP_NODELAY set (request/reply traffic).
    Raises the last ``OSError`` once the knocking deadline passes.
    """
    deadline = time.monotonic() + connect_timeout
    delay = retry_delay
    while True:
        try:
            # Cap each attempt at the remaining knocking deadline too: a
            # black-holed address (firewall DROP) would otherwise sit in
            # one connect for the full request timeout.
            sock = socket.create_connection(
                (host, port),
                timeout=min(timeout, max(0.1, deadline - time.monotonic())),
            )
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
            delay = min(delay * 2, 2.0)
        else:
            sock.settimeout(timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock


def raise_reply_error(
    error: Mapping[str, Any],
    typed: Mapping[str, Callable[[str], Exception]] | None = None,
) -> NoReturn:
    """Raise the exception for a structured ``error`` reply object.

    ``AuthError`` gets its own class (clients must not retry it), and so
    does every error type named in ``typed`` (raised with the message);
    everything else raises :class:`RemoteOperationError` carrying the
    server-side type name, message, and optional structured data.
    """
    error_type = str(error.get("type", "Error"))
    message = str(error.get("message", ""))
    if error_type == "AuthError":
        raise AuthError(message)
    if typed and error_type in typed:
        raise typed[error_type](message)
    raise RemoteOperationError(error_type, message, data=error.get("data"))


class RpcConnectionError(ProtocolError):
    """A server could not be reached (after the client's configured retries)."""


_Client = TypeVar("_Client", bound="RpcClient")


class RpcClient:
    """One persistent connection to an :class:`RpcServer`, retried safely.

    Subclasses declare what differs between services, the way server
    subclasses declare :attr:`RpcServer.rpc_methods`, and add only their
    API methods:

    * :attr:`default_port` for targets that name no port;
    * :attr:`info_method` and :attr:`protocol_version`: the call made at
      connect time and the ``protocol`` its reply must report;
    * :attr:`mutating_methods`: the calls that carry an op id;
    * :attr:`connection_error`, raised when the server stays unreachable;
    * :attr:`typed_errors`: error replies raised as the service's own
      exception classes rather than :class:`RemoteOperationError`;
    * :attr:`metrics_prefix` for the ``calls``/``bytes_out``/``retries``/
      ``reconnects`` counters, and :attr:`server_name` for messages.

    ``target`` is ``"host[:port]"`` or ``"tcp://host[:port]"``.  ``timeout``
    bounds each round-trip; ``retries`` transport-level resends are made
    before :attr:`connection_error`.  Construction connects and checks the
    protocol version; :attr:`_server_info` keeps that first info reply.
    """

    default_port: int
    info_method: str
    protocol_version: int
    mutating_methods: frozenset[str] = frozenset()
    connection_error: type[RpcConnectionError] = RpcConnectionError
    typed_errors: Mapping[str, Callable[[str], Exception]] = {}
    metrics_prefix: str
    server_name: str

    def __init__(
        self,
        target: str,
        *,
        token: str | None,
        timeout: float,
        connect_timeout: float,
        retries: int,
        retry_delay: float,
    ) -> None:
        self.host, self.port = parse_address(target, default_port=self.default_port)
        self._token = token
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self._retries = max(0, int(retries))
        self._retry_delay = retry_delay
        self._sock: socket.socket | None = None
        self._request_id = 0
        self._closed = False
        self._last_op: str | None = None
        with self._closed_on_error():
            self._server_info = self._call(self.info_method, {})
            self._check_protocol(self._server_info)

    @contextmanager
    def _closed_on_error(self) -> Iterator[None]:
        """Close the connection when a connect-time call raises.

        The constructor never returns then, so no caller could close it.
        """
        try:
            yield
        except BaseException:
            self.close()
            raise

    @property
    def last_op(self) -> str | None:
        """Op id of the most recent *successful* mutating call.

        The runner stamps each claimed cell's ``worker.cell`` trace span
        with this, correlating the cell's execution with the
        ``claim_next`` chain that handed it out.
        """
        return self._last_op

    def _check_protocol(self, info: Any) -> None:
        """Fail at connect time on a server speaking another protocol version.

        Without this an incompatible pair would surface as confusing
        per-method errors later instead of one clean mismatch up front.
        """
        version = info.get("protocol") if isinstance(info, Mapping) else None
        if version != self.protocol_version:
            raise self.connection_error(
                f"{self.server_name} at {self.host}:{self.port} speaks protocol "
                f"{version!r}; this client speaks {self.protocol_version}"
            )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        try:
            sock = knock(
                self.host,
                self.port,
                timeout=self._timeout,
                connect_timeout=self._connect_timeout,
                retry_delay=self._retry_delay,
            )
        except OSError as exc:
            raise self.connection_error(
                f"cannot connect to {self.server_name} at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        metrics.counter(f"{self.metrics_prefix}.reconnects")
        self._sock = sock
        return sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _call(self, method: str, params: dict[str, Any]) -> Any:
        if self._closed:
            raise self.connection_error(f"{type(self).__name__} is closed")
        self._request_id += 1
        payload: dict[str, Any] = {
            "id": self._request_id,
            "method": method,
            "params": params,
        }
        if self._token is not None:
            payload["token"] = self._token
        op: str | None = None
        if method in self.mutating_methods:
            # Generated once, before the retry loop: every resend carries
            # it, so the server replays a lost reply instead of executing
            # the call twice.
            op = uuid.uuid4().hex
            payload["op"] = op
        # Serialised before the retry loop: an unframeable *request* (over
        # the frame ceiling, non-JSON value) is a local payload bug — it
        # raises FrameError straight to the caller instead of being retried
        # and misreported as an unreachable server.
        frame = encode_frame(payload)
        metrics.counter(f"{self.metrics_prefix}.calls")
        metrics.counter(f"{self.metrics_prefix}.bytes_out", len(frame))
        started = time.perf_counter()
        for attempt in range(self._retries + 1):
            try:
                sock = self._sock or self._connect()
                send_encoded(sock, frame)
                reply = recv_frame(sock)
                if reply.get("id") != payload["id"]:
                    # A half-read earlier frame desynchronised the stream;
                    # the connection is unusable, but the request is safe to
                    # replay (op id) or re-issue (read).
                    raise FrameError(
                        f"reply id {reply.get('id')!r} does not match request "
                        f"{payload['id']!r}"
                    )
            except (OSError, ConnectionClosed, FrameError) as exc:
                cause: Exception = exc
                failure = f"unreachable after {self._retries + 1} attempts: {exc}"
            else:
                error = reply.get("error")
                if error is None or error.get("type") != "ServerClosed":
                    break
                # A server mid-shutdown is a transport condition, not an
                # application error: a replacement server on the same
                # address picks the resend up.
                message = str(error.get("message", ""))
                cause = RemoteOperationError("ServerClosed", message)
                failure = "is shutting down"
            self._disconnect()
            if attempt == self._retries:
                raise self.connection_error(
                    f"{self.server_name} at {self.host}:{self.port} {failure}"
                ) from cause
            metrics.counter(f"{self.metrics_prefix}.retries")
            time.sleep(self._retry_delay * (attempt + 1))
        if error is not None:
            raise_reply_error(error, self.typed_errors)
        if op is not None:
            self._last_op = op
        if method in events.SPANNED_METHODS:
            events.emit(
                "client.call",
                op=op,
                actor=f"client:{self.host}:{self.port}",
                duration=time.perf_counter() - started,
                detail={"method": method, "replayed": bool(reply.get("replayed"))},
            )
        return reply.get("result")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        self._disconnect()

    def __enter__(self: _Client) -> _Client:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def ping(self) -> bool:
        return self._call("ping", {}) == "pong"
