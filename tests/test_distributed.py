"""Tests for repro.distributed: store server, remote client, fleet drains.

Covers the wire protocol (framing, addressing, auth, structured errors),
RemoteStore/ExperimentStore behavioural parity, the op-id request-dedup
guard that makes client retries safe, claim atomicity under concurrent
remote clients, SIGKILL'd remote workers being reclaimed+resumed, server
restart with reconnecting clients, and the acceptance property: a grid
drained entirely over TCP exports the same tables as a local drain.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import socket
import subprocess
import sys
import textwrap
import threading
from typing import Any, Callable

import pytest

import repro
from repro.distributed import (
    RemoteStore,
    StoreConnectionError,
    StoreProtocol,
    StoreServer,
    open_store,
)
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    AuthError,
    ConnectionClosed,
    FrameError,
    RemoteOperationError,
    format_address,
    is_remote_target,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.observability import metrics
from repro.orchestration import ExperimentStore, run_pool, run_workers
from repro.orchestration.cache import clear_memo, deactivate_cache
from repro.orchestration.export import export_experiment
from repro.orchestration.planner import plan
from repro.orchestration.runner import populate
from repro.service import SCHEDULE_PROTOCOL_VERSION, ScheduleClient

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(autouse=True)
def _isolated_cache():
    clear_memo()
    deactivate_cache()
    yield
    clear_memo()
    deactivate_cache()


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "fleet.db"


@pytest.fixture
def server(db_path):
    with StoreServer(db_path, port=0).start() as srv:
        yield srv


@pytest.fixture
def remote(server):
    with RemoteStore(server.url) as store:
        yield store


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ----------------------------------------------------------------------
# Protocol: addressing and framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_address_forms(self):
        assert parse_address("tcp://10.0.0.5:7000") == ("10.0.0.5", 7000)
        assert parse_address("10.0.0.5:7000") == ("10.0.0.5", 7000)
        assert parse_address("myhost") == ("myhost", 7479)  # default port
        assert parse_address("tcp://[::1]:7000") == ("::1", 7000)

    @pytest.mark.parametrize(
        "bad", ["", ":7000", "host:", "host:notaport", "host:0", "host:70000"]
    )
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_format_address_round_trips(self):
        assert parse_address(format_address("::1", 7000)) == ("::1", 7000)
        assert format_address("10.0.0.5", 7000) == "tcp://10.0.0.5:7000"

    def test_is_remote_target(self, tmp_path):
        assert is_remote_target("tcp://host:1")
        assert not is_remote_target(str(tmp_path / "x.db"))
        assert not is_remote_target(tmp_path / "x.db")

    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            payload = {"id": 1, "method": "ping", "params": {"text": "uniçode"}}
            send_frame(a, payload)
            assert recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises_connection_closed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_announced_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 30).to_bytes(4, "big"))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Server: dispatch, auth, structured errors
# ----------------------------------------------------------------------
class TestServer:
    def test_unknown_method_is_structured_error(self, server):
        reply = server.dispatch({"id": 7, "method": "drop_tables", "params": {}})
        assert reply["id"] == 7
        assert reply["error"]["type"] == "UnknownMethod"

    def test_private_store_attributes_are_not_callable(self, server):
        reply = server.dispatch({"id": 1, "method": "_set_state", "params": {}})
        assert reply["error"]["type"] == "UnknownMethod"

    def test_store_exception_becomes_error_reply_and_connection_survives(
        self, server
    ):
        with RemoteStore(server.url) as store:
            with pytest.raises(RemoteOperationError) as excinfo:
                store._call("complete", {"row_id": "x"})  # missing required args
            assert excinfo.value.type == "TypeError"
            assert store.ping()  # same connection still serves requests

    def test_token_auth(self, db_path):
        with StoreServer(db_path, port=0, token="sekrit").start() as srv:
            with pytest.raises(RemoteOperationError) as excinfo:
                RemoteStore(srv.url)  # no token
            assert excinfo.value.type == "AuthError"
            with pytest.raises(RemoteOperationError):
                RemoteStore(srv.url, token="wrong")
            with RemoteStore(srv.url, token="sekrit") as store:
                assert store.ping()

    def test_non_ascii_token_is_compared_not_crashed(self, db_path):
        """compare_digest refuses non-ASCII str operands; the server must
        compare bytes so a unicode secret authenticates and a mismatch is a
        clean AuthError instead of a dead handler thread."""
        with StoreServer(db_path, port=0, token="café").start() as srv:
            with pytest.raises(RemoteOperationError) as excinfo:
                RemoteStore(srv.url, token="wrong")
            assert excinfo.value.type == "AuthError"
            with RemoteStore(srv.url, token="café") as store:
                assert store.ping()

    def test_oversized_reply_is_a_structured_error_not_a_dead_connection(
        self, db_path, monkeypatch
    ):
        """A reply over the frame ceiling must fail that one call with a
        ReplyError (the client would otherwise retry into the same wall and
        misreport an application-size problem as a network failure)."""
        import repro.distributed.protocol as proto

        with StoreServer(db_path, port=0).start() as srv:
            with RemoteStore(srv.url) as store:
                store.add_rows("dummy", [{"x": "y" * 200}])
                monkeypatch.setattr(proto, "MAX_FRAME_BYTES", 300)
                with pytest.raises(RemoteOperationError) as excinfo:
                    store.fetch_rows("dummy")
                assert excinfo.value.type == "ReplyError"
                assert store.ping()  # the connection survived

    def test_protocol_version_mismatch_fails_at_connect(self, remote):
        from repro.distributed.protocol import PROTOCOL_VERSION

        assert remote.store_info()["protocol"] == PROTOCOL_VERSION
        with pytest.raises(StoreConnectionError):
            remote._check_protocol({"protocol": PROTOCOL_VERSION + 1})

    def test_store_info_and_fifo_knob(self, server, remote):
        info = remote.store_info()
        assert info["fifo_every"] == 4  # the store default
        assert remote.fifo_every == 4
        with RemoteStore(server.url, fifo_every=0) as tuned:
            assert tuned.fifo_every == 0
        # The knob is server-global scheduler state: last writer won.
        assert remote.store_info()["fifo_every"] == 0

    def test_oversized_request_fails_fast_without_retry(
        self, server, remote, monkeypatch
    ):
        """An unframeable request is a local payload bug: FrameError to the
        caller immediately, not minutes of reconnect-retry ending in a
        misleading 'server unreachable'."""
        import repro.distributed.protocol as proto

        monkeypatch.setattr(proto, "MAX_FRAME_BYTES", 300)
        with pytest.raises(FrameError):
            remote.cache_put("k", "lpt", {"blob": "y" * 1000})
        assert remote.ping()  # nothing was sent; the connection is fine

    def test_serve_refuses_a_missing_store_path(self, tmp_path, capsys):
        """A typo in the served path must not start a fleet-wide no-op."""
        from repro.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(["orch", "serve", str(tmp_path / "typo.db")])

    def test_remote_workers_use_the_gentler_blocked_poll(self):
        from repro.orchestration import runner

        assert runner.REMOTE_BLOCKED_POLL_SECONDS > runner.BLOCKED_POLL_SECONDS

    def test_ipv6_bind_and_connect(self, db_path):
        try:
            probe = socket.socket(socket.AF_INET6)
            probe.bind(("::1", 0))
            probe.close()
        except OSError:
            pytest.skip("IPv6 loopback unavailable")
        with StoreServer(db_path, host="::1", port=0).start() as srv:
            assert srv.url.startswith("tcp://[::1]:")
            with RemoteStore(srv.url) as store:
                assert store.ping()

    def test_shutdown_immediately_after_start_stops_the_serve_thread(self, db_path):
        srv = StoreServer(db_path, port=0).start()
        srv.shutdown()
        assert srv._serve_thread is not None and not srv._serve_thread.is_alive()

    def test_open_store_dispatches_on_target(self, server, tmp_path):
        with open_store(server.url) as store:
            assert isinstance(store, RemoteStore)
        with open_store(tmp_path / "local.db", fifo_every=2) as store:
            assert isinstance(store, ExperimentStore)
            assert store.fifo_every == 2


# ----------------------------------------------------------------------
# RemoteStore: behavioural parity with the local store
# ----------------------------------------------------------------------
class TestRemoteStoreParity:
    def test_both_backends_satisfy_store_protocol(self, remote, tmp_path):
        assert isinstance(remote, StoreProtocol)
        with ExperimentStore(tmp_path / "local.db") as local:
            assert isinstance(local, StoreProtocol)

    def test_claim_complete_fail_cycle(self, remote):
        assert remote.add_rows("dummy", [{"x": 1}, {"x": 2}]) == 2
        assert remote.add_rows("dummy", [{"x": 1}]) == 0  # idempotent
        first = remote.claim_next("w0")
        assert first is not None and first.params == {"x": 1}
        assert remote.complete(first.id, {"y": 10}, duration=0.5, worker="w0")
        second = remote.claim_next("w0")
        assert remote.fail(second.id, "boom", duration=0.1, worker="w0")
        assert remote.claim_next("w0") is None
        assert remote.status_counts()["dummy"] == {"done": 1, "error": 1}
        rows = remote.fetch_rows("dummy")
        assert rows[0].result == {"y": 10}
        assert "boom" in rows[1].error
        assert remote.pending_count() == 0
        assert remote.experiments() == ["dummy"]

    def test_schedule_and_dependencies_round_trip(self, remote):
        from repro.orchestration import params_hash

        remote.add_rows("dummy", [{"x": i} for i in range(3)])
        hashes = [params_hash("dummy", {"x": i}) for i in range(3)]
        assert (
            remote.set_schedule(
                [("dummy", h, float(i), float(i)) for i, h in enumerate(hashes)]
            )
            == 3
        )
        assert remote.set_dependencies("dummy", hashes[2], [hashes[0]])
        assert remote.blocked_count() == 1
        blocking = remote.blocking_dependencies()
        assert blocking[0]["param_hash"] == hashes[0]
        # Highest priority first, but x=2 is gated: x=1 claims first.
        claimed = remote.claim_next("w0")
        assert claimed.params == {"x": 1}
        remote.complete(claimed.id, {}, duration=0.2)
        gate = remote.claim_next("w0")
        assert gate.params == {"x": 0}
        remote.complete(gate.id, {}, duration=0.1)
        released = remote.claim_next("w0")
        assert released.params == {"x": 2}
        # duration_samples: tuples, watermark filter works over the wire.
        samples = remote.duration_samples()
        assert [s[1]["x"] for s in samples] == [1, 0]
        assert all(isinstance(s, tuple) for s in samples)
        watermark = (samples[0][3], samples[0][4])
        assert [s[1]["x"] for s in remote.duration_samples(since=watermark)] == [0]
        assert remote.duration_history() == [
            (exp, params, duration) for exp, params, duration, _, _ in samples
        ]

    def test_replan_protocol_over_the_wire(self, remote):
        remote.add_rows("dummy", [{"x": i} for i in range(4)])
        for _ in range(2):
            row = remote.claim_next("w0")
            remote.complete(row.id, {}, duration=0.1)
        assert remote.completion_count() == 2
        round_no = remote.try_begin_replan(2)
        assert round_no == 1
        assert remote.try_begin_replan(2) is None  # single winner per round
        assert remote.replan_epoch() == 0  # not yet published
        assert remote.set_schedule([], if_replan_round=round_no) == 0
        assert remote.replan_epoch() == 1  # guarded write published it

    def test_cache_and_priors_round_trip(self, remote):
        remote.cache_put("k1", "lpt", {"makespan": 3.5})
        assert remote.cache_contains("k1") and not remote.cache_contains("k2")
        assert remote.cache_get("k1") == {"makespan": 3.5}
        assert remote.cache_get("k2") is None
        assert remote.cache_stats() == {"entries": 1, "hits": 1}
        assert remote.clear_cache() == 1
        priors = {"e3": {"samples": 5, "mean_duration": 1.5, "hint_scale": 0.1}}
        assert remote.save_cost_priors(priors) == 1
        assert remote.load_cost_priors() == priors

    def test_reset_reclaim_and_delete(self, remote):
        remote.add_rows("dummy", [{"x": 1}, {"x": 2}])
        row = remote.claim_next("w0")
        assert remote.reclaim_stale(older_than=0.0) == 1
        row = remote.claim_next("w0")
        remote.fail(row.id, "boom", duration=0.0)
        assert remote.reset(["dummy"], statuses=["error"]) == 1
        assert remote.pending_count(["dummy"]) == 2
        assert remote.delete_rows(["dummy"]) == 2
        assert remote.sync_dependencies() == 0
        assert remote.fail_blocked_on_error() == 0


# ----------------------------------------------------------------------
# Request dedup: retried mutations must not double-apply
# ----------------------------------------------------------------------
class TestRequestDedup:
    def _gated_rows(self, store) -> tuple[int, str]:
        """Two prerequisites + one dependent gated on both; returns (a1_id, b_hash)."""
        from repro.orchestration import params_hash

        store.add_rows("pre", [{"p": 1}, {"p": 2}])
        store.add_rows("dep", [{"d": 1}])
        dep_hash = params_hash("dep", {"d": 1})
        store.set_dependencies(
            "dep",
            dep_hash,
            [params_hash("pre", {"p": 1}), params_hash("pre", {"p": 2})],
        )
        a1 = store.claim_next("w0", ["pre"])
        assert a1.params == {"p": 1}
        return a1.id, dep_hash

    def test_local_store_double_complete_never_double_releases(self, tmp_path):
        """Regression pin on the raw store: the status guard alone must keep a
        doubled complete() from decrementing deps_pending twice."""
        with ExperimentStore(tmp_path / "local.db") as store:
            a1_id, _ = self._gated_rows(store)
            assert store.complete(a1_id, {}, duration=0.1) is True
            assert store.complete(a1_id, {}, duration=0.1) is False
            row = store.fetch_rows("dep")[0]
            assert row.deps_pending == 1  # one prerequisite still unfinished

    def test_replayed_complete_returns_recorded_reply_without_reexecuting(
        self, server, remote
    ):
        a1_id, _ = self._gated_rows(remote)
        request = {
            "id": 1,
            "method": "complete",
            "params": {"row_id": a1_id, "result": {}, "duration": 0.1},
            "op": "op-complete-1",
        }
        first = server.dispatch(request)
        assert first["result"] is True
        replay = server.dispatch({**request, "id": 2})
        assert replay["result"] is True  # the recorded reply, not landed=False
        assert replay.get("replayed") is True
        assert remote.fetch_rows("dep")[0].deps_pending == 1

    def test_replayed_claim_returns_the_same_row(self, server, remote):
        remote.add_rows("dummy", [{"x": 1}, {"x": 2}])
        request = {
            "id": 1,
            "method": "claim_next",
            "params": {"worker": "w0"},
            "op": "op-claim-1",
        }
        first = server.dispatch(request)["result"]
        replay = server.dispatch({**request, "id": 2})
        assert replay["result"] == first  # not a second row
        assert replay.get("replayed") is True
        assert remote.pending_count() == 1  # the other row is still pending

    def test_replayed_reclaim_cannot_steal_a_reclaimed_row(self, server, remote):
        """A timed-out reclaim retried after another worker re-claimed the row
        must replay its recorded result instead of stealing the new claim."""
        remote.add_rows("dummy", [{"x": 1}])
        remote.claim_next("w-dead")
        request = {
            "id": 1,
            "method": "reclaim_stale",
            "params": {"older_than": 0.0},
            "op": "op-reclaim-1",
        }
        assert server.dispatch(request)["result"] == 1
        fresh = remote.claim_next("w-alive")
        assert fresh is not None
        replay = server.dispatch({**request, "id": 2})
        assert replay["result"] == 1 and replay.get("replayed") is True
        row = remote.fetch_rows("dummy")[0]
        assert row.status == "running" and row.worker == "w-alive"

    def test_errors_are_not_recorded_for_replay(self, server):
        request = {
            "id": 1,
            "method": "complete",
            "params": {"row_id": 1},  # missing duration: TypeError
            "op": "op-err-1",
        }
        assert server.dispatch(request)["error"]["type"] == "TypeError"
        replay = server.dispatch({**request, "id": 2})
        assert replay["error"]["type"] == "TypeError"
        assert "replayed" not in replay  # re-executed, not replayed


# ----------------------------------------------------------------------
# The shared client transport, against a scripted server
# ----------------------------------------------------------------------
class _ScriptedServer:
    """A socket server that serves one connection at a time, by script.

    ``script(request)`` returns the reply frame, or ``None`` to drop the
    connection unanswered (a lost reply).  Every request is recorded as
    ``(connection number, request)``.
    """

    def __init__(self, script: Callable[[dict], dict | None]) -> None:
        self._script = script
        self.requests: list[tuple[int, dict]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = format_address(*self._listener.getsockname()[:2])
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        connection = 0
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(10)
                while True:
                    try:
                        request = recv_frame(conn)
                    except (ConnectionClosed, FrameError, OSError):
                        break
                    self.requests.append((connection, request))
                    reply = self._script(request)
                    if reply is None:
                        break
                    send_frame(conn, reply)
            connection += 1

    def calls(self, method: str) -> list[tuple[int, dict]]:
        return [(conn, req) for conn, req in self.requests if req["method"] == method]

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=15)
        self._listener.close()
        assert not self._thread.is_alive()


@dataclasses.dataclass(frozen=True)
class _ClientCase:
    client: Callable[..., Any]
    results: dict[str, Any]  # the scripted server's answer, per method
    mutating: str
    mutate: Callable[[Any, dict], Any]  # (client, extra payload) -> result
    read: Callable[[Any], Any]

    def open(self, server: _ScriptedServer) -> Any:
        return self.client(server.url, timeout=5.0, retry_delay=0.01)


_CLIENT_CASES = [
    pytest.param(
        _ClientCase(
            client=RemoteStore,
            results={
                "store_info": {"protocol": PROTOCOL_VERSION, "fifo_every": 4},
                "complete": True,
                "pending_count": 3,
                "ping": "pong",
            },
            mutating="complete",
            mutate=lambda client, extra: client.complete(1, extra, duration=0.0),
            read=lambda client: client.pending_count(),
        ),
        id="RemoteStore",
    ),
    pytest.param(
        _ClientCase(
            client=ScheduleClient,
            results={
                "schedule_info": {"protocol": SCHEDULE_PROTOCOL_VERSION},
                "submit": {"makespan": 1.0},
                "ping": "pong",
            },
            mutating="submit",
            mutate=lambda client, extra: client.submit(extra),
            read=lambda client: client.info(),
        ),
        id="ScheduleClient",
    ),
]


def _error(error_type: str) -> Callable[[dict], dict]:
    return lambda request: {
        "id": request["id"],
        "error": {"type": error_type, "message": "scripted"},
    }


class TestClientTransport:
    """RpcClient's retry rules, seen on the wire through both clients."""

    @pytest.fixture(params=_CLIENT_CASES)
    def case(self, request) -> _ClientCase:
        return request.param

    @pytest.fixture
    def serve(self, case):
        """Start a scripted server: ``first`` answers the first mutating call."""
        servers: list[_ScriptedServer] = []

        def start(first: Callable[[dict], Any] | None = None) -> _ScriptedServer:
            pending = [first] if first is not None else []

            def script(request: dict) -> dict | None:
                if request["method"] == case.mutating and pending:
                    return pending.pop()(request)
                return {"id": request["id"], "result": case.results[request["method"]]}

            servers.append(_ScriptedServer(script))
            return servers[-1]

        yield start
        for server in servers:
            server.close()

    def test_lost_reply_is_resent_with_the_same_op_id(self, case, serve):
        server = serve(first=lambda request: None)
        retries = f"{case.client.metrics_prefix}.retries"
        before = metrics.snapshot()["counters"].get(retries, 0)
        with case.open(server) as client:
            case.read(client)
            assert case.mutate(client, {}) == case.results[case.mutating]
            (first_conn, first), (second_conn, second) = server.calls(case.mutating)
            assert second_conn > first_conn
            assert first["op"] == second["op"] == client.last_op
        assert metrics.snapshot()["counters"][retries] == before + 1
        reads = [r for _, r in server.requests if r["method"] != case.mutating]
        assert len(reads) == 2  # the connect-time info call and the read
        assert all("op" not in request for request in reads)

    def test_server_closed_reply_reconnects_and_retries(self, case, serve):
        server = serve(first=_error("ServerClosed"))
        with case.open(server) as client:
            assert case.mutate(client, {}) == case.results[case.mutating]
        (first_conn, first), (second_conn, second) = server.calls(case.mutating)
        assert second_conn > first_conn and first["op"] == second["op"]

    def test_reply_with_the_wrong_id_is_dropped_and_retried(self, case, serve):
        server = serve(first=lambda request: {"id": request["id"] + 1, "result": None})
        with case.open(server) as client:
            assert case.mutate(client, {}) == case.results[case.mutating]
        (first_conn, first), (second_conn, second) = server.calls(case.mutating)
        assert second_conn > first_conn and first["op"] == second["op"]

    def test_auth_error_gets_exactly_one_attempt(self, case, serve):
        server = serve(first=_error("AuthError"))
        with case.open(server) as client:
            with pytest.raises(AuthError):
                case.mutate(client, {})
        assert len(server.calls(case.mutating)) == 1

    @staticmethod
    def _record_sockets(monkeypatch) -> list[socket.socket]:
        """Keep every socket the clients' ``knock`` opens."""
        import repro.distributed.rpc as rpc

        sockets: list[socket.socket] = []
        knock = rpc.knock

        def recording_knock(*args, **kwargs):
            sockets.append(knock(*args, **kwargs))
            return sockets[-1]

        monkeypatch.setattr(rpc, "knock", recording_knock)
        return sockets

    def test_failed_handshake_closes_the_socket(self, case, monkeypatch):
        sockets = self._record_sockets(monkeypatch)
        server = _ScriptedServer(_error("AuthError"))
        try:
            with pytest.raises(AuthError):
                case.open(server)
            assert [sock.fileno() for sock in sockets] == [-1]
        finally:
            for sock in sockets:
                sock.close()
            server.close()

    def test_failed_set_fifo_every_closes_the_socket(self, monkeypatch):
        sockets = self._record_sockets(monkeypatch)

        def script(request: dict) -> dict:
            if request["method"] == "set_fifo_every":
                return _error("ValueError")(request)
            return {"id": request["id"], "result": {"protocol": PROTOCOL_VERSION}}

        server = _ScriptedServer(script)
        try:
            with pytest.raises(RemoteOperationError):
                RemoteStore(server.url, fifo_every=3, timeout=5.0, retry_delay=0.01)
            assert [sock.fileno() for sock in sockets] == [-1]
        finally:
            for sock in sockets:
                sock.close()
            server.close()

    def test_oversized_request_raises_frame_error_with_nothing_sent(
        self, case, serve, monkeypatch
    ):
        import repro.distributed.protocol as proto

        server = serve()
        with case.open(server) as client:
            monkeypatch.setattr(proto, "MAX_FRAME_BYTES", 300)
            with pytest.raises(FrameError):
                case.mutate(client, {"blob": "y" * 1000})
            assert client.ping()
        assert server.calls(case.mutating) == []
        assert {conn for conn, _ in server.requests} == {0}  # no reconnect


# ----------------------------------------------------------------------
# Concurrency and fleet behaviour
# ----------------------------------------------------------------------
class TestFleet:
    def test_concurrent_remote_clients_claim_each_row_exactly_once(self, server):
        num_rows, num_clients = 40, 6
        with RemoteStore(server.url) as seeder:
            seeder.add_rows("dummy", [{"x": i} for i in range(num_rows)])
        claimed: list[int] = []
        lock = threading.Lock()

        def client(tag: str) -> None:
            with RemoteStore(server.url) as store:
                while True:
                    row = store.claim_next(tag)
                    if row is None:
                        return
                    with lock:
                        claimed.append(row.params["x"])
                    store.complete(row.id, {"ok": True}, duration=0.0)

        threads = [
            threading.Thread(target=client, args=(f"w{i}",)) for i in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == list(range(num_rows))  # no dupes, no gaps

    def test_two_remote_worker_processes_drain_the_smoke_grid(self, db_path, server):
        with ExperimentStore(db_path) as store:
            populate(store, ["smoke"], quick=True, seed=0)
        report = run_workers(server.url, ["smoke"], workers=2, stale_after=0.0)
        assert report.done == 4 and report.errors == 0
        with RemoteStore(server.url) as remote:
            assert remote.status_counts()["smoke"] == {"done": 4}

    def test_sigkilled_remote_worker_is_reclaimed_and_resumed(self, db_path, server):
        with ExperimentStore(db_path) as store:
            populate(store, ["smoke"], quick=True, seed=0)
        # A worker on "another machine": claims one row over TCP, then dies
        # mid-cell without completing or releasing anything.
        script = textwrap.dedent(
            f"""
            import json, os, signal, sys
            from repro.distributed import RemoteStore
            store = RemoteStore({server.url!r})
            row = store.claim_next("doomed")
            print(json.dumps(row.params), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        doomed = subprocess.run(
            [sys.executable, "-c", script],
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert doomed.returncode == -signal.SIGKILL
        orphan_params = json.loads(doomed.stdout)
        with RemoteStore(server.url) as remote:
            assert remote.status_counts()["smoke"]["running"] == 1
        # The next fleet attach reclaims the orphan and finishes everything.
        report = run_workers(server.url, ["smoke"], workers=1, stale_after=0.0)
        assert report.reclaimed == 1
        assert report.done == 4 and report.errors == 0
        with RemoteStore(server.url) as remote:
            rows = remote.fetch_rows("smoke")
            assert all(row.status == "done" for row in rows)
            by_index = {row.params["index"]: row for row in rows}
            assert by_index[orphan_params["index"]].attempts == 2

    def test_client_reconnects_across_server_restart(self, db_path):
        first = StoreServer(db_path, port=0).start()
        host, port = first.address
        with ExperimentStore(db_path) as store:
            store.add_rows("dummy", [{"x": 1}])
        client = RemoteStore(first.url, retry_delay=0.05)
        assert client.pending_count() == 1
        first.shutdown()
        # Same port, new server process-equivalent; the client's next call
        # reconnects and retries transparently.
        with StoreServer(db_path, host=host, port=port).start():
            assert client.pending_count() == 1
            row = client.claim_next("w0")
            assert client.complete(row.id, {"ok": True}, duration=0.1)
        client.close()

    def test_run_pool_rejects_remote_targets(self):
        """Path(tcp://…) would silently create a local 'tcp:' directory and
        drain a brand-new empty store; run_pool must refuse instead."""
        with pytest.raises(ValueError, match="run_workers"):
            run_pool("tcp://127.0.0.1:1", ["smoke"], workers=1)

    def test_unreachable_server_raises_store_connection_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(StoreConnectionError):
            RemoteStore(
                f"tcp://127.0.0.1:{free_port}",
                connect_timeout=0.2,
                retries=0,
                retry_delay=0.01,
            )


# ----------------------------------------------------------------------
# Acceptance: remote drain == local drain
# ----------------------------------------------------------------------
# Figures derived from measured wall-clock durations (claim-order agreement
# percentages, estimate/actual accuracy ratios): identical in *structure*
# across drains, but their values depend on how long cells actually took.
_MEASURED_FIGURES = [
    # \\? : the LaTeX renderer escapes the percent sign.
    (re.compile(r"claim-order agreement \d+\\?%"), "claim-order agreement N%"),
    (re.compile(r": [0-9.eE+-]+x \(n="), ": Rx (n="),
]


def _normalise_measured(text: str) -> str:
    for pattern, replacement in _MEASURED_FIGURES:
        text = pattern.sub(replacement, text)
    return text


class TestRemoteLocalEquivalence:
    def test_export_over_connect_matches_local_export_byte_for_byte(
        self, db_path, server
    ):
        """Reading one store remotely vs locally must be byte-identical."""
        run_pool(db_path, ["smoke"], workers=1, quick=True, seed=0)
        with ExperimentStore(db_path) as local:
            direct = export_experiment(local, "smoke", "markdown", quick=True, seed=0)
        with RemoteStore(server.url) as remote:
            over_wire = export_experiment(remote, "smoke", "markdown", quick=True, seed=0)
        assert over_wire == direct

    def test_remote_drain_exports_identical_tables_to_local_drain(self, tmp_path):
        """Seed two identical stores; drain one purely over TCP (replanning
        on), the other locally.  Every export byte must match except the
        wall-clock-derived figures (masked, see _MEASURED_FIGURES) — same
        rows, same notes, same re-plan epoch structure."""
        kwargs = dict(quick=True, seed=0, workers=1)
        exports = {}
        for mode in ("remote", "local"):
            # Real drains are separate processes; without this the second
            # drain would hit the first one's in-process memo.
            clear_memo()
            db = tmp_path / f"{mode}.db"
            with ExperimentStore(db) as store:
                plan(store, ["smoke"], **kwargs)
            if mode == "remote":
                with StoreServer(db, port=0).start() as srv:
                    report = run_workers(
                        srv.url, ["smoke"], workers=1, stale_after=0.0, replan_every=2
                    )
            else:
                report = run_pool(
                    db,
                    ["smoke"],
                    workers=1,
                    quick=True,
                    seed=0,
                    stale_after=0.0,
                    replan_every=2,
                )
            assert report.done == 4 and report.errors == 0
            assert report.replans >= 1  # re-planning fired in both drains
            with ExperimentStore(db) as store:
                epochs = sorted(row.epoch for row in store.fetch_rows("smoke"))
                for fmt in ("text", "markdown", "csv", "latex"):
                    exports[mode, fmt] = export_experiment(
                        store, "smoke", fmt, quick=True, seed=0
                    )
            assert epochs[-1] >= 1  # some rows were claimed under a re-plan epoch
        for fmt in ("text", "markdown", "csv", "latex"):
            remote_text = _normalise_measured(exports["remote", fmt])
            local_text = _normalise_measured(exports["local", fmt])
            assert remote_text == local_text
            assert "re-plan epoch" in exports["remote", fmt] or fmt == "csv"
