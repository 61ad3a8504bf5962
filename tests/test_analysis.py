"""Battery for ``repro.analysis``: the invariant linter and the race checker.

Every lint rule gets (at least) one known-bad fixture it must flag and one
known-good fixture it must pass — the fixtures are miniature versions of
the real code shapes each rule polices, written to a tmp tree and linted
through the public ``lint_paths`` entry point.  The race-checker half
includes a deliberately seeded lock-order inversion (the pool/fabric bug
class) that the checker must catch, plus the store thread-confinement
contract in both its legal and illegal forms.

The repo itself must lint clean: ``test_repository_lints_clean`` is the
same gate CI runs via ``repro lint``.
"""

from __future__ import annotations

import json
import textwrap
import threading
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_paths, lint_project, racecheck
from repro.cli import main as cli_main
from repro.orchestration import ExperimentStore

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippets(tmp_path: Path, **files: str) -> list:
    """Write fixture modules and lint them.

    Each keyword is a module path with ``__`` for ``/`` and no extension:
    ``bad`` -> ``bad.py``, ``orchestration__store`` ->
    ``orchestration/store.py`` (some rules scope themselves by path).
    """
    for name, source in files.items():
        path = tmp_path / (name.replace("__", "/") + ".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], root=tmp_path)


def rule_ids(findings) -> set[str]:
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# Rule inventory
# ----------------------------------------------------------------------
class TestRuleInventory:
    def test_at_least_ten_distinct_rules(self):
        ids = [rule.id for rule in RULES]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 10

    def test_every_rule_has_a_summary_and_a_checker(self):
        for rule in RULES:
            assert rule.summary
            assert callable(rule.check_module)


# ----------------------------------------------------------------------
# wire-op-id
# ----------------------------------------------------------------------
class TestWireOpId:
    def test_mutating_payload_without_op_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            def call(sock):
                payload = {"id": 1, "method": "complete", "params": {}}
                return payload
            """,
        )
        assert "wire-op-id" in rule_ids(findings)

    def test_payload_threading_op_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            def call(sock, op_id):
                payload = {"id": 1, "method": "complete", "params": {}}
                payload["op"] = op_id
                return payload
            """,
        )
        assert "wire-op-id" not in rule_ids(findings)

    def test_inline_op_key_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            def call(op_id):
                return {"id": 1, "method": "solve", "op": op_id, "params": {}}
            """,
        )
        assert "wire-op-id" not in rule_ids(findings)

    def test_read_only_constant_method_exempt(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            def probe():
                return {"id": 0, "method": "ping", "params": {}}
            """,
        )
        assert "wire-op-id" not in rule_ids(findings)

    def test_module_level_mutating_payload_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            PAYLOAD = {"id": 1, "method": "submit", "params": {}}
            """,
        )
        assert "wire-op-id" in rule_ids(findings)


# ----------------------------------------------------------------------
# sqlite-connect
# ----------------------------------------------------------------------
class TestSqliteConnect:
    def test_stray_connect_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            import sqlite3

            conn = sqlite3.connect("side.db")
            """,
        )
        assert "sqlite-connect" in rule_ids(findings)

    def test_from_import_alias_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            from sqlite3 import connect as open_db

            conn = open_db("side.db")
            """,
        )
        assert "sqlite-connect" in rule_ids(findings)

    def test_store_module_is_the_sanctioned_home(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            orchestration__store="""
            import sqlite3

            conn = sqlite3.connect("the-store.db")
            """,
        )
        assert "sqlite-connect" not in rule_ids(findings)


# ----------------------------------------------------------------------
# raw-socket-send
# ----------------------------------------------------------------------
class TestRawSocketSend:
    def test_sendall_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            def push(sock, frame):
                sock.sendall(frame)
            """,
        )
        assert "raw-socket-send" in rule_ids(findings)

    def test_send_on_socket_named_receiver_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            def push(client_sock, frame):
                client_sock.send(frame)
            """,
        )
        assert "raw-socket-send" in rule_ids(findings)

    def test_protocol_module_is_the_sanctioned_home(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            distributed__protocol="""
            def send_encoded(sock, frame):
                sock.sendall(frame)
            """,
        )
        assert "raw-socket-send" not in rule_ids(findings)

    def test_pipe_send_not_a_socket(self, tmp_path):
        # multiprocessing.Pipe endpoints also have .send(); only receivers
        # that look like sockets are the framing hazard.
        findings = lint_snippets(
            tmp_path,
            good="""
            def push(pipe, item):
                pipe.send(item)
            """,
        )
        assert "raw-socket-send" not in rule_ids(findings)


# ----------------------------------------------------------------------
# cache-owned-close
# ----------------------------------------------------------------------
class TestCacheOwnedClose:
    def test_unguarded_close_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            _active = None
            _active_owned = False

            def deactivate():
                global _active
                if _active is not None:
                    _active.close()
                _active = None
            """,
        )
        assert "cache-owned-close" in rule_ids(findings)

    def test_ownership_guarded_close_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            _active = None
            _active_owned = False

            def deactivate():
                global _active
                if _active is not None and _active_owned:
                    _active.close()
                _active = None
            """,
        )
        assert "cache-owned-close" not in rule_ids(findings)

    def test_modules_without_the_convention_are_out_of_scope(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            def shutdown(store):
                store.close()
            """,
        )
        assert "cache-owned-close" not in rule_ids(findings)


# ----------------------------------------------------------------------
# reparent-watch
# ----------------------------------------------------------------------
class TestReparentWatch:
    def test_target_without_getppid_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            from multiprocessing import Process

            def _server_main(port):
                while True:
                    serve_one(port)

            def spawn(port):
                proc = Process(target=_server_main, args=(port,))
                proc.start()
                return proc
            """,
        )
        assert "reparent-watch" in rule_ids(findings)

    def test_target_with_reparent_watch_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            import os
            from multiprocessing import Process

            def _server_main(port, parent):
                while os.getppid() == parent:
                    serve_one(port)

            def spawn(port):
                proc = Process(target=_server_main, args=(port, os.getpid()))
                proc.start()
                return proc
            """,
        )
        assert "reparent-watch" not in rule_ids(findings)

    def test_unresolvable_target_flagged_as_unverifiable(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            from multiprocessing import Process

            def spawn(fn):
                return Process(target=lambda: fn())
            """,
        )
        assert "reparent-watch" in rule_ids(findings)


# ----------------------------------------------------------------------
# wall-clock-key
# ----------------------------------------------------------------------
class TestWallClockKey:
    def test_time_in_cache_key_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            import time

            def cache_key(blob):
                return f"{blob}-{time.time()}"
            """,
        )
        assert "wall-clock-key" in rule_ids(findings)

    def test_datetime_now_in_fingerprint_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            from datetime import datetime

            def backend_fingerprint(spec):
                return f"{spec}@{datetime.now()}"
            """,
        )
        assert "wall-clock-key" in rule_ids(findings)

    def test_pure_content_key_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            import hashlib

            def cache_key(blob):
                return hashlib.sha256(blob.encode()).hexdigest()
            """,
        )
        assert "wall-clock-key" not in rule_ids(findings)

    def test_wall_clock_outside_key_functions_is_fine(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            import time

            def log_event(message):
                return (time.time(), message)
            """,
        )
        assert "wall-clock-key" not in rule_ids(findings)


# ----------------------------------------------------------------------
# telemetry-json
# ----------------------------------------------------------------------
class TestTelemetryJson:
    def test_non_json_field_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            from dataclasses import dataclass, field

            @dataclass
            class PoolTelemetry:
                solves: int = 0
                seen: set[str] = field(default_factory=set)
            """,
        )
        assert "telemetry-json" in rule_ids(findings)

    def test_json_safe_fields_pass(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            from dataclasses import dataclass, field

            @dataclass
            class PoolTelemetry:
                solves: int = 0
                mean_wire_s: float | None = None
                endpoints: dict[str, int] = field(default_factory=dict)
                notes: list[str] = field(default_factory=list)
            """,
        )
        assert "telemetry-json" not in rule_ids(findings)

    def test_non_telemetry_dataclasses_out_of_scope(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            from dataclasses import dataclass

            @dataclass
            class Endpoint:
                sock: object
                peers: set[str]
            """,
        )
        assert "telemetry-json" not in rule_ids(findings)

    def test_non_numeric_metric_literal_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            from repro.observability import metrics

            def record():
                metrics.counter("rpc.requests", "1")
                metrics.gauge("queue.depth", None)
                metrics.observe("latency", [0.1, 0.2])
            """,
        )
        flagged = [f for f in findings if f.rule == "telemetry-json"]
        assert len(flagged) == 3

    def test_bare_imported_emitters_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            from repro.observability.metrics import counter, observe

            def record():
                counter("a", value="oops")
                observe("b", f"{1}")
            """,
        )
        flagged = [f for f in findings if f.rule == "telemetry-json"]
        assert len(flagged) == 2

    def test_numeric_metric_values_pass(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            from repro.observability import metrics

            def record(elapsed: float, n: int):
                metrics.counter("rpc.requests")
                metrics.counter("rpc.bytes", 1024)
                metrics.gauge("depth", n)
                metrics.gauge_add("busy", -1)
                metrics.observe("latency", elapsed)
            """,
        )
        assert "telemetry-json" not in rule_ids(findings)

    def test_unrelated_receivers_out_of_scope(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            class Tally:
                def counter(self, name, note):
                    ...

            def record(tally: Tally):
                tally.counter("x", "free-text note")  # not a metrics registry
            """,
        )
        assert "telemetry-json" not in rule_ids(findings)


# ----------------------------------------------------------------------
# claim-pairing
# ----------------------------------------------------------------------
class TestClaimPairing:
    def test_claim_without_settlement_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            def drain_one(store):
                row = store.claim_next("worker", ["exp"])
                return row
            """,
        )
        assert "claim-pairing" in rule_ids(findings)

    def test_claim_with_complete_and_fail_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            def drain_one(store):
                row = store.claim_next("worker", ["exp"])
                if row is None:
                    return None
                try:
                    store.complete(row.id, run(row))
                except Exception as exc:
                    store.fail(row.id, str(exc))
                return row
            """,
        )
        assert "claim-pairing" not in rule_ids(findings)

    def test_reclaim_story_also_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            def resume(store):
                store.reclaim_stale()
                return store.claim_next("worker", ["exp"])
            """,
        )
        assert "claim-pairing" not in rule_ids(findings)


# ----------------------------------------------------------------------
# dispatch-except
# ----------------------------------------------------------------------
class TestDispatchExcept:
    def test_swallowing_handler_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            class StoreRpcServer(RpcServer):
                def loop(self):
                    try:
                        self.dispatch_one()
                    except Exception:
                        pass
            """,
        )
        assert "dispatch-except" in rule_ids(findings)

    def test_error_reply_handler_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            class StoreRpcServer(RpcServer):
                def loop(self):
                    try:
                        self.dispatch_one()
                    except Exception as exc:
                        return error_reply(1, type(exc).__name__, str(exc))
            """,
        )
        assert "dispatch-except" not in rule_ids(findings)

    def test_reraising_handler_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            class StoreRpcServer(RpcServer):
                def loop(self):
                    try:
                        self.dispatch_one()
                    except Exception:
                        self.log()
                        raise
            """,
        )
        assert "dispatch-except" not in rule_ids(findings)

    def test_non_server_classes_out_of_scope(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            class BestEffortReporter:
                def flush(self):
                    try:
                        self.emit()
                    except Exception:
                        pass
            """,
        )
        assert "dispatch-except" not in rule_ids(findings)


# ----------------------------------------------------------------------
# store-thread
# ----------------------------------------------------------------------
class TestStoreThread:
    def test_waiver_without_serializer_flagged(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            class Service:
                def __init__(self, path):
                    self._store = ExperimentStore(path, check_same_thread=False)
            """,
        )
        assert "store-thread" in rule_ids(findings)

    def test_store_lock_serializer_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            import threading

            class Service:
                def __init__(self, path):
                    self._store_lock = threading.RLock()
                    self._store = ExperimentStore(path, check_same_thread=False)
            """,
        )
        assert "store-thread" not in rule_ids(findings)

    def test_serialize_dispatch_passes(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            class StoreServer:
                serialize_dispatch = True

                def __init__(self, path):
                    self._store = ExperimentStore(path, check_same_thread=False)
            """,
        )
        assert "store-thread" not in rule_ids(findings)

    def test_thread_confined_store_needs_no_serializer(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            def open_store(path):
                return ExperimentStore(path)
            """,
        )
        assert "store-thread" not in rule_ids(findings)


# ----------------------------------------------------------------------
# Suppression + project gate + CLI
# ----------------------------------------------------------------------
class TestLintFramework:
    def test_inline_suppression_silences_one_rule(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            import sqlite3

            conn = sqlite3.connect("side.db")  # repro-lint: disable=sqlite-connect
            """,
        )
        assert "sqlite-connect" not in rule_ids(findings)

    def test_suppression_on_preceding_line(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            good="""
            import sqlite3

            # repro-lint: disable=all
            conn = sqlite3.connect("side.db")
            """,
        )
        assert not findings

    def test_suppression_is_rule_scoped(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            bad="""
            import sqlite3

            conn = sqlite3.connect("side.db")  # repro-lint: disable=wire-op-id
            """,
        )
        assert "sqlite-connect" in rule_ids(findings)

    def test_syntax_errors_are_skipped_not_fatal(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            broken="""
            def oops(:
            """,
            bad="""
            import sqlite3

            conn = sqlite3.connect("side.db")
            """,
        )
        assert "sqlite-connect" in rule_ids(findings)

    def test_repository_lints_clean(self):
        """The gate CI runs: the repo's own source has zero findings."""
        assert lint_project(REPO_ROOT) == []

    def test_cli_lint_reports_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import sqlite3\nconn = sqlite3.connect('x.db')\n")
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "sqlite-connect" in out

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out


# ----------------------------------------------------------------------
# Race checker: lock ordering
# ----------------------------------------------------------------------
@pytest.fixture
def rc():
    """A racecheck session that always leaves global state clean."""
    with racecheck.session():
        yield racecheck
    racecheck.reset()


class TestLockOrder:
    def test_seeded_lock_inversion_is_caught(self, rc):
        """The deliberate inversion: nest A->B, then B->A must raise.

        This is the shape of the real pool/fabric deadlock this PR fixed —
        the fabric acquired pool-under-fabric while the pool's manager
        settled futures (whose callbacks take the fabric lock) under the
        pool lock.
        """
        lock_a = rc.tracked_lock("test.fabric")
        lock_b = rc.tracked_lock("test.pool")
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with pytest.raises(racecheck.LockOrderViolation):
                lock_a.acquire()
        assert rc.violations()

    def test_inversion_across_threads_is_caught(self, rc):
        """Name-level tracking: thread 1 nests A->B, thread 2 nests B->A.

        The two threads never contend — each pair is acquired and released
        in sequence — yet the *order graph* has the cycle, which is exactly
        the latent deadlock lockdep-style checking exists to find."""
        lock_a = rc.tracked_lock("test.dispatch")
        lock_b = rc.tracked_lock("test.memo")

        def forward():
            with lock_a:
                with lock_b:
                    pass

        thread = threading.Thread(target=forward)
        thread.start()
        thread.join()
        with lock_b:
            with pytest.raises(racecheck.LockOrderViolation):
                lock_a.acquire()

    def test_consistent_order_passes(self, rc):
        lock_a = rc.tracked_lock("test.outer")
        lock_b = rc.tracked_lock("test.inner")
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        assert not rc.violations()

    def test_reentrant_same_class_is_not_an_edge(self, rc):
        lock = rc.tracked_rlock("test.reentrant")
        with lock:
            with lock:
                pass
        assert not rc.violations()
        assert list(rc.iter_edges()) == []

    def test_condition_built_on_tracked_lock(self, rc):
        cond = rc.tracked_condition("test.cond")
        with cond:
            cond.wait(timeout=0.01)
            cond.notify_all()
        assert not rc.violations()

    def test_disabled_factories_return_plain_primitives(self, monkeypatch):
        monkeypatch.delenv(racecheck.ENV_RACECHECK, raising=False)
        racecheck.disable()
        assert not hasattr(racecheck.tracked_lock("x"), "name")
        assert not hasattr(racecheck.tracked_rlock("x"), "name")


# ----------------------------------------------------------------------
# Race checker: edge dumps (CI artifacts)
# ----------------------------------------------------------------------
class TestRacecheckDump:
    def _seed_edges(self, rc):
        lock_a = rc.tracked_lock("test.outer")
        lock_b = rc.tracked_lock("test.inner")
        with lock_a:
            with lock_b:
                pass

    def test_dump_edges_writes_json(self, rc, tmp_path):
        self._seed_edges(rc)
        out = tmp_path / "edges.json"
        count = racecheck.dump_edges(out)
        assert count >= 1
        payload = json.loads(out.read_text())
        assert ["test.outer", "test.inner"] in payload["edges"]
        assert payload["violations"] == []

    def test_edges_to_dot(self):
        dot = racecheck.edges_to_dot([("a", "b"), ("a", "b"), ("b", "c")])
        assert dot.startswith("digraph lock_order {")
        # Duplicate edges collapse to one arrow.
        assert dot.count('"a" -> "b";') == 1
        assert '"b" -> "c";' in dot

    def test_cli_round_trips_dump_to_dot(self, rc, tmp_path, capsys):
        self._seed_edges(rc)
        dump = tmp_path / "edges.json"
        racecheck.dump_edges(dump)
        out = tmp_path / "edges.dot"
        assert cli_main(["racecheck-dump", str(dump), "-o", str(out)]) == 0
        assert '"test.outer" -> "test.inner";' in out.read_text()

    def test_cli_json_format_from_live_graph(self, rc, capsys):
        self._seed_edges(rc)
        assert cli_main(["racecheck-dump", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ["test.outer", "test.inner"] in payload["edges"]


# ----------------------------------------------------------------------
# Race checker: store thread confinement
# ----------------------------------------------------------------------
def _touch_from_thread(store) -> list[BaseException]:
    errors: list[BaseException] = []

    def touch():
        try:
            store.status_counts()
        except BaseException as exc:  # noqa: BLE001 - collected for asserts
            errors.append(exc)

    thread = threading.Thread(target=touch)
    thread.start()
    thread.join()
    return errors


class TestStoreConfinement:
    def test_cross_thread_access_to_confined_store_raises(self, rc, tmp_path):
        store = ExperimentStore(tmp_path / "confined.db")
        try:
            errors = _touch_from_thread(store)
            assert len(errors) == 1
            assert isinstance(errors[0], racecheck.StoreThreadViolation)
            assert rc.violations()
        finally:
            store.close()

    def test_owner_thread_access_is_fine(self, rc, tmp_path):
        store = ExperimentStore(tmp_path / "owner.db")
        try:
            assert store.status_counts() == {}
            assert not rc.violations()
        finally:
            store.close()

    def test_shared_store_requires_the_guard_lock(self, rc, tmp_path):
        store = ExperimentStore(tmp_path / "shared.db", check_same_thread=False)
        guard = rc.tracked_rlock("test.store.guard")
        rc.guard_store(store, guard)
        try:
            errors = _touch_from_thread(store)
            assert len(errors) == 1
            assert isinstance(errors[0], racecheck.StoreThreadViolation)

            held: list[BaseException] = []

            def guarded_touch():
                try:
                    with guard:
                        store.status_counts()
                except BaseException as exc:  # noqa: BLE001
                    held.append(exc)

            thread = threading.Thread(target=guarded_touch)
            thread.start()
            thread.join()
            assert held == []
        finally:
            store.close()

    def test_disabled_checker_leaves_connection_untouched(self, tmp_path, monkeypatch):
        monkeypatch.delenv(racecheck.ENV_RACECHECK, raising=False)
        racecheck.disable()
        store = ExperimentStore(tmp_path / "plain.db")
        try:
            import sqlite3

            # repro-lint: disable=sqlite-connect  (type probe, not a connect)
            assert isinstance(store._conn, sqlite3.Connection)
        finally:
            store.close()
