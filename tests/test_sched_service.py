"""Scheduling service battery + cache-layer ownership/leak regression tests.

Covers the `repro.service` stack end-to-end — concurrent clients with
exactly-once solves, op-id replay, typed admission rejection, journal
resume after a kill, auth — plus the two cache bugs this PR fixes:
``activate_cache``/``deactivate_cache`` closing caller-owned stores, and
the unbounded in-process memo.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.baselines import lpt_schedule
from repro.core.instance import Instance
from repro.distributed.protocol import AuthError, RemoteOperationError, parse_address
from repro.orchestration import ExperimentStore
from repro.orchestration.cache import (
    DEFAULT_MEMO_ENTRIES,
    activate_cache,
    cache_scope,
    cached_payload,
    cached_solve,
    clear_memo,
    deactivate_cache,
    memo_stats,
    set_memo_limit,
)
from repro.service import (
    DEFAULT_SCHEDULE_PORT,
    SERVICE_EXPERIMENT,
    AdmissionError,
    ScheduleClient,
    ScheduleServer,
    normalise_request,
)


@pytest.fixture(autouse=True)
def _isolated_cache():
    clear_memo()
    deactivate_cache()
    set_memo_limit(DEFAULT_MEMO_ENTRIES)
    yield
    clear_memo()
    deactivate_cache()
    set_memo_limit(DEFAULT_MEMO_ENTRIES)


def _instance(sizes, bags, machines, name):
    return Instance.from_sizes(sizes, bags, machines, name=name)


def _submit_params(instance: Instance, solver: str = "lpt") -> dict:
    return {"instance": instance.to_dict(), "solver": solver, "config": {"eps": 0.25}}


# ----------------------------------------------------------------------
# Satellite regressions: cache ownership
# ----------------------------------------------------------------------
class _FakeRemoteCache:
    """Store-shaped object (cache surface only) that records close() calls."""

    def __init__(self):
        self.closed = False
        self.entries: dict[str, dict] = {}

    def cache_get(self, key):
        return self.entries.get(key)

    def cache_put(self, key, solver, payload):
        self.entries[key] = dict(payload)

    def close(self):
        self.closed = True


class TestCacheOwnership:
    def test_deactivate_does_not_close_caller_owned_store(self):
        """Regression: deactivate_cache() closed the RemoteStore installed
        by cache_scope, killing the owner's shared claim connection."""
        fake = _FakeRemoteCache()
        with cache_scope(fake):
            deactivate_cache()
            assert not fake.closed
        assert not fake.closed

    def test_activate_does_not_close_caller_owned_store(self):
        """Regression: activate_cache() closed whatever _active held."""
        fake = _FakeRemoteCache()
        with cache_scope(fake):
            store = activate_cache(":memory:")
            assert not fake.closed
            deactivate_cache()
            assert not fake.closed
        assert not fake.closed

    def test_activate_still_closes_its_own_previous_store(self, tmp_path):
        first = activate_cache(tmp_path / "a.db")
        activate_cache(tmp_path / "b.db")
        # A closed SQLite store raises on use — that is the observable
        # "was closed" signal without reaching into connection internals.
        with pytest.raises(Exception):
            first.cache_get("anything")
        deactivate_cache()

    def test_cache_scope_still_closes_path_opened_store(self, tmp_path):
        with cache_scope(tmp_path / "scoped.db") as store:
            store.cache_put("k", "s", {"makespan": 1.0})
        with pytest.raises(Exception):
            store.cache_get("k")


# ----------------------------------------------------------------------
# Satellite regressions: bounded memo
# ----------------------------------------------------------------------
class TestMemoBound:
    def test_memo_is_capped(self):
        """Regression: _memo grew without bound."""
        set_memo_limit(4)
        for index in range(10):
            instance = _instance([1.0 + index, 2.0], [0, 1], 2, f"memo-{index}")
            cached_solve(instance, "lpt", lambda i=instance: lpt_schedule(i))
        assert memo_stats()["entries"] <= 4

    def test_memo_stats_semantics_unchanged(self):
        instance = _instance([3.0, 1.0], [0, 1], 2, "stats")
        cached_solve(instance, "lpt", lambda: lpt_schedule(instance))
        cached_solve(instance, "lpt", lambda: lpt_schedule(instance))
        stats = memo_stats()
        assert stats == {"entries": 1, "hits": 1}

    def test_lru_keeps_recently_used_entries(self):
        set_memo_limit(2)
        a = _instance([1.0, 1.0], [0, 1], 2, "lru-a")
        b = _instance([2.0, 1.0], [0, 1], 2, "lru-b")
        c = _instance([3.0, 1.0], [0, 1], 2, "lru-c")
        calls = {"a": 0, "b": 0}

        def solve(instance, tag):
            calls[tag] += 1
            return lpt_schedule(instance)

        cached_solve(a, "lpt", lambda: solve(a, "a"))
        cached_solve(b, "lpt", lambda: solve(b, "b"))
        cached_solve(a, "lpt", lambda: solve(a, "a"))  # refresh a's recency
        cached_solve(c, "lpt", lambda: lpt_schedule(c))  # evicts b, not a
        cached_solve(a, "lpt", lambda: solve(a, "a"))
        cached_solve(b, "lpt", lambda: solve(b, "b"))
        assert calls == {"a": 1, "b": 2}

    def test_cached_payload_populates_memo_from_store(self, tmp_path):
        """Regression: a persistent-layer hit in cached_payload() bypassed
        the memo, unlike cached_solve()."""
        activate_cache(tmp_path / "cache.db")
        instance = _instance([4.0, 2.0, 1.0], [0, 0, 1], 2, "payload")
        cached_solve(instance, "lpt", lambda: lpt_schedule(instance))
        clear_memo()
        payload = cached_payload(instance, "lpt")
        assert payload is not None
        assert memo_stats()["entries"] == 1
        # The second probe is served from the memo even with the store gone.
        deactivate_cache()
        again = cached_payload(instance, "lpt")
        assert again == payload

    def test_set_memo_limit_validates_and_trims(self):
        with pytest.raises(ValueError):
            set_memo_limit(0)
        for index in range(6):
            instance = _instance([1.0 + index, 1.0], [0, 1], 2, f"trim-{index}")
            cached_solve(instance, "lpt", lambda i=instance: lpt_schedule(i))
        set_memo_limit(3)
        assert memo_stats()["entries"] <= 3


# ----------------------------------------------------------------------
# Service battery
# ----------------------------------------------------------------------
class TestScheduleService:
    def test_concurrent_clients_exactly_once(self, tmp_path):
        """8 concurrent clients drain unique + duplicate instances: every
        objective matches the inline solve, one solve per unique content."""
        server = ScheduleServer(
            tmp_path / "sched.db", port=0, token="battery", executors=3
        ).start()
        host, port = server.address
        shared = _instance([2.0, 2.0, 1.0], [0, 0, 1], 2, "shared")
        uniques = [
            _instance([1.0 + i, 2.0, 0.5 + 0.5 * i], [0, 1, 1], 2, f"uniq-{i}")
            for i in range(8)
        ]
        results: dict[int, tuple[dict, dict]] = {}
        errors: list[BaseException] = []

        def run(index: int) -> None:
            try:
                with ScheduleClient(f"{host}:{port}", token="battery") as client:
                    unique_payload = client.submit(uniques[index], "lpt")
                    shared_payload = client.submit(shared, "lpt")
                    results[index] = (unique_payload, shared_payload)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        try:
            assert not errors, errors
            assert len(results) == 8
            shared_expected = float(lpt_schedule(shared).makespan)
            for index, (unique_payload, shared_payload) in results.items():
                expected = float(lpt_schedule(uniques[index]).makespan)
                assert unique_payload["makespan"] == expected
                assert shared_payload["makespan"] == shared_expected
            telemetry = server.telemetry()
            # 8 unique contents + 1 shared content = exactly 9 solves, no
            # matter how the 16 submissions raced.
            assert telemetry["solves"] == 9
            assert telemetry["admitted"] == 9
        finally:
            server.shutdown()

    def test_duplicate_op_id_replays_original_reply(self, tmp_path):
        server = ScheduleServer(tmp_path / "sched.db", port=0)
        try:
            instance = _instance([3.0, 2.0, 2.0], [0, 1, 1], 2, "dedup")
            request = {
                "id": 1,
                "method": "submit",
                "params": _submit_params(instance),
                "op": "op-dedup-1",
            }
            first = server.dispatch(request)
            assert "error" not in first
            second = server.dispatch({**request, "id": 2})
            assert second.get("replayed") is True
            assert second["result"] == first["result"]
            assert server.telemetry()["solves"] == 1
        finally:
            server.shutdown()

    def test_duplicate_content_served_from_cache(self, tmp_path):
        """Same instance under a different name: no second solve."""
        server = ScheduleServer(tmp_path / "sched.db", port=0).start()
        host, port = server.address
        try:
            with ScheduleClient(f"{host}:{port}") as client:
                original = _instance([4.0, 3.0, 1.0], [0, 1, 1], 2, "original")
                renamed = _instance([4.0, 3.0, 1.0], [0, 1, 1], 2, "renamed")
                first = client.submit(original, "lpt")
                second = client.submit(renamed, "lpt")
                assert first["cache_hit"] is False
                assert second["cache_hit"] is True
                assert second["makespan"] == first["makespan"]
            assert server.telemetry()["solves"] == 1
            assert server.telemetry()["cache_hits"] >= 1
        finally:
            server.shutdown()

    def test_admission_rejection_is_typed_not_dead_connection(self, tmp_path):
        # No duration history + budget below CostModel's DEFAULT_COST (1.0)
        # → every request is rejected at admission.
        server = ScheduleServer(tmp_path / "sched.db", port=0, budget=0.5).start()
        host, port = server.address
        try:
            with ScheduleClient(f"{host}:{port}") as client:
                instance = _instance([2.0, 1.0], [0, 1], 2, "reject")
                with pytest.raises(AdmissionError):
                    client.submit(instance, "lpt")
                # The connection survived the typed error reply.
                assert client.ping()
                info = client.info()
                assert info["telemetry"]["rejected"] == 1
                assert info["telemetry"]["admitted"] == 0
        finally:
            server.shutdown()

    def test_malformed_submit_is_typed_error(self, tmp_path):
        server = ScheduleServer(tmp_path / "sched.db", port=0).start()
        host, port = server.address
        try:
            with ScheduleClient(f"{host}:{port}") as client:
                with pytest.raises(RemoteOperationError) as excinfo:
                    client.submit({"not": "an instance"}, "lpt")
                assert excinfo.value.type == "ValueError"
                with pytest.raises(RemoteOperationError) as excinfo:
                    client.submit(
                        _instance([1.0], [0], 1, "bad-solver").to_dict(),
                        "no-such-solver",
                    )
                assert excinfo.value.type == "ValueError"
                assert client.ping()
        finally:
            server.shutdown()

    def test_killed_service_resumes_journal_on_restart(self, tmp_path):
        """Deterministic stand-in for SIGKILL: rows left pending and
        claimed-running in the journal complete after a fresh server opens
        it (the CI smoke job does the real kill -9 dance)."""
        db = tmp_path / "sched.db"
        inst_a = _instance([5.0, 3.0, 2.0], [0, 1, 1], 2, "resume-a")
        inst_b = _instance([4.0, 4.0, 1.0], [0, 0, 1], 2, "resume-b")
        req_a = normalise_request(_submit_params(inst_a))
        req_b = normalise_request(_submit_params(inst_b))
        with ExperimentStore(db) as store:
            store.add_rows(
                SERVICE_EXPERIMENT, [req_a.journal_params(), req_b.journal_params()]
            )
            # Simulate a SIGKILL mid-solve: one row stranded 'running' by a
            # worker that no longer exists.
            claimed = store.claim_next("dead-executor", [SERVICE_EXPERIMENT])
            assert claimed is not None
        server = ScheduleServer(db, port=0)
        try:
            assert server.resumed == 1
            deadline = time.monotonic() + 30
            info = None
            while time.monotonic() < deadline:
                info = server.dispatch(
                    {"id": 1, "method": "schedule_info", "params": {}}
                )["result"]
                if info["queue_depth"] == 0:
                    break
                time.sleep(0.05)
            assert info is not None and info["queue_depth"] == 0
            assert info["rows"].get("done") == 2
            # A client retrying the in-flight request now gets the journaled
            # result from the cache — never a second solve.
            solves = server.telemetry()["solves"]
            reply = server.dispatch(
                {"id": 2, "method": "submit", "params": _submit_params(inst_a)}
            )
            assert reply["result"]["cache_hit"] is True
            assert reply["result"]["makespan"] == float(lpt_schedule(inst_a).makespan)
            assert server.telemetry()["solves"] == solves
        finally:
            server.shutdown()

    def test_wrong_token_raises_auth_error_without_retry(self, tmp_path):
        server = ScheduleServer(tmp_path / "sched.db", port=0, token="right").start()
        host, port = server.address
        try:
            started = time.monotonic()
            with pytest.raises(AuthError):
                ScheduleClient(f"{host}:{port}", token="wrong", retries=4)
            # No retry loop: 4 transport retries with backoff would take
            # ~2s; an immediate AuthError raise stays well under that.
            assert time.monotonic() - started < 1.5
        finally:
            server.shutdown()

    def test_cost_model_warms_from_journal_history(self, tmp_path):
        """After real completions, admission estimates come from measured
        durations — a tight budget then admits cheap solvers again."""
        db = tmp_path / "sched.db"
        instance = _instance([2.0, 1.0, 1.0], [0, 1, 1], 2, "warm")
        server = ScheduleServer(db, port=0)
        try:
            reply = server.dispatch(
                {"id": 1, "method": "submit", "params": _submit_params(instance)}
            )
            assert "error" not in reply
        finally:
            server.shutdown()
        # Restart with a budget far below DEFAULT_COST but far above the
        # measured LPT duration: history (re-fitted from the journal) must
        # win over the cold-start default, so the request is admitted.
        server = ScheduleServer(db, port=0, budget=0.5)
        try:
            other = _instance([9.0, 1.0, 1.0], [0, 1, 1], 2, "warm-2")
            reply = server.dispatch(
                {"id": 2, "method": "submit", "params": _submit_params(other)}
            )
            assert "error" not in reply, reply
        finally:
            server.shutdown()


class TestErrorRetries:
    """``retry_errors``: deliberate re-submission re-opens errored rows."""

    @staticmethod
    def _flaky_execute(monkeypatch, fail_first: int):
        from repro.service import requests as requests_module

        real = requests_module.execute_request
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if calls["n"] <= fail_first:
                raise RuntimeError("transient backend failure")
            return real(request)

        monkeypatch.setattr("repro.service.server.execute_request", flaky)
        return calls

    def test_default_keeps_error_rows_closed(self, tmp_path, monkeypatch):
        calls = self._flaky_execute(monkeypatch, fail_first=1)
        server = ScheduleServer(tmp_path / "sched.db", port=0)
        try:
            instance = _instance([3.0, 1.0], [0, 1], 2, "no-retry")
            params = _submit_params(instance)
            first = server.dispatch({"id": 1, "method": "submit", "params": params})
            assert first["error"]["type"] == "RuntimeError"
            # A fresh re-submission parks on the same errored row: no
            # second execution, same failure back.
            second = server.dispatch({"id": 2, "method": "submit", "params": params})
            assert "error" in second
            assert calls["n"] == 1
        finally:
            server.shutdown()

    def test_retry_errors_reopens_the_row_once(self, tmp_path, monkeypatch):
        calls = self._flaky_execute(monkeypatch, fail_first=1)
        server = ScheduleServer(tmp_path / "sched.db", port=0, retry_errors=1)
        try:
            instance = _instance([3.0, 1.0], [0, 1], 2, "retry-once")
            params = _submit_params(instance)
            first = server.dispatch({"id": 1, "method": "submit", "params": params})
            assert first["error"]["type"] == "RuntimeError"
            second = server.dispatch({"id": 2, "method": "submit", "params": params})
            assert "error" not in second, second
            expected = float(lpt_schedule(instance).makespan)
            assert second["result"]["makespan"] == expected
            assert calls["n"] == 2
            assert server.dispatch(
                {"id": 3, "method": "schedule_info", "params": {}}
            )["result"]["retry_errors"] == 1
        finally:
            server.shutdown()

    def test_retry_budget_is_per_content(self, tmp_path, monkeypatch):
        calls = self._flaky_execute(monkeypatch, fail_first=3)
        server = ScheduleServer(tmp_path / "sched.db", port=0, retry_errors=1)
        try:
            instance = _instance([3.0, 1.0], [0, 1], 2, "budget")
            params = _submit_params(instance)
            for request_id in (1, 2):
                reply = server.dispatch(
                    {"id": request_id, "method": "submit", "params": params}
                )
                assert "error" in reply
            # Budget of 1 spent: the third submission must not re-execute.
            third = server.dispatch({"id": 3, "method": "submit", "params": params})
            assert "error" in third
            assert calls["n"] == 2
        finally:
            server.shutdown()

    def test_op_id_replay_never_consumes_a_retry(self, tmp_path):
        """A client resend with its original op id replays the recorded
        reply — it must not re-enter admission, bump counters, or re-solve."""
        server = ScheduleServer(tmp_path / "sched.db", port=0, retry_errors=3)
        try:
            instance = _instance([3.0, 2.0], [0, 1], 2, "replay")
            request = {
                "id": 1,
                "method": "submit",
                "params": _submit_params(instance),
                "op": "op-replay-1",
            }
            first = server.dispatch(request)
            assert "error" not in first
            before = server.telemetry()
            replay = server.dispatch({**request, "id": 2})
            assert replay.get("replayed") is True
            assert replay["result"] == first["result"]
            assert server.telemetry() == before
        finally:
            server.shutdown()

    def test_negative_retry_errors_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ScheduleServer(tmp_path / "sched.db", port=0, retry_errors=-1)


class TestTelemetryTail:
    """Counters that never reach a completed row survive a restart."""

    def test_tail_roundtrip_on_the_store(self, tmp_path):
        with ExperimentStore(tmp_path / "tail.db") as store:
            assert store.service_telemetry_tail() == {}
            store.set_service_telemetry_tail({"rejected": 2, "requests": 3, "x": 0})
            assert store.service_telemetry_tail() == {"rejected": 2, "requests": 3}
            store.set_service_telemetry_tail({"rejected": 5})
            assert store.service_telemetry_tail() == {"rejected": 5}

    def test_rejected_counters_survive_restart(self, tmp_path):
        db = tmp_path / "sched.db"
        server = ScheduleServer(db, port=0, budget=0.5)
        try:
            instance = _instance([2.0, 1.0], [0, 1], 2, "tail-reject")
            reply = server.dispatch(
                {"id": 1, "method": "submit", "params": _submit_params(instance)}
            )
            assert reply["error"]["type"] == "AdmissionError"
            assert server.telemetry()["rejected"] == 1
        finally:
            server.shutdown()
        # Rejections never produce journal rows; before the tail they lived
        # only in process memory and a restart silently zeroed them.
        server = ScheduleServer(db, port=0)
        try:
            telemetry = server.telemetry()
            assert telemetry["rejected"] == 1
            assert telemetry["requests"] == 1
        finally:
            server.shutdown()

    def test_totals_combine_row_deltas_and_tail(self, tmp_path):
        db = tmp_path / "sched.db"
        server = ScheduleServer(db, port=0, budget=None)
        try:
            solved = _instance([4.0, 1.0], [0, 1], 2, "tail-solve")
            reply = server.dispatch(
                {"id": 1, "method": "submit", "params": _submit_params(solved)}
            )
            assert "error" not in reply
        finally:
            server.shutdown()
        server = ScheduleServer(db, port=0, budget=0.0)
        try:
            rejected = _instance([9.0, 1.0], [0, 1], 2, "tail-rejected")
            server.dispatch(
                {"id": 2, "method": "submit", "params": _submit_params(rejected)}
            )
        finally:
            server.shutdown()
        server = ScheduleServer(db, port=0)
        try:
            telemetry = server.telemetry()
            assert telemetry["requests"] == 2
            assert telemetry["solves"] == 1
            assert telemetry["rejected"] == 1
        finally:
            server.shutdown()

    def test_export_rolls_the_tail_into_the_table_note(self, tmp_path):
        from repro.orchestration.export import service_table

        db = tmp_path / "sched.db"
        server = ScheduleServer(db, port=0, budget=0.5)
        try:
            instance = _instance([2.0, 1.0], [0, 1], 2, "tail-export")
            server.dispatch(
                {"id": 1, "method": "submit", "params": _submit_params(instance)}
            )
        finally:
            server.shutdown()
        with ExperimentStore(db) as store:
            table = service_table(store)
        notes = " | ".join(table.notes)
        assert "1 requests" in notes
        assert "1 rejected" in notes


class TestEndpointParsing:
    @staticmethod
    def parse(target):
        return parse_address(target, default_port=DEFAULT_SCHEDULE_PORT)

    def test_default_port(self):
        assert self.parse("example.org") == ("example.org", 7481)
        assert self.parse("tcp://example.org") == ("example.org", 7481)

    def test_explicit_port(self):
        assert self.parse("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_invalid(self):
        for bad in ("", "host:", "host:notaport", ":7481", "host:0"):
            with pytest.raises(ValueError):
                self.parse(bad)

    def test_ipv6_bind_and_connect(self, tmp_path):
        try:
            probe = socket.socket(socket.AF_INET6)
            probe.bind(("::1", 0))
            probe.close()
        except OSError:
            pytest.skip("IPv6 loopback unavailable")
        server = ScheduleServer(tmp_path / "sched.db", host="::1", port=0).start()
        try:
            assert server.url.startswith("tcp://[::1]:")
            with ScheduleClient(server.url, connect_timeout=1.0) as client:
                assert client.ping()
        finally:
            server.shutdown()
