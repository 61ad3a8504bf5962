"""Tests for the orchestration subsystem (store, runner, cache, export)."""

from __future__ import annotations

import threading

import pytest

from repro.generators import uniform_random_instance
from repro.orchestration import (
    ExperimentStore,
    cached_solve,
    canonical_params,
    instance_digest,
    params_hash,
    registry,
    run_pool,
)
from repro.orchestration.cache import activate_cache, clear_memo, deactivate_cache
from repro.orchestration.export import render_table, table_from_store, to_latex
from repro.orchestration.runner import populate


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Keep the process-global cache layers from leaking between tests."""
    clear_memo()
    deactivate_cache()
    yield
    clear_memo()
    deactivate_cache()


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "orch.db"


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
class TestGrids:
    def test_all_builtin_specs_registered(self):
        names = registry.spec_names()
        assert {f"e{i}" for i in range(1, 11)} <= set(names)
        assert "smoke" in names

    @pytest.mark.parametrize(
        "name,quick_count,full_count",
        [
            ("e1", 2, 4),
            ("e2", 8, 20),
            ("e4", 3, 5),
            ("e7", 3, 5),
            ("e9", 6, 20),
            ("e10", 5, 5),
        ],
    )
    def test_expansion_counts(self, name, quick_count, full_count):
        spec = registry.get_spec(name)
        assert len(registry.expand_grid(spec, quick=True)) == quick_count
        assert len(registry.expand_grid(spec, quick=False)) == full_count

    def test_grids_are_json_canonicalisable(self):
        for spec in registry.all_specs():
            for params in registry.expand_grid(spec, quick=True):
                blob = canonical_params(params)
                assert blob  # round-trips through JSON without error
                assert len(params_hash(spec.name, params)) == 64

    def test_get_spec_case_insensitive_and_unknown(self):
        assert registry.get_spec("E1") is registry.get_spec("e1")
        with pytest.raises(KeyError):
            registry.get_spec("e99")


# ----------------------------------------------------------------------
# Store: idempotent population and atomic claiming
# ----------------------------------------------------------------------
class TestStore:
    def test_population_is_idempotent(self, db_path):
        grid = [{"x": i} for i in range(5)]
        with ExperimentStore(db_path) as store:
            assert store.add_rows("dummy", grid) == 5
            assert store.add_rows("dummy", grid) == 0
            assert store.pending_count(["dummy"]) == 5

    def test_claim_complete_fail_cycle(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows("dummy", [{"x": 1}, {"x": 2}])
            first = store.claim_next("w0")
            assert first is not None and first.params == {"x": 1}
            store.complete(first.id, {"y": 10}, duration=0.5)
            second = store.claim_next("w0")
            store.fail(second.id, "boom", duration=0.1)
            counts = store.status_counts()["dummy"]
            assert counts == {"done": 1, "error": 1}
            assert store.claim_next("w0") is None
            rows = store.fetch_rows("dummy")
            assert rows[0].result == {"y": 10}
            assert "boom" in rows[1].error

    def test_concurrent_claims_never_double_run(self, db_path):
        """Workers hammering the same file claim every row exactly once."""
        num_rows, num_workers = 40, 6
        with ExperimentStore(db_path) as store:
            store.add_rows("dummy", [{"x": i} for i in range(num_rows)])
        claimed: list[int] = []
        lock = threading.Lock()

        def worker(tag: str) -> None:
            with ExperimentStore(db_path) as store:
                while True:
                    row = store.claim_next(tag)
                    if row is None:
                        return
                    with lock:
                        claimed.append(row.params["x"])
                    store.complete(row.id, {"ok": True}, duration=0.0)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(num_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == list(range(num_rows))  # no dupes, no gaps

    def test_delete_rows_honours_status_filter(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows("dummy", [{"x": 1}, {"x": 2}])
            row = store.claim_next("w0")
            store.complete(row.id, {"ok": True}, duration=0.0)
            row = store.claim_next("w0")
            store.fail(row.id, "boom", duration=0.0)
            # Deleting only error rows must keep the done result.
            assert store.delete_rows(["dummy"], statuses=["error"]) == 1
            assert store.status_counts()["dummy"] == {"done": 1}
            assert store.delete_rows(["dummy"]) == 1  # no filter: everything

    def test_opening_a_pre_scheduling_store_migrates_in_place(self, db_path):
        """A store created before the scheduling columns existed still works."""
        import sqlite3

        conn = sqlite3.connect(db_path)
        conn.executescript(
            """
            CREATE TABLE runs (
                id          INTEGER PRIMARY KEY AUTOINCREMENT,
                experiment  TEXT NOT NULL,
                params      TEXT NOT NULL,
                param_hash  TEXT NOT NULL,
                status      TEXT NOT NULL DEFAULT 'pending',
                result      TEXT,
                error       TEXT,
                worker      TEXT,
                attempts    INTEGER NOT NULL DEFAULT 0,
                created_at  REAL NOT NULL,
                claimed_at  REAL,
                finished_at REAL,
                duration    REAL,
                UNIQUE (experiment, param_hash)
            );
            CREATE INDEX idx_runs_status ON runs (experiment, status);
            """
        )
        conn.execute(
            "INSERT INTO runs (experiment, params, param_hash, created_at) "
            "VALUES ('legacy', '{\"x\":1}', 'h1', 0.0)"
        )
        conn.commit()
        conn.close()
        with ExperimentStore(db_path) as store:
            row = store.fetch_rows("legacy")[0]
            assert row.priority == 0.0 and row.deps_pending == 0
            claimed = store.claim_next("w0")
            assert claimed is not None and claimed.params == {"x": 1}
            assert store.complete(claimed.id, {"ok": True}, duration=0.1)

    def test_reclaim_stale_only_touches_running(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows("dummy", [{"x": 1}, {"x": 2}])
            row = store.claim_next("w0")
            store.complete(row.id, {"ok": True}, duration=0.0)
            orphan = store.claim_next("w0")  # claimed but never finished (SIGKILL)
            assert orphan is not None
            # Scoped to another experiment: the orphan must be left alone.
            assert store.reclaim_stale(older_than=0.0, experiments=["other"]) == 0
            assert store.reclaim_stale(older_than=0.0) == 1
            counts = store.status_counts()["dummy"]
            assert counts == {"done": 1, "pending": 1}

    def test_late_writeback_after_reclaim_is_dropped(self, db_path):
        """A reclaimed worker's complete() must not clobber the new owner."""
        with ExperimentStore(db_path) as store:
            store.add_rows("dummy", [{"x": 1}])
            first = store.claim_next("wA")
            store.reclaim_stale(older_than=0.0)  # wA presumed dead
            second = store.claim_next("wB")
            assert second is not None and second.id == first.id
            # wA was actually alive and finishes late: guarded write is dropped.
            assert store.complete(first.id, {"who": "A"}, duration=1.0, worker="wA") is False
            assert store.complete(second.id, {"who": "B"}, duration=1.0, worker="wB") is True
            row = store.fetch_rows("dummy")[0]
            assert row.result == {"who": "B"}


# ----------------------------------------------------------------------
# Runner: parallel drain and resume-after-kill
# ----------------------------------------------------------------------
class TestRunner:
    def test_pool_drains_smoke_grid_with_two_processes(self, db_path):
        report = run_pool(db_path, ["smoke"], workers=2, quick=True, seed=0)
        assert report.populated == 4
        assert report.done == 4 and report.errors == 0
        with ExperimentStore(db_path) as store:
            assert store.status_counts()["smoke"] == {"done": 4}

    def test_resume_does_not_rerun_completed_rows(self, db_path):
        """A row left 'running' by a killed worker is reclaimed; done rows aren't."""
        with ExperimentStore(db_path) as store:
            populate(store, ["smoke"], quick=True, seed=0)
            # Complete two rows normally.
            for _ in range(2):
                row = store.claim_next("w-old")
                result = registry.execute_cell(row.experiment, row.params)
                store.complete(row.id, result, duration=0.0)
            # A third claim then a crash: the row stays 'running' forever.
            orphan = store.claim_next("w-old")
            assert orphan is not None
        report = run_pool(
            db_path, ["smoke"], workers=1, quick=True, seed=0, stale_after=0.0
        )
        assert report.reclaimed == 1
        assert report.populated == 0  # grid expansion is idempotent
        assert report.done == 2  # the orphan plus the one never-claimed row
        with ExperimentStore(db_path) as store:
            rows = store.fetch_rows("smoke")
            assert all(row.status == "done" for row in rows)
            by_params = {row.params["index"]: row for row in rows}
            assert by_params[orphan.params["index"]].attempts == 2
            # The rows finished before the crash were not re-executed.
            finished_first = [row for row in rows if row.worker == "w-old"]
            assert len(finished_first) == 2
            assert all(row.attempts == 1 for row in finished_first)

    def test_errors_are_recorded_with_traceback(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows("no-such-experiment", [{"x": 1}])
        report = run_pool(
            db_path, workers=1, do_populate=False, stale_after=0.0
        )
        assert report.errors == 1
        with ExperimentStore(db_path) as store:
            row = store.fetch_rows("no-such-experiment")[0]
            assert row.status == "error"
            assert "KeyError" in row.error


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestCache:
    def _instance(self, name="cache-test"):
        return uniform_random_instance(
            num_jobs=8, num_machines=3, num_bags=4, seed=42
        ).instance

    def test_digest_ignores_name(self):
        a = self._instance()
        b = a.with_jobs(a.jobs, name="renamed")
        assert instance_digest(a) == instance_digest(b)

    def test_memo_layer_hits(self):
        from repro.baselines import lpt_schedule

        instance = self._instance()
        calls = []

        def compute():
            calls.append(1)
            return lpt_schedule(instance)

        cold = cached_solve(instance, "lpt", compute)
        warm = cached_solve(instance, "lpt", compute)
        assert len(calls) == 1
        assert cold["cache_hit"] is False and warm["cache_hit"] is True
        assert warm["makespan"] == cold["makespan"]

    def test_persistent_layer_survives_memo_clear(self, db_path):
        from repro.baselines import lpt_schedule

        instance = self._instance()
        calls = []

        def compute():
            calls.append(1)
            return lpt_schedule(instance)

        activate_cache(db_path)
        cold = cached_solve(instance, "lpt", compute, config={"k": 1})
        clear_memo()  # simulate a fresh worker process on the same store
        warm = cached_solve(instance, "lpt", compute, config={"k": 1})
        assert len(calls) == 1
        assert warm["cache_hit"] is True
        assert warm["makespan"] == pytest.approx(cold["makespan"])
        # A different config is a different cache entry.
        other = cached_solve(instance, "lpt", compute, config={"k": 2})
        assert other["cache_hit"] is False
        assert len(calls) == 2

    def test_smoke_rerun_hits_cache_after_reset(self, db_path):
        run_pool(db_path, ["smoke"], workers=1, quick=True, seed=0)
        with ExperimentStore(db_path) as store:
            store.reset(["smoke"], statuses=["done"])
        clear_memo()
        run_pool(db_path, ["smoke"], workers=1, quick=True, seed=0)
        with ExperimentStore(db_path) as store:
            rows = store.fetch_rows("smoke", status="done")
            assert len(rows) == 4
            assert all(row.result["cache_hit"] for row in rows)
            assert store.cache_stats()["hits"] >= 4


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
class TestExport:
    def test_csv_round_trip(self, db_path):
        import csv
        import io

        run_pool(db_path, ["smoke"], workers=1, quick=True, seed=0)
        with ExperimentStore(db_path) as store:
            table = table_from_store(store, "smoke")
            csv_text = render_table(table, "csv")
        parsed = list(csv.DictReader(io.StringIO(csv_text)))
        assert len(parsed) == len(table.rows) == 4
        for parsed_row, row in zip(parsed, table.rows):
            assert float(parsed_row["makespan"]) == pytest.approx(row["makespan"])

    def test_latex_escapes_and_structure(self):
        from repro.experiments.tables import ExperimentTable

        table = ExperimentTable("T", "underscore_title & co")
        table.add_row({"col_a": 1.25, "flag": True, "label": "x_y"})
        latex = to_latex(table)
        assert r"\begin{tabular}" in latex and r"\end{table}" in latex
        assert r"underscore\_title \& co" in latex
        assert r"col\_a" in latex and r"x\_y" in latex
        assert "yes" in latex

    def test_export_matches_inline_driver(self, db_path):
        """Orchestrated E1 across 2 workers == the classic in-process driver."""
        from repro.experiments import experiment_e1_figure1_placement

        report = run_pool(db_path, ["e1"], workers=2, quick=True, seed=0)
        assert report.done == 2 and report.errors == 0
        with ExperimentStore(db_path) as store:
            orchestrated = table_from_store(store, "e1")
        inline = experiment_e1_figure1_placement(quick=True, seed=0)
        assert orchestrated.columns == inline.columns
        assert len(orchestrated.rows) == len(inline.rows)
        for row_a, row_b in zip(orchestrated.rows, inline.rows):
            for column in inline.columns:
                assert row_a[column] == pytest.approx(row_b[column])

    def test_require_complete_raises_on_pending(self, db_path):
        with ExperimentStore(db_path) as store:
            populate(store, ["smoke"], quick=True, seed=0)
            with pytest.raises(RuntimeError, match="unfinished"):
                table_from_store(store, "smoke", require_complete=True)

    def test_export_scopes_to_one_grid_variant(self, db_path):
        """Quick and full rows coexist in one store without contaminating exports."""
        run_pool(db_path, ["smoke"], workers=1, quick=True, seed=0)
        run_pool(db_path, ["smoke"], workers=1, quick=False, seed=0)
        with ExperimentStore(db_path) as store:
            quick_table = table_from_store(store, "smoke", quick=True)
            full_table = table_from_store(store, "smoke", quick=False)
        assert len(quick_table.rows) == 4
        assert len(full_table.rows) == 16
        assert not any("INCOMPLETE" in note for note in quick_table.notes)
        assert not any("INCOMPLETE" in note for note in full_table.notes)

    def test_partial_export_is_flagged_incomplete(self, db_path):
        with ExperimentStore(db_path) as store:
            populate(store, ["smoke"], quick=True, seed=0)
            row = store.claim_next("w0")
            store.complete(row.id, registry.execute_cell(row.experiment, row.params), duration=0.0)
            table = table_from_store(store, "smoke")
        assert len(table.rows) == 1
        assert any("INCOMPLETE" in note for note in table.notes)


class TestCacheScope:
    def test_inline_run_does_not_leak_active_cache(self, db_path):
        from repro.orchestration.cache import active_cache

        assert active_cache() is None
        run_pool(db_path, ["smoke"], workers=1, quick=True, seed=0)
        assert active_cache() is None  # workers=1 runs inline in this process

    def test_no_cache_pins_out_env_fallback(self, db_path, tmp_path, monkeypatch):
        import repro.orchestration.cache as cache_mod

        env_db = tmp_path / "env-cache.db"
        monkeypatch.setenv(cache_mod.ENV_CACHE_DB, str(env_db))
        monkeypatch.setattr(cache_mod, "_env_checked", False)
        run_pool(db_path, ["smoke"], workers=1, quick=True, seed=0, use_cache=False)
        # use_cache=False must not fall through to the env-configured store.
        assert not env_db.exists()
