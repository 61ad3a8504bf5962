"""Online re-planning battery: epoch protocol, EWMA refit, cross-store priors.

Covers the PR 4 additions end to end:

* the two scheduling bugfixes (partial-hint ``CostModel.fit``, bare
  ``plan_priorities`` wiping prerequisite gate boosts) with regression
  tests that fail on the pre-fix code;
* the store's re-plan epoch protocol (exactly one winner per round, also
  under concurrent connections);
* mid-drain refit visibly reordering the remaining claims (seeded fake
  durations);
* priors export → import round-tripping into the same claim order on a
  fresh store (through the CLI);
* the runner-level convergence acceptance: with ``cost_hint``s off by
  100x, ``replan_every=2`` reaches the true-duration LPT claim order for
  the final half of the grid while ``--no-replan`` does not.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.orchestration import ExperimentStore, registry, run_pool
from repro.orchestration.cache import clear_memo, deactivate_cache
from repro.orchestration.planner import (
    PREREQ_EXPERIMENT,
    PrereqCall,
    plan,
    replan,
)
from repro.orchestration.registry import ExperimentSpec
from repro.orchestration.scheduling import (
    CostModel,
    load_priors,
    plan_priorities,
    save_priors,
)

HINTED = "replan-hinted-test"  # hint = params["n"]
TRUE = "replan-true-test"  # well-hinted sleep cells (hint = n)
MISS = "replan-miss-test"  # 100x under-hinted sleep cells (hint = n / 100)
SLEEP_UNIT = 0.004  # seconds of true work per hint unit in the sleep specs

# Claim order observed by the sleep cells; trustworthy with workers=1
# (inline execution in this process).
CLAIM_LOG: list[tuple[str, int]] = []


def _noop_cell(**params):
    return dict(params)


def _sleep_cell(**params):
    CLAIM_LOG.append((params["exp"], params["n"]))
    time.sleep(params["n"] * SLEEP_UNIT)
    return dict(params)


def _empty_grid(*, quick: bool = True, seed: int = 0):
    return []


@pytest.fixture(autouse=True)
def _isolated():
    clear_memo()
    deactivate_cache()
    CLAIM_LOG.clear()
    registry.register(
        ExperimentSpec(
            name=HINTED,
            experiment_id="RPH",
            title="re-planning hinted spec",
            make_grid=_empty_grid,
            run_cell=_noop_cell,
            cost_hint=lambda p: float(p["n"]),
        )
    )
    registry.register(
        ExperimentSpec(
            name=TRUE,
            experiment_id="RPT",
            title="well-hinted sleep cells",
            make_grid=lambda *, quick=True, seed=0: [
                {"exp": TRUE, "n": n} for n in (1, 2, 5, 6, 13, 14)
            ],
            run_cell=_sleep_cell,
            cost_hint=lambda p: float(p["n"]),
        )
    )
    registry.register(
        ExperimentSpec(
            name=MISS,
            experiment_id="RPM",
            title="100x under-hinted sleep cells",
            make_grid=lambda *, quick=True, seed=0: [
                {"exp": MISS, "n": n} for n in (15, 16)
            ],
            run_cell=_sleep_cell,
            cost_hint=lambda p: float(p["n"]) / 100.0,
        )
    )
    yield
    for name in (HINTED, TRUE, MISS):
        registry._REGISTRY.pop(name, None)
    clear_memo()
    deactivate_cache()


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "replan.db"


def _complete_next(store, duration):
    claimed = store.claim_next("seeder")
    assert claimed is not None
    assert store.complete(claimed.id, {"ok": True}, duration=duration)
    return claimed


def _drain_params(store, key="n"):
    order = []
    while True:
        claimed = store.claim_next("drainer")
        if claimed is None:
            return order
        order.append(claimed.params[key])
        store.complete(claimed.id, {}, duration=0.0)


# ----------------------------------------------------------------------
# Satellite bugfix regressions
# ----------------------------------------------------------------------
class TestCostModelPartialHints:
    def test_one_hintless_row_does_not_flatten_the_scale(self, db_path):
        """Regression: a single historical row without a positive hint used
        to discard the experiment's entire hint_scale (``all(...)`` gate),
        flattening every estimate to the mean duration."""
        with ExperimentStore(db_path) as store:
            # One row with a hint (n=2, 4s -> 2 s/unit), one whose params
            # lack "n" entirely (the hint callable raises -> no hint).
            store.add_rows(HINTED, [{"n": 2}, {"legacy": True}])
            _complete_next(store, 4.0)
            _complete_next(store, 6.0)
            model = CostModel.fit(store)
        costs = model.per_experiment[HINTED]
        assert costs.samples == 2
        assert costs.hint_scale == pytest.approx(2.0)  # fitted from the hinted row
        assert model.estimate(HINTED, {"n": 10}) == pytest.approx(20.0)
        # Hintless cells of the same experiment still fall back to the mean.
        assert model.estimate(HINTED, {"legacy": True}) == pytest.approx(5.0)


class TestPlanPrioritiesSkipsPrereqs:
    def _register_toy(self):
        def compute():  # pragma: no cover - never solved in these tests
            raise AssertionError("prerequisite must not be executed")

        def prereqs(*, i: int):
            from repro.generators import uniform_random_instance

            instance = uniform_random_instance(
                num_jobs=6, num_machines=2, num_bags=3, seed=3
            ).instance
            return [
                PrereqCall(
                    instance=instance, solver="toy", compute=compute, cost_hint=5.0
                )
            ]

        spec = ExperimentSpec(
            name="replan-toy-test",
            experiment_id="RTOY",
            title="gate boost regression spec",
            make_grid=lambda *, quick=True, seed=0: [{"i": i} for i in range(3)],
            run_cell=_noop_cell,
            prerequisites=prereqs,
        )
        registry.register(spec)
        return spec

    def test_bare_plan_priorities_preserves_gate_boost(self, db_path):
        """Regression: ``plan_priorities(store)`` (default experiments=None
        includes the ``prereq`` pseudo-experiment) used to reset hoisted
        rows to their own estimate, wiping the gate boost and draining
        dependents behind ordinary cells."""
        self._register_toy()
        try:
            with ExperimentStore(db_path) as store:
                plan(store, ["replan-toy-test"], quick=True, seed=0)
                prereq = store.fetch_rows(PREREQ_EXPERIMENT)[0]
                dependents = store.fetch_rows("replan-toy-test")
                boosted = prereq.priority
                assert boosted > max(row.priority for row in dependents)
                # The double-plan sequence: a bare re-prioritisation pass
                # over the whole store must not flatten the boost.
                plan_priorities(store)
                after = store.fetch_rows(PREREQ_EXPERIMENT)[0]
                assert after.priority == pytest.approx(boosted)
                assert after.priority > max(
                    row.priority for row in store.fetch_rows("replan-toy-test")
                )
        finally:
            registry._REGISTRY.pop("replan-toy-test", None)

    def test_replan_recomputes_boost_instead_of_wiping_it(self, db_path):
        self._register_toy()
        try:
            with ExperimentStore(db_path) as store:
                plan(store, ["replan-toy-test"], quick=True, seed=0)
                before = store.fetch_rows(PREREQ_EXPERIMENT)[0].priority
                summary = replan(store, model=CostModel.fit(store))
                assert summary["boosted"] == 1
                after = store.fetch_rows(PREREQ_EXPERIMENT)[0]
                assert after.priority == pytest.approx(before)
                assert after.priority > max(
                    row.priority for row in store.fetch_rows("replan-toy-test")
                )
        finally:
            registry._REGISTRY.pop("replan-toy-test", None)

    def test_scoped_replan_keeps_out_of_scope_gate_boosts(self, db_path):
        """A re-plan scoped to one experiment must not flatten the boost a
        prereq row owes to dependents of *other* experiments (the gate sum
        is store-wide even when the priority rewrite is scoped)."""
        self._register_toy()
        try:
            with ExperimentStore(db_path) as store:
                plan(store, ["replan-toy-test"], quick=True, seed=0)
                boosted = store.fetch_rows(PREREQ_EXPERIMENT)[0].priority
                store.add_rows(HINTED, [{"n": 3}])
                replan(store, model=CostModel.fit(store), experiments=[HINTED])
                after = store.fetch_rows(PREREQ_EXPERIMENT)[0]
                assert after.priority == pytest.approx(boosted)
        finally:
            registry._REGISTRY.pop("replan-toy-test", None)


# ----------------------------------------------------------------------
# Epoch protocol
# ----------------------------------------------------------------------
class TestReplanEpochProtocol:
    def test_epoch_advances_once_per_round(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows(HINTED, [{"n": n} for n in range(1, 7)])
            assert store.try_begin_replan(2) is None  # no completions yet
            _complete_next(store, 1.0)
            assert store.try_begin_replan(2) is None  # 1 < 2
            _complete_next(store, 1.0)
            assert store.try_begin_replan(2) == 1  # fires exactly at 2
            assert store.try_begin_replan(2) is None  # round spent
            # The epoch claims are stamped with only moves on publish —
            # i.e. once the winner's priorities are actually in effect.
            assert store.replan_epoch() == 0
            store.publish_replan_epoch(1)
            assert store.replan_epoch() == 1
            _complete_next(store, 1.0)
            _complete_next(store, 1.0)
            assert store.try_begin_replan(2) == 2
            store.publish_replan_epoch(2)
            assert store.replan_epoch() == 2
            # Monotonic: a stalled winner's late publish never rolls back.
            store.publish_replan_epoch(1)
            assert store.replan_epoch() == 2
            assert store.completion_count() == 4
            assert store.try_begin_replan(0) is None  # 0 disables

    def test_failed_rows_do_not_advance_the_cadence(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows(HINTED, [{"n": 1}, {"n": 2}])
            claimed = store.claim_next("w0")
            store.fail(claimed.id, "boom", duration=0.1)
            claimed = store.claim_next("w0")
            store.fail(claimed.id, "boom", duration=0.1)
            assert store.completion_count() == 0
            assert store.try_begin_replan(1) is None

    def test_concurrent_connections_have_single_winner_per_round(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows(HINTED, [{"n": n} for n in range(1, 9)])
            for _ in range(4):
                _complete_next(store, 1.0)

        def attempt(barrier, wins):
            with ExperimentStore(db_path) as conn:
                barrier.wait()
                epoch = conn.try_begin_replan(2)
                if epoch is not None:
                    wins.append(epoch)

        for expected_epoch in (1, 2):
            wins: list[int] = []
            barrier = threading.Barrier(6)
            threads = [
                threading.Thread(target=attempt, args=(barrier, wins))
                for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert wins == [expected_epoch]  # exactly one winner, every round
            if expected_epoch == 1:
                with ExperimentStore(db_path) as store:
                    for _ in range(2):
                        _complete_next(store, 1.0)

    def test_claims_are_stamped_with_the_published_epoch(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows(HINTED, [{"n": n} for n in range(1, 6)])
            first = _complete_next(store, 1.0)
            assert store.fetch_rows(HINTED)[0].epoch == 0
            _complete_next(store, 1.0)
            assert store.try_begin_replan(2) == 1
            # Round won but priorities not yet rewritten: a claim landing in
            # that window is still ordered by the old estimates and must be
            # attributed to the old epoch.
            pre_publish = store.claim_next("w0")
            store.publish_replan_epoch(1)
            post_publish = store.claim_next("w0")
            by_id = {row.id: row.epoch for row in store.fetch_rows(HINTED)}
            assert by_id[pre_publish.id] == 0
            assert by_id[post_publish.id] == 1
            assert first is not None


# ----------------------------------------------------------------------
# Mid-drain refit (seeded fake durations)
# ----------------------------------------------------------------------
class TestMidDrainRefit:
    def test_refit_reorders_remaining_claims(self, db_path):
        """Two completions expose the true scale of the well-hinted
        experiment; the re-plan immediately promotes the under-hinted one."""
        miss_spec = registry.get_spec(MISS)
        with ExperimentStore(db_path, fifo_every=0) as store:
            store.add_rows(TRUE, [{"exp": TRUE, "n": n} for n in (1, 2, 5, 6)])
            store.add_rows(MISS, [{"exp": MISS, "n": n} for n in (7, 8)])
            plan_priorities(store, model=CostModel.fit(store))
            # Raw hints claim the well-hinted cells first: 6, 5, ...
            assert _complete_next(store, 0.006).params["n"] == 6
            assert _complete_next(store, 0.005).params["n"] == 5
            assert store.try_begin_replan(2) == 1
            model = CostModel.from_priors(store.load_cost_priors())
            consumed, watermark = model.refit(store)
            assert consumed == 2 and watermark > (0.0, 0)
            replan(store, model=model)
            # The fitted scale (~1 ms/unit) collapses the remaining TRUE
            # estimates below MISS's raw hints: claims flip experiments.
            assert _drain_params(store) == [8, 7, 2, 1]
        assert miss_spec.cost_hint({"n": 8}) == pytest.approx(0.08)

    def test_refit_watermark_consumes_each_sample_once(self, db_path):
        with ExperimentStore(db_path) as store:
            store.add_rows(HINTED, [{"n": 2, "i": i} for i in range(3)])
            _complete_next(store, 4.0)
            model = CostModel()
            consumed, watermark = model.refit(store)
            assert consumed == 1
            assert model.per_experiment[HINTED].samples == 1
            _complete_next(store, 4.0)
            _complete_next(store, 4.0)
            consumed, watermark = model.refit(store, since=watermark)
            assert consumed == 2
            assert model.per_experiment[HINTED].samples == 3
            assert model.refit(store, since=watermark) == (0, watermark)

    def test_equal_timestamps_cannot_drop_a_sample(self, db_path):
        """The watermark's row-id tiebreak: two completions sharing one
        coarse-clock finished_at are both consumed, each exactly once."""
        with ExperimentStore(db_path) as store:
            store.add_rows(HINTED, [{"n": 2, "i": i} for i in range(2)])
            _complete_next(store, 4.0)
            _complete_next(store, 4.0)
            # Force the collision the tiebreak exists for.
            store._conn.execute("UPDATE runs SET finished_at = 123.0")
            model = CostModel()
            consumed, watermark = model.refit(store)
            assert consumed == 2
            assert watermark[0] == pytest.approx(123.0)
            assert model.refit(store, since=watermark) == (0, watermark)

    def test_stale_round_cannot_clobber_newer_priorities(self, db_path):
        """A round-1 winner that stalls past round 2's win must not write:
        its set_schedule is guarded on the round still being current."""
        with ExperimentStore(db_path) as store:
            store.add_rows(HINTED, [{"n": n} for n in (1, 2, 3, 4, 5, 6)])
            _complete_next(store, 2.0)
            _complete_next(store, 4.0)
            stalled_round = store.try_begin_replan(2)
            assert stalled_round == 1
            _complete_next(store, 6.0)
            _complete_next(store, 8.0)
            assert store.try_begin_replan(2) == 2
            fresh = CostModel.fit(store)
            assert replan(store, model=fresh, round_no=2)["stale"] is False
            store.publish_replan_epoch(2)
            before = {
                row.params["n"]: row.priority
                for row in store.fetch_rows(HINTED, status="pending")
            }
            # The stalled winner resumes with a wildly different model; the
            # guard must drop its write on the floor.
            from repro.orchestration.scheduling import ExperimentCosts

            stale_model = CostModel(
                {HINTED: ExperimentCosts(samples=1, mean_duration=1.0, hint_scale=1000.0)}
            )
            summary = replan(store, model=stale_model, round_no=stalled_round)
            assert summary["stale"] is True and summary["updated"] == 0
            after = {
                row.params["n"]: row.priority
                for row in store.fetch_rows(HINTED, status="pending")
            }
            assert after == before
            assert store.replan_epoch() == 2


# ----------------------------------------------------------------------
# Cross-store priors
# ----------------------------------------------------------------------
class TestPriors:
    def test_export_import_roundtrip_same_claim_order(self, db_path, tmp_path, capsys):
        source_db = tmp_path / "source.db"
        fresh_db = tmp_path / "fresh.db"
        priors_file = tmp_path / "priors.json"
        pending = [{"n": n} for n in (3, 9, 5, 1, 7)]
        # Source store: history at 2 s per hint unit, then a planned grid.
        with ExperimentStore(source_db, fifo_every=0) as store:
            store.add_rows(HINTED, [{"n": 2}, {"n": 4}])
            _complete_next(store, 4.0)
            _complete_next(store, 8.0)
            store.add_rows(HINTED, pending)
            plan_priorities(store, model=CostModel.fit(store))
        # Export before draining: the zero-duration test drain below would
        # otherwise contaminate the fitted scale.
        assert main(["orch", "priors", "export", "--db", str(source_db), "-o", str(priors_file)]) == 0
        with ExperimentStore(source_db, fifo_every=0) as store:
            source_order = _drain_params(store)
        assert source_order == [9, 7, 5, 3, 1]
        payload = json.loads(priors_file.read_text())
        assert payload["experiments"][HINTED]["hint_scale"] == pytest.approx(2.0)
        # Fresh store: no history at all, the same pending grid.
        with ExperimentStore(fresh_db, fifo_every=0) as store:
            store.add_rows(HINTED, pending)
        assert main(["orch", "priors", "import", "--db", str(fresh_db), str(priors_file)]) == 0
        out = capsys.readouterr().out
        assert "re-ranked 5 pending rows" in out
        with ExperimentStore(fresh_db, fifo_every=0) as store:
            rows = store.fetch_rows(HINTED, status="pending")
            # Estimates are in seconds (prior scale), not raw hint units.
            by_n = {row.params["n"]: row.cost_estimate for row in rows}
            assert by_n[9] == pytest.approx(18.0)
            # The priors persist inside the store for later fits too.
            stored = store.load_cost_priors()
            assert stored[HINTED]["hint_scale"] == pytest.approx(2.0)
            assert CostModel.fit(store).estimate(HINTED, {"n": 10}) == pytest.approx(20.0)
            assert _drain_params(store) == source_order

    def test_export_never_reexports_imported_priors(self, tmp_path, capsys):
        """Export ships only locally measured history: re-exporting a blend
        would double-count the same samples on every round-trip."""
        db = tmp_path / "x.db"
        with ExperimentStore(db) as store:
            store.save_cost_priors(
                {HINTED: {"samples": 9, "mean_duration": 2.0, "hint_scale": 1.0}}
            )
        out_file = tmp_path / "out.json"
        assert main(["orch", "priors", "export", "--db", str(db), "-o", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["experiments"] == {}
        assert "no duration history" in capsys.readouterr().err

    def test_fit_blends_priors_with_local_history(self, db_path):
        with ExperimentStore(db_path) as store:
            store.save_cost_priors(
                {HINTED: {"samples": 3, "mean_duration": 30.0, "hint_scale": 3.0}}
            )
            store.add_rows(HINTED, [{"n": 10}])
            _complete_next(store, 10.0)  # local scale: 1.0 from one sample
            model = CostModel.fit(store)
        costs = model.per_experiment[HINTED]
        assert costs.samples == 4
        # Weighted blend: (1*1.0 + 3*3.0) / 4.
        assert costs.hint_scale == pytest.approx(2.5)
        assert costs.mean_duration == pytest.approx(25.0)

    def test_load_priors_rejects_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="cannot read"):
            load_priors(bad)
        bad.write_text(json.dumps({"version": 99, "experiments": {}}))
        with pytest.raises(ValueError, match="version"):
            load_priors(bad)
        bad.write_text(json.dumps({"no": "experiments"}))
        with pytest.raises(ValueError, match="experiments"):
            load_priors(bad)
        bad.write_text(json.dumps({"version": 1, "experiments": [1, 2]}))
        with pytest.raises(ValueError, match="must be an object"):
            load_priors(bad)
        bad.write_text(json.dumps({"version": 1, "experiments": {"e3": 5}}))
        with pytest.raises(ValueError, match="must be an object"):
            load_priors(bad)
        bad.write_text(
            json.dumps({"version": 1, "experiments": {"e3": {"samples": "many"}}})
        )
        with pytest.raises(ValueError, match="non-numeric"):
            load_priors(bad)

    def test_save_priors_roundtrip_without_store(self, tmp_path):
        from repro.orchestration.scheduling import ExperimentCosts

        model = CostModel(
            {HINTED: ExperimentCosts(samples=5, mean_duration=1.5, hint_scale=0.25)}
        )
        path = tmp_path / "p.json"
        assert save_priors(model, path) == 1
        loaded = load_priors(path)
        assert loaded.per_experiment[HINTED].hint_scale == pytest.approx(0.25)
        assert loaded.per_experiment[HINTED].samples == 5


# ----------------------------------------------------------------------
# Runner-level acceptance: convergence to LPT order
# ----------------------------------------------------------------------
class TestRunnerConvergence:
    # True durations are n * SLEEP_UNIT, so the true LPT order is by n
    # descending across both experiments.
    LPT_ORDER = [
        (MISS, 16),
        (MISS, 15),
        (TRUE, 14),
        (TRUE, 13),
        (TRUE, 6),
        (TRUE, 5),
        (TRUE, 2),
        (TRUE, 1),
    ]

    def test_replanning_converges_to_lpt_order(self, db_path):
        """Acceptance: cost hints off by 100x; with replan_every=2 the final
        half of the claims matches the true-duration LPT order."""
        report = run_pool(
            db_path,
            [TRUE, MISS],
            workers=1,
            quick=True,
            seed=0,
            replan_every=2,
            fifo_every=0,
        )
        assert report.errors == 0 and report.done == 8
        assert report.replans >= 2
        claims = list(CLAIM_LOG)
        assert len(claims) == 8
        # First claims follow the miscalibrated hints (the under-hinted
        # experiment waits), but the refit flips them within one round...
        assert claims[0] == (TRUE, 14)
        assert claims[2:4] == [(MISS, 16), (MISS, 15)]
        # ...and the final half of the drain is exactly the LPT tail.
        assert claims[-4:] == self.LPT_ORDER[-4:]
        with ExperimentStore(db_path) as store:
            assert store.replan_epoch() == report.replans
            # Re-planned claims carry their epoch for the export trend.
            epochs = {row.epoch for row in store.fetch_rows(TRUE)}
            assert max(epochs) >= 1

    def test_no_plan_implies_no_replanning(self, db_path):
        """--no-plan promises 'no scheduling, stored priorities still
        apply'; the online re-rank must not write new ones behind it."""
        report = run_pool(
            db_path,
            [TRUE, MISS],
            workers=1,
            quick=True,
            seed=0,
            plan=False,
            replan_every=2,
        )
        assert report.errors == 0 and report.done == 8
        assert report.replans == 0
        with ExperimentStore(db_path) as store:
            assert store.replan_epoch() == 0

    def test_no_replan_never_converges(self, db_path):
        report = run_pool(
            db_path,
            [TRUE, MISS],
            workers=1,
            quick=True,
            seed=0,
            replan_every=0,
            fifo_every=0,
        )
        assert report.errors == 0 and report.done == 8
        assert report.replans == 0
        claims = list(CLAIM_LOG)
        # The 100x under-hinted cells — the true longest — dangle at the
        # end: the final half never matches the LPT tail.
        assert claims[-2:] == [(MISS, 16), (MISS, 15)]
        assert claims[-4:] != self.LPT_ORDER[-4:]
        with ExperimentStore(db_path) as store:
            assert store.replan_epoch() == 0

    def test_export_rolls_up_accuracy_trend(self, db_path):
        from repro.orchestration.export import table_from_store

        run_pool(
            db_path,
            [TRUE, MISS],
            workers=1,
            quick=True,
            seed=0,
            replan_every=2,
            fifo_every=0,
        )
        with ExperimentStore(db_path) as store:
            table = table_from_store(store, TRUE)
        notes = [n for n in table.notes if n.startswith("cost-model accuracy")]
        assert len(notes) == 1
        assert "epoch 0" in notes[0] and "->" in notes[0]

    def test_two_process_drain_with_replanning_stays_consistent(self, db_path):
        """Workers in separate processes race real re-plan rounds; the
        epoch protocol must keep the drain exact (no lost/double rows)."""
        report = run_pool(db_path, ["smoke"], workers=2, quick=True, seed=0, replan_every=1)
        assert report.errors == 0
        with ExperimentStore(db_path) as store:
            assert store.status_counts()["smoke"] == {"done": 4}
            # Superseded rounds publish nothing, so the published epoch can
            # exceed the count of non-stale re-plans but never 4 rounds.
            if report.replans:
                assert 1 <= store.replan_epoch() <= 4
            assert store.completion_count() >= 4
