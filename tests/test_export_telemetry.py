"""Edge-case tests for the export-layer telemetry aggregators.

These functions reconstruct run-wide telemetry from journal rows alone, so
they must tolerate whatever an old store file throws at them: no rows,
rows with no telemetry payload, payloads missing keys, and mixed
old/new-schema payloads in one store.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.orchestration.export import (
    aggregate_service_telemetry,
    aggregate_solver_telemetry,
    format_solver_telemetry,
    replan_trend,
)


def _row(result=None, **kwargs):
    defaults = {"cost_estimate": None, "duration": None, "epoch": 0}
    defaults.update(kwargs)
    return SimpleNamespace(result=result, **defaults)


class TestAggregateSolverTelemetry:
    def test_empty_rows(self):
        assert aggregate_solver_telemetry([]) is None

    def test_rows_without_payload(self):
        rows = [_row(result=None), _row(result={}), _row(result={"other": 1})]
        assert aggregate_solver_telemetry(rows) is None

    def test_non_dict_payload_skipped(self):
        rows = [
            _row(result={"_solver_telemetry": "corrupt"}),
            _row(result={"_solver_telemetry": [1, 2]}),
        ]
        assert aggregate_solver_telemetry(rows) is None

    def test_missing_keys_default_to_zero(self):
        # An old-schema payload: just a solve count, no wall time and no
        # backend histogram.
        rows = [_row(result={"_solver_telemetry": {"solves": 2}})]
        totals = aggregate_solver_telemetry(rows)
        assert totals == {"solves": 2, "wall_time": 0.0, "backends": {}}

    def test_mixed_schema_rows_sum(self):
        rows = [
            _row(result={"_solver_telemetry": {"solves": 1}}),
            _row(
                result={
                    # A row stored by a version that ran solves on solver
                    # servers: its pooled count, time split and endpoint
                    # histogram are ignored.
                    "_solver_telemetry": {
                        "solves": 3,
                        "pooled_solves": 2,
                        "wall_time": 1.5,
                        "queue_wait_s": 0.25,
                        "solve_s": 0.75,
                        "wire_s": 0.5,
                        "backends": {"cbc": 3},
                        "endpoints": {"tcp://a:1": 2},
                    }
                }
            ),
            _row(result=None),
            _row(
                result={
                    "_solver_telemetry": {
                        "solves": 1,
                        "backends": {"cbc": 1, "glpk": 1},
                        "endpoints": None,  # journaled null, not absent
                    }
                }
            ),
            _row(result={"_solver_telemetry": {"solves": 1, "backends": None}}),
        ]
        totals = aggregate_solver_telemetry(rows)
        assert totals == {
            "solves": 6,
            "wall_time": pytest.approx(1.5),
            "backends": {"cbc": 4, "glpk": 1},
        }
        assert format_solver_telemetry(totals) == (
            "solver telemetry: 6 MILP solves, 1.50s solver wall time; "
            "backends: cbc x4, glpk x1"
        )

    def test_zero_solves_means_none(self):
        # A payload present but all-zero is indistinguishable from "no
        # solver ran" — the rollup stays suppressed.
        rows = [_row(result={"_solver_telemetry": {"wall_time": 3.0}})]
        assert aggregate_solver_telemetry(rows) is None


class TestAggregateServiceTelemetry:
    def test_empty_rows_and_empty_tail(self):
        assert aggregate_service_telemetry([]) is None
        assert aggregate_service_telemetry([], tail={}) is None

    def test_rows_without_payload(self):
        rows = [_row(result={}), _row(result={"_service_telemetry": "nope"})]
        assert aggregate_service_telemetry(rows) is None

    def test_missing_keys_default_to_zero(self):
        rows = [_row(result={"_service_telemetry": {"requests": 4}})]
        totals = aggregate_service_telemetry(rows)
        assert totals == {
            "requests": 4,
            "admitted": 0,
            "rejected": 0,
            "cache_hits": 0,
            "solves": 0,
        }

    def test_mixed_rows_and_tail_sum(self):
        rows = [
            _row(result={"_service_telemetry": {"requests": 2, "admitted": 2}}),
            _row(result=None),
            _row(
                result={
                    "_service_telemetry": {
                        "requests": 1,
                        "admitted": 1,
                        "cache_hits": 1,
                        "solves": 1,
                    }
                }
            ),
        ]
        totals = aggregate_service_telemetry(rows, tail={"rejected": 3, "bogus": 9})
        assert totals["requests"] == 3
        assert totals["admitted"] == 3
        assert totals["rejected"] == 3  # tail-only counter survives restarts
        assert "bogus" not in totals  # unknown tail keys are ignored

    def test_tail_alone_is_enough(self):
        totals = aggregate_service_telemetry([], tail={"rejected": 2})
        assert totals is not None and totals["rejected"] == 2

    def test_zero_tail_does_not_resurrect(self):
        assert aggregate_service_telemetry([], tail={"rejected": 0}) is None


class TestReplanTrend:
    def test_empty(self):
        assert replan_trend([]) == []

    def test_rows_without_usable_pair_skipped(self):
        rows = [
            _row(cost_estimate=None, duration=1.0),
            _row(cost_estimate=1.0, duration=None),
            _row(cost_estimate=0.0, duration=1.0),
            _row(cost_estimate=1.0, duration=0.0),
        ]
        assert replan_trend(rows) == []

    def test_geometric_mean_per_epoch(self):
        rows = [
            _row(cost_estimate=4.0, duration=1.0, epoch=0),
            _row(cost_estimate=1.0, duration=1.0, epoch=0),
            _row(cost_estimate=2.0, duration=2.0, epoch=1),
        ]
        trend = replan_trend(rows)
        assert [point["epoch"] for point in trend] == [0, 1]
        assert trend[0]["accuracy"] == pytest.approx(2.0)  # gmean(4, 1)
        assert trend[0]["n"] == 2
        assert trend[1]["accuracy"] == pytest.approx(1.0)
        assert trend[1]["n"] == 1
