"""Tests for the backend table, BackendSpec validation and the service.

The fail-fast backend validation on ``EptasConfig`` / ``ExactMilpConfig`` /
``DasWieseConfig``, the backends' fingerprints and substitution through
``service_scope`` are the contract every higher layer now relies on.
"""

from __future__ import annotations

import re

import pytest
import scipy

import repro
from repro.baselines.das_wiese import DasWieseConfig, das_wiese_schedule
from repro.eptas import EptasConfig, eptas_schedule
from repro.exact import ExactMilpConfig, exact_milp_schedule
from repro.generators import uniform_random_instance
from repro.milp import LinearModel, Sense
from repro.orchestration.cache import cache_key
from repro.solver import registry
from repro.solver import (
    BackendSpec,
    SolverService,
    backend_fingerprint,
    get_solver_service,
    service_scope,
)

from helpers import build_model

# sha256 of the canonical JSON of no options, "{}", cut to 12 hex digits.
_NO_OPTIONS = "44136fa355b3"


def _model(target: float = 1.5) -> LinearModel:
    return build_model(
        {"x": {"integer": True, "objective": 1.0}}, [("c", Sense.GE, {"x": 1.0}, target)]
    )


class TestRegistry:
    def test_builtins_present(self):
        # The fingerprints are the result cache's identity of each backend:
        # a change here makes every stored result miss.
        scipy_version = scipy.__version__
        assert backend_fingerprint("scipy") == f"scipy@{scipy_version}+lp-first+{_NO_OPTIONS}"
        assert backend_fingerprint("bnb") == f"bnb@{repro.__version__}+{_NO_OPTIONS}"
        assert backend_fingerprint("lp") == f"lp@{scipy_version}+{_NO_OPTIONS}"

    def test_resolve_unknown_backend(self):
        message = "unknown MILP backend 'gurobi'; available: ['bnb', 'lp', 'scipy']"
        with pytest.raises(ValueError, match=re.escape(message)):
            BackendSpec.make("gurobi")


class TestBackendSpec:
    def test_coerce_forms(self):
        from_str = BackendSpec.coerce("scipy")
        from_spec = BackendSpec.coerce(from_str)
        from_mapping = BackendSpec.coerce({"name": "scipy"})
        assert from_str == from_spec == from_mapping
        with_options = BackendSpec.coerce({"name": "bnb", "options": {"max_nodes": 5}})
        assert with_options.options_dict() == {"max_nodes": 5}
        # to_dict round-trips through JSON-able grid parameters.
        assert BackendSpec.coerce(with_options.to_dict()) == with_options
        assert BackendSpec.coerce("scipy").to_dict() == "scipy"

    def test_coerce_validates_name(self):
        with pytest.raises(ValueError):
            BackendSpec.coerce("definitely-not-a-backend")

    def test_fingerprint_tracks_name_version_and_options(self):
        base = backend_fingerprint("bnb")
        assert base.startswith("bnb@")
        assert backend_fingerprint(BackendSpec.make("bnb")) == base
        assert (
            backend_fingerprint(BackendSpec.make("bnb", max_nodes=10))
            == f"bnb@{repro.__version__}+0116854e531d"
        )
        assert backend_fingerprint("scipy") != base

    def test_unread_option_fails_at_construction(self):
        # HiGHS never sees an option the scipy backend does not forward, so
        # accepting one would only mint a new cache identity.
        with pytest.raises(ValueError, match=re.escape("does not read option(s) ['presolve']")):
            BackendSpec.make("scipy", presolve=False)
        with pytest.raises(ValueError, match="max_nodes"):
            BackendSpec.coerce({"name": "scipy", "options": {"max_nodes": 5}})
        with pytest.raises(ValueError, match="node_limit"):
            BackendSpec(name="lp", options=(("node_limit", 1),))
        with pytest.raises(ValueError, match="presolve"):
            EptasConfig(milp_backend={"name": "scipy", "options": {"presolve": False}})
        assert BackendSpec.make("bnb", max_nodes=5).options_dict() == {"max_nodes": 5}
        assert BackendSpec.make("scipy", node_limit=5).options_dict() == {"node_limit": 5}

    def test_scipy_fingerprint_names_the_lp_first_path(self):
        # Results stored by the MILP-only solve path (version = scipy's own)
        # must miss: LP-first can return a different optimal vertex.
        fingerprint = backend_fingerprint("scipy")
        options_digest = fingerprint.rsplit("+", 1)[1]
        assert fingerprint != f"scipy@{scipy.__version__}+{options_digest}"
        assert fingerprint == f"scipy@{scipy.__version__}+lp-first+{options_digest}"


class TestFailFastConfigs:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: EptasConfig(milp_backend="nope"),
            lambda: ExactMilpConfig(backend="nope"),
            lambda: DasWieseConfig(milp_backend="nope"),
        ],
    )
    def test_unknown_backend_fails_at_construction(self, factory):
        with pytest.raises(ValueError, match="unknown MILP backend"):
            factory()

    def test_valid_specs_are_normalised(self):
        config = EptasConfig(milp_backend="bnb")
        assert isinstance(config.milp_backend, BackendSpec)
        assert config.backend_spec.name == "bnb"
        assert config.to_dict()["milp_backend"] == "bnb"
        normalised = config.normalised()
        assert normalised.backend_spec == config.backend_spec


class TestServiceTelemetry:
    def test_stats_delta(self):
        service = get_solver_service()
        before = service.stats()
        service.solve(_model())
        delta = service.stats_delta(before)
        assert delta.keys() == {"solves", "wall_time", "backends"}
        assert delta["solves"] == 1
        assert delta["backends"] == {backend_fingerprint("scipy"): 1}


class _RecordingService(SolverService):
    """A substitute service: records each solve's spec and time limit."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[BackendSpec | str, float | None]] = []

    def solve(self, model, *, spec="scipy", time_limit=None):
        self.calls.append((spec, time_limit))
        return super().solve(model, spec=spec, time_limit=time_limit)


class TestBranchAndBoundTimeLimit:
    """A ``bnb`` spec's ``time_limit`` and the configured one: the smaller wins."""

    @pytest.mark.parametrize(
        "spec_limit, configured, expected",
        [
            pytest.param(1000.0, 5.0, 5.0, id="spec-above-configured"),
            pytest.param(2.0, 5.0, 2.0, id="spec-below-configured"),
            pytest.param(3.0, None, 3.0, id="spec-alone"),
            pytest.param(None, 5.0, 5.0, id="configured-alone"),
        ],
    )
    def test_smaller_limit_reaches_branch_and_bound(
        self, monkeypatch, spec_limit, configured, expected
    ):
        seen: list[float | None] = []
        solve = registry.solve_with_branch_and_bound

        def spy(model, config=None):
            seen.append(None if config is None else config.time_limit)
            return solve(model, config)

        monkeypatch.setattr(registry, "solve_with_branch_and_bound", spy)
        options = {} if spec_limit is None else {"time_limit": spec_limit}
        config = ExactMilpConfig(
            backend=BackendSpec.make("bnb", **options), time_limit=configured
        )
        instance = uniform_random_instance(
            num_jobs=4, num_machines=2, num_bags=2, seed=0
        ).instance
        result = exact_milp_schedule(instance, config=config)
        assert result.diagnostics["milp_status"] == "optimal"
        assert seen == [expected]
        # The limit is a solve-time rule: the spec, and with it the cache
        # identity, keeps the options it was made with.
        assert config.backend_spec.options_dict() == options


class TestServiceScope:
    def test_every_milp_reaches_the_scoped_service(self):
        instance = uniform_random_instance(
            num_jobs=8, num_machines=3, num_bags=4, seed=0
        ).instance
        eptas = EptasConfig(eps=0.5, milp_time_limit=17.0)
        exact = ExactMilpConfig(backend="bnb", time_limit=23.0)
        das_wiese = DasWieseConfig(eps=0.5, milp_time_limit=29.0)
        default = get_solver_service()
        before = default.stats()
        service = _RecordingService()
        with service_scope(service):
            assert get_solver_service() is service
            eptas_schedule(instance, config=eptas)
            eptas_calls = list(service.calls)
            exact_milp_schedule(instance, config=exact)
            exact_calls = service.calls[len(eptas_calls) :]
            das_wiese_schedule(instance, eps=0.5, config=das_wiese)
            das_wiese_calls = service.calls[len(eptas_calls) + len(exact_calls) :]
        assert get_solver_service() is default
        assert default.stats_delta(before)["solves"] == 0

        assert eptas_calls and set(eptas_calls) == {(eptas.backend_spec, 17.0)}
        assert exact_calls == [(BackendSpec.make("bnb"), 23.0)]
        assert das_wiese_calls and set(das_wiese_calls) == {(das_wiese.backend_spec, 29.0)}
        assert service.stats()["solves"] == len(service.calls)


class TestCacheFingerprint:
    def test_backend_changes_cache_key(self):
        instance = uniform_random_instance(
            num_jobs=6, num_machines=2, num_bags=3, seed=0
        ).instance
        plain = cache_key(instance, "exact-milp")
        scipy_keyed = cache_key(instance, "exact-milp", backend="scipy")
        bnb_keyed = cache_key(instance, "exact-milp", backend="bnb")
        assert len({plain, scipy_keyed, bnb_keyed}) == 3
        assert cache_key(instance, "exact-milp", backend="scipy") == scipy_keyed
        assert cache_key(
            instance, "exact-milp", backend=BackendSpec.make("scipy")
        ) == scipy_keyed


class TestDriverErrorDegradation:
    def test_solver_limit_during_solve_degrades_to_greedy(self):
        """A backend limit raised *inside the solve* must not escape the search.

        Regression: the batched search must keep the pre-pool contract that
        solver errors are recorded in diagnostics and the greedy fallback
        schedule is returned.
        """
        from repro.eptas import EptasConfig, eptas_schedule

        instance = uniform_random_instance(
            num_jobs=10, num_machines=3, num_bags=4, seed=2
        ).instance
        config = EptasConfig(
            eps=0.5,
            milp_backend=BackendSpec.make("bnb", max_nodes=0, raise_on_limit=True),
        )
        result = eptas_schedule(instance, eps=0.5, config=config)
        result.schedule.validate(require_complete=True)
        assert "limit_errors" in result.diagnostics


class TestRunnerTelemetryAttach:
    def test_worker_attaches_solver_telemetry(self, tmp_path):
        from repro.orchestration import registry as orch_registry
        from repro.orchestration.runner import SOLVER_TELEMETRY_KEY, run_worker
        from repro.orchestration.store import ExperimentStore

        def grid(*, quick: bool = True, seed: int = 0):
            return [{"seed": seed}]

        spec = orch_registry.ExperimentSpec(
            name="milp-telemetry-test",
            experiment_id="TEST",
            title="telemetry attach",
            make_grid=grid,
            run_cell=_telemetry_cell,
        )
        orch_registry.register(spec)
        db = tmp_path / "telemetry.db"
        try:
            with ExperimentStore(db) as store:
                store.add_rows(spec.name, grid())
            report = run_worker(str(db), [spec.name], "t0", use_cache=False)
            assert report.done == 1
            with ExperimentStore(db) as store:
                row = store.fetch_rows(spec.name)[0]
            telemetry = row.result[SOLVER_TELEMETRY_KEY]
            assert telemetry["solves"] >= 1
            assert any(fp.startswith("scipy@") for fp in telemetry["backends"])
        finally:
            orch_registry._REGISTRY.pop(spec.name, None)


def _telemetry_cell(*, seed: int) -> dict:
    from repro.exact import exact_milp_schedule

    instance = uniform_random_instance(
        num_jobs=8, num_machines=3, num_bags=4, seed=seed
    ).instance
    result = exact_milp_schedule(instance)
    return {"makespan": result.makespan}
