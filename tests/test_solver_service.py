"""Tests for the solver registry, BackendSpec validation and the service.

The registry round-trip (``register_backend`` → ``solve_model``) and the
fail-fast backend validation on ``EptasConfig`` / ``ExactConfig`` /
``DasWieseConfig`` are the contract every higher layer now relies on.
"""

from __future__ import annotations

import pytest

from repro.baselines.das_wiese import DasWieseConfig
from repro.eptas import EptasConfig
from repro.exact import ExactConfig, ExactMilpConfig
from repro.generators import uniform_random_instance
from repro.milp import LinearModel, MilpSolution, SolutionStatus, solve_model
from repro.orchestration.cache import cache_key
from repro.solver import (
    BackendSpec,
    available_backends,
    backend_fingerprint,
    get_solver_service,
    register_backend,
    resolve_backend,
    unregister_backend,
)


def _model(target: float = 1.5) -> LinearModel:
    model = LinearModel()
    model.add_variable("x", integer=True, objective=1.0)
    model.add_ge("c", {"x": 1.0}, target)
    return model


class ConstantBackend:
    """Registry round-trip double: returns a fixed objective."""

    name = "constant"
    version = "3"

    def solve(self, model, *, time_limit, mip_rel_gap, options):
        return MilpSolution(
            status=SolutionStatus.OPTIMAL, objective=float(options.get("value", 123.0))
        )


class TestRegistry:
    def test_builtins_present(self):
        assert {"scipy", "bnb", "lp"} <= set(available_backends())

    def test_register_roundtrip_through_solve_model(self):
        register_backend(ConstantBackend(), replace=True)
        try:
            solution = solve_model(_model(), backend="constant")
            assert solution.objective == 123.0
            spec = BackendSpec.make("constant", value=7.0)
            assert solve_model(_model(), backend=spec).objective == 7.0
        finally:
            unregister_backend("constant")

    def test_duplicate_registration_rejected(self):
        register_backend(ConstantBackend(), replace=True)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend(ConstantBackend())
        finally:
            unregister_backend("constant")

    def test_resolve_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown MILP backend"):
            resolve_backend("gurobi")


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
        assert backend_fingerprint(BackendSpec.make("bnb", max_nodes=10)) != base
        assert backend_fingerprint("scipy") != base

    def test_scipy_fingerprint_names_the_lp_first_path(self):
        # Results stored by the MILP-only solve path (version = scipy's own)
        # must miss: LP-first can return a different optimal vertex.
        import scipy

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

    def test_exact_config_alias(self):
        assert ExactConfig is ExactMilpConfig

    def test_valid_specs_are_normalised(self):
        config = EptasConfig(milp_backend="bnb")
        assert isinstance(config.milp_backend, BackendSpec)
        assert config.backend_spec.name == "bnb"
        assert config.to_dict()["milp_backend"] == "bnb"
        normalised = config.normalised()
        assert normalised.backend_spec == config.backend_spec


class TestServiceTelemetry:
    def test_inline_solve_attaches_telemetry(self):
        solution = get_solver_service().solve(_model())
        assert solution.telemetry is not None
        assert solution.telemetry.backend == "scipy"
        assert solution.telemetry.fingerprint == backend_fingerprint("scipy")
        assert solution.telemetry.status == "optimal"
        assert not solution.telemetry.pooled
        assert solution.telemetry.wall_time >= 0.0

    def test_stats_delta(self):
        service = get_solver_service()
        before = service.stats()
        service.solve(_model())
        delta = service.stats_delta(before)
        assert delta.keys() == {"solves", "wall_time", "solve_s", "backends"}
        assert delta["solves"] == 1
        assert delta["backends"] == {backend_fingerprint("scipy"): 1}


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
