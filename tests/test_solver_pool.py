"""Tests for the async subprocess solver pool (repro.solver.pool).

Covers the reliability contract of ISSUE 2:

* ``solve_many`` preserves request order;
* a solver server that crashes mid-solve is restarted and the request is
  retried (and cleanly raises once retries are exhausted);
* a per-solve hard timeout cancels the solve without poisoning the pool;
* the EPTAS driver solves inline even with a pool installed.

The chaos backend is registered at import time so the ``fork``-started
server processes inherit it.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.eptas import eptas_schedule
from repro.generators import uniform_random_instance
from repro.milp import LinearModel, MilpSolution, SolutionStatus
from repro.solver import (
    BackendSpec,
    SolveRequest,
    SolverPool,
    SolverPoolTimeoutError,
    SolverServerCrashError,
    pooled_service_scope,
    register_backend,
    unregister_backend,
)


class ChaosBackend:
    """A backend with scriptable failure modes for pool testing."""

    name = "chaos"
    version = "1"

    def solve(self, model, *, time_limit, mip_rel_gap, options):
        if options.get("sleep"):
            time.sleep(float(options["sleep"]))
        if options.get("crash"):
            os._exit(17)
        sentinel = options.get("crash_unless_file")
        if sentinel and not os.path.exists(sentinel):
            # Crash exactly once: leave a marker so the retried attempt
            # (on the restarted server) succeeds.
            with open(sentinel, "w"):
                pass
            os._exit(17)
        return MilpSolution(
            status=SolutionStatus.OPTIMAL, objective=float(options.get("value", 0.0))
        )


register_backend(ChaosBackend(), replace=True)


def _trivial_model() -> LinearModel:
    return LinearModel("trivial")


@pytest.fixture(scope="module")
def pool():
    with SolverPool(2, max_retries=1) as shared:
        yield shared


class TestSolveMany:
    def test_preserves_order(self, pool):
        requests = [
            SolveRequest(model=_trivial_model(), spec=BackendSpec.make("chaos", value=i))
            for i in range(10)
        ]
        solutions = pool.solve_many(requests)
        assert [solution.objective for solution in solutions] == [float(i) for i in range(10)]

    def test_real_backend_matches_inline(self, pool):
        from repro.milp import solve_with_scipy

        models = []
        for target in (1.5, 2.5, 3.5, 4.5):
            model = LinearModel(f"m{target}")
            model.add_variable("x", integer=True, objective=1.0)
            model.add_ge("c", {"x": 1.0}, target)
            models.append(model)
        pooled = pool.solve_many([SolveRequest(model=model) for model in models])
        inline = [solve_with_scipy(model) for model in models]
        assert [s.objective for s in pooled] == [s.objective for s in inline]
        assert all(s.status is SolutionStatus.OPTIMAL for s in pooled)


class TestCrashRecovery:
    def test_crash_once_restarts_and_retries(self, pool, tmp_path):
        sentinel = tmp_path / "crash-once"
        restarts_before = pool.stats().restarts
        future = pool.submit(
            _trivial_model(),
            spec=BackendSpec.make("chaos", crash_unless_file=str(sentinel), value=42.0),
        )
        assert future.result(timeout=60).objective == 42.0
        assert pool.stats().restarts > restarts_before

    def test_repeated_crash_raises_cleanly(self, pool):
        future = pool.submit(_trivial_model(), spec=BackendSpec.make("chaos", crash=True))
        with pytest.raises(SolverServerCrashError):
            future.result(timeout=60)
        # The pool is not poisoned: fresh servers keep solving.
        ok = pool.submit(_trivial_model(), spec=BackendSpec.make("chaos", value=1.0))
        assert ok.result(timeout=60).objective == 1.0


class TestTimeouts:
    def test_hard_timeout_cancels_without_poisoning(self, pool):
        slow = pool.submit(
            _trivial_model(),
            spec=BackendSpec.make("chaos", sleep=60),
            hard_timeout=1.0,
        )
        started = time.monotonic()
        with pytest.raises(SolverPoolTimeoutError):
            slow.result(timeout=60)
        assert time.monotonic() - started < 30
        # Later solves on the restarted server succeed.
        ok = pool.submit(_trivial_model(), spec=BackendSpec.make("chaos", value=5.0))
        assert ok.result(timeout=60).objective == 5.0
        assert pool.stats().timeouts >= 1


class TestErrorAndCancelSemantics:
    def test_library_errors_keep_their_type_across_the_pipe(self, pool):
        """A SolverLimitError raised in a server must arrive as itself."""
        from repro.core.errors import SolverLimitError
        from repro.milp import solve_model

        model = LinearModel()
        for index in range(6):
            model.add_variable(f"x_{index}", integer=True, upper=1.0, objective=-float(index + 1))
        model.add_le("cap", {f"x_{index}": 1.0 for index in range(6)}, 2.0)
        spec = BackendSpec.make("bnb", max_nodes=0, raise_on_limit=True)
        with pytest.raises(SolverLimitError):
            solve_model(model, backend=spec)  # inline reference behaviour
        future = pool.submit(model, spec=spec)
        with pytest.raises(SolverLimitError) as excinfo:
            future.result(timeout=60)
        assert hasattr(excinfo.value, "remote_traceback")

    def test_cancel_while_queued_does_not_poison_the_pool(self, pool):
        # Occupy both servers, queue one more, cancel it before dispatch.
        blockers = [
            pool.submit(_trivial_model(), spec=BackendSpec.make("chaos", sleep=2))
            for _ in range(2)
        ]
        queued = pool.submit(_trivial_model(), spec=BackendSpec.make("chaos", value=9.0))
        assert queued.cancel()
        for blocker in blockers:
            blocker.result(timeout=60)
        ok = pool.submit(_trivial_model(), spec=BackendSpec.make("chaos", value=4.0))
        assert ok.result(timeout=60).objective == 4.0
        assert queued.cancelled()


class TestPooledServiceIntegration:
    def test_service_degrades_timeout_to_limit_status(self):
        with pooled_service_scope(1) as service:
            requests = [
                SolveRequest(
                    model=_trivial_model(),
                    spec=BackendSpec.make("chaos", sleep=60),
                    hard_timeout=1.0,
                ),
                SolveRequest(model=_trivial_model(), spec=BackendSpec.make("chaos", value=3.0)),
            ]
            solutions = service.solve_many(requests)
        assert solutions[0].status is SolutionStatus.LIMIT
        assert solutions[1].objective == 3.0
        assert solutions[1].telemetry is not None and solutions[1].telemetry.pooled

    def test_eptas_under_pool_matches_inline(self):
        # Single solves never reach the pool, so the search is unchanged.
        instance = uniform_random_instance(
            num_jobs=12, num_machines=3, num_bags=5, seed=7
        ).instance
        inline = eptas_schedule(instance, eps=0.5)
        with pooled_service_scope(2) as service:
            pooled = eptas_schedule(instance, eps=0.5)
            assert service.pool.stats().submitted == 0
        assert pooled.schedule.assignment == inline.schedule.assignment
        assert pooled.makespan == inline.makespan


class TestParentDeathWatchdog:
    def test_sigkilled_pool_owner_does_not_strand_servers(self, tmp_path):
        """Solver servers must exit when their owner dies hard.

        ``daemon=True`` only cleans children up on a *graceful* parent exit,
        and under ``fork`` the child inherits the parent's end of its own
        pipe, so SIGKILL of the owner produces neither atexit cleanup nor
        pipe EOF.  The server loop's re-parenting watchdog is what keeps a
        hard-killed ``solver-serve`` host from accumulating orphans.
        """
        import signal
        import subprocess
        import sys

        script = (
            "import time\n"
            "from repro.solver.pool import SolverPool\n"
            "pool = SolverPool(num_servers=1)\n"
            "print(f'CHILD={pool._servers[0].process.pid}', flush=True)\n"
            "time.sleep(60)\n"
        )
        repo_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = owner.stdout.readline()
            child_pid = int(line.strip().split("=", 1)[1])
            os.kill(owner.pid, signal.SIGKILL)
            owner.wait()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if _gone_or_zombie(child_pid):
                    break
                time.sleep(0.1)
            assert _gone_or_zombie(child_pid), (
                f"solver server {child_pid} survived SIGKILL of its owner"
            )
        finally:
            if owner.poll() is None:
                owner.kill()
            owner.stdout.close()
            try:
                os.kill(child_pid, signal.SIGKILL)
            except (ProcessLookupError, UnboundLocalError):
                pass


def _gone_or_zombie(pid: int) -> bool:
    """True once *pid* has exited (reaped, or left as an unreaped zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(") ", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return True
    return state == "Z"


def teardown_module(module):
    unregister_backend("chaos")
