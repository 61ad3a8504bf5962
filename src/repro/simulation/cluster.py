"""Discrete-event cluster simulator for schedule execution and fault injection.

The paper motivates bag constraints with fault-tolerant parallel systems:
replicas of a service must run on distinct machines so that a single machine
failure cannot take the whole service down (Section 1.1).  This simulator
executes a computed schedule on a cluster of identical machines, optionally
injects machine failures, and reports

* the makespan actually realised (which equals the schedule's makespan when
  nothing fails),
* per-bag *survivability*: how many bags lose all / some / none of their
  jobs under the injected failures, and
* per-machine utilisation traces.

It is a substrate for the examples and for experiment E9; no claim of the
paper depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.schedule import Schedule

__all__ = ["MachineFailure", "SimulationReport", "ClusterSimulator", "simulate_schedule"]


@dataclass(frozen=True, slots=True)
class MachineFailure:
    """A machine that fails at a given time and stays down."""

    machine: int
    time: float


@dataclass(slots=True)
class SimulationReport:
    """Outcome of one simulation run."""

    completed_jobs: list[int] = field(default_factory=list)
    failed_jobs: list[int] = field(default_factory=list)
    makespan: float = 0.0
    machine_busy_time: dict[int, float] = field(default_factory=dict)
    bags_fully_completed: int = 0
    bags_partially_completed: int = 0
    bags_fully_lost: int = 0
    events: list[tuple[float, str]] = field(default_factory=list)

    @property
    def num_completed(self) -> int:
        return len(self.completed_jobs)

    @property
    def num_failed(self) -> int:
        return len(self.failed_jobs)

    def survivability(self) -> float:
        """Fraction of bags that kept at least one completed job."""
        total = self.bags_fully_completed + self.bags_partially_completed + self.bags_fully_lost
        if total == 0:
            return 1.0
        return (self.bags_fully_completed + self.bags_partially_completed) / total

    def utilisation(self, horizon: float | None = None) -> float:
        """Average machine utilisation over the given horizon (default makespan)."""
        if not self.machine_busy_time:
            return 0.0
        horizon = horizon or max(self.makespan, 1e-12)
        return float(np.mean([busy / horizon for busy in self.machine_busy_time.values()]))

    def to_dict(self) -> dict[str, float | int]:
        return {
            "completed": self.num_completed,
            "failed": self.num_failed,
            "makespan": self.makespan,
            "bags_fully_completed": self.bags_fully_completed,
            "bags_partially_completed": self.bags_partially_completed,
            "bags_fully_lost": self.bags_fully_lost,
            "survivability": self.survivability(),
            "utilisation": self.utilisation(),
        }


@dataclass(frozen=True, slots=True)
class _Event:
    """Internal event of the discrete-event loop (ordered by time, then kind)."""

    time: float
    order: int
    kind: str  # "finish" or "failure"
    machine: int
    job_id: int | None = None

    def sort_key(self) -> tuple[float, int, int]:
        # Failures at time t pre-empt job completions at the same instant:
        # a job finishing exactly when its machine dies is considered lost,
        # which is the conservative interpretation.
        kind_rank = 0 if self.kind == "failure" else 1
        return (self.time, kind_rank, self.order)


class ClusterSimulator:
    """Executes a schedule on a cluster with optional machine failures.

    Jobs on one machine run sequentially in LPT order (the order does not
    matter for the makespan, but a deterministic order makes failure
    outcomes reproducible).  A machine failure cancels the job currently
    running on it and every job still queued there.
    """

    def __init__(self, instance: Instance, schedule: Schedule) -> None:
        schedule.validate(require_complete=True)
        self.instance = instance
        self.schedule = schedule

    def run(self, failures: Iterable[MachineFailure] = ()) -> SimulationReport:
        report = SimulationReport()
        failures = sorted(failures, key=lambda f: f.time)
        failure_time: dict[int, float] = {}
        for failure in failures:
            failure_time.setdefault(failure.machine, failure.time)

        # Per-machine queues in deterministic LPT order.
        queues: dict[int, list[int]] = {m: [] for m in range(self.instance.num_machines)}
        for job_id, machine in self.schedule.assignment.items():
            queues[machine].append(job_id)
        for machine in queues:
            queues[machine].sort(key=lambda job_id: (-self.instance.job(job_id).size, job_id))

        completed: set[int] = set()
        failed: set[int] = set()
        busy: dict[int, float] = {m: 0.0 for m in queues}
        makespan = 0.0

        for machine, queue in queues.items():
            cutoff = failure_time.get(machine, float("inf"))
            clock = 0.0
            for job_id in queue:
                size = self.instance.job(job_id).size
                finish = clock + size
                if finish <= cutoff + 1e-12 and clock < cutoff:
                    completed.add(job_id)
                    busy[machine] += size
                    clock = finish
                    report.events.append((finish, f"finish job {job_id} on machine {machine}"))
                else:
                    failed.add(job_id)
                    report.events.append(
                        (min(cutoff, clock), f"lose job {job_id} on machine {machine}")
                    )
            makespan = max(makespan, min(clock, cutoff) if cutoff < float("inf") else clock)

        report.completed_jobs = sorted(completed)
        report.failed_jobs = sorted(failed)
        report.makespan = makespan
        report.machine_busy_time = busy

        for _, members in self.instance.bags().items():
            done = sum(1 for job in members if job.id in completed)
            if done == len(members):
                report.bags_fully_completed += 1
            elif done == 0:
                report.bags_fully_lost += 1
            else:
                report.bags_partially_completed += 1
        report.events.sort()
        return report

    def run_with_random_failures(
        self,
        *,
        num_failures: int,
        seed: int = 0,
        failure_window: tuple[float, float] | None = None,
    ) -> SimulationReport:
        """Fail ``num_failures`` distinct machines at random times."""
        rng = np.random.default_rng(seed)
        num_machines = self.instance.num_machines
        num_failures = min(num_failures, num_machines)
        machines = rng.choice(num_machines, size=num_failures, replace=False)
        if failure_window is None:
            failure_window = (0.0, max(self.schedule.makespan(), 1e-9))
        times = rng.uniform(failure_window[0], failure_window[1], size=num_failures)
        return self.run(
            MachineFailure(machine=int(m), time=float(t)) for m, t in zip(machines, times)
        )


def simulate_schedule(
    instance: Instance,
    schedule: Schedule,
    failures: Sequence[MachineFailure] = (),
) -> SimulationReport:
    """Convenience wrapper: build a simulator and run it once."""
    return ClusterSimulator(instance, schedule).run(failures)
