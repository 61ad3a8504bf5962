"""Workloads of the EPTAS benchmark.

Each workload is a fixed list of instance specs (family, parameters, the
family's own generator seed, and the ``eps`` the call uses).  The families
are re-implemented here, draw for draw the same as the generators in
``repro.generators.families``, so a later change to the library's generators
cannot silently change what the benchmark measures.

The ``--seed`` of a run does not pick other instances.  It relabels each one:
job identifiers are permuted and the job list is shuffled.  The instance stays
the same up to names, so pattern counts, MILP sizes and the terminal regime of
every call stay fixed, while no two seeds hand the program identical inputs.
Job ids break ties in the greedy bracket and in placement, so a makespan can
still differ a little between seeds.  README.md says why each workload was
chosen.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.instance import Instance
from repro.core.job import Job

__all__ = ["Spec", "Workload", "WORKLOADS", "WARMUP", "build_instance"]

# (size, bag) pairs plus the machine count: what a family generator returns.
Raw = tuple[list[tuple[float, int]], int]


def _random_bags(num_jobs: int, num_bags: int, num_machines: int, rng) -> list[int]:
    bags: list[int] = []
    counts = np.zeros(num_bags, dtype=int)
    for _ in range(num_jobs):
        choice = int(rng.choice(np.flatnonzero(counts < num_machines)))
        bags.append(choice)
        counts[choice] += 1
    return bags


def uniform(*, n: int, m: int, b: int, seed: int) -> Raw:
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(0.05, 1.0, size=n).tolist()
    return list(zip(sizes, _random_bags(n, b, m, rng))), m


def clustered(*, n: int = 60, m: int = 6, b: int = 10, seed: int) -> Raw:
    rng = np.random.default_rng(seed)
    sizes = rng.choice(np.array([1.0, 0.6, 0.3, 0.1]), size=n).tolist()
    return list(zip(sizes, _random_bags(n, b, m, rng))), m


def planted(*, m: int, seed: int) -> Raw:
    # The library shuffles the job list last; build_instance shuffles anyway.
    rng = np.random.default_rng(seed)
    jobs: list[tuple[float, int]] = []
    for _ in range(m):
        count = int(rng.integers(2, 6))
        cuts = np.sort(rng.uniform(0.0, 1.0, size=count - 1)) if count > 1 else np.array([])
        parts = np.maximum(np.diff(np.concatenate(([0.0], cuts, [1.0]))), 1e-6)
        parts = parts * (1.0 / parts.sum())
        jobs.extend((float(size), position) for position, size in enumerate(parts))
    return jobs, m


def figure1(*, m: int, seed: int) -> Raw:
    # Large jobs in distinct bags, one full bag of small jobs.
    return [(0.5, 1 + i) for i in range(m)] + [(0.5, 0)] * m, m


def replicas(
    *, services: int, m: int, seed: int, size_range: tuple[float, float] = (0.1, 0.9)
) -> Raw:
    rng = np.random.default_rng(seed)
    jobs: list[tuple[float, int]] = []
    for service in range(services):
        count = min(int(rng.integers(2, 5)), m)
        size = float(rng.uniform(*size_range))
        jobs.extend((size, service) for _ in range(count))
    return jobs, m


def two_size(*, m: int, large_per_machine: int, seed: int) -> Raw:
    jobs = [(0.65, position) for position in range(large_per_machine) for _ in range(m)]
    return jobs + [(0.35, large_per_machine)] * m, m


FAMILIES: dict[str, Callable[..., Raw]] = {
    "uniform": uniform,
    "clustered": clustered,
    "planted": planted,
    "figure1": figure1,
    "replicas": replicas,
    "two-size": two_size,
}


@dataclass(frozen=True)
class Spec:
    """One instance of a workload and the regime it ends in at this commit."""

    family: str
    params: dict[str, Any]
    eps: float
    regime: str  # "optimal" (first guess) or "cap" (pattern cap, greedy returned)

    @property
    def name(self) -> str:
        args = "-".join(f"{key}{value}" for key, value in self.params.items())
        return f"{self.family}-{args}-eps{self.eps:g}"


@dataclass(frozen=True)
class Workload:
    specs: tuple[Spec, ...]
    smoke: tuple[Spec, ...]  # reduced instances of the same regimes, for the self-test


def build_instance(spec: Spec, seed: int) -> Instance:
    """The spec's instance, relabeled by the run seed."""
    pairs, machines = FAMILIES[spec.family](**spec.params)
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    ids = rng.permutation(len(pairs)).tolist()
    jobs = [Job(id=ids[i], size=size, bag=bag) for i, (size, bag) in enumerate(pairs)]
    order = rng.permutation(len(jobs)).tolist()
    return Instance([jobs[i] for i in order], machines, name=spec.name)


def _spec(family: str, eps: float, regime: str, **params: Any) -> Spec:
    return Spec(family, params, eps, regime)


WORKLOADS: dict[str, Workload] = {
    "milp-solve": Workload(
        specs=(
            _spec("planted", 0.5, "optimal", m=16, seed=0),
            _spec("clustered", 0.5, "optimal", n=40, m=8, b=8, seed=0),
            _spec("planted", 0.25, "optimal", m=8, seed=0),
            _spec("figure1", 0.25, "optimal", m=200, seed=0),
        ),
        smoke=(
            _spec("planted", 0.5, "optimal", m=8, seed=0),
            _spec("figure1", 0.25, "optimal", m=20, seed=0),
        ),
    ),
    "many-jobs": Workload(
        specs=(
            _spec("uniform", 0.5, "optimal", n=20000, m=100, b=400, seed=0),
            _spec("uniform", 0.5, "optimal", n=20000, m=100, b=400, seed=1),
            _spec("uniform", 0.5, "optimal", n=20000, m=100, b=400, seed=2),
            _spec(
                "replicas", 0.5, "optimal",
                services=2000, m=64, seed=0, size_range=(0.01, 0.2),
            ),
            _spec("two-size", 0.5, "optimal", m=2000, large_per_machine=2, seed=0),
        ),
        smoke=(
            _spec("uniform", 0.5, "optimal", n=2000, m=20, b=100, seed=0),
            _spec("two-size", 0.5, "optimal", m=200, large_per_machine=2, seed=0),
        ),
    ),
    "pattern-cap": Workload(
        specs=(
            _spec("replicas", 0.5, "cap", services=30, m=12, seed=0),
            _spec("replicas", 0.5, "cap", services=30, m=12, seed=1),
            _spec("replicas", 0.5, "cap", services=40, m=16, seed=0),
            _spec("clustered", 0.5, "cap", seed=0),
            _spec("clustered", 0.5, "cap", seed=1),
        ),
        smoke=(_spec("clustered", 0.5, "cap", seed=0),),
    ),
}

# A small instance solved once during set-up: it runs every stage, HiGHS
# included, so lazy imports and first-call costs land in set-up.
WARMUP = _spec("planted", 0.5, "optimal", m=4, seed=0)
