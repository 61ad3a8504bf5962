"""Bipartite assignment helpers built on the max-flow substrate.

Lemma 3 of the paper assigns medium jobs of non-priority bags to machines
through a flow network: one node per bag, one node per machine, unit
capacities between a bag and every machine that carries no large job of the
bag, demand ``|B_l^med|`` at the bag side, and per-machine capacity
``ceil(sum_j x_{i,j})`` derived from an even fractional spreading.  This
module exposes that primitive, :func:`solve_bag_assignment`, which the
medium-job re-insertion of :mod:`repro.eptas.transformation` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .maxflow import FlowNetwork

__all__ = [
    "AssignmentProblem",
    "AssignmentResult",
    "solve_bag_assignment",
]

_SOURCE = "__source__"
_SINK = "__sink__"


@dataclass(frozen=True, slots=True)
class AssignmentProblem:
    """A bag-to-machine assignment problem with capacities.

    Attributes
    ----------
    demands:
        Mapping ``group -> number of items to place`` (the paper: bag ->
        number of medium jobs).
    machine_capacities:
        Mapping ``machine -> maximum number of items it may receive``.
    allowed:
        Mapping ``group -> machines eligible for that group`` (the paper:
        machines holding no large job of the bag).  At most one item of a
        group may go to a single machine (unit edge capacity), mirroring the
        bag constraint.
    """

    demands: Mapping[Hashable, int]
    machine_capacities: Mapping[Hashable, int]
    allowed: Mapping[Hashable, Sequence[Hashable]]

    def total_demand(self) -> int:
        return sum(int(v) for v in self.demands.values())


@dataclass(frozen=True, slots=True)
class AssignmentResult:
    """Result of :func:`solve_bag_assignment`.

    ``assignment`` maps ``group -> list of machines``, one entry per placed
    item.  ``placed`` is the number of items placed; the problem is fully
    satisfied iff ``placed == total demand``.
    """

    assignment: dict[Hashable, list[Hashable]]
    placed: int
    satisfied: bool


def solve_bag_assignment(problem: AssignmentProblem) -> AssignmentResult:
    """Place as many items as possible subject to the capacities.

    Builds the Lemma-3 flow network (source -> group with capacity
    ``demand``, group -> machine with capacity ``1`` for allowed machines,
    machine -> sink with the machine capacity) and solves a single max-flow.
    Integrality of the flow gives an integral assignment; the paper's
    argument shows that when the fractional spreading is feasible the flow
    saturates every demand.
    """
    network = FlowNetwork()
    network.add_node(_SOURCE)
    network.add_node(_SINK)
    group_nodes: dict[Hashable, tuple[str, Hashable]] = {}
    machine_nodes: dict[Hashable, tuple[str, Hashable]] = {}

    for group, demand in problem.demands.items():
        node = ("group", group)
        group_nodes[group] = node
        network.add_edge(_SOURCE, node, int(demand))
    for machine, capacity in problem.machine_capacities.items():
        node = ("machine", machine)
        machine_nodes[machine] = node
        network.add_edge(node, _SINK, int(capacity))
    for group, machines in problem.allowed.items():
        if group not in group_nodes:
            continue
        for machine in machines:
            if machine not in machine_nodes:
                # Machines without declared capacity default to capacity 0;
                # adding the edge would be pointless.
                continue
            network.add_edge(group_nodes[group], machine_nodes[machine], 1)

    result = network.max_flow(_SOURCE, _SINK)
    assignment: dict[Hashable, list[Hashable]] = {group: [] for group in problem.demands}
    for (u, v), amount in result.edge_flows.items():
        if (
            isinstance(u, tuple)
            and isinstance(v, tuple)
            and u[0] == "group"
            and v[0] == "machine"
            and amount > 0
        ):
            assignment[u[1]].extend([v[1]] * amount)
    placed = result.value
    return AssignmentResult(
        assignment=assignment,
        placed=placed,
        satisfied=placed >= problem.total_demand(),
    )
