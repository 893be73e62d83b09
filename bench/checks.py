"""Correctness checks on every output the benchmark measures.

Each check compares a result with a reference computed apart from the code
that produced it: GAS costs and marked counts against an enumeration through
``classical.feasible_and_cost``, oracle scans against their own zero
mismatch/ancilla/decision counts, qubit counts against the closed-form
budget, and statevector probabilities against the closed form.
"""

from __future__ import annotations

import bisect
import itertools

from cvrptw_gas import classical, resources
from cvrptw_gas.instance import Instance
from cvrptw_gas.oracle import ScanReport, unpack_assignment

PROBABILITY_TOLERANCE = 1e-9


class CheckError(AssertionError):
    """An output the benchmark measured is wrong."""


def feasible_costs(inst: Instance) -> list[int]:
    """Sorted costs of every feasible well-formed candidate: all n! tours
    times all 2^(n-1) split vectors ending in 1."""
    n = inst.n
    costs = []
    for P in itertools.permutations(range(1, n + 1)):
        for interior in itertools.product((0, 1), repeat=n - 1):
            report = classical.feasible_and_cost(inst, P, (*interior, 1))
            if report.feasible:
                costs.append(report.cost)
    costs.sort()
    return costs


def routes_to_assignment(routes) -> tuple[list[int], list[int]]:
    P: list[int] = []
    y: list[int] = []
    for route in routes:
        P.extend(route)
        y.extend([0] * (len(route) - 1) + [1])
    return P, y


def check_routes(inst: Instance, routes, cost: int, label: str) -> None:
    P, y = routes_to_assignment(routes)
    report = classical.feasible_and_cost(inst, P, y)
    if not report.feasible or report.cost != cost:
        raise CheckError(f"{label}: routes {routes} are not feasible at cost {cost} ({report})")


def check_solve(inst: Instance, doc: dict, optimum: int, costs: list[int]) -> None:
    """A GAS result, in the ``cvrptw-gas solve --method gas`` JSON shape.

    The cost must be the brute-force optimum, every threshold's M(k) must
    equal the enumerated count of feasible costs below k, the last threshold
    must be certified empty at the optimum, and the routes must be feasible
    at the reported cost.
    """
    label = f"gas seed {doc['trace']['seed']}"
    if doc["cost"] != optimum:
        raise CheckError(f"{label}: cost {doc['cost']} differs from the brute-force optimum {optimum}")
    thresholds = doc["trace"]["thresholds"]
    for t in thresholds:
        expected = bisect.bisect_left(costs, t["k"])
        if t["M"] != expected:
            raise CheckError(f"{label}: M({t['k']}) = {t['M']}, enumeration gives {expected}")
        if t["oracle_calls"] != sum(trial["m"] for trial in t["trials"]):
            raise CheckError(f"{label}: oracle calls at k={t['k']} do not add up to its trials")
    last = thresholds[-1]
    if last["M"] != 0 or last["trials"] or last["k"] != optimum:
        raise CheckError(f"{label}: last threshold k={last['k']} is not certified empty at the optimum")
    check_routes(inst, doc["routes"], doc["cost"], label)


def check_qubits(inst: Instance, qubit_count: int) -> None:
    budget = resources.instance_budget(inst).total
    if qubit_count != budget:
        raise CheckError(f"oracle has {qubit_count} qubits, the budget says {budget}")


def check_scan(report: ScanReport, expected_count: int, label: str) -> None:
    if report.assignments_checked != expected_count:
        raise CheckError(f"{label}: checked {report.assignments_checked} of {expected_count} assignments")
    if report.mismatches or report.dirty_ancillas or report.decision_changed:
        raise CheckError(
            f"{label}: {report.mismatches} mismatches, {report.dirty_ancillas} dirty ancillas, "
            f"{report.decision_changed} changed decision bits"
        )


def batch_marks(inst: Instance, k: int, indices, b_node: int) -> tuple[int, int]:
    """(marked, unmarked) assignments of a batch by ``feasible_and_cost``;
    malformed ones count as unmarked. Both must be present, so a scan of the
    batch exercises both verdicts."""
    n = inst.n
    marked = 0
    for idx in indices:
        P, y = unpack_assignment(n, b_node, int(idx))
        if y[-1] != 1 or sorted(P) != list(range(1, n + 1)):
            continue
        report = classical.feasible_and_cost(inst, P, y)
        marked += report.feasible and report.cost < k
    unmarked = len(indices) - marked
    if not marked or not unmarked:
        raise CheckError(f"batch at k={k} holds {marked} marked and {unmarked} unmarked assignments")
    return marked, unmarked


def check_probability(got: float, expected: float, label: str) -> None:
    if not abs(got - expected) <= PROBABILITY_TOLERANCE:
        raise CheckError(f"{label}: statevector gives {got!r}, the closed form {expected!r}")


def check_heuristic(inst: Instance, routes, cost: int, optimum: int) -> None:
    if cost < optimum:
        raise CheckError(f"heuristic cost {cost} beats the brute-force optimum {optimum}")
    check_routes(inst, routes, cost, "heuristic")
