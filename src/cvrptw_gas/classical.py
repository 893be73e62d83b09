"""Classical reference algorithms: feasibility recurrences, exhaustive search,
and the giant-tour split procedure over its auxiliary graph.

These are the ground-truth twins of the circuit constructions. They are kept
structurally independent of the circuit code (and of each other where two
routes compute the same quantity) so cross-checks between them mean
something.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instance import Instance, InstanceError, RouteSet, decode_assignment


class InfeasibleError(RuntimeError):
    """No candidate satisfies the constraints."""


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    cost: int | None
    loads: tuple[int, ...]
    times: tuple[int, ...]
    violation: str | None = None  # "capacity" | "time"
    violation_index: int | None = None


def tour_cost(inst: Instance, P, y) -> int:
    """Objective value: direct legs where the split bit is clear, a return
    through the depot where it is set, plus the opening and closing legs."""
    D = inst.D
    cost = D[0][P[0]]
    for i in range(1, len(P)):
        if y[i - 1]:
            cost += D[P[i - 1]][0] + D[0][P[i]]
        else:
            cost += D[P[i - 1]][P[i]]
    return cost + D[P[-1]][0]


def feasible_and_cost(inst: Instance, P, y) -> FeasibilityReport:
    """Evaluate the load and clock recurrences along a split giant tour.

    ``P`` must be a permutation of the customers and ``y`` must end in 1.
    Loads accumulate until a set split bit resets them; the clock restarts
    from the depot after a split and otherwise advances by the travel time,
    waiting for the window to open when it arrives early.
    """
    P = list(P)
    y = list(y)
    n = inst.n
    if sorted(P) != list(range(1, n + 1)):
        raise InstanceError("tour is not a permutation of the customers")
    if len(y) != n or y[-1] != 1:
        raise InstanceError("split vector must have n entries and end in 1")

    loads: list[int] = []
    times: list[int] = []
    for i in range(n):
        fresh = i == 0 or y[i - 1] == 1
        load = inst.q[P[i]] + (0 if fresh else loads[-1])
        arrive = inst.T[0][P[i]] if fresh else times[-1] + inst.T[P[i - 1]][P[i]]
        a, _ = inst.windows[P[i]]
        loads.append(load)
        times.append(max(a, arrive))

    for i in range(n):
        if loads[i] > inst.c_max:
            return FeasibilityReport(False, None, tuple(loads), tuple(times), "capacity", i + 1)
        if times[i] > inst.windows[P[i]][1]:
            return FeasibilityReport(False, None, tuple(loads), tuple(times), "time", i + 1)
    return FeasibilityReport(True, tour_cost(inst, P, y), tuple(loads), tuple(times))


def _split_cost(inst: Instance, P: tuple[int, ...], y: tuple[int, ...]) -> int | None:
    """Cost of a candidate or None when infeasible; tight loop for enumeration."""
    q, T, windows, c_max = inst.q, inst.T, inst.windows, inst.c_max
    load = 0
    clock = 0
    prev = 0
    for i, node in enumerate(P):
        if prev == 0:
            load = q[node]
            arrive = T[0][node]
        else:
            load += q[node]
            arrive = clock + T[prev][node]
        if load > c_max:
            return None
        a, b = windows[node]
        clock = arrive if arrive > a else a
        if clock > b:
            return None
        prev = 0 if y[i] else node
    return tour_cost(inst, P, y)


BRUTE_FORCE_CUSTOMER_CAP = 9


def brute_force_optimum(inst: Instance) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Exact minimum over every permutation and every split of it.

    Candidates are scanned in lexicographic (P, y) order and only strict
    improvements are kept, so the reported optimum is the lexicographically
    smallest one.
    """
    n = inst.n
    if n > BRUTE_FORCE_CUSTOMER_CAP:
        raise InstanceError(f"brute force capped at {BRUTE_FORCE_CUSTOMER_CAP} customers, instance has {n}")
    best: tuple[tuple[int, ...], tuple[int, ...], int] | None = None
    for P in itertools.permutations(range(1, n + 1)):
        for interior in itertools.product((0, 1), repeat=n - 1):
            y = interior + (1,)
            cost = _split_cost(inst, P, y)
            if cost is not None and (best is None or cost < best[2]):
                best = (P, y, cost)
    if best is None:
        raise InfeasibleError("no feasible solution exists")
    return best


@dataclass(frozen=True)
class AuxiliaryGraph:
    """DAG over tour positions 0..n; an arc (i, j) is a feasible sub-tour
    serving customers at positions i+1..j, weighted by its depot-to-depot cost."""

    node_count: int
    arcs: tuple[tuple[int, int, int], ...]


def build_auxiliary_graph(inst: Instance, tour) -> AuxiliaryGraph:
    """Enumerate the feasible sub-tours of a giant tour.

    Feasibility of an arc combines the capacity of the whole segment with the
    clock recurrence started fresh from the depot. Both the load and the
    clock only grow along a segment, so extension stops at the first
    violation.
    """
    tour = list(tour)
    n = inst.n
    if sorted(tour) != list(range(1, n + 1)):
        raise InstanceError("tour is not a permutation of the customers")
    arcs: list[tuple[int, int, int]] = []
    for i in range(n):
        load = 0
        clock = 0
        inner = 0  # cost of the legs strictly inside the segment
        for j in range(i + 1, n + 1):
            node = tour[j - 1]
            load += inst.q[node]
            if load > inst.c_max:
                break
            if j == i + 1:
                arrive = inst.T[0][node]
            else:
                prev = tour[j - 2]
                arrive = clock + inst.T[prev][node]
                inner += inst.D[prev][node]
            a, b = inst.windows[node]
            clock = max(a, arrive)
            if clock > b:
                break
            weight = inst.D[0][tour[i]] + inner + inst.D[node][0]
            arcs.append((i, j, weight))
    return AuxiliaryGraph(n + 1, tuple(arcs))


def split_shortest_path(g: AuxiliaryGraph) -> tuple[tuple[int, ...], int]:
    """Single pass over the DAG in index order; returns (split bits, cost).

    Equal-cost predecessors resolve to the smallest index. The split vector
    sets bit j exactly at the interior path nodes and at n.
    """
    n = g.node_count - 1
    inf = float("inf")
    dist: list[float] = [inf] * (n + 1)
    pred: list[int] = [-1] * (n + 1)
    dist[0] = 0
    by_target: dict[int, list[tuple[int, int]]] = {}
    for i, j, w in g.arcs:
        by_target.setdefault(j, []).append((i, w))
    for j in range(1, n + 1):
        for i, w in sorted(by_target.get(j, ())):
            if dist[i] + w < dist[j]:
                dist[j] = dist[i] + w
                pred[j] = i
    if dist[n] == inf:
        raise InfeasibleError("no feasible split of this tour")
    y = [0] * n
    node = n
    while node > 0:
        y[node - 1] = 1
        node = pred[node]
    return tuple(y), int(dist[n])


HELD_KARP_CUSTOMER_CAP = 12


def _held_karp_cycle(inst: Instance) -> list[int]:
    """Cheapest customer-only cycle, anchored at customer 1.

    Tie-breaks go to the first candidate found with strictly smaller cost, so
    the tour is deterministic. The returned order starts at customer 1 in the
    direction whose second customer has the smaller id.
    """
    n = inst.n
    if n == 1:
        return [1]
    D = inst.D
    others = list(range(2, n + 1))
    m = len(others)
    # dp[(mask, last)] = cheapest path 1 -> ... -> others[last] covering mask
    dp: dict[tuple[int, int], tuple[int, int]] = {}
    for t in range(m):
        dp[(1 << t, t)] = (D[1][others[t]], -1)
    for mask in range(1, 1 << m):
        for t in range(m):
            if not mask & (1 << t) or (mask, t) not in dp:
                continue
            base, _ = dp[(mask, t)]
            for u in range(m):
                if mask & (1 << u):
                    continue
                cand = base + D[others[t]][others[u]]
                key = (mask | (1 << u), u)
                if key not in dp or cand < dp[key][0]:
                    dp[key] = (cand, t)
    full = (1 << m) - 1
    best_t = min(range(m), key=lambda t: (dp[(full, t)][0] + D[others[t]][1], t))
    order = []
    mask, t = full, best_t
    while t != -1:
        order.append(others[t])
        _, t_prev = dp[(mask, t)]
        mask ^= 1 << t
        t = t_prev
    order.reverse()
    tour = [1] + order
    if n > 2 and tour[-1] < tour[1]:
        tour = [1] + tour[:0:-1]
    return tour


def _nearest_neighbor_tour(inst: Instance) -> list[int]:
    remaining = set(range(1, inst.n + 1))
    tour: list[int] = []
    here = 0
    while remaining:
        nxt = min(remaining, key=lambda v: (inst.D[here][v], v))
        tour.append(nxt)
        remaining.remove(nxt)
        here = nxt
    return tour


def route_first_cluster_second(inst: Instance) -> tuple[RouteSet, int]:
    """Build one giant tour, then split it optimally.

    The tour itself is the exact cheapest customer cycle up to the Held-Karp
    cap and a nearest-neighbor walk beyond it; either way the split is the
    shortest path over the auxiliary graph. The overall result is a
    heuristic: the best split of one tour need not be the problem optimum.
    """
    if inst.n <= HELD_KARP_CUSTOMER_CAP:
        tour = _held_karp_cycle(inst)
    else:
        tour = _nearest_neighbor_tour(inst)
    y, cost = split_shortest_path(build_auxiliary_graph(inst, tour))
    return decode_assignment(inst, tour, y), cost
