"""Classical references: recurrences, brute force, auxiliary graph, split."""

import itertools
import random

import pytest

from cvrptw_gas.classical import (
    HELD_KARP_CUSTOMER_CAP,
    InfeasibleError,
    _nearest_neighbor_tour,
    brute_force_optimum,
    build_auxiliary_graph,
    feasible_and_cost,
    route_first_cluster_second,
    split_shortest_path,
    tour_cost,
)
from cvrptw_gas.instance import InstanceError, decode_assignment

from support import make_instance, random_instance

SIX_CUSTOMER_OPTIMUM = 181  # frozen from this module's own brute-force oracle


def test_identity_tour_all_splits(example6):
    report = feasible_and_cost(example6, [1, 2, 3, 4, 5, 6], [1] * 6)
    assert report.feasible
    assert report.cost == 272
    assert report.loads == (2, 3, 1, 3, 2, 3)


def test_capacity_violation_detected(example6):
    report = feasible_and_cost(example6, [2, 4, 1, 3, 5, 6], [0, 1, 1, 1, 1, 1])
    assert not report.feasible
    assert report.violation == "capacity"
    assert report.violation_index == 2
    assert report.loads[1] == 6


def test_single_customer_cost():
    inst = make_instance({"n": 1, "c_max": 2, "distance": [[0, 7], [7, 0]], "demands": [1]})
    report = feasible_and_cost(inst, [1], [1])
    assert report.feasible and report.cost == 2 * 7
    assert brute_force_optimum(inst) == ((1,), (1,), 14)


def test_non_permutation_rejected(example6):
    with pytest.raises(InstanceError):
        feasible_and_cost(example6, [1, 1, 3, 4, 5, 6], [1] * 6)


def test_split_vector_must_end_in_one(example6):
    with pytest.raises(InstanceError, match=r"^split vector must have n entries and end in 1$"):
        feasible_and_cost(example6, [1, 2, 3, 4, 5, 6], [1, 1, 1, 1, 1, 0])


def test_time_recurrence_waits_for_window():
    inst = make_instance(
        {
            "n": 2,
            "c_max": 5,
            "distance": [[0, 5, 9], [5, 0, 4], [9, 4, 0]],
            "demands": [1, 1],
            "windows": [[8, 20], [0, 10]],
        }
    )
    report = feasible_and_cost(inst, [1, 2], [0, 1])
    assert report.times == (8, 12)  # waits to 8, then 8 + 4 misses the close of 10
    assert not report.feasible and report.violation == "time"


def test_brute_force_matches_exhaustive_reference(example6):
    P, y, cost = brute_force_optimum(example6)
    assert cost == SIX_CUSTOMER_OPTIMUM
    assert P == (1, 2, 3, 6, 4, 5)
    assert y == (0, 1, 0, 1, 0, 1)
    assert feasible_and_cost(example6, P, y).cost == cost


def test_brute_force_symmetric_customers():
    inst = make_instance(
        {
            "n": 2,
            "c_max": 2,
            "distance": [[0, 4, 4], [4, 0, 3], [4, 3, 0]],
            "demands": [1, 1],
        }
    )
    c12 = feasible_and_cost(inst, [1, 2], [0, 1]).cost
    c21 = feasible_and_cost(inst, [2, 1], [0, 1]).cost
    assert c12 == c21  # swapping the identical customers is cost-neutral


def test_brute_force_infeasible():
    inst = make_instance(
        {
            "n": 1,
            "c_max": 2,
            "distance": [[0, 7], [7, 0]],
            "demands": [1],
            "windows": [[0, 3]],
        }
    )
    with pytest.raises(InfeasibleError):
        brute_force_optimum(inst)


def test_auxiliary_graph_arc_values(example6):
    g = build_auxiliary_graph(example6, [1, 2, 3, 4, 5, 6])
    arcs = {(i, j): w for i, j, w in g.arcs}
    assert arcs[(0, 1)] == 46  # out and back to customer 1
    assert arcs[(0, 2)] == 23 + 17 + 30  # demand 2 + 3 = 5 just fits
    assert (0, 3) not in arcs  # demand 2 + 3 + 1 = 6 exceeds capacity


def test_auxiliary_graph_respects_windows():
    inst = make_instance(
        {
            "n": 2,
            "c_max": 5,
            "distance": [[0, 5, 9], [5, 0, 4], [9, 4, 0]],
            "demands": [1, 1],
            "windows": [[8, 20], [0, 10]],
        }
    )
    arcs = {(i, j) for i, j, _ in build_auxiliary_graph(inst, [1, 2]).arcs}
    assert (0, 1) in arcs and (1, 2) in arcs
    assert (0, 2) not in arcs  # waiting at customer 1 misses customer 2's window


def test_split_forced_path():
    inst = make_instance(
        {
            "n": 3,
            "c_max": 2,
            "distance": [[0, 3, 4, 5], [3, 0, 2, 4], [4, 2, 0, 3], [5, 4, 3, 0]],
            "demands": [2, 2, 2],
        }
    )
    g = build_auxiliary_graph(inst, [1, 2, 3])
    assert {(i, j) for i, j, _ in g.arcs} == {(0, 1), (1, 2), (2, 3)}
    y, cost = split_shortest_path(g)
    assert y == (1, 1, 1)
    assert cost == sum(w for _, _, w in g.arcs)


def test_split_matches_exhaustive_enumeration(example6):
    tour = [1, 2, 3, 4, 5, 6]
    y, cost = split_shortest_path(build_auxiliary_graph(example6, tour))
    best = min(
        (
            r.cost
            for interior in itertools.product((0, 1), repeat=5)
            if (r := feasible_and_cost(example6, tour, (*interior, 1))).feasible
        ),
    )
    assert cost == best == 218
    assert feasible_and_cost(example6, tour, y).cost == cost


def test_split_unreachable():
    inst = make_instance(
        {
            "n": 1,
            "c_max": 2,
            "distance": [[0, 7], [7, 0]],
            "demands": [1],
            "windows": [[0, 3]],
        }
    )
    with pytest.raises(InfeasibleError):
        split_shortest_path(build_auxiliary_graph(inst, [1]))


def test_split_random_instances_match_enumeration():
    rng = random.Random(2024)
    for trial in range(100):
        n = rng.randint(2, 7)
        inst = random_instance(rng, n, with_windows=trial % 2 == 0)
        tour = list(range(1, n + 1))
        rng.shuffle(tour)
        best = None
        for interior in itertools.product((0, 1), repeat=n - 1):
            y = (*interior, 1)
            try:
                report = feasible_and_cost(inst, tour, y)
            except InstanceError:
                continue
            if report.feasible and (best is None or report.cost < best):
                best = report.cost
        g = build_auxiliary_graph(inst, tour)
        if best is None:
            with pytest.raises(InfeasibleError):
                split_shortest_path(g)
        else:
            _, cost = split_shortest_path(g)
            assert cost == best


def test_min_split_over_all_tours_is_brute_force():
    rng = random.Random(77)
    for trial in range(10):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n, with_windows=trial % 2 == 0)
        try:
            _, _, opt = brute_force_optimum(inst)
        except InfeasibleError:
            continue
        best = None
        for tour in itertools.permutations(range(1, n + 1)):
            try:
                _, cost = split_shortest_path(build_auxiliary_graph(inst, tour))
            except InfeasibleError:
                continue
            if best is None or cost < best:
                best = cost
        assert best == opt


def test_heuristic_single_customer():
    inst = make_instance({"n": 1, "c_max": 2, "distance": [[0, 7], [7, 0]], "demands": [1]})
    routes, cost = route_first_cluster_second(inst)
    assert routes.routes == ((1,),) and cost == 14


def test_heuristic_never_beats_brute_force(example6):
    _, heuristic_cost = route_first_cluster_second(example6)
    assert heuristic_cost >= SIX_CUSTOMER_OPTIMUM
    rng = random.Random(5150)
    for trial in range(50):
        inst = random_instance(rng, rng.randint(2, 6), with_windows=trial % 2 == 0)
        try:
            _, _, opt = brute_force_optimum(inst)
        except InfeasibleError:
            continue
        try:
            _, cost = route_first_cluster_second(inst)
        except InfeasibleError:
            continue
        assert cost >= opt


def test_heuristic_past_held_karp_cap_splits_nearest_neighbor_tour():
    """Beyond the Held-Karp cap the giant tour is the nearest-neighbour walk,
    split optimally."""
    n = 13
    assert n > HELD_KARP_CUSTOMER_CAP
    rng = random.Random(13)
    inst = make_instance(
        {
            "n": n,
            "c_max": 6,
            "distance": [[0 if i == j else rng.randint(1, 20) for j in range(n + 1)] for i in range(n + 1)],
            "demands": [rng.randint(1, 3) for _ in range(n)],
        }
    )
    routes, cost = route_first_cluster_second(inst)
    assert sorted(v for route in routes.routes for v in route) == list(range(1, n + 1))
    tour = _nearest_neighbor_tour(inst)
    y, split_cost = split_shortest_path(build_auxiliary_graph(inst, tour))
    assert routes == decode_assignment(inst, tour, y)
    assert cost == split_cost == tour_cost(inst, tour, y)


def test_tour_cost_formula(example6):
    # all splits: twice the sum of depot legs
    assert tour_cost(example6, [1, 2, 3, 4, 5, 6], [1] * 6) == 272
    # no interior splits: straight path out and back
    assert tour_cost(example6, [1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 1]) == 171
