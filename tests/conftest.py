"""Shared instances and helpers for the test suite."""

import functools
import json
import random

import numpy as np
import pytest

from cvrptw_gas.instance import parse_instance, six_customer_example, unpack_assignment
from cvrptw_gas.oracle import mark_predicate
from cvrptw_gas.resources import register_widths


def make_instance(doc: dict):
    return parse_instance(json.dumps(doc))


@functools.lru_cache(maxsize=None)
def predicate_marks(inst, k) -> np.ndarray:
    """``mark_predicate`` at threshold ``k`` on every assignment index, in
    index order; cached because several tests scan the same fixtures."""
    n, b_node = inst.n, register_widths(inst).b_node
    bits = n * b_node + n
    return np.array([mark_predicate(inst, k, *unpack_assignment(n, b_node, s)).marked for s in range(1 << bits)])


@pytest.fixture(scope="session")
def single_customer():
    """n = 1: no pair flags and no overflow registers."""
    return make_instance({"n": 1, "c_max": 2, "distance": [[0, 7], [7, 0]], "demands": [1]})


@pytest.fixture(scope="session")
def windowed_pair():
    """n = 2 whose first customer's window opens after the earliest arrival."""
    return make_instance(
        {
            "n": 2,
            "c_max": 5,
            "distance": [[0, 5, 9], [5, 0, 4], [9, 4, 0]],
            "demands": [1, 1],
            "windows": [[8, 20], [0, 10]],
        }
    )


@pytest.fixture(scope="session")
def example6():
    return six_customer_example()


@pytest.fixture(scope="session")
def cap_bound3():
    """n=3, capacity binds (two demands of 2 against capacity 3), no windows."""
    return make_instance(
        {
            "n": 3,
            "c_max": 3,
            "distance": [[0, 3, 4, 5], [3, 0, 2, 4], [4, 2, 0, 3], [5, 4, 3, 0]],
            "demands": [2, 2, 1],
        }
    )


@pytest.fixture(scope="session")
def window_bound3():
    """n=3, loose capacity but binding delivery windows."""
    return make_instance(
        {
            "n": 3,
            "c_max": 7,
            "distance": [[0, 3, 5, 2], [3, 0, 2, 4], [5, 2, 0, 3], [2, 4, 3, 0]],
            "demands": [1, 1, 1],
            "windows": [[0, 6], [4, 9], [0, 12]],
        }
    )


@pytest.fixture(scope="session")
def mixed4():
    """n=4 with both capacity and windows binding."""
    return make_instance(
        {
            "n": 4,
            "c_max": 4,
            "distance": [
                [0, 5, 7, 3, 9],
                [5, 0, 4, 6, 2],
                [7, 4, 0, 8, 5],
                [3, 6, 8, 0, 4],
                [9, 2, 5, 4, 0],
            ],
            "demands": [2, 1, 3, 2],
            "windows": [[0, 20], [3, 10], [0, 25], [5, 18]],
        }
    )


@pytest.fixture(scope="session")
def vacuous3():
    """n=3 with every constraint slack: all 3! * 2^2 well-formed assignments feasible."""
    return make_instance(
        {
            "n": 3,
            "c_max": 7,
            "distance": [[0, 3, 4, 5], [3, 0, 2, 4], [4, 2, 0, 3], [5, 4, 3, 0]],
            "demands": [2, 1, 2],
        }
    )


def binding_instance(rng, n):
    """A random instance where capacity and windows both reject candidates and
    some windows open after the earliest arrival, so waiting delays the rest
    of a route. Single-customer routes stay feasible."""
    side = n + 1
    D = [[0 if i == j else rng.randint(1, 9) for j in range(side)] for i in range(side)]
    c_max = rng.randint(3, 6)
    demands = [rng.randint(1, c_max) for _ in range(n)]
    windows = []
    for i in range(1, side):
        opening = max(0, D[0][i] + rng.randint(-3, 8))
        windows.append([opening, opening + rng.randint(4, 25)])
    return make_instance({"n": n, "c_max": c_max, "distance": D, "demands": demands, "windows": windows})


@pytest.fixture(scope="session")
def bound7():
    return binding_instance(random.Random(7), 7)


@pytest.fixture(scope="session")
def bound8():
    return binding_instance(random.Random(8), 8)


def random_instance(rng, n, with_windows):
    """A small random instance; always keeps single-customer routes feasible."""
    side = n + 1
    D = [[0 if i == j else rng.randint(1, 9) for j in range(side)] for i in range(side)]
    c_max = rng.randint(3, 6)
    demands = [rng.randint(1, c_max) for _ in range(n)]
    doc = {"n": n, "c_max": c_max, "distance": D, "demands": demands}
    if with_windows:
        windows = []
        for i in range(1, side):
            earliest = max(0, D[0][i] - rng.randint(0, 3))
            windows.append([earliest, D[0][i] + rng.randint(2, 25)])
        doc["windows"] = windows
    return make_instance(doc)
