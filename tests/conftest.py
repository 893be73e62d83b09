"""Shared fixtures for the test suite; the helpers behind them are in
``support.py``."""

import random

import pytest

from cvrptw_gas.instance import six_customer_example

# The acceptance suite imports make_instance and random_instance from here.
from support import binding_instance, make_instance, random_instance  # noqa: F401


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


@pytest.fixture(scope="session")
def bound7():
    return binding_instance(random.Random(7), 7)


@pytest.fixture(scope="session")
def bound8():
    return binding_instance(random.Random(8), 8)
