"""Instance builders and the scalar mark table shared by the test modules.

They live outside ``conftest.py`` so that a test module imports them by a
name no other test directory defines: ``bench/`` has a ``conftest.py`` of its
own, and one pytest run over both directories keeps only one module named
``conftest``."""

import functools
import json

import numpy as np

from cvrptw_gas.instance import parse_instance, unpack_assignment
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
