"""Workload inputs: the bundled example, two generated instances, the verify
batch and the synthetic statevector oracle, all derived from the workload seed.

The generated instances rename the customers of a fixed base instance with a
seeded permutation. Renaming changes every position code, so each seed gives
different feasible indices, GAS trajectories and batch verdicts, while the
feasible-row count, the optimum and every gate count stay those of the base.
That keeps counted metrics comparable from one seed to the next.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from cvrptw_gas import oracle
from cvrptw_gas.grover import search_space
from cvrptw_gas.resources import register_widths
from cvrptw_gas.instance import Instance, parse_instance, serialize_instance, six_customer_example

# Drawn once from a random planar layout (distances rounded plus a small
# asymmetric jitter, windows of width 15-45) and kept because capacity and
# windows both bind: 2,208 feasible rows (6,624 in the bundled example), of
# 8,400 that capacity alone admits; optimum 207.
WINDOWED_6_BASE = {
    "n": 6,
    "c_max": 5,
    "distance": [
        [0, 31, 2, 36, 21, 28, 29],
        [32, 0, 37, 15, 18, 35, 9],
        [5, 33, 0, 43, 23, 28, 34],
        [36, 19, 39, 0, 27, 29, 21],
        [19, 20, 24, 23, 0, 29, 18],
        [29, 33, 30, 27, 27, 0, 38],
        [30, 8, 35, 22, 20, 38, 0],
    ],
    "demands": [2, 3, 3, 2, 2, 2],
    "windows": [[4, 39], [37, 62], [54, 85], [10, 51], [14, 42], [15, 31]],
}

# Same construction at n=4: 70 feasible rows of 144 that capacity alone
# admits; optimum 90.
FOUR_CUSTOMER_BASE = {
    "n": 4,
    "c_max": 5,
    "distance": [
        [0, 9, 30, 20, 32],
        [11, 0, 37, 29, 36],
        [34, 40, 0, 11, 8],
        [24, 28, 12, 0, 14],
        [34, 40, 2, 13, 0],
    ],
    "demands": [3, 2, 1, 1],
    "windows": [[2, 34], [54, 73], [18, 46], [9, 41]],
}

# Separate random streams per input, so adding one input never shifts another.
_STREAM_WINDOWED_6 = 1
_STREAM_FOUR_CUSTOMER = 2
_STREAM_BATCH = 3
_STREAM_PATTERNS = 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def relabel(doc: dict, rng: np.random.Generator) -> dict:
    """The instance document with its customers renamed by a random permutation."""
    n = doc["n"]
    new_id = [0, *(int(v) + 1 for v in rng.permutation(n))]
    old_id = [0] * (n + 1)
    for old, new in enumerate(new_id):
        old_id[new] = old
    dist = doc["distance"]
    return {
        "n": n,
        "c_max": doc["c_max"],
        "distance": [[dist[old_id[i]][old_id[j]] for j in range(n + 1)] for i in range(n + 1)],
        "demands": [doc["demands"][old_id[i] - 1] for i in range(1, n + 1)],
        "windows": [list(doc["windows"][old_id[i] - 1]) for i in range(1, n + 1)],
    }


def six_capacity_text() -> str:
    return serialize_instance(six_customer_example())


def windowed_6_text(seed: int) -> str:
    return json.dumps(relabel(WINDOWED_6_BASE, _rng(seed, _STREAM_WINDOWED_6)))


def four_customer_text(seed: int) -> str:
    return json.dumps(relabel(FOUR_CUSTOMER_BASE, _rng(seed, _STREAM_FOUR_CUSTOMER)))


def assignment_batch(inst: Instance, seed: int, size: int) -> np.ndarray:
    """``size`` assignment indices. The first half is uniform over the whole
    decision space. The second half is well-formed (a customer permutation
    and a split vector ending in 1): distinct candidates in seeded order, and
    every candidate once before any repeats."""
    rng = _rng(seed, _STREAM_BATCH)
    n = inst.n
    bits = search_space(inst).decision_bits
    b_node = register_widths(inst).b_node
    uniform = rng.integers(0, 1 << bits, size=size // 2, dtype=np.int64)
    formed = np.array(
        [
            oracle.pack_assignment(n, b_node, P, (*interior, 1))
            for P in itertools.permutations(range(1, n + 1))
            for interior in itertools.product((0, 1), repeat=n - 1)
        ],
        dtype=np.int64,
    )
    rng.shuffle(formed)
    return np.concatenate([uniform, np.resize(formed, size - size // 2)])


def marked_patterns(seed: int, bits: int, count: int) -> list[int]:
    """``count`` distinct marked patterns for a synthetic ``bits``-bit oracle."""
    rng = _rng(seed, _STREAM_PATTERNS)
    return sorted(int(v) for v in rng.choice(1 << bits, size=count, replace=False))


BATCH_SIZE = 1 << 15
GAS_SEEDS = range(1000)


@dataclass(frozen=True)
class Inputs:
    """Everything one workload feeds the package.

    ``solve_text`` is solved by the CLI and by warm GAS; the verification pass
    scans the certifying oracle of each of ``scan_texts`` over ``batch``,
    scans ``exhaustive_text`` (if any) over all its assignments, and runs
    ``statevector_grover`` on a synthetic oracle.
    """

    solve_text: str
    solves_per_round: int
    verify_passes_per_round: int
    scan_texts: tuple[str, ...]
    batch: np.ndarray
    exhaustive_text: str | None
    sv_bits: int
    sv_patterns: tuple[int, ...]
    sv_rounds: int


def workload_inputs(name: str, seed: int) -> Inputs:
    six = six_capacity_text()
    if name in ("six-capacity", "windowed-6"):
        text = six if name == "six-capacity" else windowed_6_text(seed)
        return Inputs(
            solve_text=text,
            solves_per_round=1,
            verify_passes_per_round=4,
            scan_texts=(text,),
            batch=assignment_batch(parse_instance(text), seed, BATCH_SIZE),
            exhaustive_text=None,
            sv_bits=14,
            sv_patterns=tuple(marked_patterns(seed, 14, 3)),
            sv_rounds=2,
        )
    if name == "verify":
        four = four_customer_text(seed)
        return Inputs(
            solve_text=four,
            solves_per_round=3,
            verify_passes_per_round=2,
            scan_texts=(six, windowed_6_text(seed)),
            batch=assignment_batch(parse_instance(six), seed, BATCH_SIZE),
            exhaustive_text=four,
            sv_bits=18,
            sv_patterns=tuple(marked_patterns(seed, 18, 5)),
            sv_rounds=3,
        )
    raise ValueError(f"unknown workload {name!r}")
