"""The benchmark's correctness checks reject wrong answers, and its generated
inputs are deterministic and bind the way the workloads need."""

import copy
import json

import numpy as np
import pytest

import checks
import instances
from cvrptw_gas import classical, grover, oracle
from cvrptw_gas.instance import parse_instance
from cvrptw_gas.resources import register_widths


@pytest.fixture(scope="module")
def four():
    inst = parse_instance(instances.four_customer_text(seed=3))
    _, _, optimum = classical.brute_force_optimum(inst)
    return inst, optimum, checks.feasible_costs(inst)


@pytest.fixture(scope="module")
def solve_doc(four):
    inst, _, _ = four
    result = grover.gas_minimize(inst, grover.GasConfig(rng_seed=11))
    return {"cost": result.cost, "routes": result.routes.as_lists(), "trace": result.trace_dict()}


def test_check_solve_accepts_a_correct_result(four, solve_doc):
    inst, optimum, costs = four
    checks.check_solve(inst, solve_doc, optimum, costs)


def test_check_solve_rejects_a_cost_one_above_the_optimum(four, solve_doc):
    inst, optimum, costs = four
    doc = copy.deepcopy(solve_doc)
    doc["cost"] = optimum + 1
    with pytest.raises(checks.CheckError, match="brute-force optimum"):
        checks.check_solve(inst, doc, optimum, costs)


def test_check_solve_rejects_a_wrong_marked_count(four, solve_doc):
    inst, optimum, costs = four
    doc = copy.deepcopy(solve_doc)
    doc["trace"]["thresholds"][0]["M"] += 1
    with pytest.raises(checks.CheckError, match="enumeration gives"):
        checks.check_solve(inst, doc, optimum, costs)


def test_check_solve_rejects_routes_that_do_not_cost_what_is_reported(four, solve_doc):
    inst, optimum, costs = four
    doc = copy.deepcopy(solve_doc)
    doc["routes"] = [[c] for c in range(1, inst.n + 1)]
    with pytest.raises(checks.CheckError, match="not feasible at cost"):
        checks.check_solve(inst, doc, optimum, costs)


def test_check_scan_rejects_a_dirty_ancilla():
    clean = oracle.ScanReport(assignments_checked=8, mismatches=0, dirty_ancillas=0, decision_changed=0)
    checks.check_scan(clean, 8, "clean")
    dirty = oracle.ScanReport(assignments_checked=8, mismatches=0, dirty_ancillas=1, decision_changed=0)
    with pytest.raises(checks.CheckError, match="1 dirty ancillas"):
        checks.check_scan(dirty, 8, "dirty")


def test_check_probability_rejects_an_error_of_one_in_a_million():
    expected = grover.success_probability(1 << 10, 3, 4)
    checks.check_probability(expected, expected, "exact")
    with pytest.raises(checks.CheckError):
        checks.check_probability(expected + 1e-6, expected, "off")


def test_check_qubits_rejects_a_count_off_the_budget(four):
    inst, optimum, _ = four
    qubits = oracle.build_oracle(inst, optimum + 1).qubit_count
    checks.check_qubits(inst, qubits)
    with pytest.raises(checks.CheckError):
        checks.check_qubits(inst, qubits + 1)


@pytest.mark.parametrize("make", [instances.windowed_6_text, instances.four_customer_text])
def test_generator_is_deterministic_per_seed(make):
    assert make(5) == make(5)
    assert len({make(seed) for seed in range(6)}) > 1


@pytest.mark.parametrize(
    "make, feasible, capacity_feasible, optimum",
    [(instances.windowed_6_text, 2208, 8400, 207), (instances.four_customer_text, 70, 144, 90)],
)
def test_generated_instance_is_feasible_and_its_windows_bind(make, feasible, capacity_feasible, optimum):
    doc = json.loads(make(7))
    inst = parse_instance(json.dumps(doc))
    del doc["windows"]
    capacity_only = parse_instance(json.dumps(doc))
    assert not inst.windows_vacuous
    assert len(checks.feasible_costs(inst)) == feasible
    assert len(checks.feasible_costs(capacity_only)) == capacity_feasible
    assert classical.brute_force_optimum(inst)[2] == optimum


def test_verify_batch_is_half_uniform_half_every_well_formed_candidate():
    inst = parse_instance(instances.four_customer_text(seed=4))
    batch = instances.assignment_batch(inst, seed=4, size=512)
    assert np.array_equal(batch, instances.assignment_batch(inst, seed=4, size=512))
    n, b_node = inst.n, register_widths(inst).b_node
    formed = set()
    for idx in batch[256:]:
        P, y = oracle.unpack_assignment(n, b_node, int(idx))
        assert sorted(P) == list(range(1, n + 1)) and y[-1] == 1
        formed.add(int(idx))
    assert len(formed) == 24 * 8  # 4! tours times 2^3 split vectors
    assert batch[:256].max() < 1 << grover.search_space(inst).decision_bits
