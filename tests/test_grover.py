"""Marked counting, the closed-form success probability, threshold search,
adaptive minimization, and statevector cross-validation."""

import collections
import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from cvrptw_gas import grover
from cvrptw_gas.circuit import Circuit, CircuitError
from cvrptw_gas.classical import InfeasibleError, brute_force_optimum, feasible_and_cost, tour_cost
from cvrptw_gas.cli import main
from cvrptw_gas.grover import (
    CANDIDATE_CAP,
    BudgetExhaustedError,
    GasConfig,
    candidate_count,
    feasible_table,
    gas_minimize,
    qsearch,
    search_space,
    statevector_grover,
    success_probability,
    synthetic_marking_oracle,
)
from cvrptw_gas.oracle import mark_predicate, pack_assignment, unpack_assignment
from cvrptw_gas.resources import register_widths

from support import make_instance, predicate_marks


def test_count_marked_zero_threshold(vacuous3):
    assert feasible_table(vacuous3).count(0) == 0


def test_count_marked_vacuous_instance(vacuous3):
    # 3! orderings, free interior split bits, last bit forced
    table = feasible_table(vacuous3)
    assert table.count(10**6) == len(table.indices) == 24
    b_node = register_widths(vacuous3).b_node
    for idx in table.indices:
        assert mark_predicate(vacuous3, 10**6, *unpack_assignment(3, b_node, int(idx))).marked


def test_count_marked_agrees_with_predicate_scan(cap_bound3, window_bound3, mixed4):
    """The vectorized sweep marks exactly the indices a direct scalar sweep
    marks, not just as many."""
    for inst in (cap_bound3, window_bound3, mixed4):
        table = feasible_table(inst)
        for k in (0, 12, 17, 37, 10**6):
            direct = np.flatnonzero(predicate_marks(inst, k))
            np.testing.assert_array_equal(table.indices[table.costs < k], direct)
            assert table.count(k) == len(direct)


def slack7():
    """n=7 with slack capacity and no windows: every candidate is feasible."""
    return make_instance(
        {
            "n": 7,
            "c_max": 7,
            "distance": [[0 if i == j else 1 + (i + j) % 4 for j in range(8)] for i in range(8)],
            "demands": [1] * 7,
        }
    )


def test_count_marked_exact_at_n7():
    inst = slack7()
    assert search_space(inst).decision_bits == 28
    hist = collections.Counter(
        tour_cost(inst, P, (*interior, 1))
        for P in itertools.permutations(range(1, 8))
        for interior in itertools.product((0, 1), repeat=6)
    )
    assert sum(hist.values()) == candidate_count(7) == 322_560
    table = feasible_table(inst)
    for k in range(min(hist), max(hist) + 2):
        assert table.count(k) == sum(m for cost, m in hist.items() if cost < k)


def test_candidate_cap_refuses_n9(tmp_path, capsys):
    doc = {
        "n": 9,
        "c_max": 9,
        "distance": [[0 if i == j else 1 + (i + j) % 4 for j in range(10)] for i in range(10)],
        "demands": [1] * 9,
    }
    count = candidate_count(9)
    assert count == 92_897_280 > CANDIDATE_CAP >= candidate_count(8)
    with pytest.raises(ValueError, match=f"{count} .* candidate cap of {CANDIDATE_CAP}"):
        feasible_table(make_instance(doc))
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--method", "gas", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"candidate cap of {CANDIDATE_CAP}" in captured.err


def test_sweep_table_digest_six_customer(example6):
    """Frozen from the sweep that decoded and filtered all 2^24 indices."""
    table = feasible_table(example6)
    assert table.indices.dtype == table.costs.dtype == np.int64
    digest = hashlib.sha256(table.indices.astype("<i8").tobytes() + table.costs.astype("<i8").tobytes())
    assert len(table.indices) == 6624
    assert digest.hexdigest() == "a29dfe068dc4d1333cf98310a1b05bb76e61e22d944c8fbef668b78c08654258"


@pytest.mark.parametrize("name", ["bound7", "bound8"])
def test_sweep_matches_feasible_and_cost_sampled(name, request):
    """Seeded well-formed candidates: in the table, at the same cost, exactly
    when the classical recurrences call them feasible."""
    inst = request.getfixturevalue(name)
    n = inst.n
    b_node = register_widths(inst).b_node
    table = feasible_table(inst)
    assert np.all(np.diff(table.indices) > 0)
    rng = np.random.default_rng(n)
    verdicts = collections.Counter()
    for _ in range(2000):
        P = (rng.permutation(n) + 1).tolist()
        y = (*rng.integers(0, 2, n - 1).tolist(), 1)
        report = feasible_and_cost(inst, P, y)
        verdicts[report.violation] += 1
        index = pack_assignment(n, b_node, P, y)
        pos = int(np.searchsorted(table.indices, index))
        found = pos < len(table.indices) and int(table.indices[pos]) == index
        assert found == report.feasible, (P, y)
        if found:
            assert int(table.costs[pos]) == report.cost, (P, y)
    assert set(verdicts) == {None, "capacity", "time"}


def test_gas_matches_brute_force_n7(bound7):
    _, _, opt = brute_force_optimum(bound7)
    for seed in range(3):
        assert gas_minimize(bound7, GasConfig(rng_seed=seed)).cost == opt


def test_success_probability_closed_form():
    assert success_probability(8, 8, 0) == pytest.approx(1.0)
    assert success_probability(4, 1, 1) == pytest.approx(1.0)  # the exact sweet spot
    expected = math.sin(35 * math.asin(math.sqrt(1 / 512))) ** 2
    assert success_probability(512, 1, 17) == pytest.approx(expected, abs=1e-12)
    assert success_probability(16, 0, 3) == 0.0
    with pytest.raises(ValueError):
        success_probability(4, 5, 0)


def test_qsearch_certifies_empty(vacuous3):
    cfg = GasConfig(rng_seed=0)
    out = qsearch(vacuous3, 0, cfg, np.random.default_rng(0))
    assert out.certified_empty
    assert out.record.M == 0 and out.record.trials == ()


def test_qsearch_all_marked_first_trial(vacuous3):
    """With every assignment marked the m=0 trial already succeeds."""
    inst = vacuous3
    table = feasible_table(inst)
    k = int(table.costs.max()) + 1
    cfg = GasConfig(rng_seed=3)
    out = qsearch(inst, k, cfg, np.random.default_rng(3))
    assert out.assignment_index is not None
    # success probability at any m is M/N-based; sampled state must be marked
    assert mark_predicate(inst, k, *unpack_assignment(inst.n, 2, out.assignment_index)).marked


def test_qsearch_deterministic_replay(example6):
    cfg = GasConfig(rng_seed=42)
    a = qsearch(example6, 553, cfg, np.random.default_rng(42))
    b = qsearch(example6, 553, cfg, np.random.default_rng(42))
    assert a == b
    # golden trace, frozen from a seeded run of this module
    assert a.record.M == 6624
    assert a.cost == 257
    assert a.record.oracle_calls == 67


def test_qsearch_budget_exhaustion(cap_bound3):
    cfg = GasConfig(rng_seed=9, max_oracle_calls=0)
    out = qsearch(cap_bound3, 19, cfg, np.random.default_rng(9))
    assert out.budget_exhausted or out.assignment_index is not None


def test_gas_single_customer():
    inst = make_instance({"n": 1, "c_max": 2, "distance": [[0, 7], [7, 0]], "demands": [1]})
    res = gas_minimize(inst, GasConfig(rng_seed=1))
    assert res.cost == 14
    assert res.routes.routes == ((1,),)


def test_gas_infeasible_instance():
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
        gas_minimize(inst, GasConfig(rng_seed=1))


def test_gas_budget_error(example6):
    with pytest.raises(BudgetExhaustedError):
        gas_minimize(example6, GasConfig(rng_seed=5, max_oracle_calls=1))


def test_gas_initial_threshold_override(cap_bound3):
    _, _, opt = brute_force_optimum(cap_bound3)
    res = gas_minimize(cap_bound3, GasConfig(rng_seed=2, initial_k=opt + 1))
    assert res.cost == opt
    assert res.trace.thresholds[0].k == opt + 1
    with pytest.raises(InfeasibleError, match="initial threshold"):
        gas_minimize(cap_bound3, GasConfig(rng_seed=2, initial_k=opt))


def test_gas_config_growth_factor_bounds():
    """The schedule's growth factor is one constant inside the open interval
    (1, 4/3) that the exponential-search bound needs, not a config field."""
    assert 1 < grover.GROWTH_FACTOR < 4 / 3
    assert grover.GROWTH_FACTOR == 8 / 7
    assert [f.name for f in dataclasses.fields(GasConfig)] == ["rng_seed", "max_oracle_calls", "initial_k"]


def test_gas_matches_brute_force_small(cap_bound3, window_bound3, mixed4):
    for inst in (cap_bound3, window_bound3, mixed4):
        _, _, opt = brute_force_optimum(inst)
        for seed in range(6):
            res = gas_minimize(inst, GasConfig(rng_seed=seed))
            assert res.cost == opt
            ks = [t.k for t in res.trace.thresholds]
            assert ks == sorted(ks, reverse=True) and len(set(ks)) == len(ks)
            assert res.trace.thresholds[-1].M == 0


def test_gas_trace_serialization(cap_bound3):
    res = gas_minimize(cap_bound3, GasConfig(rng_seed=4))
    doc = res.trace_dict()
    assert doc["seed"] == 4
    assert doc["best"]["cost"] == res.cost
    assert all({"k", "M", "trials", "oracle_calls"} <= set(t) for t in doc["thresholds"])


def test_statevector_matches_closed_form_small():
    oracle = synthetic_marking_oracle(3, [5])
    for m in (0, 1, 2, 3):
        got = statevector_grover(oracle, ["decision"], m)
        assert got == pytest.approx(success_probability(8, 1, m), abs=1e-9)


def test_statevector_m0_is_m_over_n():
    oracle = synthetic_marking_oracle(5, [1, 2, 9])
    assert statevector_grover(oracle, ["decision"], 0) == pytest.approx(3 / 32, abs=1e-12)


def test_statevector_nothing_marked():
    oracle = synthetic_marking_oracle(4, [])
    for m in range(4):
        assert statevector_grover(oracle, ["decision"], m) == pytest.approx(0.0, abs=1e-12)


def test_statevector_decision_registers_in_any_order():
    # Decision qubits split around the marked qubit and listed high register
    # first: the marked mass must still be read at the oracle's own patterns.
    c = Circuit()
    a = c.add_register("a", 2)
    marked = c.add_register("marked", 1)
    b = c.add_register("b", 2)
    controls = [(a.qubit(0), True), (a.qubit(1), False), (b.qubit(0), False), (b.qubit(1), False)]
    c.mcx(controls, marked.qubit(0))
    for m in range(4):
        got = statevector_grover(c, ["b", "a"], m)
        assert got == pytest.approx(success_probability(16, 1, m), abs=1e-12)


def test_statevector_refuses_over_cap_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated the columns of an oversized oracle")

    monkeypatch.setattr(grover, "enumeration_columns", refuse)
    oracle = synthetic_marking_oracle(26, [0])
    assert oracle.qubit_count == 27
    with pytest.raises(CircuitError, match="capped at 26 qubits, circuit has 27"):
        statevector_grover(oracle, ["decision"], 1)


def test_search_space(example6):
    space = search_space(example6)
    assert space.decision_bits == 24
    assert space.N == 1 << 24
