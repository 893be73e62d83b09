"""Marked counting, the closed-form success probability, threshold search,
adaptive minimization, and statevector cross-validation."""

import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from cvrptw_gas import grover
from cvrptw_gas.circuit import Circuit, CircuitError
from cvrptw_gas.classical import InfeasibleError, brute_force_optimum, feasible_and_cost, tour_cost
from cvrptw_gas.cli import main, sample_indices
from cvrptw_gas.grover import (
    CANDIDATE_CAP,
    BudgetExhaustedError,
    Draws,
    GasConfig,
    candidate_count,
    feasible_table,
    gas_minimize,
    qsearch,
    reference_marks,
    search_space,
    statevector_grover,
    success_probability,
    synthetic_marking_oracle,
)
from cvrptw_gas.oracle import mark_predicate, pack_assignment, unpack_assignment
from cvrptw_gas.resources import register_widths

from support import binding_instance, make_instance, predicate_marks


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


@pytest.mark.parametrize("block_rows", [1, 32, 128])
def test_sweep_block_size_changes_nothing(monkeypatch, block_rows):
    """The feasible table and the reference marks of a six-customer binding
    instance are the same whatever the sweep's block size: 1 and 32 cells
    take one tour per block, 128 cells four."""
    inst = binding_instance(random.Random(6), 6)
    indices = np.concatenate([sample_indices(inst, 20_000, 6), np.arange(1 << 16, dtype=np.int64)])
    feasible_table.cache_clear()
    table = feasible_table(inst)
    ks = (0, int(table.costs.min()) + 1, 10**6)
    marks = [reference_marks(inst, k, indices) for k in ks]
    assert marks[1].any() and marks[2].sum() > marks[1].sum()
    monkeypatch.setattr(grover, "_BLOCK_ROWS", block_rows)
    feasible_table.cache_clear()
    try:
        small = feasible_table(inst)
        np.testing.assert_array_equal(small.indices, table.indices)
        np.testing.assert_array_equal(small.costs, table.costs)
        for k, want in zip(ks, marks):
            np.testing.assert_array_equal(reference_marks(inst, k, indices), want, err_msg=f"k={k}")
    finally:
        feasible_table.cache_clear()


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
    record, found = qsearch(vacuous3, 0, cfg, Draws(0))
    assert found is None
    assert record.M == 0 and record.trials == ()


def test_qsearch_all_marked_first_trial(vacuous3):
    """With every assignment marked the m=0 trial already succeeds."""
    inst = vacuous3
    table = feasible_table(inst)
    k = int(table.costs.max()) + 1
    cfg = GasConfig(rng_seed=3)
    _, (index, _) = qsearch(inst, k, cfg, Draws(3))
    # success probability at any m is M/N-based; sampled state must be marked
    assert mark_predicate(inst, k, *unpack_assignment(inst.n, 2, index)).marked


def test_qsearch_deterministic_replay(example6):
    cfg = GasConfig(rng_seed=42)
    a = qsearch(example6, 553, cfg, Draws(42))
    b = qsearch(example6, 553, cfg, Draws(42))
    assert a == b
    # golden trace, frozen from a seeded run of this module
    record, (_, cost) = a
    assert record.M == 6624
    assert cost == 257
    assert record.oracle_calls == 67


def test_qsearch_budget_exhaustion(cap_bound3):
    cfg = GasConfig(rng_seed=9, max_oracle_calls=0)
    with pytest.raises(BudgetExhaustedError, match="budget 0 exhausted at threshold 19"):
        qsearch(cap_bound3, 19, cfg, Draws(9))


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


@pytest.mark.parametrize(
    "name,digest",
    [
        ("example6", "5559e53017d06d53917904cb9f6dd641bb770eebcff65ba62c2174041bdc1a5f"),
        ("mixed4", "d3d184112ee81fc7b95f33f7aa8101c5ec771f13bc4bf99b5c4d40cd18d2779f"),
    ],
)
def test_gas_traces_pinned_over_seeds(request, name, digest):
    """sha256 over the trace_dict JSON of seeds 0-199, one document after
    another, frozen from the implementation whose trials were a dataclass and
    whose marked draw filtered the table twice. mixed4's windows bind."""
    inst = request.getfixturevalue(name)
    h = hashlib.sha256()
    for seed in range(200):
        h.update(json.dumps(gas_minimize(inst, GasConfig(rng_seed=seed)).trace_dict()).encode())
    assert h.hexdigest() == digest


def test_gas_budget_path_pinned_over_seeds(example6):
    """sha256 over seeds 0-49 x four oracle-call budgets, recording each
    solve's cost or its budget message, frozen from the implementation that
    drew through ``np.random.default_rng(seed)``. Most of these solves stop
    at the budget, so the draws of every threshold before the stop count."""
    h = hashlib.sha256()
    for seed in range(50):
        for budget in (1, 5, 50, 300):
            try:
                out = str(gas_minimize(example6, GasConfig(rng_seed=seed, max_oracle_calls=budget)).cost)
            except BudgetExhaustedError as exc:
                out = str(exc)
            h.update(f"{seed} {budget} {out}\n".encode())
    assert h.hexdigest() == "b18b91b6c14807276044c39c8a788e1e0bf37a241ee9d0006fbbeed7d7f8514a"


# Bounds of every kind Draws.below meets: no draw (1), a power of two, the
# example's marked count, and 2^31 + 1, where about half the draws are rejected.
_DRAW_BOUNDS = (1, 2, 7, 6624, (1 << 31) + 1, (1 << 32) - 1)


def test_draws_equal_default_rng():
    """Interleaved below/random calls return exactly what a Generator on the
    same seed returns, spare halves and rejected draws included."""
    for seed in range(300):
        ops = random.Random(seed)
        draws, gen = Draws(seed), np.random.default_rng(seed)
        for _ in range(400):
            if ops.random() < 0.3:
                assert draws.random() == gen.random()
            else:
                h = ops.choice(_DRAW_BOUNDS) if ops.random() < 0.7 else ops.randrange(1, 1 << 32)
                assert draws.below(h) == gen.integers(0, h), (seed, h)


@pytest.mark.parametrize("h", [0, -1, 1 << 32, 1 << 64])
def test_draws_below_refuses_bounds_outside_32_bits(h):
    with pytest.raises(ValueError, match=r"^below needs 1 <= h < 2\*\*32 = 4294967296, got "):
        Draws(0).below(h)


def test_gas_trials_are_untracked_tuples(example6):
    """Kept traces cost the cyclic garbage collector nothing per trial: each
    trial is an exact (int, bool) tuple, which a collection untracks."""
    res = gas_minimize(example6, GasConfig(rng_seed=7))
    gc.collect()
    trials = [trial for t in res.trace.thresholds for trial in t.trials]
    assert len(trials) > 50
    for m, hit in trials:
        assert type(m) is int and type(hit) is bool
    assert all(type(trial) is tuple and not gc.is_tracked(trial) for trial in trials)


def test_statevector_matches_closed_form_small():
    oracle = synthetic_marking_oracle(3, [5])
    for m in (0, 1, 2, 3):
        got = statevector_grover(oracle, ["decision"], m)
        assert got == pytest.approx(success_probability(8, 1, m), abs=1e-9)


@pytest.mark.parametrize("bits,pattern", [(1, 1), (2, 2)])
def test_statevector_one_and_two_decision_qubits(bits, pattern):
    """The reflection about the mean is one MCX with every decision qubit a
    negative control; with one decision qubit that MCX has a single control."""
    oracle = synthetic_marking_oracle(bits, [pattern])
    for m in range(6):
        got = statevector_grover(oracle, ["decision"], m)
        assert got == pytest.approx(success_probability(1 << bits, 1, m), abs=1e-12), m


def test_statevector_m0_is_m_over_n():
    oracle = synthetic_marking_oracle(5, [1, 2, 9])
    assert statevector_grover(oracle, ["decision"], 0) == pytest.approx(3 / 32, abs=1e-12)


def test_statevector_nothing_marked():
    oracle = synthetic_marking_oracle(4, [])
    for m in range(4):
        assert statevector_grover(oracle, ["decision"], m) == pytest.approx(0.0, abs=1e-12)


def test_statevector_needs_decision_qubits():
    """With no decision qubits the all-zero reflection would be an MCX with
    no controls, an X; it is refused instead."""
    with pytest.raises(CircuitError, match="at least one control"):
        statevector_grover(synthetic_marking_oracle(2, [1]), [], 1)


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


def test_statevector_with_work_qubits_matches_closed_form():
    # d0 AND NOT d1 AND d3 is computed through two work qubits, copied to the
    # marked qubit and uncomputed: 2 of 16 patterns marked (d2 is free).
    c = Circuit()
    d = c.add_register("decision", 4)
    work = c.add_register("work", 2)
    marked = c.add_register("marked", 1)
    compute = [((d.qubit(0), True), (d.qubit(1), False), work.qubit(0)), (work.qubit(0), d.qubit(3), work.qubit(1))]
    for c1, c2, t in compute:
        c.ccx(c1, c2, t)
    c.cx(work.qubit(1), marked.qubit(0))
    for c1, c2, t in reversed(compute):
        c.ccx(c1, c2, t)
    expected = [0.125, 0.78125, 0.9453125, 0.330078125]
    for m, want in enumerate(expected):
        got = statevector_grover(c, ["decision"], m)
        assert got == pytest.approx(success_probability(16, 2, m), abs=1e-12)
        assert got == pytest.approx(want, abs=1e-12)


def test_statevector_refuses_over_cap_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built the rounds of an oversized oracle")

    monkeypatch.setattr(grover, "phase_kickback", refuse)
    oracle = synthetic_marking_oracle(26, [0])
    assert oracle.qubit_count == 27
    with pytest.raises(CircuitError, match="capped at 26 qubits, circuit has 27"):
        statevector_grover(oracle, ["decision"], 1)


def test_search_space(example6):
    space = search_space(example6)
    assert space.decision_bits == 24
    assert space.N == 1 << 24
