"""Layout determinism, constraint chains against their recurrences, the
oracle/predicate equivalence, and uncompute cleanliness."""

import gc
import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from cvrptw_gas import oracle
from cvrptw_gas.classical import brute_force_optimum
from cvrptw_gas.cli import sample_indices
from cvrptw_gas.circuit import (
    count_resources,
    enumeration_columns,
    eval_basis_batch,
    eval_basis_int,
    phase_kickback,
    register_values,
)
from cvrptw_gas.grover import feasible_table, reference_marks, search_space
from cvrptw_gas.oracle import (
    LayoutError,
    build_capacity_chain,
    build_cost_accumulator,
    build_exit_leg_encoder,
    build_layout,
    build_oracle,
    build_time_chain,
    build_uniqueness,
    equivalence_scan,
    mark_predicate,
    pack_assignment,
    unpack_assignment,
)
from cvrptw_gas.qarith import build_adder
from cvrptw_gas.resources import register_widths

from support import binding_instance, make_instance, predicate_marks


def run_block_on(layout, block, P, y):
    """Evaluate one chain block on a single decision basis state."""
    state = pack_assignment(layout.inst.n, layout.widths.b_node, P, y)
    host = layout.empty_circuit()
    host.extend(block)
    return eval_basis_int(host, state)


def reg_value(layout, state, ref):
    return (state >> ref.start) & ((1 << ref.width) - 1)


def test_layout_sizes_small():
    inst = make_instance(
        {"n": 3, "c_max": 5, "distance": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], "demands": [1, 1, 1]}
    )
    layout = build_layout(inst, 5)
    assert layout.widths.b_node == 2
    assert sum(r.width for r in layout.tour) == 6
    assert layout.split.width == 3


def test_layout_sizes_example(example6):
    layout = build_layout(example6, 272)
    assert layout.widths.b_node == 3
    assert sum(r.width for r in layout.tour) == 18
    assert search_space(example6).decision_bits == 24


def test_layout_capacity_width():
    inst = make_instance(
        {
            "n": 4,
            "c_max": 5,
            "distance": [[0 if i == j else 2 for j in range(5)] for i in range(5)],
            "demands": [1, 1, 1, 1],
        }
    )
    layout = build_layout(inst, 5)
    assert all(r.width == 3 for r in layout.load)


def test_layout_deterministic(example6):
    a = build_layout(example6, 200)
    b = build_layout(example6, 200)
    assert a == b


def _per_position(prefix, start, width, n):
    return [(f"{prefix}{i}", start + (i - 1) * width, width) for i in range(1, n + 1)]


# fixture: (k, [(register, start, width)], (valid_tour, cost_ok, marked, qubit_count))
REGISTER_TABLES = {
    "example6": (
        182,
        [
            *_per_position("pos", 0, 3, 6),
            ("split", 18, 6),
            ("in_range", 24, 6),
            ("distinct", 30, 15),
            ("valid_tour", 45, 1),
            *_per_position("load", 46, 3, 6),
            ("load_ok", 64, 6),
            ("load_overflow", 70, 5),
            *_per_position("clock", 75, 9, 6),
            ("waited", 129, 6),
            *_per_position("clock_spill", 135, 9, 6),
            ("time_ok", 189, 6),
            ("clock_overflow", 195, 5),
            ("cost", 200, 10),
            ("cost_ok", 210, 1),
            ("marked", 211, 1),
            ("pool", 212, 11),
        ],
        (45, 210, 211, 223),
    ),
    "mixed4": (
        35,
        [
            *_per_position("pos", 0, 3, 4),
            ("split", 12, 4),
            ("in_range", 16, 4),
            ("distinct", 20, 6),
            ("valid_tour", 26, 1),
            *_per_position("load", 27, 3, 4),
            ("load_ok", 39, 4),
            ("load_overflow", 43, 3),
            *_per_position("clock", 46, 5, 4),
            ("waited", 66, 4),
            *_per_position("clock_spill", 70, 5, 4),
            ("time_ok", 90, 4),
            ("clock_overflow", 94, 3),
            ("cost", 97, 7),
            ("cost_ok", 104, 1),
            ("marked", 105, 1),
            ("pool", 106, 8),
        ],
        (26, 104, 105, 114),
    ),
    "single_customer": (
        5,
        [
            ("pos1", 0, 1),
            ("split", 1, 1),
            ("in_range", 2, 1),
            ("valid_tour", 3, 1),
            ("load1", 4, 2),
            ("load_ok", 6, 1),
            ("clock1", 7, 4),
            ("waited", 11, 1),
            ("clock_spill1", 12, 4),
            ("time_ok", 16, 1),
            ("cost", 17, 4),
            ("cost_ok", 21, 1),
            ("marked", 22, 1),
            ("pool", 23, 5),
        ],
        (3, 21, 22, 28),
    ),
}


@pytest.mark.parametrize("name", sorted(REGISTER_TABLES))
def test_layout_register_table_pinned(name, request):
    """Register names, order, starts and widths, and the single-qubit flags:
    the dump pin covers the gates' qubit indices but not the names, which
    diagnostics read. Each layout field is the register of its name, and
    n = 1 has no pair flags and no overflow registers."""
    k, table, flags = REGISTER_TABLES[name]
    layout = build_layout(request.getfixturevalue(name), k)
    assert [(name, r.start, r.width) for name, r in layout.registers.items()] == table
    assert (layout.valid_tour, layout.cost_ok, layout.marked, layout.qubit_count) == flags
    regs = layout.registers
    n = layout.inst.n
    for field, prefix in (("tour", "pos"), ("load", "load"), ("clock", "clock"), ("clock_spill", "clock_spill")):
        assert getattr(layout, field) == tuple(regs[f"{prefix}{i}"] for i in range(1, n + 1))
    singles = ("split", "in_range", "distinct", "load_ok", "load_overflow", "waited", "time_ok", "clock_overflow")
    for field in (*singles, "cost", "pool"):
        assert getattr(layout, field) == regs.get(field)
    assert {f for f in singles if getattr(layout, f) is None} == (
        set() if n > 1 else {"distinct", "load_overflow", "clock_overflow"}
    )


def test_layout_rejects_oversized_travel_time():
    inst = make_instance(
        {
            "n": 2,
            "c_max": 2,
            "distance": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "time": [[0, 50, 1], [50, 0, 1], [1, 1, 0]],
            "demands": [1, 1],
            "windows": [[0, 8], [0, 8]],
        }
    )
    with pytest.raises(LayoutError, match="travel time"):
        build_layout(inst, 5)


def test_uniqueness_block(vacuous3):
    layout = build_layout(vacuous3, 100)
    block = build_uniqueness(layout)
    for P, expect in (((1, 2, 3), 1), ((1, 1, 3), 0), ((0, 2, 3), 0)):
        state = run_block_on(layout, block, P, (1, 1, 1))
        assert (state >> layout.valid_tour) & 1 == expect, P


def test_uniqueness_rejects_codes_beyond_range(example6):
    layout = build_layout(example6, 300)
    block = build_uniqueness(layout)
    state = run_block_on(layout, block, (7, 2, 3, 4, 5, 6), (1,) * 6)
    assert (state >> layout.valid_tour) & 1 == 0


def test_capacity_chain_example_values(example6):
    layout = build_layout(example6, 300)
    block = build_capacity_chain(layout)
    state = run_block_on(layout, block, (1, 2, 3, 4, 5, 6), (1,) * 6)
    assert [reg_value(layout, state, r) for r in layout.load] == [2, 3, 1, 3, 2, 3]
    assert reg_value(layout, state, layout.load_ok) == 0b111111

    state = run_block_on(layout, block, (1, 2, 3, 4, 5, 6), (0, 1, 1, 1, 1, 1))
    assert reg_value(layout, state, layout.load[1]) == 5  # 2 + 3 right at capacity
    assert (state >> layout.load_ok.qubit(1)) & 1 == 1

    state = run_block_on(layout, block, (2, 4, 1, 3, 5, 6), (0, 1, 1, 1, 1, 1))
    assert reg_value(layout, state, layout.load[1]) == 6  # 3 + 3 over capacity
    assert (state >> layout.load_ok.qubit(1)) & 1 == 0


def test_capacity_chain_matches_recurrence_exhaustively(cap_bound3):
    """Register values follow the modular recurrence with explicit carries,
    and the flag conjunction equals true feasibility, for every assignment."""
    inst = cap_bound3
    layout = build_layout(inst, 100)
    block = build_capacity_chain(layout)
    host = layout.empty_circuit()
    host.extend(block)
    bits = search_space(layout.inst).decision_bits
    count = 1 << bits
    cols = enumeration_columns(bits) + [0] * (layout.qubit_count - bits)
    out = eval_basis_batch(host, cols, count)
    w = layout.widths.w_cap
    n = inst.n
    for s in range(count):
        P, y = unpack_assignment(n, layout.widths.b_node, s)
        regs = [int(register_values(out, layout.load[i], count)[s]) for i in range(n)]
        oks = [(int(register_values(out, layout.load_ok, count)[s]) >> i) & 1 for i in range(n)]
        ovs = [(int(register_values(out, layout.load_overflow, count)[s]) >> i) & 1 for i in range(n - 1)]
        demand = lambda v: inst.q[v] if 1 <= v <= n else 0
        reg_model, ov_model, true_loads = [], [], []
        for i in range(n):
            prev_reg = 0 if (i == 0 or y[i - 1]) else reg_model[-1]
            total = demand(P[i]) + prev_reg
            reg_model.append(total % (1 << w))
            if i > 0:
                ov_model.append(total >> w)
            prev_true = 0 if (i == 0 or y[i - 1]) else true_loads[-1]
            true_loads.append(demand(P[i]) + prev_true)
        assert regs == reg_model, (P, y)
        assert ovs == ov_model, (P, y)
        assert oks == [1 if r <= inst.c_max else 0 for r in reg_model], (P, y)
        circuit_ok = all(oks) and not any(ovs)
        truth = all(v <= inst.c_max for v in true_loads)
        assert circuit_ok == truth, (P, y)


def test_time_chain_synthetic_examples():
    inst = make_instance(
        {
            "n": 2,
            "c_max": 5,
            "distance": [[0, 5, 9], [5, 0, 4], [9, 4, 0]],
            "demands": [1, 1],
            "windows": [[8, 20], [0, 10]],
        }
    )
    layout = build_layout(inst, 100)
    block = build_time_chain(layout)
    state = run_block_on(layout, block, (1, 2), (0, 1))
    assert reg_value(layout, state, layout.clock[0]) == 8  # max(8, 5): waited
    assert (state >> layout.waited.qubit(0)) & 1 == 1
    assert reg_value(layout, state, layout.clock[1]) == 12  # 8 + 4
    assert (state >> layout.time_ok.qubit(1)) & 1 == 0  # 12 > 10
    assert (state >> layout.time_ok.qubit(0)) & 1 == 1


def test_time_chain_vacuous_windows_always_pass(vacuous3):
    """Every range-valid assignment clears the window checks when the windows
    are the defaulted vacuous ones."""
    layout = build_layout(vacuous3, 100)
    block = build_time_chain(layout)
    host = layout.empty_circuit()
    host.extend(block)
    bits = search_space(layout.inst).decision_bits
    count = 1 << bits
    out = eval_basis_batch(host, enumeration_columns(bits) + [0] * (layout.qubit_count - bits), count)
    ok = register_values(out, layout.time_ok, count)
    n = vacuous3.n
    for s in range(count):
        P, _ = unpack_assignment(n, layout.widths.b_node, s)
        if all(1 <= v <= n for v in P):
            assert ok[s] == (1 << n) - 1, (P, s)


def test_time_chain_vacuous_windows_is_flags_only(vacuous3):
    """Vacuous windows cannot bind, so the chain only sets the n flags."""
    layout = build_layout(vacuous3, 100)
    gates = build_time_chain(layout).gates
    assert [(g.kind, g.target) for g in gates] == [("x", q) for q in layout.time_ok.qubits()]
    assert len(gates) == vacuous3.n


def test_time_chain_matches_recurrence_exhaustively(window_bound3):
    inst = window_bound3
    layout = build_layout(inst, 100)
    block = build_time_chain(layout)
    host = layout.empty_circuit()
    host.extend(block)
    bits = search_space(layout.inst).decision_bits
    count = 1 << bits
    out = eval_basis_batch(host, enumeration_columns(bits) + [0] * (layout.qubit_count - bits), count)
    w = layout.widths.w_time
    n = inst.n
    from_depot = [inst.T[0][v] if 1 <= v <= n else 0 for v in range(1 << layout.widths.b_node)]
    for s in range(count):
        P, y = unpack_assignment(n, layout.widths.b_node, s)
        regs = [int(register_values(out, layout.clock[i], count)[s]) for i in range(n)]
        oks = [(int(register_values(out, layout.time_ok, count)[s]) >> i) & 1 for i in range(n)]
        reg_model = []
        for i in range(n):
            open_at = inst.windows[P[i]][0] if 1 <= P[i] <= n else 0
            close_at = inst.windows[P[i]][1] if 1 <= P[i] <= n else 0
            if i == 0 or y[i - 1]:
                candidate = from_depot[P[i]]
            else:
                leg = inst.T[P[i - 1]][P[i]] if (1 <= P[i] <= n and 1 <= P[i - 1] <= n and P[i] != P[i - 1]) else 0
                candidate = (reg_model[-1] + leg) % (1 << w)
            reg_model.append(max(candidate, open_at))
            assert regs[i] == reg_model[i], (P, y, i)
            assert oks[i] == (1 if reg_model[i] <= close_at else 0), (P, y, i)


def test_cost_accumulator_example_values(example6):
    layout = build_layout(example6, 272)
    block = build_cost_accumulator(layout)
    state = run_block_on(layout, block, (1, 2, 3, 4, 5, 6), (1,) * 6)
    assert reg_value(layout, state, layout.cost) == 272
    assert (state >> layout.cost_ok) & 1 == 0  # strict: 272 < 272 is false

    state = run_block_on(layout, block, (1, 2, 3, 4, 5, 6), (0, 0, 0, 0, 0, 1))
    assert reg_value(layout, state, layout.cost) == 171
    assert (state >> layout.cost_ok) & 1 == 1


def test_cost_threshold_zero_marks_nothing(vacuous3):
    layout = build_layout(vacuous3, 0)
    block = build_cost_accumulator(layout)
    host = layout.empty_circuit()
    host.extend(block)
    bits = search_space(layout.inst).decision_bits
    count = 1 << bits
    out = eval_basis_batch(host, enumeration_columns(bits) + [0] * (layout.qubit_count - bits), count)
    from cvrptw_gas.circuit import column_bits

    assert not column_bits(out[layout.cost_ok], count).any()


def test_exit_leg_encoder_writes_one_table(mixed4):
    """Over every pair of 3-bit codes and both split values, exactly one of
    the return leg and the direct leg lands in the pool."""
    inst = mixed4
    layout = build_layout(inst, 100)
    out_ref = layout.pool_value(layout.widths.w_cost)
    host = layout.empty_circuit()
    host.extend(build_exit_leg_encoder(layout, 2, out_ref))
    bits = search_space(layout.inst).decision_bits
    count = 1 << bits
    out = eval_basis_batch(host, enumeration_columns(bits) + [0] * (layout.qubit_count - bits), count)
    pool = register_values(out, out_ref, count)
    customers = range(1, inst.n + 1)
    for s in range(count):
        P, y = unpack_assignment(inst.n, layout.widths.b_node, s)
        u, v = P[1], P[2]
        if y[1]:
            expect = inst.D[u][0] if u in customers else 0
        else:
            expect = inst.D[u][v] if u in customers and v in customers and u != v else 0
        assert pool[s] == expect, (P, y)


def test_example_oracle_structure(example6):
    """Gate counts of the paper's example at its optimum + 1, frozen: the
    vacuous windows leave six X gates in the time chain, and the cost chain
    runs 11 trimmed adders."""
    layout = build_layout(example6, 182)
    builders = (build_uniqueness, build_capacity_chain, build_time_chain, build_cost_accumulator)
    chains = [len(b(layout).gates) for b in builders]
    assert chains == [247, 311, 6, 1904]
    built = build_oracle(example6, 182)
    assert len(built.gates) == 2 * sum(chains) + 1 == 4937
    assert built.qubit_count == layout.qubit_count == 223
    assert sum(a * c for a, c in count_resources(built).mcx_by_arity.items()) == 18401


@pytest.mark.parametrize(
    "name,k,gates,digest",
    [
        ("example6", 182, 4937, "b50f58a89d99d53a3d08afa10c367d90cae755a544c21a71090846e6301513fd"),
        ("mixed4", 35, 3103, "646eb43b856923fa7dd7c889390db08bcbf469adf005251f3608ce172cdb6dbe"),
    ],
)
def test_oracle_dump_pinned(name, k, gates, digest, request):
    """The full gate lists, byte for byte: the paper's example, whose time
    chain is flags only, and a fixture whose windows bind, so the clock chain
    runs. A refactor of the block builders must not move either digest."""
    built = build_oracle(request.getfixturevalue(name), k)
    assert len(built.gates) == gates
    assert hashlib.sha256(built.dump().encode()).hexdigest() == digest


def test_mark_predicate_example_values(example6):
    res = mark_predicate(example6, 10**6, (1, 2, 3, 4, 5, 6), (1,) * 6)
    assert res.marked and res.cost == 272
    res = mark_predicate(example6, 10**6, (1, 1, 3, 4, 5, 6), (1,) * 6)
    assert not res.marked and res.failure == "uniqueness"
    res = mark_predicate(example6, 10**6, (7, 2, 3, 4, 5, 6), (1,) * 6)
    assert not res.marked and res.failure == "range"
    res = mark_predicate(example6, 272, (1, 2, 3, 4, 5, 6), (1,) * 6)
    assert not res.marked and res.failure == "threshold"
    res = mark_predicate(example6, 10**6, (1, 2, 3, 4, 5, 6), (1, 1, 1, 1, 1, 0))
    assert not res.marked and res.failure == "range"


def test_predicate_agrees_with_feasibility_report(mixed4):
    """Permutation-valid assignments: the two independent classical routes agree."""
    import itertools

    from cvrptw_gas.classical import feasible_and_cost

    inst = mixed4
    for P in itertools.permutations(range(1, 5)):
        for interior in itertools.product((0, 1), repeat=3):
            y = (*interior, 1)
            report = feasible_and_cost(inst, P, y)
            res = mark_predicate(inst, 10**6, P, y)
            assert report.feasible == res.marked
            if report.feasible:
                assert report.cost == res.cost


def test_oracle_equivalence_exhaustive(vacuous3):
    _, _, opt = brute_force_optimum(vacuous3)
    for k in (0, opt + 1, 100, 10**6):
        report = equivalence_scan(vacuous3, k)
        assert report.assignments_checked == 512
        assert report.clean, k


def test_oracle_threshold_monotone(cap_bound3):
    table = feasible_table(cap_bound3)
    counts = [table.count(k) for k in (0, 15, 19, 25, 10**6)]
    assert counts == sorted(counts)


def test_oracle_preserves_decisions_and_cleans_work(mixed4):
    """Randomized basis states through the full oracle: decision bits
    untouched, every work register back to zero."""
    rng = random.Random(123)
    layout = build_layout(mixed4, 30)
    circuit = build_oracle(mixed4, 30)
    bits = search_space(mixed4).decision_bits
    indices = np.array([rng.getrandbits(bits) for _ in range(1000)], dtype=np.int64)
    report = equivalence_scan(mixed4, 30, indices=indices)
    assert report.mismatches == 0
    assert report.dirty_ancillas == 0
    assert report.decision_changed == 0
    # single-state spot check through the plain evaluator
    state = pack_assignment(mixed4.n, layout.widths.b_node, (1, 2, 3, 4), (0, 0, 0, 1))
    out = eval_basis_int(circuit, state)
    assert out & ((1 << bits) - 1) == state
    rest = out >> bits
    rest &= ~(1 << (layout.marked - bits))
    assert rest == 0


def test_oracle_single_customer_exhaustive(single_customer):
    """n = 1 has no pair flags and no overflow registers; every branch that
    allocates them conditionally must still compose."""
    inst = single_customer
    layout = build_layout(inst, 15)
    assert layout.distinct is None and layout.load_overflow is None
    for k, marked_total in ((0, 0), (14, 0), (15, 1), (10**6, 1)):
        report = equivalence_scan(inst, k)
        assert report.clean
        assert feasible_table(inst).count(k) == marked_total


def test_oracle_windowed_pair_exhaustive(windowed_pair):
    for k in (0, 19, 20, 27, 10**6):  # optimum 18
        assert equivalence_scan(windowed_pair, k).clean


def test_full_oracle_threshold_strictness(example6):
    """At k equal to an assignment's cost the oracle must not mark it."""
    layout = build_layout(example6, 272)
    state = pack_assignment(6, layout.widths.b_node, (1, 2, 3, 4, 5, 6), (1,) * 6)
    out = eval_basis_int(build_oracle(example6, 272), state)
    assert (out >> layout.marked) & 1 == 0  # cost 272, threshold 272: strict
    out = eval_basis_int(build_oracle(example6, 273), state)
    assert (out >> layout.marked) & 1 == 1


def test_phase_oracle_wraps_marking_oracle(vacuous3):
    layout = build_layout(vacuous3, 50)
    marking = build_oracle(vacuous3, 50)
    phase = phase_kickback(build_oracle(vacuous3, 50))
    kinds = [g.kind for g in phase.gates]
    assert kinds[:2] == ["x", "h"] and kinds[-2:] == ["h", "x"]
    assert all(g.target == layout.marked for g in (phase.gates[0], phase.gates[1], phase.gates[-1], phase.gates[-2]))
    assert phase.gates[2:-2] == marking.gates


def test_pack_unpack_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        b = rng.randint(1, 4)
        P = tuple(rng.randrange(1 << b) for _ in range(n))
        y = tuple(rng.randint(0, 1) for _ in range(n))
        assert unpack_assignment(n, b, pack_assignment(n, b, P, y)) == (P, y)


# ---------------------------------------------------------------------------
# The vectorized reference that equivalence_scan compares the circuit with


@pytest.mark.parametrize(
    "name", ["vacuous3", "cap_bound3", "window_bound3", "mixed4", "single_customer", "windowed_pair"]
)
def test_reference_marks_match_predicate_exhaustively(name, request):
    inst = request.getfixturevalue(name)
    _, _, opt = brute_force_optimum(inst)
    everything = np.arange(1 << search_space(inst).decision_bits, dtype=np.int64)
    for k in (0, 12, 17, 37, opt + 1, 10**6):
        np.testing.assert_array_equal(reference_marks(inst, k, everything), predicate_marks(inst, k), err_msg=f"k={k}")


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_reference_marks_match_predicate_sampled(n):
    """2,000 uniform and 2,000 well-formed indices, at the lower quartile and
    the median of the drawn feasible costs and with no threshold; n = 9 takes
    two sweep blocks."""
    inst = binding_instance(random.Random(n), n)
    b_node = register_widths(inst).b_node
    indices = sample_indices(inst, 4000, n)  # 2,000 uniform, then 2,000 well-formed
    costs = [mark_predicate(inst, 10**6, *unpack_assignment(n, b_node, int(s))).cost for s in indices[2000:]]
    feasible = sorted(c for c in costs if c is not None)
    assert len(feasible) > 20  # the thresholds below split the feasible draws
    for k in (feasible[len(feasible) // 4], feasible[len(feasible) // 2], 10**6):
        expected = [mark_predicate(inst, k, *unpack_assignment(n, b_node, int(s))).marked for s in indices]
        got = reference_marks(inst, k, indices)
        np.testing.assert_array_equal(got, expected, err_msg=f"k={k}")
        assert got[2000:].any() and not got[2000:].all()


def test_scan_chunks_do_not_change_reports(mixed4, monkeypatch):
    """An exhaustive and an index-list scan give the same report whether the
    states run in one chunk or in many."""
    indices = sample_indices(mixed4, 3000, 4)
    whole = [equivalence_scan(mixed4, k, idx) for k in (37, 10**6) for idx in (None, indices)]
    monkeypatch.setattr(oracle, "_SCAN_CHUNK_BITS", 10)
    assert [equivalence_scan(mixed4, k, idx) for k in (37, 10**6) for idx in (None, indices)] == whole
    assert whole[1].assignments_checked == 3000


def test_scan_runs_no_collection_and_restores_collector(mixed4):
    """No garbage collection runs inside a scan, and the collector is left
    enabled or disabled as it was found, also when the scan raises."""
    phases = []
    record = lambda phase, info: phases.append(phase)
    gc.callbacks.append(record)
    try:
        assert equivalence_scan(mixed4, 37).clean
    finally:
        gc.callbacks.remove(record)
    assert phases == [] and gc.isenabled()
    with pytest.raises(ValueError):
        equivalence_scan(mixed4, 37, indices=["not an index"])
    assert gc.isenabled()
    gc.disable()
    try:
        equivalence_scan(mixed4, 37, indices=[0, 1])
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_exhaustive_scan_refuses_over_cap_before_building(monkeypatch):
    """n = 7 has 28 decision bits: the exhaustive scan names the bit count
    and the cap, and refuses before the oracle is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("built the oracle of an over-cap exhaustive scan")

    monkeypatch.setattr(oracle, "build_oracle", refuse)
    inst = make_instance(
        {
            "n": 7,
            "c_max": 7,
            "distance": [[0 if i == j else 1 + (i + j) % 4 for j in range(8)] for i in range(8)],
            "demands": [1] * 7,
        }
    )
    cap = oracle.EXHAUSTIVE_SCAN_CAP_BITS
    assert search_space(inst).decision_bits == 28 > cap
    with pytest.raises(ValueError, match=f"^28 decision bits exceed the exhaustive cap of {cap}$"):
        equivalence_scan(inst, 5)


@pytest.mark.parametrize("index", [1 << 24, -1])
def test_scan_refuses_indices_outside_the_decision_space(example6, monkeypatch, index):
    """An index past the 24 decision bits, below zero or not an integer is
    refused, naming the range, before the oracle is built; it used to run
    as another index."""

    def refuse(*args, **kwargs):
        raise AssertionError("built the oracle of a scan with an out-of-range index")

    monkeypatch.setattr(oracle, "build_oracle", refuse)
    with pytest.raises(ValueError, match=rf"^assignment index {index} is outside \[0, 2\^24\)$"):
        equivalence_scan(example6, 182, indices=[0, index, 5])
    for other in (1 << 70, 1.5, "3"):
        with pytest.raises(ValueError, match=r"^assignment indices must be integers in \[0, 2\^24\)$"):
            equivalence_scan(example6, 182, indices=[0, other])


def _drop_gate_on(builder, qubit_of):
    """``builder`` with its last gate that targets ``qubit_of(layout)`` removed."""

    def faulty(layout):
        c = builder(layout)
        target = qubit_of(layout)
        drop = max(i for i, g in enumerate(c.gates) if g.target == target)
        del c.gates[drop]
        return c

    return faulty


def _with_table(builder, field, edit):
    """``builder`` run on the layout with one table of its instance edited."""

    def faulty(layout):
        return builder(replace(layout, inst=replace(layout.inst, **{field: edit(getattr(layout.inst, field))})))

    return faulty


def _narrow_first_cost_adder(builder):
    """``builder`` with its first cost adder one bit narrower than the
    running bound: a carry into the top bit is lost."""

    def faulty(layout):
        narrowed = []

        def adder(a, b, ancilla, **kw):
            if b.name == "cost" and not narrowed:
                narrowed.append(b)
                a, b = a.slice(0, a.width - 1), b.slice(0, b.width - 1)
            return build_adder(a, b, ancilla, **kw)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "build_adder", adder)
            c = builder(layout)
        assert narrowed
        return c

    return faulty


# name: (fixture, chain builder, faulty builder from the real one)
FAULTS = {
    "uniqueness: drop the final AND": (
        "mixed4",
        "build_uniqueness",
        lambda b: _drop_gate_on(b, lambda lay: lay.valid_tour),
    ),
    "capacity: wrong demand of customer 2": (
        "mixed4",
        "build_capacity_chain",
        lambda b: _with_table(b, "q", lambda q: (*q[:2], q[2] + 2, *q[3:])),
    ),
    "time: drop a window flag": (
        "mixed4",
        "build_time_chain",
        lambda b: _drop_gate_on(b, lambda lay: lay.time_ok.qubit(1)),
    ),
    "time: drop a vacuous window flag": (
        "vacuous3",
        "build_time_chain",
        lambda b: _drop_gate_on(b, lambda lay: lay.time_ok.qubit(1)),
    ),
    "cost: wrong depot leg of customer 1": (
        "mixed4",
        "build_cost_accumulator",
        lambda b: _with_table(b, "D", lambda D: ((0, D[0][1] + 3, *D[0][2:]), *D[1:])),
    ),
    "cost: adder narrower than its bound": ("mixed4", "build_cost_accumulator", _narrow_first_cost_adder),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_equivalence_scan_catches_chain_faults(fault, request, monkeypatch):
    """A chain built wrong changes which states the circuit marks. The mirror
    is the compute phase reversed, so the fault uncomputes cleanly and shows
    only as a wrong mark: the reference must catch it."""
    fixture, name, make_faulty = FAULTS[fault]
    inst = request.getfixturevalue(fixture)
    _, _, opt = brute_force_optimum(inst)
    reports = [equivalence_scan(inst, k) for k in (opt + 1, 10**6)]
    monkeypatch.setattr(oracle, name, make_faulty(getattr(oracle, name)))
    faulty = [equivalence_scan(inst, k) for k in (opt + 1, 10**6)]
    assert all(r.clean for r in reports)
    assert any(r.mismatches for r in faulty), fault
    assert all(r.dirty_ancillas == 0 and r.decision_changed == 0 for r in faulty)


def test_oracle_equivalence_exhaustive_six_customer(example6):
    """All 2^24 assignments of the paper's example at its optimum + 1,
    streamed through the circuit in chunks."""
    report = equivalence_scan(example6, 182)
    assert report.assignments_checked == 1 << 24
    assert report.mismatches == 0
    assert report.dirty_ancillas == 0
    assert report.decision_changed == 0
