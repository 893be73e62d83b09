"""Layout determinism, constraint chains against their recurrences, the
oracle/predicate equivalence, and uncompute cleanliness."""

import gc
import hashlib
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from cvrptw_gas import oracle
from cvrptw_gas.classical import brute_force_optimum
from cvrptw_gas.cli import main, sample_indices
from cvrptw_gas.circuit import (
    Gate,
    count_resources,
    enumeration_columns,
    eval_basis_batch,
    eval_basis_int,
    phase_kickback,
    register_values,
)
from cvrptw_gas.grover import feasible_table, reference_marks, search_space
from cvrptw_gas.instance import bits_for, pack_assignment, serialize_instance, unpack_assignment
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
)
from cvrptw_gas.qarith import build_adder, build_conditional_encoder
from cvrptw_gas.resources import instance_budget, max_window_close, register_widths, toffoli_cost

from support import (
    binding_instance,
    count_fires,
    make_instance,
    predicate_marks,
    random_instance,
    zero_distance_instance,
)


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
            ("load_overflow", 64, 5),
            ("cost", 69, 9),
            ("cost_ok", 78, 1),
            ("marked", 79, 1),
            ("pool", 80, 10),
        ],
        (45, 78, 79, 90),
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
            ("load_overflow", 39, 3),
            *_per_position("clock", 42, 5, 4),
            ("waited", 62, 3),
            ("time_ok", 65, 4),
            ("clock_overflow", 69, 3),
            ("cost", 72, 7),
            ("cost_ok", 79, 1),
            ("marked", 80, 1),
            ("pool", 81, 8),
        ],
        (26, 79, 80, 89),
    ),
    "single_customer": (
        5,
        [
            ("pos1", 0, 1),
            ("split", 1, 1),
            ("in_range", 2, 1),
            ("valid_tour", 3, 1),
            ("cost", 4, 4),
            ("cost_ok", 8, 1),
            ("marked", 9, 1),
            ("pool", 10, 5),
        ],
        (3, 8, 9, 15),
    ),
}


@pytest.mark.parametrize("name", sorted(REGISTER_TABLES))
def test_layout_register_table_pinned(name, request):
    """Register names, order, starts and widths, and the single-qubit flags:
    the dump pin covers the gates' qubit indices but not the names, which
    diagnostics read. Each layout field is the register of its name, n = 1
    has no load registers, pair flags, overflow registers or wait flags, and
    vacuous windows (the example and the single customer) have no time
    registers."""
    k, table, flags = REGISTER_TABLES[name]
    inst = request.getfixturevalue(name)
    layout = build_layout(inst, k)
    assert [(name, r.start, r.width) for name, r in layout.registers.items()] == table
    assert (layout.valid_tour, layout.cost_ok, layout.marked, layout.qubit_count) == flags
    regs = layout.registers
    n = inst.n
    timed = not inst.windows_vacuous
    per_position = {"tour": "pos"}
    if n > 1:
        per_position.update(load="load")
    else:
        assert layout.load == ()
    if timed:
        per_position.update(clock="clock")
    else:
        assert layout.clock == ()
    for field, prefix in per_position.items():
        assert getattr(layout, field) == tuple(regs[f"{prefix}{i}"] for i in range(1, n + 1))
    singles = ("split", "in_range", "distinct", "load_overflow", "waited", "time_ok", "clock_overflow")
    for field in (*singles, "cost", "pool"):
        assert getattr(layout, field) == regs.get(field)
    absent = set() if n > 1 else {"distinct", "load_overflow", "waited", "clock_overflow"}
    if not timed:
        absent |= {"waited", "time_ok", "clock_overflow"}
    assert {f for f in singles if getattr(layout, f) is None} == absent


# A leg of 50 against windows closing at 8, and a random document whose return
# leg of 4 outlasts its window close of 3: each travel time needs more clock
# bits than the latest close.
TRAVEL_PAST_CLOSE = {
    "travel50": lambda: make_instance(
        {
            "n": 2,
            "c_max": 2,
            "distance": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "time": [[0, 50, 1], [50, 0, 1], [1, 1, 0]],
            "demands": [1, 1],
            "windows": [[0, 8], [0, 8]],
        }
    ),
    "random200": lambda: random_instance(random.Random(200), 1, True),
}


@pytest.mark.parametrize("name", TRAVEL_PAST_CLOSE)
def test_clock_holds_travel_time_past_latest_close(name, tmp_path, capsys):
    """The clock is sized for its longest travel time too, so a document
    whose travel outlasts every window close builds, budgets and verifies;
    only a negative threshold is refused."""
    inst = TRAVEL_PAST_CLOSE[name]()
    assert bits_for(inst.max_travel) > bits_for(max_window_close(inst))
    with pytest.raises(LayoutError, match="nonnegative"):
        build_layout(inst, -1)
    for k in (0, 6, 10**6):
        layout = build_layout(inst, k)
        assert layout.widths.w_time == bits_for(inst.max_travel)
        assert instance_budget(inst).total == layout.qubit_count
        assert equivalence_scan(inst, k).clean, k
    path = tmp_path / "doc.json"
    path.write_text(serialize_instance(inst))
    assert main(["verify-oracle", str(path), "--k", "6"]) == 0
    assert '"mismatches": 0' in capsys.readouterr().out


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
    """Capacity 5 in 3 bits: each load register holds the load plus 2, so a
    load of 5 fills the register and a load of 6 carries out of it."""
    layout = build_layout(example6, 300)
    block = build_capacity_chain(layout)
    state = run_block_on(layout, block, (1, 2, 3, 4, 5, 6), (1,) * 6)
    assert [reg_value(layout, state, r) for r in layout.load] == [4, 5, 3, 5, 4, 5]
    assert reg_value(layout, state, layout.load_overflow) == 0

    state = run_block_on(layout, block, (1, 2, 3, 4, 5, 6), (0, 1, 1, 1, 1, 1))
    assert reg_value(layout, state, layout.load[1]) == 7  # 2 + 3 right at capacity
    assert reg_value(layout, state, layout.load_overflow) == 0

    state = run_block_on(layout, block, (2, 4, 1, 3, 5, 6), (0, 1, 1, 1, 1, 1))
    assert reg_value(layout, state, layout.load[1]) == 0  # 3 + 3 over capacity wraps
    assert reg_value(layout, state, layout.load_overflow) == 0b00001


def test_capacity_chain_matches_recurrence_exhaustively(cap_bound3, mixed4):
    """On every well-formed tour, under every split vector, each load
    register holds the route's load plus ``2^w - 1 - c_max`` (0 on
    ``cap_bound3``, 3 on ``mixed4``) while the route fits, and the overflow
    flags read clear up to the first overload, which sets its own flag. So
    no flag is set exactly when every load fits. Past the first overload
    the register has wrapped and later flags may read anything: the mark is
    already off. Only permutation tours are checked, as in the time chain's
    test."""
    for inst in (cap_bound3, mixed4):
        layout = build_layout(inst, 100)
        host = layout.empty_circuit()
        host.extend(build_capacity_chain(layout))
        bits = search_space(layout.inst).decision_bits
        count = 1 << bits
        out = eval_basis_batch(host, enumeration_columns(bits) + [0] * (layout.qubit_count - bits), count)
        offset = (1 << layout.widths.w_cap) - 1 - inst.c_max
        regs = [register_values(out, ref, count) for ref in layout.load]
        flags = register_values(out, layout.load_overflow, count)
        n = inst.n
        overloads = 0
        for P in itertools.permutations(inst.customers):
            for y in itertools.product((0, 1), repeat=n):
                s = pack_assignment(n, layout.widths.b_node, P, y)
                load = 0
                for i in range(n):
                    load = inst.q[P[i]] + (0 if i == 0 or y[i - 1] else load)
                    if i > 0:
                        assert (int(flags[s]) >> (i - 1)) & 1 == (load > inst.c_max), (P, y, i)
                    if load > inst.c_max:
                        overloads += 1
                        break
                    assert regs[i][s] == load + offset, (P, y, i)
        assert overloads > 0


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
    assert reg_value(layout, state, layout.clock[0]) == 5  # arrives at 5
    assert (state >> layout.waited.qubit(0)) & 1 == 1  # 5 < 8: waits
    assert reg_value(layout, state, layout.clock[1]) == 12  # departs at 8, + 4
    assert (state >> layout.time_ok.qubit(1)) & 1 == 0  # 12 > 10
    assert (state >> layout.time_ok.qubit(0)) & 1 == 1


def test_time_chain_vacuous_windows_always_pass(vacuous3):
    """Vacuous windows cannot reject a route, so no window check reaches the
    mark gate: it takes the tour flag, the last split bit, the cost flag and
    n - 1 load overflow flags, n + 2 controls in all."""
    n = vacuous3.n
    layout = build_layout(vacuous3, 100)
    built = build_oracle(vacuous3, 100)
    (mark,) = [g for g in built.gates if g.target == layout.marked]
    assert len(mark.controls) == n + 2
    time_names = ("clock", "waited", "time_ok")
    time_qubits = {q for name, reg in layout.registers.items() if name.startswith(time_names) for q in reg.qubits()}
    assert not time_qubits & set(mark.controls)


def test_time_chain_vacuous_windows_is_flags_only(vacuous3):
    """Vacuous windows cannot bind, so the chain needs not even the n flags:
    the layout has none of the four time registers and the chain has no gate."""
    layout = build_layout(vacuous3, 100)
    assert not any(name.startswith(("clock", "waited", "time_ok")) for name in layout.registers)
    assert layout.clock == ()
    assert layout.waited is layout.time_ok is layout.clock_overflow is None
    assert layout.widths.w_time == 0
    assert build_time_chain(layout).gates == []


def test_time_chain_matches_recurrence_exhaustively(window_bound3):
    """On every well-formed tour, under every split vector, each clock holds
    the arrival, its window flag reads ``arrival <= close`` and, before the
    last position, its wait flag ``arrival < opening``; the next arrival
    starts from the departure, the later of the two. The chain runs alone
    over every state, but only the tours whose codes are a permutation are
    checked: the mark gate's ``valid_tour`` control keeps the others
    unmarked, and the exhaustive equivalence scans check that."""
    inst = window_bound3
    layout = build_layout(inst, 100)
    host = layout.empty_circuit()
    host.extend(build_time_chain(layout))
    bits = search_space(layout.inst).decision_bits
    count = 1 << bits
    out = eval_basis_batch(host, enumeration_columns(bits) + [0] * (layout.qubit_count - bits), count)
    w = layout.widths.w_time
    n = inst.n
    checked = 0
    for s in range(count):
        P, y = unpack_assignment(n, layout.widths.b_node, s)
        if sorted(P) != list(inst.customers):
            continue
        checked += 1
        regs = [int(register_values(out, layout.clock[i], count)[s]) for i in range(n)]
        oks = [(int(register_values(out, layout.time_ok, count)[s]) >> i) & 1 for i in range(n)]
        waits = [(int(register_values(out, layout.waited, count)[s]) >> i) & 1 for i in range(n - 1)]
        departure = 0
        for i in range(n):
            open_at, close_at = inst.windows[P[i]]
            if i == 0 or y[i - 1]:
                arrival = inst.T[0][P[i]]
            else:
                arrival = (departure + inst.T[P[i - 1]][P[i]]) % (1 << w)
            departure = max(arrival, open_at)
            assert regs[i] == arrival, (P, y, i)
            assert oks[i] == (1 if arrival <= close_at else 0), (P, y, i)
            if i < n - 1:
                assert waits[i] == (1 if arrival < open_at else 0), (P, y, i)
    assert checked == 6 << n  # 3! tours, 2^3 split vectors


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
    the return leg and the direct leg lands in the pool. The return leg is
    exact on every code; the direct leg on distinct customers, and it writes
    0 when the two codes are equal. Elsewhere (a code outside 1..n) it may
    write anything: such a tour is never marked."""
    inst = mixed4
    layout = build_layout(inst, 100)
    out_ref = layout.pool.slice(0, layout.widths.w_cost)
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
            assert pool[s] == (inst.D[u][0] if u in customers else 0), (P, y)
        elif u == v:
            assert pool[s] == 0, (P, y)
        elif u in customers and v in customers:
            assert pool[s] == inst.D[u][v], (P, y)


def test_example_oracle_structure(example6):
    """Gate, control and Toffoli counts of the paper's example at its
    optimum + 1, frozen: the vacuous windows leave the time chain empty, the
    cost chain runs 11 trimmed adders, the ripple blocks emit only gates
    whose controls can all be 1, and each pair lookup is split into two
    one-index tables and a residual."""
    layout = build_layout(example6, 182)
    builders = (build_uniqueness, build_capacity_chain, build_time_chain, build_cost_accumulator)
    chains = [b(layout) for b in builders]
    assert [len(c.gates) for c in chains] == [157, 185, 0, 1647]
    assert [toffoli_cost(c) for c in chains] == [192, 225, 0, 9120]
    built = build_oracle(example6, 182)
    assert len(built.gates) == 2 * sum(len(c.gates) for c in chains) + 1 == 3979
    assert built.qubit_count == layout.qubit_count == 90
    assert sum(a * c for a, c in count_resources(built).mcx_by_arity.items()) == 15002
    # The mark gate has 8 controls: 2 * 8 - 3 Toffolis.
    assert toffoli_cost(built) == 2 * sum(toffoli_cost(c) for c in chains) + 13 == 19087


@pytest.mark.parametrize(
    "name,k,gates,digest",
    [
        pytest.param(
            "example6", 182, 3979, "eda6d0300d4e9eb3c1006e3fe7e779ce2f4111fdc8f3cdf1d2273a0c9b22857f", id="example6-182"
        ),
        pytest.param(
            "mixed4", 35, 2491, "eccae71555646c70e8393545f5e49819edcf4c8055287db07508dc25e2f3ab76", id="mixed4-35"
        ),
    ],
)
def test_oracle_dump_pinned(name, k, gates, digest, request):
    """The full gate lists, byte for byte: the paper's example, whose time
    chain is empty, and a fixture whose windows bind, so the clock chain
    runs. A refactor of the block builders must not move either digest."""
    built = build_oracle(request.getfixturevalue(name), k)
    assert len(built.gates) == gates
    assert hashlib.sha256(built.dump().encode()).hexdigest() == digest


# Gates of the oracle that fire on no input, at k = 0, opt + 1 and 10^6. The
# value-range model bounds only the addend of each ripple block; these gates
# need the range of the other operand too: the first load, copied into the
# pool as a whole register; the load, clock and cost registers, whose high
# bits stay zero below their bounds; and the clock chain's wait flags and
# departure steps, which depend on how the windows fall and, on malformed
# tours, on the legs the pair lookups write there.
NEVER_FIRED = {
    "windowed_pair": [87, 90, 86],
    "cap_bound3": [23, 22, 22],
    "window_bound3": [123, 122, 122],
    "mixed4": [121, 120, 120],
}


@pytest.mark.parametrize("name", sorted(NEVER_FIRED))
def test_never_fired_gates_pinned(name, request):
    """Every decision assignment runs through the oracle with each gate's
    fires counted; the counter's output must equal the batch evaluator's."""
    inst = request.getfixturevalue(name)
    _, _, opt = brute_force_optimum(inst)
    bits = search_space(inst).decision_bits
    never = []
    for k in (0, opt + 1, 10**6):
        built = build_oracle(inst, k)
        columns = enumeration_columns(bits) + [0] * (built.qubit_count - bits)
        out, fires = count_fires(built, columns, 1 << bits)
        assert out == eval_basis_batch(built, columns, 1 << bits)
        never.append(fires.count(0))
    assert never == NEVER_FIRED[name]


FIXTURES = (
    "single_customer",
    "windowed_pair",
    "example6",
    "cap_bound3",
    "window_bound3",
    "mixed4",
    "vacuous3",
    "bound7",
    "bound8",
)


@pytest.mark.parametrize("name", FIXTURES)
def test_load_time_and_cost_chains_leave_the_tour_flags_alone(name, request):
    """The premise that lets the capacity, time and cost chains be exact only
    on well-formed tours: none of their gates controls or targets a qubit of
    ``in_range``, ``distinct`` or ``valid_tour``, and the mark gate, the only
    gate on ``marked``, has ``valid_tour`` as a positive control. So a
    malformed tour is never marked, whatever those chains write for it."""
    inst = request.getfixturevalue(name)
    opt = int(feasible_table(inst).costs.min())
    for k in (0, opt + 1, 10**6):
        layout = build_layout(inst, k)
        flags = {layout.valid_tour, *layout.in_range.qubits()}
        if layout.distinct is not None:
            flags.update(layout.distinct.qubits())
        for builder in (build_capacity_chain, build_time_chain, build_cost_accumulator):
            for _, target, controls in builder(layout).gates:
                assert not flags & {target, *(q for q, _ in controls)}, (builder.__name__, k)
        on_marked = [
            controls
            for _, target, controls in build_oracle(inst, k).gates
            if layout.marked in {target, *(q for q, _ in controls)}
        ]
        assert len(on_marked) == 1 and (layout.valid_tour, True) in on_marked[0], k


@pytest.mark.parametrize("name", [*FIXTURES, *(f"zero_distance{n}" for n in range(4, 8))])
def test_every_qubit_is_a_target_or_a_control(name, request):
    """The layout allocates only qubits the oracle uses: at k = 0, opt + 1
    and 10^6, every qubit is the target or a control of some gate.

    On the zero-distance documents a tour code is wider than the load and
    cost registers, so a pool sized by it would leave its top qubit idle.
    Their cost is always 0, so no gate writes the one-bit cost register, and
    only the comparator at k = 1 reads it: at k = 0 and 10^6 it is idle."""
    zero_distance = name.startswith("zero_distance")
    if zero_distance:
        inst = zero_distance_instance(int(name.removeprefix("zero_distance")))
    else:
        inst = request.getfixturevalue(name)
    opt = int(feasible_table(inst).costs.min())
    for k in (0, opt + 1, 10**6):
        built = build_oracle(inst, k)
        used = set()
        for _, target, controls in built.gates:
            used.add(target)
            used.update(q for q, _ in controls)
        idle = [] if not zero_distance or k == opt + 1 else list(build_layout(inst, k).cost.qubits())
        assert sorted(set(range(built.qubit_count)) - used) == idle, k


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
    with pytest.raises(ValueError, match=r"^assignment must have n tour entries and n split bits$"):
        mark_predicate(example6, 10**6, (1, 2, 3, 4, 5), (1,) * 6)


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


@pytest.mark.parametrize("n", [4, 5])
def test_oracle_zero_distance_exhaustive(n):
    """Every distance 0, so the pool is narrower than a tour code: the pair
    flags compare the codes in place, without it."""
    inst = zero_distance_instance(n)
    for k in (0, 1, 10**6):
        report = equivalence_scan(inst, k)
        assert report.assignments_checked == 1 << (4 * n)
        assert report.clean, k


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


@pytest.mark.parametrize("c_max", range(1, 17))
def test_oracle_exhaustive_at_every_load_offset(c_max):
    """Capacities 1 to 16 give every load offset ``2^w - 1 - c_max`` of
    widths 1 to 4 (0 to 7) and the widest of width 5 (15, at 16). One demand
    fills the capacity and the other two sum to it (both pass it at capacity
    1), so continuing routes both fit at the capacity and pass it."""
    demands = [c_max, (c_max + 1) // 2, max(1, c_max // 2)]
    distance = [[0, 3, 4, 5], [3, 0, 2, 4], [4, 2, 0, 3], [5, 4, 3, 0]]
    inst = make_instance({"n": 3, "c_max": c_max, "distance": distance, "demands": demands})
    table = feasible_table(inst)
    assert 0 < table.count(10**6) < 24  # 3! tours times 4 split vectors
    for k in (0, int(table.costs.min()) + 1, 10**6):
        assert equivalence_scan(inst, k).clean, k


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
    x, h = Gate("mcx", layout.marked), Gate("h", layout.marked)
    assert phase.gates[:2] == [x, h] and phase.gates[-2:] == [h, x]
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


def _drop_row_table_gate(builder):
    """``builder`` without its first gate that has a negative split control
    and the code bits of one position only: in the cost chain, a gate of the
    ``S[idx_a]`` table of a direct leg's lookup. The restart encoders have a
    positive split control, and the residual reads two positions."""

    def faulty(layout):
        c = builder(layout)
        splits = set(layout.split.qubits())
        positions = [set(ref.qubits()) for ref in layout.tour]

        def one_row(gate):
            codes = {q for q, _ in gate.controls if q not in splits}
            return any((q, False) in gate.controls for q in splits) and codes in positions

        del c.gates[min(i for i, g in enumerate(c.gates) if one_row(g))]
        return c

    return faulty


def _stray_x_on(builder, qubit_of):
    """``builder`` with one X on ``qubit_of(layout)`` after its gates."""

    def faulty(layout):
        c = builder(layout)
        c.x(qubit_of(layout))
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


def _fresh_route_without_offset(builder):
    """``builder`` without the CXs from a split bit into the pool: a route
    that restarts at a later position adds no load offset."""

    def faulty(layout):
        c = builder(layout)
        splits, pool = set(layout.split.qubits()), set(layout.pool.qubits())
        c.gates = [g for g in c.gates if not (len(g.controls) == 1 and g.controls[0][0] in splits and g.target in pool)]
        return c

    return faulty


def _first_load_without_offset(builder):
    """``builder`` with the first load register holding the demand alone:
    an encoder of ``(q + offset) XOR q`` before the chain cancels the
    offset of the first position's table."""

    def faulty(layout):
        inst = layout.inst
        offset = (1 << layout.widths.w_cap) - 1 - inst.c_max
        table = [0] * (1 << layout.widths.b_node)
        for v in inst.customers:
            table[v] = (inst.q[v] + offset) ^ inst.q[v]
        c = layout.empty_circuit()
        c.extend(build_conditional_encoder(layout.tour[0], table, layout.load[0]))
        c.extend(builder(layout))
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
    "capacity: fresh route without the offset": ("mixed4", "build_capacity_chain", _fresh_route_without_offset),
    "capacity: first table without the offset": ("mixed4", "build_capacity_chain", _first_load_without_offset),
    "time: drop a window flag": (
        "mixed4",
        "build_time_chain",
        lambda b: _drop_gate_on(b, lambda lay: lay.time_ok.qubit(1)),
    ),
    "time: a stray X on cost_ok": ("vacuous3", "build_time_chain", lambda b: _stray_x_on(b, lambda lay: lay.cost_ok)),
    "time: a stray X on a pool qubit": (
        "vacuous3",
        "build_time_chain",
        lambda b: _stray_x_on(b, lambda lay: lay.pool.qubit(0)),
    ),
    "cost: wrong depot leg of customer 1": (
        "mixed4",
        "build_cost_accumulator",
        lambda b: _with_table(b, "D", lambda D: ((0, D[0][1] + 3, *D[0][2:]), *D[1:])),
    ),
    "cost: adder narrower than its bound": ("mixed4", "build_cost_accumulator", _narrow_first_cost_adder),
    "cost: drop a gate of a pair lookup's row table": ("mixed4", "build_cost_accumulator", _drop_row_table_gate),
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


def _depart_at_arrival(builder):
    """``builder`` without the CCXs that are controlled by the pool qubit
    above the clock width and target a clock register: the steps that swap
    a carried-on arrival for the opening, so a route never waits. The same
    filter takes the first rung of each wait comparator, which only changes
    the wait flags those steps read."""

    def faulty(layout):
        c = builder(layout)
        seed = (layout.pool.qubit(layout.widths.w_time), True)
        clocks = {q for ref in layout.clock for q in ref.qubits()}
        c.gates = [g for g in c.gates if not (len(g.controls) == 2 and seed in g.controls and g.target in clocks)]
        return c

    return faulty


@pytest.mark.parametrize("name", ["windowed_pair", "binding4"])
def test_equivalence_scan_catches_departure_at_arrival(name, request, monkeypatch):
    """A route that waits for an opening departs at the opening: with the
    departure steps removed, it departs at its arrival, and the exhaustive
    scan at k = 10^6 must find a wrongly marked state. The other fixtures'
    scans miss this fault."""
    inst = binding_instance(random.Random(5), 4) if name == "binding4" else request.getfixturevalue(name)
    assert equivalence_scan(inst, 10**6).clean
    monkeypatch.setattr(oracle, "build_time_chain", _depart_at_arrival(oracle.build_time_chain))
    report = equivalence_scan(inst, 10**6)
    assert report.mismatches > 0
    assert report.dirty_ancillas == report.decision_changed == 0


@pytest.mark.parametrize("after_mark", ["first", "middle", "last"])
def test_equivalence_scan_catches_an_uncompute_fault(mixed4, monkeypatch, after_mark):
    """Every chain fault above is mirrored, so it uncomputes cleanly. Here one
    gate of the mirror alone is removed, so the circuit is no longer its own
    compute phase reversed: the mark is still right, but working registers
    stay dirty, and the scan must count them."""
    real = oracle.build_oracle

    def faulty(inst, k):
        c = real(inst, k)
        marked = c.registers["marked"].qubit(0)
        mark = next(i for i, g in enumerate(c.gates) if g.target == marked)
        first, last = mark + 1, len(c.gates) - 1
        del c.gates[{"first": first, "middle": (first + last) // 2, "last": last}[after_mark]]
        return c

    monkeypatch.setattr(oracle, "build_oracle", faulty)
    report = equivalence_scan(mixed4, 10**6)
    assert report.mismatches == 0 and report.decision_changed == 0
    assert report.dirty_ancillas > 0


def test_equivalence_scan_catches_a_decision_fault(mixed4, monkeypatch):
    """Each pair flag XORs one tour code into the other and back, so the
    mirror writes decision qubits. With the oracle's last gate on a tour
    qubit removed (the CX that restores pos2 after the first pair flag is
    uncomputed), the mark is still right but a decision bit stays flipped:
    the scan must count it."""
    real = oracle.build_oracle

    def faulty(inst, k):
        c = real(inst, k)
        tour = {q for ref in build_layout(inst, k).tour for q in ref.qubits()}
        del c.gates[max(i for i, g in enumerate(c.gates) if g.target in tour)]
        return c

    monkeypatch.setattr(oracle, "build_oracle", faulty)
    report = equivalence_scan(mixed4, 10**6)
    assert report.mismatches == 0
    assert report.decision_changed > 0


def test_oracle_equivalence_exhaustive_six_customer(example6):
    """All 2^24 assignments of the paper's example at its optimum + 1,
    streamed through the circuit in chunks."""
    report = equivalence_scan(example6, 182)
    assert report.assignments_checked == 1 << 24
    assert report.mismatches == 0
    assert report.dirty_ancillas == 0
    assert report.decision_changed == 0
