"""Exhaustive checks of the arithmetic builders against integer semantics.

Each builder runs over every operand value via the bit-sliced evaluator; the
expected values come straight from Python integer arithmetic.
"""

import operator
import random

import numpy as np
import pytest

from cvrptw_gas.circuit import (
    Circuit,
    CircuitError,
    RegisterRef,
    columns_from_indices,
    count_resources,
    enumeration_columns,
    eval_basis_batch,
    eval_basis_int,
    inverse,
    register_values,
)
from cvrptw_gas.qarith import (
    build_add_const,
    build_adder,
    build_and_reduce,
    build_conditional_encoder,
    build_leq_const,
    build_leq_register,
    build_lt_const,
    build_lt_register,
    build_max_with_const,
    build_pair_matrix_encoder,
    build_pair_neq,
)
from cvrptw_gas.resources import register_widths

from support import count_fires


def run_exhaustive(host: Circuit, block: Circuit, input_bits: int):
    """Evaluate a block over all assignments of the first ``input_bits`` qubits."""
    count = 1 << input_bits
    cols = enumeration_columns(input_bits) + [0] * (host.qubit_count - input_bits)
    return eval_basis_batch(block, cols, count), count


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_adder_exhaustive(width):
    host = Circuit()
    a = host.add_register("a", width)
    b = host.add_register("b", width)
    anc = host.add_register("anc", 1)
    z = host.add_register("z", 1)
    block = build_adder(a, b, anc, carry_out=z.qubit(0), qubit_count=host.qubit_count)
    out, count = run_exhaustive(host, block, 2 * width)
    idx = np.arange(count)
    a_in, b_in = idx & ((1 << width) - 1), idx >> width
    assert (register_values(out, a, count) == a_in).all()
    assert (register_values(out, b, count) == (a_in + b_in) % (1 << width)).all()
    assert (register_values(out, z, count) == (a_in + b_in) // (1 << width)).all()
    assert (register_values(out, anc, count) == 0).all()


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_adder_within_its_addend_bits_is_exact_and_tight(width):
    """Every addend mask, with and without a carry out, over every addend
    inside the mask and every target: the sum, the carry, the restored
    addend and the clean seed are exact, and every gate the mask lets
    through fires on at least one of those inputs."""
    full = (1 << width) - 1
    for bits in range(1 << width):
        addends = [x for x in range(1 << width) if x & ~bits == 0]
        states = [x | y << width for x in addends for y in range(1 << width)]
        for carry in (False, True):
            host = Circuit()
            a = host.add_register("a", width)
            b = host.add_register("b", width)
            seed = host.add_register("seed", 1)
            z = host.add_register("z", 1)
            carry_out = z.qubit(0) if carry else None
            block = build_adder(a, b, seed, addend_bits=bits, carry_out=carry_out, qubit_count=host.qubit_count)
            for s in states:
                x, y = s & full, s >> width
                total = x + y
                expect = x | (total & full) << b.start | (total >> width if carry else 0) << z.start
                assert eval_basis_int(block, s) == expect, (width, bits, carry, x, y)
            _, fires = count_fires(block, columns_from_indices(np.array(states), host.qubit_count), len(states))
            assert all(fires), (width, bits, carry)


def test_adder_refuses_addend_bits_outside_its_width():
    host = Circuit()
    a = host.add_register("a", 3)
    b = host.add_register("b", 3)
    anc = host.add_register("anc", 1)
    for bits in (-1, 8):
        with pytest.raises(CircuitError, match="do not fit 3 bits"):
            build_adder(a, b, anc, addend_bits=bits)


def test_adder_small_cases():
    host = Circuit()
    a = host.add_register("a", 4)
    b = host.add_register("b", 4)
    anc = host.add_register("anc", 1)
    block = build_adder(a, b, anc, qubit_count=host.qubit_count)
    out, count = run_exhaustive(host, block, 8)
    bv = register_values(out, b, count)
    assert bv[3 | (5 << 4)] == 8  # 3 + 5
    host3 = Circuit()
    a3 = host3.add_register("a", 3)
    b3 = host3.add_register("b", 3)
    anc3 = host3.add_register("anc", 1)
    blk3 = build_adder(a3, b3, anc3, qubit_count=host3.qubit_count)
    out3, count3 = run_exhaustive(host3, blk3, 6)
    assert register_values(out3, b3, count3)[5 | (6 << 3)] == 3  # 5 + 6 mod 8


def test_adder_width_mismatch():
    host = Circuit()
    a = host.add_register("a", 3)
    b = host.add_register("b", 4)
    anc = host.add_register("anc", 1)
    with pytest.raises(CircuitError, match="equal widths"):
        build_adder(a, b, anc)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_add_const_exhaustive(width):
    for k in range(1 << width):
        host = Circuit()
        b = host.add_register("b", width)
        anc = host.add_register("anc", width + 1)
        block = build_add_const(b, k, anc, qubit_count=host.qubit_count)
        if k == 0:
            assert block.gates == []
        out, count = run_exhaustive(host, block, width)
        idx = np.arange(count)
        assert (register_values(out, b, count) == (idx + k) % (1 << width)).all()
        assert (register_values(out, anc, count) == 0).all()


def test_add_const_range_check():
    host = Circuit()
    b = host.add_register("b", 3)
    anc = host.add_register("anc", 4)
    with pytest.raises(CircuitError, match="fit"):
        build_add_const(b, 8, anc)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
def test_leq_and_lt_const_exhaustive(width):
    for k in range(1 << width):
        for build, op in ((build_leq_const, np.less_equal), (build_lt_const, np.less)):
            host = Circuit()
            a = host.add_register("a", width)
            anc = host.add_register("anc", width + 1)
            flag = host.add_register("flag", 1)
            block = build(a, k, flag.qubit(0), anc, qubit_count=host.qubit_count)
            out, count = run_exhaustive(host, block, width)
            idx = np.arange(count)
            assert (register_values(out, flag, count) == op(idx, k)).all(), (build.__name__, width, k)
            assert (register_values(out, a, count) == idx).all(), "operand modified"
            assert (register_values(out, anc, count) == 0).all()


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_const_comparators_emit_only_gates_that_fire(width):
    """Every constant: each register value maps to itself with the flag set
    exactly when the comparison holds and the ancillas clean, and every
    emitted gate fires on at least one value."""
    for k in range(1 << width):
        for build, op in ((build_leq_const, operator.le), (build_lt_const, operator.lt)):
            host = Circuit()
            a = host.add_register("a", width)
            anc = host.add_register("anc", width + 1)
            flag = host.add_register("flag", 1)
            block = build(a, k, flag.qubit(0), anc, qubit_count=host.qubit_count)
            for v in range(1 << width):
                assert eval_basis_int(block, v) == v | op(v, k) << flag.start, (build.__name__, width, k, v)
            _, fires = count_fires(block, enumeration_columns(width) + [0] * (width + 2), 1 << width)
            assert all(fires), (build.__name__, width, k)


def test_lt_const_exhaustive_at_cost_width(example6):
    """Every threshold of a comparator as wide as the six-customer example's
    cost register, and of one a bit wider, over every register value."""
    assert register_widths(example6).w_cost == 9
    for width in (9, 10):
        host = Circuit()
        a = host.add_register("a", width)
        anc = host.add_register("anc", width + 1)
        flag = host.add_register("flag", 1)
        for k in range((1 << width) + 1):
            block = build_lt_const(a, k, flag.qubit(0), anc, qubit_count=host.qubit_count)
            out, count = run_exhaustive(host, block, width)
            idx = np.arange(count)
            assert (register_values(out, flag, count) == (idx < k)).all(), (width, k)
            assert (register_values(out, a, count) == idx).all(), "operand modified"
            assert (register_values(out, anc, count) == 0).all(), (width, k)


def test_comparator_boundaries():
    host = Circuit()
    a = host.add_register("a", 3)
    anc = host.add_register("anc", 4)
    flag = host.add_register("flag", 1)
    lt5 = build_lt_const(a, 5, flag.qubit(0), anc, qubit_count=host.qubit_count)
    out, count = run_exhaustive(host, lt5, 3)
    fv = register_values(out, flag, count)
    assert fv[5] == 0 and fv[4] == 1  # strictness at the boundary
    assert build_lt_const(a, 0, flag.qubit(0), anc, qubit_count=host.qubit_count).gates == []
    always = build_lt_const(a, 8, flag.qubit(0), anc, qubit_count=host.qubit_count)
    out, count = run_exhaustive(host, always, 3)
    assert register_values(out, flag, count).all()


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_max_with_const_exhaustive(width):
    for k in range(1 << width):
        host = Circuit()
        t = host.add_register("t", width)
        anc = host.add_register("anc", 2 * width + 1)
        choice = host.add_register("choice", 1)
        block = build_max_with_const(t, k, choice.qubit(0), anc, qubit_count=host.qubit_count)
        out, count = run_exhaustive(host, block, width)
        idx = np.arange(count)
        assert (register_values(out, t, count) == np.maximum(idx, k)).all()
        assert (register_values(out, choice, count) == (idx < k)).all()
        # spill holds the displaced value exactly when the choice flag fired
        spill = register_values(out, anc.slice(width, width), count)
        assert (spill == np.where(idx < k, idx, 0)).all()
        assert (register_values(out, anc.slice(0, width), count) == 0).all()


def test_max_small_cases():
    host = Circuit()
    t = host.add_register("t", 4)
    anc = host.add_register("anc", 9)
    choice = host.add_register("choice", 1)
    block = build_max_with_const(t, 7, choice.qubit(0), anc, qubit_count=host.qubit_count)
    out, count = run_exhaustive(host, block, 4)
    tv = register_values(out, t, count)
    cv = register_values(out, choice, count)
    assert tv[3] == 7 and cv[3] == 1
    assert tv[9] == 9 and cv[9] == 0


@pytest.mark.parametrize("idx_width", [2, 3, 4])
def test_conditional_encoder_exhaustive(idx_width):
    rng = random.Random(idx_width)
    out_width = 4
    table = [rng.randrange(1 << out_width) for _ in range(1 << idx_width)]
    host = Circuit()
    idx_reg = host.add_register("idx", idx_width)
    out_reg = host.add_register("out", out_width)
    block = build_conditional_encoder(idx_reg, table, out_reg, qubit_count=host.qubit_count)
    out, count = run_exhaustive(host, block, idx_width)
    assert (register_values(out, out_reg, count) == np.array(table)).all()
    assert (register_values(out, idx_reg, count) == np.arange(count)).all()
    # gate budget: one MCX of arity idx_width per set table bit
    rep = count_resources(block)
    popcount = sum(bin(v).count("1") for v in table)
    assert rep.gate_total == popcount
    assert set(rep.mcx_by_arity) <= {idx_width}


def test_encoder_zero_table_is_identity():
    host = Circuit()
    idx_reg = host.add_register("idx", 3)
    out_reg = host.add_register("out", 3)
    assert build_conditional_encoder(idx_reg, [0] * 8, out_reg).gates == []


def test_encoder_demand_lookup(example6):
    # demand table over position codes: code 4 encodes customer 4, demand 3
    host = Circuit()
    idx_reg = host.add_register("idx", 3)
    out_reg = host.add_register("out", 3)
    table = [0] + list(example6.q[1:]) + [0]
    block = build_conditional_encoder(idx_reg, table, out_reg, qubit_count=host.qubit_count)
    out, count = run_exhaustive(host, block, 3)
    assert register_values(out, out_reg, count)[4] == 3


def test_encoder_value_overflow():
    host = Circuit()
    idx_reg = host.add_register("idx", 2)
    out_reg = host.add_register("out", 2)
    with pytest.raises(CircuitError, match=r"^table value 4 does not fit 2 bits$"):
        build_conditional_encoder(idx_reg, [0, 4], out_reg)
    with pytest.raises(CircuitError, match=r"^matrix value 5 does not fit 2 bits$"):
        build_pair_matrix_encoder(idx_reg.slice(0, 1), idx_reg.slice(1, 1), [[0, 5], [1, 0]], range(2), out_reg)


def test_encoder_refuses_controls_on_its_output():
    """The control qubits are checked against every output bit once per
    encoder, so an output overlapping the index or an extra control is
    refused even where the table's set bits would never reach it."""
    host = Circuit()
    idx_reg = host.add_register("idx", 3)
    flag = host.add_register("flag", 1)
    distinct = r"^mcx controls must be distinct and differ from the target$"
    with pytest.raises(CircuitError, match=distinct):
        build_conditional_encoder(idx_reg, [1, 1, 1], idx_reg.slice(2, 1))
    with pytest.raises(CircuitError, match=distinct):
        build_conditional_encoder(idx_reg.slice(0, 2), [1, 0, 0, 0], idx_reg.slice(1, 2))
    with pytest.raises(CircuitError, match=distinct):  # only out bit 1 (qubit 2) is ever set
        build_conditional_encoder(idx_reg.slice(0, 2), [2], idx_reg.slice(1, 2))
    with pytest.raises(CircuitError, match=distinct):
        build_conditional_encoder(idx_reg.slice(0, 2), [1, 2], flag, controls=[(flag.qubit(0), True)])
    with pytest.raises(CircuitError, match=distinct):
        build_conditional_encoder(idx_reg.slice(0, 2), [1, 2], flag, controls=[(0, True)])


def pair_lookup(width, matrix, valid, out_width, polarities=()):
    """A host whose first ``2 * width`` qubits are the indices ``a`` and
    ``b``, then one control qubit, and the pair lookup controlled by that
    qubit at each of ``polarities``."""
    host = Circuit()
    a = host.add_register("a", width)
    b = host.add_register("b", width)
    ctl = host.add_register("ctl", 1)
    out_reg = host.add_register("out", out_width)
    controls = [(ctl.qubit(0), p) for p in polarities]
    lookup = build_pair_matrix_encoder(a, b, matrix, valid, out_reg, controls=controls, qubit_count=host.qubit_count)
    return host, lookup, (a, b, out_reg)


@pytest.mark.parametrize("polarity", [True, False])
def test_pair_matrix_encoder_exhaustive(polarity):
    """``out ^= matrix[u][v]`` for distinct u, v in the valid range when the
    control reads ``polarity``, 0 with the control off, and 0 when u == v.
    A code outside the range may write anything. The matrix is a row/column
    sum plus noise, so its lookup writes both one-index tables and a
    residual."""
    rng = random.Random(int(polarity))
    base = [rng.randrange(16) for _ in range(8)]
    matrix = [[base[u] ^ base[v] ^ (rng.randrange(16) if rng.random() < 0.3 else 0) for v in range(8)] for u in range(8)]
    for u in range(8):
        matrix[u][u] = rng.randrange(16)  # never read
    valid = range(1, 7)
    host, lookup, (a, b, out_reg) = pair_lookup(3, matrix, valid, 4, polarities=[polarity])
    # A gate of a one-index table reads the code bits of a or of b, not both.
    index_a, index_b = set(a.qubits()), set(b.qubits())
    reads = [{q for q, _ in g.controls} for g in lookup.gates]
    split = sum(not (read & index_a and read & index_b) for read in reads)
    assert 0 < split < len(lookup.gates)
    out, count = run_exhaustive(host, lookup, 7)
    got = register_values(out, out_reg, count)
    for s in range(count):
        u, v, fire = s & 7, (s >> 3) & 7, bool(s >> 6) == polarity
        if not fire or u == v:
            assert got[s] == 0, (u, v, s >> 6)
        elif u in valid and v in valid:
            assert got[s] == matrix[u][v], (u, v, s >> 6)
    assert (register_values(out, a, count) == np.arange(count) & 7).all()
    assert (register_values(out, b, count) == (np.arange(count) >> 3) & 7).all()


def _fewest_split_gates(matrix, valid):
    """The fewest gates of any row/column split, by direct enumeration: per
    output bit, 2 gates per index whose row table sets the bit and 1 per
    distinct valid pair whose residual still has it."""
    pairs = [(u, v) for u in valid for v in valid if u != v]
    total = 0
    for j in range(max(matrix[u][v] for u, v in pairs).bit_length()):
        best = None
        for mask in range(1 << len(valid)):
            side = {u: mask >> i & 1 for i, u in enumerate(valid)}
            gates = 2 * sum(side.values()) + sum((matrix[u][v] >> j & 1) ^ side[u] ^ side[v] for u, v in pairs)
            best = gates if best is None else min(best, gates)
        total += best
    return total


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_matrix_split_never_adds_gates(n):
    """Over random matrices, uniform and row/column sums with noise, the
    lookup never has more gates than the per-cell form, one per set bit of
    each distinct valid pair; up to four indices it has exactly the fewest
    of any split."""
    rng = random.Random(n)
    width = max(1, n.bit_length())
    valid = range(1, n + 1)
    for trial in range(12):
        base = [rng.randrange(64) for _ in range(n + 1)]
        noise = lambda: rng.randrange(64) if rng.random() < 0.5 else 0
        matrix = [[(base[u] ^ base[v] if trial % 2 else 0) ^ noise() for v in range(n + 1)] for u in range(n + 1)]
        _, lookup, _ = pair_lookup(width, matrix, valid, 6)
        per_cell = sum(matrix[u][v].bit_count() for u in valid for v in valid if u != v)
        assert len(lookup.gates) <= per_cell
        if 2 <= n <= 4 and per_cell:
            assert len(lookup.gates) == _fewest_split_gates(matrix, valid)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_pair_neq_exhaustive(width):
    """In place: ``a`` goes into ``b`` and back, so the block needs no
    scratch and has 2 * width CX gates, the test and the flip."""
    host = Circuit()
    a = host.add_register("a", width)
    b = host.add_register("b", width)
    flag = host.add_register("flag", 1)
    block = build_pair_neq(a, b, flag.qubit(0))
    assert block.qubit_count == host.qubit_count
    assert len(block.gates) == 2 * width + 2
    out, count = run_exhaustive(host, block, 2 * width)
    idx = np.arange(count)
    a_in, b_in = idx & ((1 << width) - 1), idx >> width
    assert (register_values(out, flag, count) == (a_in != b_in)).all()
    assert (register_values(out, a, count) == a_in).all()
    assert (register_values(out, b, count) == b_in).all()


# An operand of width 3, a narrower register and an ancilla one qubit short
# of what the constant gadgets need.
_A = RegisterRef("a", 0, 3)
_NARROW, _SHORT, _FLAG = RegisterRef("n", 6, 2), RegisterRef("anc", 8, 3), 11

# name: (call that must be refused, its whole message as a pattern)
REFUSALS = {
    "constant adder ancilla": (
        lambda: build_add_const(_A, 5, _SHORT),
        r"^constant adder needs width \+ 1 ancilla qubits$",
    ),
    "leq constant range": (
        lambda: build_leq_const(_A, 8, _FLAG, _SHORT),
        r"^comparison constant 8 does not fit 3 bits$",
    ),
    "leq ancilla": (
        lambda: build_leq_const(_A, 4, _FLAG, _SHORT),
        r"^comparator needs width \+ 1 ancilla qubits$",
    ),
    "lt constant range": (
        lambda: build_lt_const(_A, 9, _FLAG, _SHORT),
        r"^comparison constant 9 out of range for 3 bits$",
    ),
    "max constant range": (
        lambda: build_max_with_const(_A, 8, _FLAG, _SHORT),
        r"^constant 8 does not fit 3 bits$",
    ),
    "max ancilla": (
        lambda: build_max_with_const(_A, 5, _FLAG, _SHORT),
        r"^max gadget needs 2 \* width \+ 1 ancilla qubits$",
    ),
    "lt register widths": (
        lambda: build_lt_register(_A, _NARROW, _FLAG, _SHORT),
        r"^comparator operands must have equal widths$",
    ),
    "pair inequality widths": (
        lambda: build_pair_neq(_A, _NARROW, _FLAG),
        r"^pair inequality needs equal widths$",
    ),
    "table past its index": (
        lambda: build_conditional_encoder(_NARROW, [0] * 5, _A),
        r"^table longer than the index register can address$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_name_what_is_wrong(case):
    call, message = REFUSALS[case]
    with pytest.raises(CircuitError, match=message):
        call()


@pytest.mark.parametrize("flags", [1, 2, 4, 8])
def test_and_reduce_exhaustive(flags):
    host = Circuit()
    f = host.add_register("f", flags)
    out = host.add_register("out", 1)
    block = build_and_reduce(list(f.qubits()), out.qubit(0), qubit_count=host.qubit_count)
    res, count = run_exhaustive(host, block, flags)
    expected = np.arange(count) == count - 1  # only the all-ones pattern
    assert (register_values(res, out, count) == expected).all()


def test_and_reduce_rejects_empty():
    with pytest.raises(CircuitError):
        build_and_reduce([], 0)


@pytest.mark.parametrize("width", [2, 3])
def test_register_comparators_exhaustive(width):
    for build, op in ((build_lt_register, np.less), (build_leq_register, np.less_equal)):
        host = Circuit()
        a = host.add_register("a", width)
        b = host.add_register("b", width)
        seed = host.add_register("seed", 1)
        flag = host.add_register("flag", 1)
        block = build(a, b, flag.qubit(0), seed, qubit_count=host.qubit_count)
        out, count = run_exhaustive(host, block, 2 * width)
        idx = np.arange(count)
        a_in, b_in = idx & ((1 << width) - 1), idx >> width
        assert (register_values(out, flag, count) == op(a_in, b_in)).all(), build.__name__
        assert (register_values(out, a, count) == a_in).all()
        assert (register_values(out, b, count) == b_in).all()
        assert (register_values(out, seed, count) == 0).all()


def test_every_builder_mirrors_to_identity():
    """Composing any block with its inverse is the identity on all inputs."""
    host = Circuit()
    a = host.add_register("a", 3)
    b = host.add_register("b", 3)
    anc = host.add_register("anc", 7)
    flag = host.add_register("flag", 1)
    qc = host.qubit_count
    blocks = [
        build_adder(a, b, anc, qubit_count=qc),
        build_add_const(b, 5, anc, qubit_count=qc),
        build_leq_const(a, 4, flag.qubit(0), anc, qubit_count=qc),
        build_max_with_const(a, 6, flag.qubit(0), anc, qubit_count=qc),
        build_pair_neq(a, b, flag.qubit(0), anc, qubit_count=qc),
        build_conditional_encoder(a, [1, 3, 0, 7, 2, 2, 4, 5], b, qubit_count=qc),
    ]
    total_bits = qc
    for block in blocks:
        roundtrip = Circuit(qubit_count=qc, gates=block.gates + inverse(block).gates)
        cols = enumeration_columns(10) + [0] * (total_bits - 10)
        out = eval_basis_batch(roundtrip, cols, 1 << 10)
        assert out[:10] == cols[:10]
        assert all(col == 0 for col in out[10:])
