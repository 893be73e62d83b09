"""Circuit IR, evaluators, inversion, and resource counting."""

import random

import numpy as np
import pytest

from cvrptw_gas.circuit import (
    Circuit,
    CircuitError,
    Gate,
    RegisterRef,
    count_resources,
    enumeration_columns,
    eval_basis_batch,
    eval_basis_int,
    eval_statevector,
    inverse,
    phase_kickback,
    register_values,
)
from cvrptw_gas.grover import synthetic_marking_oracle


def random_permutation_circuit(rng, qubits, gates):
    c = Circuit(qubit_count=qubits)
    for _ in range(gates):
        kind = rng.choice(("x", "mcx", "mcx"))
        target = rng.randrange(qubits)
        if kind == "x":
            c.x(target)
        else:
            arity = rng.randint(1, min(3, qubits - 1))
            pool = [q for q in range(qubits) if q != target]
            controls = [(q, rng.random() < 0.5) for q in rng.sample(pool, arity)]
            c.mcx(controls, target)
    return c


def test_empty_circuit_is_identity():
    c = Circuit(qubit_count=4)
    assert eval_basis_int(c, 0b0110) == 0b0110


def test_x_flips_leftmost_convention():
    """Qubit i is bit i of the state, so qubit 0 is the lowest bit."""
    c = Circuit(qubit_count=4)
    c.x(0)
    assert eval_basis_int(c, 0b0000) == 0b0001


def test_mcx_without_controls_is_x():
    """X is the MCX with no controls: it flips its target on every basis
    state in each evaluator and dumps as ``X t<q>``."""
    c = Circuit(qubit_count=3)
    c.x(1)
    assert c.gates == [Gate("mcx", 1)]
    assert c.dump() == "X t1"
    assert [eval_basis_int(c, s) for s in range(8)] == [s ^ 0b010 for s in range(8)]
    out = eval_basis_batch(c, enumeration_columns(3), 8)
    assert register_values(out, RegisterRef("all", 0, 3), 8).tolist() == [s ^ 0b010 for s in range(8)]
    amps = np.arange(1.0, 9.0) / np.sqrt(204.0)
    assert np.array_equal(eval_statevector(c, amps), amps[[s ^ 0b010 for s in range(8)]])


def test_toffoli_truth_table():
    c = Circuit(qubit_count=3)
    c.ccx(0, 1, 2)
    assert eval_basis_int(c, 0b011) == 0b111
    assert eval_basis_int(c, 0b001) == 0b001
    assert eval_basis_int(c, 0b111) == 0b011


def test_negative_controls():
    c = Circuit(qubit_count=2)
    c.mcx([(0, False)], 1)
    assert eval_basis_int(c, 0b00) == 0b10
    assert eval_basis_int(c, 0b01) == 0b01


def test_basis_eval_rejects_h():
    c = Circuit(qubit_count=1)
    c.h(0)
    with pytest.raises(CircuitError, match="permutation"):
        eval_basis_int(c, 0)


def test_gate_validation():
    """Each refusal names what is wrong; a control is refused whether it is
    repeated or the target itself."""
    c = Circuit(qubit_count=2)
    with pytest.raises(CircuitError, match=r"^qubit 5 outside circuit of 2 qubits$"):
        c.x(5)
    with pytest.raises(CircuitError, match=r"^qubit 5 outside circuit of 2 qubits$"):
        c.mcx([(0, True)], 5)
    with pytest.raises(CircuitError, match=r"^qubit -1 outside circuit of 2 qubits$"):
        c.mcx([(-1, True)], 1)
    distinct = r"^mcx controls must be distinct and differ from the target$"
    with pytest.raises(CircuitError, match=distinct):
        c.mcx([(0, True), (0, False)], 1)
    with pytest.raises(CircuitError, match=distinct):
        c.mcx([(1, True)], 1)
    with pytest.raises(CircuitError, match=r"^mcx needs at least one control; use x for none$"):
        c.mcx([], 1)
    assert c.gates == []


def _repeat_register_name():
    c = Circuit()
    c.add_register("r", 1)
    c.add_register("r", 1)


def _h_circuit():
    c = Circuit(qubit_count=1)
    c.h(0)
    return c


# name: (call that must be refused, its whole message as a pattern)
REFUSALS = {
    "register bit out of range": (lambda: RegisterRef("r", 0, 2).qubit(2), r"^bit 2 outside register 'r' of width 2$"),
    "register slice out of range": (
        lambda: RegisterRef("r", 0, 2).slice(1, 2),
        r"^slice \[1, 3\) outside register 'r'$",
    ),
    "register of width 0": (lambda: Circuit().add_register("r", 0), r"^register width must be at least 1$"),
    "repeated register name": (_repeat_register_name, r"^register 'r' already exists$"),
    "extend with a wider block": (
        lambda: Circuit(qubit_count=2).extend(Circuit(qubit_count=3)),
        r"^block references more qubits than the host circuit$",
    ),
    "basis state past the qubits": (
        lambda: eval_basis_int(Circuit(qubit_count=2), 0b100),
        r"^state outside the circuit's qubit range$",
    ),
    "batch with a missing column": (
        lambda: eval_basis_batch(Circuit(qubit_count=2), [0], 1),
        r"^one column per qubit required$",
    ),
    "batch over an H gate": (
        lambda: eval_basis_batch(_h_circuit(), [0], 1),
        r"^basis evaluator handles permutation gates only \(no H\)$",
    ),
    "statevector of the wrong length": (
        lambda: eval_statevector(Circuit(qubit_count=2), np.full(2, np.sqrt(0.5))),
        r"^amplitude vector length must be 2\*\*qubit_count$",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals_name_what_is_wrong(case):
    call, message = REFUSALS[case]
    with pytest.raises(CircuitError, match=message):
        call()


def test_inverse_reverses_gates():
    c = Circuit(qubit_count=2)
    c.x(0)
    c.cx(0, 1)
    inv = inverse(c)
    assert inv.gates == [Gate("mcx", 1, ((0, True),)), Gate("mcx", 0)]
    assert inverse(inverse(c)).gates == c.gates
    assert inverse(Circuit(qubit_count=1)).gates == []


def test_phase_kickback_wraps_marking_gates():
    """X and H on the marked qubit, the marking gates, then H and X again,
    over the marking circuit's own qubits and registers."""
    marking = synthetic_marking_oracle(3, [5, 6])
    out = marking.registers["marked"].qubit(0)
    assert out == 3
    phase = phase_kickback(marking)
    x, h = Gate("mcx", out), Gate("h", out)
    assert phase.gates == [x, h, *marking.gates, h, x]
    assert phase.qubit_count == marking.qubit_count
    assert phase.registers == marking.registers


def test_inverse_composition_is_identity():
    rng = random.Random(11)
    for _ in range(1000):
        c = random_permutation_circuit(rng, 12, rng.randint(1, 30))
        state = rng.getrandbits(12)
        roundtrip = Circuit(qubit_count=12, gates=c.gates + inverse(c).gates)
        assert eval_basis_int(roundtrip, state) == state


def test_permutation_circuits_are_bijections():
    rng = random.Random(5)
    for qubits in (8, 12, 16):
        c = random_permutation_circuit(rng, qubits, 60)
        n_states = 1 << qubits
        out = eval_basis_batch(c, enumeration_columns(qubits), n_states)
        images = np.zeros(n_states, dtype=np.int64)
        for j in range(qubits):
            from cvrptw_gas.circuit import column_bits

            images |= column_bits(out[j], n_states).astype(np.int64) << j
        assert len(np.unique(images)) == n_states


def test_batch_matches_single_state_eval():
    rng = random.Random(3)
    c = random_permutation_circuit(rng, 10, 40)
    states = [rng.getrandbits(10) for _ in range(50)]
    from cvrptw_gas.circuit import columns_from_indices

    cols = columns_from_indices(np.array(states), 10)
    out = eval_basis_batch(c, cols, len(states))
    for s_i, state in enumerate(states):
        expected = eval_basis_int(c, state)
        got = sum(((out[j] >> s_i) & 1) << j for j in range(10))
        assert got == expected


def assert_batch_matches_scalar(c: Circuit) -> None:
    """The batch evaluator over all 2^n states equals the scalar one on each."""
    n = c.qubit_count
    out = eval_basis_batch(c, enumeration_columns(n), 1 << n)
    got = register_values(out, RegisterRef("all", 0, n), 1 << n)
    assert got.tolist() == [eval_basis_int(c, s) for s in range(1 << n)]


def mcx(target, *controls):
    """An MCX built directly, past the checks of :meth:`Circuit.mcx`."""
    return Gate("mcx", target, tuple(controls))


POS0, POS1, NEG0 = (0, True), (1, True), (0, False)
# Each circuit is wrong under an evaluator that reuses an AND or a complement
# it should have dropped.
REUSE_CASES = {
    "equal controls, not the same tuple": [mcx(2, POS0, POS1), mcx(3, POS0, POS1)],
    "an X on a control ends the run": [mcx(2, POS0, POS1), mcx(0), mcx(3, POS0, POS1)],
    "an X off the controls between equal controls": [mcx(2, POS0, POS1), mcx(3), mcx(3, POS0, POS1)],
    "two X in a row": [mcx(2), mcx(3), mcx(3, POS0)],
    "a target among the next gate's equal controls": [mcx(0, POS0, POS1), mcx(2, POS0, POS1)],
    "a negative control written between two ANDs": [mcx(2, NEG0, POS1), mcx(0, POS1), mcx(3, NEG0, POS1)],
    "a negative control written inside the run": [mcx(2, NEG0, POS1), mcx(0, NEG0, POS1), mcx(3, NEG0, POS1)],
    "no controls": [mcx(2, POS0), mcx(3)],
}


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_batch_reuse_cases(case):
    gates = REUSE_CASES[case]
    assert_batch_matches_scalar(Circuit(qubit_count=4, gates=gates))


def test_batch_matches_scalar_on_shared_controls():
    """Random X/MCX circuits whose MCX gates draw their controls from a
    small pool, in runs, so the batch evaluator keeps reusing ANDs and
    complements. Controls come as the pooled tuple or an equal copy, and a
    gate may target one of its own controls, as only a directly built gate
    can."""
    rng = random.Random(13)
    qubits = 6
    for _ in range(300):
        pool = []
        for _ in range(3):
            chosen = rng.sample(range(qubits), rng.randint(1, 3))
            pool.append(tuple((q, rng.random() < 0.5) for q in chosen))
        gates = []
        while len(gates) < 30:
            if rng.random() < 0.15:
                gates.append(Gate("mcx", rng.randrange(qubits)))
                continue
            controls = rng.choice(pool)
            for _ in range(rng.randint(1, 4)):
                shared = controls if rng.random() < 0.5 else tuple(list(controls))
                gates.append(Gate("mcx", rng.randrange(qubits), shared))
        assert_batch_matches_scalar(Circuit(qubit_count=qubits, gates=gates))


def test_statevector_hadamard():
    c = Circuit(qubit_count=1)
    c.h(0)
    out = eval_statevector(c, np.array([1, 0], dtype=complex))
    assert np.allclose(out, [2**-0.5, 2**-0.5], atol=1e-12)


def test_statevector_x():
    c = Circuit(qubit_count=1)
    c.x(0)
    out = eval_statevector(c, np.array([1, 0], dtype=complex))
    assert np.allclose(out, [0, 1], atol=1e-12)


def test_statevector_h_self_inverse():
    c = Circuit(qubit_count=1)
    c.h(0)
    c.h(0)
    out = eval_statevector(c, np.array([1, 0], dtype=complex))
    assert np.allclose(out, [1, 0], atol=1e-12)


def test_statevector_norm_and_cap_checks():
    c = Circuit(qubit_count=1)
    with pytest.raises(CircuitError, match="normalized"):
        eval_statevector(c, np.array([1, 1], dtype=complex))
    big = Circuit(qubit_count=27)
    with pytest.raises(CircuitError, match="capped at 26 qubits, circuit has 27"):
        eval_statevector(big, np.zeros(2**27, dtype=complex))


def test_statevector_agrees_with_basis_eval():
    rng = random.Random(9)
    for _ in range(20):
        qubits = rng.randint(2, 8)
        c = random_permutation_circuit(rng, qubits, 25)
        state = rng.getrandbits(qubits)
        amps = np.zeros(1 << qubits, dtype=complex)
        amps[state] = 1.0
        out = eval_statevector(c, amps)
        expected = eval_basis_int(c, state)
        assert abs(out[expected] - 1.0) < 1e-12
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_statevector_calls_no_blas(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS routine called")

    for name in ("norm", "multi_dot"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("dot", "vdot", "inner", "matmul", "einsum"):
        monkeypatch.setattr(np, name, refuse)
    c = Circuit(qubit_count=15)
    c.h(0)
    c.cx(0, 14)
    amps = np.zeros(1 << 15, dtype=complex)
    amps[0] = 1.0
    out = eval_statevector(c, amps)
    assert abs(out[0] - 2**-0.5) < 1e-12 and abs(out[(1 << 14) | 1] - 2**-0.5) < 1e-12


def dense_unitary(c: Circuit) -> np.ndarray:
    """The circuit's unitary from np.kron of 2x2 factors and MCX permutation
    matrices; amplitude index s has qubit i in bit i, so the top qubit is the
    leftmost kron factor."""
    n = c.qubit_count
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * 2**-0.5
    u = np.eye(1 << n)
    for g in c.gates:
        if g.kind == "mcx":
            m = np.zeros((1 << n, 1 << n))
            for s in range(1 << n):
                fire = all(bool((s >> q) & 1) == pol for q, pol in g.controls)
                m[s ^ (1 << g.target) if fire else s, s] = 1.0
        else:
            m = np.kron(np.kron(np.eye(1 << (n - 1 - g.target)), hadamard), np.eye(1 << g.target))
        u = m @ u
    return u


def random_gate_circuit(rng, qubits, gates):
    """Random X/H/MCX gates with one H on every qubit at a random place."""
    c = Circuit(qubit_count=qubits)
    kinds = [rng.choice(("x", "h", "mcx") if qubits > 1 else ("x", "h")) for _ in range(gates)]
    slots = [(kind, rng.randrange(qubits)) for kind in kinds]
    for q in range(qubits):
        slots.insert(rng.randrange(len(slots) + 1), ("h", q))
    for kind, target in slots:
        if kind == "x":
            c.x(target)
        elif kind == "h":
            c.h(target)
        else:
            pool = [q for q in range(qubits) if q != target]
            controls = [(q, rng.random() < 0.5) for q in rng.sample(pool, rng.randint(1, len(pool)))]
            c.mcx(controls, target)
    return c


def test_statevector_matches_dense_unitary():
    rng = random.Random(11)
    nprng = np.random.default_rng(11)
    for qubits in range(1, 7):
        for _ in range(6):
            c = random_gate_circuit(rng, qubits, 4 * qubits)
            u = dense_unitary(c)
            real = nprng.normal(size=1 << qubits)
            cplx = real + 1j * nprng.normal(size=1 << qubits)
            for amps, kind in ((real / np.sqrt(np.sum(real**2)), "f"), (cplx / np.sqrt(np.sum(np.abs(cplx) ** 2)), "c")):
                before = amps.copy()
                out = eval_statevector(c, amps)
                assert np.array_equal(amps, before)
                assert out.dtype.kind == kind
                assert np.abs(out - u @ amps).max() < 1e-12


def random_unit(nprng, size, kind):
    amps = nprng.normal(size=size) + (1j * nprng.normal(size=size) if kind == "c" else 0)
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2))


def test_statevector_x_flips_its_axis():
    """X, the MCX with no controls, swaps the two halves of its target's axis:
    on the top, a middle and the bottom qubit it equals np.flip along that
    axis, bit for bit, on real and complex states."""
    nprng = np.random.default_rng(19)
    n = 5
    for kind in "fc":
        amps = random_unit(nprng, 1 << n, kind)
        for q in (0, n // 2, n - 1):
            c = Circuit(qubit_count=n)
            c.x(q)
            want = np.flip(amps.reshape((2,) * n), axis=n - 1 - q).ravel()
            assert np.array_equal(eval_statevector(c, amps), want)


def random_layer_circuit(rng, qubits):
    """Runs of H, each on a range of consecutive qubits or on any subset,
    some broken by a repeated target, each after an odd number of X gates on
    qubits of the run or outside it, with an MCX between runs."""
    c = Circuit(qubit_count=qubits)
    for _ in range(4):
        if rng.random() < 0.5:
            low = rng.randrange(qubits)
            run = list(range(low, rng.randint(low + 1, qubits)))
            rng.shuffle(run)
        else:
            run = rng.sample(range(qubits), rng.randint(1, qubits))
        others = [q for q in range(qubits) if q not in run]
        for _ in range(rng.choice((1, 3))):
            c.x(rng.choice(others if others and rng.random() < 0.5 else run))
        if len(run) > 1 and rng.random() < 0.4:
            cut = rng.randrange(1, len(run))
            run.insert(cut, rng.choice(run[:cut]))
        for q in run:
            c.h(q)
        if qubits > 1:
            target = rng.randrange(qubits)
            pool = [q for q in range(qubits) if q != target]
            c.mcx([(q, rng.random() < 0.5) for q in rng.sample(pool, rng.randint(1, len(pool)))], target)
    return c


def test_statevector_h_layers_match_dense_unitary():
    rng = random.Random(15)
    nprng = np.random.default_rng(15)
    for qubits in range(1, 8):
        for _ in range(8):
            c = random_layer_circuit(rng, qubits)
            u = dense_unitary(c)
            for kind in "fc":
                amps = random_unit(nprng, 1 << qubits, kind)
                assert np.abs(eval_statevector(c, amps) - u @ amps).max() < 1e-12


# Which outer slices (over the qubits above an H run) are zero, lowest first.
ZERO_SLICE_PATTERNS = {
    "top": (1, 0),
    "bottom": (0, 1),
    "top two": (1, 1, 0, 0),
    "bottom three": (0, 0, 0, 1),
    "both ends": (0, 1, 1, 0),
    "both ends, wide": (0, 0, 1, 0, 1, 1, 0, 0),
    "interior": (1, 0, 0, 1),
    "interior, split": (1, 0, 1, 1, 0, 0, 1, 1),
}


@pytest.mark.parametrize("pattern", list(ZERO_SLICE_PATTERNS.values()), ids=list(ZERO_SLICE_PATTERNS))
def test_statevector_h_layer_keeps_zero_slices(pattern):
    """An H run over a state whose outer slices are zero in ``pattern`` (the
    state after the X on the top qubit). Zero slices at either end are
    skipped, so they must come back exactly zero, and every slice between
    them, zero or not, transformed. Before the X the amplitudes sit in the
    other half, so a buffer that held them is not zero where the result
    must be."""
    rng = random.Random(len(pattern) * 31 + sum(pattern))
    nprng = np.random.default_rng(list(pattern))
    outer_bits = len(pattern).bit_length() - 1
    live = np.array(pattern, dtype=bool)
    for qubits in range(outer_bits + 1, 8):
        low_qubits = qubits - outer_bits
        for run in ([0], list(range(low_qubits)), rng.sample(range(low_qubits), rng.randint(1, low_qubits))):
            c = Circuit(qubit_count=qubits)
            c.x(qubits - 1)
            for q in run:
                c.h(q)
            u = dense_unitary(c)
            mask = np.repeat(live, 1 << low_qubits)
            for kind in "fc":
                after_x = random_unit(nprng, 1 << qubits, kind) * mask
                after_x /= np.sqrt(np.sum(np.abs(after_x) ** 2))
                amps = np.roll(after_x, 1 << (qubits - 1))  # X on the top qubit swaps the halves
                out = eval_statevector(c, amps)
                assert np.abs(out - u @ amps).max() < 1e-12
                assert not out[~mask].any()


def test_statevector_h_layers_rescale():
    """1,500 and 1,501 layers of H on 3 qubits: 4,500 unscaled H gates would
    grow the norm to 2^2250, past float64; the deferred scale keeps every
    layer finite and the result exact."""
    nprng = np.random.default_rng(3)
    amps = random_unit(nprng, 8, "f")
    layer = Circuit(qubit_count=3)
    for q in range(3):
        layer.h(q)
    h3 = dense_unitary(layer)
    for layers, expected in ((1500, amps), (1501, h3 @ amps)):
        c = Circuit(qubit_count=3, gates=layer.gates * layers)
        out = eval_statevector(c, amps)
        assert np.isfinite(out).all()
        assert np.abs(out - expected).max() < 1e-12


def test_statevector_long_h_run_stays_finite():
    """H is applied unscaled and its scale settled in batches. 2,001 H gates
    (and 4,001, whose unscaled norm 2^2000 overflows float64) still give
    H|0>."""
    for count in (2001, 4001):
        c = Circuit(qubit_count=1)
        for _ in range(count):
            c.h(0)
        out = eval_statevector(c, np.array([1.0, 0.0]))
        assert np.isfinite(out).all()
        assert np.abs(out - [2**-0.5, 2**-0.5]).max() < 1e-12


def test_statevector_dtype_follows_input():
    c = Circuit(qubit_count=2)
    c.h(0)
    c.cx(0, 1)
    basis = np.array([1, 0, 0, 0])
    assert eval_statevector(c, basis).dtype == np.float64
    assert eval_statevector(c, basis.astype(np.float32)).dtype == np.float64
    assert eval_statevector(c, basis.astype(np.complex64)).dtype == np.complex128


def test_count_resources_empty():
    rep = count_resources(Circuit(qubit_count=3))
    assert rep.gate_total == 0
    assert rep.mcx_by_arity == {}


def test_count_resources_tallies():
    c = Circuit(qubit_count=3)
    c.x(0)
    c.cx(0, 1)
    c.ccx(0, 1, 2)
    rep = count_resources(c)
    assert rep.gate_total == 3
    assert rep.x_count == 1
    assert rep.mcx_by_arity == {1: 1, 2: 1}
    assert rep.x_count + rep.h_count + rep.mcx_total == rep.gate_total


def test_enumeration_columns_match_closed_form():
    """The byte-pattern columns equal the closed form full // (2^(2^j) + 1) << 2^j."""
    for bits in range(15):
        full = (1 << (1 << bits)) - 1
        expected = [(full // ((1 << (1 << j)) + 1)) << (1 << j) for j in range(bits)]
        assert enumeration_columns(bits) == expected, bits


def test_register_values_roundtrip():
    c = Circuit()
    r = c.add_register("v", 4)
    cols = enumeration_columns(4)
    vals = register_values(cols, r, 16)
    assert list(vals) == list(range(16))


def test_dump_format():
    c = Circuit(qubit_count=8)
    c.mcx([(3, True), (5, False)], 7)
    c.x(0)
    assert c.dump().splitlines() == ["MCX c+3 c-5 t7", "X t0"]
