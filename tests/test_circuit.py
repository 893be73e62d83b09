"""Circuit IR, evaluators, inversion, and resource counting."""

import random

import numpy as np
import pytest

from cvrptw_gas.circuit import (
    Circuit,
    CircuitError,
    count_resources,
    enumeration_columns,
    eval_basis,
    eval_basis_batch,
    eval_basis_int,
    eval_statevector,
    inverse,
    register_values,
)


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
    assert eval_basis(c, "0110") == "0110"


def test_x_flips_leftmost_convention():
    c = Circuit(qubit_count=4)
    c.x(0)
    assert eval_basis(c, "0000") == "1000"


def test_toffoli_truth_table():
    c = Circuit(qubit_count=3)
    c.ccx(0, 1, 2)
    assert eval_basis(c, "110") == "111"
    assert eval_basis(c, "100") == "100"
    assert eval_basis(c, "111") == "110"


def test_negative_controls():
    c = Circuit(qubit_count=2)
    c.mcx([(0, False)], 1)
    assert eval_basis(c, "00") == "01"
    assert eval_basis(c, "10") == "10"


def test_basis_eval_rejects_h():
    c = Circuit(qubit_count=1)
    c.h(0)
    with pytest.raises(CircuitError, match="permutation"):
        eval_basis(c, "0")


def test_gate_validation():
    c = Circuit(qubit_count=2)
    with pytest.raises(CircuitError):
        c.x(5)
    with pytest.raises(CircuitError):
        c.mcx([(0, True), (0, False)], 1)
    with pytest.raises(CircuitError):
        c.mcx([(1, True)], 1)


def test_inverse_reverses_gates():
    c = Circuit(qubit_count=2)
    c.x(0)
    c.cx(0, 1)
    inv = inverse(c)
    assert [g.kind for g in inv.gates] == ["mcx", "x"]
    assert inverse(inverse(c)).gates == c.gates
    assert inverse(Circuit(qubit_count=1)).gates == []


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
    single = {"x": np.array([[0.0, 1.0], [1.0, 0.0]]), "h": np.array([[1.0, 1.0], [1.0, -1.0]]) * 2**-0.5}
    u = np.eye(1 << n)
    for g in c.gates:
        if g.kind == "mcx":
            m = np.zeros((1 << n, 1 << n))
            for s in range(1 << n):
                fire = all(bool((s >> q) & 1) == pol for q, pol in g.controls)
                m[s ^ (1 << g.target) if fire else s, s] = 1.0
        else:
            m = np.kron(np.kron(np.eye(1 << (n - 1 - g.target)), single[g.kind]), np.eye(1 << g.target))
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
