"""Gate-level IR for reversible circuits with three evaluation backends.

Gates are X, H and MCX with per-control polarities (an MCX with one control
is a CX, with two a Toffoli). The basis-state evaluator handles permutation
circuits (no H) one state at a time; the column evaluator runs the same
circuit over many basis states at once, one big-integer bit column per qubit;
the dense statevector evaluator covers small circuits that do contain H. It
applies every gate in place to one copy of the state: X flips an axis as a
view, MCX swaps two slices and H is an unscaled butterfly over the two halves
of its axis through one half-size scratch buffer, its 1/sqrt(2) factors
applied together every few hundred H gates, so the gates need one state plus
half a state. X, H and MCX have real matrices, so a real input is simulated in
float64 at half the bytes of complex128.

Bit-order convention, binding everywhere in this package: qubit ``start + j``
of a register is bit ``j`` (the least significant) of the integer it encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATEVECTOR_QUBIT_CAP = 26
# Amplitudes per block of the input norm check.
_WEIGHT_BLOCK = 1 << 16
# An H butterfly without its 1/sqrt(2) scale grows the norm by sqrt(2); the
# scale owed is applied after this many H gates, so the norm stays below 2^128
# and far from float64 overflow.
_H_RESCALE_EVERY = 256


class CircuitError(ValueError):
    """Raised for malformed gates, registers, or unsupported evaluation."""


@dataclass(frozen=True)
class Gate:
    kind: str  # "x" | "h" | "mcx"
    target: int
    controls: tuple[tuple[int, bool], ...] = ()


@dataclass(frozen=True)
class RegisterRef:
    """A named contiguous span of qubits inside some circuit."""

    name: str
    start: int
    width: int

    @property
    def stop(self) -> int:
        return self.start + self.width

    def qubit(self, j: int = 0) -> int:
        if not 0 <= j < self.width:
            raise CircuitError(f"bit {j} outside register {self.name!r} of width {self.width}")
        return self.start + j

    def qubits(self) -> range:
        return range(self.start, self.stop)

    def slice(self, offset: int, width: int, name: str = "") -> "RegisterRef":
        if offset < 0 or offset + width > self.width:
            raise CircuitError(f"slice [{offset}, {offset + width}) outside register {self.name!r}")
        return RegisterRef(name or self.name, self.start + offset, width)


@dataclass
class Circuit:
    """An ordered gate list over a fixed qubit array with named registers.

    Circuits are built once and treated as immutable afterwards; the
    evaluators never modify them.
    """

    qubit_count: int = 0
    registers: dict[str, RegisterRef] = field(default_factory=dict)
    gates: list[Gate] = field(default_factory=list)

    def add_register(self, name: str, width: int) -> RegisterRef:
        if width < 1:
            raise CircuitError("register width must be at least 1")
        if name in self.registers:
            raise CircuitError(f"register {name!r} already exists")
        ref = RegisterRef(name, self.qubit_count, width)
        self.registers[name] = ref
        self.qubit_count += width
        return ref

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.qubit_count:
            raise CircuitError(f"qubit {q} outside circuit of {self.qubit_count} qubits")

    def x(self, target: int) -> None:
        self._check_qubit(target)
        self.gates.append(Gate("x", target))

    def h(self, target: int) -> None:
        self._check_qubit(target)
        self.gates.append(Gate("h", target))

    def mcx(self, controls, target: int) -> None:
        ctl = tuple((int(q), bool(p)) for q, p in controls)
        if not ctl:
            raise CircuitError("mcx needs at least one control; use x for none")
        self._check_qubit(target)
        seen = set()
        for q, _ in ctl:
            self._check_qubit(q)
            if q == target or q in seen:
                raise CircuitError("mcx controls must be distinct and differ from the target")
            seen.add(q)
        self.gates.append(Gate("mcx", target, ctl))

    def cx(self, control: int, target: int) -> None:
        self.mcx([(control, True)], target)

    def ccx(self, c1, c2, target: int) -> None:
        """Controls may be ints (positive) or (qubit, polarity) pairs."""
        pair = lambda c: c if isinstance(c, tuple) else (c, True)
        self.mcx([pair(c1), pair(c2)], target)

    def extend(self, block: "Circuit") -> None:
        if block.qubit_count > self.qubit_count:
            raise CircuitError("block references more qubits than the host circuit")
        self.gates.extend(block.gates)

    def dump(self) -> str:
        """Debug text, one gate per line, e.g. ``MCX c+3 c-5 t7``."""
        lines = []
        for g in self.gates:
            if g.kind == "mcx":
                ctl = " ".join(f"c{'+' if p else '-'}{q}" for q, p in g.controls)
                lines.append(f"MCX {ctl} t{g.target}")
            else:
                lines.append(f"{g.kind.upper()} t{g.target}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResourceReport:
    qubit_count: int
    gate_total: int
    x_count: int
    h_count: int
    mcx_by_arity: dict[int, int]

    @property
    def mcx_total(self) -> int:
        return sum(self.mcx_by_arity.values())


def count_resources(c: Circuit) -> ResourceReport:
    """Exact gate tallies; MCX gates are binned by control count, any polarity."""
    x = h = 0
    by_arity: dict[int, int] = {}
    for g in c.gates:
        if g.kind == "x":
            x += 1
        elif g.kind == "h":
            h += 1
        else:
            arity = len(g.controls)
            by_arity[arity] = by_arity.get(arity, 0) + 1
    return ResourceReport(c.qubit_count, len(c.gates), x, h, by_arity)


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order; X, H and MCX are all self-inverse."""
    return Circuit(c.qubit_count, dict(c.registers), list(reversed(c.gates)))


def phase_kickback(marking: Circuit) -> Circuit:
    """Phase-flip form of a marking circuit: X and H put its one-qubit
    ``marked`` register in the |-> state before the marking gates and take it
    back after, so marking becomes a sign flip on the marked basis states."""
    out = marking.registers["marked"].qubit(0)
    c = Circuit(marking.qubit_count, dict(marking.registers))
    c.x(out)
    c.h(out)
    c.extend(marking)
    c.h(out)
    c.x(out)
    return c


# ---------------------------------------------------------------------------
# Basis-state evaluation


def eval_basis_int(c: Circuit, state: int) -> int:
    """Image of one basis state under an H-free circuit; bit i of ``state``
    is qubit i."""
    if state < 0 or state >> c.qubit_count:
        raise CircuitError("state outside the circuit's qubit range")
    for g in c.gates:
        if g.kind == "x":
            state ^= 1 << g.target
        elif g.kind == "mcx":
            for q, pol in g.controls:
                if bool(state & (1 << q)) != pol:
                    break
            else:
                state ^= 1 << g.target
        else:
            raise CircuitError("basis evaluator handles permutation gates only (no H)")
    return state


# ---------------------------------------------------------------------------
# Bit-sliced batch evaluation: one arbitrary-size integer per qubit, where bit
# s of column j is the value of qubit j in the s-th basis state. Gates act on
# all states at once through bitwise big-integer arithmetic.


def enumeration_columns(bit_count: int) -> list[int]:
    """Columns enumerating all ``2**bit_count`` assignments of the given bits.

    Bit s of column j equals bit j of the integer s, so state s carries the
    binary expansion of its own index. Each column repeats a byte pattern
    (2^j clear bits, then 2^j set ones), so it is built in linear time.
    """
    total = 1 << bit_count
    nbytes = (total + 7) // 8
    full = (1 << total) - 1  # trims the one-byte patterns when total < 8
    cols = []
    for j in range(bit_count):
        if j < 3:
            pattern = bytes([(0xAA, 0xCC, 0xF0)[j]])
        else:
            half = 1 << (j - 3)
            pattern = b"\x00" * half + b"\xff" * half
        cols.append(int.from_bytes(pattern * (nbytes // len(pattern)), "little") & full)
    return cols


def columns_from_indices(indices: np.ndarray, bit_count: int) -> list[int]:
    """Columns whose s-th bit is bit j of ``indices[s]``."""
    indices = np.asarray(indices, dtype=np.int64)
    cols = []
    for j in range(bit_count):
        bits = ((indices >> j) & 1).astype(np.uint8)
        cols.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
    return cols


def column_bits(column: int, count: int) -> np.ndarray:
    """Unpack a column into a boolean vector of length ``count``."""
    nbytes = (count + 7) // 8
    raw = np.frombuffer(column.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:count].astype(bool)


def eval_basis_batch(c: Circuit, columns: list[int], count: int) -> list[int]:
    """Run an H-free circuit over ``count`` basis states encoded as bit columns.

    ``columns`` must list one integer per circuit qubit; missing high bits are
    zeros. Returns new columns, inputs untouched.
    """
    if len(columns) != c.qubit_count:
        raise CircuitError("one column per qubit required")
    full = (1 << count) - 1
    cols = list(columns)
    for g in c.gates:
        if g.kind == "x":
            cols[g.target] ^= full
        elif g.kind == "mcx":
            acc = full
            for q, pol in g.controls:
                acc &= cols[q] if pol else cols[q] ^ full
                if not acc:
                    break
            cols[g.target] ^= acc
        else:
            raise CircuitError("basis evaluator handles permutation gates only (no H)")
    return cols


def register_values(columns: list[int], ref: RegisterRef, count: int) -> np.ndarray:
    """Per-state integer value of a register, from bit columns."""
    values = np.zeros(count, dtype=np.int64)
    for j in range(ref.width):
        values |= column_bits(columns[ref.start + j], count).astype(np.int64) << j
    return values


# ---------------------------------------------------------------------------
# Dense statevector evaluation


def check_statevector_size(qubit_count: int) -> None:
    """Refuse a dense state over more than :data:`STATEVECTOR_QUBIT_CAP` qubits."""
    if qubit_count > STATEVECTOR_QUBIT_CAP:
        raise CircuitError(f"statevector evaluation capped at {STATEVECTOR_QUBIT_CAP} qubits, circuit has {qubit_count}")


def _weight(state: np.ndarray) -> float:
    """Sum of |amplitude|^2, taken in blocks so it needs no state-sized
    temporary. Not np.linalg.norm: its BLAS dot wakes OpenBLAS's worker
    threads, which then busy-wait for about 0.1 s and slow whatever this
    process runs next."""
    return sum(float(np.sum(np.abs(state[i : i + _WEIGHT_BLOCK]) ** 2)) for i in range(0, state.size, _WEIGHT_BLOCK))


def _apply_gates(nd: np.ndarray, gates) -> np.ndarray:
    """Apply ``gates`` in place to the ``(2,)*n`` state ``nd``; returns the
    final view (X gates flip axes as views rather than moving amplitudes).

    H is applied as the unscaled butterfly ``(lo + hi, lo - hi)``; its
    1/sqrt(2) factors are collected and applied in one pass every
    :data:`_H_RESCALE_EVERY` H gates and at the end."""
    n = nd.ndim
    scratch = np.empty((2,) * (n - 1), dtype=nd.dtype)

    def axis(q: int) -> int:
        return n - 1 - q  # C-order reshape puts qubit 0 in the last axis

    def halves(sel: list, ax: int) -> tuple[np.ndarray, np.ndarray]:
        # Ellipsis keeps a fully indexed slice a 0-d view rather than a scalar.
        sel[ax] = 0
        lo = nd[tuple(sel) + (Ellipsis,)]
        sel[ax] = 1
        return lo, nd[tuple(sel) + (Ellipsis,)]

    owed = 0  # H gates whose 1/sqrt(2) is not applied yet
    for g in gates:
        if g.kind == "x":
            nd = np.flip(nd, axis=axis(g.target))
        elif g.kind == "h":
            lo, hi = halves([slice(None)] * n, axis(g.target))
            np.add(lo, hi, out=scratch)
            np.subtract(lo, hi, out=hi)
            np.copyto(lo, scratch)
            owed += 1
            if owed == _H_RESCALE_EVERY:
                nd *= 2.0 ** (-owed / 2)
                owed = 0
        else:
            sel: list = [slice(None)] * n
            for q, pol in g.controls:
                sel[axis(q)] = 1 if pol else 0
            lo, hi = halves(sel, axis(g.target))
            buf = scratch.reshape(-1)[: lo.size].reshape(lo.shape)
            np.copyto(buf, lo)
            np.copyto(lo, hi)
            np.copyto(hi, buf)
    if owed:
        nd *= 2.0 ** (-owed / 2)
    return nd


def eval_statevector(c: Circuit, amplitudes: np.ndarray) -> np.ndarray:
    """Apply every gate as its unitary to a dense state of 2**n amplitudes.

    Amplitude index s is the basis state whose qubit i reads bit i of s. The
    caller's array is copied, never modified. Amplitudes are held in
    ``np.result_type(input, float64)``: X, H and MCX have real matrices, so a
    real input stays real and streams half the bytes of a complex one, and a
    complex input stays complex. Gates act in place on the ``(2,)*n`` view of
    that one copy: X flips an axis as a view, MCX swaps two slices and H is a
    butterfly over the two halves of its axis, through one half-size scratch
    buffer allocated per call, with its 1/sqrt(2) scale deferred (see
    :func:`_apply_gates`). Besides the caller's array, the call holds one
    state plus half a state; a final state left flipped by X gates is copied
    out after the scratch buffer is freed.
    """
    n = c.qubit_count
    check_statevector_size(n)
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape != (1 << n,):
        raise CircuitError("amplitude vector length must be 2**qubit_count")
    state = np.array(amplitudes, dtype=np.result_type(amplitudes.dtype, np.float64))
    if abs(np.sqrt(_weight(state)) - 1.0) > 1e-12:
        raise CircuitError("input state is not normalized")
    return _apply_gates(state.reshape((2,) * n), c.gates).reshape(-1)
