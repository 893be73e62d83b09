"""Gate-level IR for reversible circuits with three evaluation backends.

Gates are H and MCX with per-control polarities: with no controls an MCX
is X, with one a CX, with two a Toffoli. A gate is an immutable named
tuple. The basis-state evaluator handles permutation circuits (no H) one
state at a time; the column evaluator runs the same circuit over many basis
states at once, one big-integer bit column per qubit, in one pass that takes
the AND of a run of consecutive MCX gates with equal controls once; the
dense statevector evaluator covers small circuits that do contain H. It
holds one copy of the state and one spare state-sized buffer: an MCX, X
included, swaps two slices through the spare, and each run of consecutive H
gates on distinct qubits is one unscaled layer, made in passes between the
two buffers that read contiguous halves (a Stockham autosort), its
1/sqrt(2) factors applied together every few hundred H gates. H and MCX
have real matrices, so a real input is simulated in float64 at half the
bytes of complex128.

Bit-order convention, binding everywhere in this package: qubit ``start + j``
of a register is bit ``j`` (the least significant) of the integer it encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

STATEVECTOR_QUBIT_CAP = 26
# Amplitudes per block of the input norm check and of the scan for zero ends.
_WEIGHT_BLOCK = 1 << 16
# An H without its 1/sqrt(2) scale grows the norm by sqrt(2); the scale owed
# is applied once a layer brings it to this many H gates. A layer adds at most
# STATEVECTOR_QUBIT_CAP, so at most 255 + 26 = 281 are owed: the norm stays
# below 2^140.5, far from float64 overflow.
_H_RESCALE_EVERY = 256


class CircuitError(ValueError):
    """Raised for malformed gates, registers, or unsupported evaluation."""


class Gate(NamedTuple):
    kind: str  # "h" | "mcx"; an MCX with no controls is X
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

    def slice(self, offset: int, width: int) -> "RegisterRef":
        if offset < 0 or offset + width > self.width:
            raise CircuitError(f"slice [{offset}, {offset + width}) outside register {self.name!r}")
        return RegisterRef(self.name, self.start + offset, width)


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
        self.gates.append(Gate("mcx", target))

    def h(self, target: int) -> None:
        self._check_qubit(target)
        self.gates.append(Gate("h", target))

    def mcx(self, controls, target: int) -> None:
        self.gates.append(Gate("mcx", target, self.checked_controls(controls, (target,))))

    def checked_controls(self, controls, targets) -> tuple[tuple[int, bool], ...]:
        """``controls`` as a tuple of ``(qubit, polarity)`` pairs, checked in
        one pass for an MCX on each of ``targets``: refused when empty, outside
        the circuit, repeated or among the targets. Polarities take no part in
        the check, so one call covers every gate of a fan-out over the same
        control qubits."""
        n = self.qubit_count
        for t in targets:
            self._check_qubit(t)
        seen = set(targets)
        ctl = []
        for q, p in controls:
            q = int(q)
            if not 0 <= q < n:
                raise CircuitError(f"qubit {q} outside circuit of {n} qubits")
            if q in seen:
                raise CircuitError("mcx controls must be distinct and differ from the target")
            seen.add(q)
            ctl.append((q, bool(p)))
        if not ctl:
            raise CircuitError("mcx needs at least one control; use x for none")
        return tuple(ctl)

    def cx(self, control: int, target: int) -> None:
        self.mcx([(control, True)], target)

    def ccx(self, c1, c2, target: int) -> None:
        """Controls may be ints (positive) or (qubit, polarity) pairs."""
        pair = lambda c: c if isinstance(c, tuple) else (c, True)
        self.mcx([pair(c1), pair(c2)], target)

    def extend(self, block: "Circuit") -> None:
        """Append a block's gates; the block may be narrower than this circuit."""
        if block.qubit_count > self.qubit_count:
            raise CircuitError("block references more qubits than the host circuit")
        self.gates.extend(block.gates)

    def dump(self) -> str:
        """Debug text, one gate per line, e.g. ``MCX c+3 c-5 t7`` or ``X t7``."""
        lines = []
        for kind, target, controls in self.gates:
            name = "H" if kind == "h" else "MCX" if controls else "X"
            ctl = "".join(f"c{'+' if p else '-'}{q} " for q, p in controls)
            lines.append(f"{name} {ctl}t{target}")
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
    """Exact gate tallies; MCX gates are binned by control count, any polarity,
    except those with no controls, which are X and counted as ``x_count``."""
    h = 0
    by_arity: dict[int, int] = {}
    for g in c.gates:
        if g.kind == "h":
            h += 1
        else:
            arity = len(g.controls)
            by_arity[arity] = by_arity.get(arity, 0) + 1
    return ResourceReport(c.qubit_count, len(c.gates), by_arity.pop(0, 0), h, by_arity)


def inverse(c: Circuit) -> Circuit:
    """Reverse the gate order; H and MCX are both self-inverse."""
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
    for kind, target, controls in c.gates:
        if kind != "mcx":
            raise CircuitError("basis evaluator handles permutation gates only (no H)")
        for q, pol in controls:
            if bool(state & (1 << q)) != pol:
                break
        else:
            state ^= 1 << target
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

    One pass over the gates, with two savings that keep the result that of
    :func:`eval_basis_int` on every state:

    * an MCX whose controls equal those of the MCX before it (the same tuple
      object, or an equal one) reuses that gate's AND, unless a target
      written since the AND was taken is one of those controls (a
      :class:`Gate` built directly may target its own controls). An X has
      no controls, so it ends a run of controlled gates;
    * the complement of a column read through a negative control is kept
      until its qubit is written.

    An AND of zero flips nothing and is not XORed in. The table encoders
    write one MCX per set bit of an entry, all sharing one controls tuple, so
    runs are common: the 7,755 controlled gates of the benchmark's windowed
    six-customer oracle at k=208 take 4,503 ANDs.
    """
    if len(columns) != c.qubit_count:
        raise CircuitError("one column per qubit required")
    full = (1 << count) - 1
    cols = list(columns)
    flipped: dict[int, int] = {}  # qubit -> complement of its column
    run = None  # controls of the last MCX, whose AND ``acc`` holds
    run_qubits: set[int] | None = None  # their qubits, gathered on the first reuse
    acc = last_target = 0
    for kind, target, controls in c.gates:
        if kind != "mcx":
            raise CircuitError("basis evaluator handles permutation gates only (no H)")
        if controls is run or controls == run:
            if run_qubits is None:
                run_qubits = {q for q, _ in run}
            fresh = last_target in run_qubits  # the last MCX wrote one of the controls
        else:
            run, run_qubits, fresh = controls, None, True
        if fresh:
            acc = full  # an MCX without controls always fires
            for i, (q, pol) in enumerate(controls):
                if pol:
                    col = cols[q]
                else:
                    col = flipped.get(q)
                    if col is None:
                        col = flipped[q] = cols[q] ^ full
                acc = col if i == 0 else acc & col
                if not acc:
                    break
        last_target = target
        if acc:
            cols[target] ^= acc
            flipped.pop(target, None)
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


def _live_range(state: np.ndarray) -> tuple[int, int]:
    """Flat indices ``[first, last)`` spanning every nonzero amplitude of a
    flat state, ``(0, 0)`` if there is none. Blocks are read from each end
    until one holds a nonzero, so a zero head or tail costs one read and a
    nonzero end one block."""
    starts = range(0, state.size, _WEIGHT_BLOCK)
    head = next((s for s in starts if state[s : s + _WEIGHT_BLOCK].any()), None)
    if head is None:
        return 0, 0
    tail = next(s for s in reversed(starts) if state[s : s + _WEIGHT_BLOCK].any())
    first = head + int(np.argmax(state[head : head + _WEIGHT_BLOCK] != 0))
    block = state[tail : tail + _WEIGHT_BLOCK]
    return first, tail + block.size - int(np.argmax(block[::-1] != 0))


def _hadamard_span(state: np.ndarray, spare: np.ndarray, low: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled H on qubits ``[low, low + width)`` of the flat ``state``, in
    ``width`` passes between it and the equally sized ``spare``; returns
    ``(state, spare)`` with the result in the first.

    Amplitude ``s`` splits into (outer, span, inner) bits, ``2**low`` inner
    amplitudes per span value. Each pass reads the two contiguous halves of
    the span's top qubit and writes their sum and difference interleaved,
    which moves that qubit to the bottom of the span (Stockham's autosort):
    after ``width`` passes every qubit of the span is transformed once and
    back in place. Outer slices before the first and after the last nonzero
    amplitude are zero and H maps zero to zero, so they are skipped and
    zeroed once in ``spare``; the passes then leave them zero in both
    buffers."""
    inner = 1 << low
    outer = state.size >> (low + width)
    half = 1 << (width - 1)
    first, last = _live_range(state)
    first //= inner << width
    last = -(-last // (inner << width))
    rows = spare.reshape(outer, -1)
    rows[:first] = 0
    rows[last:] = 0
    for _ in range(width):
        src = state.reshape(outer, 2, half, inner)[first:last]
        dst = spare.reshape(outer, half, 2, inner)[first:last]
        np.add(src[:, 0], src[:, 1], out=dst[:, :, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, :, 1])
        state, spare = spare, state
    return state, spare


def _steps(gates):
    """Each MCX gate alone, and each maximal run of consecutive H gates
    on distinct qubits as the list of its targets; a repeated target starts
    a new run."""
    run: list[int] = []
    for g in gates:
        if g.kind == "h" and g.target not in run:
            run.append(g.target)
            continue
        if run:
            yield run
            run = []
        if g.kind == "h":
            run.append(g.target)
        else:
            yield g
    if run:
        yield run


def _apply_gates(state: np.ndarray, n: int, gates) -> np.ndarray:
    """Apply ``gates`` to the flat state of ``n`` qubits; returns the final
    state, in ``state`` or in the one state-sized spare buffer this
    allocates. Both stay C-contiguous throughout.

    An MCX swaps two slices of the ``(2,)*n`` view through the spare buffer;
    with no controls (X) the slices are the two halves of the target's axis.
    Each run of consecutive H gates on distinct qubits is one layer: its
    qubits split into blocks of consecutive qubits, each transformed by
    :func:`_hadamard_span`. H is applied unscaled; its 1/sqrt(2) factors are
    collected and applied in one pass once :data:`_H_RESCALE_EVERY` are
    owed, and at the end."""
    shape = (2,) * n
    spare = np.empty_like(state)

    def axis(q: int) -> int:
        return n - 1 - q  # C-order reshape puts qubit 0 in the last axis

    owed = 0  # H gates whose 1/sqrt(2) is not applied yet
    for step in _steps(gates):
        if isinstance(step, list):
            qubits = sorted(step)
            low = qubits[0]
            for prev, q in zip(qubits, qubits[1:] + [None]):
                if q != prev + 1:
                    state, spare = _hadamard_span(state, spare, low, prev + 1 - low)
                    low = q
            owed += len(step)
            if owed >= _H_RESCALE_EVERY:
                state *= 2.0 ** (-owed / 2)
                owed = 0
            continue
        nd = state.reshape(shape)
        # Ellipsis keeps a fully indexed slice a 0-d view rather than a scalar.
        sel: list = [slice(None)] * n + [Ellipsis]
        for q, pol in step.controls:
            sel[axis(q)] = 1 if pol else 0
        sel[axis(step.target)] = 0
        lo = nd[tuple(sel)]
        sel[axis(step.target)] = 1
        hi = nd[tuple(sel)]
        buf = spare[: lo.size].reshape(lo.shape)
        np.copyto(buf, lo)
        np.copyto(lo, hi)
        np.copyto(hi, buf)
    if owed:
        state *= 2.0 ** (-owed / 2)
    return state


def eval_statevector(c: Circuit, amplitudes: np.ndarray) -> np.ndarray:
    """Apply every gate as its unitary to a dense state of 2**n amplitudes.

    Amplitude index s is the basis state whose qubit i reads bit i of s. The
    caller's array is copied, never modified. Amplitudes are held in
    ``np.result_type(input, float64)``: H and MCX have real matrices, so a
    real input stays real and streams half the bytes of a complex one, and a
    complex input stays complex. The gates act on that copy and one spare
    buffer of the same size, allocated per call: an MCX, X included, swaps
    two slices through the spare, and each run of H gates is one layer of
    passes between the two buffers, with its 1/sqrt(2) scale deferred (see
    :func:`_apply_gates`). Besides the caller's array, the call holds two
    states; the result is one of them.
    """
    n = c.qubit_count
    check_statevector_size(n)
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape != (1 << n,):
        raise CircuitError("amplitude vector length must be 2**qubit_count")
    state = np.array(amplitudes, dtype=np.result_type(amplitudes.dtype, np.float64))
    if abs(np.sqrt(_weight(state)) - 1.0) > 1e-12:
        raise CircuitError("input state is not normalized")
    return _apply_gates(state, n, c.gates)
