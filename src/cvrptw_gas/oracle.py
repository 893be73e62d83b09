"""The full marking oracle: an explicit reversible circuit that flags tour/split
assignments which are valid, feasible, and strictly cheaper than a threshold.

The compute phase builds, over a fixed register layout, the tour-validity
network, the load chain, the clock chain, and the cost accumulator; a single
multi-controlled X folds every flag into the output qubit; a mirrored copy of
the compute phase then returns all working registers to zero. Only the
decision registers (tour positions and split bits) and the output qubit
survive. :func:`cvrptw_gas.circuit.phase_kickback` turns the marking oracle
into its phase-flip form.

The decision block is the tour position registers plus just n split bits.
The load, clock and cost chains share one scratch pool, and nothing else
uses it: each chained addition writes its value into the low pool bits,
ripple-adds them into the target register with the next pool qubit as the
carry seed, and clears the pool by writing the value again. The pool is one
qubit wider than the widest load, clock or cost register. The uniqueness
chain needs no scratch: each pair flag XORs one tour code into the other
and back, so it reads and restores the tour registers themselves.

Two bookkeeping details go beyond the obvious translation of the recurrences:

* Each chained load or clock adder writes its carry into an overflow flag,
  and the final AND requires every one clear (negative controls). Each load
  register holds the load plus ``2^w - 1 - c_max``, so the load flags are
  the capacity check. A clock can pass its register's checked maximum
  before a window check catches it; feasible assignments set no flag.
* Each clock holds the arrival: no opening is past its close, so the
  arrival alone decides the window check. The departure, the base of the
  next arrival, is written out of place into the next clock, which is still
  zero (Bennett's compute-copy-uncompute), so no overwritten value is kept.

The layout allocates no register that the chains leave unused. Vacuous
windows (:attr:`~cvrptw_gas.instance.Instance.windows_vacuous`) cannot reject
a route, so they allocate no clock, wait-flag, window-flag or clock-overflow
register, and the time chain is empty. The cost register is as wide as the
largest value the accumulator can reach
(:func:`~cvrptw_gas.resources.cost_register_bound`).

The compute phase is kept small by rewrites that leave the mark of every
input unchanged, and the layout with it:

* the window close becomes the opening in the pool through one encoder of
  their XOR;
* the first cost leg is XORed into the still-zero cost register, and at each
  later position the return and the direct leg leaving the previous customer
  share one pool value and one adder, since exactly one of them applies;
* each cost adder, and the final ``cost < k`` comparator, runs only over the
  bits of the running bound on the cost;
* each adder is given the bits its pool value can hold, read off the
  gates that write the value into the clean pool, and emits no MAJ/UMA
  gate whose controls cannot all be 1;
* each pair lookup (a travel time or a direct leg) writes ``S[P_{i-1}]``,
  ``S[P_i]`` and a residual over distinct pairs
  (:func:`~cvrptw_gas.qarith.build_pair_matrix_encoder`).

One invariant governs the capacity, time and cost chains. The mark gate
has ``valid_tour`` as a positive control, no chain after the uniqueness
chain writes its registers, and :func:`build_oracle` is compute, then mark,
then the inverse of compute, which clears every work register whatever the
compute phase wrote. So those chains need to be exact only on well-formed
tours, whose codes are a permutation of 1..n: on any other tour their
registers may hold anything and the mark stays 0. They read no uniqueness
flag, and their order does not matter.

``mark_predicate`` is the pure classical twin of the circuit and is kept
structurally independent of both the circuit and the other classical
references. ``equivalence_scan`` checks the circuit against
:func:`cvrptw_gas.grover.reference_marks`, which runs the feasible-table
sweep on the well-formed assignments of each chunk of states; that reference
is itself tested index by index against ``mark_predicate``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Circuit,
    RegisterRef,
    column_bits,
    columns_from_indices,
    enumeration_columns,
    eval_basis_batch,
    inverse,
)
from .grover import check_sweep_range, reference_marks, search_space
from .instance import Instance, bits_for, pack_assignment, unpack_assignment  # noqa: F401 - bench/ reads them from oracle
from .qarith import (
    build_adder,
    build_and_reduce,
    build_conditional_encoder,
    build_leq_register,
    build_lt_const,
    build_lt_register,
    build_pair_matrix_encoder,
    build_pair_neq,
)
from .resources import RegisterWidths, register_widths

EXHAUSTIVE_SCAN_CAP_BITS = 26
# States per circuit run in a scan; an exhaustive scan holds qubits x 8 KB of
# columns at a time. The example's exhaustive scan at k=182 took 3.7 s in
# chunks of 2^16 or 2^17 states and 5.1 s in 2^15 (medians of 5 interleaved
# runs, 2-vCPU VM), so 2^16 is as fast as 2^17 with half the columns.
_SCAN_CHUNK_BITS = 16


class LayoutError(ValueError):
    """A threshold the layout cannot take: a negative one."""


@dataclass(frozen=True)
class OracleLayout:
    """Deterministic qubit assignment for one instance and threshold.

    The decision block (tour positions, then split bits) always starts at
    qubit 0, so assignment index bit j is decision qubit j.
    """

    inst: Instance
    k: int
    widths: RegisterWidths
    qubit_count: int
    tour: tuple[RegisterRef, ...]
    split: RegisterRef
    in_range: RegisterRef
    distinct: RegisterRef | None
    valid_tour: int
    load: tuple[RegisterRef, ...]
    load_overflow: RegisterRef | None
    # The four time registers are () or None when the windows are vacuous.
    clock: tuple[RegisterRef, ...]
    waited: RegisterRef | None
    time_ok: RegisterRef | None
    clock_overflow: RegisterRef | None
    cost: RegisterRef
    cost_ok: int
    marked: int
    pool: RegisterRef
    registers: dict[str, RegisterRef]

    def empty_circuit(self) -> Circuit:
        return Circuit(self.qubit_count, dict(self.registers))


def build_layout(inst: Instance, k: int) -> OracleLayout:
    """Allocate every register the chains use; same instance and threshold
    give identical indices. Vacuous windows allocate no time register, and
    n = 1 no load, pair, overflow or wait register. Raises
    :class:`LayoutError` for a negative threshold."""
    if k < 0:
        raise LayoutError("threshold must be nonnegative")
    n = inst.n
    widths = register_widths(inst)
    timed = not inst.windows_vacuous

    alloc = Circuit()
    reg = alloc.add_register

    def per_position(prefix: str, width: int) -> tuple[RegisterRef, ...]:
        return tuple(reg(f"{prefix}{i}", width) for i in range(1, n + 1))

    # Keyword arguments are evaluated left to right, so the registers take
    # their qubits in the order they are listed here; qubit_count comes last.
    return OracleLayout(
        inst=inst,
        k=k,
        widths=widths,
        tour=per_position("pos", widths.b_node),
        split=reg("split", n),
        in_range=reg("in_range", n),
        distinct=reg("distinct", n * (n - 1) // 2) if n > 1 else None,
        valid_tour=reg("valid_tour", 1).qubit(0),
        load=per_position("load", widths.w_cap) if widths.w_cap else (),
        load_overflow=reg("load_overflow", n - 1) if n > 1 else None,
        clock=per_position("clock", widths.w_time) if timed else (),
        waited=reg("waited", n - 1) if timed and n > 1 else None,
        time_ok=reg("time_ok", n) if timed else None,
        clock_overflow=reg("clock_overflow", n - 1) if timed and n > 1 else None,
        cost=reg("cost", widths.w_cost),
        cost_ok=reg("cost_ok", 1).qubit(0),
        marked=reg("marked", 1).qubit(0),
        pool=reg("pool", max(widths.w_cap, widths.w_time, widths.w_cost) + 1),
        registers=alloc.registers,
        qubit_count=alloc.qubit_count,
    )


def _customer_table(layout: OracleLayout, value) -> list[int]:
    """Encoder table over raw position-register values: 0 for the depot code
    and for out-of-range codes, the customer's value otherwise."""
    table = [0] * (1 << layout.widths.b_node)
    for v in layout.inst.customers:
        table[v] = value(v)
    return table


def _add_through_pool(
    c: Circuit,
    layout: OracleLayout,
    value: Circuit,
    target: RegisterRef,
    carry_out: int | None = None,
) -> None:
    """``target += value`` through the shared pool: ``value`` XORs a number
    into the low ``target.width`` pool bits, the ripple-carry adder adds
    them with the next pool qubit as its carry seed, and ``value`` runs
    again to clear the pool (XOR writes are their own inverse). The pool is
    clean before ``value`` runs, so the addend can set only the pool bits
    some gate of ``value`` targets: those are the adder's mask, and a write
    above the target's width is refused."""
    w = target.width
    pool = layout.pool
    written = {gate.target for gate in value.gates}
    bits = sum(1 << j for j, q in enumerate(pool.qubits()) if q in written)
    c.extend(value)
    c.extend(build_adder(pool.slice(0, w), target, pool.slice(w, 1), addend_bits=bits, carry_out=carry_out))
    c.extend(value)


def build_uniqueness(layout: OracleLayout) -> Circuit:
    """Range flags for every position, inequality flags for every pair, and
    their conjunction in the tour-validity qubit."""
    inst = layout.inst
    n = inst.n
    c = layout.empty_circuit()
    valid_code = _customer_table(layout, lambda v: 1)
    for i in range(n):
        c.extend(build_conditional_encoder(layout.tour[i], valid_code, layout.in_range.slice(i, 1)))
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            c.extend(build_pair_neq(layout.tour[i], layout.tour[j], layout.distinct.qubit(idx)))
            idx += 1
    flags = list(layout.in_range.qubits())
    if layout.distinct is not None:
        flags.extend(layout.distinct.qubits())
    c.extend(build_and_reduce(flags, layout.valid_tour))
    return c


def build_capacity_chain(layout: OracleLayout) -> Circuit:
    """Per position: encode the demand, plus the offset ``2^w - 1 - c_max``
    at the first; then add the previous load if the previous split bit is
    clear, else the offset, with the adder's carry into an overflow flag.
    So each load register holds the route's load plus the offset, and no
    demand passes the capacity: the carry is set exactly when the load
    passes it, on a route whose earlier positions fit."""
    inst = layout.inst
    w = layout.widths.w_cap
    offset = (1 << w) - 1 - inst.c_max
    c = layout.empty_circuit()
    for i, load in enumerate(layout.load):
        demand = _customer_table(layout, lambda v: inst.q[v] + (0 if i else offset))
        c.extend(build_conditional_encoder(layout.tour[i], demand, load))
        if i > 0:
            split = layout.split.qubit(i - 1)
            previous = layout.empty_circuit()
            for j in range(w):
                previous.ccx((split, False), (layout.load[i - 1].qubit(j), True), layout.pool.qubit(j))
                if offset >> j & 1:
                    previous.cx(split, layout.pool.qubit(j))
            _add_through_pool(c, layout, previous, load, layout.load_overflow.qubit(i - 1))
    return c


def build_time_chain(layout: OracleLayout) -> Circuit:
    """Per position: flag ``arrival <= window close`` and, before the last
    position, flag ``arrival < window opening`` and write the next arrival:
    the depot leg on a fresh route, else the departure plus the leg time.

    The departure goes out of place into the next clock, still zero: copy
    the arrival, then swap it for the opening where the route waited. The
    pool goes from the close to the opening through one encoder of their
    XOR. When the windows are vacuous (:attr:`Instance.windows_vacuous`),
    no route can wait, pass a close or wrap the clock, so the layout has no
    time register and the chain is empty.
    """
    inst = layout.inst
    n = inst.n
    w = layout.widths.w_time
    c = layout.empty_circuit()
    if layout.time_ok is None:
        return c
    from_depot = _customer_table(layout, lambda v: inst.T[0][v])
    opening = _customer_table(layout, lambda v: inst.windows[v][0])
    closing = _customer_table(layout, lambda v: inst.windows[v][1])
    close_to_open = [a ^ b for a, b in zip(opening, closing)]
    window = layout.pool.slice(0, w)
    seed = layout.pool.slice(w, 1)
    c.extend(build_conditional_encoder(layout.tour[0], from_depot, layout.clock[0]))
    for i in range(n):
        arrival = layout.clock[i]
        c.extend(build_conditional_encoder(layout.tour[i], closing, window))
        c.extend(build_leq_register(arrival, window, layout.time_ok.qubit(i), seed))
        if i == n - 1:
            c.extend(build_conditional_encoder(layout.tour[i], closing, window))
            break
        waited = layout.waited.qubit(i)
        c.extend(build_conditional_encoder(layout.tour[i], close_to_open, window))
        c.extend(build_lt_register(arrival, window, waited, seed))
        restart = (layout.split.qubit(i), True)
        carry_on = (layout.split.qubit(i), False)
        nxt = layout.clock[i + 1]
        c.extend(build_conditional_encoder(layout.tour[i + 1], from_depot, nxt, controls=[restart]))
        for j in range(w):
            c.ccx(carry_on, (arrival.qubit(j), True), nxt.qubit(j))
        # Carried on after a wait: the departure is the opening, not the arrival.
        swap = seed.qubit(0)
        c.ccx(carry_on, (waited, True), swap)
        for j in range(w):
            c.ccx(swap, arrival.qubit(j), nxt.qubit(j))
            c.ccx(swap, window.qubit(j), nxt.qubit(j))
        c.ccx(carry_on, (waited, True), swap)
        c.extend(build_conditional_encoder(layout.tour[i], opening, window))
        leg = build_pair_matrix_encoder(
            layout.tour[i],
            layout.tour[i + 1],
            inst.T,
            inst.customers,
            window,
            controls=[carry_on],
        )
        _add_through_pool(c, layout, leg, nxt, layout.clock_overflow.qubit(i))
    return c


def build_exit_leg_encoder(layout: OracleLayout, i: int, out: RegisterRef) -> Circuit:
    """``out ^=`` the leg that leaves position ``i - 1`` (``i >= 1``): the
    return ``D[P_{i-1}][0]`` when split bit ``i - 1`` is set, else the direct
    leg ``D[P_{i-1}][P_i]``. The two encoders have opposite split controls,
    so exactly one of them writes."""
    inst = layout.inst
    restart = (layout.split.qubit(i - 1), True)
    carry_on = (layout.split.qubit(i - 1), False)
    back_home = _customer_table(layout, lambda v: inst.D[v][0])
    c = layout.empty_circuit()
    c.extend(build_conditional_encoder(layout.tour[i - 1], back_home, out, controls=[restart]))
    c.extend(
        build_pair_matrix_encoder(
            layout.tour[i - 1],
            layout.tour[i],
            inst.D,
            inst.customers,
            out,
            controls=[carry_on],
        )
    )
    return c


def build_cost_accumulator(layout: OracleLayout) -> Circuit:
    """Accumulate the objective legs into the cost register and flag
    ``cost < k``.

    The register is zero before the first leg, so ``D[0][P_1]`` is XORed
    straight into it. Each later position adds two pool values: the leg
    leaving the previous customer (:func:`build_exit_leg_encoder`) and, on a
    fresh route, the leg out of the depot; the return of the last customer
    closes the tour. Every adder runs over just the bits of its running
    bound, the sum of the maxima of the tables added so far, and the next
    pool qubit seeds the carry; the comparator reads the same bits. No
    well-formed tour exceeds that bound. A malformed one may wrap inside an
    adder's bits, but no gate writes above them. The last bound is
    :func:`~cvrptw_gas.resources.cost_register_bound`, which sizes the
    register, so the last adder and the comparator run over all of it.
    """
    inst = layout.inst
    n = inst.n
    w = layout.widths.w_cost
    c = layout.empty_circuit()
    value = layout.pool.slice(0, w)
    to_first = _customer_table(layout, lambda v: inst.D[0][v])
    back_home = _customer_table(layout, lambda v: inst.D[v][0])
    direct = [inst.D[u][v] for u in inst.customers for v in inst.customers if u != v]
    c.extend(build_conditional_encoder(layout.tour[0], to_first, layout.cost))
    bound = max(to_first)

    def add_encoded(encoder: Circuit, entries: list[int]) -> None:
        nonlocal bound
        bound += max(entries)
        _add_through_pool(c, layout, encoder, layout.cost.slice(0, bits_for(bound)))

    for i in range(1, n):
        restart = (layout.split.qubit(i - 1), True)
        add_encoded(build_exit_leg_encoder(layout, i, value), back_home + direct)
        add_encoded(build_conditional_encoder(layout.tour[i], to_first, value, controls=[restart]), to_first)
    add_encoded(build_conditional_encoder(layout.tour[n - 1], back_home, value), back_home)
    # The cost never passes the bound, so the comparator reads only its
    # bits; a threshold above them marks every cost.
    cost = layout.cost.slice(0, bits_for(bound))
    k_eff = min(layout.k, 1 << cost.width)
    c.extend(build_lt_const(cost, k_eff, layout.cost_ok, layout.pool.slice(0, cost.width + 1)))
    return c


def _mark_controls(layout: OracleLayout) -> list[tuple[int, bool]]:
    n = layout.inst.n
    controls: list[tuple[int, bool]] = [(layout.valid_tour, True)]
    controls.append((layout.split.qubit(n - 1), True))  # last split bit must close the tour
    if layout.time_ok is not None:
        controls.extend((layout.time_ok.qubit(i), True) for i in range(n))
    controls.append((layout.cost_ok, True))
    if layout.load_overflow is not None:
        controls.extend((q, False) for q in layout.load_overflow.qubits())
    if layout.clock_overflow is not None:
        controls.extend((q, False) for q in layout.clock_overflow.qubits())
    return controls


def build_oracle(inst: Instance, k: int) -> Circuit:
    """Compute every constraint flag, AND them into the output qubit, then
    mirror the computation so only the decision registers and the output
    change."""
    layout = build_layout(inst, k)
    compute = layout.empty_circuit()
    compute.extend(build_uniqueness(layout))
    compute.extend(build_capacity_chain(layout))
    compute.extend(build_time_chain(layout))
    compute.extend(build_cost_accumulator(layout))

    full = layout.empty_circuit()
    full.extend(compute)
    full.mcx(_mark_controls(layout), layout.marked)
    full.extend(inverse(compute))
    return full


# ---------------------------------------------------------------------------
# Classical twin


@dataclass(frozen=True)
class MarkResult:
    """Outcome of the oracle predicate on one raw decision assignment."""

    marked: bool
    cost: int | None
    failure: str | None  # "range" | "uniqueness" | "capacity" | "time" | "threshold"


def mark_predicate(inst: Instance, k, P, y) -> MarkResult:
    """Ground-truth twin of :func:`build_oracle`.

    Takes raw register decodings: tour entries may be any codes the position
    registers can hold. Invalid codes, repeats, a clear final split bit,
    overloads, missed windows, and costs at or above the threshold all leave
    the assignment unmarked, in that order of reporting.
    """
    n = inst.n
    P = list(P)
    y = list(y)
    if len(P) != n or len(y) != n:
        raise ValueError("assignment must have n tour entries and n split bits")
    if y[n - 1] != 1 or any(not 1 <= v <= n for v in P):
        return MarkResult(False, None, "range")
    if len(set(P)) != n:
        return MarkResult(False, None, "uniqueness")
    load = 0
    clock = 0
    for i in range(n):
        node = P[i]
        fresh = i == 0 or y[i - 1] == 1
        load = inst.q[node] + (0 if fresh else load)
        if load > inst.c_max:
            return MarkResult(False, None, "capacity")
        arrive = inst.T[0][node] if fresh else clock + inst.T[P[i - 1]][node]
        open_at, close_at = inst.windows[node]
        clock = max(open_at, arrive)
        if clock > close_at:
            return MarkResult(False, None, "time")
    total = inst.D[0][P[0]]
    for i in range(1, n):
        total += inst.D[P[i - 1]][0] + inst.D[0][P[i]] if y[i - 1] else inst.D[P[i - 1]][P[i]]
    total += inst.D[P[n - 1]][0]
    if not total < k:
        return MarkResult(False, total, "threshold")
    return MarkResult(True, total, None)


# ---------------------------------------------------------------------------
# Circuit-vs-reference verification


@dataclass(frozen=True)
class ScanReport:
    assignments_checked: int
    mismatches: int
    dirty_ancillas: int
    decision_changed: int

    @property
    def clean(self) -> bool:
        return self.mismatches == 0 and self.dirty_ancillas == 0 and self.decision_changed == 0


def _scan_chunks(bits: int, indices):
    """(indices, decision columns) per circuit run, at most 2^_SCAN_CHUNK_BITS
    states each. An exhaustive scan (``indices`` None) enumerates the low
    decision bits once; the high ones are constant within a chunk."""
    size = 1 << _SCAN_CHUNK_BITS
    if indices is not None:
        for start in range(0, len(indices), size):
            chunk = indices[start : start + size]
            yield chunk, columns_from_indices(chunk, bits)
        return
    low = min(bits, _SCAN_CHUNK_BITS)
    low_cols = enumeration_columns(low)
    count = 1 << low
    full = (1 << count) - 1
    for high in range(1 << (bits - low)):
        high_cols = [full if (high >> j) & 1 else 0 for j in range(bits - low)]
        yield (high << low) + np.arange(count, dtype=np.int64), low_cols + high_cols


def equivalence_scan(inst: Instance, k: int, indices=None) -> ScanReport:
    """Run the oracle over basis states and compare its marks with
    :func:`~cvrptw_gas.grover.reference_marks`.

    ``indices`` selects the assignments to check, each in ``[0, 2^bits)``
    for the instance's decision bits; None means all of them, refused above
    :data:`EXHAUSTIVE_SCAN_CAP_BITS` decision bits. Those refusals, and that
    of an instance whose reference sweep would pass the int64 range, come
    before the oracle is built. The states run through the circuit in chunks
    of 2^_SCAN_CHUNK_BITS. Working registers start at zero; afterwards every one
    of them must read zero and the decision bits must be unchanged.
    """
    # The cyclic collector is paused for the scan. The oracle (thousands of
    # gates) lives until the scan returns and holds no reference cycles, so a
    # collection in between would only promote it and, now and then, sweep the
    # whole heap in the middle of the scan. It is freed before the collector
    # resumes.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _scan(inst, k, indices)
    finally:
        if enabled:
            gc.enable()


def _checked_indices(indices, bits: int) -> np.ndarray:
    """``indices`` as int64, refused unless each is an integer in
    ``[0, 2^bits)``; a plain cast would run 1.7 as index 1."""
    span = f"[0, 2^{bits})"
    checked = np.asarray(indices)
    if checked.size and checked.dtype.kind not in "iu":
        raise ValueError(f"assignment indices must be integers in {span}")
    checked = checked.astype(np.int64, copy=False)
    # x >> bits is 0 exactly when 0 <= x < 2^bits; int64 has 63 value bits.
    outside = checked >> min(bits, 63) != 0
    if outside.any():
        raise ValueError(f"assignment index {checked[outside][0]} is outside {span}")
    return checked


def _scan(inst: Instance, k: int, indices) -> ScanReport:
    bits = search_space(inst).decision_bits
    if indices is None:
        if bits > EXHAUSTIVE_SCAN_CAP_BITS:
            raise ValueError(f"{bits} decision bits exceed the exhaustive cap of {EXHAUSTIVE_SCAN_CAP_BITS}")
    else:
        indices = _checked_indices(indices, bits)
    check_sweep_range(inst)
    circuit = build_oracle(inst, k)
    marked = circuit.registers["marked"].qubit(0)
    checked = mismatches = dirty_states = changed_states = 0
    for chunk, decision_cols in _scan_chunks(bits, indices):
        count = len(chunk)
        columns = decision_cols + [0] * (circuit.qubit_count - bits)
        out_cols = eval_basis_batch(circuit, columns, count)
        circuit_marks = column_bits(out_cols[marked], count)
        mismatches += int((circuit_marks != reference_marks(inst, k, chunk)).sum())
        dirty = 0
        for qb in range(bits, circuit.qubit_count):
            if qb != marked:
                dirty |= out_cols[qb]
        changed = 0
        for qb in range(bits):
            changed |= out_cols[qb] ^ columns[qb]
        full = (1 << count) - 1
        checked += count
        dirty_states += int(dirty & full).bit_count()
        changed_states += int(changed & full).bit_count()
    return ScanReport(
        assignments_checked=checked,
        mismatches=mismatches,
        dirty_ancillas=dirty_states,
        decision_changed=changed_states,
    )
