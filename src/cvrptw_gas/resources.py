"""Closed-form qubit and gate budgets, register-width policy, plot data, and
the Toffoli count of a built circuit.

Two conventions are reported side by side and never mixed:

* the smooth scaling expression ``n^2 + n log2 n + 6n + n log2 d_max +
  n log2 t_max + log2 w_max`` (real-valued, no ceilings), handy for plots;
* an integer engineering budget with explicit ceilings that accounts for
  every qubit the layout actually allocates, including overflow flags and
  the shared scratch pool. Vacuous windows allocate no time registers, and
  the cost register is as wide as the largest value the cost accumulator
  can reach.

The engineering total equals ``oracle.build_layout(...)`` exactly; the smooth
expression does not (it charges a clock whatever the windows, and ceilings
and bookkeeping qubits only add).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .circuit import Circuit, count_resources
from .instance import Instance, bits_for

# Qubit count quoted elsewhere for the bundled six-customer example. Its
# derivation is undocumented and it does not follow from either convention
# here, so it is reported for comparison but never asserted.
QUOTED_SIX_CUSTOMER_QUBITS = 147
# Most rows one plot builds; every row is built before the first is written.
PLOT_ROW_CAP = 100_000


@dataclass(frozen=True)
class RegisterWidths:
    b_node: int  # bits per tour position
    w_cap: int  # bits per load register; 0 for one customer
    w_time: int  # bits per clock register; 0 when the windows are vacuous
    w_cost: int  # bits of the cost accumulator


def cost_upper_bound(inst: Instance) -> int:
    """Upper bound on any objective value: at most 2n legs, each at most max(D)."""
    return 2 * inst.n * inst.max_distance


def cost_register_bound(inst: Instance) -> int:
    """The largest value the oracle's cost accumulator can reach on a
    well-formed tour: the largest leg out of the depot, then per later
    position the largest leg leaving a customer (a return or a direct leg)
    plus the largest leg out of the depot, then the largest return. A
    malformed tour may wrap inside an adder's bits; it is never marked, the
    mirror clears it, and no gate writes above those bits."""
    D = inst.D
    customers = inst.customers
    to_first = max(D[0][v] for v in customers)
    back_home = max(D[v][0] for v in customers)
    direct = max((D[u][v] for u in customers for v in customers if u != v), default=0)
    return to_first + (inst.n - 1) * (max(back_home, direct) + to_first) + back_home


def max_window_close(inst: Instance) -> int:
    """Latest window close over the customers (the sentinel for defaulted
    windows): the largest time any window check compares against."""
    return max(b for _, b in inst.windows[1:])


def max_clock_value(inst: Instance) -> int:
    """The largest value the clock register and its pool slice must hold:
    the latest window close or the longest travel time, whichever is
    larger. A clock past the close is caught by the window check or the
    adder's overflow flag, so it needs no wider register."""
    return max(max_window_close(inst), inst.max_travel)


def register_widths(inst: Instance) -> RegisterWidths:
    """Widths sized from the instance maxima.

    The clock width comes from :func:`max_clock_value`, or is 0 for vacuous
    windows; the load width from the capacity, or 0 for one customer, whose
    demand always fits; the cost width from :func:`cost_register_bound`.
    """
    return RegisterWidths(
        b_node=bits_for(inst.n),
        w_cap=bits_for(inst.c_max) if inst.n > 1 else 0,
        w_time=0 if inst.windows_vacuous else bits_for(max_clock_value(inst)),
        w_cost=bits_for(cost_register_bound(inst)),
    )


@dataclass(frozen=True)
class QubitBudget:
    """Engineering qubit budget, component by component.

    ``capacity`` is the n load registers. ``time`` is the n arrival clocks,
    a wait flag for every position but the last and n window flags.
    ``ancilla`` covers one adder overflow flag per chained addition in the
    load and clock chains (2 * (n - 1)), the load flags being the capacity
    check, and the scratch pool the load, clock and cost chains share
    (their widest register + 1 carry seed; the pair flags use no scratch).
    Without a time chain, ``time`` is 0 and ``ancilla`` has no clock flags.
    """

    tour: int
    splits: int
    all_different: int
    capacity: int
    time: int
    cost: int
    output: int
    ancilla: int

    @property
    def total(self) -> int:
        return sum(astuple(self))


def _require(least: int, **params: int) -> None:
    """Refuse the first parameter below ``least``, by name."""
    for name, value in params.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def qubit_budget(n: int, d_max: int, t_max: int | None, w_max: int) -> QubitBudget:
    """Integer budget with ceilings for given parameter maxima. Each width is
    ``bits_for`` of its maximum, as in :func:`register_widths` (n = 1 has
    no load register), so a maximum of 0 takes one bit; only ``n < 1`` or a
    negative maximum is refused. ``t_max`` None means no time chain."""
    _require(1, n=n)
    _require(0, d_max=d_max, t_max=0 if t_max is None else t_max, w_max=w_max)
    b_node, w_cap, w_cost = bits_for(n), bits_for(d_max) if n > 1 else 0, bits_for(w_max)
    if t_max is None:
        w_time = time = clock_overflow = 0
    else:
        w_time = bits_for(t_max)
        time = n * w_time + 2 * n - 1  # clocks, n - 1 waited and n time_ok flags
        clock_overflow = n - 1
    pool = max(w_cap, w_time, w_cost) + 1
    return QubitBudget(
        tour=n * b_node,
        splits=n,
        all_different=n * (n - 1) // 2 + n + 1,
        capacity=n * w_cap,
        time=time,
        cost=w_cost + 1,
        output=1,
        ancilla=(n - 1) + clock_overflow + pool,
    )


def instance_budget(inst: Instance) -> QubitBudget:
    t_max = None if inst.windows_vacuous else max_clock_value(inst)
    return qubit_budget(inst.n, inst.c_max, t_max, cost_register_bound(inst))


def figure_expression(n: int, d_max: int, t_max: int, w_max: int) -> float:
    """The smooth qubit-count expression, evaluated without ceilings; it takes
    the log2 of each parameter, so each must be at least 1, and its value is
    a float, so n must leave it below the float range (n < 2^511 does)."""
    _require(1, n=n, d_max=d_max, t_max=t_max, w_max=w_max)
    try:
        return (
            n * n
            + n * math.log2(n)
            + 6 * n
            + n * math.log2(d_max)
            + n * math.log2(t_max)
            + math.log2(w_max)
        )
    except OverflowError:
        raise ValueError(f"n of {n.bit_length()} bits puts the smooth figure past the float range") from None


@dataclass(frozen=True)
class GateBudget:
    """MCX-count envelopes per constraint family (real-valued, with the
    conventional constants; asymptotic guides, not exact tallies)."""

    all_different: float
    capacity: float
    time: float
    cost: float


def gate_budget(n: int, d_max: int) -> GateBudget:
    _require(1, n=n, d_max=d_max)
    ld = math.log2(d_max)
    ln = math.log2(n)
    return GateBudget(
        all_different=float(n * n),
        capacity=n * n * ld + 12 * n * ld,
        time=2 * n * n * ld + 24 * n * ld,
        cost=n**3 * ln + 6 * n * ln,
    )


def toffoli_cost(c: Circuit) -> int:
    """Toffoli count of ``c``, by the standard ladder (Barenco et al.,
    quant-ph/9503016): an MCX with w >= 3 controls computes the AND of its
    controls into w - 2 clean ancillas with w - 2 Toffolis, fires the
    target with one more and uncomputes with w - 2, so it costs 2w - 3. A
    Toffoli (w = 2) costs 1, and X, CX and H cost 0. Negative controls are
    X conjugations and cost nothing. The w - 2 ancillas are assumed clean
    (zero before and after) and are not part of the qubit budget; with
    dirty ones the ladder costs 4(w - 2) (Barenco et al., Lemma 7.2)."""
    return sum((2 * w - 3) * n for w, n in count_resources(c).mcx_by_arity.items() if w >= 2)


def emit_plot_data(n_range: range, d_max: int, t_max: int, w_max: int) -> list[tuple[int, float, int]]:
    """Rows of (n, smooth expression value, engineering budget total), one per
    n of ``n_range``, a range of step 1. A range of more than
    :data:`PLOT_ROW_CAP` rows is refused before any row is built."""
    if n_range.stop - n_range.start > PLOT_ROW_CAP:
        raise ValueError(f"plot range longer than the cap of {PLOT_ROW_CAP} rows")
    rows = [
        (n, figure_expression(n, d_max, t_max, w_max), qubit_budget(n, d_max, t_max, w_max).total)
        for n in n_range
    ]
    if not rows:
        raise ValueError("empty plot range")
    return rows


def plot_csv(n_range, d_max: int, t_max: int, w_max: int) -> str:
    lines = ["n,figure_qubits,budget_qubits"]
    for n, fig, budget in emit_plot_data(n_range, d_max, t_max, w_max):
        lines.append(f"{n},{fig:.3f},{budget}")
    return "\n".join(lines) + "\n"
