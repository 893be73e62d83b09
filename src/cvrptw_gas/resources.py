"""Closed-form qubit and gate budgets, register-width policy, and plot data.

Two conventions are reported side by side and never mixed:

* the smooth scaling expression ``n^2 + n log2 n + 6n + n log2 d_max +
  n log2 t_max + log2 w_max`` (real-valued, no ceilings), handy for plots;
* an integer engineering budget with explicit ceilings that accounts for
  every qubit the layout actually allocates, including overflow flags, the
  max-selection spill registers, and the shared scratch pool.

The engineering total equals ``oracle.build_layout(...)`` exactly; the smooth
expression does not (ceilings and bookkeeping qubits only add).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .instance import Instance, bits_for

# Qubit count quoted elsewhere for the bundled six-customer example. Its
# derivation is undocumented and it does not follow from either convention
# here, so it is reported for comparison but never asserted.
QUOTED_SIX_CUSTOMER_QUBITS = 147


@dataclass(frozen=True)
class RegisterWidths:
    b_node: int  # bits per tour position
    w_cap: int  # bits per load register
    w_time: int  # bits per clock register
    w_cost: int  # bits of the cost accumulator


def cost_upper_bound(inst: Instance) -> int:
    """Upper bound on any objective value: at most 2n legs, each at most max(D)."""
    return 2 * inst.n * inst.max_distance


def max_window_close(inst: Instance) -> int:
    """Latest window close over the customers (the sentinel for defaulted
    windows): the largest value the clock register must hold."""
    return max(b for _, b in inst.windows[1:])


def register_widths(inst: Instance) -> RegisterWidths:
    """Widths sized from the instance maxima.

    The clock width comes from :func:`max_window_close`, the load width from
    the capacity, and the cost width from the 2n-leg bound.
    """
    return RegisterWidths(
        b_node=bits_for(inst.n),
        w_cap=bits_for(inst.c_max),
        w_time=bits_for(max_window_close(inst)),
        w_cost=bits_for(cost_upper_bound(inst)),
    )


@dataclass(frozen=True)
class QubitBudget:
    """Engineering qubit budget, component by component.

    ``ancilla`` covers the bookkeeping the chains need beyond the named
    registers: the max-selection spill registers (n * w_time), one adder
    overflow flag per chained addition in the load and clock chains
    (2 * (n - 1)), and the shared scratch pool (max register width + 1 carry
    seed).
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


def qubit_budget(n: int, d_max: int, t_max: int, w_max: int) -> QubitBudget:
    """Integer budget with ceilings for given parameter maxima."""
    if min(n, d_max, t_max, w_max) < 1:
        raise ValueError("budget parameters must all be at least 1")
    b_node = bits_for(n)
    w_cap = bits_for(d_max)
    w_time = bits_for(t_max)
    w_cost = bits_for(w_max)
    pool = max(b_node, w_cap, w_time, w_cost) + 1
    return QubitBudget(
        tour=n * b_node,
        splits=n,
        all_different=n * (n - 1) // 2 + n + 1,
        capacity=n * w_cap + n,
        time=n * w_time + 2 * n,
        cost=w_cost + 1,
        output=1,
        ancilla=n * w_time + 2 * (n - 1) + pool,
    )


def instance_budget(inst: Instance) -> QubitBudget:
    return qubit_budget(inst.n, inst.c_max, max_window_close(inst), cost_upper_bound(inst))


def figure_expression(n: int, d_max: int, t_max: int, w_max: int) -> float:
    """The smooth qubit-count expression, evaluated without ceilings."""
    if min(n, d_max, t_max, w_max) < 1:
        raise ValueError("parameters must all be at least 1")
    return (
        n * n
        + n * math.log2(n)
        + 6 * n
        + n * math.log2(d_max)
        + n * math.log2(t_max)
        + math.log2(w_max)
    )


@dataclass(frozen=True)
class GateBudget:
    """MCX-count envelopes per constraint family (real-valued, with the
    conventional constants; asymptotic guides, not exact tallies)."""

    all_different: float
    capacity: float
    time: float
    cost: float


def gate_budget(n: int, d_max: int) -> GateBudget:
    if n < 1 or d_max < 1:
        raise ValueError("parameters must all be at least 1")
    ld = math.log2(d_max)
    ln = math.log2(n)
    return GateBudget(
        all_different=float(n * n),
        capacity=n * n * ld + 12 * n * ld,
        time=2 * n * n * ld + 24 * n * ld,
        cost=n**3 * ln + 6 * n * ln,
    )


def emit_plot_data(n_range, d_max: int, t_max: int, w_max: int) -> list[tuple[int, float, int]]:
    """Rows of (n, smooth expression value, engineering budget total)."""
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
