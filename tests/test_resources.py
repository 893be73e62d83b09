"""Width policy, qubit budgets vs the real layout, and the plot expression."""

import pytest

from cvrptw_gas.oracle import build_layout
from cvrptw_gas.resources import (
    QUOTED_SIX_CUSTOMER_QUBITS,
    cost_upper_bound,
    emit_plot_data,
    figure_expression,
    gate_budget,
    instance_budget,
    plot_csv,
    qubit_budget,
    register_widths,
)

from support import make_instance


def test_register_widths_example(example6):
    widths = register_widths(example6)
    assert widths.b_node == 3
    assert widths.w_cap == 3
    assert widths.w_cost == 10  # bound 2 * 6 * 46 = 552 needs ten bits


def test_cost_upper_bound_is_safe(example6):
    from cvrptw_gas.grover import feasible_table

    bound = cost_upper_bound(example6)
    assert bound == 552
    assert int(feasible_table(example6).costs.max()) <= bound


def test_figure_expression_reference_points():
    assert figure_expression(8, 8, 8, 512) == pytest.approx(193.0, abs=1e-12)
    assert figure_expression(1, 8, 8, 512) == pytest.approx(22.0, abs=1e-12)


def test_figure_expression_monotone():
    base = figure_expression(10, 8, 8, 512)
    assert figure_expression(11, 8, 8, 512) > base
    assert figure_expression(10, 9, 8, 512) > base
    assert figure_expression(10, 8, 9, 512) > base
    assert figure_expression(10, 8, 8, 600) > base


def test_budget_total_matches_layout_for_small_n(example6):
    for n in (1, 2, 3, 4, 5):
        inst = make_instance(
            {
                "n": n,
                "c_max": 4,
                "distance": [
                    [0 if i == j else abs(i - j) * 3 + (7 * i + j) % 5 for j in range(n + 1)]
                    for i in range(n + 1)
                ],
                "demands": [1 + (i % 3) for i in range(n)],
            }
        )
        assert instance_budget(inst).total == build_layout(inst, 10).qubit_count
    assert instance_budget(example6).total == build_layout(example6, 272).qubit_count == 223


def test_budget_dominates_figure_expression_at_desk_scale():
    """The integer budget exceeds the smooth expression while bookkeeping
    qubits (spills, overflow flags, scratch) outweigh the pairwise-flag
    difference: the budget allocates n(n-1)/2 inequality flags where the
    smooth expression charges n^2, so beyond the crossover (n = 15 at these
    parameters) the smooth curve overtakes the real allocation."""
    for n in range(2, 15):
        assert qubit_budget(n, 8, 8, 512).total >= figure_expression(n, 8, 8, 512)
    assert qubit_budget(15, 8, 8, 512).total < figure_expression(15, 8, 8, 512)
    # asymptotically the real layout needs about half the smooth n^2 term
    assert qubit_budget(200, 8, 8, 512).total < figure_expression(200, 8, 8, 512)


def test_quoted_value_reported_not_asserted(example6):
    # The quoted figure for the six-customer example is kept for comparison
    # only; our conventions give different totals and neither is asserted
    # equal to it.
    assert QUOTED_SIX_CUSTOMER_QUBITS == 147
    assert instance_budget(example6).total != 0


def test_gate_budget_reference_points():
    gb = gate_budget(1, 8)
    assert gb.all_different == 1.0
    assert gb.cost == 0.0  # log2(1) = 0
    # doubling n scales the cost term by roughly 8x the log overhead
    big, small = gate_budget(8, 8), gate_budget(4, 8)
    assert big.cost / small.cost == pytest.approx((8**3 * 3 + 48 * 3) / (4**3 * 2 + 24 * 2), abs=1e-9)
    assert 8 < big.cost / small.cost < 12
    assert big.all_different == 64


def test_gate_budget_monotone_in_n():
    values = [gate_budget(n, 8) for n in range(2, 12)]
    for a, b in zip(values, values[1:]):
        assert b.all_different > a.all_different
        assert b.capacity > a.capacity
        assert b.time > a.time
        assert b.cost > a.cost


def test_measured_mcx_within_fitted_envelope():
    """Oracle MCX counts for n = 3..5 stay within a fitted constant of the
    envelope. The measured ratio is 2.8-3.1, rising slowly with n; the
    bound of 8 dates from a larger oracle (ratio about 7) and is kept."""
    from cvrptw_gas.circuit import count_resources
    from cvrptw_gas.oracle import build_oracle

    for n in (3, 4, 5):
        inst = make_instance(
            {
                "n": n,
                "c_max": 4,
                "distance": [
                    [0 if i == j else abs(i - j) * 3 + (7 * i + j) % 5 for j in range(n + 1)]
                    for i in range(n + 1)
                ],
                "demands": [1 + (i % 3) for i in range(n)],
            }
        )
        measured = count_resources(build_oracle(inst, 20)).mcx_total
        gb = gate_budget(n, inst.c_max)
        envelope = gb.all_different + gb.capacity + gb.time + gb.cost
        assert measured <= 8.0 * envelope, (n, measured, envelope)
        assert measured >= envelope  # the envelope drops constant factors


def test_plot_rows():
    rows = emit_plot_data(range(8, 9), 8, 8, 512)
    assert rows == [(8, pytest.approx(193.0), qubit_budget(8, 8, 8, 512).total)]
    rows = emit_plot_data(range(1, 101), 8, 8, 512)
    assert len(rows) == 100
    figures = [r[1] for r in rows]
    budgets = [r[2] for r in rows]
    assert figures == sorted(figures)
    assert budgets == sorted(budgets)
    with pytest.raises(ValueError, match="empty"):
        emit_plot_data(range(0), 8, 8, 512)


def test_plot_csv_format():
    text = plot_csv(range(8, 10), 8, 8, 512)
    lines = text.splitlines()
    assert lines[0] == "n,figure_qubits,budget_qubits"
    assert lines[1].startswith("8,193.000,")
    assert text.endswith("\n")


def test_budget_rejects_bad_parameters():
    with pytest.raises(ValueError):
        qubit_budget(0, 8, 8, 512)
    with pytest.raises(ValueError):
        figure_expression(4, 0, 8, 512)
