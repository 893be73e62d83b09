"""Reversible-circuit oracle and exact Grover-adaptive-search simulation for
capacitated vehicle routing with delivery windows, with classical references
for every quantum component."""

from .classical import (
    AuxiliaryGraph,
    FeasibilityReport,
    InfeasibleError,
    brute_force_optimum,
    build_auxiliary_graph,
    feasible_and_cost,
    route_first_cluster_second,
    split_shortest_path,
)
from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    RegisterRef,
    ResourceReport,
    count_resources,
    eval_statevector,
    inverse,
)
from .grover import (
    BudgetExhaustedError,
    GasConfig,
    GasResult,
    SearchTrace,
    gas_minimize,
    qsearch,
    statevector_grover,
    success_probability,
)
from .instance import (
    Instance,
    InstanceError,
    RouteSet,
    decode_assignment,
    parse_instance,
    serialize_instance,
    six_customer_example,
)
from .oracle import (
    MarkResult,
    OracleLayout,
    build_layout,
    build_oracle,
    equivalence_scan,
    mark_predicate,
)
from .resources import (
    GateBudget,
    QubitBudget,
    figure_expression,
    gate_budget,
    qubit_budget,
    register_widths,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
