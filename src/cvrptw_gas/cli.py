"""Command-line surface: solve, verify-oracle, resources, split.

Every command writes exactly one JSON document (or CSV with ``--csv``) to
stdout and human-readable notes to stderr. Exit codes: 0 success, 2 bad
input, 3 infeasible, 4 budget exhausted, 5 verification mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import classical, grover, oracle, resources
from .instance import Instance, InstanceError, decode_assignment, pack_assignment, parse_instance

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5


def _load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    return parse_instance(text)


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _log(message: str) -> None:
    sys.stderr.write(message + "\n")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InstanceError(f"--seed must be nonnegative, got {seed}")


def _cmd_solve(args) -> int:
    if args.budget is not None and args.budget < 0:
        raise InstanceError(f"--budget must be nonnegative, got {args.budget}")
    inst = _load_instance(args.instance)
    if args.method == "brute":
        P, y, cost = classical.brute_force_optimum(inst)
        _emit({"method": "brute", "cost": cost, "routes": decode_assignment(inst, P, y).as_lists()})
        return EXIT_OK
    if args.method == "heuristic":
        routes, cost = classical.route_first_cluster_second(inst)
        _emit({"method": "heuristic", "cost": cost, "routes": routes.as_lists()})
        return EXIT_OK
    if args.seed is None:
        raise InstanceError("gas requires --seed for a reproducible trace")
    _check_seed(args.seed)
    cfg = grover.GasConfig(rng_seed=args.seed, max_oracle_calls=args.budget, initial_k=args.initial_k)
    result = grover.gas_minimize(inst, cfg)
    _emit(
        {
            "method": "gas",
            "cost": result.cost,
            "routes": result.routes.as_lists(),
            "trace": result.trace_dict(),
        }
    )
    return EXIT_OK


def sample_indices(inst: Instance, samples: int, seed: int) -> np.ndarray:
    """``samples`` seeded assignment indices: the first half uniform over the
    whole decision space, the rest well-formed candidates (a customer
    permutation and interior split bits, final bit set). Indices are int64,
    so a decision space past 63 bits is refused."""
    n = inst.n
    b_node = resources.register_widths(inst).b_node
    bits = grover.search_space(inst).decision_bits
    if bits > 63:
        raise ValueError(f"{bits} decision bits exceed the 63-bit limit of int64 sample indices")
    rng = np.random.default_rng(seed)
    formed = samples // 2
    uniform = rng.integers(0, 1 << bits, size=samples - formed, dtype=np.int64)
    tours = np.argsort(rng.random((formed, n)), axis=1) + 1
    splits = rng.integers(0, 2, size=(formed, n - 1))
    packed = [pack_assignment(n, b_node, P, (*y, 1)) for P, y in zip(tours.tolist(), splits.tolist())]
    return np.concatenate([uniform, np.array(packed, dtype=np.int64)])


def _cmd_verify_oracle(args) -> int:
    if args.samples < 1:
        raise InstanceError(f"--samples must be at least 1, got {args.samples}")
    inst = _load_instance(args.instance)
    indices = None
    if args.mode == "sample":
        _check_seed(args.seed)
        indices = sample_indices(inst, args.samples, args.seed)
    report = oracle.equivalence_scan(inst, args.k, indices=indices)
    _emit(dataclasses.asdict(report))
    if not report.clean:
        _log("oracle disagrees with the reference marks")
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_resources(args) -> int:
    if args.instance is not None:
        inst = _load_instance(args.instance)
        widths = resources.register_widths(inst)
        budget = resources.instance_budget(inst)
        t_max = resources.max_window_close(inst)
        doc = {
            "n": inst.n,
            "widths": {
                "node": widths.b_node,
                "load": widths.w_cap,
                "clock": widths.w_time,
                "cost": widths.w_cost,
            },
            "figure_qubits": resources.figure_expression(inst.n, inst.c_max, t_max, resources.cost_upper_bound(inst)),
            "budget": {**dataclasses.asdict(budget), "total": budget.total},
            "quoted_six_customer_qubits": resources.QUOTED_SIX_CUSTOMER_QUBITS,
        }
        _emit(doc)
        return EXIT_OK
    if args.plot:
        lo, hi = args.plot
        rng = range(lo, hi + 1)
        if args.csv:
            sys.stdout.write(resources.plot_csv(rng, args.d_max, args.t_max, args.w_max))
            return EXIT_OK
        rows = resources.emit_plot_data(rng, args.d_max, args.t_max, args.w_max)
        _emit({"rows": [{"n": n, "figure_qubits": f, "budget_qubits": b} for n, f, b in rows]})
        return EXIT_OK
    if args.n is None or args.n < 1:
        raise InstanceError("need --instance, --plot, or a positive --n")
    budget = resources.qubit_budget(args.n, args.d_max, args.t_max, args.w_max)
    _emit(
        {
            "n": args.n,
            "figure_qubits": resources.figure_expression(args.n, args.d_max, args.t_max, args.w_max),
            "budget_qubits": budget.total,
        }
    )
    return EXIT_OK


def _cmd_split(args) -> int:
    inst = _load_instance(args.instance)
    try:
        tour = [int(part) for part in args.tour.split(",") if part.strip()]
    except ValueError as exc:
        raise InstanceError(f"tour must be comma-separated customer ids: {exc}") from exc
    if sorted(tour) != list(range(1, inst.n + 1)):
        raise InstanceError("tour must be a permutation of the customers")
    graph = classical.build_auxiliary_graph(inst, tour)
    y, cost = classical.split_shortest_path(graph)
    _emit({"arcs": [[i, j, w] for i, j, w in graph.arcs], "split_y": list(y), "cost": cost})
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi or lo)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvrptw-gas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="minimize an instance")
    solve.add_argument("instance")
    solve.add_argument("--method", choices=("gas", "brute", "heuristic"), default="gas")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--budget", type=int, default=None)
    solve.add_argument("--initial-k", type=int, default=None, dest="initial_k")
    solve.set_defaults(run=_cmd_solve)

    verify = sub.add_parser(
        "verify-oracle",
        help="compare the circuit with the vectorized reference",
        description="Run the oracle circuit over basis states, in chunks of 2^16, and compare its marks "
        "with the vectorized reference (the feasible-table sweep's recurrences). Every working register "
        "must return to zero and every decision bit must be unchanged.",
    )
    verify.add_argument("instance")
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument(
        "--mode",
        choices=("exhaustive", "sample"),
        default="exhaustive",
        help="exhaustive: every assignment, up to 26 decision bits; sample: seeded indices",
    )
    verify.add_argument(
        "--samples",
        type=int,
        default=100_000,
        help="sample mode: half uniform indices, half well-formed candidates",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(run=_cmd_verify_oracle)

    res = sub.add_parser("resources", help="qubit and gate budgets")
    res.add_argument("--instance", default=None)
    res.add_argument("--n", type=int, default=None)
    res.add_argument("--d-max", type=int, default=8, dest="d_max")
    res.add_argument("--t-max", type=int, default=8, dest="t_max")
    res.add_argument("--w-max", type=int, default=512, dest="w_max")
    res.add_argument("--plot", type=_parse_range, default=None, metavar="LO:HI")
    res.add_argument("--csv", action="store_true")
    res.set_defaults(run=_cmd_resources)

    split = sub.add_parser("split", help="auxiliary graph and optimal split of a tour")
    split.add_argument("instance")
    split.add_argument("--tour", required=True)
    split.set_defaults(run=_cmd_split)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_BAD_INPUT
    except classical.InfeasibleError as exc:
        _log(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    except grover.BudgetExhaustedError as exc:
        _log(f"budget: {exc}")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
