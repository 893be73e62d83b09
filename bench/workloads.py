"""One benchmark run: set-up, reference computations, the timed rounds, and
the metrics they give.

A round is a closed loop, one operation at a time:

* one set-up probe: a fresh process imports the package and builds the
  workload's inputs;
* cold solves: ``cvrptw-gas solve --method gas`` in a fresh process each;
* warm GAS passes: ``gas_minimize`` over the fixed seed list, in this
  process, after one feasible-table fill, timed in blocks of seeds;
* verification passes: ``equivalence_scan`` of each oracle over its states,
  then ``statevector_grover``, each timed on its own.

Rounds repeat until the run's time is used, ending within half a round of
it. Every output is checked after the timed part of its round.

Each end-to-end time is the sum, over the fixed parts of an operation, of
the upper decile of that part's samples, which are spread over the whole run
(``setup_s`` is the median of its probes). The machine this was tuned on (two
shared vCPUs) switches between a slow state, where it spends most of its
time, and a state up to 1.8x faster that lasts from a second to over a
minute. A median lands in either state depending on how the run's time was
split between them; the upper decile stays in the slow state unless the fast
one holds nine tenths of the run. README.md has the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import instances
from cvrptw_gas import circuit, classical, grover, oracle
from cvrptw_gas.instance import Instance, parse_instance
from cvrptw_gas.resources import register_widths
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES_FIRST = 3
GAS_PASSES_PER_ROUND = 2
GAS_BLOCK = 50
PARSE_PROBE_CALLS = 200
BUILD_PROBE_CALLS = 5
BATCH_PROBE_CALLS = 3
EXHAUSTIVE_THRESHOLDS = (0, None, 10**6)  # None stands for opt+1

_SETUP_PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import instances
instances.workload_inputs(sys.argv[3], int(sys.argv[4]))
"""


@dataclass(frozen=True)
class Scan:
    label: str
    inst: Instance
    k: int
    indices: np.ndarray | None  # None scans every assignment

    @property
    def states(self) -> int:
        if self.indices is None:
            return 1 << grover.search_space(self.inst).decision_bits
        return len(self.indices)


def upper_decile(samples) -> float:
    """The 90th percentile of the samples, interpolated between them."""
    samples = list(samples)
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


class Samples:
    """Timed samples per part of a repeated operation."""

    def __init__(self) -> None:
        self.by_part: dict = defaultdict(list)

    def add(self, part, seconds: float) -> None:
        self.by_part[part].append(seconds)

    def total(self, parts=None) -> float:
        """Sum over the parts of each part's upper-decile sample."""
        return sum(upper_decile(self.by_part[p]) for p in (self.by_part if parts is None else parts))


def measure_setup(name: str, seed: int) -> float:
    """Wall time of a fresh process that imports the package and builds the
    workload's inputs."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(HERE), name, str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(trace)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.optimum: dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------------

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.errors.append(str(exc))

    def operation(self, fn, *args):
        """Run one counted operation; a raised error counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is reported, not fatal
            self.failed += 1
            self.errors.append(f"operation failed: {exc!r}")
            return None

    # -- references ----------------------------------------------------------

    def parse(self, text: str) -> Instance:
        with self.tracer.span("instance.parse_instance", calls=1):
            return parse_instance(text)

    def brute_force(self, inst: Instance, label: str) -> int:
        with self.tracer.span("classical.brute_force_optimum", n=inst.n):
            _, _, cost = classical.brute_force_optimum(inst)
        with self.tracer.span("classical.route_first_cluster_second", n=inst.n):
            routes, heuristic_cost = classical.route_first_cluster_second(inst)
        self.check(checks.check_heuristic, inst, routes.as_lists(), heuristic_cost, cost)
        self.optimum[label] = cost
        return cost

    def oracle_counts(self, inst: Instance, k: int) -> dict:
        """Gate, MCX and qubit counts of ``build_oracle(inst, k)``, and the
        gates of each chain of its compute phase."""
        with self.tracer.span("oracle.build_oracle"):
            built = oracle.build_oracle(inst, k)
        self.check(checks.check_qubits, inst, built.qubit_count)
        by_arity = circuit.count_resources(built).mcx_by_arity
        counts = {
            "gates": len(built.gates),
            "qubits": built.qubit_count,
            "mcx_controls": sum(arity * count for arity, count in by_arity.items()),
            "mcx_1": by_arity.get(1, 0),
            "mcx_2": by_arity.get(2, 0),
            "mcx_3_4": sum(c for a, c in by_arity.items() if 3 <= a <= 4),
            "mcx_5plus": sum(c for a, c in by_arity.items() if a >= 5),
        }
        layout = oracle.build_layout(inst, k)
        for chain, builder in (
            ("uniqueness", oracle.build_uniqueness),
            ("capacity", oracle.build_capacity_chain),
            ("time", oracle.build_time_chain),
            ("cost", oracle.build_cost_accumulator),
        ):
            with self.tracer.span(f"oracle.{builder.__name__}") as span:
                span["gates"] = counts[f"{chain}_gates"] = len(builder(layout).gates)
        return counts

    # -- the run -------------------------------------------------------------

    def execute(self) -> dict:
        run_start = time.perf_counter()
        setup_times = [measure_setup(self.name, self.seed) for _ in range(SETUP_PROBES_FIRST)]
        inputs = instances.workload_inputs(self.name, self.seed)
        OUT.mkdir(exist_ok=True)
        self.instance_path = OUT / f"{self.name}-seed{self.seed}.json"
        self.instance_path.write_text(inputs.solve_text, encoding="utf-8")
        self.inputs = inputs

        # References, computed apart from the code under test.
        self.solve_inst = self.parse(inputs.solve_text)
        self.solve_opt = self.brute_force(self.solve_inst, "solve")
        with self.tracer.span("classical.feasible_and_cost") as span:
            self.costs = checks.feasible_costs(self.solve_inst)
            span["feasible"] = len(self.costs)
        with self.tracer.span("grover.feasible_table") as span:
            table = grover.feasible_table(self.solve_inst)
            span["rows_scanned"] = table.N
            span["rows_kept"] = len(table.indices)
        if len(table.indices) != len(self.costs):
            self.errors.append(f"sweep kept {len(table.indices)} rows, enumeration finds {len(self.costs)}")
        certifying = self.oracle_counts(self.solve_inst, self.solve_opt + 1)

        self.scans: list[Scan] = []
        for i, text in enumerate(inputs.scan_texts):
            inst = self.parse(text)
            k = self.brute_force(inst, f"scan{i}") + 1
            self.check(checks.batch_marks, inst, k, inputs.batch, register_widths(inst).b_node)
            self.scans.append(Scan(f"scan{i} k={k}", inst, k, inputs.batch))
        if inputs.exhaustive_text is not None:
            inst = self.parse(inputs.exhaustive_text)
            opt = self.brute_force(inst, "exhaustive")
            for k in EXHAUSTIVE_THRESHOLDS:
                k = opt + 1 if k is None else k
                self.scans.append(Scan(f"exhaustive k={k}", inst, k, None))
        pass_oracles = [self.oracle_counts(s.inst, s.k) for s in self.scans]
        self.sv_oracle = grover.synthetic_marking_oracle(inputs.sv_bits, inputs.sv_patterns)
        self.sv_expected = grover.success_probability(
            1 << inputs.sv_bits, len(inputs.sv_patterns), inputs.sv_rounds
        )

        solve, gas, verify, gas_totals, rounds = self.measure(setup_times)
        if self.tracer.enabled:
            with self.tracer.span("bench.probe_layers"):
                self.probe_layers(self.scans[0])

        seeds = len(instances.GAS_SEEDS)
        scan_parts = range(len(self.scans))
        end_to_end = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_s": (solve.total(), "s"),
            "gas_solves_per_s": (seeds / gas.total(), "1/s"),
            "oracle_calls": (gas_totals["calls"] / seeds, "calls"),
            "oracle_gates": (certifying["gates"], "gates"),
            "oracle_mcx_controls": (certifying["mcx_controls"], "controls"),
            "oracle_qubits": (certifying["qubits"], "qubits"),
            "verify_s": (verify.total(), "s"),
            "scan_states_per_s": (sum(s.states for s in self.scans) / verify.total(scan_parts), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        if self.tracer.enabled:
            metrics = self.layer_metrics(gas_totals, pass_oracles, time.perf_counter() - run_start)
        else:
            metrics = end_to_end
        result = {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
        stem = f"{self.name}-seed{self.seed}-trace{int(self.tracer.enabled)}"
        samples = {
            "setup": setup_times,
            "solve": solve.by_part,
            "gas_blocks": gas.by_part,
            "verify_parts": {self.scans[p].label if p in scan_parts else p: v for p, v in verify.by_part.items()},
        }
        record = {"rounds": rounds, "errors": self.errors, "samples": samples, **result}
        (OUT / f"result-{stem}.json").write_text(json.dumps(record), encoding="utf-8")
        if self.tracer.enabled:
            self.tracer.dump(
                OUT / f"trace-{stem}.json",
                {
                    "workload": self.name,
                    "seed": self.seed,
                    "wall_s": time.perf_counter() - run_start,
                    "end_to_end_traced": {key: value for key, (value, _) in end_to_end.items()},
                    "optimum": self.optimum,
                },
            )
        return result

    def measure(self, setup_times: list[float]):
        solve, gas, verify = Samples(), Samples(), Samples()
        seeds = list(instances.GAS_SEEDS)
        blocks = [seeds[i : i + GAS_BLOCK] for i in range(0, len(seeds), GAS_BLOCK)]
        first_totals = None
        rounds = 0
        longest = 0.0
        solve_seed = self.seed * 1000
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            setup_times.append(measure_setup(self.name, self.seed))

            docs = []
            for _ in range(self.inputs.solves_per_round):
                t0 = time.perf_counter()
                with self.tracer.span("cli.solve", seed=solve_seed):
                    docs.append(self.operation(self.cli_solve, solve_seed))
                solve.add("solve", time.perf_counter() - t0)
                solve_seed += 1

            for _ in range(GAS_PASSES_PER_ROUND):
                results = []
                for b, block in enumerate(blocks):
                    t0 = time.perf_counter()
                    results.extend([self.operation(self.gas_solve, s) for s in block])
                    gas.add(b, time.perf_counter() - t0)
                totals = self.check_gas(results)
                if first_totals is None:
                    first_totals = totals
                elif totals != first_totals:
                    self.errors.append(f"warm GAS counts changed between passes: {totals} vs {first_totals}")

            reports = []
            probabilities = []
            for _ in range(self.inputs.verify_passes_per_round):
                for p, scan in enumerate(self.scans):
                    t0 = time.perf_counter()
                    reports.append((scan, self.operation(self.scan, p, scan)))
                    verify.add(p, time.perf_counter() - t0)
                t0 = time.perf_counter()
                probabilities.append(self.operation(self.statevector))
                verify.add("statevector", time.perf_counter() - t0)

            for doc in docs:
                if doc is not None:
                    self.check(checks.check_solve, self.solve_inst, doc, self.solve_opt, self.costs)
            for scan, report in reports:
                if report is not None:
                    self.check(checks.check_scan, report, scan.states, scan.label)
            for probability in probabilities:
                if probability is not None:
                    self.check(checks.check_probability, probability, self.sv_expected, "statevector")
            rounds += 1

            longest = max(longest, time.perf_counter() - round_start)
            if time.perf_counter() - start + longest / 2 > self.seconds:
                return solve, gas, verify, first_totals, rounds

    # -- operations ----------------------------------------------------------

    def cli_solve(self, seed: int) -> dict:
        cmd = [sys.executable, "-m", "cvrptw_gas.cli", "solve", str(self.instance_path), "--method", "gas"]
        cmd += ["--seed", str(seed)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"solve exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout)

    def gas_solve(self, seed: int) -> grover.GasResult:
        with self.tracer.span("grover.gas_minimize", seed=seed):
            return grover.gas_minimize(self.solve_inst, grover.GasConfig(rng_seed=seed))

    def scan(self, part: int, scan: Scan) -> oracle.ScanReport:
        with self.tracer.span("oracle.equivalence_scan", part=part, states=scan.states):
            return oracle.equivalence_scan(scan.inst, scan.k, indices=scan.indices)

    def statevector(self) -> float:
        with self.tracer.span("grover.statevector_grover", qubits=self.sv_oracle.qubit_count):
            return grover.statevector_grover(self.sv_oracle, ["decision"], self.inputs.sv_rounds)

    def check_gas(self, results) -> dict:
        """Check every warm result; return the pass's exact counts."""
        totals = {"calls": 0, "thresholds": 0, "trials": 0}
        for result in results:
            if result is None:
                continue
            doc = {"cost": result.cost, "routes": result.routes.as_lists(), "trace": result.trace_dict()}
            self.check(checks.check_solve, self.solve_inst, doc, self.solve_opt, self.costs)
            totals["calls"] += result.trace.total_oracle_calls
            totals["thresholds"] += len(result.trace.thresholds)
            totals["trials"] += sum(len(t.trials) for t in result.trace.thresholds)
        return totals

    # -- traced run only -----------------------------------------------------

    def probe_layers(self, scan: Scan) -> None:
        """Time the layers that ``equivalence_scan`` and the set-up hide:
        parse, oracle build, the batch evaluator and the scalar predicate, on
        the first oracle the verification pass scans."""
        with self.tracer.span("instance.parse_instance", calls=PARSE_PROBE_CALLS):
            for _ in range(PARSE_PROBE_CALLS):
                parse_instance(self.inputs.solve_text)
        for _ in range(BUILD_PROBE_CALLS):
            with self.tracer.span("oracle.build_oracle"):
                built = oracle.build_oracle(scan.inst, scan.k)
        bits = grover.search_space(scan.inst).decision_bits
        columns = circuit.columns_from_indices(scan.indices, bits) + [0] * (built.qubit_count - bits)
        for _ in range(BATCH_PROBE_CALLS):
            with self.tracer.span("circuit.eval_basis_batch", states=scan.states):
                circuit.eval_basis_batch(built, columns, scan.states)
        n, b_node = scan.inst.n, register_widths(scan.inst).b_node
        with self.tracer.span("oracle.mark_predicate", calls=scan.states):
            for idx in scan.indices:
                P, y = oracle.unpack_assignment(n, b_node, int(idx))
                oracle.mark_predicate(scan.inst, scan.k, P, y)

    def layer_metrics(self, gas_totals: dict, pass_oracles: list[dict], wall_s: float) -> dict:
        t = self.tracer
        seeds = len(instances.GAS_SEEDS)
        probe = t.named("bench.probe_layers")[0]["id"]

        def probed(name: str) -> list[dict]:
            return [s for s in t.named(name) if s["parent"] == probe]

        def duration(span: dict) -> float:
            return span["end"] - span["start"]

        def upper_by(name: str, key: str) -> float:
            """Sum over ``key`` values of the upper-decile span with that value,
            the estimator of the end-to-end times these spans make up."""
            by_part: dict = defaultdict(list)
            for s in t.named(name):
                by_part[s["counts"][key]].append(duration(s))
            return sum(upper_decile(v) for v in by_part.values())

        def on_solve_instance(name: str) -> float:
            return statistics.median(duration(s) for s in t.named(name) if s["counts"]["n"] == self.solve_inst.n)

        def total(key: str) -> int:
            return sum(o[key] for o in pass_oracles)

        sweep = t.named("grover.feasible_table")[0]
        scanned, kept = sweep["counts"]["rows_scanned"], sweep["counts"]["rows_kept"]
        parse = probed("instance.parse_instance")[0]
        batch_s = statistics.median(duration(s) for s in probed("circuit.eval_basis_batch"))
        predicate = probed("oracle.mark_predicate")[0]
        return {
            "instance.parse_s": (duration(parse) / parse["counts"]["calls"], "s"),
            "grover.sweep_s": (duration(sweep), "s"),
            "grover.sweep_rows_scanned": (scanned, "rows"),
            "grover.sweep_rows_kept": (kept, "rows"),
            "grover.sweep_rows_per_s": (scanned / duration(sweep), "1/s"),
            "grover.sweep_kept_ratio": (kept / scanned, "ratio"),
            "grover.gas_solve_s": (upper_by("grover.gas_minimize", "seed") / seeds, "s"),
            "grover.thresholds": (gas_totals["thresholds"] / seeds, "count"),
            "grover.qsearch_trials": (gas_totals["trials"] / seeds, "count"),
            "grover.statevector_s": (upper_decile(t.durations("grover.statevector_grover")), "s"),
            "oracle.build_s": (statistics.median(duration(s) for s in probed("oracle.build_oracle")), "s"),
            "oracle.uniqueness_gates": (total("uniqueness_gates"), "gates"),
            "oracle.capacity_gates": (total("capacity_gates"), "gates"),
            "oracle.time_gates": (total("time_gates"), "gates"),
            "oracle.cost_gates": (total("cost_gates"), "gates"),
            "oracle.mcx_1": (total("mcx_1"), "gates"),
            "oracle.mcx_2": (total("mcx_2"), "gates"),
            "oracle.mcx_3_4": (total("mcx_3_4"), "gates"),
            "oracle.mcx_5plus": (total("mcx_5plus"), "gates"),
            "oracle.predicate_calls_per_s": (predicate["counts"]["calls"] / duration(predicate), "1/s"),
            "oracle.scan_s": (upper_by("oracle.equivalence_scan", "part"), "s"),
            "circuit.batch_states_per_s": (self.scans[0].states / batch_s, "1/s"),
            "classical.brute_force_s": (on_solve_instance("classical.brute_force_optimum"), "s"),
            "classical.heuristic_s": (on_solve_instance("classical.route_first_cluster_second"), "s"),
            "trace.overhead_pct": (100 * t.bookkeeping_s / wall_s, "%"),
        }
