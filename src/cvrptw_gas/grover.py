"""Exact simulation of Grover-amplified threshold search and the adaptive
minimization loop built on it.

Amplification is simulated analytically: with the marked count M known
exactly, the success probability after m rounds is sin^2((2m+1) asin(sqrt(M/N)))
and an ideal measurement lands uniformly on the marked set. The full oracle
needs far more qubits than a dense statevector can hold even for toy
instances, so the statevector path exists only to validate that closed form
on small synthetic oracles, whose marking circuit also reads out the result.
Its Grover iterate is two reflections, each the
:func:`~cvrptw_gas.circuit.phase_kickback` form of a marking circuit: the
oracle itself, and one MCX that marks the all-zero decision pattern, which
between two H layers is the inversion about the mean.

Marked counts come from a classical sweep of the decision space. Malformed
codes (a repeated or out-of-range customer, a clear final split bit) are never
marked, so the sweep visits only the n! * 2^(n-1) well-formed candidates, a
tour times a split vector ending in 1, while N stays 2^decision_bits. It is
vectorized over blocks of tours and cached per instance as a (feasible index,
cost) table sorted by index; every threshold count and every uniform
marked-state draw derives from that one table. A candidate cap of
:data:`CANDIDATE_CAP` admits n <= 8 (5,160,960 candidates) and refuses n = 9
before anything is allocated. The same block loop runs the distinct tours of
any set of assignment indices for :func:`reference_marks`, the vectorized
twin that :func:`cvrptw_gas.oracle.equivalence_scan` checks the circuit
against. The scalar :func:`cvrptw_gas.oracle.mark_predicate` and
:func:`cvrptw_gas.classical.feasible_and_cost` stay the ground truths the
sweep is tested against.

The random draws of a seeded solve come from :class:`Draws`, which reads raw
words from ``np.random.PCG64(seed)``, the bit generator that
``np.random.default_rng(seed)`` wraps. Its bounded ints and floats equal
``Generator.integers(0, h)`` and ``Generator.random()`` bit for bit, so the
traces replay the ``default_rng(seed)`` draws; a differential test holds this
on every NumPy that CI runs, the 1.21.3 floor included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, check_statevector_size, eval_statevector, phase_kickback
from .classical import InfeasibleError, feasible_and_cost
from .instance import Instance, RouteSet, decode_assignment, unpack_assignment
from .resources import cost_upper_bound, max_window_close, register_widths

# Most well-formed candidates the sweep takes: n = 8 has 5,160,960, n = 9 has 92,897,280.
CANDIDATE_CAP = 1 << 23
# (tour, split) cells per sweep block; bounds the working memory beside the kept table.
_BLOCK_ROWS = 1 << 18
# The sweep holds costs, loads and clocks in int64.
_SWEEP_VALUE_CAP = np.iinfo(np.int64).max
# Growth factor of the exponential search schedule (Boyer, Brassard, Hoyer and
# Tapp, quant-ph/9605034); any value strictly between 1 and 4/3 keeps its
# expected cost O(sqrt(N/M)).
GROWTH_FACTOR = 8 / 7


class BudgetExhaustedError(RuntimeError):
    """The oracle-call budget ran out before the search could finish."""


@dataclass(frozen=True)
class SearchSpace:
    decision_bits: int

    @property
    def N(self) -> int:
        return 1 << self.decision_bits


def search_space(inst: Instance) -> SearchSpace:
    return SearchSpace(inst.n * register_widths(inst).b_node + inst.n)


@dataclass(frozen=True)
class GasConfig:
    rng_seed: int
    max_oracle_calls: int | None = None
    initial_k: int | None = None


def success_probability(N: int, M: int, m: int) -> float:
    """Probability that m Grover rounds over N states with M marked succeed."""
    if not 0 <= M <= N or N < 1 or m < 0:
        raise ValueError("need 0 <= M <= N, N >= 1, m >= 0")
    return _amplified(_grover_angle(N, M), m)


def _grover_angle(N: int, M: int) -> float:
    """theta with sin^2(theta) = M/N, the marked share of the search space."""
    return math.asin(math.sqrt(M / N))


def _amplified(theta: float, m: int) -> float:
    """sin^2((2m + 1) theta): the success probability after m Grover rounds."""
    return math.sin((2 * m + 1) * theta) ** 2


# ---------------------------------------------------------------------------
# Exact marked counts via a vectorized sweep of the well-formed candidates


def candidate_count(n: int) -> int:
    """Well-formed assignments of n customers: n! tours times the 2^(n-1)
    split vectors whose final bit is set."""
    return math.factorial(n) << (n - 1)


def check_sweep_range(inst: Instance) -> None:
    """Refuse an instance whose sweep values could pass the int64 range: the
    cost bound 2n * max D, the load n * c_max and, unless the windows are
    vacuous (the sweep then skips the clock), the clock max close + n * max T.
    Every matrix entry, demand and window bound the sweep reads is at most
    one of these."""
    peaks = {"cost bound": cost_upper_bound(inst), "load": inst.n * inst.c_max}
    if not inst.windows_vacuous:
        peaks["clock"] = max_window_close(inst) + inst.n * inst.max_travel
    for what, peak in peaks.items():
        if peak > _SWEEP_VALUE_CAP:
            raise ValueError(f"the sweep's {what} can reach {peak}, past the 64-bit limit of {_SWEEP_VALUE_CAP}")


def _feasible_block(inst: Instance, tours: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(feasible mask, cost) for a block of tours under every split vector.

    Row r is tour ``tours[r]``. Column j holds the interior split bits
    y[i] = (j >> i) & 1; the final bit is always set. The split axis doubles
    at each position, once y[i - 1] is known: its lower half continues the
    route (y[i - 1] = 0), its upper half returns through the depot first.
    """
    n = inst.n
    q = np.asarray(inst.q, dtype=np.int64)
    D = np.asarray(inst.D, dtype=np.int64)
    first = tours[:, :1]
    load = q[first]
    ok = load <= inst.c_max
    cost = D[0, first]
    timed = not inst.windows_vacuous
    if timed:
        T = np.asarray(inst.T, dtype=np.int64)
        opening = np.asarray([a for a, _ in inst.windows], dtype=np.int64)
        closing = np.asarray([b for _, b in inst.windows], dtype=np.int64)
        clock = np.maximum(opening[first], T[0, first])
        ok &= clock <= closing[first]
    for i in range(1, n):
        prev, node = tours[:, i - 1 : i], tours[:, i : i + 1]
        load = q[node] + np.concatenate([load, np.zeros_like(load)], axis=1)
        ok = np.concatenate([ok, ok], axis=1) & (load <= inst.c_max)
        if timed:
            arrive = np.concatenate([clock + T[prev, node], np.broadcast_to(T[0, node], clock.shape)], axis=1)
            clock = np.maximum(opening[node], arrive)
            ok &= clock <= closing[node]
        cost = np.concatenate([cost + D[prev, node], cost + D[prev, 0] + D[0, node]], axis=1)
    return ok, cost + D[tours[:, -1:], 0]


@dataclass(frozen=True)
class FeasibleTable(SearchSpace):
    """Indices and costs of every feasible assignment of one instance."""

    indices: np.ndarray
    costs: np.ndarray

    def count(self, k) -> int:
        return int((self.costs < k).sum())


def _sweep_blocks(inst: Instance, tours: np.ndarray):
    """``(start, ok, cost)`` for consecutive blocks of ``tours`` (one tour per
    row) of at most :data:`_BLOCK_ROWS` (tour, split) cells each; ``ok`` and
    ``cost`` are :func:`_feasible_block` of ``tours[start : start + len(ok)]``."""
    check_sweep_range(inst)
    per_block = max(1, _BLOCK_ROWS >> (inst.n - 1))
    for start in range(0, len(tours), per_block):
        yield (start, *_feasible_block(inst, tours[start : start + per_block]))


def tour_keys(tours: np.ndarray, b_node: int) -> np.ndarray:
    """The tour half of each row's assignment index: entry i of a row of
    ``tours`` (int64) in bits [i * b_node, (i + 1) * b_node)."""
    return np.bitwise_or.reduce(tours << (b_node * np.arange(tours.shape[1], dtype=np.int64)), axis=1)


@lru_cache(maxsize=8)
def feasible_table(inst: Instance) -> FeasibleTable:
    n = inst.n
    candidates = candidate_count(n)
    if candidates > CANDIDATE_CAP:
        raise ValueError(f"{candidates} well-formed candidates (n={n}) exceed the candidate cap of {CANDIDATE_CAP}")
    b_node = register_widths(inst).b_node
    tours = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    keys = tour_keys(tours, b_node)
    splits = (np.arange(1 << (n - 1), dtype=np.int64) | (1 << (n - 1))) << (n * b_node)
    kept_idx = []
    kept_cost = []
    for start, ok, cost in _sweep_blocks(inst, tours):
        rows, cols = np.nonzero(ok)
        kept_idx.append(keys[start + rows] | splits[cols])
        kept_cost.append(cost[rows, cols])
    indices, costs = np.concatenate(kept_idx), np.concatenate(kept_cost)
    del kept_idx, kept_cost  # an n = 8 table can keep 5 M rows; sort without the block copies
    order = np.argsort(indices)
    return FeasibleTable(
        decision_bits=search_space(inst).decision_bits,
        indices=indices[order],
        costs=costs[order],
    )


def reference_marks(inst: Instance, k, indices) -> np.ndarray:
    """Vectorized twin of :func:`cvrptw_gas.oracle.mark_predicate` over
    assignment indices.

    An index is well-formed when its tour codes are a permutation of the
    customers and its final split bit is set; malformed ones are unmarked.
    The distinct well-formed tours run through the sweep's recurrences, and
    an index is marked when its split column is feasible and costs less than
    ``k``.
    """
    n = inst.n
    b_node = register_widths(inst).b_node
    code_mask = (1 << b_node) - 1
    tour_bits = n * b_node
    shifts = b_node * np.arange(n, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    # n codes cover exactly the customers 1..n when their one-hot bits do.
    seen = np.zeros_like(indices)
    for shift in shifts.tolist():
        seen |= 1 << ((indices >> shift) & code_mask)
    formed = (seen == (1 << (n + 1)) - 2) & ((indices >> (tour_bits + n - 1)) & 1 == 1)
    rows = np.flatnonzero(formed)
    keys, tour_of = np.unique(indices[rows] & ((1 << tour_bits) - 1), return_inverse=True)
    split_col = (indices[rows] >> tour_bits) & ((1 << (n - 1)) - 1)
    marks = np.zeros(len(indices), dtype=bool)
    for start, ok, cost in _sweep_blocks(inst, (keys[:, None] >> shifts) & code_mask):
        sel = (tour_of >= start) & (tour_of < start + len(ok))
        r, c = tour_of[sel] - start, split_col[sel]
        marks[rows[sel]] = ok[r, c] & (cost[r, c] < k)
    return marks


# ---------------------------------------------------------------------------
# Threshold search and adaptive minimization

# Raw 64-bit words a Draws stream takes from its bit generator at a time.
_WORD_BLOCK = 256
_U32_MASK = 0xFFFFFFFF


class Draws:
    """The random draws of one seeded solve, taken from raw PCG64 words.

    ``np.random.default_rng(seed)`` wraps ``np.random.PCG64(seed)``; this
    stream holds that bit generator, reads its words :data:`_WORD_BLOCK` at a
    time with ``random_raw``, and returns exactly what the ``Generator``
    would, bit for bit, without its per-call cost:

    * :meth:`below` equals ``Generator.integers(0, h)``: Lemire's bounded draw
      on 32-bit halves. A word serves two halves, low half first, and the
      spare half waits for the next :meth:`below`.
    * :meth:`random` equals ``Generator.random()``: the top 53 bits of a whole
      word, which leaves any spare half alone.

    Words read ahead of use belong to this stream alone, so a stream must not
    be shared with anything that reads the same bit generator.
    """

    __slots__ = ("_bits", "_words", "_spare")

    def __init__(self, seed: int) -> None:
        self._bits = np.random.PCG64(seed)
        self._words: list[int] = []  # unread words of the block, last one next
        self._spare: int | None = None  # high half of a word whose low half was drawn

    def _word(self) -> int:
        if not self._words:
            self._words = self._bits.random_raw(_WORD_BLOCK).tolist()
            self._words.reverse()
        return self._words.pop()

    def _half(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        word = self._word()
        self._spare = word >> 32
        return word & _U32_MASK

    def below(self, h: int) -> int:
        """A uniform int in [0, h), for 1 <= h < 2^32; h = 1 draws nothing."""
        if not 1 <= h <= _U32_MASK:
            raise ValueError(f"below needs 1 <= h < 2**32 = {_U32_MASK + 1}, got {h}")
        if h == 1:
            return 0
        m = self._half() * h
        if m & _U32_MASK < h:
            threshold = (_U32_MASK + 1 - h) % h
            while m & _U32_MASK < threshold:
                m = self._half() * h
        return m >> 32

    def random(self) -> float:
        """A uniform float in [0, 1) with 53 random bits."""
        return (self._word() >> 11) * 2.0**-53


@dataclass(frozen=True)
class ThresholdRecord:
    """One threshold's exponential-search pass. Each trial is an exact
    ``(m, success)`` tuple of an int and a bool, not a record class: the
    cyclic garbage collector untracks such a tuple at its first collection,
    while a dataclass instance (slotted or not) stays tracked, and a caller
    that keeps many traces would have every later collection walk each
    trial again."""

    k: int
    M: int
    trials: tuple[tuple[int, bool], ...]
    oracle_calls: int


def qsearch(
    inst: Instance,
    k: int,
    cfg: GasConfig,
    draws: Draws,
    *,
    calls_before: int = 0,
) -> tuple[ThresholdRecord, tuple[int, int] | None]:
    """One exponential-search pass at a fixed threshold: the record of its
    trials and the ``(assignment index, cost)`` it measured, or None when
    nothing costs less than ``k``.

    Each trial draws a round count m below the current bound, succeeds with
    the exact closed-form probability, and costs m oracle calls; it is
    recorded as an ``(m, success)`` tuple (see :class:`ThresholdRecord`). On
    success the measurement is a uniform marked assignment, one draw over
    the table rows that cost less than ``k``. Every draw comes from the
    solve's :class:`Draws` stream, whose ``below(h)`` and ``random()`` equal
    ``Generator.integers(0, h)`` and ``Generator.random()`` bit for bit on
    the same seed; h is at most max(ceil(sqrt N), M), which is at most 2^23
    under :data:`CANDIDATE_CAP`. An empty marked set is certified
    immediately from the exact count. Raises
    :class:`BudgetExhaustedError` once ``calls_before`` plus this pass's
    calls reach ``cfg.max_oracle_calls`` without a success.
    """
    table = feasible_table(inst)
    N = table.N
    rows = np.flatnonzero(table.costs < k)
    M = len(rows)
    if M == 0:
        return ThresholdRecord(k, 0, (), 0), None
    theta = _grover_angle(N, M)
    sqrt_n = math.sqrt(N)
    bound = 1.0
    trials: list[tuple[int, bool]] = []
    calls = 0
    while True:
        m = draws.below(math.ceil(bound))
        calls += m
        hit = draws.random() < _amplified(theta, m)
        trials.append((m, hit))
        if hit:
            row = rows[draws.below(M)]
            return ThresholdRecord(k, M, tuple(trials), calls), (int(table.indices[row]), int(table.costs[row]))
        bound = min(GROWTH_FACTOR * bound, sqrt_n)
        if cfg.max_oracle_calls is not None and calls_before + calls >= cfg.max_oracle_calls:
            raise BudgetExhaustedError(f"oracle-call budget {cfg.max_oracle_calls} exhausted at threshold {k}")


@dataclass(frozen=True)
class SearchTrace:
    seed: int
    thresholds: tuple[ThresholdRecord, ...]

    @property
    def total_oracle_calls(self) -> int:
        return sum(t.oracle_calls for t in self.thresholds)


@dataclass(frozen=True)
class GasResult:
    P: tuple[int, ...]
    y: tuple[int, ...]
    cost: int
    routes: RouteSet
    trace: SearchTrace

    def trace_dict(self) -> dict:
        thresholds = [
            {
                "k": t.k,
                "M": t.M,
                "trials": [{"m": m, "success": hit} for m, hit in t.trials],
                "oracle_calls": t.oracle_calls,
            }
            for t in self.trace.thresholds
        ]
        best = {"P": list(self.P), "y": list(self.y), "cost": self.cost, "routes": self.routes.as_lists()}
        return {"seed": self.trace.seed, "thresholds": thresholds, "best": best}


def _initial_threshold(inst: Instance) -> int:
    """Cost of the everyone-gets-a-vehicle tour plus one, when feasible;
    otherwise just above the cost bound so every feasible assignment counts."""
    identity = tuple(range(1, inst.n + 1))
    ones = (1,) * inst.n
    report = feasible_and_cost(inst, identity, ones)
    if report.feasible:
        return report.cost + 1
    return cost_upper_bound(inst) + 1


def gas_minimize(inst: Instance, cfg: GasConfig) -> GasResult:
    """Adaptive minimization: threshold search, lower the threshold to each
    newly found cost, stop at a certified empty marked set.

    With exact counts the final certification means no assignment beats the
    last threshold, so the returned cost is the global optimum.
    """
    draws = Draws(cfg.rng_seed)
    k = cfg.initial_k if cfg.initial_k is not None else _initial_threshold(inst)
    records: list[ThresholdRecord] = []
    best_index: int | None = None
    calls = 0
    while True:
        record, found = qsearch(inst, k, cfg, draws, calls_before=calls)
        records.append(record)
        calls += record.oracle_calls
        if found is None:
            break
        best_index, k = found
    if best_index is None:
        if cfg.initial_k is not None:
            raise InfeasibleError(f"no feasible solution costs less than the initial threshold {cfg.initial_k}")
        raise InfeasibleError("no feasible solution exists")
    P, y = unpack_assignment(inst.n, register_widths(inst).b_node, best_index)
    routes = decode_assignment(inst, P, y)
    return GasResult(P, y, k, routes, SearchTrace(cfg.rng_seed, tuple(records)))


# ---------------------------------------------------------------------------
# Statevector cross-validation on toy oracles


def synthetic_marking_oracle(decision_bits: int, marked_patterns) -> Circuit:
    """A toy oracle over ``decision_bits`` qubits: one MCX per marked pattern
    flips the output qubit."""
    c = Circuit()
    decision = c.add_register("decision", decision_bits)
    marked = c.add_register("marked", 1)
    for pattern in marked_patterns:
        controls = [(decision.qubit(j), bool((pattern >> j) & 1)) for j in range(decision_bits)]
        c.mcx(controls, marked.qubit(0))
    return c


def statevector_grover(oracle: Circuit, decision_registers, m: int) -> float:
    """Measured probability of the marked decision patterns after m rounds.

    ``oracle`` must be a marking circuit (permutation gates only) with a
    one-qubit ``marked`` register that returns every other non-decision qubit
    to zero; ``decision_registers`` names the registers spanning the search
    space. The uniform superposition is prepared over those qubits. Each
    round is two :func:`~cvrptw_gas.circuit.phase_kickback` reflections: the
    phase oracle, then H on the decision qubits, the phase form of one MCX
    that flips ``marked`` when every decision qubit is 0, and H again, which
    is I - 2|s><s| (the inversion about the mean, up to a global sign). The
    rounds leave the work qubits and ``marked`` at zero. The readout applies
    the marking circuit once more and returns the probability that
    ``marked`` reads 1. Every gate is simulated on a real state (all its
    gates have real matrices). An oracle over more than
    :data:`~cvrptw_gas.circuit.STATEVECTOR_QUBIT_CAP` qubits is refused before
    anything is allocated.
    """
    nq = oracle.qubit_count
    check_statevector_size(nq)
    decision_qubits: list[int] = []
    for name in decision_registers:
        decision_qubits.extend(oracle.registers[name].qubits())
    out = oracle.registers["marked"].qubit(0)

    phase = phase_kickback(oracle)
    zero = Circuit(nq, dict(oracle.registers))
    zero.mcx([(q, False) for q in decision_qubits], out)
    reflect_zero = phase_kickback(zero)
    g = Circuit(nq, dict(oracle.registers))
    for q in decision_qubits:
        g.h(q)
    for _ in range(m):
        g.extend(phase)
        for q in decision_qubits:
            g.h(q)
        g.extend(reflect_zero)
        for q in decision_qubits:
            g.h(q)
    g.extend(oracle)

    start = np.zeros(1 << nq)
    start[0] = 1.0
    state = eval_statevector(g, start).reshape((2,) * nq)
    marked = state[(slice(None),) * (nq - 1 - out) + (1,)]  # qubit q is axis nq - 1 - q
    return float(np.sum(np.square(marked, out=marked)))  # the state is real: |amplitude|^2 is its square
