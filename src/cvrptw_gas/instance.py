"""Problem data model for capacitated routing with per-customer delivery windows.

All quantities are integers: distances, travel times, demands, window bounds
and the vehicle capacity. Integer-only data keeps the classical reference
computations bit-exact with the binary registers of the circuit model.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass


# Every top-level key an instance document may carry, in serialized order.
DOCUMENT_KEYS = ("n", "c_max", "distance", "time", "demands", "windows")
# Most characters of a wrong value that an error message quotes.
_QUOTE_CHARS = 60


class InstanceError(ValueError):
    """Raised for malformed or inconsistent instance documents."""


def bits_for(value: int) -> int:
    """Width of the smallest register that can hold ``value`` (at least 1 bit)."""
    return max(1, int(value).bit_length())


def time_sentinel(n: int, max_travel: int) -> int:
    """Largest value of the time register sized to cover any achievable route time.

    A route visits at most ``n`` customers, so with vacuous windows the clock
    never exceeds ``(n + 1) * max_travel``; the sentinel fills the register
    that holds that bound.
    """
    return (1 << bits_for((n + 1) * max_travel)) - 1


@dataclass(frozen=True)
class Instance:
    """An immutable routing instance over nodes 0..n with node 0 the depot.

    ``D`` and ``T`` are (n+1) x (n+1) and looked up directionally (no symmetry
    is assumed). ``q`` and ``windows`` have length n+1 with a zero/dummy entry
    at index 0 so customer ``i`` indexes as ``q[i]`` and ``windows[i]``.
    """

    n: int
    c_max: int
    D: tuple[tuple[int, ...], ...]
    T: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]
    windows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        side = self.n + 1
        if self.n < 1:
            raise InstanceError("instance needs at least one customer")
        if self.c_max < 1:
            raise InstanceError("vehicle capacity must be positive")
        for label, matrix in (("distance", self.D), ("time", self.T)):
            if len(matrix) != side or any(len(row) != side for row in matrix):
                raise InstanceError(f"{label} matrix is not {side}x{side}")
            for i, row in enumerate(matrix):
                if row[i] != 0:
                    raise InstanceError(f"{label} matrix has nonzero diagonal at {i}")
                if any(v < 0 for v in row):
                    raise InstanceError(f"{label} matrix has a negative entry in row {i}")
        if len(self.q) != side or self.q[0] != 0:
            raise InstanceError("demand vector must have a zero depot entry and one value per customer")
        for i in range(1, side):
            if not 0 < self.q[i] <= self.c_max:
                raise InstanceError(f"demand of customer {i} exceeds capacity (or is nonpositive)")
        if len(self.windows) != side:
            raise InstanceError("window vector must have one entry per node")
        for i, (a, b) in enumerate(self.windows):
            if a < 0 or a > b:
                raise InstanceError(f"window of node {i} is empty or negative")

    @property
    def customers(self) -> range:
        return range(1, self.n + 1)

    @property
    def max_distance(self) -> int:
        return max(v for row in self.D for v in row)

    @property
    def max_travel(self) -> int:
        return max(v for row in self.T for v in row)

    @property
    def windows_vacuous(self) -> bool:
        """True when every window is the defaulted (0, sentinel) pair."""
        sentinel = time_sentinel(self.n, self.max_travel)
        return all(a == 0 and b >= sentinel for a, b in self.windows[1:])


@dataclass(frozen=True)
class RouteSet:
    """Depot-anchored routes; each inner tuple lists customer ids in visit order."""

    routes: tuple[tuple[int, ...], ...]

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.routes]


def decode_assignment(inst: Instance, P, y) -> RouteSet:
    """Cut the tour ``P`` after every position with a set split bit.

    ``y`` must end in 1 so the last route closes at the depot.
    """
    P = list(P)
    y = list(y)
    if len(P) != inst.n or len(y) != inst.n:
        raise InstanceError("tour and split vectors must have one entry per customer")
    if y[-1] != 1:
        raise InstanceError("last split bit must be 1")
    routes: list[tuple[int, ...]] = []
    start = 0
    for i, bit in enumerate(y):
        if bit:
            routes.append(tuple(P[start : i + 1]))
            start = i + 1
    return RouteSet(tuple(routes))


def pack_assignment(n: int, b_node: int, P, y) -> int:
    """Assignment index of a raw decoding: tour entry i in bits
    [i * b_node, (i + 1) * b_node), then split bit i at bit n * b_node + i."""
    idx = 0
    for i, v in enumerate(P):
        idx |= int(v) << (b_node * i)
    for i, bit in enumerate(y):
        idx |= int(bit) << (n * b_node + i)
    return idx


def unpack_assignment(n: int, b_node: int, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    mask = (1 << b_node) - 1
    P = tuple((index >> (b_node * i)) & mask for i in range(n))
    y = tuple((index >> (n * b_node + i)) & 1 for i in range(n))
    return P, y


def quote(value) -> str:
    """``value`` as JSON text for a message, cut after :data:`_QUOTE_CHARS` characters."""
    text = json.dumps(value)
    return text if len(text) <= _QUOTE_CHARS else f"{text[:_QUOTE_CHARS]}... ({len(text):,} characters)"


def _integer(value, label: str) -> int:
    # JSON true/false arrive as bool, a subclass of int; neither they nor
    # floats such as 4.7 may be read as integers.
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(f"{label} must be an integer, not {quote(value)}")
    return value


def _array(value, label: str) -> list:
    if not isinstance(value, list):
        raise InstanceError(f"{label} must be an array, not {quote(value)}")
    return value


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is refused, where
    json.loads would keep its last value without a word."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def parse_instance(text: str) -> Instance:
    """Parse and validate a JSON instance document.

    Defaults: the travel-time matrix falls back to the distance matrix, and
    missing windows become (0, sentinel) which never binds. Every number must
    be a JSON integer, every key of an object unique, and every top-level key
    one of :data:`DOCUMENT_KEYS` (a misspelt optional field would otherwise be
    dropped in silence); anything else of the wrong shape or type raises
    :class:`InstanceError`, quoting a short prefix of the value. So do a
    document nested too deeply to read (a RecursionError in json) and an
    integer longer than ``sys.get_int_max_str_digits()`` allows.
    """
    try:
        return _parse(text)
    except RecursionError as exc:
        raise InstanceError("instance document is nested too deeply") from exc


def _parse(text: str) -> Instance:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    except InstanceError:
        raise
    except ValueError as exc:  # the only other: an integer past Python's digit limit
        raise InstanceError(f"instance document holds an integer of more than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in doc:
        if key not in DOCUMENT_KEYS:
            raise InstanceError(f"unknown field {key!r}; an instance document has only {', '.join(DOCUMENT_KEYS)}")
    for key in ("n", "c_max", "distance", "demands"):
        if key not in doc:
            raise InstanceError(f"missing required field: {key}")
    n = _integer(doc["n"], "n")
    c_max = _integer(doc["c_max"], "c_max")
    if n < 1:
        raise InstanceError("instance needs at least one customer")

    def as_matrix(raw, label: str) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(_integer(v, f"{label} entry") for v in _array(row, f"{label} row")) for row in _array(raw, label)
        )

    D = as_matrix(doc["distance"], "distance")
    T = as_matrix(doc["time"], "time") if doc.get("time") is not None else D
    demands = _array(doc["demands"], "demands")
    if len(demands) != n:
        raise InstanceError("demands must list one value per customer")
    q = (0, *(_integer(v, "demand") for v in demands))

    if doc.get("windows") is not None:
        raw_windows = _array(doc["windows"], "windows")
        if len(raw_windows) != n:
            raise InstanceError("windows must list one [a, b] pair per customer")

        def as_pair(raw) -> tuple[int, int]:
            if len(_array(raw, "window")) != 2:
                raise InstanceError(f"window must be an [a, b] pair, not {quote(raw)}")
            return _integer(raw[0], "window bound"), _integer(raw[1], "window bound")

        pairs = tuple(as_pair(raw) for raw in raw_windows)
    else:
        max_travel = max((v for row in T for v in row), default=0)
        sentinel = time_sentinel(n, max_travel)
        pairs = tuple((0, sentinel) for _ in range(n))
    windows = ((0, max(b for _, b in pairs)), *pairs)
    return Instance(n=n, c_max=c_max, D=D, T=T, q=q, windows=windows)


def serialize_instance(inst: Instance) -> str:
    """Emit the JSON document form; field order is fixed by the format."""
    doc = {
        "n": inst.n,
        "c_max": inst.c_max,
        "distance": [list(row) for row in inst.D],
        "time": [list(row) for row in inst.T],
        "demands": list(inst.q[1:]),
        "windows": [list(w) for w in inst.windows[1:]],
    }
    return json.dumps(doc)


def six_customer_example() -> Instance:
    """The bundled six-customer example used throughout the tests and docs.

    Pure capacity case: capacity 5, no delivery windows, and an asymmetric
    distance matrix (note D[2][6] = 37 while D[6][2] = 32; lookups are
    directional and the matrix is kept exactly as given).
    """
    D = (
        (0, 23, 30, 23, 14, 20, 26),
        (23, 0, 17, 27, 27, 38, 36),
        (30, 17, 0, 21, 40, 46, 37),
        (23, 27, 21, 0, 35, 40, 12),
        (14, 27, 40, 35, 0, 16, 31),
        (20, 38, 46, 40, 16, 0, 33),
        (26, 36, 32, 12, 31, 33, 0),
    )
    doc = {
        "n": 6,
        "c_max": 5,
        "distance": [list(row) for row in D],
        "demands": [2, 3, 1, 3, 2, 3],
    }
    return parse_instance(json.dumps(doc))
