"""Builders for the reversible arithmetic blocks the marking oracle needs.

Everything is built from the MAJ/UMA ripple-carry pieces of Cuccaro-style
addition, a per-index fan-out encoder, and plain multi-controlled X gates
(X itself is the one with no controls). A pair-matrix lookup is two
one-index fan-outs and a per-pair residual, an XOR-of-products form that is
exact on distinct valid pairs.
Each builder returns a block circuit over absolute qubit indices, just wide
enough for the qubits it touches, so blocks can be concatenated into any
wider host circuit (:meth:`Circuit.extend`) and mirrored for uncomputation.
The ``qubit_count=`` keyword only widens a block that is evaluated on its
own; builders never pass a host's width to each other.

The ripple blocks take one value-range input: the bits their addend can
hold. For ``build_adder`` the caller passes it as ``addend_bits`` (all ones
for a register); the oracle reads it off the gates that write the addend
into its clean scratch pool. A constant adder or comparator takes the
constant it images. From that mask each block works out which carries can
be 1 (those above the lowest settable addend bit, since the seed is clean)
and emits a MAJ/UMA gate only when all its controls can be 1. A mask that
misses a bit the addend can hold breaks the sum.

Ancilla conventions (widths the caller must provide, all returned to zero
unless noted):

* ``build_adder``           1 qubit (carry seed)
* ``build_add_const``       width + 1 (constant image + carry seed)
* ``build_leq_const``/``build_lt_const``  width + 1
* ``build_max_with_const``  2 * width + 1 (constant image + spill + seed);
  the image is cleared, but the spill slice keeps the overwritten register
  value whenever the choice flag fires -- that residue is information the
  overwrite cannot destroy, so only a mirrored uncompute can clear it.
* ``build_pair_neq``        none (``b`` holds ``a XOR b`` in place)
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .circuit import Circuit, CircuitError, Gate, RegisterRef, inverse


def _blank(qubit_count: int | None, *refs: RegisterRef | int) -> Circuit:
    """Empty block circuit wide enough for every referenced qubit."""
    top = 0
    for r in refs:
        top = max(top, r + 1 if isinstance(r, int) else r.stop)
    return Circuit(qubit_count=max(qubit_count or 0, top))


def _maj(c: Circuit, x: int, y: int, z: int, carry: bool, addend: bool) -> None:
    """MAJ of carry ``x``, free bit ``y`` and addend bit ``z``; ``carry`` and
    ``addend`` say whether ``x`` and ``z`` can be 1, and a gate is emitted
    only when all its controls can be."""
    if addend:
        c.cx(z, y)
        c.cx(z, x)
    if carry or addend:
        c.ccx(x, y, z)


def _uma(c: Circuit, x: int, y: int, z: int, carry: bool, addend: bool) -> None:
    """Undo :func:`_maj` and write the sum bit into ``y``, by the same rule."""
    if carry or addend:
        c.ccx(x, y, z)
    if addend:
        c.cx(z, x)
    if carry:
        c.cx(x, y)


def _rungs(seed: int, carry_reg: RegisterRef, other: RegisterRef, bits: int):
    """The MAJ/UMA arguments of each bit of ``carry_reg + other``, low bit
    first, where ``carry_reg`` has no set bit outside ``bits``: the wire of
    the carry in (the seed, then the bit below), the two operand bits, and
    whether the carry and the addend bit can be 1. The seed is clean and
    ``other`` is free, so a carry can rise exactly above an addend bit that
    can be set."""
    for i in range(carry_reg.width):
        x = seed if i == 0 else carry_reg.qubit(i - 1)
        yield x, other.qubit(i), carry_reg.qubit(i), bits % (1 << i) != 0, bool(bits >> i & 1)


def build_adder(
    a: RegisterRef,
    b: RegisterRef,
    ancilla: RegisterRef,
    *,
    addend_bits: int | None = None,
    carry_out: int | None = None,
    qubit_count: int | None = None,
) -> Circuit:
    """In-place modular addition ``b := (b + a) mod 2**width``; ``a`` is restored.

    ``ancilla`` supplies the carry seed (1 qubit, returned to zero). When
    ``carry_out`` is given, that qubit is XORed with the final carry, turning
    the modular sum into an exact two-part result.

    ``addend_bits`` holds every bit ``a`` can have set (all of them when
    None, as for a register); the oracle passes the pool bits its encoder
    writes. A gate is emitted only when all its controls can be 1: MAJ/UMA
    wires of an addend bit that is always 0 are skipped, and so are carries
    below the lowest bit that can be set. The sum is exact only for addends
    inside the mask: a mask that misses a bit ``a`` can hold breaks it.
    """
    if a.width != b.width:
        raise CircuitError("adder operands must have equal widths")
    full = (1 << a.width) - 1
    bits = full if addend_bits is None else addend_bits
    if not 0 <= bits <= full:
        raise CircuitError(f"addend bits {bits} do not fit {a.width} bits")
    extra = [carry_out] if carry_out is not None else []
    c = _blank(qubit_count, a, b, ancilla, *extra)
    rungs = list(_rungs(ancilla.qubit(0), a, b, bits))
    for rung in rungs:
        _maj(c, *rung)
    if carry_out is not None and bits:
        c.cx(a.qubit(a.width - 1), carry_out)
    for rung in reversed(rungs):
        _uma(c, *rung)
    return c


def _load_const(c: Circuit, reg: RegisterRef, k: int) -> None:
    for j in range(reg.width):
        if (k >> j) & 1:
            c.x(reg.qubit(j))


def build_add_const(
    b: RegisterRef,
    k: int,
    ancilla: RegisterRef,
    *,
    qubit_count: int | None = None,
) -> Circuit:
    """``b := (b + k) mod 2**width`` for a classical addend.

    The constant is imaged into the ancilla (width + 1 qubits: value slice
    plus carry seed), added with the ripple adder, then cleared.
    """
    if not 0 <= k < (1 << b.width):
        raise CircuitError(f"constant {k} does not fit {b.width} bits")
    if ancilla.width < b.width + 1:
        raise CircuitError("constant adder needs width + 1 ancilla qubits")
    c = _blank(qubit_count, b, ancilla)
    if k == 0:
        return c
    image = ancilla.slice(0, b.width)
    _load_const(c, image, k)
    c.extend(build_adder(image, b, ancilla.slice(b.width, 1), addend_bits=k))
    _load_const(c, image, k)
    return c


def _carry_flag(c: Circuit, carry_reg: RegisterRef, other: RegisterRef, seed: int, flag: int, bits: int) -> None:
    """flag ^= carry-out of ``carry_reg + other``; both registers restored.
    ``carry_reg`` has no set bit outside ``bits``, which is nonzero."""
    chain = _blank(None, carry_reg, other, seed)
    for rung in _rungs(seed, carry_reg, other, bits):
        _maj(chain, *rung)
    c.extend(chain)
    c.cx(carry_reg.qubit(carry_reg.width - 1), flag)
    c.extend(inverse(chain))


def build_leq_const(
    a: RegisterRef,
    k: int,
    flag: int,
    ancilla: RegisterRef,
    *,
    qubit_count: int | None = None,
) -> Circuit:
    """``flag ^= (a <= k)`` without modifying ``a``.

    Carry-chain subtraction: the carry of ``a + (2**w - 1 - k)`` reads
    ``a > k``, and the flag is set on its negation. Needs width + 1 ancilla
    qubits (complement image + carry seed), all restored.
    """
    w = a.width
    if not 0 <= k < (1 << w):
        raise CircuitError(f"comparison constant {k} does not fit {w} bits")
    c = _blank(qubit_count, a, ancilla, flag)
    m = (1 << w) - 1 - k
    if m == 0:
        c.x(flag)  # nothing exceeds the register maximum
        return c
    if ancilla.width < w + 1:
        raise CircuitError("comparator needs width + 1 ancilla qubits")
    image = ancilla.slice(0, w)
    _load_const(c, image, m)
    _carry_flag(c, image, a, ancilla.qubit(w), flag, m)
    _load_const(c, image, m)
    c.x(flag)
    return c


def build_lt_const(
    a: RegisterRef,
    k: int,
    flag: int,
    ancilla: RegisterRef,
    *,
    qubit_count: int | None = None,
) -> Circuit:
    """``flag ^= (a < k)``; ``k`` may be ``2**width`` to mean "always"."""
    w = a.width
    if not 0 <= k <= (1 << w):
        raise CircuitError(f"comparison constant {k} out of range for {w} bits")
    if k == 0:
        return _blank(qubit_count, a, ancilla, flag)  # nothing is below zero
    return build_leq_const(a, k - 1, flag, ancilla, qubit_count=qubit_count)


def build_lt_register(
    a: RegisterRef,
    b: RegisterRef,
    flag: int,
    seed: RegisterRef,
    *,
    qubit_count: int | None = None,
) -> Circuit:
    """``flag ^= (a < b)`` for two registers; both restored, seed is 1 qubit.

    The carry of ``NOT(a) + b`` is exactly ``b > a``.
    """
    if a.width != b.width:
        raise CircuitError("comparator operands must have equal widths")
    c = _blank(qubit_count, a, b, seed, flag)
    for qb in a.qubits():
        c.x(qb)
    _carry_flag(c, a, b, seed.qubit(0), flag, (1 << a.width) - 1)
    for qb in a.qubits():
        c.x(qb)
    return c


def build_leq_register(
    a: RegisterRef,
    b: RegisterRef,
    flag: int,
    seed: RegisterRef,
    *,
    qubit_count: int | None = None,
) -> Circuit:
    """``flag ^= (a <= b)``: the negation of ``b < a``."""
    c = build_lt_register(b, a, flag, seed, qubit_count=qubit_count)
    c.x(flag)
    return c


def build_max_with_const(
    t: RegisterRef,
    k: int,
    choice: int,
    ancilla: RegisterRef,
    *,
    qubit_count: int | None = None,
) -> Circuit:
    """In-place ``t := max(t, k)`` with ``choice ^= (t < k)``.

    Ancilla layout: ``[0, w)`` images the constant, ``[w, 2w)`` is the spill
    slice, ``2w`` is the comparator seed. Where the flag fires, ``t`` moves
    into the spill, which therefore ends dirty exactly then, and the
    constant is copied into the cleared ``t``.
    """
    w = t.width
    if not 0 <= k < (1 << w):
        raise CircuitError(f"constant {k} does not fit {w} bits")
    c = _blank(qubit_count, t, ancilla, choice)
    if k == 0:
        return c  # max(t, 0) = t
    if ancilla.width < 2 * w + 1:
        raise CircuitError("max gadget needs 2 * width + 1 ancilla qubits")
    image = ancilla.slice(0, w)
    spill = ancilla.slice(w, w)
    _load_const(c, image, k)
    c.extend(build_lt_register(t, image, choice, ancilla.slice(2 * w, 1)))
    for j in range(w):
        c.ccx(choice, t.qubit(j), spill.qubit(j))
    for j in range(w):
        c.ccx(choice, spill.qubit(j), t.qubit(j))
    for j in range(w):
        c.ccx(choice, image.qubit(j), t.qubit(j))
    _load_const(c, image, k)
    return c


def _encode_rows(
    c: Circuit,
    index: Sequence[int],
    rows,
    out: RegisterRef,
    extra: tuple[tuple[int, bool], ...],
) -> None:
    """Append to ``c``: ``out ^= value`` for each ``(code, value)`` row while
    the ``index`` qubits read ``code`` (bit j on ``index[j]``) and every
    ``extra`` control holds: one MCX per set bit of the value, all gates of
    a row sharing one controls tuple. Zero values emit nothing. The caller
    checks that every value fits ``out`` and, once, the control qubits
    against every output bit (:meth:`Circuit.checked_controls`)."""
    targets = tuple(out.qubits())
    polarized = [((q, False), (q, True)) for q in index]
    for code, entry in rows:
        if entry == 0:
            continue
        pattern = (*[pair[code >> j & 1] for j, pair in enumerate(polarized)], *extra)
        c.gates.extend([Gate("mcx", targets[j], pattern) for j in range(entry.bit_length()) if entry >> j & 1])


def _checked_block(
    qubit_count: int | None,
    out: RegisterRef,
    index: Sequence[int],
    controls: Sequence[tuple[int, bool]],
) -> tuple[Circuit, tuple[tuple[int, bool], ...]]:
    """An empty encoder block and its extra ``controls``, checked in one
    pass with the ``index`` qubits against every output bit."""
    c = _blank(qubit_count, out, *index, *(q for q, _ in controls))
    checked = c.checked_controls([*((q, False) for q in index), *controls], tuple(out.qubits()))
    return c, checked[len(index) :]


def build_conditional_encoder(
    idx: RegisterRef,
    table: Sequence[int],
    out: RegisterRef,
    *,
    controls: Sequence[tuple[int, bool]] = (),
    qubit_count: int | None = None,
) -> Circuit:
    """``out ^= table[idx]``: one MCX per set bit of each table entry.

    Every gate carries the full bit pattern of its index as polarity-typed
    controls (plus any extra ``controls``); entries beyond the table default
    to zero, so unlisted index values leave ``out`` untouched.
    """
    if len(table) > (1 << idx.width):
        raise CircuitError("table longer than the index register can address")
    c, extra = _checked_block(qubit_count, out, idx.qubits(), controls)
    for entry in table:
        if not 0 <= entry < (1 << out.width):
            raise CircuitError(f"table value {entry} does not fit {out.width} bits")
    _encode_rows(c, idx.qubits(), enumerate(table), out, extra)
    return c


# Valid indices up to which the row split of a pair lookup is searched over
# all 2^n subsets; an oracle the CLI can check has at most 12 customers.
_SPLIT_SEARCH_CAP = 12


@functools.lru_cache(maxsize=64)
def _row_split(
    matrix: tuple[tuple[int, ...], ...], valid: range, width: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...]]:
    """The split ``M[u][v] = S[u] ^ S[v] ^ R[u][v]`` over distinct valid pairs
    that leaves the fewest gates, as the rows ``(u, S[u])`` and the cells
    ``(u, v, R[u][v])`` that are not zero. Refuses a value that does not fit
    ``width`` bits.

    Per output bit, ``S`` sets the bit on the subset of ``valid`` that
    minimises ``2 * |S| + |R|``. Subsets are tried in the order of the
    binary numbers whose bit i stands for the i-th valid index, and the first
    minimum is taken. The empty subset is a candidate, so the split never
    costs more gates than the per-cell form. Above
    :data:`_SPLIT_SEARCH_CAP` indices every ``S[u]`` is 0."""
    cells = [(u, v, matrix[u][v]) for u in valid for v in valid if u != v]
    for *_, value in cells:
        if not 0 <= value < (1 << width):
            raise CircuitError(f"matrix value {value} does not fit {width} bits")
    m = len(valid)
    top = max((value for *_, value in cells), default=0).bit_length()
    split = dict.fromkeys(valid, 0)
    if m <= _SPLIT_SEARCH_CAP and top:
        planes = np.array([[[matrix[u][v] >> j & 1 for j in range(top)] for v in valid] for u in valid])
        a, b = np.triu_indices(m, 1)
        both = planes[a, b] + planes[b, a]  # per unordered pair and bit: set bits among its two cells
        member = np.arange(1 << m)[:, None] >> np.arange(m) & 1  # per subset: is index i in it
        # Where a pair's two indices take different sides, the S bits flip
        # both of its cells, so c set bits become 2 - c.
        cost = 2 * member.sum(1)[:, None] + both.sum(0) + (member[:, a] ^ member[:, b]) @ (2 - 2 * both)
        best = [int(s) for s in cost.argmin(0)]
        for i, u in enumerate(valid):
            split[u] = sum((s >> i & 1) << j for j, s in enumerate(best))
    rows = tuple((u, row) for u, row in split.items() if row)
    residual = tuple((u, v, r) for u, v, value in cells if (r := value ^ split[u] ^ split[v]))
    return rows, residual


def build_pair_matrix_encoder(
    idx_a: RegisterRef,
    idx_b: RegisterRef,
    matrix: Sequence[Sequence[int]],
    valid: range,
    out: RegisterRef,
    *,
    controls: Sequence[tuple[int, bool]] = (),
    qubit_count: int | None = None,
) -> Circuit:
    """``out ^= matrix[idx_a][idx_b]`` over pairs of distinct valid indices,
    and 0 when the two indices are equal.

    The matrix is split as ``M[u][v] = S[u] ^ S[v] ^ R[u][v]``
    (:func:`_row_split`) and written in three parts, each under the extra
    ``controls``: ``S[idx_a]``, ``S[idx_b]``, and one row of ``R`` per
    distinct valid pair. A repeated index writes ``S[u] ^ S[u] = 0``. An
    index outside ``valid`` has no ``S`` row, so the block writes the other
    index's ``S`` row there: callers need the result only on valid indices.
    """
    c, extra = _checked_block(qubit_count, out, [*idx_a.qubits(), *idx_b.qubits()], controls)
    rows, residual = _row_split(tuple(map(tuple, matrix)), valid, out.width)
    _encode_rows(c, idx_a.qubits(), rows, out, extra)
    _encode_rows(c, idx_b.qubits(), rows, out, extra)
    # The index pattern of a pair is idx_a's bits of u, then idx_b's bits of v.
    cells = ((u | v << idx_a.width, r) for u, v, r in residual)
    _encode_rows(c, [*idx_a.qubits(), *idx_b.qubits()], cells, out, extra)
    return c


def build_pair_neq(
    a: RegisterRef,
    b: RegisterRef,
    flag: int,
    ancilla: RegisterRef | None = None,
    *,
    qubit_count: int | None = None,
) -> Circuit:
    """``flag ^= (a != b)``; both operands end unchanged and no scratch is
    used (``ancilla`` is accepted and ignored).

    XORs ``a`` into ``b``, flips the flag unless every bit of ``b`` reads
    zero, and XORs ``a`` back.
    """
    if a.width != b.width:
        raise CircuitError("pair inequality needs equal widths")
    c = _blank(qubit_count, a, b, flag)
    for j in range(a.width):
        c.cx(a.qubit(j), b.qubit(j))
    c.mcx([(q, False) for q in b.qubits()], flag)  # fires iff a == b
    c.x(flag)
    for j in range(a.width):
        c.cx(a.qubit(j), b.qubit(j))
    return c


def build_and_reduce(flags: Sequence[int], out: int, *, qubit_count: int | None = None) -> Circuit:
    """``out ^= AND(flags)`` as a single MCX with all-positive controls."""
    if not flags:
        raise CircuitError("and-reduce needs at least one flag")
    c = _blank(qubit_count, out, *flags)
    c.mcx([(f, True) for f in flags], out)
    return c
