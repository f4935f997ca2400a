"""Weight enumerators of additive codes and their exact linear transforms.

Three granularities: a count vector over the blocks of one partition, a
sparse joint distribution over per-coordinate block indices for product
partitions, and a sparse distribution over composition vectors for
symmetrized partitions. Each transform recovers the dual code's distribution
from the primal one, divided exactly by the code size; a non-integer or
irrational count raises, since only a wrong pairing of partitions gives one.
The enumerators read a code by coordinate columns, with ``map``s for ranks
and block indices and one ``Counter`` for the keys, in first-seen order.

Exactness: every transform sums products of entries in Z[z], z a primitive
root of order E, and Z[z] = Z^phi(E) through the canonical basis. A value is
phi integer planes, one per power z^i, and multiplying by an entry x is
Z-linear: plane i gains a times plane k, a the coefficient of z^i in x z^k
(``zeta_coeff_table`` rows). So every sum is an integer sum, exact. The
action is lazy: a row is read only when a nonzero value meets it, and the
column for x z^k only for a plane k that holds a nonzero value, once per
(x, k) in a call; column 0 is x itself. Rational matrices alone use one
plane, on which a rational x acts by itself; two irrational orders are
rejected. A nonzero value on a plane i >= 1 at the end is an irrational count.

Product: the matrix is the Kronecker product of the factor matrices, so the
dual count at l is sum_m A(m) prod_i K_i[m_i][l_i] / |C|, which
distributivity regroups one factor at a time. A sits on a dense row-major
grid over the factor rows, within the guard's prod_i max(rows_i, cols_i)
cells. A step, ``_grid_step``, contracts the outermost axis and writes the
column axis innermost, stride cols, so the cells end in sorted key order;
each coefficient of an action is one ``map`` over a slice. A state holds at
most phi(E) times the guard integers. The linear
transform is one step on a one-axis grid whose plane 0 is the counts: rows
x phi integers, which the matrix guard bounds. ``kk_product_check`` lays the
planes of K' on a grid with l outermost and r inner, and one step by K
leaves K'K on (r, m).

Symmetrized: a composition s expands to its sorted representative key m; by
the symmetrization theorem K_sym[s][t] = sum of prod_i K[m_i][l_i] over all l
with comp(l) = t, for any m with comp(m) = s. Step i reads only key[i] and
the end only the composition of the contracted prefix, so sorting the prefix
after each step and merging equal keys is exact. The state is phi sparse
planes, each a dict of key -> int, within (input keys) x C(copies + cols -
1, cols - 1) keys; the guard bounds the binomial.

Orientation conventions, fixed once:

- linear: with Q a partition of the character carrier and P its dual on the
  primal side, the matrix is krawtchouk(Q, P), rows indexed by P-blocks, so
  the dual distribution is counts(P) . matrix / |C|.
- product and symmetrized: each factor uses krawtchouk(dual(P_i), P_i), rows
  indexed by P_i-blocks m and columns by dual-blocks l, so each primal
  indeterminate expands as sum_l K[m][l] * (dual indeterminate l). The factor
  partitions must be reflexive for the dual side to be a partition pair again.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import compress, product, repeat
from math import comb, prod
from operator import add, floordiv, mod, mul, sub
from typing import Iterable, Iterator, Sequence

from .cyclotomic import euler_phi, zeta_coeff_table
from .errors import GuardExceeded, InputError, VerificationFailure
from .group import ELEMENT_GUARD, Code
from .induced import product_group
from .partition import KrawtchoukMatrix, Partition, dual_partition, krawtchouk

@dataclass(frozen=True)
class LinearEnumerator:
    """Count of code elements per block of one partition."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass
class ProductEnumerator:
    """Sparse joint count over per-coordinate block index tuples."""

    counts: dict[tuple[int, ...], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class SymmetrizedEnumerator:
    """Sparse count over composition vectors of the base partition."""

    counts: dict[tuple[int, ...], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def linear_enumerator(code: Code, part: Partition) -> LinearEnumerator:
    if code.group != part.group:
        raise InputError("code and partition must share a carrier")
    counts = Counter(_block_keys(code, [part]))
    return LinearEnumerator(tuple(counts[(b,)] for b in range(part.num_blocks)))


def _exact_count(cell: Sequence[int], divisor: int) -> int:
    """A value given by its planes, divided exactly; only plane 0 may be nonzero."""
    if any(cell[1:]):
        raise VerificationFailure("transform produced an irrational value")
    q, r = divmod(cell[0], divisor)
    if r != 0:
        raise VerificationFailure("transform result is not divisible by the code size")
    if q < 0:
        raise VerificationFailure("transform produced a negative count")
    return q


def _finish(planes: Sequence[dict], code_size: int) -> dict[tuple[int, ...], int]:
    """Sparse planes divided exactly by the code size, keys sorted, zero counts dropped."""
    keys = sorted(set().union(*planes))
    counts = {k: _exact_count([p.get(k, 0) for p in planes], code_size) for k in keys}
    return {k: c for k, c in counts.items() if c}


def _grid_counts(planes: list[list[int]], code_size: int) -> list[int]:
    """Dense planes divided exactly by the code size; the first failing cell raises."""
    values = planes[0]
    if any(map(any, planes[1:])) or any(map(mod, values, repeat(code_size))) or min(values) < 0:
        deque(map(_exact_count, zip(*planes), repeat(code_size)), 0)
    return list(map(floordiv, values, repeat(code_size)))


def _root_order(matrices: Iterable[KrawtchoukMatrix]) -> int:
    """The one root order of the irrational matrices, 1 if every matrix is rational."""
    irrational = []
    for k in matrices:
        try:
            k.integer_entries()
        except VerificationFailure:
            irrational.append(k.order)
    orders = list(dict.fromkeys(irrational))
    if len(orders) > 1:
        raise InputError(f"mixed root orders {orders[0]} and {orders[1]}; "
                         "lift with change_order first")
    return orders[0] if orders else 1


class _Action(dict):
    """The action of a nonzero entry x: column k lists the (i, a) with which plane i gains
    a times plane k, the nonzero coefficients of x z^k, built on first use."""

    def __init__(self, x: tuple[int, ...], order: int) -> None:
        self.x, self.order = x, order

    def __missing__(self, k: int) -> tuple[tuple[int, int], ...]:
        x, column = self.x, self.x
        if k:
            column, table = [0] * len(x), zeta_coeff_table(self.order)
            for j in filter(x.__getitem__, range(len(x))):
                for i, v in zip(*table[(j + k) % self.order]):
                    column[i] += x[j] * v
        self[k] = terms = tuple((i, a) for i, a in enumerate(column) if a)
        return terms


class _Rows(dict):
    """Row m of ``matrix`` as (l, action) for each nonzero entry x, read on first use;
    equal entries share one action through ``cache``."""

    def __init__(self, matrix: KrawtchoukMatrix, order: int, cache: dict) -> None:
        self.matrix, self.order, self.cache = matrix, order, cache

    def __missing__(self, m: int) -> list[tuple[int, _Action]]:
        stride, width = euler_phi(self.matrix.order), euler_phi(self.order)
        n = min(stride, width)  # a rational matrix of another order pads with zeros
        row, pad, out = self.matrix.rows[m], (0,) * (width - n), []
        for j in range(0, len(row), stride):
            x = tuple(row[j:j + n]) + pad
            if any(x):
                if x not in self.cache:
                    self.cache[x] = _Action(x, self.order)
                out.append((j // stride, self.cache[x]))
        self[m] = out
        return out


def _grid_step(planes: list[list[int]], rows: _Rows) -> list[list[int]]:
    """Contract the outermost grid axis by one matrix; its column axis becomes innermost.
    A row is read only when the slice it acts on is nonzero."""
    height, cols = rows.matrix.shape
    t = len(planes[0]) // height
    live = [(k, p) for k, p in enumerate(planes) if any(p)]
    sums: list[list] = [[None] * cols for _ in planes]  # sums[i][l]: column l of plane i
    for m in range(height):
        cut = [(k, values) for k, p in live if any(values := p[m * t:(m + 1) * t])]
        for l, action in rows[m] if cut else ():
            for k, values in cut:
                for i, a in action[k]:
                    acc = sums[i][l]
                    if acc is None:
                        sums[i][l] = values if a == 1 else list(map(mul, values, repeat(a)))
                    elif a == 1 or a == -1:
                        sums[i][l] = list(map(add if a == 1 else sub, acc, values))
                    else:
                        sums[i][l] = list(map(add, acc, map(mul, values, repeat(a))))
    out = [[0] * (t * cols) for _ in planes]
    for plane, columns in zip(out, sums):
        for l in filter(columns.__getitem__, range(cols)):
            plane[l::cols] = columns[l]
    return out


def macwilliams_transform(
    enum: LinearEnumerator, matrix: KrawtchoukMatrix, code_size: int
) -> LinearEnumerator:
    """Dual distribution counts(P) . matrix / code_size, exactly.

    ``matrix`` must be krawtchouk(Q, P) for the character-side partition Q
    whose dual P indexed ``enum``; its rows then line up with the counts.
    """
    rows, cols = matrix.shape
    if rows != len(enum.counts):
        raise InputError(f"matrix has {rows} rows but the enumerator has "
                         f"{len(enum.counts)} counts")
    if code_size <= 0:
        raise InputError("code size must be positive")
    order = _root_order([matrix])
    planes = [list(enum.counts)] + [[0] * rows for _ in range(euler_phi(order) - 1)]
    planes = _grid_step(planes, _Rows(matrix, order, {}))
    return LinearEnumerator(tuple(_grid_counts(planes, code_size)))


# ---------------------------------------------------------------------------
# product partitions


def _block_keys(code: Code, parts: Sequence[Partition]) -> Iterator[tuple[int, ...]]:
    """Each word's per-factor block indices, in word order: a factor's row-major
    rank is formed from its coordinate columns, then looked up."""
    words = code.elements
    coords, blocks = zip(*words), []
    for p in parts:
        orders = p.group.orders
        ranks: Iterable[int] = next(coords) if orders else repeat(0, len(words))
        for n in orders[1:]:
            ranks = map(add, map(mul, ranks, repeat(n)), next(coords))
        blocks.append(map(p.block_of.__getitem__, ranks))
    return zip(*blocks) if blocks else repeat((), len(words))


def product_enumerator(code: Code, parts: Sequence[Partition]) -> ProductEnumerator:
    """Joint distribution of per-coordinate block indices over the code."""
    if code.group != product_group([p.group for p in parts]):
        raise InputError("code carrier must be the product of the factor carriers")
    return ProductEnumerator(dict(Counter(_block_keys(code, parts))))


def product_transform(
    enum: ProductEnumerator,
    matrices: Sequence[KrawtchoukMatrix],
    code_size: int,
    max_size: int = ELEMENT_GUARD,
) -> ProductEnumerator:
    """Dual joint distribution, contracting one factor axis of a dense grid at a time.

    Each matrix must be krawtchouk(dual(P_i), P_i) for the i-th factor, so that row m
    expands the primal indeterminate for block m over the dual blocks. The irrational
    matrices must share one root order.
    """
    if code_size <= 0:
        raise InputError("code size must be positive")
    if not matrices:
        raise InputError("need one matrix per coordinate")
    if set(map(len, enum.counts)) - {len(matrices)}:
        raise InputError("enumerator key length does not match the matrices")
    size = prod(max(k.shape) for k in matrices)
    if size > max_size:
        raise GuardExceeded(f"product transform has {size} keys, above the guard of {max_size}")
    distinct = {id(k): k for k in matrices}
    order = _root_order(distinct.values())
    rows = [k.shape[0] for k in matrices]
    columns = list(zip(*enum.counts))
    if any(min(c) < 0 or max(c) >= r for c, r in zip(columns, rows)):
        raise InputError("enumerator key is out of range of the matrix rows")
    index: Iterable[int] = columns[0] if columns else ()
    for c, r in zip(columns[1:], rows[1:]):
        index = map(add, map(mul, index, repeat(r)), c)
    planes = [[0] * prod(rows) for _ in range(euler_phi(order))]
    deque(map(planes[0].__setitem__, index, enum.counts.values()), 0)
    cache: dict[tuple[int, ...], _Action] = {}
    actions = {i: _Rows(k, order, cache) for i, k in distinct.items()}
    for k in matrices:
        planes = _grid_step(planes, actions[id(k)])
    counts = _grid_counts(planes, code_size)
    keys = compress(product(*(range(k.shape[1]) for k in matrices)), counts)
    return ProductEnumerator(dict(zip(keys, compress(counts, counts))))


# ---------------------------------------------------------------------------
# symmetrized partitions


def symmetrized_enumerator(code: Code, base: Partition, copies: int) -> SymmetrizedEnumerator:
    """Distribution of composition vectors over the code. A word's sorted block
    indices fix its composition; each distinct sorted tuple is converted once."""
    if code.group != product_group([base.group] * copies):
        raise InputError("code carrier must be the matching power of the base carrier")
    words = Counter(map(tuple, map(sorted, _block_keys(code, [base] * copies))))
    blocks = range(base.num_blocks)
    return SymmetrizedEnumerator({tuple(map(key.count, blocks)): c for key, c in words.items()})


def symmetrized_transform(
    enum: SymmetrizedEnumerator,
    matrix: KrawtchoukMatrix,
    code_size: int,
    max_size: int = ELEMENT_GUARD,
) -> SymmetrizedEnumerator:
    """Dual composition distribution, contracting sorted representative keys.

    ``matrix`` must be krawtchouk(dual(P), P) of a reflexive base partition.
    Every composition must have nonnegative parts summing to the same positive
    number of copies.
    """
    if code_size <= 0:
        raise InputError("code size must be positive")
    rows, cols = matrix.shape
    if any(len(key) != rows for key in enum.counts):
        raise InputError("composition length does not match the matrix rows")
    if any(s < 0 for key in enum.counts for s in key):
        raise InputError("a composition has a negative part")
    totals = {sum(key) for key in enum.counts}
    if len(totals) != 1 or 0 in totals:
        raise InputError("compositions must all sum to the same positive number of copies")
    (copies,) = totals
    size = comb(copies + cols - 1, cols - 1)
    if size > max_size:
        raise GuardExceeded(f"symmetrized transform has {size} keys, "
                            f"above the guard of {max_size}")
    order = _root_order([matrix])
    actions = _Rows(matrix, order, {})
    planes = [{tuple(m for m, s in enumerate(key) for _ in range(s)): c
               for key, c in enum.counts.items()}] + [{} for _ in range(euler_phi(order) - 1)]
    for i in range(copies):
        out: list[dict] = [{} for _ in planes]
        for k, plane in enumerate(planes):
            for key, v in plane.items():
                head, tail = key[:i], key[i + 1:]
                for l, action in actions[key[i]]:
                    new = tuple(sorted(head + (l,))) + tail
                    for j, a in action[k]:
                        sums = out[j]
                        sums[new] = sums.get(new, 0) + a * v
        planes = out
    comps = [{tuple(map(key.count, range(cols))): v for key, v in p.items()} for p in planes]
    return SymmetrizedEnumerator(_finish(comps, code_size))


# ---------------------------------------------------------------------------
# structure of the double-dual matrix product


def kk_product_check(part: Partition, max_size: int = ELEMENT_GUARD) -> tuple[tuple[bool, ...], ...]:
    """Verify the product of the two Krawtchouk matrices entry by entry.

    With K the matrix of (partition, dual) and K' the matrix of (dual, bidual),
    each (r, m) entry of K'K must equal the carrier size when the negated r-th
    bidual block is contained in the m-th primal block, and zero otherwise.
    For a reflexive partition this makes K'K the carrier size times a
    permutation matrix pairing each block with its negation. Returns the
    boolean matrix of entrywise verdicts.
    """
    grp = part.group
    dual = dual_partition(part, max_size)
    ddual = dual_partition(dual, max_size)
    k = krawtchouk(part, dual, max_size=max_size)
    k2 = krawtchouk(dual, ddual, max_size=max_size)
    order, (rows, mid), cols = _root_order([k, k2]), k2.shape, part.num_blocks
    s = euler_phi(k2.order)  # k and k2 both have the carrier's exponent as order
    planes = [[row[l * s + i] for l in range(mid) for row in k2.rows]  # K'[r][l] at l * rows + r
              for i in range(euler_phi(order))]
    cells = list(zip(*_grid_step(planes, _Rows(k, order, {}))))
    zero = (0,) * (len(planes) - 1)
    out: list[tuple[bool, ...]] = []
    for r, block in enumerate(ddual.blocks):
        owners = {part.block_of[grp.rank(grp.neg(g))] for g in block}
        out.append(tuple(cells[r * cols + m] == (grp.size if owners == {m} else 0,) + zero
                         for m in range(cols)))
    return tuple(out)
