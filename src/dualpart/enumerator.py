"""Weight enumerators of additive codes and their exact linear transforms.

Three granularities, each a plain value: a tuple of counts over the blocks
of one partition, a dict of counts by per-coordinate block index tuple for
product partitions, and a dict of counts by composition vector for
symmetrized partitions. Each transform takes and returns the same kind of
value: it recovers the dual code's distribution from the primal one, divided
exactly by the code size; a non-integer or irrational count raises, since
only a wrong pairing of partitions gives one.
The enumerators read a code by coordinate columns, with ``map``s for ranks
and block indices and one ``Counter`` for the keys, in first-seen order.

Exactness: every transform sums products of entries in Z[z], z a primitive
root of order E. A value is one int V = Q(2^b), Q the sum of products of the
entries' coefficient polynomials (Kronecker substitution), read once as its
centered residue mod Phi_E(2^b): exact, rational or not, for the b that each
transform takes from a bound on ||Q||_1 (``cyclotomic._kronecker``, the one
width rule of the package's exact forms of Z[z]). With only rational
matrices a cell is its count; two irrational orders are rejected.

Product: the matrix is the Kronecker product of the factor matrices, so the
dual count at l is sum_m A(m) prod_i K_i[m_i][l_i] / |C|, which
distributivity regroups one factor at a time. A sits on a dense row-major
grid over the factor rows, within the guard's prod_i max(rows_i, cols_i)
cells. A step, ``_grid_step``, contracts the outermost axis and writes the
column axis innermost, stride cols, so the cells end in sorted key order;
each entry is one ``map`` over a slice. A state holds at most the guard's
number of integers. The linear transform is one step on a one-axis grid of
the counts. ``kk_product_check`` lays K' on a grid with l outermost and r
inner, and one step by K leaves K'K on (r, m).

Symmetrized: a composition s expands to its sorted representative key m; by
the symmetrization theorem K_sym[s][t] = sum of prod_i K[m_i][l_i] over all l
with comp(l) = t, for any m with comp(m) = s. Step i reads only key[i] and
the end only the composition of the contracted prefix, so sorting the prefix
after each step and merging equal keys is exact. The state is one dict of
key -> int, within (input keys) x C(copies + cols - 1, cols - 1) keys; the
guard bounds the binomial.

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
from itertools import chain, compress, product, repeat
from math import comb, prod
from operator import add, floordiv, mod, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .cyclotomic import _kronecker, euler_phi
from .errors import GuardExceeded, InputError, VerificationFailure
from .group import ELEMENT_GUARD, Code
from .induced import product_group
from .partition import KrawtchoukMatrix, Partition, dual_partition, krawtchouk


def linear_enumerator(code: Code, part: Partition) -> tuple[int, ...]:
    """Count of code elements per block of one partition."""
    if code.group != part.group:
        raise InputError("code and partition must share a carrier")
    counts = Counter(_block_keys(code, [part]))
    return tuple(counts[(b,)] for b in range(part.num_blocks))


def _exact_count(value: int | None, divisor: int) -> int:
    """A rational value, None for an irrational one, divided exactly."""
    if value is None:
        raise VerificationFailure("transform produced an irrational value")
    q, r = divmod(value, divisor)
    if r != 0:
        raise VerificationFailure("transform result is not divisible by the code size")
    if q < 0:
        raise VerificationFailure("transform produced a negative count")
    return q


def _grid_counts(cells: list[int], code_size: int, read: Callable | None) -> list[int]:
    """Cells, read unless rational, divided exactly by the code size; the first bad cell raises."""
    values = cells if read is None else read(cells)
    if (read is not None and None in values or any(map(mod, values, repeat(code_size)))
            or min(values, default=0) < 0):
        deque(map(_exact_count, values, repeat(code_size)), 0)
    return list(map(floordiv, values, repeat(code_size)))


def _root_order(matrices: Iterable[KrawtchoukMatrix]) -> int:
    """The one root order of the irrational matrices, 1 if every matrix is rational."""
    orders = list(dict.fromkeys(k.order for k in matrices if not k._rational))
    if len(orders) > 1:
        raise InputError(f"mixed root orders {orders[0]} and {orders[1]}; "
                         "lift with change_order first")
    return orders[0] if orders else 1


def _norm(matrix: KrawtchoukMatrix, rows: Iterable[int] | None = None) -> int:
    """The largest ||x||_1 of an entry x of the given rows, all by default: the sum of
    the absolute values of its phi canonical coefficients."""
    phi = euler_phi(matrix.order)
    picked = matrix.rows if rows is None else map(matrix.rows.__getitem__, rows)
    return max(map(sum, chain.from_iterable(zip(*[map(abs, r)] * phi) for r in picked)), default=0)


def _evaluation(order: int, norm: Callable[[], int]) -> tuple[int, Callable | None]:
    """The width b of z = 2^b for cells Q(2^b) with ||Q||_1 <= norm(), and the reader of a
    list of cells: the rational integer each stands for, or None (``_kronecker``). At
    order 1 a cell is its count: b = 0 and no reader."""
    if order == 1:
        return 0, None
    b, big_n, half_n = _kronecker(order, norm())
    top = 1 << (b - 1)

    def read(cells: list[int]) -> list[int | None]:
        live = list(compress(range(len(cells)), cells))  # a zero cell reads 0
        values = [(cells[i] + half_n) % big_n - half_n for i in live]
        if max(map(abs, values), default=0) >= top:
            values = [v if -top < v < top else None for v in values]
        out: list[int | None] = [0] * len(cells)
        deque(map(out.__setitem__, live, values), 0)
        return out

    return b, read


class _Rows(dict):
    """Row m of ``matrix`` as (l, x(2^b)) for each nonzero entry x, read on first use;
    at b = 0, where every matrix is rational, x is its constant coefficient. One loop
    over the row's nonzero coefficients: ``cyclotomic._evaluate`` an entry took twice
    as long on singleton matrices, whose entries are single root powers."""

    def __init__(self, matrix: KrawtchoukMatrix, b: int) -> None:
        self.matrix, self.b = matrix, b

    def __missing__(self, m: int) -> list[tuple[int, int]]:
        row, phi, b = self.matrix.rows[m], euler_phi(self.matrix.order), self.b
        values = row[::phi] if b == 0 else [0] * (len(row) // phi)
        for i in compress(range(len(row)), row) if b else ():
            values[i // phi] += row[i] << b * (i % phi)
        self[m] = out = [(l, x) for l, x in enumerate(values) if x]
        return out


def _grid_step(grid: list[int], rows: _Rows) -> list[int]:
    """Contract the outermost grid axis by one matrix; its column axis becomes innermost.
    A row is read only when the slice it acts on is nonzero."""
    height, cols = rows.matrix.shape
    t = len(grid) // height
    sums: list = [None] * cols  # sums[l]: column l of the new grid
    for m in range(height):
        values = grid[m * t:(m + 1) * t]
        for l, x in rows[m] if any(values) else ():
            acc = sums[l]
            if acc is None:
                sums[l] = values if x == 1 else list(map(mul, values, repeat(x)))
            elif x == 1 or x == -1:
                sums[l] = list(map(add if x == 1 else sub, acc, values))
            else:
                sums[l] = list(map(add, acc, map(mul, values, repeat(x))))
    out = [0] * (t * cols)
    for l in filter(sums.__getitem__, range(cols)):
        out[l::cols] = sums[l]
    return out


def macwilliams_transform(
    counts: tuple[int, ...], matrix: KrawtchoukMatrix, code_size: int
) -> tuple[int, ...]:
    """Dual distribution counts(P) . matrix / code_size, exactly.

    ``matrix`` must be krawtchouk(Q, P) for the character-side partition Q
    whose dual P indexed ``counts``; its rows then line up with the counts.
    """
    rows, cols = matrix.shape
    if rows != len(counts):
        raise InputError(f"matrix has {rows} rows but the enumerator has {len(counts)} counts")
    if code_size <= 0:
        raise InputError("code size must be positive")
    b, read = _evaluation(_root_order([matrix]), lambda: sum(map(abs, counts)) *
                          _norm(matrix, compress(range(rows), counts)))
    cells = _grid_step(list(counts), _Rows(matrix, b))
    return tuple(_grid_counts(cells, code_size, read))


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


def product_enumerator(code: Code, parts: Sequence[Partition]) -> dict[tuple[int, ...], int]:
    """Joint distribution of per-coordinate block indices over the code: a sparse
    count per block index tuple."""
    if code.group != product_group([p.group for p in parts]):
        raise InputError("code carrier must be the product of the factor carriers")
    return dict(Counter(_block_keys(code, parts)))


def product_transform(
    counts: dict[tuple[int, ...], int],
    matrices: Sequence[KrawtchoukMatrix],
    code_size: int,
    max_size: int = ELEMENT_GUARD,
) -> dict[tuple[int, ...], int]:
    """Dual joint distribution, contracting one factor axis of a dense grid at a time.

    Each matrix must be krawtchouk(dual(P_i), P_i) for the i-th factor, so that row m
    expands the primal indeterminate for block m over the dual blocks. The irrational
    matrices must share one root order.
    """
    if code_size <= 0:
        raise InputError("code size must be positive")
    if not matrices:
        raise InputError("need one matrix per coordinate")
    if set(map(len, counts)) - {len(matrices)}:
        raise InputError("enumerator key length does not match the matrices")
    size = prod(max(k.shape) for k in matrices)
    if size > max_size:
        raise GuardExceeded(f"product transform has {size} keys, above the guard of {max_size}")
    distinct = {id(k): k for k in matrices}
    order = _root_order(distinct.values())
    rows = [k.shape[0] for k in matrices]
    columns = list(zip(*counts))
    if any(min(c) < 0 or max(c) >= r for c, r in zip(columns, rows)):
        raise InputError("enumerator key is out of range of the matrix rows")
    index: Iterable[int] = columns[0] if columns else ()
    for c, r in zip(columns[1:], rows[1:]):
        index = map(add, map(mul, index, repeat(r)), c)
    b, read = _evaluation(order, lambda: sum(map(abs, counts.values())) * prod(
        _norm(k) ** sum(m is k for m in matrices) for k in distinct.values()))
    grid = [0] * prod(rows)
    deque(map(grid.__setitem__, index, counts.values()), 0)
    steps = {i: _Rows(k, b) for i, k in distinct.items()}
    for k in matrices:
        grid = _grid_step(grid, steps[id(k)])
    dual = _grid_counts(grid, code_size, read)
    keys = compress(product(*(range(k.shape[1]) for k in matrices)), dual)
    return dict(zip(keys, compress(dual, dual)))


# ---------------------------------------------------------------------------
# symmetrized partitions


def symmetrized_enumerator(code: Code, base: Partition,
                           copies: int) -> dict[tuple[int, ...], int]:
    """Distribution of composition vectors over the code: a sparse count per
    composition of the base partition. A word's sorted block indices fix its
    composition; each distinct sorted tuple is converted once."""
    if code.group != product_group([base.group] * copies):
        raise InputError("code carrier must be the matching power of the base carrier")
    words = Counter(map(tuple, map(sorted, _block_keys(code, [base] * copies))))
    blocks = range(base.num_blocks)
    return {tuple(map(key.count, blocks)): c for key, c in words.items()}


def symmetrized_transform(
    counts: dict[tuple[int, ...], int],
    matrix: KrawtchoukMatrix,
    code_size: int,
    max_size: int = ELEMENT_GUARD,
) -> dict[tuple[int, ...], int]:
    """Dual composition distribution, contracting sorted representative keys.

    ``matrix`` must be krawtchouk(dual(P), P) of a reflexive base partition.
    Every composition must have nonnegative parts summing to the same positive
    number of copies.
    """
    if code_size <= 0:
        raise InputError("code size must be positive")
    rows, cols = matrix.shape
    if any(len(key) != rows for key in counts):
        raise InputError("composition length does not match the matrix rows")
    if any(s < 0 for key in counts for s in key):
        raise InputError("a composition has a negative part")
    totals = {sum(key) for key in counts}
    if len(totals) != 1 or 0 in totals:
        raise InputError("compositions must all sum to the same positive number of copies")
    (copies,) = totals
    size = comb(copies + cols - 1, cols - 1)
    if size > max_size:
        raise GuardExceeded(f"symmetrized transform has {size} keys, "
                            f"above the guard of {max_size}")
    # up to cols^copies keys l share one composition t: ||Q_t||_1 <= sum |A| (cols norm)^copies
    b, read = _evaluation(_root_order([matrix]), lambda: sum(map(abs, counts.values())) *
                          (cols * _norm(matrix)) ** copies)
    entries = _Rows(matrix, b)
    state = {tuple(m for m, s in enumerate(key) for _ in range(s)): c
             for key, c in counts.items()}
    for i in range(copies):
        out: dict[tuple[int, ...], int] = {}
        for key, v in state.items():
            head, tail = key[:i], key[i + 1:]
            for l, x in entries[key[i]]:
                new = tuple(sorted(head + (l,))) + tail
                out[new] = out.get(new, 0) + x * v
        state = out
    comps = {tuple(map(key.count, range(cols))): v for key, v in state.items()}
    keys = sorted(comps)
    dual = _grid_counts(list(map(comps.__getitem__, keys)), code_size, read)
    return dict(zip(compress(keys, dual), compress(dual, dual)))


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
    (rows, mid), cols = k2.shape, part.num_blocks
    b, read = _evaluation(_root_order([k, k2]), lambda: mid * _norm(k2) * _norm(k))
    grid, k2_rows = [0] * (mid * rows), _Rows(k2, b)
    for r in range(rows):
        for l, x in k2_rows[r]:
            grid[l * rows + r] = x  # K'[r][l]
    cells = (read or list)(_grid_step(grid, _Rows(k, b)))
    out: list[tuple[bool, ...]] = []
    for r, block in enumerate(ddual.blocks):
        owners = {part.block_of[grp.rank(grp.neg(g))] for g in block}
        out.append(tuple(cells[r * cols + m] == (grp.size if owners == {m} else 0)
                         for m in range(cols)))
    return tuple(out)
