"""Weight enumerators of additive codes and their exact linear transforms.

Three granularities: a count vector over the blocks of one partition, a
sparse joint distribution over per-coordinate block indices for product
partitions, and a sparse distribution over composition vectors for
symmetrized partitions. Each transform recovers the dual code's distribution
from the primal one, divided exactly by the code size; a non-integer or
irrational count raises, since only a wrong pairing of partitions gives one.
The enumerators read a code by coordinate columns, with ``map``s for ranks
and block indices and one ``Counter`` for the keys, in first-seen order.

Product: the matrix is the Kronecker product of the factor matrices, so the
dual count at l is sum_m A(m) prod_i K_i[m_i][l_i] / |C|, which
distributivity regroups one factor at a time. A sits on a dense row-major
grid over the factor rows, within the guard's prod_i max(rows_i, cols_i)
cells. A step contracts the outermost axis and writes the column axis
innermost, stride cols, so the cells end in sorted key order. Values are
integer planes, one per power z^i, i < phi(E): Z[z] = Z^phi through the
canonical basis, and multiplying by an entry x is Z-linear, the integer
matrix whose column k holds the coefficients of x z^k (``zeta_coeff_table``
rows). Each nonzero coefficient of it is one ``map`` over a slice, zero
slices add nothing, and a rational x acts by itself on every plane, so the
sums are exact. Rational matrices alone use one plane; two irrational orders
are rejected. A state holds at most phi(E) times the guard integers (a step
keeps about three), and a nonzero cell on a plane i >= 1 at the end is an
irrational count.

The other transforms keep a sparse step, ``_contract_at``: it replaces
coordinate i of each key by each column l of K, times K[key[i]][l], and sums
equal keys. The symmetrized state of sorted prefixes is no grid, and the
linear transform and ``kk_product_check`` run one step on matrices whose
phi(E) reaches 2048, where an entry's integer matrix costs up to phi^2
column operations. Integer matrices multiply plain ints there, which is
exact, as a rational ``CycInt`` is its constant coefficient. Symmetrized: a
composition s expands to its sorted representative key m; by the
symmetrization theorem K_sym[s][t] = sum of prod_i K[m_i][l_i] over all l
with comp(l) = t, for any m with comp(m) = s. Step i reads only key[i] and
the end only the composition of the contracted prefix, so sorting the
prefix after each step and merging equal keys is exact. The state stays
within (input keys) x C(copies + cols - 1, cols - 1); the guard bounds the
binomial. ``kk_product_check`` puts the nonzero K'[r][l] on keys (r, l);
one step at coordinate 1 by K leaves K'K on keys (r, m).

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

from .cyclotomic import CycInt, euler_phi, zeta_coeff_table
from .errors import GuardExceeded, InputError, VerificationFailure
from .group import ELEMENT_GUARD, Code
from .induced import product_group
from .partition import KrawtchoukMatrix, Partition, dual_partition, krawtchouk

# counts start as ints; a contraction by an irrational matrix makes them CycInts
Distribution = dict[tuple[int, ...], CycInt | int]
SparseRows = list[list[tuple[int, CycInt | int]]]


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


def _rational(value: CycInt | int) -> int | None:
    return value if isinstance(value, int) else value.as_rational_integer()


def _exact_count(value: CycInt | int, divisor: int) -> int:
    n = _rational(value)
    if n is None:
        raise VerificationFailure("transform produced an irrational value")
    q, r = divmod(n, divisor)
    if r != 0:
        raise VerificationFailure("transform result is not divisible by the code size")
    if q < 0:
        raise VerificationFailure("transform produced a negative count")
    return q


def _accumulate(terms: Iterable[tuple[tuple[int, ...], CycInt | int]]) -> Distribution:
    out: Distribution = {}
    for k, v in terms:
        out[k] = out[k] + v if k in out else v
    return out


def _integer_entries(matrix: KrawtchoukMatrix) -> tuple[tuple[int, ...], ...] | None:
    try:
        return matrix.integer_entries()
    except VerificationFailure:
        return None


def _sparse_rows(matrix: KrawtchoukMatrix) -> SparseRows:
    """Nonzero (column, entry) pairs of each row; plain ints if every entry is rational,
    else a ``CycInt`` for each nonzero entry."""
    ints = _integer_entries(matrix)
    if ints is not None:
        return [[(l, x) for l, x in enumerate(row) if x] for row in ints]
    e, phi = matrix.order, euler_phi(matrix.order)
    return [[(j // phi, CycInt(e, tuple(row[j:j + phi])))
             for j in range(0, len(row), phi) if any(row[j:j + phi])] for row in matrix.rows]


def _contract_at(
    dist: Distribution, i: int, rows: SparseRows
) -> Iterator[tuple[tuple[int, ...], CycInt | int]]:
    """Terms of ``dist`` with key[i] = m replaced by each column l, times K[m][l]."""
    for key, coef in dist.items():
        head, tail = key[:i], key[i + 1 :]
        for l, entry in rows[key[i]]:
            yield head + (l,) + tail, coef * entry


def _finish(dist: Distribution, code_size: int) -> dict[tuple[int, ...], int]:
    """Exact division by the code size, keys sorted, zero counts dropped."""
    counts = {k: _exact_count(dist[k], code_size) for k in sorted(dist)}
    return {k: c for k, c in counts.items() if c}


def macwilliams_transform(
    enum: LinearEnumerator, matrix: KrawtchoukMatrix, code_size: int
) -> LinearEnumerator:
    """Dual distribution counts(P) . matrix / code_size, exactly.

    ``matrix`` must be krawtchouk(Q, P) for the character-side partition Q
    whose dual P indexed ``enum``; its rows then line up with the counts.
    """
    rows, cols = matrix.shape
    if rows != len(enum.counts):
        raise InputError(
            f"matrix has {rows} rows but the enumerator has {len(enum.counts)} counts"
        )
    if code_size <= 0:
        raise InputError("code size must be positive")
    dist = {(m,): a for m, a in enumerate(enum.counts) if a}
    counts = _finish(_accumulate(_contract_at(dist, 0, _sparse_rows(matrix))), code_size)
    return LinearEnumerator(tuple(counts.get((l,), 0) for l in range(cols)))


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


def _actions(matrix: KrawtchoukMatrix, order: int, cache: dict) -> list[list[tuple]]:
    """Per row, (l, action) for each nonzero entry x. The action lists the (i, k, a)
    with which plane i gains a times plane k: a is the coefficient of z^i in x z^k
    at root order ``order``, summed from ``zeta_coeff_table`` once per distinct x."""
    phi, table = euler_phi(order), zeta_coeff_table(order)
    ints = _integer_entries(matrix)
    if ints is not None:  # a rational x has the coefficients (x, 0, ..., 0) at any order
        cells = [[(x,) + (0,) * (phi - 1) for x in row] for row in ints]
    else:
        cells = [[tuple(row[j:j + phi]) for j in range(0, len(row), phi)] for row in matrix.rows]
    for x in {x for row in cells for x in row if any(x)} - cache.keys():
        terms = []
        for k in range(phi):
            column = [0] * phi
            for j in filter(x.__getitem__, range(phi)):
                for i, v in zip(*table[(j + k) % order]):
                    column[i] += x[j] * v
            terms += ((i, k, a) for i, a in enumerate(column) if a)
        cache[x] = tuple(terms)
    return [[(l, cache[x]) for l, x in enumerate(row) if any(x)] for row in cells]


def _grid_step(planes: list[list[int]], actions: list[list[tuple]], cols: int) -> list[list[int]]:
    """Contract the outermost grid axis by one matrix; its column axis becomes innermost."""
    t = len(planes[0]) // len(actions)
    sums: list[list] = [[None] * cols for _ in planes]  # sums[i][l]: column l of plane i
    for m, row in enumerate(actions):
        cut = [p[m * t:(m + 1) * t] for p in planes]
        live = list(map(any, cut))
        for l, terms in row if any(live) else ():
            for i, k, a in terms:
                if not live[k]:
                    continue
                acc, values = sums[i][l], cut[k]
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
        raise GuardExceeded(
            f"product transform has {size} keys, above the guard of {max_size}"
        )
    distinct = {id(k): k for k in matrices}
    orders = list(dict.fromkeys(k.order for k in distinct.values() if _integer_entries(k) is None))
    if len(orders) > 1:
        raise InputError(f"mixed root orders {orders[0]} and {orders[1]}; "
                         "lift with change_order first")
    order = orders[0] if orders else 1
    rows = [k.shape[0] for k in matrices]
    columns = list(zip(*enum.counts))
    if any(min(c) < 0 or max(c) >= r for c, r in zip(columns, rows)):
        raise InputError("enumerator key is out of range of the matrix rows")
    index: Iterable[int] = columns[0] if columns else ()
    for c, r in zip(columns[1:], rows[1:]):
        index = map(add, map(mul, index, repeat(r)), c)
    planes = [[0] * prod(rows) for _ in range(euler_phi(order))]
    deque(map(planes[0].__setitem__, index, enum.counts.values()), 0)
    cache: dict[tuple[int, ...], tuple] = {}
    actions = {i: _actions(k, order, cache) for i, k in distinct.items()}
    for k in matrices:
        planes = _grid_step(planes, actions[id(k)], k.shape[1])
    values = planes[0]
    if any(map(any, planes[1:])) or any(map(mod, values, repeat(code_size))) or min(values) < 0:
        for cell in zip(*planes):  # the first failing key names the failure, as in _finish
            if any(cell[1:]):
                raise VerificationFailure("transform produced an irrational value")
            _exact_count(cell[0], code_size)
    counts = list(map(floordiv, values, repeat(code_size)))
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
    Every composition must sum to the same positive number of copies.
    """
    if code_size <= 0:
        raise InputError("code size must be positive")
    rows, cols = matrix.shape
    if any(len(key) != rows for key in enum.counts):
        raise InputError("composition length does not match the matrix rows")
    totals = {sum(key) for key in enum.counts}
    if len(totals) != 1 or 0 in totals:
        raise InputError("compositions must all sum to the same positive number of copies")
    (copies,) = totals
    size = comb(copies + cols - 1, cols - 1)
    if size > max_size:
        raise GuardExceeded(
            f"symmetrized transform has {size} keys, above the guard of {max_size}"
        )
    dist: Distribution = {
        tuple(m for m, s in enumerate(key) for _ in range(s)): c
        for key, c in enum.counts.items()
    }
    sparse = _sparse_rows(matrix)
    for i in range(copies):
        dist = _accumulate(
            (tuple(sorted(k[: i + 1])) + k[i + 1 :], v)
            for k, v in _contract_at(dist, i, sparse)
        )
    comps = {tuple(key.count(l) for l in range(cols)): v for key, v in dist.items()}
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
    keys = {(r, l): x for r, row in enumerate(_sparse_rows(k2)) for l, x in row}
    product = _accumulate(_contract_at(keys, 1, _sparse_rows(k)))
    out: list[tuple[bool, ...]] = []
    for r, block in enumerate(ddual.blocks):
        owners = {part.block_of[grp.rank(grp.neg(g))] for g in block}
        out.append(tuple(_rational(product.get((r, m), 0)) == (grp.size if owners == {m} else 0)
                         for m in range(part.num_blocks)))
    return tuple(out)
