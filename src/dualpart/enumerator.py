"""Weight enumerators of additive codes and their exact linear transforms.

Three granularities: a plain count vector over the blocks of one partition,
a sparse joint distribution over per-coordinate block indices for product
partitions, and a sparse distribution over composition vectors for
symmetrized partitions. Each has a transform that recovers the dual code's
distribution from the primal one, dividing by the code size and insisting on
exact integer results; a non-integer or irrational entry raises, since it can
only come from a wrong pairing of partitions.

All three transforms run one exact step, ``_contract_at``: it replaces
coordinate i of every sparse key by each column l of a factor matrix K,
multiplies by K[key[i]][l], and sums equal keys. Linear: one step on the
keys (m,). Product: one step per coordinate. The product theorem makes the
matrix the Kronecker product of the factor matrices, so the dual count at l
is sum_m A(m) prod_i K_i[m_i][l_i] / |C|, which distributivity regroups one
factor at a time; the state never exceeds prod_i max(rows_i, cols_i) keys,
the size the guard bounds. Symmetrized: a composition s expands to its
sorted representative key m. By the symmetrization theorem,
K_sym[s][t] = sum of prod_i K[m_i][l_i] over all l with comp(l) = t, for
any m with comp(m) = s. Step i reads only key[i] and the final grouping
only the composition of the contracted prefix, never its order, so sorting
the prefix after each step and merging keys that now match is exact. The
state stays within (input keys) x C(copies + cols - 1, cols - 1), polynomial
in copies; the guard bounds the binomial, the output key space.

Integer path: when every entry of a factor matrix is rational, the step
multiplies by the entries as plain ints, with no ``CycInt`` built. That is
exact: a rational ``CycInt`` is the canonical residue with only a constant
coefficient, so it equals that integer, the integers embed in Z[z] as a
subring, and Python's integer sums and products are exact. Counts stay ints
until a step with an irrational matrix, which keeps the ``CycInt`` path and
turns them into ``CycInt`` values; ``_exact_count`` reads both.

``kk_product_check`` forms the double-dual product K'K with the same step:
the nonzero entries K'[r][l] are a distribution on keys (r, l), and one
contraction at coordinate 1 by K leaves K'K on keys (r, m).

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

from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Iterator, Sequence

from .cyclotomic import CycInt, euler_phi
from .errors import GuardExceeded, InputError, VerificationFailure
from .group import ELEMENT_GUARD, Code
from .induced import composition_vector, product_group, split_element
from .partition import KrawtchoukMatrix, Partition, dual_partition, krawtchouk

# counts start as ints; a contraction by an irrational matrix makes them CycInts
Distribution = dict[tuple[int, ...], CycInt | int]


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
    counts = [0] * part.num_blocks
    for g in code.elements:
        counts[part.block_of[part.group.rank(g)]] += 1
    return LinearEnumerator(tuple(counts))


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


def _sparse_rows(matrix: KrawtchoukMatrix) -> list[list[tuple[int, CycInt | int]]]:
    """Nonzero (column, entry) pairs of each row; plain ints if every entry is rational,
    else a ``CycInt`` for each nonzero entry."""
    try:
        return [[(l, x) for l, x in enumerate(row) if x] for row in matrix.integer_entries()]
    except VerificationFailure:
        pass
    e, phi = matrix.order, euler_phi(matrix.order)
    return [[(j // phi, CycInt(e, tuple(row[j:j + phi])))
             for j in range(0, len(row), phi) if any(row[j:j + phi])] for row in matrix.rows]


def _contract_at(
    dist: Distribution, i: int, matrix: KrawtchoukMatrix
) -> Iterator[tuple[tuple[int, ...], CycInt | int]]:
    """Terms of ``dist`` with key[i] = m replaced by each column l, times K[m][l]."""
    rows = _sparse_rows(matrix)
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
    counts = _finish(_accumulate(_contract_at(dist, 0, matrix)), code_size)
    return LinearEnumerator(tuple(counts.get((l,), 0) for l in range(cols)))


# ---------------------------------------------------------------------------
# product partitions


def product_enumerator(code: Code, parts: Sequence[Partition]) -> ProductEnumerator:
    """Joint distribution of per-coordinate block indices over the code."""
    factors = [p.group for p in parts]
    if code.group != product_group(factors):
        raise InputError("code carrier must be the product of the factor carriers")
    lookups = [(p.block_of, p.group.rank) for p in parts]
    counts: dict[tuple[int, ...], int] = {}
    for word in code.elements:
        coords = split_element(factors, word)
        key = tuple(block_of[rank(c)] for (block_of, rank), c in zip(lookups, coords))
        counts[key] = counts.get(key, 0) + 1
    return ProductEnumerator(counts)


def product_transform(
    enum: ProductEnumerator,
    matrices: Sequence[KrawtchoukMatrix],
    code_size: int,
    max_size: int = ELEMENT_GUARD,
) -> ProductEnumerator:
    """Dual joint distribution, contracting one coordinate at a time.

    Each matrix must be krawtchouk(dual(P_i), P_i) for the i-th factor, so
    that row m expands the primal indeterminate for block m over the dual
    blocks.
    """
    if code_size <= 0:
        raise InputError("code size must be positive")
    if not matrices:
        raise InputError("need one matrix per coordinate")
    if any(len(key) != len(matrices) for key in enum.counts):
        raise InputError("enumerator key length does not match the matrices")
    size = prod(max(k.shape) for k in matrices)
    if size > max_size:
        raise GuardExceeded(
            f"product transform has {size} keys, above the guard of {max_size}"
        )
    dist: Distribution = dict(enum.counts)
    for i, matrix in enumerate(matrices):
        dist = _accumulate(_contract_at(dist, i, matrix))
    return ProductEnumerator(_finish(dist, code_size))


# ---------------------------------------------------------------------------
# symmetrized partitions


def symmetrized_enumerator(code: Code, base: Partition, copies: int) -> SymmetrizedEnumerator:
    """Distribution of composition vectors over the code."""
    factors = [base.group] * copies
    if code.group != product_group(factors):
        raise InputError("code carrier must be the matching power of the base carrier")
    counts: dict[tuple[int, ...], int] = {}
    for word in code.elements:
        key = composition_vector(base, split_element(factors, word))
        counts[key] = counts.get(key, 0) + 1
    return SymmetrizedEnumerator(counts)


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
    for i in range(copies):
        dist = _accumulate(
            (tuple(sorted(k[: i + 1])) + k[i + 1 :], v)
            for k, v in _contract_at(dist, i, matrix)
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
    product = _accumulate(_contract_at(keys, 1, k))
    out: list[tuple[bool, ...]] = []
    for r, block in enumerate(ddual.blocks):
        owners = {part.block_of[grp.rank(grp.neg(g))] for g in block}
        out.append(tuple(_rational(product.get((r, m), 0)) == (grp.size if owners == {m} else 0)
                         for m in range(part.num_blocks)))
    return tuple(out)
