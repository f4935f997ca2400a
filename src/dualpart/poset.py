"""Poset weights on product carriers and the hierarchical closed forms.

Coordinates of the carrier (one per cyclic factor) are partially ordered; the
weight of a tuple is the size of the order ideal generated by its support.
The weight fibers partition the carrier into exactly n+1 blocks. Dualizing the
partition and transposing the order agree precisely for hierarchical posets
whose levels have equal coordinate orders, and in that case the full
Krawtchouk matrix collapses to a closed form built from classical Krawtchouk
polynomials. Everything here indexes coordinates from 0; the JSON layer
speaks 1-based cover relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError, VerificationFailure
from .group import ELEMENT_GUARD, Element, GroupSpec
from .partition import Partition, dual_partition, krawtchouk, refines


def _transitive(lt: Sequence[Sequence[bool]]) -> bool:
    """True when i < j and j < k always give i < k, on a square less-than matrix."""
    n = len(lt)
    return all(lt[i][k] for i in range(n) for j in range(n) if lt[i][j]
               for k in range(n) if lt[j][k])


@dataclass(frozen=True)
class Poset:
    """Strict partial order on coordinates 0..n-1 as a full less-than matrix."""

    n: int
    lt: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("a poset needs at least one coordinate")
        lt = tuple(tuple(bool(x) for x in row) for row in self.lt)
        if len(lt) != self.n or any(len(row) != self.n for row in lt):
            raise InputError("less-than matrix must be n x n")
        if any(lt[i][i] for i in range(self.n)):
            raise InputError("strict order cannot be reflexive")
        if any(lt[i][j] and lt[j][i] for i in range(self.n) for j in range(i)):
            raise InputError("order relation is not antisymmetric")
        if not _transitive(lt):
            raise InputError("order relation is not transitive")
        object.__setattr__(self, "lt", lt)

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> "Poset":
        """Build from cover pairs (a, b) meaning a < b, taking transitive closure."""
        below: list[set[int]] = [set() for _ in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"cover ({a}, {b}) out of range for n={n}")
            below[b].add(a)
        for k in range(n):  # Warshall: after step k, paths through 0..k are closed
            for b in range(n):
                if k in below[b]:
                    below[b] |= below[k]
        for i in range(n):
            if i in below[i]:
                raise InputError("cover relations contain a cycle")
        lt = tuple(tuple(i in below[j] for j in range(n)) for i in range(n))
        return cls(n, lt)

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (a, b): a < b with nothing strictly between."""
        out = []
        for a in range(self.n):
            for b in range(self.n):
                if self.lt[a][b] and not any(
                    self.lt[a][k] and self.lt[k][b] for k in range(self.n)
                ):
                    out.append((a, b))
        return out


def chain(n: int) -> Poset:
    return Poset(n, tuple(tuple(i < j for j in range(n)) for i in range(n)))


def antichain(n: int) -> Poset:
    return Poset(n, tuple((False,) * n for _ in range(n)))


def hierarchical_poset(levels: Sequence[int]) -> Poset:
    """Levels of mutually incomparable coordinates, fully ordered between levels."""
    if not levels or any(k < 1 for k in levels):
        raise InputError("levels must be positive")
    level_of = [i for i, k in enumerate(levels) for _ in range(k)]
    n = len(level_of)
    lt = tuple(
        tuple(level_of[i] < level_of[j] for j in range(n)) for i in range(n)
    )
    return Poset(n, lt)


def all_posets(n: int) -> Iterator[Poset]:
    """Every labeled poset on n coordinates (three states per unordered pair)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        lt = [[False] * n for _ in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                lt[i][j] = True
            elif s == 2:
                lt[j][i] = True
        if _transitive(lt):
            yield Poset(n, tuple(map(tuple, lt)))


def dual_poset(p: Poset) -> Poset:
    return Poset(p.n, tuple(tuple(p.lt[j][i] for j in range(p.n)) for i in range(p.n)))


def ideal(p: Poset, coords: Iterable[int]) -> frozenset[int]:
    """Downward closure of a coordinate set."""
    s = set(coords)
    if any(not 0 <= x < p.n for x in s):
        raise InputError("coordinate out of range")
    return frozenset(
        x for x in range(p.n) if x in s or any(p.lt[x][y] for y in s)
    )


def _weight(p: Poset, group: GroupSpec) -> Callable[[Element], int]:
    """The weight of a valid element of the carrier, after one check of the factor count."""
    if len(group.orders) != p.n:
        raise InputError("carrier must have one cyclic factor per coordinate")
    return lambda g: len(ideal(p, (i for i, x in enumerate(g) if x)))


def poset_weight(p: Poset, group: GroupSpec, g: Element) -> int:
    """Size of the ideal generated by the support of g."""
    return _weight(p, group)(group.validate(g))


def poset_partition(p: Poset, group: GroupSpec,
                    max_size: int = ELEMENT_GUARD) -> Partition:
    """Partition of the carrier into the n+1 weight fibers."""
    return Partition.from_weight(group, _weight(p, group), max_size)


# ---------------------------------------------------------------------------
# hierarchical structure


@dataclass(frozen=True)
class HierarchicalShape:
    """Level sizes bottom-up plus the level index of every coordinate."""

    levels: tuple[int, ...]
    level_of: tuple[int, ...]


def is_hierarchical(p: Poset) -> HierarchicalShape | None:
    """Shape of the poset when it is a full alignment of antichain levels.

    Strips minimal elements layer by layer, then verifies the biconditional:
    x < y exactly when x sits on a strictly lower layer. None otherwise.
    """
    remaining = set(range(p.n))
    level_of = [0] * p.n
    sizes = []
    depth = 0
    while remaining:
        mins = {
            x for x in remaining if not any(p.lt[y][x] for y in remaining if y != x)
        }
        for x in mins:
            level_of[x] = depth
        sizes.append(len(mins))
        remaining -= mins
        depth += 1
    for x in range(p.n):
        for y in range(p.n):
            if p.lt[x][y] != (level_of[x] < level_of[y]):
                return None
    return HierarchicalShape(tuple(sizes), tuple(level_of))


def level_orders(shape: HierarchicalShape, group: GroupSpec) -> tuple[int, ...] | None:
    """The common coordinate order of each level, or None when a level mixes orders."""
    per_level = [{group.orders[i] for i, at in enumerate(shape.level_of) if at == lv}
                 for lv in range(len(shape.levels))]
    return tuple(min(o) for o in per_level) if all(len(o) == 1 for o in per_level) else None


def classical_krawtchouk(n: int, q: int, m: int, x: int) -> int:
    """Value of the degree-m classical Krawtchouk polynomial at integer x.

    >>> [classical_krawtchouk(3, 2, 1, x) for x in range(4)]
    [3, 1, -1, -3]
    """
    if q < 2 or n < 0 or not 0 <= m <= n:
        raise InputError("invalid Krawtchouk parameters")
    return sum(
        (-1) ** j * (q - 1) ** (m - j) * comb(x, j) * comb(n - x, m - j)
        for j in range(m + 1)
    )


def hierarchical_krawtchouk(
    shape: HierarchicalShape | Sequence[int], q: Sequence[int] | int
) -> tuple[tuple[int, ...], ...]:
    """Closed-form Krawtchouk matrix of a hierarchical poset, weights 0..n.

    Rows are dual-poset weights, columns primal weights. ``q`` gives the
    common coordinate order of each level, one value per level or a single
    value broadcast. Entries factor into a full-level prefactor, a binomial
    block-size term below the critical level, zero above it, and a classical
    Krawtchouk value exactly on it.
    """
    levels = tuple(shape.levels) if isinstance(shape, HierarchicalShape) else tuple(shape)
    if not levels or any(k < 1 for k in levels):
        raise InputError("levels must be positive")
    t = len(levels)
    qs = tuple(q for _ in levels) if isinstance(q, int) else tuple(q)
    if len(qs) != t or any(x < 2 for x in qs):
        raise InputError("need one order >= 2 per level")
    # w >= 1 as (level, offset): primal levels from 1 at the bottom, dual from 0 at the top
    primal = [(0, 0)] + [(s, mu) for s, k in enumerate(levels, 1) for mu in range(1, k + 1)]
    dual = [(0, 0)] + [(r, lam) for r, k in enumerate(levels[::-1]) for lam in range(1, k + 1)]
    out = []
    for r, lam in dual:
        row = []
        for s, mu in primal:
            if s == 0:
                row.append(1)
                continue
            pre = 1
            for i in range(s - 1):
                pre *= qs[i] ** levels[i]
            if s < t - r:
                row.append(pre * (qs[s - 1] - 1) ** mu * comb(levels[s - 1], mu))
            elif s > t - r:
                row.append(0)
            else:
                row.append(pre * classical_krawtchouk(levels[s - 1], qs[s - 1], mu, lam))
        out.append(tuple(row))
    return tuple(out)


def rt_krawtchouk(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Chain-poset Krawtchouk matrix in its direct four-case form.

    Agrees with hierarchical_krawtchouk((1,) * n, q); kept separate because
    the chain case has this much simpler description.
    """
    if n < 1 or q < 2:
        raise InputError("need n >= 1 and q >= 2")
    out = []
    for l in range(n + 1):
        row = []
        for m in range(n + 1):
            if m == 0:
                row.append(1)
            elif l < n + 1 - m:
                row.append(q ** (m - 1) * (q - 1))
            elif l == n + 1 - m:
                row.append(-(q ** (m - 1)))
            else:
                row.append(0)
        out.append(tuple(row))
    return tuple(out)


def poset_krawtchouk_bruteforce(
    p: Poset, group: GroupSpec, max_size: int = ELEMENT_GUARD
) -> tuple[tuple[int, ...], ...]:
    """Krawtchouk matrix of the weight partition pair, reindexed by weight.

    Oracle for the closed forms: computes krawtchouk(poset partition, dual
    poset partition) by direct character sums and permutes rows and columns
    from canonical block order into weight order 0..n. Only meaningful when
    the dual-poset partition refines the dual (hierarchical equal-order case);
    krawtchouk checks that for every character, and a failure is raised here
    as an InputError that names the split characters.
    """
    prim = poset_partition(p, group, max_size)
    dual_side = poset_partition(dual_poset(p), group, max_size)
    try:
        km = krawtchouk(prim, dual_side, max_size=max_size)
    except VerificationFailure as exc:
        raise InputError(
            "the transposed order's weight partition does not refine the dual; "
            f"the matrix is not well defined for this poset and carrier ({exc})"
        ) from exc
    ints = km.integer_entries()
    dp = dual_poset(p)
    row_blocks, col_blocks = km.row_part.blocks, km.col_part.blocks
    row_order = sorted(range(len(row_blocks)),
                       key=lambda r: poset_weight(dp, group, row_blocks[r][0]))
    col_order = sorted(range(len(col_blocks)),
                       key=lambda c: poset_weight(p, group, col_blocks[c][0]))
    return tuple(tuple(ints[r][c] for c in col_order) for r in row_order)


# ---------------------------------------------------------------------------
# duality report


@dataclass(frozen=True)
class PosetDualityReport:
    """Outcome of comparing the dual weight partition with the transposed order's."""

    equal: bool
    dual_refines_transposed: bool
    transposed_refines_dual: bool
    shape: HierarchicalShape | None
    levels_equal_order: bool | None


def poset_duality_check(p: Poset, group: GroupSpec,
                        max_size: int = ELEMENT_GUARD) -> PosetDualityReport:
    """Compare dual(weight partition) against the transposed order's weights.

    Reports equality and both refinement directions, plus whether the poset is
    hierarchical and, if so, whether the coordinate orders agree within every
    level (the two conditions that together characterize equality). Nothing is
    assumed about non-hierarchical posets; the refinement flags are empirical.
    """
    prim = poset_partition(p, group, max_size)
    dualized = dual_partition(prim, max_size)
    transposed = poset_partition(dual_poset(p), group, max_size)
    shape = is_hierarchical(p)
    return PosetDualityReport(
        equal=dualized == transposed,
        dual_refines_transposed=refines(dualized, transposed),
        transposed_refines_dual=refines(transposed, dualized),
        shape=shape,
        levels_equal_order=None if shape is None else level_orders(shape, group) is not None,
    )
