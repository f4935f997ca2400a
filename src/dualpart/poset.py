"""Poset weights on product carriers and the hierarchical closed forms.

Coordinates of the carrier (one per cyclic factor) are partially ordered; the
weight of a tuple is the size of the order ideal generated by its support
(Brualdi, Graves and Lawrence, Discrete Math. 147, 1995). The weight fibers
partition the carrier into exactly n+1 blocks. Dualizing the partition and
transposing the order agree precisely for hierarchical posets whose levels
have equal coordinate orders, and in that case the full Krawtchouk matrix
collapses to a closed form built from classical Krawtchouk polynomials.
Everything here indexes coordinates from 0; the JSON layer speaks 1-based
cover relations.

A poset is stored as its down-set masks: bit i of ``below[j]`` is set when
i < j. ``poset_partition`` reads each element's weight at its support mask
from one table of ideal sizes, filled by ideal(m) = ideal(m & (m - 1)) |
down(lowest bit of m), with down(i) = ``below[i]`` plus bit i: O(1) a mask,
and exact because the ideal of a union is the union of the ideals. The
table has 2^n entries, at most |G|, since every cyclic order is at least 2.

The results are plain values: ``is_hierarchical`` gives the pair (level
sizes, level of each coordinate), and ``poset_duality_check`` the dict of
fields that ``dualpart poset-check`` prints.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import reduce
from math import comb, prod
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import InputError, VerificationFailure
from .group import ELEMENT_GUARD, Element, GroupSpec, _outer, elements
from .partition import Partition, dual_partition, krawtchouk, refines


class Poset(namedtuple("Poset", "n below")):
    """Strict partial order on coordinates 0..n-1 as down-set bit masks:
    bit i of ``below[j]`` is set when i < j."""

    __slots__ = ()

    def __new__(cls, n: int, below: Iterable[int]) -> "Poset":
        if n < 1:
            raise InputError("a poset needs at least one coordinate")
        below = tuple(below)
        if len(below) != n or any(type(m) is not int or not 0 <= m < 1 << n for m in below):
            raise InputError("down-sets must be n bit masks below 2^n")
        if any(m >> j & 1 for j, m in enumerate(below)):
            raise InputError("strict order cannot be reflexive")
        pairs = [(i, j) for j, m in enumerate(below) for i in range(n) if m >> i & 1]
        if any(below[i] >> j & 1 for i, j in pairs):
            raise InputError("order relation is not antisymmetric")
        if any(below[i] & ~below[j] for i, j in pairs):
            raise InputError("order relation is not transitive")
        return tuple.__new__(cls, (n, below))

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> "Poset":
        """Build from cover pairs (a, b) meaning a < b, taking transitive closure."""
        below = [0] * n
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"cover ({a}, {b}) out of range for n={n}")
            below[b] |= 1 << a
        for k in range(n):  # Warshall: after step k, paths through 0..k are closed
            for b in range(n):
                if below[b] >> k & 1:
                    below[b] |= below[k]
        if any(m >> i & 1 for i, m in enumerate(below)):
            raise InputError("cover relations contain a cycle")
        return cls(n, tuple(below))

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (a, b): a < b with nothing strictly between, in sorted order."""
        out = []
        for b, m in enumerate(self.below):
            # everything below something below b
            between = reduce(or_, (self.below[k] for k in range(self.n) if m >> k & 1), 0)
            out += [(a, b) for a in range(self.n) if (m & ~between) >> a & 1]
        return sorted(out)


def chain(n: int) -> Poset:
    return Poset(n, tuple((1 << j) - 1 for j in range(n)))


def antichain(n: int) -> Poset:
    return Poset(n, (0,) * n)


def hierarchical_poset(levels: Sequence[int]) -> Poset:
    """Levels of mutually incomparable coordinates, fully ordered between levels."""
    if not levels or any(type(k) is not int or k < 1 for k in levels):
        raise InputError("levels must be positive integers")
    below: list[int] = []
    for k in levels:  # each coordinate of a level lies above every one before it
        below += [(1 << len(below)) - 1] * k
    return Poset(len(below), tuple(below))


def all_posets(n: int) -> Iterator[Poset]:
    """Every labeled poset on n coordinates (three states per unordered pair)."""
    states = [(None, (i, j), (j, i)) for i in range(n) for j in range(i + 1, n)]
    for chosen in itertools.product(*states):
        below = [0] * n
        for a, b in filter(None, chosen):  # a < b
            below[b] |= 1 << a
        if all(below[i] | m == m for m in below for i in range(n) if m >> i & 1):
            yield Poset(n, tuple(below))


def dual_poset(p: Poset) -> Poset:
    """The transposed order: j is below i in it exactly when i is below j in p."""
    return Poset(p.n, tuple(sum(1 << j for j, m in enumerate(p.below) if m >> i & 1)
                            for i in range(p.n)))


def poset_weight(p: Poset, group: GroupSpec, g: Element) -> int:
    """Size of the ideal generated by the support of g: the bits of the OR of
    down(i) over the support, the rule of the table of ideal sizes (module docstring)."""
    if len(group.orders) != p.n:
        raise InputError("carrier must have one cyclic factor per coordinate")
    support = (i for i, x in enumerate(group.validate(g)) if x)
    return reduce(or_, (p.below[i] | 1 << i for i in support), 0).bit_count()


def poset_partition(p: Poset, group: GroupSpec,
                    max_size: int = ELEMENT_GUARD) -> Partition:
    """Partition of the carrier into the n+1 weight fibers: each element's weight
    is read from the table of ideal sizes (module docstring) at its support
    mask, and ``_outer`` builds the masks in rank order, one coordinate at a time."""
    if len(group.orders) != p.n:
        raise InputError("carrier must have one cyclic factor per coordinate")
    elements(group, max_size)  # the element guard, before the table is built
    ideals = [0]
    for m in range(1, 1 << p.n):
        low = m & -m
        ideals.append(ideals[m ^ low] | p.below[low.bit_length() - 1] | low)
    sizes = [m.bit_count() for m in ideals]
    masks = reduce(_outer, [[0] + [1 << i] * (q - 1) for i, q in enumerate(group.orders)])
    return Partition.from_labels(group, map(sizes.__getitem__, masks))


# ---------------------------------------------------------------------------
# hierarchical structure


def is_hierarchical(p: Poset) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Shape of the poset when it is a full alignment of antichain levels: the
    level sizes bottom-up, and the level index of every coordinate.

    Strips minimal elements layer by layer, and requires every member of a
    layer to have exactly the lower layers as its down-set: x < y exactly
    when x sits on a strictly lower layer. None otherwise.
    """
    level_of = [0] * p.n
    sizes: list[int] = []
    lower = 0  # the coordinates on the layers stripped so far
    while lower != (1 << p.n) - 1:
        layer = [x for x in range(p.n) if not lower >> x & 1 and p.below[x] | lower == lower]
        if any(p.below[x] != lower for x in layer):
            return None
        for x in layer:
            level_of[x] = len(sizes)
            lower |= 1 << x
        sizes.append(len(layer))
    return tuple(sizes), tuple(level_of)


def level_orders(shape: tuple[tuple[int, ...], tuple[int, ...]],
                 group: GroupSpec) -> tuple[int, ...] | None:
    """The common coordinate order of each level of an ``is_hierarchical`` shape,
    or None when a level mixes orders."""
    levels, level_of = shape
    per_level = [{group.orders[i] for i, at in enumerate(level_of) if at == lv}
                 for lv in range(len(levels))]
    return tuple(min(o) for o in per_level) if all(len(o) == 1 for o in per_level) else None


def classical_krawtchouk(n: int, q: int, m: int, x: int) -> int:
    """Value of the degree-m classical Krawtchouk polynomial at integer x.

    >>> [classical_krawtchouk(3, 2, 1, x) for x in range(4)]
    [3, 1, -1, -3]
    """
    if any(type(v) is not int for v in (n, q, m, x)) or q < 2 or not 0 <= m <= n \
            or not 0 <= x <= n:
        raise InputError("invalid Krawtchouk parameters: need integers q >= 2, 0 <= m, x <= n")
    return sum(
        (-1) ** j * (q - 1) ** (m - j) * comb(x, j) * comb(n - x, m - j)
        for j in range(m + 1)
    )


def hierarchical_krawtchouk(
    levels: Sequence[int], q: Sequence[int] | int
) -> tuple[tuple[int, ...], ...]:
    """Closed-form Krawtchouk matrix of a hierarchical poset, weights 0..n.

    Rows are dual-poset weights, columns primal weights. ``levels`` gives the
    level sizes bottom-up, and ``q`` the common coordinate order of each level,
    one value per level or a single value broadcast. Entries factor into a full-level prefactor, a binomial
    block-size term below the critical level, zero above it, and a classical
    Krawtchouk value exactly on it.
    """
    levels = tuple(levels)
    if not levels or any(type(k) is not int or k < 1 for k in levels):
        raise InputError("levels must be positive integers")
    t = len(levels)
    qs = tuple(q) if isinstance(q, Sequence) else (q,) * t
    if len(qs) != t or any(type(x) is not int or x < 2 for x in qs):
        raise InputError("need one integer order >= 2 per level")
    # w >= 1 as (level, offset): primal levels from 1 at the bottom, dual from 0 at the top
    primal = [(0, 0)] + [(s, mu) for s, k in enumerate(levels, 1) for mu in range(1, k + 1)]
    dual = [(0, 0)] + [(r, lam) for r, k in enumerate(levels[::-1]) for lam in range(1, k + 1)]
    out = []
    for r, lam in dual:
        row = []
        for s, mu in primal:
            pre = prod(qs[i] ** levels[i] for i in range(s - 1))
            if s == 0:
                row.append(1)
            elif s < t - r:
                row.append(pre * (qs[s - 1] - 1) ** mu * comb(levels[s - 1], mu))
            elif s > t - r:
                row.append(0)
            else:
                row.append(pre * classical_krawtchouk(levels[s - 1], qs[s - 1], mu, lam))
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
    dp = dual_poset(p)
    dual_side = poset_partition(dp, group, max_size)
    try:
        km = krawtchouk(prim, dual_side, max_size=max_size)
    except VerificationFailure as exc:
        raise InputError(
            "the transposed order's weight partition does not refine the dual; "
            f"the matrix is not well defined for this poset and carrier ({exc})"
        ) from exc
    ints = km.integer_entries()
    row_blocks, col_blocks = km.row_part.blocks, km.col_part.blocks
    row_order = sorted(range(len(row_blocks)),
                       key=lambda r: poset_weight(dp, group, row_blocks[r][0]))
    col_order = sorted(range(len(col_blocks)),
                       key=lambda c: poset_weight(p, group, col_blocks[c][0]))
    return tuple(tuple(ints[r][c] for c in col_order) for r in row_order)


# ---------------------------------------------------------------------------
# duality report


def poset_duality_check(p: Poset, group: GroupSpec,
                        max_size: int = ELEMENT_GUARD) -> dict:
    """Compare dual(weight partition) against the transposed order's weights.

    Reports equality and both refinement directions, plus whether the poset is
    hierarchical, its level sizes if so, and whether the coordinate orders
    agree within every level (the two conditions that together characterize
    equality): the fields of ``dualpart poset-check``, in its order. Nothing is
    assumed about non-hierarchical posets; the refinement flags are empirical.
    """
    prim = poset_partition(p, group, max_size)
    dualized = dual_partition(prim, max_size)
    transposed = poset_partition(dual_poset(p), group, max_size)
    shape = is_hierarchical(p)
    return {
        "equal": dualized == transposed,
        "dual_refines_transposed": refines(dualized, transposed),
        "transposed_refines_dual": refines(transposed, dualized),
        "hierarchical": shape is not None,
        "levels": None if shape is None else list(shape[0]),
        "levels_equal_order": None if shape is None else level_orders(shape, group) is not None,
    }
