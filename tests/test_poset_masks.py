"""The down-set mask form of a poset against the boolean less-than matrix it
replaced, kept here as the oracle: validation, covers, the transposed order,
ideals, the hierarchical shape, the weight partition, the duality report and
the brute-force Krawtchouk matrix."""

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import pytest

from dualpart.errors import InputError, VerificationFailure
from dualpart.group import ELEMENT_GUARD, Element, GroupSpec
from dualpart.partition import Partition, dual_partition, krawtchouk, refines
from dualpart.poset import (
    Poset,
    all_posets,
    dual_poset,
    ideal,
    is_hierarchical,
    level_orders,
    poset_duality_check,
    poset_krawtchouk_bruteforce,
    poset_partition,
    poset_weight,
)

# ---------------------------------------------------------------------------
# the oracle: the less-than matrix form, as the library had it


def _transitive(lt: Sequence[Sequence[bool]]) -> bool:
    """True when i < j and j < k always give i < k, on a square less-than matrix."""
    n = len(lt)
    return all(lt[i][k] for i in range(n) for j in range(n) if lt[i][j]
               for k in range(n) if lt[j][k])


@dataclass(frozen=True)
class MatrixPoset:
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


def matrix_dual_poset(p: MatrixPoset) -> MatrixPoset:
    return MatrixPoset(p.n, tuple(tuple(p.lt[j][i] for j in range(p.n)) for i in range(p.n)))


def matrix_ideal(p: MatrixPoset, coords: Iterable[int]) -> frozenset[int]:
    """Downward closure of a coordinate set."""
    s = set(coords)
    if any(not 0 <= x < p.n for x in s):
        raise InputError("coordinate out of range")
    return frozenset(
        x for x in range(p.n) if x in s or any(p.lt[x][y] for y in s)
    )


def matrix_weight(p: MatrixPoset, group: GroupSpec) -> Callable[[Element], int]:
    """The weight of a valid element of the carrier, after one check of the factor count."""
    if len(group.orders) != p.n:
        raise InputError("carrier must have one cyclic factor per coordinate")
    return lambda g: len(matrix_ideal(p, (i for i, x in enumerate(g) if x)))


def matrix_partition(p: MatrixPoset, group: GroupSpec,
                     max_size: int = ELEMENT_GUARD) -> Partition:
    return Partition.from_weight(group, matrix_weight(p, group), max_size)


def matrix_is_hierarchical(p: MatrixPoset) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Level sizes and the level of every coordinate, or None."""
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
    return tuple(sizes), tuple(level_of)


# ---------------------------------------------------------------------------
# the comparisons


def as_matrix(p: Poset) -> MatrixPoset:
    return MatrixPoset(p.n, tuple(tuple(bool(p.below[j] >> i & 1) for j in range(p.n))
                                  for i in range(p.n)))


def assert_order_matches(p: Poset) -> None:
    old = as_matrix(p)
    assert p.covers() == old.covers()
    assert as_matrix(dual_poset(p)) == matrix_dual_poset(old)
    shape = is_hierarchical(p)
    assert (None if shape is None else (shape.levels, shape.level_of)) \
        == matrix_is_hierarchical(old)
    for k in range(p.n + 1):
        for coords in itertools.combinations(range(p.n), k):
            assert ideal(p, coords) == matrix_ideal(old, coords)


def assert_weights_match(p: Poset, grp: GroupSpec) -> None:
    """Partition, block weights, duality report and brute-force matrix."""
    old, old_dual = as_matrix(p), matrix_dual_poset(as_matrix(p))
    prim = matrix_partition(old, grp)
    part = poset_partition(p, grp)
    assert part == prim
    weight = matrix_weight(old, grp)
    assert [poset_weight(p, grp, b[0]) for b in part.blocks] \
        == [weight(b[0]) for b in prim.blocks]
    dualized = dual_partition(prim)
    transposed = matrix_partition(old_dual, grp)
    shape = matrix_is_hierarchical(old)
    report = poset_duality_check(p, grp)
    assert (report.equal, report.dual_refines_transposed, report.transposed_refines_dual) \
        == (dualized == transposed, refines(dualized, transposed), refines(transposed, dualized))
    assert (None if report.shape is None else (report.shape.levels, report.shape.level_of)) \
        == shape
    assert report.levels_equal_order == (
        None if report.shape is None else level_orders(report.shape, grp) is not None)
    try:
        km = krawtchouk(prim, transposed)
    except VerificationFailure:
        with pytest.raises(InputError, match="does not refine the dual"):
            poset_krawtchouk_bruteforce(p, grp)
        return
    ints = km.integer_entries()
    rows = sorted(range(transposed.num_blocks),
                  key=lambda r: matrix_weight(old_dual, grp)(transposed.blocks[r][0]))
    cols = sorted(range(prim.num_blocks), key=lambda c: weight(prim.blocks[c][0]))
    assert poset_krawtchouk_bruteforce(p, grp) \
        == tuple(tuple(ints[r][c] for c in cols) for r in rows)


SMALL_CARRIERS = [orders for n in range(1, 5)
                  for orders in itertools.product((2, 3, 4), repeat=n)
                  if math.prod(orders) <= 64]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_operations_match_the_matrix_oracle(n):
    for p in all_posets(n):
        assert_order_matches(p)


@pytest.mark.parametrize("orders", SMALL_CARRIERS, ids=str)
def test_every_small_poset_weighs_as_the_matrix_oracle(orders):
    grp = GroupSpec(orders)
    for p in all_posets(len(orders)):
        assert_weights_match(p, grp)


def random_poset(n: int, rng: random.Random, density: float = 0.3) -> Poset:
    """Relations upward along a random linear extension, each with the given
    chance, closed transitively: the benchmark's random orders."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Poset.from_covers(n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < density])


@pytest.mark.parametrize("orders", [(2,) * 8, (2,) * 9, (3,) * 6, (8, 8, 8), (16, 16),
                                    (4, 4, 4, 4)], ids=str)
def test_random_posets_weigh_as_the_matrix_oracle(orders):
    rng = random.Random(len(orders) * 100 + orders[0])
    grp = GroupSpec(orders)
    for _ in range(50):
        p = random_poset(len(orders), rng)
        assert_order_matches(p)
        assert_weights_match(p, grp)


def test_mask_validation_matches_the_matrix_oracle():
    """Random masks, most of them not orders: each is refused exactly when its
    matrix is, for the same reason, and a mask past bit n is refused."""
    rng = random.Random(7)
    refused = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        below = tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))
        lt = tuple(tuple(bool(below[j] >> i & 1) for j in range(n)) for i in range(n))
        try:
            MatrixPoset(n, lt)
        except InputError as exc:
            refused += 1
            with pytest.raises(InputError, match=str(exc)):
                Poset(n, below)
        else:
            assert as_matrix(Poset(n, below)).lt == lt
    assert 0 < refused < 3000
    for below in [(4, 0), (0, -1), (0, True), (0,)]:
        with pytest.raises(InputError, match="down-sets must be n bit masks"):
            Poset(2, below)
