"""The down-set mask form of a poset against the reference's order on pairs:
validation, covers, the transposed order, the hierarchical shape, the weight of
each support (the size of its ideal), the weight partition, the duality report
and the brute-force Krawtchouk matrix."""

import itertools
import math
import random

import pytest

import reference as ref
from dualpart.errors import InputError, VerificationFailure
from dualpart.group import GroupSpec, elements
from dualpart.partition import dual_partition, krawtchouk, refines
from dualpart.poset import (
    Poset,
    all_posets,
    dual_poset,
    is_hierarchical,
    level_orders,
    poset_duality_check,
    poset_krawtchouk_bruteforce,
    poset_partition,
    poset_weight,
)


def assert_order_matches(p: Poset) -> None:
    lt = ref.order_of(p)
    assert p.covers() == ref.covers(lt)
    assert ref.order_of(dual_poset(p)) == ref.transposed(lt)
    shape = is_hierarchical(p)
    assert (None if shape is None else (shape.levels, shape.level_of)) == ref.hierarchy(p.n, lt)
    binary = GroupSpec((2,) * p.n)
    for support in elements(binary):
        assert poset_weight(p, binary, support) == ref.weight(lt, support)


def assert_weights_match(p: Poset, grp: GroupSpec) -> None:
    """Partition, block weights, duality report and brute-force matrix."""
    lt = ref.order_of(p)
    prim = ref.weight_partition(lt, grp)
    part = poset_partition(p, grp)
    assert part == prim
    assert [poset_weight(p, grp, b[0]) for b in part.blocks] \
        == [ref.weight(lt, b[0]) for b in prim.blocks]
    dualized = dual_partition(prim)
    transposed = ref.weight_partition(ref.transposed(lt), grp)
    report = poset_duality_check(p, grp)
    assert (report.equal, report.dual_refines_transposed, report.transposed_refines_dual) \
        == (dualized == transposed, refines(dualized, transposed), refines(transposed, dualized))
    assert (None if report.shape is None else (report.shape.levels, report.shape.level_of)) \
        == ref.hierarchy(p.n, lt)
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
                  key=lambda r: ref.weight(ref.transposed(lt), transposed.blocks[r][0]))
    cols = sorted(range(prim.num_blocks), key=lambda c: ref.weight(lt, prim.blocks[c][0]))
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
    """Random masks, most of them not orders: each is refused exactly when its pairs
    break an axiom of a strict order, naming the first one broken, and a mask past
    bit n is refused."""
    messages = {"reflexive": "strict order cannot be reflexive",
                "antisymmetric": "order relation is not antisymmetric",
                "transitive": "order relation is not transitive"}
    rng = random.Random(7)
    refused = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        below = tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n))
        lt = frozenset((i, j) for j in range(n) for i in range(n) if below[j] >> i & 1)
        problem = ref.order_problem(lt)
        if problem:
            refused += 1
            with pytest.raises(InputError) as info:
                Poset(n, below)
            assert str(info.value) == messages[problem]
        else:
            assert ref.order_of(Poset(n, below)) == lt
    assert 0 < refused < 3000
    for below in [(4, 0), (0, -1), (0, True), (0,)]:
        with pytest.raises(InputError, match="down-sets must be n bit masks"):
            Poset(2, below)
