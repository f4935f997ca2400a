import itertools
import random

import pytest

import reference as ref
from dualpart.errors import InputError
from dualpart.group import GroupSpec, elements
from dualpart.induced import (
    check_product_duality,
    check_symmetrized_duality,
    power_group,
    product_group,
    product_partition,
    symmetrized_partition,
)
from dualpart.partition import (
    Partition,
    dual_partition,
    random_partition,
    refines,
)


Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
K4 = GroupSpec((2, 2))


def hamming(g):
    nonzero = [x for x in elements(g) if x != g.zero]
    return Partition.from_blocks(g, [[g.zero], nonzero])


def test_carrier_concatenation():
    assert product_group([Z2, Z3]).orders == (2, 3)
    assert power_group(K4, 2).orders == (2, 2, 2, 2)
    assert ref.split([K4, K4], (1, 0, 0, 1)) == ((1, 0), (0, 1))


def test_product_partition_blocks():
    p = hamming(Z2)
    pp = product_partition([p, p])
    # four blocks, one per pair of factor blocks
    assert pp.num_blocks == 4
    assert ref.block_index(pp, (0, 0)) != ref.block_index(pp, (0, 1))
    assert ref.block_index(pp, (1, 0)) != ref.block_index(pp, (1, 1))


def test_product_distinct_factors():
    pp = product_partition([hamming(Z2), hamming(Z3)])
    assert pp.group.orders == (2, 3)
    assert pp.num_blocks == 4
    # (1,1) and (1,2) share the (nonzero, nonzero) block
    assert ref.block_index(pp, (1, 1)) == ref.block_index(pp, (1, 2))


def test_product_labels_need_no_numbering_pass():
    """The mixed-radix labels ``product_partition`` stores are the canonical ones:
    numbering each word's tuple of factor blocks by first appearance gives them back."""
    rng = random.Random(5)
    kinds = [lambda g: random_partition(g, rng),
             lambda g: random_partition(g, rng, zero_block=True),
             Partition.singletons, Partition.one_block]
    empty = GroupSpec(())
    for groups in ([Z2, Z3], [Z4, K4, Z2], [Z3, empty, Z4], [empty], [empty, empty], [K4]):
        for makers in itertools.product(kinds, repeat=len(groups)):
            parts = [make(g) for make, g in zip(makers, groups)]
            got = product_partition(parts)
            tuples = itertools.product(*(p.block_of for p in parts))
            want = Partition.from_labels(product_group(groups), tuples)
            assert (got.block_of, got.num_blocks) == (want.block_of, want.num_blocks)


def test_symmetrized_partition_blocks():
    p = hamming(Z2)
    sp = symmetrized_partition(p, 3)
    # blocks indexed by weight 0..3
    assert sp.num_blocks == 4
    assert ref.block_index(sp, (1, 0, 1)) == ref.block_index(sp, (0, 1, 1))
    assert ref.block_index(sp, (1, 0, 0)) != ref.block_index(sp, (1, 1, 0))


def test_composition_vector():
    """Two words share a symmetrized block when their coordinates fall in the base's
    blocks the same number of times: with base blocks of sizes 1, 2 and 1 on Z4, the six
    composition vectors of two copies have 1, 4, 1, 4, 2 and 4 words."""
    p = Partition.from_blocks(Z4, [[(0,)], [(1,), (3,)], [(2,)]])
    sp = symmetrized_partition(p, 2)
    assert sorted(map(len, sp.blocks)) == [1, 1, 2, 4, 4, 4]
    assert sp.blocks[ref.block_index(sp, (1, 3))] == ((1, 1), (1, 3), (3, 1), (3, 3))
    assert sp.blocks[ref.block_index(sp, (0, 2))] == ((0, 2), (2, 0))


def test_symmetrized_refines_relation():
    p = hamming(Z3)
    prod = product_partition([p, p])
    sym = symmetrized_partition(p, 2)
    assert refines(prod, sym)


def test_duality_commutes_with_zero_blocks():
    rng = random.Random(3)
    for base in (Z2, Z3, Z4, K4):
        for copies in (2, 3):
            parts = [random_partition(base, rng, zero_block=True) for _ in range(copies)]
            assert check_product_duality(parts) is None
            assert check_symmetrized_duality(parts[0], copies) is None


def test_single_block_is_a_strict_counterexample():
    whole = Partition.one_block(Z3)
    assert check_product_duality([whole, whole]) is not None
    left = dual_partition(product_partition([whole, whole]))
    right = product_partition([dual_partition(whole)] * 2)
    assert refines(right, left) and right != left
    sleft = dual_partition(symmetrized_partition(whole, 2))
    sright = symmetrized_partition(dual_partition(whole), 2)
    assert refines(sright, sleft) and sright != sleft


def test_product_requires_factors():
    with pytest.raises(InputError):
        product_partition([])
