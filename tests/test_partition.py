import gc
import itertools
import random
import weakref

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

import dualpart.partition
from dualpart.enumerator import kk_product_check
from dualpart.errors import GuardExceeded, InputError, VerificationFailure
from dualpart.group import GroupSpec, elements
from dualpart.partition import (
    Partition,
    all_partitions,
    bidual,
    dual_partition,
    is_reflexive,
    join,
    krawtchouk,
    meet,
    mismatch_witness,
    negate,
    random_partition,
    random_reflexive_partition,
    refines,
)
import reference as ref
from test_sweep import SMALL_CARRIERS

Z6 = GroupSpec((6,))


def blocks6(*groups):
    return [[(x,) for x in b] for b in groups]


def part6(*groups):
    return Partition.from_blocks(Z6, blocks6(*groups))


def test_from_blocks_validation():
    with pytest.raises(InputError):
        Partition.from_blocks(Z6, blocks6([0], [1, 2]))  # missing elements
    with pytest.raises(InputError):
        Partition.from_blocks(Z6, blocks6([0, 1], [1, 2, 3, 4, 5]))  # overlap
    with pytest.raises(InputError):
        Partition.from_blocks(Z6, blocks6([0, 1, 2, 3, 4, 5], []))  # empty block


@pytest.mark.parametrize("groups, message", [
    # range, empty and duplicate are checked block by block, before overlap
    (([0, 1], [1, 2], [3, 4, 5, 7]),
     "element (7,) out of range for orders (6,): coordinate 0 is 7, order 6"),
    (([0, 1], [1, 2], [3, 3, 4, 5]), "duplicate element inside a block"),
    (([0, 0], [9]), "duplicate element inside a block"),
    (([0], [], [9]), "blocks must be nonempty"),
    # overlap comes before cover
    (([0, 1], [1, 2]), "blocks overlap"),
], ids=["range-after-overlap", "duplicate-beside-overlap", "duplicate-before-range",
        "empty-before-range", "overlap-before-cover"])
def test_from_blocks_error_precedence(groups, message):
    with pytest.raises(InputError) as info:
        Partition.from_blocks(Z6, blocks6(*groups))
    assert str(info.value) == message


def test_canonical_block_order():
    p = part6([3, 1, 5], [4, 2], [0])
    assert p.blocks[0] == ((0,),)
    assert p.blocks[1] == ((1,), (3,), (5,))
    assert p.blocks[2] == ((2,), (4,))
    assert ref.block_index(p, (4,)) == 2


def grouped(group, labels):
    """Oracle of a partition's blocks: the elements grouped by label, each
    group sorted, the groups sorted."""
    found = {}
    for g, label in zip(elements(group), labels):
        found.setdefault(label, []).append(g)
    return tuple(sorted(tuple(sorted(b)) for b in found.values()))


def random_labels(group, rng):
    """Random int labels, or (int, int) tuples as ``meet`` and ``product_partition``
    pass them, from few values, so that equal partitions come up often."""
    k = rng.randint(1, 3)
    if rng.random() < 0.5:
        return [rng.randrange(k) for _ in range(group.size)]
    return [(rng.randrange(k), rng.randrange(2)) for _ in range(group.size)]


@pytest.mark.parametrize("orders", [(2,), (4,), (6,), (2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_labels_identify_the_partition(orders):
    """Equal labels exactly for equal partitions, whatever labels built them,
    and the blocks read from the labels are the grouping oracle's."""
    g = GroupSpec(orders)
    rng = random.Random(repr(orders))
    parts, oracles = [], []
    for _ in range(40):
        labels = random_labels(g, rng)
        # the same grouping under other label values
        names = {x: rng.random() for x in set(labels)}
        for ls in (labels, [names[x] for x in labels]):
            parts.append(Partition.from_labels(g, ls))
            oracles.append(grouped(g, ls))
    assert len(set(oracles)) > 1 and len(set(oracles)) < len(oracles)
    for p, want in zip(parts, oracles):
        assert p.blocks == want and p.num_blocks == len(want)
    for (p, a), (q, b) in itertools.product(zip(parts, oracles), repeat=2):
        assert (p == q) == (a == b)
        if p == q:
            assert hash(p) == hash(q) and p.block_of == q.block_of


def test_blocks_are_built_once_by_the_sweep():
    """A partition holds only its labels until ``blocks`` is read; the sweep
    reads it once, and later reads return the same tuple."""
    g = GroupSpec((4, 4))
    part = Partition.from_labels(g, random_labels(g, random.Random(3)))
    assert "blocks" not in vars(part)
    dual = dual_partition(part)
    blocks = vars(part)["blocks"]
    assert part.blocks is blocks
    assert "blocks" not in vars(dual)


@pytest.mark.parametrize("orders", [(2,), (5,), (6,), (2, 2), (2, 4), (3, 3), (2, 2, 2)])
def test_join_equals_the_union_find_oracle(orders):
    g = GroupSpec(orders)
    rng = random.Random(repr(orders))
    for _ in range(50):
        a = Partition.from_labels(g, random_labels(g, rng))
        b = Partition.from_labels(g, random_labels(g, rng))
        want = ref.join(a, b)
        assert join(a, b) == want and join(b, a) == want
        assert refines(a, want) and refines(b, want)


def test_worked_example_dual():
    """Order 6 example: 0|135|24 dualizes to 0|1245|3 and is reflexive."""
    p = part6([0], [1, 3, 5], [2, 4])
    d = dual_partition(p)
    assert d == part6([0], [1, 2, 4, 5], [3])
    assert is_reflexive(p)
    assert bidual(p) == p
    k = krawtchouk(p, d)
    assert k.integer_entries() == ((1, 3, 2), (1, 0, -1), (1, -3, 2))


def test_worked_example_non_reflexive():
    """Order 6 example: 0|12|345 has a five-block dual and singleton bidual."""
    p = part6([0], [1, 2], [3, 4, 5])
    d = dual_partition(p)
    assert d == part6([0], [1], [2, 4], [3], [5])
    assert bidual(p) == Partition.singletons(Z6)
    assert not is_reflexive(p)


def test_signature_values():
    """The trivial character sums to the block sizes; characters 1 and 5 give equal
    sums and share a dual block, character 3 does not."""
    p = part6([0], [1, 3, 5], [2, 4])
    d = dual_partition(p)
    assert ref.block_index(d, (1,)) == ref.block_index(d, (5,)) != ref.block_index(d, (3,))
    assert krawtchouk(p, d).integer_entries()[ref.block_index(d, (0,))] == (1, 3, 2)


def test_lee_partition_z4_reflexive():
    g = GroupSpec((4,))
    p = Partition.from_blocks(g, [[(0,)], [(1,), (3,)], [(2,)]])
    assert is_reflexive(p)
    assert dual_partition(p) == p


def test_krawtchouk_rejects_nonconstant_character_blocks():
    p = part6([0], [1, 3, 5], [2, 4])
    coarse = part6([0, 1], [2, 3, 4, 5])
    with pytest.raises(VerificationFailure):
        krawtchouk(p, coarse)


def test_krawtchouk_checks_every_character_on_large_carriers():
    """On (2,)^9, one weight-1 character moved into the weight-2 character block."""
    g = GroupSpec((2,) * 9)
    hamming = Partition.from_labels(g, map(sum, elements(g)))
    moved = (1,) + (0,) * 8
    char_part = Partition.from_labels(g, [2 if x == moved else sum(x) for x in elements(g)])
    with pytest.raises(VerificationFailure) as info:
        krawtchouk(hamming, char_part)
    # character block 2 (weight 2) starts with (0,...,0,1,1); the two rows
    # first differ on primal block 1, where K_1(1) = 7 and K_1(2) = 5
    assert str(info.value).startswith(
        f"character block 2 holds {(0,) * 7 + (1, 1)} and {moved}, "
        "whose sums first differ on primal block 1;"
    )


def test_partition_keeps_its_sweep(monkeypatch):
    """Dual, bidual and matrices of one partition object share one sweep."""
    swept = []
    real = dualpart.partition._signature_rows

    def recording(part, *args, **kwargs):
        swept.append(part)
        return real(part, *args, **kwargs)

    monkeypatch.setattr(dualpart.partition, "_signature_rows", recording)
    lee = Partition.from_labels(GroupSpec((8,)), [min(x, 8 - x) for x in range(8)])
    dual = dual_partition(lee)
    assert dual == lee and bidual(lee) == lee and is_reflexive(lee)
    krawtchouk(lee, dual)
    kk_product_check(lee)
    assert swept == [lee]
    with pytest.raises(GuardExceeded):
        dual_partition(lee, max_size=4)


def test_kept_sweep_forms_no_reference_cycle():
    """A self-dual partition and its kept sweeps are freed by reference counting."""
    lee = Partition.from_labels(GroupSpec((8,)), [min(x, 8 - x) for x in range(8)])
    kk_product_check(lee)
    ref = weakref.ref(lee)
    gc.disable()
    try:
        del lee
        assert ref() is None
    finally:
        gc.enable()


def unswept(part):
    """A copy of the partition without its kept sweep."""
    return Partition(part.group, part.block_of, part.num_blocks)


def test_reflexive_partition_that_is_not_self_dual_is_swept_once(monkeypatch):
    """P** refines P and has |P*| blocks, so |P*| = |P| gives P** = P: the bidual of a
    reflexive partition P != P* takes one sweep, and equals a fresh sweep of the dual."""
    parts = []
    for orders in SMALL_CARRIERS:
        for seed in range(3):
            part = random_reflexive_partition(GroupSpec(orders), random.Random(seed))
            if dual_partition(part) != part:
                parts.append(unswept(part))
    assert len(parts) >= 18
    swept = []
    real = dualpart.partition._signature_rows
    monkeypatch.setattr(dualpart.partition, "_signature_rows",
                        lambda part, **kwargs: swept.append(part) or real(part, **kwargs))
    for part in parts:
        swept.clear()
        assert bidual(part) == part and swept == [part]
        assert dual_partition(unswept(dual_partition(part))) == part


def test_krawtchouk_cross_carrier_rejected():
    p = part6([0], [1, 2, 3, 4, 5])
    q = Partition.one_block(GroupSpec((2, 3)))
    with pytest.raises(InputError):
        krawtchouk(p, q)


def test_meet_join_counterexamples():
    """Self-dual pairs whose meet and join escape the self-dual family."""
    g8 = GroupSpec((8,))

    def p8(*groups):
        return Partition.from_blocks(g8, [[(x,) for x in b] for b in groups])

    p = p8([0], [1, 7], [2, 6], [3, 5], [4])
    q = p8([0], [1, 3], [2, 6], [4], [5, 7])
    assert dual_partition(p) == p and dual_partition(q) == q
    m = meet(p, q)
    assert m == p8([0], [1], [2, 6], [3], [4], [5], [7])
    assert dual_partition(m) == Partition.singletons(g8)

    g5 = GroupSpec((5,))

    def p5(*groups):
        return Partition.from_blocks(g5, [[(x,) for x in b] for b in groups])

    a = p5([0], [1, 2], [3, 4])
    b = p5([0], [1, 2, 3], [4])
    assert dual_partition(a) == Partition.singletons(g5)
    assert dual_partition(b) == Partition.singletons(g5)
    j = join(a, b)
    assert j == p5([0], [1, 2, 3, 4])
    assert dual_partition(j) == j


def test_refines_and_lattice_basics():
    fine = part6([0], [1], [2], [3], [4], [5])
    mid = part6([0], [1, 3, 5], [2, 4])
    assert refines(fine, mid)
    assert not refines(mid, fine)
    assert meet(mid, mid) == mid
    assert join(mid, mid) == mid
    assert refines(meet(mid, fine), mid)
    assert refines(mid, join(mid, fine))


def test_mismatch_witness():
    a = part6([0], [1, 3, 5], [2, 4])
    b = part6([0], [1, 2, 4, 5], [3])
    assert mismatch_witness(a, a) is None
    w = mismatch_witness(a, b)
    assert w is not None
    x, y = w
    assert (ref.block_index(a, x) == ref.block_index(a, y)) != (
        ref.block_index(b, x) == ref.block_index(b, y)
    )


def test_negate():
    p = part6([0], [1, 2], [3, 4, 5])
    n = negate(p)
    assert n == part6([0], [4, 5], [1, 2, 3])
    d = dual_partition(p)
    assert negate(d) == d


def test_f4_twist():
    """The dual depends on which identification of the character group is used."""
    g = GroupSpec((2, 2))
    # carrier spellings: 0=(0,0), 1=(1,0), a=(0,1), a2=(1,1)
    trace = {(0, 0): (0, 0), (1, 0): (0, 1), (0, 1): (1, 1), (1, 1): (1, 0)}
    els = elements(g)
    assert all(trace[g.add(x, y)] == g.add(trace[x], trace[y]) for x in els for y in els)
    trace_table, plain_table = [trace[x] for x in els], els

    def dual_under_iso(part, table):
        # the dual pulled back through the table: x joins the dual block of its image
        dual = dual_partition(part)
        return Partition.from_labels(g, (dual.block_of[g.rank(t)] for t in table))

    p = Partition.from_blocks(g, [[(0, 0)], [(1, 0)], [(0, 1), (1, 1)]])
    d_trace = dual_under_iso(p, trace_table)
    d_plain = dual_under_iso(p, plain_table)
    assert d_trace == p
    assert d_plain == Partition.from_blocks(
        g, [[(0, 0)], [(1, 0), (1, 1)], [(0, 1)]]
    )
    assert d_plain != p
    # second duals agree regardless of the identification
    assert dual_under_iso(d_trace, trace_table) == dual_under_iso(d_plain, plain_table)
    assert dual_under_iso(d_trace, trace_table) == p


def test_kk_product_structure():
    p = part6([0], [1, 3, 5], [2, 4])
    verdicts = kk_product_check(p)
    assert all(all(row) for row in verdicts)
    q = part6([0], [1, 2], [3, 4, 5])
    assert all(all(row) for row in kk_product_check(q))


def test_all_partitions_bell_counts():
    assert len(list(all_partitions(GroupSpec((2,))))) == 2
    assert len(list(all_partitions(GroupSpec((3,))))) == 5
    assert len(list(all_partitions(GroupSpec((4,))))) == 15
    assert len(list(all_partitions(GroupSpec((5,))))) == 52


def test_random_partition_properties():
    rng = random.Random(0)
    g = GroupSpec((2, 4))
    for _ in range(50):
        p = random_partition(g, rng)
        assert sum(len(b) for b in p.blocks) == g.size
        z = random_partition(g, rng, zero_block=True)
        assert z.blocks[0] == (g.zero,)


def test_random_reflexive_partition():
    rng = random.Random(1)
    for orders in [(6,), (8,), (2, 2, 2), (12,), (4, 4), (2, 6)]:
        g = GroupSpec(orders)
        for _ in range(10):
            p = random_reflexive_partition(g, rng)
            assert is_reflexive(p)
            assert bidual(p) == p
    # one bidual is not always enough: this one is not reflexive
    g12 = GroupSpec((12,))
    p = Partition.from_blocks(g12, [[(x,) for x in (0, 1, 5, 7, 8, 10, 11)],
                                    [(x,) for x in (2, 3, 4, 6, 9)]])
    assert not is_reflexive(bidual(p))


def test_one_block_and_singletons():
    p = Partition.one_block(Z6)
    assert p.num_blocks == 1
    d = dual_partition(p)
    assert d == part6([0], [1, 2, 3, 4, 5])
    s = Partition.singletons(Z6)
    assert dual_partition(s) == s  # full character separation
    assert is_reflexive(s)


small_groups = st.sampled_from([(4,), (5,), (6,), (2, 3), (2, 2), (8,), (3, 3)])


@given(small_groups, st.integers(0, 10 ** 9))
@settings(max_examples=150, deadline=None)
def test_duality_properties_random(orders, seed):
    g = GroupSpec(orders)
    p = random_partition(g, random.Random(seed))
    d = dual_partition(p)
    dd = dual_partition(d)
    assert d.num_blocks >= p.num_blocks
    assert refines(dd, p)
    assert (d.num_blocks == p.num_blocks) == (dd == p)
    assert d.blocks[0] == (g.zero,)
    assert negate(d) == d


@given(small_groups, st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_join_duality_random(orders, seed):
    g = GroupSpec(orders)
    rng = random.Random(seed)
    a = random_reflexive_partition(g, rng)
    b = random_reflexive_partition(g, rng)
    assert is_reflexive(join(a, b))
    assert dual_partition(join(a, b)) == join(dual_partition(a), dual_partition(b))


@given(small_groups, st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_kk_pattern_random(orders, seed):
    g = GroupSpec(orders)
    p = random_partition(g, random.Random(seed))
    assert all(all(row) for row in kk_product_check(p))
