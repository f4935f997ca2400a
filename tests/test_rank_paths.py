"""Rank- and integer-based constructions against the reference.

Partitions built from labels (fibers, meet, join, random urns), induced
partitions, dual codes, the transform step, the double-dual product K'K,
floating approximations, ``generate`` (which keeps exactly the member sets
that are subgroups), ``all_subgroups``, the unit generators, ``refines``,
``mismatch_witness``, the long division, the ``CycInt`` arithmetic and
``Poset.from_covers`` are each compared with their definitions in
``reference``. Canonical block order, which ``from_blocks`` also takes from
``from_labels``, is checked against ``sorted`` over element sets.
"""

import itertools
import json
import random
from collections import Counter

import pytest

import reference as ref
from dualpart.cyclotomic import CycInt, _poly_divmod, euler_phi, unit_generators
from dualpart.enumerator import _root_order, product_enumerator, product_transform
from dualpart.errors import InputError
from dualpart.group import GroupSpec, all_subgroups, dual_code, elements, generate
from dualpart.induced import product_partition, symmetrized_partition
from dualpart.partition import (
    Partition,
    dual_partition,
    join,
    krawtchouk,
    meet,
    mismatch_witness,
    negate,
    random_partition,
    random_reflexive_partition,
    refines,
)
from dualpart.poset import Poset
from test_packed_matrix import approx_pair
from test_product_grid import factor_matrix, grid_cells, kk_by_the_step, pair, wrong_matrices
from test_serialization import written
from test_sweep import SMALL_CARRIERS, carriers


def fibers(group, labels):
    out = {}
    for g, label in zip(elements(group), labels):
        out.setdefault(label, []).append(g)
    return list(out.values())


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_from_labels_equals_from_blocks(orders):
    g = GroupSpec(orders)
    rng = random.Random(repr(orders))
    for k in (1, 2, 5, g.size):
        labels = [rng.randrange(k) for _ in range(g.size)]
        part = Partition.from_labels(g, labels)
        want = Partition.from_blocks(g, fibers(g, labels))
        assert part == want
        assert part.block_of == want.block_of


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_from_labels_orders_blocks_as_sorted_element_sets(orders):
    """Canonical order from ``sorted`` alone: each block sorted, blocks by least member."""
    g = GroupSpec(orders)
    rng = random.Random(repr(orders))
    for k in (1, 2, 5, g.size):
        labels = [rng.randrange(k) for _ in range(g.size)]
        sets = {}
        for x, label in zip(elements(g), labels):
            sets.setdefault(label, set()).add(x)
        want = sorted(sorted(members) for members in sets.values())
        part = Partition.from_labels(g, labels)
        assert part.blocks == tuple(map(tuple, want))
        assert all(ref.block_index(part, x) == i for i, b in enumerate(want) for x in b)


def test_from_labels_rejects_a_wrong_length():
    g = GroupSpec((2, 3))
    for labels in ([0] * 5, [0] * 7, []):
        with pytest.raises(InputError, match="labels for 6 elements"):
            Partition.from_labels(g, labels)


@pytest.mark.parametrize("orders", [(6,), (2, 4), (3, 3), (2, 2, 2), (12,)])
def test_meet_and_join_match_the_blockwise_constructions(orders):
    g = GroupSpec(orders)
    rng = random.Random(7)
    for _ in range(20):
        a, b = random_partition(g, rng), random_partition(g, rng)
        assert meet(a, b) == ref.meet(a, b)
        assert join(a, b) == ref.join(a, b)


@pytest.mark.parametrize("orders", [(), (2,), (6,), (2, 4), (3, 3), (105,)])
def test_random_partition_draws_as_before(orders):
    g = GroupSpec(orders)
    for zero_block in (False, True):
        for seed in range(4):
            new = random_partition(g, random.Random(seed), zero_block=zero_block)
            assert new == ref.random_partition(g, random.Random(seed), zero_block)


# ---------------------------------------------------------------------------
# induced partitions


BASES = [(2,), (3,), (4,), (2, 2), (6,), (2, 3)]


@pytest.mark.parametrize("orders", BASES)
def test_product_partition_matches_block_products(orders):
    rng = random.Random(11)
    g = GroupSpec(orders)
    for copies in (1, 2, 3):
        parts = [random_partition(g, rng) for _ in range(copies)]
        assert product_partition(parts) == ref.product_partition(parts)
    mixed = [random_partition(GroupSpec((2,)), rng), random_partition(g, rng)]
    assert product_partition(mixed) == ref.product_partition(mixed)


@pytest.mark.parametrize("orders", BASES)
def test_symmetrized_partition_matches_composition_fibers(orders):
    rng = random.Random(13)
    g = GroupSpec(orders)
    for copies in (1, 2, 3):
        base = random_partition(g, rng)
        assert symmetrized_partition(base, copies) == ref.symmetrized_partition(base, copies)


# ---------------------------------------------------------------------------
# dual codes


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_dual_code_matches_the_pairing_definition(orders):
    """The dual of every subgroup of every carrier up to 64 elements; each dual is
    one of those subgroups, so each double dual is checked too."""
    g = GroupSpec(orders)
    for code in all_subgroups(g):
        perp = dual_code(g, code)
        assert perp == ref.dual_code(g, code.generators)
        assert code.size * perp.size == g.size


def test_dual_code_of_given_generators():
    g = GroupSpec((4, 6))
    code = generate(g, [(2, 3), (1, 2), (2, 3)])
    assert dual_code(g, code) == ref.dual_code(g, code.generators)


def test_dual_code_rejects_a_code_on_another_carrier():
    with pytest.raises(InputError):
        dual_code(GroupSpec((6,)), generate(GroupSpec((2, 3)), [(1, 1)]))


# ---------------------------------------------------------------------------
# the integer transform step


def rational_factor_matrices():
    rng = random.Random(3)
    out = []
    for orders in [(2,), (3,), (4,), (5,), (6,), (8,), (2, 2), (2, 4), (3, 3)]:
        g = GroupSpec(orders)
        for _ in range(6):
            m = factor_matrix(random_reflexive_partition(g, rng))
            if all(ref.rational(x) is not None for row in ref.entries(m) for x in row):
                out.append(m)
    return out


def singletons_matrix(n):
    return factor_matrix(Partition.singletons(GroupSpec((n,))))


def random_dists(rows, rng):
    for width in (1, 3):
        yield {tuple(rng.randrange(rows) for _ in range(width)): rng.randrange(1, 9)
               for _ in range(6)}


def check_steps(dist, matrix, monkeypatch):
    """Every cell of ``product_transform`` on ``dist`` by ``matrix`` in each coordinate,
    each exact sum the reference gives, irrational ones included: one grid step per
    coordinate."""
    width = len(next(iter(dist)))
    _, cells, steps = grid_cells(monkeypatch, product_transform, dist,
                                 [matrix] * width, 1)
    assert steps == width
    assert cells == list(ref.product_transform(dist, [pair(matrix)] * width).values())


def test_integer_step_equals_the_cycint_step(monkeypatch):
    rng = random.Random(5)
    matrices = rational_factor_matrices()
    assert len(matrices) > 20
    for m in matrices:
        assert _root_order([m]) == 1  # entries are plain ints
        for dist in random_dists(m.shape[0], rng):
            check_steps(dist, m, monkeypatch)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_irrational_grid_step_equals_the_cycint_step(n, monkeypatch):
    rng = random.Random(n)
    m = singletons_matrix(n)
    assert _root_order([m]) == n
    dists = [{(r,): 1 for r in range(n)}, *random_dists(n, rng)]
    for matrix in [m] + wrong_matrices(m):
        for dist in dists:
            check_steps(dist, matrix, monkeypatch)


def test_mixed_matrices_transform_to_the_dual_code():
    g3 = GroupSpec((3,))
    hamming = Partition.from_labels(g3, [x != (0,) for x in elements(g3)])
    singles = Partition.singletons(g3)
    big = GroupSpec((3, 3, 3))
    parts = [hamming, singles, hamming]
    for code in all_subgroups(big):
        counts = product_enumerator(code, parts)
        out = product_transform(counts, [factor_matrix(p) for p in parts], code.size)
        direct = product_enumerator(dual_code(big, code),
                                    [dual_partition(p) for p in parts])
        assert out == direct


# ---------------------------------------------------------------------------
# the double-dual product K'K


KK_CARRIERS = carriers(16)


@pytest.mark.parametrize("orders", KK_CARRIERS)
def test_kk_product_matches_the_triple_loop(orders, monkeypatch):
    """Every entry of K'K and every verdict, on random and reflexive partitions,
    and again with one entry of K made wrong, which must make a verdict false: its
    constant coefficient raised by 1, and its z coefficient where there is one."""
    grp = GroupSpec(orders)
    rng = random.Random(len(orders) * 100 + grp.size)
    for part in (random_partition(grp, rng), random_reflexive_partition(grp, rng)):
        dual = dual_partition(part)
        k, k2 = krawtchouk(part, dual), krawtchouk(dual, dual_partition(dual))
        for matrix in [k] + wrong_matrices(k):
            want, want_verdicts = ref.kk_product(part, pair(matrix), pair(k2))
            verdicts, product = kk_by_the_step(part, matrix, k2, monkeypatch)
            assert product == want
            assert verdicts == want_verdicts
            assert all(map(all, verdicts)) is (matrix is k)


def test_kk_carriers_include_irrational_exponents():
    exponents = {GroupSpec(orders).exponent for orders in KK_CARRIERS}
    assert {5, 8, 12} <= exponents
    for n in (5, 8, 12):
        k = singletons_matrix(n)
        assert any(ref.rational(x) is None for row in ref.entries(k) for x in row)


# ---------------------------------------------------------------------------
# floating approximations


@pytest.mark.parametrize("orders", [(8,), (12,), (105,), (3, 3)])
def test_approx_skipping_zeros_serializes_the_same(orders):
    g = GroupSpec(orders)
    rng = random.Random(17)
    parts = [Partition.singletons(g), random_partition(g, rng),
             random_partition(g, rng, zero_block=True)]
    for part in parts:
        k = krawtchouk(part, dual_partition(part))
        assert json.loads(written(k))["approx"] == [
            [approx_pair(ref.approx(x, k.order)) for x in row] for row in ref.entries(k)]


# ---------------------------------------------------------------------------
# one closure: generate as a fold of _close, closure tested on generators,
# subgroups by canonical augmentation, and the unit generators


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_generate_equals_the_breadth_first_closure(orders):
    """Random generator lists, and the generators of every subgroup."""
    g = GroupSpec(orders)
    els = elements(g)
    rng = random.Random(repr(orders))
    drawn = [[rng.choice(els) for _ in range(count)] for count in (0, 1, 1, 2, 2, 3, 4)]
    for gens in drawn + [code.generators for code in all_subgroups(g)]:
        assert generate(g, gens) == ref.generate(g, gens)


@pytest.mark.parametrize("orders", [(6,), (2, 4), (2, 2, 2)])
def test_closure_verdict_matches_the_pair_loop_on_every_member_set(orders):
    g = GroupSpec(orders)
    els = elements(g)
    accepted = 0
    for k in range(len(els) + 1):
        for members in itertools.combinations(els, k):
            code = generate(g, members)
            if code.elements != members:
                assert not ref.is_subgroup(g, members), members
                continue
            assert code == ref.generate(g, members), members
            accepted += 1
    assert accepted == len(all_subgroups(g))


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_all_subgroups_equals_the_closure_search(orders):
    g = GroupSpec(orders)
    assert all_subgroups(g) == ref.all_subgroups(g)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_subgroups_of_the_binary_space_of_dimension_six():
    """[6 choose k]_2 subspaces of each dimension k, 2825 in all, each once."""
    g = GroupSpec((2,) * 6)
    subs = all_subgroups(g)
    assert len({c.elements for c in subs}) == len(subs) == 2825
    sizes = Counter(c.size for c in subs)
    assert sizes == {2 ** k: gaussian_binomial(6, k, 2) for k in range(7)}


def test_unit_generators_equal_the_coset_loop():
    for order in range(1, 1025):
        assert unit_generators(order) == ref.unit_generators(order), order


@pytest.mark.parametrize("orders", [(), (2,), (6,), (2, 4), (3, 3), (2, 2, 2), (16,)])
def test_refines_and_witness_match_the_element_set_versions(orders):
    g = GroupSpec(orders)
    rng = random.Random(23)
    for _ in range(30):
        a, b = random_partition(g, rng), random_partition(g, rng)
        # random pairs rarely refine each other; their meet and join always do
        for x, y in ((a, b), (b, a), (meet(a, b), a), (a, join(a, b)), (a, a),
                     (Partition.singletons(g), a), (a, Partition.one_block(g))):
            assert refines(x, y) == ref.refines(x, y)
            assert mismatch_witness(x, y) == ref.mismatch_witness(x, y)
            assert negate(x) == ref.negate(x)


def test_divmod_matches_the_two_long_divisions():
    rng = random.Random(29)
    for _ in range(400):
        den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 6))) + (1,)
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(len(den), 14)))
        assert _poly_divmod(num, den) == ref.divmod_poly(num, den)
        exact = ref.add_product([], [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))], den)
        q, r = _poly_divmod(exact, den)
        assert (q, r) == ref.divmod_poly(exact, den) and not any(r)


def random_vector(rng, length):
    """Dense, or one or two terms, which the width rule reads at its tightest."""
    top = 1 << rng.choice((2, 20, 40))
    if rng.random() < 0.5:
        return tuple(rng.randint(-top, top) for _ in range(length))
    out = [0] * length
    for _ in range(rng.randint(1, 2)):
        out[rng.randrange(length)] = rng.randint(-top, top)
    return tuple(out)


@pytest.mark.parametrize("orders", [range(1, 65), range(65, 129), range(129, 193),
                                    range(193, 257)], ids=lambda r: f"{r.start}-{r.stop - 1}")
def test_kronecker_arithmetic_matches_convolution_and_long_division(orders):
    """Products, over-long reductions, conjugates and lifts at every order up to 256,
    coefficients up to 2^40 (widths past 64 bits), against the reference."""
    rng = random.Random(orders.start)
    for e in orders:
        phi = euler_phi(e)
        for _ in range(3):
            a, b = random_vector(rng, phi), random_vector(rng, phi)
            assert (CycInt(e, a) * CycInt(e, b)).coeffs == ref.mul(a, b, e), e
            raw = random_vector(rng, rng.randint(phi + 1, 2 * e))
            assert CycInt(e, raw).coeffs == ref.reduce(raw, e), e
            assert CycInt(e, a).conjugate().coeffs == ref.conjugate(a, e), e
            m = rng.randint(2, 4)
            assert CycInt(e, a).change_order(e * m).coeffs == ref.change_order(a, e, e * m), e


def test_from_covers_matches_the_fixed_point_closure():
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randint(1, 7)
        covers = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        try:
            lt = ref.order_of(Poset.from_covers(n, covers))
        except InputError:
            lt = None
        assert lt == ref.order_from_covers(covers), (n, covers)
