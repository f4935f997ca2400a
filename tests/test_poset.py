import pytest

import reference as ref
from dualpart.errors import InputError
from dualpart.group import GroupSpec
from dualpart.partition import dual_partition
from dualpart.poset import (
    Poset,
    all_posets,
    antichain,
    chain,
    classical_krawtchouk,
    dual_poset,
    hierarchical_krawtchouk,
    hierarchical_poset,
    is_hierarchical,
    poset_duality_check,
    poset_krawtchouk_bruteforce,
    poset_partition,
    poset_weight,
)


def test_from_covers_and_closure():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    assert p.below[2] >> 0 & 1  # transitive closure filled in
    assert not p.below[0] >> 2 & 1
    with pytest.raises(InputError):
        Poset.from_covers(2, [(0, 1), (1, 0)])  # cycle


def test_covers_is_a_transitive_reduction():
    p = Poset.from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers() == [(0, 1), (1, 2)]


def test_ideal():
    """The weight is the size of the ideal of the support."""
    g = GroupSpec((2, 2, 2))
    assert ref.ideal(ref.order_of(chain(3)), [2]) == frozenset({0, 1, 2})
    assert poset_weight(chain(3), g, (0, 0, 1)) == 3
    assert ref.ideal(ref.order_of(chain(3)), [0]) == frozenset({0})
    assert poset_weight(chain(3), g, (1, 0, 0)) == 1
    assert ref.ideal(ref.order_of(antichain(3)), [2]) == frozenset({2})
    assert poset_weight(antichain(3), g, (0, 0, 1)) == 1


def test_weights_chain_and_antichain():
    g = GroupSpec((2, 2, 2))
    assert poset_weight(chain(3), g, (0, 0, 1)) == 3
    assert poset_weight(chain(3), g, (1, 0, 0)) == 1
    assert poset_weight(chain(3), g, (1, 1, 0)) == 2
    assert poset_weight(antichain(3), g, (1, 0, 1)) == 2


def test_weight_fiber_sizes():
    g = GroupSpec((2, 2, 2))
    p = poset_partition(chain(3), g)
    assert p.num_blocks == 4
    by_weight = {poset_weight(chain(3), g, b[0]): len(b) for b in p.blocks}
    assert by_weight == {0: 1, 1: 1, 2: 2, 3: 4}
    q = poset_partition(antichain(3), g)
    by_weight = {poset_weight(antichain(3), g, b[0]): len(b) for b in q.blocks}
    assert by_weight == {0: 1, 1: 3, 2: 3, 3: 1}


def test_carrier_coordinate_mismatch():
    with pytest.raises(InputError):
        poset_partition(chain(3), GroupSpec((2, 2)))


def test_labeled_poset_counts():
    assert len(list(all_posets(1))) == 1
    assert len(list(all_posets(2))) == 3
    assert len(list(all_posets(3))) == 19
    assert len(list(all_posets(4))) == 219


def test_hierarchical_detection():
    assert is_hierarchical(chain(3))[0] == (1, 1, 1)
    assert is_hierarchical(antichain(3))[0] == (3,)
    assert is_hierarchical(hierarchical_poset((2, 2)))[0] == (2, 2)
    # the V poset 0<1, 0<2 is hierarchical; the N poset is not
    assert is_hierarchical(Poset.from_covers(3, [(0, 1), (0, 2)]))[0] == (1, 2)
    n_poset = Poset.from_covers(4, [(0, 2), (1, 2), (1, 3)])
    assert is_hierarchical(n_poset) is None


def test_classical_krawtchouk_row():
    assert [classical_krawtchouk(3, 2, 1, x) for x in range(4)] == [3, 1, -1, -3]
    assert classical_krawtchouk(4, 3, 0, 2) == 1
    # column at x = 0 counts words of each weight
    assert [classical_krawtchouk(4, 3, m, 0) for m in range(5)] == [1, 8, 24, 32, 16]


def test_rt_matrix_small():
    assert hierarchical_krawtchouk((1, 1), 2) == ((1, 1, 2), (1, 1, -2), (1, -1, 0))
    assert hierarchical_krawtchouk((1,), 3) == ((1, 2), (1, -1))


CLOSED_FORM_INPUTS = {
    "classical x above n": (classical_krawtchouk, (3, 2, 1, 5)),
    "classical x below 0": (classical_krawtchouk, (3, 2, 1, -1)),
    "classical float q": (classical_krawtchouk, (3, 2.0, 1, 1)),
    "rt float q": (hierarchical_krawtchouk, ((1, 1), 2.5)),
    "rt bool n": (hierarchical_krawtchouk, ((1, True), 2)),
    "poset bool level": (hierarchical_poset, ([True, 2],)),
    "closed form bool level": (hierarchical_krawtchouk, ([True, 2], 2)),
    "closed form float q": (hierarchical_krawtchouk, ((2,), 2.5)),
}


@pytest.mark.parametrize("name", CLOSED_FORM_INPUTS)
def test_closed_form_inputs_must_be_integers_in_range(name):
    func, args = CLOSED_FORM_INPUTS[name]
    with pytest.raises(InputError):
        func(*args)


def test_rt_matches_levels_form_and_bruteforce():
    """The chain's levels form against its four-case formula and brute force."""
    for n in range(1, 12):
        for q in range(2, 9):
            m = hierarchical_krawtchouk((1,) * n, q)
            assert m == ref.chain_krawtchouk(n, q)
            if q ** n <= 81:
                assert m == poset_krawtchouk_bruteforce(chain(n), GroupSpec((q,) * n))


def test_antichain_closed_form_is_classical():
    for n in (2, 3):
        for q in (2, 3):
            closed = hierarchical_krawtchouk((n,), q)
            classical = tuple(
                tuple(classical_krawtchouk(n, q, m, x) for m in range(n + 1))
                for x in range(n + 1)
            )
            assert closed == classical
            assert closed == poset_krawtchouk_bruteforce(antichain(n), GroupSpec((q,) * n))


def test_mixed_order_chain():
    assert hierarchical_krawtchouk((1, 1), (2, 3)) == ((1, 1, 4), (1, 1, -2), (1, -1, 0))
    assert poset_krawtchouk_bruteforce(chain(2), GroupSpec((2, 3))) == (
        (1, 1, 4), (1, 1, -2), (1, -1, 0)
    )


def test_closed_form_vs_bruteforce_shapes():
    cases = [((1, 3), 2), ((2, 2), 2), ((1, 1, 1), 2), ((3,), 3), ((2, 1), 2)]
    for levels, q in cases:
        n = sum(levels)
        brute = poset_krawtchouk_bruteforce(hierarchical_poset(levels), GroupSpec((q,) * n))
        assert hierarchical_krawtchouk(levels, q) == brute


def test_duality_iff_hierarchical_exhaustive_n3():
    for q in (2, 3):
        g = GroupSpec((q,) * 3)
        for p in all_posets(3):
            report = poset_duality_check(p, g)
            assert report["equal"] == report["hierarchical"] == (is_hierarchical(p) is not None)


def test_duality_report_fields():
    g = GroupSpec((2, 2, 2, 2))
    n_poset = Poset.from_covers(4, [(0, 2), (1, 2), (1, 3)])
    report = poset_duality_check(n_poset, g)
    assert not report["hierarchical"] and report["levels"] is None
    assert not report["equal"]
    # observed coarsening direction for the open question: dual is coarser
    assert report["dual_refines_transposed"] or report["transposed_refines_dual"]

    rep2 = poset_duality_check(chain(2), GroupSpec((2, 3)))
    assert rep2["equal"] and rep2["levels_equal_order"]
    rep3 = poset_duality_check(antichain(2), GroupSpec((2, 3)))
    assert rep3["hierarchical"] and not rep3["levels_equal_order"] and not rep3["equal"]


def test_dual_weight_partition_equals_transposed_for_chain():
    g = GroupSpec((2, 2, 2))
    prim = poset_partition(chain(3), g)
    assert dual_partition(prim) == poset_partition(dual_poset(chain(3)), g)
