"""Subgroups closed on packed words, and the annihilator from the kernel of the pairing.

``generate`` and ``dual_code`` must give the generators and the elements that
``reference`` gives: spans by breadth-first closure, the dual code by a scan of
the carrier, each with its greedy generators. Here on random codes of carriers
past 64 elements and on the element sets of every subgroup, each taken as a
generator list; ``test_rank_paths`` compares ``generate``, ``dual_code`` and
``all_subgroups`` on every carrier up to 64 elements.
"""

import random

import pytest

import dualpart.group
import reference as ref
from dualpart.errors import GuardExceeded, VerificationFailure
from dualpart.group import (
    GroupSpec,
    _words,
    all_subgroups,
    dual_code,
    generate,
)
from test_sweep import SMALL_CARRIERS


def random_gens(group, rng, count):
    return [tuple(rng.randrange(n) for n in group.orders) for _ in range(count)]


@pytest.mark.parametrize("orders, width", [((64,), 8), ((65,), 16), ((2, 2048), 16),
                                           ((256,), 16), ((16384, 2), 16), ((16385,), 24),
                                           ((40000, 3), 24)])
def test_slot_width_is_the_least_byte_multiple_that_holds_two_orders(orders, width):
    """2^(s-1) >= 2 * max n_j, so the sum of two coordinates never reaches the top bit."""
    g = GroupSpec(orders)
    word, unpack, add = _words(g)
    top = tuple(n - 1 for n in orders)
    assert word(top) < 1 << (width * len(orders))
    assert unpack([word(top)])[0] == top
    assert unpack([add(word(top), word(top))])[0] == g.add(top, top)


def test_generate_on_orders_above_16384_matches_the_oracle():
    """Orders past 16384 take 24-bit slots; each span here has at most 60 members."""
    g = GroupSpec((40000, 3, 16390))
    for gens in ([(5000, 1, 0)], [(0, 0, 8195), (30000, 2, 13112)], [(35000, 2, 9834)]):
        assert generate(g, gens) == ref.generate(g, gens)


@pytest.mark.parametrize("orders", [(2, 4, 3), (256,), (2, 2048), (16385, 2)])
def test_words_add_as_the_tuples_do(orders):
    g = GroupSpec(orders)
    word, unpack, add = _words(g)
    rng = random.Random(7)
    pairs = [(tuple(n - 1 for n in orders),) * 2, (g.zero, g.zero)]
    pairs += [tuple(random_gens(g, rng, 2)) for _ in range(500)]
    for a, b in pairs:
        assert unpack([word(a)]) == (a,)
        assert unpack([add(word(a), word(b))]) == (g.add(a, b),)
        assert (word(a) < word(b)) == (a < b)


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_every_subgroup_matches_the_oracles(orders):
    """``generate`` on the elements of every subgroup, which span exactly it."""
    g = GroupSpec(orders)
    for code in all_subgroups(g):
        assert generate(g, code.elements) == ref.generate(g, code.elements)


@pytest.mark.parametrize("orders", [(2,) * 12, (3,) * 7, (4,) * 6, (12, 12, 4), (210,),
                                    (6, 10, 15), (256,), (2, 2048)])
def test_random_codes_match_the_oracles(orders):
    g = GroupSpec(orders)
    rng = random.Random(repr(orders))
    for count in (0, 1, 1, 2, 2, 3, 4, 6):
        gens = random_gens(g, rng, count)
        code = generate(g, gens)
        assert code == ref.generate(g, gens)
        assert generate(g, code.elements).elements == code.elements
        perp = dual_code(g, code, g.size)
        assert perp == ref.dual_code(g, code.generators)
        assert code.size * perp.size == g.size
        assert dual_code(g, perp, g.size) == ref.dual_code(g, perp.generators)


def test_dual_code_reads_no_pairing_row_and_no_carrier(monkeypatch):
    g = GroupSpec((2,) * 12)
    code = generate(g, random_gens(g, random.Random(3), 5))
    want = ref.dual_code(g, code.generators)

    def refuse(*args, **kwargs):
        raise AssertionError("the carrier was read")

    for name in ("_pairing_exponents", "elements", "_elements"):
        monkeypatch.setattr(dualpart.group, name, refuse)
    assert dual_code(g, code) == want


def test_an_annihilator_of_the_wrong_size_fails_verification(monkeypatch):
    g = GroupSpec((6,))
    monkeypatch.setattr(dualpart.group, "_annihilator_generators", lambda group, gens: [])
    with pytest.raises(VerificationFailure, match="the annihilator has 1 elements"):
        dual_code(g, generate(g, [(3,)]))


def test_dual_code_guards_the_carrier_size():
    g = GroupSpec((2,) * 13)
    with pytest.raises(GuardExceeded, match="carrier has 8192 elements, above the guard of 4096"):
        dual_code(g, generate(g, [(1,) * 13]))
    assert dual_code(g, generate(g, [(1,) * 13]), g.size).size == 4096


def test_a_member_set_that_is_not_closed_names_the_sum_as_tuples():
    """A member set that is not closed spans more than itself: its sums, read back
    as tuples from words of two 16-bit slots."""
    g = GroupSpec((6, 256))
    code = generate(g, [(0, 0), (2, 1)])
    assert code == ref.generate(g, [(0, 0), (2, 1)])
    assert code.size == 768 and (4, 2) in code.elements
