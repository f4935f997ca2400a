"""Subgroups closed on packed words, and the annihilator from the kernel of the pairing.

The ``oracle_*`` functions are ``generate``, ``dual_code``, ``all_subgroups``
and ``Code.from_elements`` as they were on element tuples, with ``dual_code``
keeping the ranks at which every generator's pairing row is 0 mod E. The
library must give the same generators and the same elements.
"""

import itertools
import random
from functools import partial, reduce

import pytest

import dualpart.group
from dualpart.cyclotomic import _close, _greedy_generators
from dualpart.errors import GuardExceeded, InputError, VerificationFailure
from dualpart.group import (
    Code,
    GroupSpec,
    _pairing_exponents,
    _words,
    all_subgroups,
    dual_code,
    elements,
    generate,
)
from test_sweep import SMALL_CARRIERS


def oracle_from_elements(group, members):
    elems = tuple(sorted({group.validate(g) for g in members}))
    if not elems or group.zero not in elems:
        raise InputError("a code must contain the zero element")
    gens = _greedy_generators(group.add, group.zero, elems)
    eset = set(elems)
    for g in gens:
        for a in elems:
            if group.add(a, g) not in eset:
                raise InputError(f"not closed under addition: {a} + {g}")
    return Code(group, gens, elems)


def oracle_generate(group, gens):
    gen_list = [group.validate(g) for g in gens]
    span = reduce(partial(_close, group.add), gen_list, {group.zero})
    return Code(group, tuple(gen_list), tuple(sorted(span)))


def oracle_dual_code(group, code):
    e = group.exponent
    els = elements(group, group.size)
    ranks = range(group.size)
    for h in code.generators:
        row = _pairing_exponents(group, h)
        ranks = [r for r in ranks if not row[r] % e]
    members = tuple(map(els.__getitem__, ranks))
    return Code(group, _greedy_generators(group.add, group.zero, members), members)


def oracle_all_subgroups(group):
    els = elements(group)

    def grow(gens, sub):
        yield Code(group, gens, tuple(sorted(sub)))
        for x in els[group.rank(gens[-1]) + 1 if gens else 1:]:
            cosets = itertools.takewhile(lambda c: c not in sub,
                                         itertools.accumulate(itertools.repeat(x), group.add))
            if x not in sub and all(x <= group.add(h, c) for c in cosets for h in sub):
                yield from grow(gens + (x,), _close(group.add, sub, x))
    return tuple(sorted(grow((), {group.zero}), key=lambda c: (c.size, c.elements)))


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
        assert generate(g, gens) == oracle_generate(g, gens)


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


def same_code_all_ways(group, code):
    """The library and the oracles agree on code, its dual and its rebuilt forms."""
    perp = dual_code(group, code, group.size)
    assert perp == oracle_dual_code(group, code)
    assert code.size * perp.size == group.size
    assert generate(group, code.generators) == oracle_generate(group, code.generators)
    assert Code.from_elements(group, code.elements) == oracle_from_elements(group, code.elements)
    assert dual_code(group, perp, group.size) == oracle_dual_code(group, perp)
    return perp


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_every_subgroup_matches_the_oracles(orders):
    g = GroupSpec(orders)
    subs = all_subgroups(g)
    assert subs == oracle_all_subgroups(g)
    for code in subs:
        same_code_all_ways(g, code)


@pytest.mark.parametrize("orders", [(2,) * 12, (3,) * 7, (4,) * 6, (12, 12, 4), (210,),
                                    (6, 10, 15), (256,), (2, 2048)])
def test_random_codes_match_the_oracles(orders):
    g = GroupSpec(orders)
    rng = random.Random(repr(orders))
    for count in (0, 1, 1, 2, 2, 3, 4, 6):
        gens = random_gens(g, rng, count)
        code = generate(g, gens)
        assert code == oracle_generate(g, gens)
        same_code_all_ways(g, code)


def test_dual_code_reads_no_pairing_row_and_no_carrier(monkeypatch):
    g = GroupSpec((2,) * 12)
    code = generate(g, random_gens(g, random.Random(3), 5))
    want = oracle_dual_code(g, code)

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
    g = GroupSpec((6, 256))
    with pytest.raises(InputError, match=r"not closed under addition: \(2, 1\) \+ \(2, 1\)"):
        Code.from_elements(g, [(0, 0), (2, 1)])
