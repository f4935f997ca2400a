import random

import pytest

import dualpart.group
import reference as ref
from dualpart.cyclotomic import CycInt, _digit_reader, euler_phi, integer, zero, zeta_pow
from dualpart.errors import GuardExceeded, InputError
from dualpart.group import (
    ELEMENTS_CACHE,
    GroupSpec,
    all_subgroups,
    dual_code,
    elements,
    generate,
    _pairing_exponents,
    pairing_exponent,
)
from dualpart.partition import Partition, fourier_transform
from test_sweep import SMALL_CARRIERS, carriers

Z6 = GroupSpec((6,))
Z2x3 = GroupSpec((2, 3))


def test_basic_attributes():
    assert Z6.size == 6 and Z6.exponent == 6
    assert Z2x3.size == 6 and Z2x3.exponent == 6
    assert GroupSpec((4, 6)).exponent == 12
    trivial = GroupSpec(())
    assert trivial.size == 1 and trivial.exponent == 1 and trivial.zero == ()
    assert elements(trivial) == ((),)


def test_carriers_are_not_normalized():
    # same abstract group, different carriers
    assert Z6 != Z2x3
    assert len(elements(Z6)) == len(elements(Z2x3)) == 6


def test_invalid_orders():
    with pytest.raises(InputError):
        GroupSpec((1,))
    with pytest.raises(InputError):
        GroupSpec((0, 3))


def test_integer_slots_reject_non_integers():
    """Orders and coordinates are taken by ``operator.index``: nothing is truncated."""
    for bad in [(2.9, 3), ("2",), (3, 2.0)]:
        with pytest.raises(InputError, match="cyclic orders must be integers"):
            GroupSpec(bad)
    with pytest.raises(InputError, match="element coordinates must be integers"):
        Z2x3.validate((1.7, "2"))
    with pytest.raises(InputError, match="element coordinates must be integers"):
        Partition.from_blocks(Z2x3, [[(0, 0.0)], [g for g in elements(Z2x3) if g != (0, 0)]])
    with pytest.raises(InputError, match="element coordinates must be integers"):
        generate(Z6, [(1.5,)])
    assert Z2x3.validate(range(2)) == (0, 1)


def test_rank_unrank_round_trip():
    g = GroupSpec((3, 4))
    assert elements(g) == ref.elements(g)
    for i, el in enumerate(ref.elements(g)):
        assert g.rank(el) == i


def test_element_guard():
    with pytest.raises(GuardExceeded):
        elements(GroupSpec((70, 70)))
    # explicit override lifts it
    assert len(elements(GroupSpec((70, 70)), max_size=4900)) == 4900


def test_pairing_spot_values():
    assert pairing_exponent(Z6, (3,), (5,)) == 3
    # (E/2)*1*1 + (E/3)*1*2 = 3 + 4 = 7 = 1 mod 6
    assert pairing_exponent(Z2x3, (1, 1), (1, 2)) == 1


def test_pairing_is_symmetric_and_bilinear():
    g = GroupSpec((4,))
    for chi in elements(g):
        for x in elements(g):
            assert pairing_exponent(g, chi, x) == pairing_exponent(g, x, chi)
            for y in elements(g):
                lhs = pairing_exponent(g, chi, g.add(x, y))
                rhs = (pairing_exponent(g, chi, x) + pairing_exponent(g, chi, y)) % 4
                assert lhs == rhs


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_pairing_row_matches_pairing_exponent(orders):
    grp = GroupSpec(orders)
    e = grp.exponent
    for chi in elements(grp):
        want = [ref.pairing_exponent(grp, chi, g) for g in elements(grp)]
        assert [x % e for x in _pairing_exponents(grp, chi)] == want


def test_orthogonality_medium_carriers():
    for g in (GroupSpec((36,)), GroupSpec((6, 6)), GroupSpec((2, 18))):
        e = g.exponent
        for chi in elements(g)[:8]:
            total = zero(e)
            for x in elements(g):
                total = total + zeta_pow(e, pairing_exponent(g, chi, x))
            assert total == integer(e, g.size if chi == g.zero else 0)


def test_generate_and_code():
    c = generate(Z6, [(3,)])
    assert c.elements == ((0,), (3,))
    assert c.size == 2
    c2 = generate(Z6, [(2,), (4,)])  # the span holds the zero the generators lack
    assert c2.elements == ((0,), (2,), (4,))
    assert c2.size == 3
    assert generate(Z6, [(0,), (2,)]).elements == c2.elements  # {0, 2} is not closed


def test_dual_code_z6():
    c = generate(Z6, [(3,)])
    perp = dual_code(Z6, c)
    assert perp.elements == ((0,), (2,), (4,))


def test_dual_code_sizes_multiply():
    for g in (Z6, GroupSpec((2, 4)), GroupSpec((3, 3)), GroupSpec((2, 2, 2))):
        for c in all_subgroups(g):
            perp = dual_code(g, c)
            assert c.size * perp.size == g.size
            assert dual_code(g, perp).elements == c.elements


def test_subgroup_counts():
    assert len(all_subgroups(GroupSpec((4,)))) == 3
    assert len(all_subgroups(GroupSpec((2, 2)))) == 5
    assert len(all_subgroups(GroupSpec((12,)))) == 6
    assert len(all_subgroups(GroupSpec((2, 2, 2)))) == 16
    assert len(all_subgroups(GroupSpec((3, 3)))) == 6


def test_subgroup_guard():
    with pytest.raises(GuardExceeded):
        all_subgroups(GroupSpec((100,)))
    assert len(all_subgroups(GroupSpec((100,)), max_size=100)) == 9


def test_fourier_transform_of_point_mass():
    g = GroupSpec((4,))
    f = {x: integer(4, 1 if x == (1,) else 0) for x in elements(g)}
    fhat = fourier_transform(g, f)
    for chi in elements(g):
        assert fhat[chi] == zeta_pow(4, pairing_exponent(g, chi, (1,)))


def test_fourier_transform_matches_the_product_oracle():
    """Every carrier up to 16 elements, () with E = 1 (the ring Z/(2^b - 1)) and
    (2,) with E = 2 (the ring Z/(2^b + 1)) among them, and odd composite
    exponents, where N = Phi_E(2^b) is a proper factor of the ring's modulus."""
    rng = random.Random(16)
    for orders in carriers(16) + [(105,), (3, 5, 7)]:
        g = GroupSpec(orders)
        e = g.exponent
        ints = {x: rng.randint(-9, 9) for x in elements(g)}
        cycs = {x: tuple(rng.randint(-9, 9) for _ in range(euler_phi(e))) for x in elements(g)}
        for f, values in ((ints, ints), (cycs, {x: CycInt(e, c) for x, c in cycs.items()})):
            got = fourier_transform(g, values)
            assert {chi: v.coeffs for chi, v in got.items()} == ref.fourier(g, f), orders


@pytest.mark.parametrize("sign", [1, -1])
def test_fourier_transform_reads_64_bit_digits(sign):
    """Values on (2,) of total |coefficient| R = 2^63 - 1 need 2^b >= 2R + A + 1 = 2^64."""
    f = {(0,): sign << 62, (1,): sign * ((1 << 62) - 1)}
    assert _digit_reader(2, (1 << 63) - 1, "")[0] == 64
    assert fourier_transform(GroupSpec((2,)), f) == {(0,): integer(2, sign * ((1 << 63) - 1)),
                                                     (1,): integer(2, sign)}


def test_fourier_transform_past_64_bit_digits_is_a_guard_error():
    f = {(0,): 1 << 62, (1,): 1 << 62}
    with pytest.raises(GuardExceeded) as err:
        fourier_transform(GroupSpec((2,)), f)
    assert str(err.value) == (f"the Fourier transform needs digits of 2^b >= 2R + A + 1 = "
                              f"{(1 << 64) + 2}, above the widest digit of 2^64")


def test_fourier_transform_rejects_a_value_of_another_order():
    f = {x: zeta_pow(3, 1) for x in elements(Z6)}
    with pytest.raises(InputError):
        fourier_transform(Z6, f)


def test_elements_cache_is_bounded():
    cached = dualpart.group._elements
    assert cached.cache_info().maxsize == ELEMENTS_CACHE
    for n in range(2, 2 + 3 * ELEMENTS_CACHE):
        elements(GroupSpec((n,)))
        assert cached.cache_info().currsize <= ELEMENTS_CACHE
