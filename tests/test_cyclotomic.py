import doctest
import importlib
import json
import pkgutil
import random
from array import array

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

import dualpart
import reference as ref
from dualpart.cyclotomic import (
    ORDER_CACHE,
    ZETA_TABLE_CACHE,
    CycInt,
    cyclotomic_polynomial,
    euler_phi,
    integer,
    one,
    zero,
    zeta_coeff_table,
    zeta_pow,
)
from dualpart.errors import InputError
from dualpart.group import GroupSpec
from dualpart.partition import KrawtchoukMatrix, Partition
from test_packed_matrix import approx_pair
from test_serialization import written


MODULES = sorted(m.name for m in pkgutil.iter_modules(dualpart.__path__, "dualpart."))


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0


def test_doctests_cover_the_modules_that_hold_them():
    assert {"dualpart.cyclotomic", "dualpart.poset"} <= set(MODULES)


def test_polynomial_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("orders", [range(1, 400), [1155, 2310, 3465, 4096]])
def test_polynomials_from_the_radical_match_the_divisor_quotients(orders):
    for e in orders:
        assert cyclotomic_polynomial(e) == ref.cyclotomic(e), e


def test_degrees_are_totients():
    for e in [*range(1, 40), 105, 1155, 4096]:
        assert len(cyclotomic_polynomial(e)) - 1 == euler_phi(e)


def test_sixth_root_facts():
    z = zeta_pow(6, 1)
    assert z * z * z == integer(6, -1)
    assert z + zeta_pow(6, 5) == one(6)
    assert z.conjugate() == one(6) - z


def test_geometric_sums_vanish():
    for e in range(2, 25):
        total = zero(e)
        for k in range(e):
            total = total + zeta_pow(e, k)
        assert total == zero(e)


def test_reduction_is_canonical():
    # x^2 reduces mod 1 + x + x^2, so these build the same residue
    a = CycInt(3, (0, 0, 1))
    assert a == CycInt(3, (-1, -1))
    assert zeta_pow(3, 2) == a


def test_order_mismatch_rejected():
    with pytest.raises(InputError):
        zeta_pow(4, 1) + zeta_pow(6, 1)


@pytest.mark.parametrize("order, coeffs", [(4, (0.5,)), (4, (True, False)), (4, ("1",)),
                                           (4, ("1", "2", "3")), (4.0, (1,)), (True, (1,))],
                         ids=str)
def test_non_integer_input_is_refused(order, coeffs):
    """Stored as given, 0.5 * 0.5 would read (0.25, 0), and strings raise a bare TypeError."""
    message = "coefficients must be integers" if type(order) is int else "root order must be"
    with pytest.raises(InputError, match=message):
        CycInt(order, coeffs)


def test_change_order_round_trip():
    a = zeta_pow(4, 1) + integer(4, 2)
    lifted = a.change_order(12)
    assert lifted == zeta_pow(12, 3) + integer(12, 2)
    with pytest.raises(InputError):
        a.change_order(6)


def test_rational_detection():
    assert ref.rational(integer(8, 5).coeffs) == 5
    assert ref.rational(zeta_pow(8, 1).coeffs) is None
    assert ref.rational((zeta_pow(8, 2) + zeta_pow(8, 6)).coeffs) == 0


def test_approx_complex():
    z = ref.approx(zeta_pow(8, 1).coeffs, 8)
    assert abs(z - complex(2 ** -0.5, 2 ** -0.5)) < 1e-12


orders = st.integers(min_value=1, max_value=20)


@st.composite
def cycints(draw, order=None):
    e = order if order is not None else draw(orders)
    coeffs = draw(
        st.lists(st.integers(-9, 9), min_size=euler_phi(e), max_size=euler_phi(e))
    )
    return CycInt(e, tuple(coeffs))


@given(orders.flatmap(lambda e: st.tuples(cycints(e), cycints(e), cycints(e))))
@settings(max_examples=120, deadline=None)
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == zero(a.order)
    assert a * one(a.order) == a
    assert a * zero(a.order) == zero(a.order)


@given(orders.flatmap(lambda e: st.tuples(cycints(e), cycints(e))))
@settings(max_examples=80, deadline=None)
def test_conjugation_is_a_ring_map(pair):
    a, b = pair
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(st.integers(1, 16), st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=100, deadline=None)
def test_power_arithmetic(e, i, j):
    assert zeta_pow(e, i) * zeta_pow(e, j) == zeta_pow(e, i + j)
    assert zeta_pow(e, i).conjugate() == zeta_pow(e, -i)


def test_zeta_table_cache_is_bounded():
    assert zeta_coeff_table.cache_info().maxsize == ZETA_TABLE_CACHE
    for e in range(2, 2 + 3 * ZETA_TABLE_CACHE):
        zeta_coeff_table(e)
        assert zeta_coeff_table.cache_info().currsize <= ZETA_TABLE_CACHE


def test_order_caches_are_bounded():
    assert cyclotomic_polynomial.cache_info().maxsize == ORDER_CACHE
    assert euler_phi.cache_info().maxsize == ORDER_CACHE
    for e in range(1, ORDER_CACHE + 40):
        euler_phi(e)
    assert cyclotomic_polynomial.cache_info().currsize <= ORDER_CACHE
    assert euler_phi.cache_info().currsize <= ORDER_CACHE
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_approx_complex_is_bit_identical_to_the_direct_sum():
    """The approx the writer prints, which skips the zero coefficients, is the sum over
    all of them rounded: ten random cells of one matrix row at each order."""
    rng = random.Random(1304)
    g = GroupSpec((10,))
    for order in range(1, 65):
        cells = [[rng.randint(-10**9, 10**9) if rng.random() < 0.6 else 0
                  for _ in range(euler_phi(order))] for _ in range(10)]
        k = KrawtchoukMatrix(order, (array("q", sum(cells, [])),), Partition.one_block(g),
                             Partition.singletons(g))
        want = [approx_pair(ref.approx(c, order)) for c in cells]
        assert json.loads(written(k))["approx"] == [want]

