"""The dense-grid product transform and the column-wise enumerators against the
sparse code they replaced.

The oracles are the former library code, copied here: ``product_transform``
contracting a sparse key dictionary with ``_contract_at`` (``CycInt`` values
once a matrix is irrational), and the two enumerators, which cut every code
word into factor coordinates and rank each one. Results are compared as
ordered item lists, so key order counts, and failures by type and message.
"""

import random
from dataclasses import replace
from math import prod

import pytest

from dualpart.enumerator import (
    ProductEnumerator,
    SymmetrizedEnumerator,
    _accumulate,
    _contract_at,
    _finish,
    _sparse_rows,
    product_enumerator,
    product_transform,
    symmetrized_enumerator,
)
from dualpart.errors import GuardExceeded, InputError, VerificationFailure
from dualpart.group import ELEMENT_GUARD, GroupSpec, elements, generate
from dualpart.induced import power_group, product_group
from dualpart.partition import (
    Partition,
    dual_partition,
    is_reflexive,
    krawtchouk,
    random_reflexive_partition,
)
from test_induced import composition_vector, split_element
from test_sweep import carriers


def oracle_product_enumerator(code, parts):
    factors = [p.group for p in parts]
    if code.group != product_group(factors):
        raise InputError("code carrier must be the product of the factor carriers")
    lookups = [(p.block_of, p.group.rank) for p in parts]
    counts = {}
    for word in code.elements:
        coords = split_element(factors, word)
        key = tuple(block_of[rank(c)] for (block_of, rank), c in zip(lookups, coords))
        counts[key] = counts.get(key, 0) + 1
    return ProductEnumerator(counts)


def oracle_symmetrized_enumerator(code, base, copies):
    factors = [base.group] * copies
    if code.group != product_group(factors):
        raise InputError("code carrier must be the matching power of the base carrier")
    counts = {}
    for word in code.elements:
        key = composition_vector(base, split_element(factors, word))
        counts[key] = counts.get(key, 0) + 1
    return SymmetrizedEnumerator(counts)


def oracle_product_transform(enum, matrices, code_size, max_size=ELEMENT_GUARD):
    if code_size <= 0:
        raise InputError("code size must be positive")
    if not matrices:
        raise InputError("need one matrix per coordinate")
    if any(len(key) != len(matrices) for key in enum.counts):
        raise InputError("enumerator key length does not match the matrices")
    size = prod(max(k.shape) for k in matrices)
    if size > max_size:
        raise GuardExceeded(
            f"product transform has {size} keys, above the guard of {max_size}"
        )
    dist = dict(enum.counts)
    for i, matrix in enumerate(matrices):
        dist = _accumulate(_contract_at(dist, i, _sparse_rows(matrix)))
    return ProductEnumerator(_finish(dist, code_size))


def outcome(fn, *args, **kwargs):
    """The result's items in order, or the exception's type and message."""
    try:
        return list(fn(*args, **kwargs).counts.items())
    except (InputError, GuardExceeded, VerificationFailure) as exc:
        return type(exc), str(exc)


def factor_matrix(base):
    return krawtchouk(dual_partition(base), base)


def lee(g):
    return Partition.from_weight(g, lambda x: sum(min(c, n - c) for c, n in zip(x, g.orders)))


def hamming(g):
    return Partition.from_weight(g, lambda x: sum(1 for c in x if c))


def bases(g, rng):
    """The reflexive ones of these bases; a transform needs a reflexive base."""
    out = {"singletons": Partition.singletons(g), "hamming": hamming(g), "lee": lee(g),
           "random": random_reflexive_partition(g, rng)}
    return {name: p for name, p in out.items() if is_reflexive(p)}


def random_code(big, rng, gens):
    els = elements(big)
    return generate(big, [rng.choice(els) for _ in range(gens)])


def check_code(code, parts, matrices, copies_of=None):
    counts = product_enumerator(code, parts)
    assert list(counts.counts.items()) == list(oracle_product_enumerator(code, parts).counts.items())
    want = outcome(oracle_product_transform, counts, matrices, code.size)
    assert outcome(product_transform, counts, matrices, code.size) == want
    if copies_of is not None:
        base, copies = copies_of
        new = symmetrized_enumerator(code, base, copies)
        old = oracle_symmetrized_enumerator(code, base, copies)
        assert list(new.counts.items()) == list(old.counts.items())
    return want


BASE_CARRIERS = [o for o in carriers(12) if o]


@pytest.mark.parametrize("orders", BASE_CARRIERS)
def test_grid_transform_and_enumerators_match_the_sparse_oracle(orders):
    g = GroupSpec(orders)
    rng = random.Random(repr(orders))
    found = bases(g, rng)
    assert {"singletons", "random"} <= set(found)
    for name, base in found.items():
        matrix = factor_matrix(base)
        for copies in (1, 2, 3):
            if g.size ** copies > ELEMENT_GUARD or max(matrix.shape) ** copies > ELEMENT_GUARD:
                continue
            big = power_group(g, copies)
            for gens in range(4):
                code = random_code(big, rng, gens)
                want = check_code(code, [base] * copies, [matrix] * copies, (base, copies))
                assert isinstance(want, list), (name, copies, want)


@pytest.mark.parametrize("n", [4, 5, 8, 12])
def test_irrational_singletons_match_the_oracle(n):
    g = GroupSpec((n,))
    base = Partition.singletons(g)
    matrix = factor_matrix(base)
    assert any(x.as_rational_integer() is None for row in matrix.entries for x in row)
    rng = random.Random(n)
    for copies in (1, 2, 3):
        big = power_group(g, copies)
        for gens in (0, 1, 1, 2, 3):
            want = check_code(random_code(big, rng, gens), [base] * copies, [matrix] * copies,
                              (base, copies))
            assert isinstance(want, list)


def test_mixed_rational_and_irrational_factors_match_the_oracle():
    rng = random.Random(41)
    g5, g8 = GroupSpec((5,)), GroupSpec((8,))
    for parts in ([hamming(g5), Partition.singletons(g5), lee(g5)],
                  [Partition.singletons(g8), hamming(g8)],
                  [lee(g8), random_reflexive_partition(g8, rng), Partition.singletons(g8)]):
        big = product_group([p.group for p in parts])
        for gens in range(4):
            want = check_code(random_code(big, rng, gens), parts, [factor_matrix(p) for p in parts])
            assert isinstance(want, list)


def test_two_irrational_orders_raise_as_before():
    parts = [Partition.singletons(GroupSpec((3,))), Partition.singletons(GroupSpec((4,)))]
    code = generate(product_group([p.group for p in parts]), [(1, 2)])
    want = check_code(code, parts, [factor_matrix(p) for p in parts])
    assert want[0] is InputError and "mixed root orders 3 and 4" in want[1]


@pytest.mark.parametrize("orders, copies", [((2,), 12), ((5,), 5), ((12,), 3)])
def test_guard_is_raised_at_the_same_sizes(orders, copies):
    base = Partition.singletons(GroupSpec(orders))
    matrix = factor_matrix(base)
    size = max(matrix.shape) ** copies
    counts = product_enumerator(generate(power_group(base.group, copies), []), [base] * copies)
    for max_size in (size - 1, size):
        args = (counts, [matrix] * copies, 1)
        want = outcome(oracle_product_transform, *args, max_size=max_size)
        assert outcome(product_transform, *args, max_size=max_size) == want
        assert (want[0] is GuardExceeded) == (max_size < size)


@pytest.mark.parametrize("orders, kind", [((4,), "hamming"), ((2, 2), "random"),
                                          ((5,), "singletons"), ((8,), "singletons")])
def test_a_wrong_matrix_fails_verification_as_before(orders, kind):
    """One coefficient of one entry raised by 1, the constant or the next one."""
    g = GroupSpec(orders)
    rng = random.Random(43)
    base = bases(g, rng)[kind]
    k = factor_matrix(base)
    big = power_group(g, 2)
    codes = [random_code(big, rng, gens) for gens in (0, 1, 2)]
    failures = 0
    for coeff in range(min(2, len(k.rows[0]))):
        for r in range(k.shape[0]):
            rows = [list(row) for row in k.rows]
            rows[r][coeff] += 1
            wrong = replace(k, rows=tuple(rows))
            for code in codes:
                counts = product_enumerator(code, [base] * 2)
                want = outcome(oracle_product_transform, counts, [wrong, k], code.size)
                assert outcome(product_transform, counts, [wrong, k], code.size) == want
                failures += want[0] is VerificationFailure
    assert failures


def test_degenerate_enumerators_match_the_oracle():
    g = GroupSpec((3,))
    base = hamming(g)
    for copies in (1, 4):
        code = generate(power_group(g, copies), [(1,) * copies])
        check_code(code, [base] * copies, [factor_matrix(base)] * copies, (base, copies))
    k = factor_matrix(base)
    for counts in ({}, {(0,): 1}):
        enum = ProductEnumerator(counts)
        assert outcome(product_transform, enum, [k, k], 1) == \
            outcome(oracle_product_transform, enum, [k, k], 1)
    with pytest.raises(InputError, match="out of range"):  # the oracle ended in IndexError
        product_transform(ProductEnumerator({(0, 5): 1}), [k, k], 1)
