"""The one-integer transforms and the column-wise enumerators against the reference.

``reference`` gives each transform's exact sums: at every output key, the sum
over the input keys of the count times the product of exact entries. A
transform must return them divided by the code size, in key order, or raise
``VerificationFailure`` naming the first sum that is irrational, not divisible
or negative (``reference.exact_counts``). Results are compared as ordered item
lists, so key order counts, and failures by type and message.
``grid_cells`` reads the cells of a transform's last grid step back into
canonical coefficients (``read_coefficients``), so that irrational sums are
compared too.
"""

import math
import random
from dataclasses import replace

import pytest

import dualpart.enumerator
import reference as ref
from dualpart.checks import CODE_GROUPS, SWEEP_GROUPS
from dualpart.cyclotomic import coefficient_bound
from dualpart.enumerator import (
    LinearEnumerator,
    ProductEnumerator,
    SymmetrizedEnumerator,
    _evaluation,
    _grid_step,
    _norm,
    kk_product_check,
    linear_enumerator,
    macwilliams_transform,
    product_enumerator,
    product_transform,
    symmetrized_enumerator,
    symmetrized_transform,
)
from dualpart.errors import GuardExceeded, InputError, VerificationFailure
from dualpart.group import ELEMENT_GUARD, GroupSpec, all_subgroups, elements, generate
from dualpart.induced import power_group, product_group
from dualpart.partition import (
    Partition,
    dual_partition,
    is_reflexive,
    krawtchouk,
    random_partition,
    random_reflexive_partition,
)
from test_sweep import carriers, hamming, lee


def read_coefficients(v, order, b):
    """The canonical coefficients c of a cell V = Q(2^b) of the transforms at root order
    ``order``, for 2^b >= 2R + A + 1: the centered residue of V mod Phi_E(2^b) is c(2^b),
    whose balanced base-2^b digits are c. At order 1 a cell is its own value."""
    if order == 1:
        return (v,)
    big_n = sum(c << b * i for i, c in enumerate(ref.cyclotomic(order)))
    v = (v + big_n // 2) % big_n - big_n // 2
    out, half = [], 1 << b - 1
    for _ in range(ref.phi(order)):
        out.append((v + half) % (1 << b) - half)
        v = (v - out[-1]) >> b
    assert v == 0
    return tuple(out)


def grid_cells(monkeypatch, fn, *args):
    """fn(*args), or the VerificationFailure it raised, the cells of its last grid
    step, each read into its canonical coefficients and padded to phi(order) of that
    step's matrix, and the number of grid steps it made."""
    steps = []

    def step(grid, rows):
        steps.append((rows, _grid_step(grid, rows)))
        return steps[-1][1]

    monkeypatch.setattr(dualpart.enumerator, "_grid_step", step)
    try:
        out = fn(*args)
    except VerificationFailure as exc:
        out = exc
    rows, cells = steps[-1]
    order, phi = rows.matrix.order if rows.b else 1, ref.phi(rows.matrix.order)
    return out, [c + (0,) * (phi - len(c)) for c in
                 (read_coefficients(v, order, rows.b) for v in cells)], len(steps)


def kk_by_the_step(part, k, k2, monkeypatch):
    """kk_product_check's verdicts and its K'K, with K and K' given in place of its own."""
    monkeypatch.setattr(dualpart.enumerator, "krawtchouk",
                        lambda p, c, max_size: k if p is part else k2)
    verdicts, cells, steps = grid_cells(monkeypatch, kk_product_check, part)
    assert steps == 1
    cols = part.num_blocks
    return verdicts, [cells[r * cols:(r + 1) * cols] for r in range(k2.shape[0])]


def pair(k):
    """A library matrix as the reference takes it: its order and its entries."""
    return k.order, ref.entries(k)


def expected(sums, code_size):
    """The reference's counts as ordered items, or the failure it names."""
    try:
        return list(ref.exact_counts(sums, code_size).items())
    except ArithmeticError as exc:
        return VerificationFailure, str(exc)


def outcome(fn, *args, **kwargs):
    """The result's items in order, or the exception's type and message."""
    try:
        counts = fn(*args, **kwargs).counts
    except (InputError, GuardExceeded, VerificationFailure) as exc:
        return type(exc), str(exc)
    return list(counts.items()) if isinstance(counts, dict) else list(counts)


def factor_matrix(base):
    return krawtchouk(dual_partition(base), base)


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
    assert list(counts.counts.items()) == list(ref.product_enumerator(code, parts).items())
    want = expected(ref.product_transform(counts.counts, list(map(pair, matrices))), code.size)
    assert outcome(product_transform, counts, matrices, code.size) == want
    if copies_of is not None:
        got = symmetrized_enumerator(code, *copies_of).counts
        assert list(got.items()) == list(ref.symmetrized_enumerator(code, *copies_of).items())
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
    assert any(ref.rational(x) is None for row in ref.entries(matrix) for x in row)
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
    counts = product_enumerator(code, parts)
    assert outcome(product_transform, counts, [factor_matrix(p) for p in parts], code.size) == (
        InputError, "mixed root orders 3 and 4; lift with change_order first")


@pytest.mark.parametrize("orders, copies", [((2,), 12), ((5,), 5), ((12,), 3)])
def test_guard_is_raised_at_the_same_sizes(orders, copies):
    base = Partition.singletons(GroupSpec(orders))
    matrix = factor_matrix(base)
    size = max(matrix.shape) ** copies
    counts = product_enumerator(generate(power_group(base.group, copies), []), [base] * copies)
    args = (counts, [matrix] * copies, 1)
    assert outcome(product_transform, *args, max_size=size - 1) == (
        GuardExceeded, f"product transform has {size} keys, above the guard of {size - 1}")
    want = expected(ref.product_transform(counts.counts, [pair(matrix)] * copies), 1)
    assert outcome(product_transform, *args, max_size=size) == want
    assert isinstance(want, list)


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
                want = expected(ref.product_transform(counts.counts, [pair(wrong), pair(k)]),
                                code.size)
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
    assert outcome(product_transform, ProductEnumerator({}), [k, k], 1) == []
    assert outcome(product_transform, ProductEnumerator({(0,): 1}), [k, k], 1) == (
        InputError, "enumerator key length does not match the matrices")
    with pytest.raises(InputError, match="out of range"):
        product_transform(ProductEnumerator({(0, 5): 1}), [k, k], 1)


def wrong_matrices(k):
    """``k`` with the constant coefficient of entry (0, 0) raised by 1, and again with
    its z coefficient raised by 1 when phi(order) > 1."""
    out = []
    for coeff in range(min(2, ref.phi(k.order))):
        rows = [list(row) for row in k.rows]
        rows[0][coeff] += 1
        out.append(replace(k, rows=tuple(rows)))
    return out


SYM_CARRIERS = [(n,) for n in range(2, 13)] + [(2, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("orders", SYM_CARRIERS)
def test_symmetrized_transform_matches_the_sparse_oracle(orders):
    """Every reflexive base of ``bases``, one to three copies, and each matrix again
    made wrong, which must fail as the reference's sums say."""
    g = GroupSpec(orders)
    rng = random.Random(repr(orders) + "symmetrized")
    found = bases(g, rng)
    assert {"singletons", "random"} <= set(found)
    failures = 0
    for name, base in found.items():
        k = factor_matrix(base)
        for copies in (1, 2, 3):
            if g.size ** copies > ELEMENT_GUARD:
                continue
            big = power_group(g, copies)
            for gens in (0, 1, 2):
                code = random_code(big, rng, gens)
                enum = symmetrized_enumerator(code, base, copies)
                for matrix in [k] + wrong_matrices(k):
                    want = expected(ref.symmetrized_transform(enum.counts, pair(matrix)),
                                    code.size)
                    assert outcome(symmetrized_transform, enum, matrix, code.size) == want, name
                    assert isinstance(want, list) or matrix is not k
                    failures += want[0] is VerificationFailure
    assert failures


@pytest.mark.parametrize("order", [3, 4, 5, 8, 12, 105])
def test_the_cell_reader_returns_the_rational_value_or_none(order):
    """Random Q of degree below 3 phi with ||Q||_1 <= r, some of them a signed constant
    plus a multiple of Phi_E, in one list with a zero cell: the read of Q(2^b) plus a
    multiple of N is Q mod Phi_E when that is a rational integer, negative ones
    included, and None otherwise."""
    rng = random.Random(order)
    phi, poly = ref.phi(order), ref.cyclotomic(order)
    for r in (1, 7, 1 << 70):
        b, read = _evaluation(order, lambda: r)
        big_n = sum(c << b * i for i, c in enumerate(poly))
        cells, want = [0], [0]
        for _ in range(60):
            q = [0] * 3 * phi
            if rng.random() < 0.5:  # a constant, and Phi_E times x^j when r allows
                q[0] = rng.randint(-r, r)
                j, a = rng.randrange(phi), sum(map(abs, poly))
                if abs(q[0]) + a <= r:
                    for i, c in enumerate(poly):
                        q[i + j] += c
            else:
                left = r
                for _ in range(rng.randint(1, 4)):
                    c = rng.randint(-left, left)
                    q[rng.randrange(len(q))] += c
                    left -= abs(c)
            assert sum(map(abs, q)) <= r
            cells.append(sum(c << b * i for i, c in enumerate(q)) + rng.randint(-3, 3) * big_n)
            want.append(ref.rational(ref.reduce(q, order)))
        assert None in want and read(cells) == want


def test_symmetrized_transform_bounds_the_terms_that_share_a_composition():
    """A 3 x 3 matrix of order 3 whose every entry is z, on 12 copies of block 0: the
    composition (4, 4, 4) sums 34650 products z^12 = 1, where the entries' norms alone
    allow 1, as ||z||_1 = 1; the transform agrees with the reference."""
    k = factor_matrix(Partition.singletons(GroupSpec((3,))))
    every_z = replace(k, rows=tuple([0, 1] * 3 for _ in k.rows))
    enum = SymmetrizedEnumerator({(12, 0, 0): 1})
    want = expected(ref.symmetrized_transform(enum.counts, pair(every_z)), 1)
    assert outcome(symmetrized_transform, enum, every_z, 1) == want
    assert dict(want)[(4, 4, 4)] == 34650


def test_product_transform_bounds_each_entry_by_its_coefficient_sum():
    """Two order-3 factors whose only nonzero entries are x = 30 - 30z and y = 60 + 30z:
    x y = 2700 is rational, with ||x||_1 ||y||_1 = 5400; a bound from the entries' largest
    coefficients, 30 * 60 = 1800, picks b = 12 and misreads it."""
    k = factor_matrix(hamming(GroupSpec((3,))))
    assert (k.shape, k.order) == ((2, 2), 3)
    x = replace(k, rows=([30, -30, 0, 0], [0, 0, 0, 0]))
    y = replace(k, rows=([60, 30, 0, 0], [0, 0, 0, 0]))
    enum = ProductEnumerator({(0, 0): 1})
    want = expected(ref.product_transform(enum.counts, [pair(x), pair(y)]), 1)
    assert want == [((0, 0), 2700)]
    assert outcome(product_transform, enum, [x, y], 1) == want


def test_symmetrized_transform_reads_cells_past_64_bits():
    """Z/5 Lee with 30 copies, where the bound R on a cell's coefficients passes 2^64: the
    zero code and a five-word code transform as the reference does, with no guard
    error, and the zero code's dual, every word, is multinomial(t) * 2^(t_1 + t_2)."""
    g, copies = GroupSpec((5,)), 30
    base = lee(g)
    k = factor_matrix(base)
    big = power_group(g, copies)
    zero, five = generate(big, []), generate(big, [(1,) * copies])
    for code in (zero, five):
        enum = symmetrized_enumerator(code, base, copies)
        assert code.size * (3 * _norm(k)) ** copies * coefficient_bound(5) > 1 << 64
        want = expected(ref.symmetrized_transform(enum.counts, pair(k)), code.size)
        assert outcome(symmetrized_transform, enum, k, code.size) == want
        assert isinstance(want, list)
    out = symmetrized_transform(symmetrized_enumerator(zero, base, copies), k, 1).counts
    assert out == {(t0, t1, copies - t0 - t1): math.factorial(copies) * 2 ** (copies - t0) //
                   math.factorial(t0) // math.factorial(t1) // math.factorial(copies - t0 - t1)
                   for t0 in range(copies + 1) for t1 in range(copies + 1 - t0)}


def counted(code, part):
    enum = linear_enumerator(code, part)
    assert enum.counts == ref.linear_enumerator(code, part)
    return enum, code.size


def macwilliams_cases():
    """(matrix, enumerators, code sizes): random character partitions on the
    ``check_macwilliams`` groups with all their subgroups, and a zero-block urn
    partition of Z/256 with one code per divisor; each enumerator is checked
    against the reference's count."""
    rng = random.Random(10)
    for grp in CODE_GROUPS:
        codes = all_subgroups(grp)
        for _ in range(4):
            char_part = random_partition(grp, rng)
            prim = dual_partition(char_part)
            yield krawtchouk(char_part, prim), [counted(c, prim) for c in codes]
    g = GroupSpec((256,))
    char_part = Partition.from_labels(g, [-1] + [rng.randrange(3) for _ in range(255)])
    prim = dual_partition(char_part)
    codes = [generate(g, [(d,)]) for d in (1, 2, 8, 64, 128)]
    yield krawtchouk(char_part, prim), [counted(c, prim) for c in codes]


def test_macwilliams_transform_matches_the_sparse_oracle():
    """Each matrix and code size, then the size one too large and the matrix made wrong."""
    irrational = failures = 0
    for k, enums in macwilliams_cases():
        irrational += any(ref.rational(x) is None for row in ref.entries(k) for x in row)
        for enum, size in enums:
            for matrix, s in [(k, size), (k, size + 1)] + [(w, size) for w in wrong_matrices(k)]:
                want = expected(ref.macwilliams_transform(enum.counts, pair(matrix)), s)
                if isinstance(want, list):
                    want = [dict(want).get((l,), 0) for l in range(k.shape[1])]
                assert outcome(macwilliams_transform, enum, matrix, s) == want
                assert isinstance(want, list) or (matrix, s) != (k, size)
                failures += want[0] is VerificationFailure
    assert irrational >= 3 and failures
    k, _ = next(macwilliams_cases())
    assert outcome(macwilliams_transform, LinearEnumerator((1,)), k, 1) == (
        InputError, f"matrix has {k.shape[0]} rows but the enumerator has 1 counts")
    assert outcome(macwilliams_transform, LinearEnumerator((0,) * k.shape[0]), k, 0) == (
        InputError, "code size must be positive")


def test_macwilliams_transform_bounds_every_row_it_reads():
    """Counts on both rows of an order-3 matrix whose rows are (z, 0) and (1000 - z, 0):
    the first column sums to 1000, which a bound from the first row alone misreads."""
    k = factor_matrix(hamming(GroupSpec((3,))))
    assert (k.shape, k.order) == ((2, 2), 3)
    wrong = replace(k, rows=([0, 1, 0, 0], [1000, -1, 0, 0]))
    enum = LinearEnumerator((1, 1))
    assert expected(ref.macwilliams_transform(enum.counts, pair(wrong)), 1) == [((0,), 1000)]
    assert outcome(macwilliams_transform, enum, wrong, 1) == [1000, 0]


def kk_partitions(grp, rng):
    return [random_partition(grp, rng), random_partition(grp, rng, zero_block=True),
            *bases(grp, rng).values()]


@pytest.mark.parametrize("orders", SYM_CARRIERS)
def test_kk_product_check_matches_the_sparse_oracle(orders):
    grp = GroupSpec(orders)
    for part in kk_partitions(grp, random.Random(repr(orders) + "kk")):
        assert kk_product_check(part) == ref.kk_product(part)[1]


def test_kk_product_check_matches_on_the_check_kk_pattern_partitions():
    rng = random.Random(9)
    for i in range(60):
        grp = SWEEP_GROUPS[i % len(SWEEP_GROUPS)]
        part = random_reflexive_partition(grp, rng) if i % 2 else random_partition(grp, rng)
        assert kk_product_check(part) == ref.kk_product(part)[1]
