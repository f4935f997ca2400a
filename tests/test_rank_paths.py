"""Rank- and integer-based constructions against the element-wise code they replaced.

Each oracle below is the earlier implementation, copied here: partitions
built from validated blocks (fibers, meet, join, random urns), induced
partitions from explicit block products and composition-vector weights, the
dual code from ``pairing_exponent``, the
transform step on ``CycInt`` entries only, which the one-integer cells of
``_grid_step`` must equal, the ``CycInt`` triple loop of the double-dual
product K'K, and the floating approximation
summed over every coefficient. The second half holds the duplicates that one
implementation each replaced: the breadth-first closure of ``generate``, the
pair-loop closure test of ``Code.from_elements``, the closure search of
``all_subgroups`` with its second greedy pass, the coset loop of
``unit_generators``, ``refines`` and
``mismatch_witness`` on element sets, the two long divisions, the ``CycInt``
product by convolution and reduction by long division that the Kronecker
substitution replaced, and the fixed-point transitive closure of
``Poset.from_covers``. Canonical block
order, which ``from_blocks`` now also takes from ``from_labels``, is checked
against ``sorted`` over element sets.
"""

import cmath
import itertools
import math
import random
from collections import Counter

import pytest

import dualpart.enumerator
from dualpart.cyclotomic import (CycInt, _poly_divmod, cyclotomic_polynomial, euler_phi, integer,
                                 unit_generators)
from dualpart.enumerator import (
    _evaluation,
    _grid_step,
    _norm,
    _root_order,
    _Rows,
    kk_product_check,
    product_enumerator,
    product_transform,
)
from dualpart.errors import InputError
from dualpart.group import (
    Code,
    GroupSpec,
    all_subgroups,
    dual_code,
    elements,
    generate,
    pairing_exponent,
)
from dualpart.induced import (
    power_group,
    product_group,
    product_partition,
    symmetrized_partition,
)
from dualpart.partition import (
    Partition,
    dual_partition,
    join,
    krawtchouk,
    meet,
    mismatch_witness,
    random_partition,
    random_reflexive_partition,
    refines,
)
from dualpart.poset import Poset
from test_induced import composition_vector, flatten_element, split_element
from test_packed_matrix import approx_pair
from test_product_grid import oracle_accumulate, read_coefficients, wrong_matrices
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
        assert all(part.block_index_of(x) == i for i, b in enumerate(want) for x in b)


def test_from_labels_rejects_a_wrong_length():
    g = GroupSpec((2, 3))
    for labels in ([0] * 5, [0] * 7, []):
        with pytest.raises(InputError, match="labels for 6 elements"):
            Partition.from_labels(g, labels)


def old_meet(a, b):
    grp = a.group
    fib = {}
    for g in elements(grp):
        fib.setdefault((a.block_index_of(g), b.block_index_of(g)), []).append(g)
    return Partition.from_blocks(grp, fib.values())


def old_join(a, b):
    grp = a.group
    blocks = [set(blk) for blk in a.blocks]
    for blk in b.blocks:
        touched = [s for s in blocks if s & set(blk)]
        merged = set(blk).union(*touched)
        blocks = [s for s in blocks if not s & set(blk)] + [merged]
    return Partition.from_blocks(grp, blocks)


@pytest.mark.parametrize("orders", [(6,), (2, 4), (3, 3), (2, 2, 2), (12,)])
def test_meet_and_join_match_the_blockwise_constructions(orders):
    g = GroupSpec(orders)
    rng = random.Random(7)
    for _ in range(20):
        a, b = random_partition(g, rng), random_partition(g, rng)
        assert meet(a, b) == old_meet(a, b)
        assert join(a, b) == old_join(a, b)


def old_random_partition(group, rng, zero_block=False):
    els = list(elements(group))
    if zero_block:
        els.remove(group.zero)
    blocks = {}
    if els:
        k = rng.randint(1, len(els))
        for g in els:
            blocks.setdefault(rng.randrange(k), []).append(g)
    out = list(blocks.values()) + ([[group.zero]] if zero_block else [])
    return Partition.from_blocks(group, out)


@pytest.mark.parametrize("orders", [(), (2,), (6,), (2, 4), (3, 3), (105,)])
def test_random_partition_draws_as_before(orders):
    g = GroupSpec(orders)
    for zero_block in (False, True):
        for seed in range(4):
            new = random_partition(g, random.Random(seed), zero_block=zero_block)
            assert new == old_random_partition(g, random.Random(seed), zero_block)


# ---------------------------------------------------------------------------
# induced partitions


def old_product_partition(parts):
    big = product_group([p.group for p in parts])
    blocks = []
    for combo in itertools.product(*(p.blocks for p in parts)):
        blocks.append([flatten_element(tup) for tup in itertools.product(*combo)])
    return Partition.from_blocks(big, blocks)


def old_symmetrized_partition(base, copies):
    big = power_group(base.group, copies)
    factors = [base.group] * copies
    fib = {}
    for flat in elements(big):
        key = composition_vector(base, split_element(factors, flat))
        fib.setdefault(key, []).append(flat)
    return Partition.from_blocks(big, fib.values())


BASES = [(2,), (3,), (4,), (2, 2), (6,), (2, 3)]


@pytest.mark.parametrize("orders", BASES)
def test_product_partition_matches_block_products(orders):
    rng = random.Random(11)
    g = GroupSpec(orders)
    for copies in (1, 2, 3):
        parts = [random_partition(g, rng) for _ in range(copies)]
        new, old = product_partition(parts), old_product_partition(parts)
        assert new == old and new.block_of == old.block_of
    mixed = [random_partition(GroupSpec((2,)), rng), random_partition(g, rng)]
    assert product_partition(mixed) == old_product_partition(mixed)


@pytest.mark.parametrize("orders", BASES)
def test_symmetrized_partition_matches_composition_fibers(orders):
    rng = random.Random(13)
    g = GroupSpec(orders)
    for copies in (1, 2, 3):
        base = random_partition(g, rng)
        new, old = symmetrized_partition(base, copies), old_symmetrized_partition(base, copies)
        assert new == old and new.block_of == old.block_of


# ---------------------------------------------------------------------------
# dual codes


def old_dual_code(group, code):
    members = [a for a in elements(group)
               if all(pairing_exponent(group, a, h) == 0 for h in code.generators)]
    return Code.from_elements(group, members)


# every carrier up to 64 elements once up to the order of its factors, and
# in every factor order up to 16 elements; the (2,)^6 case alone takes about 4 s
DUAL_CODE_CARRIERS = sorted({o if math.prod(o) <= 16 else tuple(sorted(o))
                             for o in SMALL_CARRIERS if o})


@pytest.mark.parametrize("orders", DUAL_CODE_CARRIERS)
def test_dual_code_matches_the_pairing_definition(orders):
    g = GroupSpec(orders)
    for code in all_subgroups(g):
        assert dual_code(g, code) == old_dual_code(g, code)


def test_dual_code_of_given_generators():
    g = GroupSpec((4, 6))
    code = generate(g, [(2, 3), (1, 2), (2, 3)])
    assert dual_code(g, code) == old_dual_code(g, code)


def test_dual_code_rejects_a_code_on_another_carrier():
    with pytest.raises(InputError):
        dual_code(GroupSpec((6,)), generate(GroupSpec((2, 3)), [(1, 1)]))


# ---------------------------------------------------------------------------
# the integer transform step


def old_contract_at(dist, i, matrix):
    entries = matrix.entries
    for key, coef in dist.items():
        head, tail = key[:i], key[i + 1:]
        for l, entry in enumerate(entries[key[i]]):
            if not entry.is_zero:
                yield head + (l,) + tail, coef * entry


def factor_matrix(base):
    return krawtchouk(dual_partition(base), base)


def rational_factor_matrices():
    rng = random.Random(3)
    out = []
    for orders in [(2,), (3,), (4,), (5,), (6,), (8,), (2, 2), (2, 4), (3, 3)]:
        g = GroupSpec(orders)
        for _ in range(6):
            m = factor_matrix(random_reflexive_partition(g, rng))
            if all(x.as_rational_integer() is not None for row in m.entries for x in row):
                out.append(m)
    return out


def singletons_matrix(n):
    return factor_matrix(Partition.singletons(GroupSpec((n,))))


def step_by_the_grid(dist, matrix):
    """One ``_grid_step`` on the dense grid of ``dist``, whose keys share one width and
    index the matrix rows, read back as the nonzero values of the step at coordinate 0:
    the grid contracts its outermost axis and writes the column axis innermost. The
    entries are evaluated at the width that the bound of ``macwilliams_transform``
    gives, sum |A| * ``_norm``."""
    rows, cols = matrix.shape
    width = len(next(iter(dist)))
    order = _root_order([matrix])
    b, _ = _evaluation(order, lambda: sum(dist.values()) * _norm(matrix))
    grid = [0] * rows ** width
    for key, c in dist.items():
        grid[sum(m * rows ** (width - 1 - j) for j, m in enumerate(key))] = c
    cells = (read_coefficients(v, order, b) for v in _grid_step(grid, _Rows(matrix, b)))
    keys = itertools.product(*map(range, (rows,) * (width - 1) + (cols,)))
    return {key[-1:] + key[:-1]: CycInt(matrix.order, cell)
            for key, cell in zip(keys, cells) if any(cell)}


def cycint_step(dist, matrix):
    return {k: v for k, v in oracle_accumulate(old_contract_at(dist, 0, matrix)).items()
            if not v.is_zero}


def random_dists(rows, rng):
    for width in (1, 3):
        yield {tuple(rng.randrange(rows) for _ in range(width)): rng.randrange(1, 9)
               for _ in range(6)}


def test_integer_step_equals_the_cycint_step():
    rng = random.Random(5)
    matrices = rational_factor_matrices()
    assert len(matrices) > 20
    for m in matrices:
        assert _root_order([m]) == 1  # entries are plain ints
        for dist in random_dists(m.shape[0], rng):
            assert step_by_the_grid(dist, m) == cycint_step(dist, m)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_irrational_grid_step_equals_the_cycint_step(n):
    rng = random.Random(n)
    m = singletons_matrix(n)
    assert _root_order([m]) == n
    dists = [{(r,): 1 for r in range(n)}, *random_dists(n, rng)]
    for matrix in [m] + wrong_matrices(m):
        for dist in dists:
            assert step_by_the_grid(dist, matrix) == cycint_step(dist, matrix)


def test_mixed_matrices_transform_to_the_dual_code():
    g3 = GroupSpec((3,))
    hamming = Partition.from_weight(g3, lambda x: x != (0,))
    singles = Partition.singletons(g3)
    big = GroupSpec((3, 3, 3))
    parts = [hamming, singles, hamming]
    for code in all_subgroups(big):
        counts = product_enumerator(code, parts)
        out = product_transform(counts, [factor_matrix(p) for p in parts], code.size)
        direct = product_enumerator(dual_code(big, code),
                                    [dual_partition(p) for p in parts])
        assert out.counts == direct.counts


# ---------------------------------------------------------------------------
# the double-dual product K'K


def old_kk_product(part, k, k2):
    """K'K and its verdicts by the ``CycInt`` triple loop, for the given K and K'."""
    grp = part.group
    size = grp.size
    e = grp.exponent
    ddual = dual_partition(dual_partition(part))
    k_entries, k2_entries = k.entries, k2.entries
    product, verdicts = [], []
    for r, ddual_block in enumerate(ddual.blocks):
        neg_block = {grp.neg(g) for g in ddual_block}
        row, verdict = [], []
        for m, prim_block in enumerate(part.blocks):
            acc = integer(e, 0)
            for l in range(k.shape[0]):
                acc = acc + k2_entries[r][l] * k_entries[l][m]
            expected = size if neg_block <= set(prim_block) else 0
            row.append(acc)
            verdict.append(acc == integer(e, expected))
        product.append(row)
        verdicts.append(tuple(verdict))
    return product, tuple(verdicts)


def kk_by_the_step(part, k, k2, monkeypatch):
    """kk_product_check's verdicts and its K'K, with K and K' given in place of its own."""
    monkeypatch.setattr(dualpart.enumerator, "krawtchouk",
                        lambda p, c, max_size: k if p is part else k2)
    steps = []
    monkeypatch.setattr(dualpart.enumerator, "_grid_step",
                        lambda grid, rows: steps.append((rows.b, _grid_step(grid, rows))) or
                        steps[-1][1])
    verdicts = kk_product_check(part)
    assert len(steps) == 1
    (b, cells), e, cols = steps[0], part.group.exponent, part.num_blocks
    cells = [read_coefficients(v, e if b else 1, b) for v in cells]
    return verdicts, [[CycInt(e, cells[r * cols + m]) for m in range(cols)]
                      for r in range(k2.shape[0])]


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
            want, want_verdicts = old_kk_product(part, matrix, k2)
            verdicts, product = kk_by_the_step(part, matrix, k2, monkeypatch)
            assert product == want
            assert verdicts == want_verdicts
            assert all(map(all, verdicts)) is (matrix is k)


def test_kk_carriers_include_irrational_exponents():
    exponents = {GroupSpec(orders).exponent for orders in KK_CARRIERS}
    assert {5, 8, 12} <= exponents
    for n in (5, 8, 12):
        k = singletons_matrix(n)
        assert any(x.as_rational_integer() is None for row in k.entries for x in row)


# ---------------------------------------------------------------------------
# floating approximations


def old_approx(x):
    z = cmath.exp(2j * cmath.pi / x.order)
    return sum((c * z**i for i, c in enumerate(x.coeffs)), complex(0))


@pytest.mark.parametrize("orders", [(8,), (12,), (105,), (3, 3)])
def test_approx_skipping_zeros_serializes_the_same(orders):
    g = GroupSpec(orders)
    rng = random.Random(17)
    parts = [Partition.singletons(g), random_partition(g, rng),
             random_partition(g, rng, zero_block=True)]
    for part in parts:
        for row in krawtchouk(part, dual_partition(part)).entries:
            for x in row:
                assert approx_pair(x.approx_complex()) == approx_pair(old_approx(x))


# ---------------------------------------------------------------------------
# one closure: generate as a fold of _close, closure tested on generators,
# subgroups by canonical augmentation, and the unit generators


def old_generate(group, gens):
    gen_list = [group.validate(g) for g in gens]
    acc = {group.zero}
    frontier = [group.zero]
    while frontier:
        nxt = []
        for a in frontier:
            for b in gen_list:
                c = group.add(a, b)
                if c not in acc:
                    acc.add(c)
                    nxt.append(c)
        frontier = nxt
    return Code(group, tuple(gen_list), tuple(sorted(acc)))


@pytest.mark.parametrize("orders", SMALL_CARRIERS)
def test_generate_equals_the_breadth_first_closure(orders):
    g = GroupSpec(orders)
    els = elements(g)
    rng = random.Random(repr(orders))
    for count in (0, 1, 1, 2, 2, 3, 4):
        gens = [rng.choice(els) for _ in range(count)]
        assert generate(g, gens) == old_generate(g, gens)


def old_is_closed(group, members):
    elems = set(members)
    if group.zero not in elems:
        return False
    return all(group.add(a, b) in elems for a in elems for b in elems)


@pytest.mark.parametrize("orders", [(6,), (2, 4), (2, 2, 2)])
def test_closure_verdict_matches_the_pair_loop_on_every_member_set(orders):
    g = GroupSpec(orders)
    els = elements(g)
    accepted = 0
    for k in range(len(els) + 1):
        for members in itertools.combinations(els, k):
            try:
                code = Code.from_elements(g, members)
            except InputError:
                assert not old_is_closed(g, members), members
                continue
            assert old_is_closed(g, members), members
            assert code.elements == members
            accepted += 1
    assert accepted == len(all_subgroups(g))


def old_close(group, base, x):
    out = set(base)
    cur = x
    while cur not in base:
        out.update(group.add(h, cur) for h in base)
        cur = group.add(cur, x)
    return out


def old_greedy_generators(group, elems):
    gens, span = [], {group.zero}
    for g in elems:
        if g not in span:
            gens.append(g)
            span = old_close(group, span, g)
    return tuple(gens)


def old_all_subgroups(group):
    """Close every outside element of every subgroup met, dropping repeats by a seen set."""
    els = elements(group)
    trivial = (group.zero,)
    seen = {trivial}
    queue = [trivial]
    while queue:
        base = set(queue.pop())
        for x in els:
            if x not in base:
                bigger = tuple(sorted(old_close(group, base, x)))
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    ordered = sorted(seen, key=lambda t: (len(t), t))
    return tuple(Code(group, old_greedy_generators(group, t), t) for t in ordered)


@pytest.mark.parametrize("orders", carriers(32))
def test_all_subgroups_equals_the_closure_search(orders):
    g = GroupSpec(orders)
    assert all_subgroups(g) == old_all_subgroups(g)


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
    assert all(c.generators == old_greedy_generators(g, c.elements) for c in subs)


def old_unit_generators(order):
    gens = []
    sub = {1 % order}
    for j in range(2, order):
        if math.gcd(j, order) == 1 and j not in sub:
            gens.append(j)
            grown, x = set(sub), j
            while x not in sub:  # add the cosets j^t * sub until they close
                grown.update(x * h % order for h in sub)
                x = x * j % order
            sub = grown
    return tuple(gens)


def test_unit_generators_equal_the_coset_loop():
    for order in range(1, 1025):
        assert unit_generators(order) == old_unit_generators(order), order


def old_refines(finer, coarser):
    for block in finer.blocks:
        target = coarser.block_index_of(block[0])
        if any(coarser.block_index_of(g) != target for g in block[1:]):
            return False
    return True


def old_mismatch_witness(a, b):
    if a == b:
        return None
    for g in elements(a.group):
        in_a = set(a.blocks[a.block_index_of(g)])
        in_b = set(b.blocks[b.block_index_of(g)])
        if in_a != in_b:
            return (g, min(in_a.symmetric_difference(in_b)))
    raise AssertionError("unequal partitions must disagree somewhere")


@pytest.mark.parametrize("orders", [(), (2,), (6,), (2, 4), (3, 3), (2, 2, 2), (16,)])
def test_refines_and_witness_match_the_element_set_versions(orders):
    g = GroupSpec(orders)
    rng = random.Random(23)
    for _ in range(30):
        a, b = random_partition(g, rng), random_partition(g, rng)
        # random pairs rarely refine each other; their meet and join always do
        for x, y in ((a, b), (b, a), (meet(a, b), a), (a, join(a, b)), (a, a),
                     (Partition.singletons(g), a), (a, Partition.one_block(g))):
            assert refines(x, y) == old_refines(x, y)
            assert mismatch_witness(x, y) == old_mismatch_witness(x, y)


def old_poly_mod(dividend, divisor):
    r = list(dividend)
    dlen = len(divisor)
    for i in range(len(r) - 1, dlen - 2, -1):
        c = r[i]
        if c:
            off = i - dlen + 1
            for j in range(dlen):
                r[off + j] -= c * divisor[j]
    return r[: dlen - 1]


def old_poly_div_exact(num, den):
    r = list(num)
    dlen = len(den)
    q = [0] * (len(num) - dlen + 1)
    for i in range(len(r) - 1, dlen - 2, -1):
        c = r[i]
        if c:
            off = i - dlen + 1
            q[off] = c
            for j in range(dlen):
                r[off + j] -= c * den[j]
    if any(r):
        raise ArithmeticError("polynomial division was not exact")
    return tuple(q)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_divmod_matches_the_two_long_divisions():
    rng = random.Random(29)
    for _ in range(400):
        den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 6))) + (1,)
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(len(den), 14)))
        q, r = _poly_divmod(num, den)
        assert list(r) == old_poly_mod(num, den)
        try:
            assert q == old_poly_div_exact(num, den) and not any(r)
        except ArithmeticError:
            assert any(r)
        exact = poly_mul(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 8))), den)
        q, r = _poly_divmod(exact, den)
        assert q == old_poly_div_exact(exact, den) and not any(r)


def old_reduced(order, raw):
    """The canonical coefficients of raw by long division, as CycInt reduced before."""
    phi = euler_phi(order)
    if len(raw) > phi:
        raw = _poly_divmod(tuple(raw), cyclotomic_polynomial(order))[1]
    return tuple(raw) + (0,) * (phi - len(raw))


def old_conjugate(order, coeffs):
    raw = [0] * order
    for i, c in enumerate(coeffs):
        raw[i * (order - 1) % order] += c
    return old_reduced(order, raw)


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
    coefficients up to 2^40 (widths past 64 bits), against poly_mul and _poly_divmod."""
    rng = random.Random(orders.start)
    for e in orders:
        phi = euler_phi(e)
        for _ in range(3):
            a, b = random_vector(rng, phi), random_vector(rng, phi)
            assert (CycInt(e, a) * CycInt(e, b)).coeffs == old_reduced(e, poly_mul(a, b)), e
            raw = random_vector(rng, rng.randint(phi + 1, 2 * e))
            assert CycInt(e, raw).coeffs == old_reduced(e, raw), e
            assert CycInt(e, a).conjugate().coeffs == old_conjugate(e, a), e
            m = rng.randint(2, 4)
            assert CycInt(e, a).change_order(e * m).coeffs == old_reduced(
                e * m, [c for x in a for c in (x,) + (0,) * (m - 1)]), e


def old_closure_below(n, covers):
    below = [set() for _ in range(n)]
    for a, b in covers:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in range(n):
            extra = set()
            for a in below[b]:
                extra |= below[a]
            if not extra <= below[b]:
                below[b] |= extra
                changed = True
    if any(i in below[i] for i in range(n)):
        return None
    return tuple(tuple(i in below[j] for j in range(n)) for i in range(n))


def test_from_covers_matches_the_fixed_point_closure():
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randint(1, 7)
        covers = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        try:
            below = Poset.from_covers(n, covers).below
            lt = tuple(tuple(bool(below[j] >> i & 1) for j in range(n)) for i in range(n))
        except InputError:
            lt = None
        assert lt == old_closure_below(n, covers), (n, covers)
