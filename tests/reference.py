"""Each object of the package computed from its definition: the one oracle of the tests.

Every fast path in ``dualpart`` is tested against the function here that
computes the same object the plain way, on tuples and ints. Nothing here comes
from the package but the value types it builds and compares (``GroupSpec``,
``Partition``, ``Code``): no arithmetic, pairing, sweep, closure or transform.

- Z[z], z a primitive root of order n: a value is its tuple of phi(n)
  canonical coefficients, the remainder of an integer polynomial on long
  division by Phi_n, and Phi_n is x^n - 1 divided by Phi_d for every proper
  divisor d of n.
- Characters: the tuple chi pairs with g through z^<chi, g>, <chi, g> =
  sum_j (E / n_j) chi_j g_j mod E, E the exponent. The dual of a partition
  groups the characters by their vectors of exact block sums, and a
  Krawtchouk entry is one such sum.
- Codes: spans by breadth-first closure, dual codes by a scan of the carrier,
  every subgroup by an exhaustive search.
- Partitions: the lattice, negation and the induced partitions on element sets.
- Enumerators count code words; each transform is the sum over the input keys
  of the count times the product of exact entries, at every output key.
- Posets: an order is its set of pairs (i, j), i < j; the chain's Krawtchouk
  matrix is its four-case formula.
"""

import cmath
import functools
import itertools
import math
from collections import Counter

from dualpart.group import Code, GroupSpec
from dualpart.partition import Partition

# ---------------------------------------------------------------------------
# Z[z]


def divmod_poly(num, den):
    """Quotient and the len(den) - 1 remainder coefficients of num by a monic den,
    by long division; coefficients lowest degree first."""
    d = len(den) - 1
    r = list(num) + [0] * max(d - len(num), 0)
    q = [0] * max(len(num) - d, 0)
    terms = [(j, c) for j, c in enumerate(den[:-1]) if c]
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            q[i - d], r[i] = c, 0
            for j, t in terms:
                r[i - d + j] -= c * t
    return tuple(q), tuple(r[:d])


@functools.lru_cache(maxsize=None)
def cyclotomic(n):
    """Phi_n: x^n - 1 divided by Phi_d for each proper divisor d of n."""
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divmod_poly(poly, cyclotomic(d))
            assert not any(rem)
    return poly


def phi(n):
    return len(cyclotomic(n)) - 1


def reduce(poly, n):
    """The canonical coefficients of poly(z), z of order n."""
    return divmod_poly(poly, cyclotomic(n))[1]


def add_product(acc, a, b):
    """acc += a * b, on coefficient lists, by convolution; acc grows as needed."""
    acc += [0] * (len(a) + len(b) - 1 - len(acc))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y
    return acc


def sum_of_products(pairs):
    """The sum of a * b over the pairs (a, b), unreduced."""
    return functools.reduce(lambda acc, pair: add_product(acc, *pair), pairs, [])


def mul(a, b, n):
    return reduce(add_product([], a, b), n)


@functools.lru_cache(maxsize=8)
def powers(n):
    """The nonzero (position, coefficient) terms of z^k at order n, for k < n: each
    power is the one before times x, reduced."""
    dense = [reduce((1,), n)]
    for _ in range(n - 1):
        dense.append(reduce((0,) + dense[-1], n))
    return [[(i, c) for i, c in enumerate(p) if c] for p in dense]


def conjugate(a, n):
    """z^i -> z^(-i)."""
    raw = [0] * n
    for i, c in enumerate(a):
        raw[-i % n] += c
    return reduce(raw, n)


def change_order(a, n, m):
    """The value at order m, a multiple of n: z_n = z_m^(m / n)."""
    raw = [0] * (len(a) * (m // n))
    raw[::m // n] = a
    return reduce(raw, m)


def approx(a, n):
    """sum_i c_i w^i, w = exp(2 pi i / n)."""
    w = cmath.exp(2j * cmath.pi / n)
    return sum((c * w**i for i, c in enumerate(a)), complex(0))


def rational(a):
    """The value as an int, or None when it is irrational."""
    return None if any(a[1:]) else a[0]


# ---------------------------------------------------------------------------
# characters


def exponent(group):
    return math.lcm(*group.orders)


def elements(group):
    """The carrier in rank order, which is lexicographic order."""
    return tuple(itertools.product(*map(range, group.orders)))


def pairing_exponent(group, chi, g):
    e = exponent(group)
    return sum(e // n * c * x for n, c, x in zip(group.orders, chi, g)) % e


@functools.lru_cache(maxsize=4)
def pairings(group):
    """<chi, g> for every character and every element, both in rank order."""
    return [[pairing_exponent(group, chi, g) for g in elements(group)] for chi in elements(group)]


def _block_sums(part, row):
    """S(chi, B) = sum over g in B of z^<chi, g> for every block B, given chi's
    exponents ``row``: the histogram h of the exponents in each block, reduced by
    Phi_E term by term, as sum_k h_k (x^k mod Phi_E)."""
    e = exponent(part.group)
    terms, sums = powers(e), [[0] * phi(e) for _ in range(part.num_blocks)]
    for (b, k), h in Counter(zip(part.block_of, row)).items():
        acc = sums[b]
        for i, c in terms[k]:
            acc[i] += h * c
    return tuple(map(tuple, sums))


def signature(part, chi):
    """The vector of exact block sums of one character."""
    return _block_sums(part, [pairing_exponent(part.group, chi, g) for g in elements(part.group)])


@functools.lru_cache(maxsize=16)
def signatures(part):
    return {chi: _block_sums(part, row) for chi, row in zip(elements(part.group),
                                                            pairings(part.group))}


def fibers(group, label, items):
    """The partition of the carrier into the fibers of ``label`` on ``items``."""
    out = {}
    for x in items:
        out.setdefault(label(x), []).append(x)
    return Partition.from_blocks(group, out.values())


def dual(part):
    """The characters grouped by equal vectors of exact block sums."""
    return fibers(part.group, signatures(part).__getitem__, elements(part.group))


def krawtchouk(part, char_part):
    """K[l][m] = S(chi, B_m) for the characters chi of block l of ``char_part``;
    ValueError when two characters of one block give different sums."""
    rows = []
    for block in char_part.blocks:
        sums = set(map(signatures(part).__getitem__, block))
        if len(sums) > 1:
            raise ValueError("the character partition does not refine the dual")
        rows.append(sums.pop())
    return tuple(rows)


def entries(matrix):
    """The entries of a ``KrawtchoukMatrix`` as coefficient tuples, read off its rows."""
    n = phi(matrix.order)
    return tuple(tuple(tuple(row[j:j + n]) for j in range(0, len(row), n))
                 for row in matrix.rows)


def fourier(group, f):
    """chi -> sum over g of z^<chi, g> f(g), f(g) an int or a coefficient tuple at order E."""
    return {chi: reduce(sum_of_products(((0,) * pairing_exponent(group, chi, g) + (1,),
                                         (f[g],) if isinstance(f[g], int) else f[g])
                                        for g in elements(group)), exponent(group))
            for chi in elements(group)}


def fp_fourier(group, x, p, w):
    """The F_p image of the Fourier sums of x under z -> w, for every chi in rank order."""
    els = elements(group)
    return [sum(v * pow(w, pairing_exponent(group, chi, g), p) for v, g in zip(x, els)) % p
            for chi in els]


# ---------------------------------------------------------------------------
# codes


def add(group, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, group.orders))


def neg(group, a):
    return tuple(-x % n for x, n in zip(a, group.orders))


def span(op, gens, base):
    """The least set holding ``base`` and closed under adding each generator, by
    breadth-first closure: the span of the generators and a subgroup ``base``."""
    out, frontier = set(base), set(base)
    while frontier:
        frontier = {op(x, g) for x in frontier for g in gens} - out
        out |= frontier
    return out


def greedy_generators(op, identity, elems):
    """The elements, in their order, outside the span of those kept before them."""
    gens, spanned = [], {identity}
    for g in elems:
        if g not in spanned:
            gens.append(g)
            spanned = span(op, [g], spanned)
    return tuple(gens)


def code(group, elems, gens=None):
    """The code with these elements, and their greedy generators unless given."""
    elems = tuple(sorted(elems))
    if gens is None:
        gens = greedy_generators(functools.partial(add, group), (0,) * len(group.orders), elems)
    return Code(group, tuple(gens), elems)


def generate(group, gens):
    return code(group, span(functools.partial(add, group), gens, [(0,) * len(group.orders)]), gens)


def is_subgroup(group, members):
    s = set(members)
    return (0,) * len(group.orders) in s and all(add(group, a, b) in s for a in s for b in s)


def dual_code(group, gens):
    """Every element of the carrier that pairs to z^0 with each of ``gens``: with a
    code's generators, its dual code, as each character is a homomorphism."""
    return code(group, [a for a in elements(group)
                        if all(pairing_exponent(group, a, h) == 0 for h in gens)])


def all_subgroups(group):
    """Every subgroup, smallest first, then by elements: from {0}, each subgroup S
    found is closed with one element of each coset of S other than S itself."""
    found = {frozenset([(0,) * len(group.orders)])}
    queue = list(found)
    while queue:
        sub = queue.pop()
        met = set(sub)
        for x in elements(group):
            if x not in met:
                met.update(add(group, x, h) for h in sub)
                bigger = frozenset(span(functools.partial(add, group), [x], sub))
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
    return tuple(sorted((code(group, s) for s in found), key=lambda c: (c.size, c.elements)))


def unit_generators(n):
    """Greedy generators of the units mod n, from the least unit up."""
    return greedy_generators(lambda a, b: a * b % n, 1 % n,
                             [j for j in range(2, n) if math.gcd(j, n) == 1])


# ---------------------------------------------------------------------------
# partitions


def blocks(part):
    return list(map(set, part.blocks))


def meet(a, b):
    """The nonempty intersections of a block of each."""
    return Partition.from_blocks(a.group, [x & y for x in blocks(a) for y in blocks(b) if x & y])


def join(a, b):
    """The blocks of both, merged while two of them overlap."""
    out = []
    for block in blocks(a) + blocks(b):
        touched = [s for s in out if s & block]
        out = [s for s in out if not s & block] + [block.union(*touched)]
    return Partition.from_blocks(a.group, out)


def refines(finer, coarser):
    return all(any(x <= y for y in blocks(coarser)) for x in blocks(finer))


def mismatch_witness(a, b):
    """None for equal partitions, else the first g in rank order whose blocks differ,
    with the least element of the symmetric difference of its two blocks."""
    for g in elements(a.group):
        x, y = (next(s for s in blocks(p) if g in s) for p in (a, b))
        if x != y:
            return g, min(x ^ y)
    return None


def negate(part):
    return Partition.from_blocks(part.group, [[neg(part.group, g) for g in b]
                                              for b in part.blocks])


def split(groups, word):
    """A word of the product carrier cut into its factors' coordinates."""
    cuts = list(itertools.accumulate(len(g.orders) for g in groups))
    return tuple(word[i - len(g.orders):i] for g, i in zip(groups, cuts))


def block_index(part, g):
    return next(i for i, b in enumerate(part.blocks) if g in b)


def composition(base, coords):
    """How many of the coordinates fall in each block of the base partition."""
    counts = Counter(block_index(base, c) for c in coords)
    return tuple(counts[i] for i in range(base.num_blocks))


def product_partition(parts):
    """The products of one block of each factor."""
    return Partition.from_blocks(GroupSpec(sum((p.group.orders for p in parts), ())), [
        [sum(word, ()) for word in itertools.product(*combo)]
        for combo in itertools.product(*(p.blocks for p in parts))])


def symmetrized_partition(base, copies):
    """The words of the power carrier grouped by composition vector."""
    power = GroupSpec(base.group.orders * copies)
    return fibers(power, lambda w: composition(base, split([base.group] * copies, w)),
                  elements(power))


def random_partition(group, rng, zero_block=False):
    """The draw of ``random_partition``: k = randint(1, n) urns for the n elements
    (zero left out with ``zero_block``, and given a block of its own), then one
    randrange(k) per element in rank order; empty urns are dropped."""
    els = list(elements(group))[int(zero_block):]
    k = rng.randint(1, len(els)) if els else 0
    urns = {}
    for g in els:
        urns.setdefault(rng.randrange(k), []).append(g)
    zero = [[(0,) * len(group.orders)]] if zero_block else []
    return Partition.from_blocks(group, [*urns.values(), *zero])


# ---------------------------------------------------------------------------
# enumerators and transforms


def linear_enumerator(code_, part):
    """Words counted by block."""
    counts = Counter(block_index(part, w) for w in code_.elements)
    return tuple(counts[i] for i in range(part.num_blocks))


def product_enumerator(code_, parts):
    """Words counted by their factors' block indices, keys in order of first word."""
    groups = [p.group for p in parts]
    return dict(Counter(tuple(map(block_index, parts, split(groups, w)))
                        for w in code_.elements))


def symmetrized_enumerator(code_, base, copies):
    """Words counted by composition vector, keys in order of first word."""
    groups = [base.group] * copies
    return dict(Counter(composition(base, split(groups, w)) for w in code_.elements))


def _lifted(matrices):
    """The common order of (order, entries) pairs, and every entry lifted to it."""
    order = math.lcm(*(n for n, _ in matrices))
    return order, [[[change_order(x, n, order) for x in row] for row in k] for n, k in matrices]


def macwilliams_transform(counts, matrix):
    """B(l) = sum_m A(m) K[m][l] for every column l, exactly; ``matrix`` is (order, entries)."""
    order, (k,) = _lifted([matrix])
    return {(l,): reduce(sum_of_products(((a,), row[l]) for a, row in zip(counts, k)), order)
            for l in range(len(k[0]))}


def product_transform(counts, matrices):
    """B(l) = sum_m A(m) prod_i K_i[m_i][l_i] at every key l, by distributivity one
    coordinate at a time: coordinate i of every key is expanded over the columns."""
    order, ks = _lifted(matrices)
    state = {key: (a,) for key, a in counts.items()}
    for i, k in enumerate(ks):
        raw = {}
        for key, v in state.items():
            for l, x in enumerate(k[key[i]]):
                add_product(raw.setdefault(key[:i] + (l,) + key[i + 1:], []), v, x)
        state = {key: reduce(acc, order) for key, acc in raw.items()}
    zero = reduce((), order)
    return {key: state.get(key, zero) for key in itertools.product(*(range(len(k[0])) for k in ks))}


def symmetrized_transform(counts, matrix):
    """B(t) = sum_s A(s) [y^t] prod_m (sum_l K[m][l] y_l)^(s_m): by the symmetrization
    theorem, the sum over every key l of composition t of prod_i K[m_i][l_i], m any
    key of composition s. The product of linear forms in y is expanded one at a time."""
    order, (k,) = _lifted([matrix])
    cols = len(k[0])
    out = {}
    for s, a in counts.items():
        poly = {(0,) * cols: (a,)}
        for m in (m for m, times in enumerate(s) for _ in range(times)):
            raw = {}
            for t, v in poly.items():
                for l, x in enumerate(k[m]):
                    add_product(raw.setdefault(t[:l] + (t[l] + 1,) + t[l + 1:], []), v, x)
            poly = {t: reduce(acc, order) for t, acc in raw.items()}
        for t, v in poly.items():
            add_product(out.setdefault(t, []), (1,), v)
    return {t: reduce(acc, order) for t, acc in out.items()}


def exact_counts(sums, code_size):
    """Each exact sum divided by the code size, in key order, the zeros dropped; the
    first sum that is irrational, not divisible or negative raises ArithmeticError
    with the reason."""
    out = {}
    for key in sorted(sums):
        n = rational(sums[key])
        if n is None:
            raise ArithmeticError("transform produced an irrational value")
        q, r = divmod(n, code_size)
        if r:
            raise ArithmeticError("transform result is not divisible by the code size")
        if q < 0:
            raise ArithmeticError("transform produced a negative count")
        if q:
            out[key] = q
    return out


def kk_product(part, k=None, k2=None):
    """K'K = sum_l K'[r][l] K[l][m] and its verdicts: entry (r, m) must equal |G| when
    the negated r-th block of the bidual lies in the m-th block of the partition, else
    0. K and K' are (order, entries); they default to the matrices of (P, P*) and
    (P*, P**) built here."""
    grp, e = part.group, exponent(part.group)
    k = k or (e, krawtchouk(part, dual(part)))
    k2 = k2 or (e, krawtchouk(dual(part), dual(dual(part))))
    order, (k, k2) = _lifted([k, k2])
    product = [[reduce(sum_of_products(zip(k2[r], (row[m] for row in k))), order)
                for m in range(part.num_blocks)] for r in range(len(k2))]
    verdicts = []
    for r, block in enumerate(dual(dual(part)).blocks):
        negated = {neg(grp, g) for g in block}
        verdicts.append(tuple(
            rational(product[r][m]) == (grp.size if negated <= set(b) else 0)
            for m, b in enumerate(part.blocks)))
    return product, tuple(verdicts)


# ---------------------------------------------------------------------------
# posets


def order_of(poset):
    """The pairs of a ``Poset``: bit i of ``below[j]`` is set when i < j."""
    return frozenset((i, j) for j, m in enumerate(poset.below) for i in range(poset.n)
                     if m >> i & 1)


def order_from_covers(covers):
    """The pairs (i, j), i < j, closed transitively; None when they hold a cycle."""
    lt = set(covers)
    while extra := {(a, d) for a, b in lt for c, d in lt if b == c} - lt:
        lt |= extra
    return None if any(a == b for a, b in lt) else frozenset(lt)


def order_problem(lt):
    """The first axiom of a strict order that the pairs break, or None."""
    if any(a == b for a, b in lt):
        return "reflexive"
    if any((b, a) in lt for a, b in lt):
        return "antisymmetric"
    if any((a, d) not in lt for a, b in lt for c, d in lt if b == c):
        return "transitive"
    return None


def covers(lt):
    return sorted((a, b) for a, b in lt if not any((a, k) in lt and (k, b) in lt for k, _ in lt))


def transposed(lt):
    return frozenset((b, a) for a, b in lt)


def ideal(lt, coords):
    s = set(coords)
    return frozenset(s | {a for a, b in lt if b in s})


def weight(lt, g):
    return len(ideal(lt, [i for i, x in enumerate(g) if x]))


def weight_partition(lt, group):
    return fibers(group, lambda g: weight(lt, g), elements(group))


def chain_krawtchouk(n, q):
    """The Krawtchouk matrix of the chain on n coordinates of order q (the
    Rosenbloom-Tsfasman space), rows by dual weight l and columns by weight m, in its
    four cases: 1 at m = 0, q^(m-1) (q - 1) for l < n + 1 - m, -q^(m-1) at
    l = n + 1 - m, and 0 past it."""
    return tuple(tuple(1 if m == 0 else q ** (m - 1) * (q - 1) if l < n + 1 - m
                       else -q ** (m - 1) if l == n + 1 - m else 0
                       for m in range(n + 1)) for l in range(n + 1))


def hierarchy(n, lt):
    """Level sizes and each coordinate's level, the levels stripped as minimal
    elements, when i < j exactly for i on a lower level than j; else None."""
    level_of, left, sizes = [0] * n, set(range(n)), []
    while left:
        low = {x for x in left if not any((y, x) in lt for y in left)}
        for x in low:
            level_of[x] = len(sizes)
        sizes.append(len(low))
        left -= low
    if any(((a, b) in lt) != (level_of[a] < level_of[b]) for a in range(n) for b in range(n)):
        return None
    return tuple(sizes), tuple(level_of)
