"""Partitions of a group carrier and their duals under the character pairing.

The dual of a partition groups characters by the exact vector of their block
sums: two characters fall in the same dual block precisely when every block
of the original partition sums to the same cyclotomic integer under both.

The signature sweep finds these classes without building a single exact
sum. It evaluates every block sum in F_p, for a prime p = 1 (mod E) above
2 * |G| * c_E (E the exponent, c_E the largest coefficient of a canonical
root power), then refines the labels under the Galois action chi -> j * chi
for a generating set of the units j mod E until they stop splitting. Since
Z[z]/pZ[z] is F_p^phi(E) through the maps z -> w^j, and the coefficient
bound keeps every difference of two sums below p, the final classes are
exactly the classes of equal exact sums (the full argument is in
``_signature_rows``).

The first F_p labels come from one loop over the blocks, each refining the
labels by its vector of sums over all characters; the largest block is
implied by the others and skipped, and the loop stops once all characters
are apart. A block's vector is either its members' pairing rows summed,
about |B| rows, or its F_p Fourier transform, taken one factor axis at a
time with each cyclic factor split into radix-q passes over its prime
factors (mixed-radix Cooley-Tukey). Each block takes the cheaper of the two
by a cost estimate of the transform in rows (``_transform_cost``). A
partition into singletons has the singletons as its dual and is not swept.
Then comes a Galois pass of |G| label lookups per generator.

A Krawtchouk matrix, after a guard on its coefficient count
(``MATRIX_GUARD``), holds one signed ``array`` of exact canonical
coefficients per character block, and no ``CycInt`` per entry. Every entry
is computed in one ring, Z/(2^(Lb) +- 1), where the root is 2^b, so a root
power is a shift (Kronecker substitution, as in Schoenhage and Strassen,
Computing 7, 1971): per character, its pairing row mapped through the ring's
root powers and summed block by block, or per primal block, by the same
radix passes as the sweep's transform, whichever costs fewer pairing rows.
``fourier_transform`` runs those passes once on all the values of a
function. One plan (``_transform_plan``) and one executor (``_run_passes``)
serve the sweep, the rows and ``fourier_transform``, as F_p and the shift
ring each lower the plan to their own root terms, reduction and twiddle; one
reader (``cyclotomic._digit_reader``) turns the ring values of the last two
into coefficients by their base-2^b digits, with b from the width rule that
``cyclotomic._kronecker`` states and proves for every exact form of Z[z].

The dual is kept on the partition object, so its reflexivity test, bidual,
and generalized Krawtchouk matrices with any character partition that
refines the dual all read one sweep, as does ``enumerator.kk_product_check``,
which multiplies two such matrices. A character partition is checked
against the dual in full on every carrier; nothing is sampled.

A partition is stored once, as its labels: the block index of each carrier
element in rank order, numbered by first appearance. That numbering is
canonical, so partitions on the same carrier compare by plain equality of
their labels. ``Partition.from_labels`` alone numbers them. The member
tuples (``blocks``: each block in rank order, blocks ordered by their least
member) are built from the labels on first read and kept; the sweep reads
them, while the writer, ``refines``, ``meet`` and ``join`` read only the
labels. ``group`` owns the pairing whose rows the sweep reads.
"""

from __future__ import annotations

import random
from array import array
from functools import cached_property, partial, reduce
from itertools import accumulate, compress, repeat
from operator import add, itemgetter, lshift, mul, sub
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

from .cyclotomic import (CycInt, _digit_reader, _evaluate, _radices, coefficient_bound,
                         euler_phi, split_prime, unit_generators, zero)
from .errors import GuardExceeded, InputError, VerificationFailure
from .group import ELEMENT_GUARD, Element, GroupSpec, _outer, _pairing_exponents, elements

MATRIX_GUARD = 5_000_000
"""Most exact coefficients a Krawtchouk matrix may hold: rows x columns x phi(E).

A coefficient costs b/8 bytes in its row (``cyclotomic._digit_reader``; b is 8
to 32 under the element guard). Printing 2.5M and 4.4M coefficients, random
partitions of (2,)^11 and (2,)^12 at b = 8, peaked at 21.8 and 25.8 MiB of RSS
on Python 3.11, the interpreter included."""

Block = tuple[Element, ...]


class Partition:
    """A set partition of the carrier of a finite abelian group, stored as the
    canonical block index of each element in rank order (``from_labels``).

    Two partitions are equal when their carriers and labels are; ``_dual`` is
    set once by ``dual_partition``, and dropped with the partition."""

    def __init__(self, group: GroupSpec, block_of: tuple[int, ...], num_blocks: int) -> None:
        self.group, self.block_of, self.num_blocks = group, block_of, num_blocks
        self._dual: Partition | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.group == other.group and self.block_of == other.block_of

    def __hash__(self) -> int:
        return hash((self.group, self.block_of))

    def __repr__(self) -> str:
        return f"Partition({self.group!r}, {self.block_of!r}, {self.num_blocks!r})"

    @classmethod
    def from_blocks(cls, group: GroupSpec, blocks: Iterable[Iterable[Element]]) -> "Partition":
        """Validate explicit blocks (disjoint, covering, nonempty), then label them.

        Range, emptiness and duplicates are checked block by block, then
        overlap and cover. Labels sit in a map until the cover check passes.
        """
        owner: dict[int, int] = {}
        total = 0
        for i, b in enumerate(blocks):
            members = [group.validate(g) for g in b]
            if not members:
                raise InputError("blocks must be nonempty")
            ranks = set(map(group.rank, members))
            if len(ranks) != len(members):
                raise InputError("duplicate element inside a block")
            total += len(ranks)
            owner.update(dict.fromkeys(ranks, i))
        if len(owner) != total:
            raise InputError("blocks overlap")
        if len(owner) != group.size:
            raise InputError("blocks do not cover the carrier")
        return cls.from_labels(group, map(owner.__getitem__, range(group.size)))

    @classmethod
    def from_labels(cls, group: GroupSpec, labels: Iterable[Hashable]) -> "Partition":
        """The fibers of one label per element, the labels given in rank order.

        The labels are numbered by first appearance in rank order, which is
        the canonical form without a sort: equal partitions get equal labels,
        and block i opens at its least member, before block i + 1 does. Only
        the length of the label list is checked. That is why only label lists
        the library builds itself (weights, sweep classes, factor block
        indices) come here directly; blocks from user input go through
        ``from_blocks``, which validates them and then comes here. The caller
        guards the carrier size.
        """
        ids: dict[Hashable, int] = {}
        block_of = tuple(ids.setdefault(label, len(ids)) for label in labels)
        if len(block_of) != group.size:
            raise InputError(f"{len(block_of)} labels for {group.size} elements")
        return cls(group, block_of, len(ids))

    @classmethod
    def singletons(cls, group: GroupSpec, max_size: int = ELEMENT_GUARD) -> "Partition":
        return cls.from_labels(group, range(len(elements(group, max_size))))

    @classmethod
    def one_block(cls, group: GroupSpec, max_size: int = ELEMENT_GUARD) -> "Partition":
        return cls.from_labels(group, repeat(0, len(elements(group, max_size))))

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The members of each block in rank order, which is lexicographic order,
        the blocks ordered by their least members; built on first read and kept."""
        blocks: list[list[Element]] = [[] for _ in range(self.num_blocks)]
        for g, i in zip(elements(self.group, self.group.size), self.block_of):
            blocks[i].append(g)
        return tuple(map(tuple, blocks))


# ---------------------------------------------------------------------------
# the signature sweep


def _unit_action(grp: GroupSpec, j: int) -> list[int]:
    """Rank of the character j * chi, for every character chi in rank order."""
    cols, stride = [], grp.size
    for n in grp.orders:
        stride //= n
        cols.append([j * v % n * stride for v in range(n)])
    return reduce(_outer, cols, [0])


Pass = tuple[int, list[int], list[list[int] | None]]
"""One radix-q pass: q, the exponents k of the q-th roots z^k (z = e^(2 pi i / E)),
and an exponent vector of twiddles per output digit (None where all are z^0)."""


def _transform_plan(grp: GroupSpec) -> tuple[list[Pass], list[int]]:
    """The passes of the per-axis transform in root exponents, and where it leaves
    each character.

    The transform takes a vector in rank order to its sums
    f^(chi) = sum over g of f(g) * z^<chi, g>, z a root of exact order E in
    some ring. Each factor Z/n is split into radix-q passes over the prime
    factors of n (decimation in frequency, Cooley and Tukey, Math. Comp. 19,
    1965). Write L = q * m for the length still to transform on the axis and
    t = a + m * b for its coordinate, b the top digit. Then with u = z^(E/L)

        X[d + q * c] = sum over a of u^(q * a * c) * u^(a * d)
                       * sum over b of u^(m * b * d) * x[a + m * b],

    so a pass sums the q rows b with the q-th roots u^(m * b * d), multiplies
    by the twiddle u^(a * d), and leaves q transforms of length m. The axis
    being transformed is always outermost, so the rows are contiguous slices.
    Each output digit d is written with stride q, which makes it the last
    digit. After every pass of every axis the axes are back in their order,
    each with its frequency digits reversed; the second list maps a
    character's rank to that position. Every exponent lies below E, as
    a * d < L. Twiddles depend only on (L, q), so axes of one order share
    them. One executor, two lowerings: ``_run_passes`` runs the plan in
    either ring, lowered by ``_fp_passes`` or ``_shift_passes`` to that
    ring's root terms, reduction and twiddle.
    """
    size, e = grp.size, grp.exponent
    plan: list[Pass] = []
    twiddles: dict[tuple[int, int], list[list[int] | None]] = {}
    cols, stride = [], size
    for n in grp.orders:
        stride //= n
        radices = _radices(n)
        length = n
        for q in radices:
            m = length // q
            if (length, q) not in twiddles:
                chunk, step = size // length, e // length  # entries per value of a in a row
                twiddles[length, q] = [None] + [
                    [x for a in range(m) for x in repeat(step * a * d, chunk)]
                    for d in range(1, q)] if m > 1 else [None] * q
            plan.append((q, [e // q * k for k in range(q)], twiddles[length, q]))
            length = m
        # frequency k = d1 + q1 * (d2 + q2 * ...) sits at d1 * (q2 * ...) + d2 * ... + dr
        place = [0]
        for q in reversed(radices):
            place = [d * len(place) + x for x in place for d in range(q)]
        cols.append([x * stride for x in place])
    return plan, reduce(_outer, cols, [0])


def _lowered(plan: list[Pass], root: Callable, twiddle: Callable) -> list[tuple]:
    """The plan with each root exponent mapped by ``root`` to (scale, negated) and
    each twiddle vector by ``twiddle``; a vector that passes share is lowered once."""
    vectors = {id(t): t for _, _, tw in plan for t in tw if t}
    vectors = {key: twiddle(t) for key, t in vectors.items()}
    return [(q, list(map(root, roots)), [t and vectors[id(t)] for t in tw])
            for q, roots, tw in plan]


def _fp_passes(plan: list[Pass], powers: list[int], p: int) -> tuple:
    """The plan in F_p, as ``_run_passes`` takes it: each exponent k becomes w^k mod p,
    read from ``powers``, the roots 1 and -1 take the row as it is, up to sign, and
    the reduction is mod p."""
    def root(k: int) -> tuple[Callable | None, bool]:
        c = powers[k]
        return (None if c in (1, p - 1) else c.__mul__), c == p - 1

    reduced = partial(map, p.__rmod__)
    return (_lowered(plan, root, lambda t: list(map(powers.__getitem__, t))), reduced,
            lambda values, t: reduced(map(mul, values, t)))


def _run_passes(x: list[int], passes: list[tuple], reduced: Callable,
                twiddled: Callable) -> list[int]:
    """The transform of x by one lowering's passes, each value congruent to its
    residue in the ring but not reduced.

    Output digit d of a pass sums the q rows, row b entering through the root
    of exponent b * d mod q: as it is or negated where a root is (scale None,
    negated), else mapped by its scale. The digit is then ``reduced`` if it
    met a scale, which only digits d >= 1 do, and takes its twiddle by
    ``twiddled(values, vector)``, which multiplies and reduces; the vector is
    None for digit 0 and on the last pass of an axis. A digit of additions
    only is left unreduced; the values stay exact integers.
    """
    for q, roots, tw in passes:
        size = len(x) // q
        rows = [x[b * size:(b + 1) * size] for b in range(q)]
        out = [0] * len(x)
        for d in range(q):
            acc: Iterable[int] = rows[0]
            scaled = False
            for b in range(1, q):
                scale, negated = roots[b * d % q]
                term = rows[b] if scale is None else map(scale, rows[b])
                acc = map(sub if negated else add, acc, term)
                scaled = scaled or scale is not None
            if scaled:
                acc = reduced(acc)
            if tw[d] is not None:
                acc = twiddled(acc, tw[d])
            out[d::q] = acc
        x = out
    return x


def _transform_cost(grp: GroupSpec) -> float:
    """Pairing rows that one block's F_p transform costs, estimated from its passes.

    A row costs about three operations per element (exponent, gather, add).
    Per q outputs a radix-q pass always makes the q(q - 1) additions. A root
    other than +-1 (every one for an odd prime q, none for q = 2) costs a
    multiplication at each of the (q - 1)^2 rows and digits that meet it, and
    the q - 1 digits past the first take a twiddle when the axis has length m > 1
    left. Those digits are reduced mod p, at one operation, after their roots
    when q > 2 and again after the twiddle. A pass also makes one Python-level
    step for each (row, digit) pair past the first row, q(q - 1), at about
    fifteen element operations each. The indicator, the final reduction and
    the gather add three operations per element.
    """
    ops = 0.0
    for n in grp.orders:
        for q in _radices(n):
            n //= q
            work = q * (q - 1) + (q - 1) ** 2 * (q > 2) + (q - 1) * (n > 1)
            reductions = (q - 1) * ((q > 2) + (n > 1))
            ops += (work + reductions) / q * grp.size + 15 * q * (q - 1)
    return 1 + ops / (3 * grp.size)


def _galois_refine(grp: GroupSpec, labels: list[int], count: int) -> list[int]:
    """Refine labels by the labels of j * chi, for the unit generators j mod E,
    until the class count stops rising or every character is alone."""
    perms = [_unit_action(grp, j) for j in unit_generators(grp.exponent)] \
        if count < grp.size else []
    while perms:
        ids: dict[tuple[int, ...], int] = {}
        images = [map(labels.__getitem__, perm) for perm in perms]
        labels = [ids.setdefault(key, len(ids)) for key in zip(labels, *images)]
        if len(ids) in (count, grp.size):
            break
        count = len(ids)
    return labels


def _signature_rows(part: Partition, max_size: int = ELEMENT_GUARD) -> dict[Element, int]:
    """Class ids of the characters: equal exactly when their block sums are equal.

    Write S(chi, B) for the sum of <chi, g> over a block B, an element of
    Z[z] with z a primitive E-th root of unity, E the exponent. The sweep
    never builds S exactly. It takes the least prime p = 1 (mod E) above
    2 * |G| * c_E, where c_E is the largest coefficient of a canonical root
    power (``coefficient_bound``), and a root w of exact order E mod p. The
    map z -> w^j sends S(chi, B) to s(j * chi, B), the same block sum
    evaluated in F_p at the character j * chi. Each character first gets the
    class of its vector (s(chi, B))_B; the labels are then refined by the
    classes of j * chi for a generating set of the units j mod E until the
    class count stops rising.

    Exactness. Mod p the cyclotomic polynomial splits into distinct linear
    factors, so Z[z]/pZ[z] is F_p^phi(E) through the maps z -> w^j, j a unit.
    The canonical coefficients of S(chi, B) are at most |G| * c_E in size, so
    those of a difference of two sums are below p, and such a difference is
    zero exactly when every map z -> w^j sends it to zero. The fixed point of
    the refinement is stable under each generator, hence under every unit
    (each unit is a product of generators), and it refines the first labels.
    So two characters in one final class have s(j * chi, B) = s(j * chi', B)
    for every unit j and block B, and their exact sums are equal. Conversely
    equal exact sums stay equal under every map, so they never split. A
    class of one character cannot split again, so both the first labels and
    the refinement stop once all |G| characters are apart.

    First labels. The character 0 starts alone, and every block but the
    largest refines the labels, in block order, by the key (label, s(chi, B)).
    The largest block is skipped: the sums over all blocks add up to
    |G| * [chi = 0], so its sum is that minus the others'. Labels by
    (chi = 0, the other sums) are the labels by the whole vector: the two
    differ only if chi = 0 and chi' != 0 agreed on every sum, but their
    totals |G| and 0 differ mod p > |G|. A label is p times the rank of its
    key's first holder, so the key is label + s, and a key map lives for one
    block only. The loop stops once all characters are apart. A block's F_p
    vector (s(chi, B))_chi, in rank order, comes one of two ways:

    - Summed rows: by the symmetry of the pairing, <chi, g> over all chi is
      g's own pairing row (``_pairing_exponents``), so the vector is the sum
      of the members' rows mapped through the powers of w, about three
      scalar operations per element and member.
    - Transform: the vector is the F_p Fourier transform of B's indicator,
      taken one factor axis at a time by radix-q passes (``_transform_plan``)
      and gathered into rank order.

    Both add the same F_p terms in another order, so they give equal vectors.
    A block is summed when it has at most as many members as the transform
    costs rows (``_transform_cost``), so the cheaper way is taken per block.
    A partition into singletons has the singletons as its dual, since
    characters separate points, and is not swept. Memory stays O(|G|)
    whatever the block count, besides the transform's twiddles, at most |G|
    per pass. The refinement then costs |G| label lookups per generator and
    pass. It needs the labels of every character, so the whole character
    group is always swept.
    """
    grp = part.group
    chars = elements(grp, max_size)
    size = grp.size
    if part.num_blocks == size:
        return dict(zip(chars, range(size)))
    e = grp.exponent
    p, w = split_prime(e, 2 * size * coefficient_bound(e))
    powers = [pow(w, x % e, p) for x in range(e * max(1, len(grp.orders)))]
    cost = _transform_cost(grp)
    lowering = None
    labels, count = [0] + [p] * (size - 1), 2
    largest = max(range(part.num_blocks), key=lambda b: len(part.blocks[b]))
    for b, block in enumerate(part.blocks):
        if count == size:
            break
        if b == largest:
            continue
        if len(block) <= cost:
            rows = (itemgetter(*_pairing_exponents(grp, g))(powers) for g in block)
            values = reduce(lambda acc, row: list(map(add, acc, row)), rows)
        else:
            if lowering is None:
                plan, place = _transform_plan(grp)
                lowering, to_rank = _fp_passes(plan, powers, p), itemgetter(*place)
            values = to_rank(_run_passes(list(map(b.__eq__, part.block_of)), *lowering))
        ids: dict[int, int] = {}
        keys = map(add, labels, map(p.__rmod__, values))
        labels = list(map(ids.setdefault, keys, range(0, size * p, p)))
        count = len(ids)
    return dict(zip(chars, _galois_refine(grp, labels, count)))


def _shift_passes(plan: list[Pass], e: int, b: int) -> tuple:
    """The plan in Z/(2^n + 1) for even E or Z/(2^n - 1) for odd E, n = L * b, as
    ``_run_passes`` takes it: the root z^k is 2^(bk), a shift by b * k.

    For even E, 2^(bL) = -1 with L = E/2, so an exponent k >= L becomes the
    shift b * (k - L) and a sign: a root keeps (shift or None, negated), a
    twiddle vector (shifts, signs or None). For odd E, L = E and every sign
    is +. After a shift, y = hi * 2^n + lo with lo = y & (2^n - 1) and
    hi = y >> n (floor division, so negative values too), and 2^n = -+1 in the
    ring, so lo -+ hi is y's class: a mask, a shift and an add. Values grow by
    a few bits per pass, and only a digit with a shift reduces them.
    """
    half = e // 2 if e % 2 == 0 else e
    n, mask, fold = half * b, (1 << half * b) - 1, sub if e % 2 == 0 else add

    def root(k: int) -> tuple[Callable | None, bool]:
        return ((b * (k % half)).__rlshift__ if k % half else None), k >= half

    def twiddle(t: list[int]) -> tuple[list[int], list[int] | None]:
        shifts = [b * (k % half) for k in t]
        return shifts, ([1 - 2 * (k >= half) for k in t] if max(t) >= half else None)

    def reduced(values: Iterable[int]) -> Iterator[int]:
        v = list(values)
        return map(fold, map(mask.__and__, v), map(n.__rrshift__, v))

    def twiddled(values: Iterable[int], t: tuple) -> Iterable[int]:
        shifts, signs = t
        values = reduced(map(lshift, values, shifts))
        return values if signs is None else map(mul, values, signs)

    return _lowered(plan, root, twiddle), reduced, twiddled


def _packed_rows(part: Partition, chars: list[Element]) -> list[array]:
    """The exact block sums S(chi, B_m) of each character, packed into one row each.

    Entry m takes flat indices m * phi(E) up to (m + 1) * phi(E): the
    canonical coefficients of S(chi, B_m) in the power basis of z, a root of
    exact order E, read by ``_digit_reader`` from a value in the shift ring.
    The values of every block but the largest come by transform when its
    blocks - 1 transforms cost fewer pairing rows (``_transform_cost``) than
    there are rows, else per character:

    - Per character: the character's pairing row (``_pairing_exponents``) is
      gathered in block order and mapped through a table of the root powers,
      z^k to 2^(b (k mod L)), negated for even E when k mod E >= L (the sign
      fold of ``_shift_passes``), and each block is summed by a slice.
    - By transform: each block's indicator goes through the sweep's radix
      passes in the ring (``_run_passes`` on ``_shift_passes``).

    The largest block's value is |G| * [chi = 0] minus the others, since the
    sums over all blocks add up to that. Either way a value is P(2^b) for P
    the sum of x^<chi, g> over the block, each exponent reduced mod E and, for
    even E, folded; those steps change P by multiples of x^E - 1 and x^L + 1,
    so P mod Phi_E is S(chi, B) in canonical form. S(chi, B) sums |B| root
    powers: R = |B| * c_E, for the largest block, bounds every entry.
    """
    grp = part.group
    e, size = grp.exponent, grp.size
    b, read = _digit_reader(e, max(map(len, part.blocks)), "the Krawtchouk rows need")
    largest = max(range(part.num_blocks), key=lambda m: len(part.blocks[m]))
    others = [m for m in range(part.num_blocks) if m != largest]
    if (part.num_blocks - 1) * _transform_cost(grp) < len(chars):
        plan, place = _transform_plan(grp)
        lowering = _shift_passes(plan, e, b)
        at = [place[grp.rank(chi)] for chi in chars]
        cols = [list(map(_run_passes(list(map(m.__eq__, part.block_of)), *lowering).__getitem__, at))
                for m in others]
        sums: Iterable[tuple] = zip(chars, *cols)
    else:
        half = e // 2 if e % 2 == 0 else e
        root = [(1 - 2 * (k >= half)) << b * (k % half) for k in range(e)] * max(1, len(grp.orders))
        ranks = sorted(compress(range(size), map(largest.__ne__, part.block_of)),
                       key=part.block_of.__getitem__)
        ends = list(accumulate(len(part.blocks[m]) for m in others))
        spans = list(map(slice, [0] + ends[:-1], ends))

        def block_sums(chi: Element) -> tuple:
            values = list(map(root.__getitem__, map(_pairing_exponents(grp, chi).__getitem__, ranks)))
            return (chi, *map(sum, map(values.__getitem__, spans)))

        sums = map(block_sums, chars)
    out = []
    for chi, *entries in sums:
        entries.insert(largest, size * (chi == grp.zero) - sum(entries))
        out.append(read(entries))
    return out


def fourier_transform(group: GroupSpec, f: Mapping[Element, CycInt | int],
                      max_size: int = ELEMENT_GUARD) -> dict[Element, CycInt]:
    """Character sums chi -> sum_g <chi, g> f(g), exactly.

    Each value f(g), made canonical at the exponent E by adding it to zero
    (which refuses another root order), enters the shift ring as c_g(2^b).
    One run of the sweep's radix passes (``_run_passes`` on ``_shift_passes``)
    transforms them all, and one ``_digit_reader`` reads every sum. The sum at
    chi is P(2^b) for P = sum over g of x^<chi, g> * c_g(x), a sum of
    r = sum over g of ||c_g||_1 signed root powers, so R = r * c_E.
    """
    e = group.exponent
    els = elements(group, max_size)
    polys = [(zero(e) + f[g]).coeffs for g in els]
    b, read = _digit_reader(e, sum(sum(map(abs, c)) for c in polys), "the Fourier transform needs")
    plan, place = _transform_plan(group)
    values = _run_passes([_evaluate(cs, b) for cs in polys], *_shift_passes(plan, e, b))
    digits, phi = read(map(values.__getitem__, place)), euler_phi(e)
    return {chi: CycInt(e, tuple(digits[r * phi:(r + 1) * phi])) for r, chi in enumerate(els)}


class KrawtchoukMatrix(NamedTuple):
    """Block-sum matrix of a primal/character partition pair.

    Rows follow the character-side blocks, columns the primal blocks; the
    entry at (l, m) is the sum of <chi, g> over g in primal block m, for any
    chi in character block l (``krawtchouk`` checks, for every character, that
    the character partition refines the dual, so the sum is the same for all).
    Each row is one signed ``array`` of canonical coefficients at root order
    ``order``: entry m is ``row[m * phi:(m + 1) * phi]``, phi = phi(order).
    The two partitions are kept whole, so the writer prints their blocks from
    their labels.
    """

    order: int
    rows: tuple[array, ...]
    row_part: Partition
    col_part: Partition

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.col_part.num_blocks)

    @property
    def _rational(self) -> bool:
        """Whether every entry is rational: zero past its constant coefficient."""
        phi = euler_phi(self.order)
        return not any(any(row[k::phi]) for row in self.rows for k in range(1, phi))

    def integer_entries(self) -> tuple[tuple[int, ...], ...]:
        """All entries as plain integers; fails if any entry is irrational."""
        if not self._rational:
            raise VerificationFailure("matrix has an irrational entry")
        return tuple(tuple(row[::euler_phi(self.order)]) for row in self.rows)


def dual_partition(part: Partition, max_size: int = ELEMENT_GUARD) -> Partition:
    """Partition of the character carrier by equality of block-sum vectors.

    One signature sweep makes it on first use, and it is kept on the
    partition object, so the dual, bidual, reflexivity test and Krawtchouk
    matrices of one object share that sweep. P** refines P and has |P*|
    blocks, so |P*| = |P| forces P** = P: the dual of a reflexive partition
    is given a fresh copy of the partition as its own dual, and the bidual
    costs no sweep. No partition refers back to itself, so a kept dual is
    freed with its partition by reference counting alone.
    """
    elements(part.group, max_size)  # the guard holds for a kept dual too
    if part._dual is None:
        rows = _signature_rows(part, max_size=max_size)  # in rank order
        dual = Partition.from_labels(part.group, rows.values())
        if dual.num_blocks == part.num_blocks:
            dual._dual = Partition(part.group, part.block_of, part.num_blocks)
        part._dual = dual
    return part._dual


def bidual(part: Partition, max_size: int = ELEMENT_GUARD) -> Partition:
    """Dual of the dual, read back on the original carrier.

    The pairing is symmetric, so no pullback bookkeeping is needed: the
    second dual lands on the same residue-tuple carrier. A reflexive
    partition is swept once.
    """
    return dual_partition(dual_partition(part, max_size), max_size)


def is_reflexive(part: Partition, max_size: int = ELEMENT_GUARD) -> bool:
    """True when the bidual equals the partition itself.

    Equivalent, and implemented as, the block-count test: the partition is
    reflexive exactly when its dual has the same number of blocks.
    """
    return dual_partition(part, max_size).num_blocks == part.num_blocks


# ---------------------------------------------------------------------------
# Krawtchouk matrices


def krawtchouk(part: Partition, char_part: Partition, max_size: int = ELEMENT_GUARD,
               max_entries: int = MATRIX_GUARD) -> KrawtchoukMatrix:
    """Krawtchouk matrix of a partition and a compatible character partition.

    ``char_part`` must refine the dual of ``part`` so that block sums are
    constant on each of its blocks. The partition's one sweep checks that
    for every character, on every carrier; then one exact row is built per
    character block. On failure the message names two characters of one
    character block that lie in different dual blocks, and the first primal
    block whose sums differ. The guards come before the sweep: first the
    element guard, then the matrix's coefficient count, rows x columns x
    phi(E), against ``max_entries``.
    """
    elements(part.group, max_size)
    _matrix_guard(char_part.num_blocks, part, max_entries, "")
    dual = dual_partition(part, max_size)
    if not refines(char_part, dual):
        raise VerificationFailure(_split_message(part, dual, char_part))
    rows = _packed_rows(part, [block[0] for block in char_part.blocks])
    return KrawtchoukMatrix(part.group.exponent, tuple(rows), char_part, part)


def _matrix_guard(rows: int, part: Partition, max_entries: int, least: str) -> None:
    """``GuardExceeded`` when rows x blocks entries of phi(E) coefficients pass
    ``max_entries``; ``least`` opens a lower bound on rows, as a dual's blocks
    (|P*| >= |P|) that ``dual`` and ``macwilliams`` check before the sweep."""
    cols, phi = part.num_blocks, euler_phi(part.group.exponent)
    if rows * cols * phi > max_entries:
        raise GuardExceeded(
            f"the Krawtchouk matrix needs {least}{rows} x {cols} entries of {phi} coefficients, "
            f"{rows * cols * phi} in all, above the matrix guard of {max_entries} "
            f"(--max-matrix)")


def _split_message(part: Partition, dual: Partition, char_part: Partition) -> str:
    rank, dual_of = char_part.group.rank, dual.block_of
    i, a, b = next((i, blk[0], chi) for i, blk in enumerate(char_part.blocks)
                   for chi in blk[1:] if dual_of[rank(chi)] != dual_of[rank(blk[0])])
    x, y = _packed_rows(part, [a, b])
    m = next(j for j, (u, v) in enumerate(zip(x, y)) if u != v) // euler_phi(part.group.exponent)
    return (f"character block {i} holds {a} and {b}, whose sums first differ on "
            f"primal block {m}; the character partition does not refine the dual")


# ---------------------------------------------------------------------------
# the refinement lattice


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every block of the first partition sits inside a block of the second,
    that is, when their meet has as many blocks as the first."""
    if finer.group != coarser.group:
        raise InputError("partitions on different carriers are not comparable")
    return len(set(zip(finer.block_of, coarser.block_of))) == finer.num_blocks


def meet(a: Partition, b: Partition) -> Partition:
    """Coarsest common refinement: blockwise intersections."""
    if a.group != b.group:
        raise InputError("partitions on different carriers have no meet")
    return Partition.from_labels(a.group, zip(a.block_of, b.block_of))


def join(a: Partition, b: Partition) -> Partition:
    """Finest common coarsening, by union-find over the blocks of both partitions.

    The nodes are a's blocks, then b's; each distinct label pair an element
    has links its two blocks, and an element's join block is the root of its
    block in a.
    """
    if a.group != b.group:
        raise InputError("partitions on different carriers have no join")
    parent = list(range(a.num_blocks + b.num_blocks))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in set(zip(a.block_of, b.block_of)):
        parent[find(a.num_blocks + j)] = find(i)
    roots = [find(i) for i in range(a.num_blocks)]
    return Partition.from_labels(a.group, map(roots.__getitem__, a.block_of))


def negate(part: Partition) -> Partition:
    """Image of the partition under elementwise negation: g joins the block of -g."""
    grp, block_of = part.group, part.block_of
    return Partition.from_labels(
        grp, (block_of[grp.rank(grp.neg(g))] for g in elements(grp, grp.size)))


def mismatch_witness(a: Partition, b: Partition) -> tuple[Element, Element] | None:
    """None if the partitions are equal, else a pair split by exactly one of them."""
    if a.group != b.group:
        raise InputError("partitions on different carriers cannot be compared")
    if a == b:
        return None
    # blocks are canonical tuples, so they are equal exactly when their sets are
    for g, i, j in zip(elements(a.group, a.group.size), a.block_of, b.block_of):
        if a.blocks[i] != b.blocks[j]:
            return (g, min(set(a.blocks[i]).symmetric_difference(b.blocks[j])))
    raise AssertionError("unequal partitions must disagree somewhere")


# ---------------------------------------------------------------------------
# sampling and exhaustive enumeration (oracle support)


def random_partition(
    group: GroupSpec, rng: random.Random, zero_block: bool = False,
    max_size: int = ELEMENT_GUARD,
) -> Partition:
    """A uniform-ish random partition: random urn assignment, empties dropped.

    With ``zero_block`` the zero element, the first in rank order, gets an
    urn of its own.
    """
    n = len(elements(group, max_size)) - int(zero_block)
    k = rng.randint(1, n) if n else 0
    urns = [rng.randrange(k) for _ in range(n)]
    return Partition.from_labels(group, [-1] * int(zero_block) + urns)


def random_reflexive_partition(group: GroupSpec, rng: random.Random,
                               max_size: int = ELEMENT_GUARD) -> Partition:
    """A random reflexive partition: a random one, replaced by its bidual until fixed.

    Every bidual refines its input (``check_dual_order_properties`` checks
    this), so each pass that changes the partition raises its block count.
    The count cannot pass the carrier size, so the iteration stops, and it
    stops only at a partition equal to its own bidual, which is reflexive.
    """
    part = random_partition(group, rng, max_size=max_size)
    while (nxt := bidual(part, max_size)) != part:
        part = nxt
    return part


def all_partitions(group: GroupSpec, max_size: int = 12) -> Iterator[Partition]:
    """Every set partition of the carrier; feasible only for tiny groups."""
    if group.size > max_size:
        raise GuardExceeded(
            f"exhaustive partition enumeration guarded at carrier size {max_size}"
        )

    def rec(first: int) -> Iterator[list[int]]:
        # labels of the ranks from first on; the element at first opens
        # block 0 (the others shift up) or joins each block in turn
        if first == group.size:
            yield []
            return
        for sub in rec(first + 1):
            yield [0] + [x + 1 for x in sub]
            for i in range(max(sub, default=-1) + 1):
                yield [i] + sub

    for labels in rec(0):
        yield Partition.from_labels(group, labels)
