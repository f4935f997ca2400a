"""Finite abelian groups presented as explicit products of cyclic groups.

Elements are reduced residue tuples, ordered lexicographically. The character
group is realized on the same carrier: the tuple c pairs with the element g
through the exponent sum((E // n_i) * c_i * g_i) mod E of a primitive E-th
root of unity, where E is the group exponent. The pairing is symmetric, so
double duals land back on the original carrier with no extra bookkeeping.
This is one concrete identification of the group with its characters; biduals
do not depend on it, single duals may: another identification gives the dual
relabelled by an automorphism of the carrier.

This module owns the pairing: ``pairing_exponent`` gives one exponent, and
``_pairing_exponents`` one character's row over the carrier, which
``partition`` reads. The Fourier transform lives in ``partition``, next to
the radix passes it runs on.

Subgroups are closed on packed words (``_words``): each element is one int,
two words add slotwise with no per-coordinate loop, and words order as the
tuples do. ``generate``, ``dual_code`` and ``all_subgroups`` all close
through ``_close`` and ``_greedy_generators`` on that add, and turn words
back into tuples once, in sorted order (``all_subgroups`` takes the
carrier's own tuples). ``dual_code`` never lists the carrier: it closes
generators of the annihilator read off the integer kernel of the pairing.

The factor list is kept verbatim: carriers with the same abstract group but
different factorizations (say orders (6,) and (2, 3)) are distinct here.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple
from functools import lru_cache, partial, reduce
from operator import add, itemgetter, mod, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .cyclotomic import _close, _greedy_generators
from .errors import GuardExceeded, InputError, VerificationFailure, count_text

Element = tuple[int, ...]

ELEMENT_GUARD = 4096
SUBGROUP_GUARD = 64


def _brief(values: tuple[int, ...]) -> str:
    """A tuple as Python prints it, cut to its first four entries when it is longer."""
    if len(values) <= 4:
        return str(values)
    return f"({', '.join(map(str, values[:4]))}, ... {len(values)} entries)"


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as ints; a float, a string or any other non-integer is an input error."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise InputError(f"{what} must be integers: {exc}") from None


class GroupSpec(namedtuple("GroupSpec", "orders")):
    """A finite abelian group given by the orders of its cyclic factors."""

    __slots__ = ()

    def __new__(cls, orders: Iterable[int]) -> "GroupSpec":
        orders = _integers(orders, "cyclic orders")
        if any(n < 2 for n in orders):
            raise InputError("every cyclic order must be at least 2")
        return tuple.__new__(cls, (orders,))

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders) if self.orders else 1

    @property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def validate(self, g: Iterable[int]) -> Element:
        t = _integers(g, "element coordinates")
        if len(t) != len(self.orders):
            raise InputError(f"element {_brief(t)} has {len(t)} coordinates, but the carrier "
                             f"has {len(self.orders)} factors, orders {_brief(self.orders)}")
        for i, (x, n) in enumerate(zip(t, self.orders)):
            if not 0 <= x < n:
                raise InputError(f"element {_brief(t)} out of range for orders "
                                 f"{_brief(self.orders)}: coordinate {i} is {x}, order {n}")
        return t

    def add(self, a: Element, b: Element) -> Element:
        return tuple(map(mod, map(add, a, b), self.orders))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def rank(self, g: Element) -> int:
        """Row-major position of g in the lexicographic element order."""
        i = 0
        for x, n in zip(g, self.orders):
            i = i * n + x
        return i


ELEMENTS_CACHE = 8
"""Most carriers whose element lists, and whose packed-word codecs, are kept at once."""


@lru_cache(maxsize=ELEMENTS_CACHE)
def _elements(group: GroupSpec) -> tuple[Element, ...]:
    return tuple(itertools.product(*(range(n) for n in group.orders)))


def _guard(group: GroupSpec, max_size: int) -> None:
    """``GuardExceeded`` when the carrier has more than ``max_size`` elements."""
    if group.size > max_size:
        raise GuardExceeded(
            f"carrier has {count_text(group.size)} elements, above the guard of {max_size}"
        )


def elements(group: GroupSpec, max_size: int = ELEMENT_GUARD) -> tuple[Element, ...]:
    """All elements in lexicographic order, guarded by carrier size."""
    _guard(group, max_size)
    return _elements(group)


def pairing_exponent(group: GroupSpec, chi: Element, g: Element) -> int:
    """Exponent e with <chi, g> equal to the e-th power of the E-th root."""
    e = group.exponent
    if len(chi) != len(g) or len(g) != len(group.orders):
        raise InputError("character and element must match the factor count")
    return sum((e // n) * c * x for n, c, x in zip(group.orders, chi, g)) % e


def _outer(a: list, b: list) -> list:
    """[x + y for x in a for y in b], with a Python loop over the shorter operand.

    Each sum keeps x on the left, so lists of strings give the concatenations
    in rank order too.
    """
    n = len(b)
    out = [0] * (len(a) * n)
    if len(a) < n:
        for i, x in enumerate(a):
            out[i * n:(i + 1) * n] = map(add, itertools.repeat(x), b)
    else:
        for j, y in enumerate(b):
            out[j::n] = map(add, a, itertools.repeat(y))
    return out


def _column(e: int, n: int, c: int) -> list[int]:
    """Pairing exponents of the residue c with 0, ..., n - 1 in a factor of order n."""
    step = e // n * c
    return [x % e for x in range(0, step * n, step)] if step else [0] * n


def _pairing_exponents(grp: GroupSpec, chi: Element) -> list[int]:
    """Exponents of <chi, g> for every element g, in rank order.

    The factors are added one at a time: |G| additions, with a Python loop
    over the shorter of the two operands of each step. Entry r is congruent
    mod E to the exponent at the element of rank r and lies below
    len(orders) * E: each factor adds its own reduced term.
    """
    e = grp.exponent
    cols = [_column(e, n, c) for n, c in zip(grp.orders, chi)]
    return reduce(_outer, cols[1:], cols[0]) if cols else [0]


# ---------------------------------------------------------------------------
# additive codes (subgroups of the carrier)


@lru_cache(maxsize=ELEMENTS_CACHE)
def _words(group: GroupSpec) -> tuple[Callable[[Element], int],
                                      Callable[[Sequence[int]], tuple[Element, ...]],
                                      Callable[[int, int], int]]:
    """The packed word of an element, the elements of a list of words, and the
    slotwise add of two words.

    Let s be the least multiple of 8 with 2^(s-1) >= 2 * max n_j. The word of g
    is sum_j g_j * 2^(s(m-1-j)): slot 0 is the most significant, so words
    compare as the tuples do, and the sorted words are the sorted elements.

    Adding words is exact. In c = a + b slot j holds a_j + b_j < 2 n_j <=
    2^(s-1), so no slot carries into the next. ``k`` holds 2^(s-1) - n_j in
    slot j, and c + k stays below 2^(s-1) + n_j < 2^s in every slot, so bit
    s - 1 of slot j is set exactly when a_j + b_j >= n_j. Those flags, moved
    to the low bit of their slots (``ones``), times 2^s - 1 fill their slots,
    and masked by ``nvec`` (n_j in slot j) they are the n_j to subtract:
    every slot ends in [0, n_j), with no borrow.

    Each word is read back with one ``to_bytes``: at s = 8 its big-endian
    bytes are the coordinates, so the words' bytes are joined and cut into
    m-tuples at once; wider slots are read one at a time.
    """
    orders, m = group.orders, len(group.orders)
    s = 8
    while 1 << (s - 1) < 2 * max(orders, default=1):
        s += 8
    shifts = [s * (m - 1 - j) for j in range(m)]
    k = sum(((1 << (s - 1)) - n) << sh for n, sh in zip(orders, shifts))
    nvec = sum(n << sh for n, sh in zip(orders, shifts))
    ones = sum(1 << sh for sh in shifts)
    top, full, width = s - 1, (1 << s) - 1, s // 8

    def add(a: int, b: int) -> int:
        c = a + b
        return c - (((c + k) >> top & ones) * full & nvec)

    def word(g: Element) -> int:
        if width == 1:
            return int.from_bytes(bytes(g), "big")
        return reduce(lambda w, x: w << s | x, g, 0)

    def unpack(words: Sequence[int]) -> tuple[Element, ...]:
        if not m:
            return ((),) * len(words)
        data = map(int.to_bytes, words, itertools.repeat(m * width), itertools.repeat("big"))
        if width == 1:
            return tuple(zip(*[iter(b"".join(data))] * m))
        cuts = range(0, m * width, width)
        return tuple(tuple(int.from_bytes(d[i:i + width], "big") for i in cuts) for d in data)
    return word, unpack, add


class Code(NamedTuple):
    """An additive code: a subgroup of the carrier, with its full element list."""

    group: GroupSpec
    generators: tuple[Element, ...]
    elements: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def generate(group: GroupSpec, gens: Iterable[Element]) -> Code:
    """Additive closure of the given generators, which the code keeps as given."""
    gen_list = [group.validate(g) for g in gens]
    word, unpack, add = _words(group)
    span = reduce(partial(_close, add), map(word, gen_list), {0})
    return Code(group, tuple(gen_list), unpack(sorted(span)))


def _annihilator_generators(group: GroupSpec, gens: Iterable[Element]) -> list[Element]:
    """Elements that generate the annihilator of the span of ``gens``.

    With A_ij = (E / n_j) * g_i[j] mod E, an element h pairs to 1 with every
    g_i exactly when A h = 0 mod E. So the annihilator is L / N, for the
    lattice L of such h in Z^m, which holds N = (+) n_j Z. L is the h part of
    the integer kernel of [A | -E I_k] (Cohen, GTM 138, section 2.4), found
    here by unimodular column operations one row at a time, with each h part
    kept reduced mod N, as an element of the carrier.

    Before row i, the m columns kept generate the elements that pair to 1
    with g_1, ..., g_(i-1); they start as the unit vectors. Row i brings its
    column -E e_i, with h part 0. A kept column's entry in row i is read as
    a_i . h mod E, which adds a multiple of -E e_i to it; that entry is the
    same for every h in one class mod N. Euclid on these m + 1 entries (signs
    do not matter) leaves one column holding their gcd, the pivot of row i,
    which is dropped, and m columns with entry 0. They generate every member
    x of the span with a_i . x = 0 mod E: x is the h part of a combination
    of the columns whose entry is a multiple of E, and adding that multiple
    of the column -E e_i makes it 0, a combination of the m columns alone.
    """
    orders, e = group.orders, group.exponent
    m = len(orders)
    basis = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    for g in gens:
        row = [e // n * x % e for n, x in zip(orders, g)]
        kernel, live = [], [(e, (0,) * m)]
        for h in basis:
            v = sum(map(mul, row, h)) % e
            if v:
                live.append((v, h))
            else:
                kernel.append(h)
        while len(live) > 1:
            live.sort(key=itemgetter(0))
            (p, hp), *rest = live
            live = [(p, hp)]
            for v, h in rest:
                q, r = divmod(v, p)
                h = tuple((x - q * y) % n for x, y, n in zip(h, hp, orders))
                if r:
                    live.append((r, h))
                else:
                    kernel.append(h)
        basis = kernel
    return basis


def dual_code(group: GroupSpec, code: Code, max_size: int = ELEMENT_GUARD) -> Code:
    """Annihilator of the code under the pairing, on the same carrier.

    Its generators come from the integer kernel of the pairing of the code's
    generators (``_annihilator_generators``); only their span is closed, and
    the carrier is never listed. |C| * |C-perp| = |G| is checked.
    """
    if code.group != group:
        raise InputError("the code must lie on the given carrier")
    _guard(group, max_size)
    word, unpack, add = _words(group)
    span = sorted(reduce(partial(_close, add), map(word, _annihilator_generators(
        group, code.generators)), {0}))
    if code.size * len(span) != group.size:
        raise VerificationFailure(
            f"the annihilator has {len(span)} elements, but |G| / |C| = {group.size} / {code.size}")
    return Code(group, unpack(_greedy_generators(add, 0, span)), unpack(span))


def all_subgroups(group: GroupSpec, max_size: int = SUBGROUP_GUARD) -> tuple[Code, ...]:
    """Every subgroup of the carrier, each exactly once, smallest first.

    Grown depth first from {0} by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998). A subgroup S with greedy
    generators g_1 < ... < g_j (each least outside the span of those before)
    spawns T = <S, x> for each x > g_j outside S with x = min(T - S). Then
    T - S lies above each g_i, so T's greedy generators are g_1, ..., g_j, x,
    and its only parent is the span of all but the last: each subgroup comes
    once, with its generators. Elements are packed words, which order as the
    tuples do.
    """
    if group.size > max_size:
        raise GuardExceeded(
            f"subgroup enumeration guarded at carrier size {max_size}, "
            f"got {count_text(group.size)}"
        )
    word, _, add = _words(group)
    carrier = elements(group)
    els = list(map(word, carrier))
    element = dict(zip(els, carrier)).__getitem__  # every code shares the carrier's tuples

    def grow(gens: tuple[int, ...], start: int, sub: set[int]) -> Iterator[Code]:
        yield Code(group, tuple(map(element, gens)), tuple(map(element, sorted(sub))))
        for i in range(start, len(els)):
            x = els[i]
            # the cosets t*x + sub of <sub, x> one at a time: x goes at the first member below it
            cosets = itertools.takewhile(lambda c: c not in sub,
                                         itertools.accumulate(itertools.repeat(x), add))
            if x not in sub and all(x <= add(h, c) for c in cosets for h in sub):
                yield from grow(gens + (x,), i + 1, _close(add, sub, x))
    return tuple(sorted(grow((), 1, {0}), key=lambda c: (c.size, c.elements)))
