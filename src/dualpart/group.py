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
``dual_code`` and ``partition`` read. The Fourier transform lives in
``partition``, next to the radix passes it runs on.

The factor list is kept verbatim: carriers with the same abstract group but
different factorizations (say orders (6,) and (2, 3)) are distinct here.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import add, mod
from typing import Iterable, Iterator

from .cyclotomic import CycInt, _close, _greedy_generators, zeta_pow
from .errors import GuardExceeded, InputError, count_text

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


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given by the orders of its cyclic factors."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = _integers(self.orders, "cyclic orders")
        if any(n < 2 for n in orders):
            raise InputError("every cyclic order must be at least 2")
        object.__setattr__(self, "orders", orders)

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

    def unrank(self, i: int) -> Element:
        out = []
        for n in reversed(self.orders):
            out.append(i % n)
            i //= n
        return tuple(reversed(out))


ELEMENTS_CACHE = 8
"""Most carriers whose element lists are kept at once."""


@lru_cache(maxsize=ELEMENTS_CACHE)
def _elements(group: GroupSpec) -> tuple[Element, ...]:
    return tuple(itertools.product(*(range(n) for n in group.orders)))


def elements(group: GroupSpec, max_size: int = ELEMENT_GUARD) -> tuple[Element, ...]:
    """All elements in lexicographic order, guarded by carrier size."""
    if group.size > max_size:
        raise GuardExceeded(
            f"carrier has {count_text(group.size)} elements, above the guard of {max_size}"
        )
    return _elements(group)


def pairing_exponent(group: GroupSpec, chi: Element, g: Element) -> int:
    """Exponent e with <chi, g> equal to the e-th power of the E-th root."""
    e = group.exponent
    if len(chi) != len(g) or len(g) != len(group.orders):
        raise InputError("character and element must match the factor count")
    return sum((e // n) * c * x for n, c, x in zip(group.orders, chi, g)) % e


def pairing(group: GroupSpec, chi: Element, g: Element) -> CycInt:
    """Character value <chi, g> as an exact cyclotomic integer."""
    return zeta_pow(group.exponent, pairing_exponent(group, chi, g))


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


@dataclass(frozen=True)
class Code:
    """An additive code: a subgroup of the carrier, with its full element list."""

    group: GroupSpec
    generators: tuple[Element, ...]
    elements: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    @classmethod
    def from_elements(cls, group: GroupSpec, members: Iterable[Element]) -> "Code":
        """The code with exactly these members; fails unless they form a subgroup.

        Closure is tested against the greedy generators only, which is exact:
        members that hold 0 and are closed under adding each generator contain
        the span of the generators, and that span contains every member, since
        each member is a generator or already in the span when it is met.
        """
        elems = tuple(sorted({group.validate(g) for g in members}))
        if not elems or group.zero not in elems:
            raise InputError("a code must contain the zero element")
        gens = _greedy_generators(group.add, group.zero, elems)
        eset = set(elems)
        for g in gens:
            for a in elems:
                if group.add(a, g) not in eset:
                    raise InputError(f"not closed under addition: {a} + {g}")
        return cls(group, gens, elems)


def generate(group: GroupSpec, gens: Iterable[Element]) -> Code:
    """Additive closure of the given generators, which the code keeps as given."""
    gen_list = [group.validate(g) for g in gens]
    span = reduce(partial(_close, group.add), gen_list, {group.zero})
    return Code(group, tuple(gen_list), tuple(sorted(span)))


def dual_code(group: GroupSpec, code: Code, max_size: int = ELEMENT_GUARD) -> Code:
    """Annihilator of the code under the pairing, on the same carrier.

    Bilinearity lets the membership test run against the generators only:
    the ranks kept are those at which every generator's pairing row is 0
    mod E. Ranks stay ascending, so the members are in sorted order already.
    """
    if code.group != group:
        raise InputError("the code must lie on the given carrier")
    e = group.exponent
    els = elements(group, max_size)
    ranks: Iterable[int] = range(group.size)
    for h in code.generators:
        row = _pairing_exponents(group, h)
        ranks = [r for r in ranks if not row[r] % e]
    members = tuple(map(els.__getitem__, ranks))
    return Code(group, _greedy_generators(group.add, group.zero, members), members)


def all_subgroups(group: GroupSpec, max_size: int = SUBGROUP_GUARD) -> tuple[Code, ...]:
    """Every subgroup of the carrier, each exactly once, smallest first.

    Grown depth first from {0} by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998). A subgroup S with greedy
    generators g_1 < ... < g_j (each least outside the span of those before)
    spawns T = <S, x> for each x > g_j outside S with x = min(T - S). Then
    T - S lies above each g_i, so T's greedy generators are g_1, ..., g_j, x,
    and its only parent is the span of all but the last: each subgroup comes
    once, with its generators.
    """
    if group.size > max_size:
        raise GuardExceeded(
            f"subgroup enumeration guarded at carrier size {max_size}, "
            f"got {count_text(group.size)}"
        )
    els = elements(group)
    def grow(gens: tuple[Element, ...], sub: set[Element]) -> Iterator[Code]:
        yield Code(group, gens, tuple(sorted(sub)))
        for x in els[group.rank(gens[-1]) + 1 if gens else 1:]:
            # the cosets t*x + sub of <sub, x> one at a time: x goes at the first member below it
            cosets = itertools.takewhile(lambda c: c not in sub,
                                         itertools.accumulate(itertools.repeat(x), group.add))
            if x not in sub and all(x <= group.add(h, c) for c in cosets for h in sub):
                yield from grow(gens + (x,), _close(group.add, sub, x))
    return tuple(sorted(grow((), {group.zero}), key=lambda c: (c.size, c.elements)))
