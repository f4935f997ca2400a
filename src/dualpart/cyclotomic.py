"""Exact arithmetic with cyclotomic integers.

A value of root order E is stored as its canonical residue modulo the E-th
cyclotomic polynomial, with arbitrary-precision integer coefficients in the
power basis 1, z, ..., z^(phi(E)-1). Sums of roots of unity therefore compare
by plain tuple equality; no floating point enters any computation. Values are
immutable, and the polynomial cache fills on demand.

A value is also one int: Q(2^b) for an integer polynomial Q (Kronecker
substitution, Schoenhage and Strassen, Computing 7, 1971), whose centered
residue mod N = Phi_E(2^b) has the canonical coefficients as base-2^b digits.
``_kronecker`` gives b and N and the exactness argument, for ``CycInt``
products and reductions, the Krawtchouk rows, ``fourier_transform`` and the
four transforms of ``enumerator``.

The module also holds what exact evaluation modulo a prime needs: sparse
canonical rows of the root powers, their largest coefficient c_E, a prime
p = 1 (mod E) with a root of exact order E, and generators of the units
mod E.
"""

from __future__ import annotations

import cmath
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import count, repeat
from math import gcd, prod
from operator import lshift
from typing import Callable, Iterable, TypeVar

from .errors import GuardExceeded, InputError

T = TypeVar("T")

CycPoly = tuple[int, ...]
"""Dense integer polynomial, coefficients ascending by degree."""

ORDER_CACHE = 256
"""Most root orders whose cyclotomic polynomial and totient are kept at once."""

ZETA_TABLE_CACHE = 8
"""Most root orders whose power tables are kept at once."""


def _poly_divmod(num: CycPoly, den: CycPoly) -> tuple[CycPoly, CycPoly]:
    """Quotient and the len(den) - 1 remainder coefficients of long division by a monic den."""
    r = list(num)
    dlen = len(den)
    q = [0] * (len(r) - dlen + 1)
    for i in range(len(r) - 1, dlen - 2, -1):
        c = r[i]
        if c:
            off = i - dlen + 1
            q[off] = c
            for j in range(dlen):
                r[off + j] -= c * den[j]
    return tuple(q), tuple(r[: dlen - 1])


def _stretch(poly: CycPoly, k: int) -> CycPoly:
    """poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return tuple(out)


@lru_cache(maxsize=ORDER_CACHE)
def cyclotomic_polynomial(order: int) -> CycPoly:
    """Monic cyclotomic polynomial of the given root order.

    Built over the integers from the squarefree radical r of the order: from
    Phi_1 = x - 1, each prime p of r, not dividing the m reached so far, gives
    Phi_mp(x) = Phi_m(x^p) / Phi_m(x), an exact division. Then Phi_n(x) =
    Phi_r(x^(n/r)), since every prime of n/r divides r.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if order < 1:
        raise InputError("root order must be a positive integer")
    poly: CycPoly = (-1, 1)
    primes = set(_radices(order))
    for p in primes:
        poly, rem = _poly_divmod(_stretch(poly, p), poly)
        if any(rem):
            raise ArithmeticError("polynomial division was not exact")
    return _stretch(poly, order // prod(primes))


@lru_cache(maxsize=ORDER_CACHE)
def euler_phi(order: int) -> int:
    """Euler totient, from the prime factors: a guard reads it without the polynomial."""
    if order < 1:
        raise InputError("root order must be a positive integer")
    return reduce(lambda phi, q: phi - phi // q, set(_radices(order)), order)


@dataclass(frozen=True)
class CycInt:
    """Canonical residue of an integer polynomial in a primitive root of unity.

    Construction reduces the coefficient vector modulo the cyclotomic
    polynomial of ``order`` and pads it to length phi(order), so equal values
    always have equal field tuples. Re-reducing a canonical value is a no-op.
    The order and every coefficient must be ``int``s; ``bool`` is refused too.

    >>> CycInt(6, (0, 0, 0, 1))            # z^3 = -1 at order 6
    CycInt(order=6, coeffs=(-1, 0))
    >>> zeta_pow(6, 1) + zeta_pow(6, 5)    # z + z^5 = 1
    CycInt(order=6, coeffs=(1, 0))
    """

    order: int
    coeffs: CycPoly

    def __post_init__(self) -> None:
        if type(self.order) is not int or self.order < 1:
            raise InputError("root order must be a positive integer")
        coeffs = self.coeffs
        if not {int}.issuperset(map(type, coeffs)):
            raise InputError("coefficients must be integers")
        phi = euler_phi(self.order)
        if len(coeffs) > phi:
            coeffs = _reduced(self.order, sum(map(abs, coeffs)), coeffs)
        if len(coeffs) < phi:
            coeffs = tuple(coeffs) + (0,) * (phi - len(coeffs))
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def _coerce(self, other: "CycInt | int") -> "CycInt":
        if isinstance(other, int):
            return CycInt(self.order, (other,))
        if not isinstance(other, CycInt):
            raise InputError(f"cannot combine CycInt with {type(other).__name__}")
        if other.order != self.order:
            raise InputError(
                f"mixed root orders {self.order} and {other.order}; "
                "lift with change_order first"
            )
        return other

    def __add__(self, other: "CycInt | int") -> "CycInt":
        o = self._coerce(other)
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CycInt | int") -> "CycInt":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "CycInt | int") -> "CycInt":
        return (-self) + other

    def __mul__(self, other: "CycInt | int") -> "CycInt":
        o = self._coerce(other)
        r = sum(map(abs, self.coeffs)) * sum(map(abs, o.coeffs))
        return CycInt(self.order, _reduced(self.order, r, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def conjugate(self) -> "CycInt":
        """Complex conjugate, via the substitution z^i -> z^(order - i): c_i moves to order - i."""
        c = self.coeffs
        return CycInt(self.order, c[:1] + (0,) * (self.order - len(c)) + c[:0:-1])

    def change_order(self, new_order: int) -> "CycInt":
        """Re-express the value at a root order that the current one divides."""
        if new_order % self.order != 0:
            raise InputError(
                f"target order {new_order} is not a multiple of {self.order}"
            )
        return CycInt(new_order, _stretch(self.coeffs, new_order // self.order))


def integer(order: int, value: int) -> CycInt:
    """The rational integer ``value`` viewed at the given root order."""
    return CycInt(order, (value,))


def zero(order: int) -> CycInt:
    return CycInt(order, (0,))


def one(order: int) -> CycInt:
    return CycInt(order, (1,))


def zeta_pow(order: int, k: int) -> CycInt:
    """The k-th power of the primitive root of unity of the given order.

    >>> zeta_pow(4, 2)
    CycInt(order=4, coeffs=(-1, 0))
    >>> zeta_pow(4, 1).conjugate() == zeta_pow(4, 3)
    True
    """
    k %= order
    return CycInt(order, (0,) * k + (1,))


@lru_cache(maxsize=ZETA_TABLE_CACHE)
def zeta_coeff_table(order: int) -> tuple[tuple[array, array], ...]:
    """Sparse canonical coefficient rows of all powers of the primitive root.

    Row k is a pair of arrays (indices, coefficients): the nonzero power-basis
    coefficients of z^k. Reduction modulo the cyclotomic polynomial is
    Z-linear, so an exact sum of roots of unity is the sum of their rows and
    is canonical without further reduction. A row of a power of 2 has one
    nonzero entry and a row of a power of 3 at most two, against phi(order)
    dense entries. The rows follow x^k = x * x^(k-1), with the top term
    replaced by the lower terms of the cyclotomic polynomial, on sparse maps.

    >>> [tuple(map(list, row)) for row in zeta_coeff_table(6)]
    [([0], [1]), ([1], [1]), ([0, 1], [-1, 1]), ([0], [-1]), ([1], [-1]), ([0, 1], [1, -1])]
    """
    phi = euler_phi(order)
    low = [(i, c) for i, c in enumerate(cyclotomic_polynomial(order)[:phi]) if c]
    rows = [(array("q", [k]), array("q", [1])) for k in range(phi)]
    cur = {phi - 1: 1}
    for _ in range(phi, order):
        top = cur.pop(phi - 1, 0)
        cur = {i + 1: c for i, c in cur.items()}
        if top:
            for i, c in low:
                value = cur.get(i, 0) - top * c
                if value:
                    cur[i] = value
                else:
                    cur.pop(i, None)
        keys = sorted(cur)
        rows.append((array("q", keys), array("q", map(cur.__getitem__, keys))))
    return tuple(rows)


@lru_cache(maxsize=ZETA_TABLE_CACHE)
def _float_root_powers(order: int) -> tuple[complex, ...]:
    """z**i for i < phi(order), z = exp(2 pi i / order): a value's display approx is
    the sum of c_i * z**i over its nonzero coefficients c_i, in index order from 0j."""
    z = cmath.exp(2j * cmath.pi / order)
    return tuple(z**i for i in range(euler_phi(order)))


@lru_cache(maxsize=ORDER_CACHE)
def coefficient_bound(order: int) -> int:
    """c_E: the largest absolute coefficient of any power z^k in canonical form.

    It is 1 when the order is a prime power and grows with the number of odd
    prime factors, so it is computed, never assumed: from the table of the radical
    r of E, as c_E = c_r. With s = E / r, Phi_E(x) = Phi_r(x^s), so the canonical
    form of z_E^(qs + j), j < s, is x^j times that of z_r^q with x^s in place of x.

    >>> [coefficient_bound(e) for e in (8, 9, 105, 1155)]
    [1, 1, 2, 9]
    """
    return max(max(map(abs, c)) for _, c in zeta_coeff_table(prod(set(_radices(order)))))


def _radices(n: int) -> list[int]:
    """The prime factors of n with multiplicity, ascending."""
    out, q = [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    return out + [n] * (n > 1)


_DIGITS = {array(code).itemsize * 8: code for code in "bhilq"}
"""A signed ``array`` typecode for each digit width in bits: 8, 16, 32 and 64."""


def _kronecker(e: int, r: int, widths: tuple[int, ...] = (), what: str = "") -> tuple[int, ...]:
    """Kronecker substitution z -> 2^b for values of Z[z], z of order E, that are integer
    polynomials Q with ||Q||_1 <= r: the width b, N = Phi_E(2^b) and h = (N - 1) / 2. b is
    the least width (of ``widths``, if given) with 2^b >= 2R + A + 1, R = r * c_E and A the
    largest |coefficient| of Phi_E; ``GuardExceeded``, opening with ``what``, if none is.

    Exactness. x -> x(2^b) mod N is a ring map from Z[x] that sends Phi_E to 0, so
    V = Q(2^b) is c(2^b) mod N for the canonical form c = Q mod Phi_E. Q sums ||Q||_1
    signed powers x^k, and each z^k has canonical coefficients at most c_E, so every
    |c_i| <= R < 2^(b-1). With S = (2^(b phi) - 1) / (2^b - 1), |c(2^b)| <= R * S and
    N >= 2^(b phi) - A * S, so 2 |c(2^b)| < N: the centered residue (V + h) % N - h is
    c(2^b) (N is odd, as Phi_E(0) = +-1). c is rational exactly when |c(2^b)| < 2^(b-1),
    and then c(2^b) = c_0: a top nonzero c_j, j >= 1, makes |c(2^b)| > 2^(bj-1), as the
    digits below it add up to less than 2^(bj-1). A product a * b is Q = a * b with
    ||Q||_1 <= ||a||_1 * ||b||_1, so r = ||a||_1 * ||b||_1; a reduction of a vector raw
    takes r = ||raw||_1.
    """
    bound = 2 * r * coefficient_bound(e) + max(map(abs, cyclotomic_polynomial(e))) + 1
    b = next((w for w in widths if 1 << w >= bound), None) if widths else (bound - 1).bit_length()
    if b is None:
        raise GuardExceeded(f"{what} digits of 2^b >= 2R + A + 1 = {bound}, "
                            f"above the widest digit of 2^{max(widths)}")
    big_n = _evaluate(cyclotomic_polynomial(e), b)
    return b, big_n, big_n >> 1


def _evaluate(coeffs: Iterable[int], b: int) -> int:
    """c(2^b) for the coefficient vector c, ascending by degree."""
    return sum(map(lshift, coeffs, count(0, b)))


def _reduced(order: int, r: int, *factors: CycPoly) -> CycPoly:
    """The canonical coefficients of the product of ``factors`` (of one: its reduction),
    given r >= its ||.||_1 (``_kronecker``). b has no cap on its width, so this never
    raises ``GuardExceeded``.

    The product is one int multiply at 2^b. The centered residue c(2^b) plus 2^(b-1) on
    every digit has digits c_i + 2^(b-1) in [0, 2^b), read by shift and mask.
    """
    b, big_n, half_n = _kronecker(order, r)
    phi, mask, top = euler_phi(order), (1 << b) - 1, 1 << (b - 1)
    value = (prod(map(_evaluate, factors, repeat(b))) + half_n) % big_n - half_n
    value += ((1 << b * phi) - 1) // mask * top
    return tuple([(value >> s & mask) - top for s in range(0, b * phi, b)])


def _digit_reader(e: int, r: int, what: str) -> tuple[int, Callable[[Iterable[int]], array]]:
    """The least width b in ``_DIGITS`` that reads sums of r signed root powers
    (``_kronecker``), and a reader of their shift-ring values into one signed ``array``
    of canonical coefficients, phi(E) b-bit digits a value.

    The ring is Z/(2^(Lb) + 1) with L = E/2 for even E, or Z/(2^(Lb) - 1) with L = E for
    odd E (``partition._shift_passes``). Phi_E divides x^L +- 1 (z^(E/2) = -1 for even E,
    z^E = 1), so N = Phi_E(2^b) divides the ring's modulus, and the centered residue mod N
    of a value P(2^b) is c(2^b) for c = P mod Phi_E. As every |c_i| < 2^(b-1), adding
    ``off``, 2^(b-1) on every digit, leaves digits c_i + 2^(b-1) in [0, 2^b); flipping each
    digit's top bit (xor ``off``) turns them into c_i in b-bit two's complement, so a
    signed ``array`` of the little-endian bytes holds the coefficients. N, h and ``off``
    are made once per reader.
    """
    phi = euler_phi(e)
    b, big_n, half_n = _kronecker(e, r, tuple(sorted(_DIGITS)), what)
    off = ((1 << b * phi) - 1) // ((1 << b) - 1) << (b - 1)
    center, residue, shift, flip = half_n.__add__, big_n.__rmod__, (off - half_n).__add__, off.__xor__
    width, little = repeat(phi * b // 8), repeat("little")

    def read(values: Iterable[int]) -> array:
        texts = map(int.to_bytes, map(flip, map(shift, map(residue, map(center, values)))),
                    width, little)
        digits = array(_DIGITS[b], b"".join(texts))
        if sys.byteorder == "big":
            digits.byteswap()
        return digits

    return b, read


def split_prime(order: int, bound: int) -> tuple[int, int]:
    """The least prime p above ``bound`` with p = 1 mod order, and a root mod p.

    The root w has multiplicative order exactly ``order``. Since p = 1 mod
    order, the cyclotomic polynomial splits into distinct linear factors
    mod p, so Z[z]/pZ[z] is isomorphic to F_p^phi(order) through the maps
    z -> w^j, one for each unit j (Pollard, "The fast Fourier transform in a
    finite field", Math. Comp. 25, 1971).

    >>> split_prime(8, 16)
    (17, 9)
    """
    p = bound // order * order + 1
    if p <= bound:
        p += order
    while _radices(p) != [p]:
        p += order
    factors = set(_radices(order))
    for x in count(1):  # F_p^* is cyclic, so some x gives a root of exact order
        w = pow(x, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in factors):
            return p, w


def _close(op: Callable[[T, T], T], base: set[T], x: T) -> set[T]:
    """The span of a subgroup ``base`` and x under op: the cosets x^t * base up to x^t in base."""
    out = set(base)
    cur = x
    while cur not in base:
        out.update(op(h, cur) for h in base)
        cur = op(cur, x)
    return out


def _greedy_generators(op: Callable[[T, T], T], identity: T, elems: Iterable[T]) -> tuple[T, ...]:
    """The elems, in their order, that lie outside the span of those kept before."""
    gens: list[T] = []
    span = {identity}
    for g in elems:
        if g not in span:
            gens.append(g)
            span = _close(op, span, g)
    return tuple(gens)


def unit_generators(order: int) -> tuple[int, ...]:
    """A generating set of the unit group mod ``order``, greedily from the least unit.

    >>> unit_generators(8), unit_generators(2)
    ((3, 5), ())
    """
    units = (j for j in range(2, order) if gcd(j, order) == 1)
    return _greedy_generators(lambda a, b: a * b % order, 1 % order, units)
