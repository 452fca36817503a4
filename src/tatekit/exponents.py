"""Exact arithmetic and decidable ordering for the exponent group.

The group is the set of finite integer combinations of the real numbers
1/sqrt(2), 1/sqrt(3), 1/sqrt(5), ... (one generator per prime, 1-based
index).  Clearing denominators turns any integer combination into a sum
of square roots of distinct squarefree integers, and such sums vanish
only trivially; two combinations are therefore equal as real numbers
exactly when their coordinate vectors coincide.  Every nonzero
combination is irrational, and a norm argument bounds its distance to
any rational (see _sign), so ordering is decidable by integer fixed-point
enclosures refined until they exclude that rational.

The coset structure modulo a prime p (coordinatewise reduction) and the
generators as bounded coset representatives are also provided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, prod

from .errors import DomainError

# Precision of the per-vector cached bounds that shortcut comparisons;
# the per-generator constants they are summed from carry spare bits.
_FAST_BITS = 80
_SPARE_BITS = 128
_TABLE_BITS = _FAST_BITS + _SPARE_BITS

# Most generators whose constants _inv_root keeps at once; an evicted
# constant is computed again when asked for.
_TABLE_SIZE = 1024

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _is_prime(c: int) -> bool:
    if c < 2:
        return False
    if c % 2 == 0:
        return c == 2
    d = 3
    while d * d <= c:
        if c % d == 0:
            return False
        d += 2
    return True


def nth_prime(i: int) -> int:
    """Return the i-th prime (1-based): 2, 3, 5, ..."""
    if i < 1:
        raise ValueError("generator indices are 1-based")
    while len(_PRIMES) < i:
        _extend_primes()
    return _PRIMES[i - 1]


def _extend_primes() -> None:
    """Append the primes in [n, 2n), n = the last stored prime + 1.

    Bertrand's postulate puts a prime in the segment, and every prime up
    to sqrt(2n) < n is already stored, so sieving the segment by the
    stored primes leaves exactly its primes.
    """
    n = _PRIMES[-1] + 1
    sieve = bytearray([1]) * n  # sieve[k] stands for n + k
    for q in _PRIMES:
        if q * q >= 2 * n:
            break
        first = -n % q
        sieve[first::q] = bytes(len(range(first, n, q)))
    _PRIMES.extend(itertools.compress(range(n, 2 * n), sieve))


@lru_cache(maxsize=_TABLE_SIZE)
def _inv_root(i: int) -> int:
    """K_i = floor(2^_TABLE_BITS / sqrt(q_i)), q_i = nth_prime(i), as
    isqrt(floor(4^_TABLE_BITS / q_i)): floor(sqrt(floor(x))) = floor(sqrt(x))
    for x >= 0."""
    return isqrt((1 << 2 * _TABLE_BITS) // nth_prime(i))


@dataclass(frozen=True)
class RealInterval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class CosetSignature:
    """Coordinatewise residues mod p; equal signatures = same coset of
    the subgroup of p-divisible vectors."""

    p: int
    residues: tuple[tuple[int, int], ...]  # (generator index, residue in 1..p-1)

    @property
    def is_zero(self) -> bool:
        return not self.residues


@dataclass(frozen=True)
class ExponentVector:
    """Finitely supported integer coordinate vector over the generators.

    Canonical form: coordinates sorted by ascending generator index, no
    zero coefficients stored.  The real value is
    sum(coeff / sqrt(nth_prime(index))).
    """

    coords: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, data: dict[int, int]) -> ExponentVector:
        items = []
        for index, coeff in sorted(data.items()):
            if index < 1:
                raise ValueError("generator indices are 1-based")
            if coeff:
                items.append((index, int(coeff)))
        return cls(tuple(items))

    @classmethod
    def zero(cls) -> ExponentVector:
        return cls(())

    @classmethod
    def unit(cls, index: int, coeff: int = 1) -> ExponentVector:
        return cls.from_dict({index: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def as_dict(self) -> dict[int, int]:
        return dict(self.coords)

    def __add__(self, other: ExponentVector) -> ExponentVector:
        data = self.as_dict()
        for i, c in other.coords:
            data[i] = data.get(i, 0) + c
        return ExponentVector.from_dict(data)

    def __neg__(self) -> ExponentVector:
        return ExponentVector(tuple((i, -c) for i, c in self.coords))

    def __sub__(self, other: ExponentVector) -> ExponentVector:
        return self + (-other)

    def scale(self, k: int) -> ExponentVector:
        if k == 0:
            return ExponentVector.zero()
        return ExponentVector(tuple((i, c * k) for i, c in self.coords))

    def divided_by(self, k: int) -> ExponentVector:
        """Exact division of every coordinate; error if not divisible."""
        if any(c % k for _, c in self.coords):
            raise DomainError("coordinates are not all divisible by %d" % k)
        return ExponentVector(tuple((i, c // k) for i, c in self.coords))

    def signature(self, p: int) -> CosetSignature:
        """Coordinatewise reduction mod p (the coset of p-divisible vectors)."""
        residues = tuple((i, c % p) for i, c in self.coords if c % p)
        return CosetSignature(p, residues)

    @cached_property
    def _fast_bounds(self) -> tuple[int, int]:
        """Integers lo <= value * 2^_FAST_BITS <= hi, from the constants
        K_i of _inv_root.

        K_i <= 2^T / sqrt(q_i) < K_i + 1 with T = _TABLE_BITS, so each
        c / sqrt(q_i) * 2^T lies between c * K_i and c * (K_i + 1): in
        that order for c > 0, reversed for c < 0.  Summed, LO <= value *
        2^T <= HI with HI - LO = S = sum|c|.  With m = 2^_SPARE_BITS,
        lo = floor(LO / m) and hi = ceil(HI / m) enclose value *
        2^_FAST_BITS, and hi - lo < S / m + 2, so hi - lo <= 1 + ceil(S / m):
        at most 2 while S <= m = 2^128.  Wider intervals, for larger
        coefficients, only send more comparisons on to _sign.
        """
        lo = hi = 0
        for i, c in self.coords:
            t = c * _inv_root(i)
            if c > 0:
                lo += t
                hi += t + c
            else:
                lo += t + c
                hi += t
        return lo >> _SPARE_BITS, -(-hi >> _SPARE_BITS)

    # Total order by real value.  Equality is coordinate equality; the
    # cached bounds decide almost every strict comparison, _sign the rest.
    # a > b and a >= b run as the reflected b < a and b <= a.
    def __lt__(self, other: ExponentVector) -> bool:
        return compare(self, other) < 0

    def __le__(self, other: ExponentVector) -> bool:
        return compare(self, other) <= 0

    def __str__(self) -> str:
        inner = ", ".join(f"{i}:{c}" for i, c in self.coords)
        return f"[{inner}]"


def _bounds(vec: ExponentVector, bits: int) -> tuple[int, int, int]:
    """Integers lo <= value * den <= hi, den = 2^bits * Q with Q the
    product of the vector's primes: c/sqrt(q) = c * (Q/q) * sqrt(q) / Q,
    and s = isqrt(q * 4^bits) has s < sqrt(q) * 2^bits < s + 1."""
    primes = [(nth_prime(i), c) for i, c in vec.coords]
    big_q = prod(q for q, _ in primes)
    lo = hi = 0
    for q, c in primes:
        s = isqrt(q << 2 * bits)
        t = c * (big_q // q)
        lo += t * (s if c > 0 else s + 1)
        hi += t * (s + 1 if c > 0 else s)
    return lo, hi, big_q << bits


def enclose(vec: ExponentVector, width: Fraction) -> RealInterval:
    """Certified rational enclosure of the real value, hi - lo <= width."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    # At b bits the enclosure width is weight / 2^b, weight = sum(|c|/q).
    # With weight / width = num / den, b = 0 if num <= den, else the bit
    # length of num // den, so that 2^b > num // den, i.e. 2^b > num / den.
    lo, hi, big_q = _bounds(vec, 0)
    num, den = (hi - lo) * width.denominator, big_q * width.numerator
    lo, hi, den = _bounds(vec, (num // den).bit_length() if num > den else 0)
    return RealInterval(Fraction(lo, den), Fraction(hi, den))


def _sign(vec: ExponentVector, r: Fraction) -> int:
    """Sign (+1 or -1) of value - r for a nonzero vector: double the
    precision of _bounds until the enclosure excludes r.

    The loop ends.  Write r = n/d, let q_1..q_k be the vector's primes, Q
    their product and M = (d * sum|c_i| + |n|) * sqrt(Q).  Then
    x = (value - r) * d * sqrt(Q) = sum c_i d sqrt(Q/q_i) - n sqrt(Q) is an
    algebraic integer of Q(sqrt(q_1), ..., sqrt(q_k)), nonzero because
    square roots of distinct squarefree integers are linearly independent.
    Its 2^k conjugates flip signs of the roots, so each is at most M in
    absolute value, and their product is a nonzero integer.  So
    |value - r| >= 1 / (d sqrt(Q) M^(2^k - 1)), while the enclosure width
    is at most sum|c_i| / 2^bits, which falls below it.
    """
    n, d = Fraction(r).as_integer_ratio()
    bits = _FAST_BITS
    while True:
        lo, hi, den = _bounds(vec, bits)
        if lo * d > n * den:
            return 1
        if hi * d < n * den:
            return -1
        bits *= 2


def compare(a: ExponentVector, b: ExponentVector) -> int:
    """-1, 0, or +1 by real value; 0 exactly when coordinates coincide."""
    if a.coords == b.coords:
        return 0
    (alo, ahi), (blo, bhi) = a._fast_bounds, b._fast_bounds
    if alo > bhi:
        return 1
    if ahi < blo:
        return -1
    return _sign(a - b, 0)


def certify_in_open_interval(
    vec: ExponentVector, lo: Fraction, hi: Fraction
) -> bool:
    """Decide value in (lo, hi); a nonzero vector's value is irrational,
    so it never equals either endpoint."""
    if vec.is_zero:
        return lo < 0 < hi
    return _sign(vec, lo) > 0 and _sign(vec, hi) < 0


def bounded_coset_representatives(p: int, count: int) -> list[ExponentVector]:
    """Representatives s_1..s_count of the cosets of the first count
    generators modulo the p-divisible vectors: s_i = e_i, the i-th
    generator itself.

    Each postcondition holds with no search and no enclosure:
    - the value of e_i is 1/sqrt(q_i) with q_i = nth_prime(i) >= 2, so
      0 < 1/sqrt(q_i) < 1;
    - the signature of e_i mod p is ((i, 1)), since 0 < 1 < p; the
      signatures are pairwise distinct and each equals its generator's;
    - q_i strictly increases with i, so the values strictly decrease.
    """
    if not _is_prime(p):
        raise DomainError(f"characteristic {p} is not prime")
    if count < 1:
        raise ValueError("count must be >= 1")
    return [ExponentVector.unit(i) for i in range(1, count + 1)]
