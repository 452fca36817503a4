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

``ExponentVector`` and ``CosetSignature`` are immutable ``__slots__`` records
(``_Record``, shared with ``field.py``) that act as frozen dataclasses but equal
no tuple; a vector caches its hash and 2^-208 enclosure in two more slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import attrgetter

from .errors import DomainError

# Precision of the cached bounds and of _sign's first round.
_TABLE_BITS = 208

# Most constants _inv_root keeps at once; an evicted one is computed again.
_TABLE_SIZE = 1024

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


# Miller-Rabin with the first 13 primes as bases is exact below psi_13, the
# least odd composite that passes all 13 (Sorenson and Webster, Math. Comp.
# 86, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def _is_prime(c: int) -> bool:
    """Whether c is prime, by deterministic Miller-Rabin; DomainError for
    c >= psi_13, where the bases no longer decide."""
    if c >= _PSI13:
        raise DomainError(
            f"characteristic {c} is too large: primality is certified only below psi_13 = {_PSI13}"
        )
    if c < 2:
        return False
    for a in _WITNESSES:
        if c % a == 0:
            return c == a
    s = ((c - 1) & (1 - c)).bit_length() - 1  # c - 1 = 2^s * d, d odd
    d = (c - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, c)
        if x == 1 or x == c - 1:
            continue
        for _ in range(s - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _require_prime(p: int) -> None:
    if not _is_prime(p):
        raise DomainError(f"characteristic {p} is not prime")


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
def _inv_root(i: int, bits: int) -> int:
    """K = floor(2^bits / sqrt(q_i)) = isqrt(floor(4^bits / q_i)), q_i =
    nth_prime(i), since floor(sqrt(floor(x))) = floor(sqrt(x)) for x >= 0."""
    return isqrt((1 << 2 * bits) // nth_prime(i))


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


class _Record:
    """An immutable record on ``__slots__``, equal only to a record of its
    own class with equal ``_fields``, hashed as their tuple and printed as
    a frozen dataclass; later slots are caches.  ``_setters`` writes slots."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # The fields' tuple in one C call (one name gives a bare value).
        get = attrgetter(*cls._fields)
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, *value):  # *value: __delattr__ passes none
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (self.__class__, self._values)


def _setters(cls) -> list:
    """The setter of each of cls's own slots, in ``__slots__`` order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


class CosetSignature(_Record):
    """Coordinatewise residues mod p; equal signatures = same coset of
    the subgroup of p-divisible vectors."""

    __slots__ = _fields = ("p", "residues")

    def __init__(self, p: int, residues: tuple[tuple[int, int], ...]):
        _set_sig_p(self, p)
        _set_residues(self, residues)  # (generator index, residue in 1..p-1)

    @property
    def is_zero(self) -> bool:
        return not self.residues


_set_sig_p, _set_residues = _setters(CosetSignature)


class ExponentVector(_Record):
    """Finitely supported integer coordinate vector over the generators.

    Canonical form: coordinates sorted by ascending generator index, no
    zero coefficients stored.  The real value is
    sum(coeff / sqrt(nth_prime(index))).
    """

    __slots__ = ("coords", "_hash", "_enclosure")
    _fields = ("coords",)

    def __init__(self, coords: tuple[tuple[int, int], ...]):
        _set_coords(self, coords)
        _set_hash(self, None)
        _set_enclosure(self, None)

    def __eq__(self, other):
        if other.__class__ is not ExponentVector:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.coords,))
            _set_hash(self, h)
        return h

    @classmethod
    def from_dict(cls, data: dict[int, int]) -> ExponentVector:
        items = []
        for index, coeff in sorted(data.items()):
            i, c = int(index), int(coeff)
            if i != index or c != coeff:
                raise ValueError("generator indices and coefficients are integers")
            if i < 1:
                raise ValueError("generator indices are 1-based")
            if c:
                items.append((i, c))
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
        return ExponentVector(tuple(sorted(x for x in data.items() if x[1])))

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

    @property
    def _fast_bounds(self) -> tuple[int, int]:
        """_bounds at _TABLE_BITS, read from the table of constants."""
        bounds = self._enclosure
        if bounds is None:
            bounds = _bounds(self, _TABLE_BITS)
            _set_enclosure(self, bounds)
        return bounds

    # The one order rule, by real value: the cached bounds (read from the
    # slot, filled by the property when empty) settle almost every pair,
    # _sign the rest.  Equal coordinates give equal bounds, so equality is
    # tested only on overlap.  a > b runs as b < a, a <= b as not b < a.
    def __lt__(self, other: ExponentVector) -> bool:
        alo, ahi = self._enclosure or self._fast_bounds
        blo, bhi = other._enclosure or other._fast_bounds
        if ahi < blo:
            return True
        if alo > bhi or self.coords == other.coords:
            return False
        return _sign(self - other, 0) < 0

    def __le__(self, other: ExponentVector) -> bool:
        return not other < self

    def __str__(self) -> str:
        inner = ", ".join(f"{i}:{c}" for i, c in self.coords)
        return f"[{inner}]"


_set_coords, _set_hash, _set_enclosure = _setters(ExponentVector)


def _bounds(vec: ExponentVector, bits: int) -> tuple[int, int]:
    """Integers lo <= value * 2^bits <= hi with hi - lo = sum|c|.

    K = _inv_root(i, bits) has K <= 2^bits / sqrt(q_i) < K + 1, so
    c / sqrt(q_i) * 2^bits lies between c * K and c * (K + 1), in that
    order for c > 0 and reversed for c < 0, an interval of width |c|.
    Summing gives both claims.  The cached bounds stay unrounded: for two
    vectors, floor(lo / m) > ceil(hi' / m) implies lo > hi', so rounding to
    a coarser grid m would only send more pairs on to _sign.
    """
    lo = hi = 0
    for i, c in vec.coords:
        t = c * _inv_root(i, bits)
        if c > 0:
            lo += t
            hi += t + c
        else:
            lo += t + c
            hi += t
    return lo, hi


def enclose(vec: ExponentVector, width: Fraction) -> RealInterval:
    """Certified rational enclosure of the real value, hi - lo <= width."""
    n, d = Fraction(width).as_integer_ratio()
    if n <= 0:
        raise ValueError("width must be positive")
    # At b bits the width is S / 2^b, S = sum|c|: at most n / d exactly
    # when 2^b >= N = ceil(S * d / n), first at b = the bit length of N - 1.
    weight = sum(abs(c) for _, c in vec.coords)
    bits = max(0, -(-weight * d // n) - 1).bit_length()
    lo, hi = _bounds(vec, bits)
    return RealInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def _sign(vec: ExponentVector, r: Fraction) -> int:
    """Sign (+1 or -1) of value - r for a nonzero vector: double the
    precision of _bounds, from _TABLE_BITS, until the enclosure excludes
    r.  The first round reads the table of constants.

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
    if not vec.coords:  # the loop would never end
        raise ValueError("_sign needs a nonzero vector")
    n, d = Fraction(r).as_integer_ratio()
    bits = _TABLE_BITS
    while True:
        lo, hi = _bounds(vec, bits)
        if lo * d > n << bits:
            return 1
        if hi * d < n << bits:
            return -1
        bits *= 2


def compare(a: ExponentVector, b: ExponentVector) -> int:
    """-1, 0, or +1 by real value; 0 exactly when coordinates coincide."""
    if a.coords == b.coords:
        return 0
    return -1 if a < b else 1


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
    _require_prime(p)
    if count < 1:
        raise ValueError("count must be >= 1")
    return [ExponentVector.unit(i) for i in range(1, count + 1)]
