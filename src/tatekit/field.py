"""Ball-precision exact arithmetic for the two valued-field backends.

``LaurentSeries`` models Laurent series over F_p with exponents in the
lattice (1/p^L)Z; ``HahnSum`` models finite sums over the square-root
exponent group of :mod:`tatekit.exponents` with F_p coefficients.  An
element is a finite explicit part plus an optional ball: ``cutoff = c``
means the element is the explicit part up to an unknown tail of
valuation >= c.  All explicit exponents sit strictly below the cutoff
and coefficients are nonzero mod p, so representations are canonical
and equality is structural.

A Laurent series is stored on its integer lattice: the prime p, the
smallest level L with every exponent and the cutoff in (1/p^L)Z, the
exponents times p^L as a strictly increasing tuple of ints, a parallel
tuple of coefficients in 1..p-1, and the cutoff times p^L (or None).
``make`` checks the prime and, on surviving terms only, the lattice.
``_align`` is the one code that raises a level (two operands to the
finer one) and ``_reduced`` the one that lowers it (every result to its
smallest), so equal values have equal representations.  Ring operations,
the inverse's truncation, ``frobenius`` (the integers times p) and
``pth_root`` (one level finer) work on ints between the two.  ``terms``
and ``cutoff`` are read-only Fraction views, built when read.

Both backends run on one ring kernel: module-level functions over any
exponent type with ``+``, ``<`` and hashing (lattice ints for
``LaurentSeries``, ``ExponentVector`` for ``HahnSum``) that hold the
sum, the product, the product's ball, the canonical form and the
residue, each once; Hahn sums presort by the exponents' cached
enclosures before the canonical sort.  The base class ``_Series`` holds
the constructors, the backend check, negation and subtraction.  What
stays per backend is how an element is stored, how its exponents are
aligned (the lattice level), ``frobenius``, ``pth_root`` and ``inverse``.

Norms are written multiplicatively as e^(-v); ``NormValue`` is the one
record of both norm and valuation for both backends.  It carries the
exponent v, a Fraction for the Laurent backend and an ``ExponentVector``
for the Hahn backend: ``finite`` when v is the exact valuation (the
least explicit exponent), ``at_most`` when only the ball bounds it
(v >= cutoff), or ``zero``.  Ordering of norms reverses the ordering of
exponents, and |0| = 0 is the minimum.

``LaurentSeries`` and ``NormValue`` are immutable ``__slots__`` records
on ``exponents._Record`` (equality, hashing as their fields' tuple,
immutability, pickling); ``HahnSum`` is a frozen dataclass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import compress
from typing import Union

from .errors import BackendMismatch, DomainError, PrecisionError
from .exponents import ExponentVector, _Record, _require_prime, _setters

Exponent = Union[Fraction, ExponentVector]

_ZERO = "zero"
_FINITE = "finite"
_AT_MOST = "at_most"


class NormValue(_Record):
    """|x| = e^(-exponent), |0| = 0, or an upper bound e^(-exponent)."""

    __slots__ = _fields = ("kind", "exponent")

    def __init__(self, kind: str, exponent: Exponent | None = None):
        _set_kind(self, kind)
        _set_exponent(self, exponent)

    @classmethod
    def zero(cls) -> NormValue:
        return cls(_ZERO)

    @classmethod
    def finite(cls, exponent: Exponent) -> NormValue:
        return cls(_FINITE, exponent)

    @classmethod
    def at_most(cls, exponent: Exponent) -> NormValue:
        return cls(_AT_MOST, exponent)

    @property
    def is_zero(self) -> bool:
        return self.kind == _ZERO

    @property
    def is_finite(self) -> bool:
        return self.kind == _FINITE

    @property
    def is_bound(self) -> bool:
        return self.kind == _AT_MOST

    def _check_same_scale(self, other: NormValue) -> None:
        if (
            self.exponent is not None
            and other.exponent is not None
            and isinstance(self.exponent, ExponentVector)
            != isinstance(other.exponent, ExponentVector)
        ):
            raise BackendMismatch("norms from different backends")

    def __mul__(self, other: NormValue) -> NormValue:
        self._check_same_scale(other)
        if self.is_zero or other.is_zero:
            return NormValue.zero()
        exponent = self.exponent + other.exponent
        if self.is_bound or other.is_bound:
            return NormValue.at_most(exponent)
        return NormValue.finite(exponent)

    def compare(self, other: NormValue) -> int:
        """-1/0/+1 as real numbers; raises PrecisionError when a bare
        upper bound cannot decide."""
        self._check_same_scale(other)
        if self.is_finite and other.is_finite:
            if self.exponent == other.exponent:
                return 0
            return 1 if self.exponent < other.exponent else -1
        if self.is_zero and other.is_zero:
            return 0
        # One side is not finite.  0 lies below every finite norm, and a
        # bound e^(-c) below a finite e^(-v) when c > v; nothing else is known.
        for low, high, sign in ((self, other, -1), (other, self, 1)):
            if high.is_finite and (low.is_zero or low.exponent > high.exponent):
                return sign
        if self.is_bound and other.is_bound:
            raise PrecisionError("comparison of two norm upper bounds is undecidable")
        raise PrecisionError("comparison with a norm upper bound is undecidable")

    def root(self, p: int) -> NormValue:
        """The p-th root e^(-exponent/p); Laurent-scale exponents only."""
        if self.is_zero:
            return self
        if isinstance(self.exponent, ExponentVector):
            raise DomainError("p-th roots of Hahn-scale norms are not supported")
        return NormValue(self.kind, self.exponent / p)


_set_kind, _set_exponent = _setters(NormValue)


def _lattice_level(exponent: Fraction, p: int) -> int:
    """The e with exponent's denominator equal to p^e; at level e the
    exponent is the integer exponent.numerator."""
    level = _denominator_level(exponent.denominator, p)
    if level is None:
        raise DomainError(
            f"exponent {exponent} is not in the (1/{p}^e)Z lattice"
        )
    return level


def _denominator_level(den: int, p: int) -> int | None:
    """The e with den == p^e, or None when den is not a power of p."""
    level = 0
    while den % p == 0:
        den //= p
        level += 1
    return level if den == 1 else None


def _sum(a, cut_a, b, cut_b):
    """(exponent -> unreduced coefficient, cutoff) of the sum of two
    series given as (exponent, coefficient) pairs and a cutoff or None;
    the smaller cutoff wins."""
    data = dict(a)
    get = data.get
    for e, c in b:
        data[e] = get(e, 0) + c
    if cut_a is None or (cut_b is not None and cut_b < cut_a):
        cut_a = cut_b
    return data, cut_a


def _product(a, b) -> dict:
    """Exponent -> unreduced coefficient of the product of explicit parts."""
    data = {}
    get = data.get
    right = list(b)
    for e1, c1 in a:
        for e2, c2 in right:
            k = e1 + e2
            data[k] = get(k, 0) + c1 * c2
    return data


def _product_cut(v_a, cut_a, v_b, cut_b):
    """The product's cutoff min(v*(x) + cut(y), v*(y) + cut(x)) over the
    sides with a ball, where v* is the least explicit exponent, else the
    cutoff (explicit exponents sit below the cutoff)."""
    cut = None if cut_b is None else v_a + cut_b
    if cut_a is not None:
        other = v_b + cut_a
        if cut is None or other < cut:
            cut = other
    return cut


def _canonical_terms(p: int, data: dict, cut, presort=None):
    """Increasing exponents and their coefficients in 1..p-1 from
    exponent -> unreduced coefficient, without the exponents at or past
    the cutoff.  Coefficients 0 mod p go before sorting: a comparison of
    Hahn exponents may refine interval enclosures.  The comparison sort
    defines the order; Hahn sums presort by cached enclosure, so it meets
    ordered input: n - 1 comparisons, settled by bounds unless two overlap."""
    exps = [e for e, c in data.items() if c % p]
    if presort is not None:
        exps.sort(key=presort)
    exps.sort()
    if cut is not None:
        del exps[bisect_left(exps, cut):]
    return exps, [data[e] % p for e in exps]


def _residue(exps, coeffs, cut, zero) -> int:
    """Image in F_p of an element of the unit ball, from its canonical
    terms; zero is the exponent 0."""
    if exps:
        if exps[0] < zero:
            raise DomainError("norm-exceeds-one: element has negative valuation")
        return coeffs[0] if exps[0] == zero else 0
    if cut is not None and cut <= zero:
        raise PrecisionError("residue is undetermined: ball reaches the unit sphere")
    return 0


class _Series:
    """What the two backends share beyond the kernel.  A subclass names
    its ``_zero_exponent`` (what ``make`` reads as t^0) and the ``_kind``
    of its elements."""

    __slots__ = ()

    @classmethod
    def zero(cls, p: int):
        return cls.make(p, {})

    @classmethod
    def one(cls, p: int):
        return cls.constant(p, 1)

    @classmethod
    def constant(cls, p: int, c: int):
        return cls.make(p, {cls._zero_exponent: c})

    @classmethod
    def t_power(cls, p: int, exponent, coeff: int = 1):
        return cls.make(p, {exponent: coeff})

    @classmethod
    def ball(cls, p: int, cutoff):
        return cls.make(p, {}, cutoff)

    def _check_compatible(self, other) -> None:
        if not isinstance(other, type(self)):
            raise BackendMismatch(
                f"cannot combine {self._kind} with {type(other).__name__}"
            )
        if self.p != other.p:
            raise BackendMismatch("characteristics differ")

    def __neg__(self):
        return self.scalar_mul(-1)

    def __sub__(self, other):
        return self + (-other)


class LaurentSeries(_Record, _Series):
    """Laurent series over F_p with exponents in (1/p^L)Z plus a ball.

    The constructor takes the canonical lattice form as stored (see the
    module docstring) and trusts it; build series with ``make`` and the
    other class methods.
    """

    _fields = ("p", "level", "_exps", "_coeffs", "_cut")
    __slots__ = _fields + ("_terms", "_norm")
    _zero_exponent = 0
    _kind = "Laurent series"

    def __init__(self, p: int, level: int, exps: tuple, coeffs: tuple, cut=None):
        _set_p(self, p)
        _set_level(self, level)
        _set_exps(self, exps)
        _set_coeffs(self, coeffs)
        _set_cut(self, cut)

    def __repr__(self) -> str:
        return (
            f"LaurentSeries(p={self.p!r}, terms={self.terms!r}, "
            f"cutoff={self.cutoff!r})"
        )

    @classmethod
    def make(cls, p: int, coeffs, cutoff=None) -> LaurentSeries:
        _require_prime(p)
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        merged: dict[Fraction, int] = {}
        for exponent, coeff in items:
            e = Fraction(exponent)
            merged[e] = merged.get(e, 0) + int(coeff)
        levels = [0]
        if cutoff is not None:
            cutoff = Fraction(cutoff)
            levels.append(_lattice_level(cutoff, p))
        # Only surviving terms must lie on the lattice: a term with a
        # coefficient 0 mod p, or at or past the cutoff, vanishes.
        survivors = [
            (e, c)
            for e, c in merged.items()
            if c % p and (cutoff is None or e < cutoff)
        ]
        levels += [_lattice_level(e, p) for e, _ in survivors]
        level = max(levels)
        scale = p**level
        data = {e.numerator * (scale // e.denominator): c for e, c in survivors}
        cut = None if cutoff is None else int(cutoff * scale)
        return _canonical(p, level, data, cut)

    @property
    def terms(self) -> tuple[tuple[Fraction, int], ...]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        try:
            return self._terms
        except AttributeError:
            pass
        den = self.p**self.level
        terms = tuple(
            (Fraction(e, den), c) for e, c in zip(self._exps, self._coeffs)
        )
        _set_terms(self, terms)
        return terms

    @property
    def cutoff(self) -> Fraction | None:
        return None if self._cut is None else self._fraction(self._cut)

    def _fraction(self, k: int) -> Fraction:
        """The exponent whose lattice integer at this level is k."""
        return Fraction(k, self.p**self.level) if self.level else Fraction(k)

    @property
    def is_zero(self) -> bool:
        """Exactly zero (no explicit part and no ball)."""
        return not self._exps and self._cut is None

    def coefficient(self, exponent) -> int:
        k = Fraction(exponent) * self.p**self.level
        if k.denominator != 1:
            return 0
        k = k.numerator
        i = bisect_left(self._exps, k)
        if i < len(self._exps) and self._exps[i] == k:
            return self._coeffs[i]
        return 0

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        self._check_compatible(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        level, ea, cut_a, eb, cut_b = _align(self, other)
        data, cut = _sum(
            zip(ea, self._coeffs), cut_a, zip(eb, other._coeffs), cut_b
        )
        return _canonical(self.p, level, data, cut)

    def __mul__(self, other: LaurentSeries) -> LaurentSeries:
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return _zero(self.p)
        level, ea, cut_a, eb, cut_b = _align(self, other)
        cut = _product_cut(
            ea[0] if ea else cut_a, cut_a, eb[0] if eb else cut_b, cut_b
        )
        data = _product(zip(ea, self._coeffs), zip(eb, other._coeffs))
        return _canonical(self.p, level, data, cut)

    def scalar_mul(self, k: int) -> LaurentSeries:
        p = self.p
        k %= p
        if k == 0:
            return _zero(p)
        if k == 1:
            return self
        coeffs = tuple([c * k % p for c in self._coeffs])
        return LaurentSeries(p, self.level, self._exps, coeffs, self._cut)

    def frobenius(self) -> LaurentSeries:
        """x^p, computed exactly: exponents scale by p, F_p coefficients fix."""
        p, cut = self.p, self._cut
        return _reduced(
            p,
            self.level,
            tuple([e * p for e in self._exps]),
            self._coeffs,
            None if cut is None else cut * p,
        )

    def pth_root(self) -> LaurentSeries:
        """The unique y with y^p = x: the same integers one level finer."""
        return _reduced(self.p, self.level + 1, self._exps, self._coeffs, self._cut)

    def lattice_part(self, level: int) -> LaurentSeries:
        """The terms whose exponents lie in (1/p^level)Z, with the same ball."""
        shift = self.level - level
        if shift <= 0:
            return self
        step = self.p**shift
        keep = [e % step == 0 for e in self._exps]
        return _reduced(
            self.p,
            self.level,
            tuple(compress(self._exps, keep)),
            tuple(compress(self._coeffs, keep)),
            self._cut,
        )

    def explicit_part(self) -> LaurentSeries:
        """The explicit terms without the ball."""
        if self._cut is None:
            return self
        return _reduced(self.p, self.level, self._exps, self._coeffs, None)

    def norm(self) -> NormValue:
        # Cached: Tate-level code asks the same coefficient many times.
        try:
            return self._norm
        except AttributeError:
            pass
        if self._exps:
            norm = NormValue.finite(self._fraction(self._exps[0]))
        elif self._cut is not None:
            norm = NormValue.at_most(self._fraction(self._cut))
        else:
            norm = NormValue.zero()
        _set_norm(self, norm)
        return norm

    def residue(self) -> int:
        """Image in F_p of an element of the unit ball."""
        return _residue(self._exps, self._coeffs, self._cut, 0)

    def inverse(self, target_cutoff) -> LaurentSeries:
        """y with x*y = 1 + O(t^target), by the power-series recurrence.

        Exact (no ball) when x is an exact monomial; otherwise y carries
        a cutoff so that the product identity holds at the target.

        With x = c t^v (1 + u) and u = sum a_d t^(d/p^L) over u's lattice
        ints d > 0, s = 1/(1 + u) has s_0 = 1 and s_k = -sum a_d s_(k-d)
        mod p.  s is cut at min(tau, cut(u)): u's ball bounds the error fed
        into s, and a cut at tau must lie on the lattice (DomainError).
        As s_k is nonzero only where some s_(k-d) is, a heap runs k over
        those sums below the cut, smallest first: |u| steps per term of s,
        at any level.  Then y = c^-1 t^-v s has the ball min(tau, cut(u)) - v.
        """
        if not self._exps:
            raise PrecisionError(
                "valuation-unknown: cannot invert a ball-only element"
            )
        p = self.p
        tau = Fraction(target_cutoff)
        lead_inv = _reduced(
            p, self.level, (-self._exps[0],), (pow(self._coeffs[0], -1, p),), None
        )
        u = self * lead_inv - _one(p)
        if u.is_zero:
            return lead_inv
        level, ints, cut = u.level, u._exps, u._cut
        if cut is None or u.cutoff > tau:
            # Align u with the ball O(t^tau); _lattice_level raises
            # DomainError when tau is off the lattice.
            ball = LaurentSeries(p, _lattice_level(tau, p), (), (), tau.numerator)
            level, ints, _, _, cut = _align(u, ball)
        steps = tuple(zip(ints, u._coeffs))
        s = {}
        todo = [0] if cut > 0 else []
        while todo:
            k = heappop(todo)
            if k not in s:
                s[k] = c = -sum([a * s.get(k - d, 0) for d, a in steps]) % p if k else 1
                if c:
                    for d in ints[: bisect_left(ints, cut - k)]:
                        heappush(todo, k + d)
        exps = tuple([k for k, c in s.items() if c])
        coeffs = tuple([c for c in s.values() if c])
        return _reduced(p, level, exps, coeffs, cut) * lead_inv

    def __str__(self) -> str:
        from .parsing import format_laurent

        return format_laurent(self)


_set_p, _set_level, _set_exps, _set_coeffs, _set_cut, _set_terms, _set_norm = _setters(
    LaurentSeries
)


# The ring operations return these often.
_zero = lru_cache(maxsize=None)(LaurentSeries.zero)
_one = lru_cache(maxsize=None)(LaurentSeries.one)


def _align(a: LaurentSeries, b: LaurentSeries):
    """(level, exps of a, cut of a, exps of b, cut of b) at the finer
    level: the only code that raises a level."""
    la, lb = a.level, b.level
    if la == lb:
        return la, a._exps, a._cut, b._exps, b._cut
    if la < lb:
        scale = a.p ** (lb - la)
        cut = None if a._cut is None else a._cut * scale
        return lb, [e * scale for e in a._exps], cut, b._exps, b._cut
    scale = a.p ** (la - lb)
    cut = None if b._cut is None else b._cut * scale
    return la, a._exps, a._cut, [e * scale for e in b._exps], cut


def _canonical(p: int, level: int, data: dict, cut) -> LaurentSeries:
    """Series from lattice integers -> unreduced coefficients at a level."""
    exps, coeffs = _canonical_terms(p, data, cut)
    return _reduced(p, level, tuple(exps), tuple(coeffs), cut)


def _reduced(p: int, level: int, exps: tuple, coeffs: tuple, cut) -> LaurentSeries:
    """Series from canonical terms at a level, moved to the smallest
    level that holds every exponent and the cutoff.  The only code that
    lowers a level: it divides every integer and the cutoff by p while
    all are p-divisible, so a stored series keeps one integer, or its
    cutoff, off pZ unless its level is 0."""
    while level and (cut is None or cut % p == 0) and not any(e % p for e in exps):
        exps = tuple([e // p for e in exps])
        if cut is not None:
            cut //= p
        level -= 1
    return LaurentSeries(p, level, exps, coeffs, cut)


@dataclass(frozen=True)
class HahnSum(_Series):
    """Finite sum over the square-root exponent group with F_p coefficients."""

    p: int
    terms: tuple[tuple[ExponentVector, int], ...]
    cutoff: ExponentVector | None = None
    _zero_exponent = ExponentVector.zero()
    _kind = "Hahn sums"

    @classmethod
    def make(cls, p: int, coeffs, cutoff: ExponentVector | None = None) -> HahnSum:
        _require_prime(p)
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        data: dict[ExponentVector, int] = {}
        for exponent, coeff in items:
            data[exponent] = data.get(exponent, 0) + int(coeff)
        return _hahn(p, data, cutoff)

    @property
    def is_zero(self) -> bool:
        return not self.terms and self.cutoff is None

    def coefficient(self, exponent: ExponentVector) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def support(self) -> tuple[ExponentVector, ...]:
        return tuple(e for e, _ in self.terms)

    def __add__(self, other: HahnSum) -> HahnSum:
        self._check_compatible(other)
        return _hahn(self.p, *_sum(self.terms, self.cutoff, other.terms, other.cutoff))

    def __mul__(self, other: HahnSum) -> HahnSum:
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return HahnSum.zero(self.p)
        a, b = self.terms, other.terms
        cut = _product_cut(
            a[0][0] if a else self.cutoff,
            self.cutoff,
            b[0][0] if b else other.cutoff,
            other.cutoff,
        )
        return _hahn(self.p, _product(a, b), cut)

    def scalar_mul(self, k: int) -> HahnSum:
        k %= self.p
        if k == 0:
            return HahnSum.zero(self.p)
        return HahnSum(
            self.p, tuple((e, (c * k) % self.p) for e, c in self.terms), self.cutoff
        )

    # e -> p*e and e -> e/p are strictly increasing, so both keep the
    # canonical order and each term's place below the cutoff: no ``make``.
    def frobenius(self) -> HahnSum:
        p, cut = self.p, self.cutoff
        terms = tuple([(e.scale(p), c) for e, c in self.terms])
        return HahnSum(p, terms, None if cut is None else cut.scale(p))

    def pth_root(self) -> HahnSum:
        """Defined only when every exponent (and cutoff) is p-divisible."""
        p, cut = self.p, self.cutoff
        named = [(e, "exponent") for e, _ in self.terms]
        if cut is not None:
            named.append((cut, "cutoff"))
        for e, name in named:
            if not e.signature(p).is_zero:
                raise DomainError(
                    f"not-a-pth-power: {name} outside the p-divisible subgroup"
                )
        terms = tuple([(e.divided_by(p), c) for e, c in self.terms])
        return HahnSum(p, terms, None if cut is None else cut.divided_by(p))

    def norm(self) -> NormValue:
        if self.terms:
            return NormValue.finite(self.terms[0][0])
        if self.cutoff is not None:
            return NormValue.at_most(self.cutoff)
        return NormValue.zero()

    def residue(self) -> int:
        first = self.terms[:1]
        exps, coeffs = [e for e, _ in first], [c for _, c in first]
        return _residue(exps, coeffs, self.cutoff, self._zero_exponent)

    def __str__(self) -> str:
        from .parsing import format_hahn

        return format_hahn(self)


def _hahn(p: int, data: dict, cut) -> HahnSum:
    """Hahn sum from exponent -> unreduced coefficient and a cutoff."""
    exps, coeffs = _canonical_terms(p, data, cut, ExponentVector._fast_bounds.fget)
    return HahnSum(p, tuple(zip(exps, coeffs)), cut)
