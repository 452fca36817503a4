"""Restricted power series with finite support and a Gauss-norm slack.

A ``TateElem`` is a finitely supported table of exact field coefficients
indexed by multi-indices, plus an optional slack bound: the element is
the explicit sum up to an unknown remainder of Gauss norm at most the
slack.  Normalization folds any coefficient whose norm does not exceed
the slack into the slack, so explicit coefficients always dominate and
the Gauss norm of a nonempty element is exact.

``TateElem.make`` checks a caller's indices and coefficients once and hands
them to ``_from_pairs``, the one trusted builder (it merges repeated indices,
drops zeros, folds the slack, sorts), which internal results call directly.
Checks stay where a coefficient can come from a caller: ``constant``,
``monomial``, ``map_coefficients``, parsed input, a twist with a ball.

Operations: ring arithmetic with documented slack propagation, the Gauss
norm, unit and distinguished-order tests, the degree function that makes
the one-variable algebra Euclidean, shear automorphisms
X_i -> X_i +/- X_n^(a_i), a search for shears making given elements
distinguished in the last variable (decided on their reductions over
F_p), and the projection killing all but one variable.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import BackendMismatch, DomainError, PrecisionError, SearchExhausted
from .field import NormValue

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class DistinguishedReport:
    order: int
    dominant_norm: NormValue
    is_distinguished: bool


@dataclass(frozen=True)
class AutomorphismSpec:
    """Shear X_i -> X_i + X_n^(exponents[i-1]) for i < n, fixing X_n.

    The inverse substitutes X_i - X_n^(exponents[i-1]); arity is
    len(exponents) + 1.
    """

    exponents: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.exponents) + 1


@dataclass(frozen=True)
class TateElem:
    """Finitely supported series with exact coefficients and slack."""

    n: int
    char: int
    terms: tuple[tuple[MultiIndex, object], ...]
    slack: NormValue | None = None

    @classmethod
    def make(cls, n: int, char: int, coeffs, slack: NormValue | None = None) -> TateElem:
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        pairs = []
        for index, coeff in items:
            index = tuple(int(k) for k in index)
            if len(index) != n or any(k < 0 for k in index):
                raise DomainError(f"multi-index {index} invalid for arity {n}")
            if coeff.p != char:
                raise BackendMismatch("coefficient characteristic differs")
            if coeff.cutoff is not None:
                raise DomainError("coefficients must be exact (no ball)")
            pairs.append((index, coeff))
        if slack is not None and not isinstance(slack, NormValue):
            raise DomainError("slack must be a norm value")
        return _from_pairs(n, char, pairs, slack)

    @classmethod
    def zero(cls, n: int, char: int) -> TateElem:
        return cls(n, char, ())

    @classmethod
    def constant(cls, n: int, coeff) -> TateElem:
        return cls.make(n, coeff.p, {tuple([0] * n): coeff})

    @classmethod
    def monomial(cls, n: int, index: MultiIndex, coeff) -> TateElem:
        return cls.make(n, coeff.p, {tuple(index): coeff})

    @property
    def is_zero(self) -> bool:
        """Exactly zero: empty explicit part and no slack."""
        return not self.terms and self.slack is None

    def coefficient(self, index: MultiIndex):
        index = tuple(index)
        for idx, c in self.terms:
            if idx == index:
                return c
        return None

    def total_degree(self) -> int:
        return max((sum(idx) for idx, _ in self.terms), default=0)

    def _check_compatible(self, other: TateElem) -> None:
        if not isinstance(other, TateElem):
            raise BackendMismatch("expected a restricted power series")
        if self.n != other.n:
            raise BackendMismatch("arity mismatch")
        if self.char != other.char:
            raise BackendMismatch("characteristics differ")

    def __add__(self, other: TateElem) -> TateElem:
        self._check_compatible(other)
        slack = _largest((self.slack, other.slack))
        return _from_pairs(self.n, self.char, self.terms + other.terms, slack)

    def __neg__(self) -> TateElem:
        return TateElem(
            self.n, self.char, tuple((idx, -c) for idx, c in self.terms), self.slack
        )

    def __sub__(self, other: TateElem) -> TateElem:
        return self + (-other)

    def __mul__(self, other: TateElem) -> TateElem:
        return _product(self, other, 1)

    def map_coefficients(self, fn) -> TateElem:
        pairs = [(idx, fn(c)) for idx, c in self.terms]
        return TateElem.make(self.n, self.char, pairs, self.slack)

    def __str__(self) -> str:
        from .parsing import format_tate

        return format_tate(self)


def _from_pairs(n: int, char: int, pairs, slack: NormValue | None = None) -> TateElem:
    """The canonical element from trusted (multi-index, exact coefficient)
    pairs, an index possibly repeated (see the module docstring)."""
    data = {}
    for index, coeff in pairs:
        if index in data:
            coeff = data.pop(index) + coeff
        if not coeff.is_zero:
            data[index] = coeff
    slack = None if slack is None or slack.is_zero else NormValue.finite(slack.exponent)
    if slack is not None:
        data = {idx: c for idx, c in data.items() if c.norm().compare(slack) > 0}
    return TateElem(n, char, tuple(sorted(data.items())), slack)


def _product(a: TateElem, b: TateElem, m: int) -> TateElem:
    """a * b at the indices with every coordinate divisible by m (all of
    them for m = 1), with the full product's slack."""
    a._check_compatible(b)
    pairs = (
        (idx, c1 * c2)
        for i1, c1 in a.terms
        for i2, c2 in b.terms
        for idx in [tuple(x + y for x, y in zip(i1, i2))]
        if m == 1 or not any(k % m for k in idx)
    )
    candidates = []
    if a.slack is not None:
        g = _largest(c.norm() for _, c in b.terms)
        if g is not None:
            candidates.append(a.slack * g)
    if b.slack is not None:
        g = _largest(c.norm() for _, c in a.terms)
        if g is not None:
            candidates.append(b.slack * g)
    if a.slack is not None and b.slack is not None:
        candidates.append(a.slack * b.slack)
    if m != 1 and a.terms and b.terms:  # a * b's first pair raises on mixed backends
        a.terms[0][1]._check_compatible(b.terms[0][1])
    return _from_pairs(a.n, a.char, pairs, _largest(candidates))


def _largest(norms) -> NormValue | None:
    """The largest of an iterable of norms, skipping None (None if all
    are); the first of equal norms wins."""
    best = None
    for norm in norms:
        if norm is not None and (best is None or norm.compare(best) > 0):
            best = norm
    return best


def gauss_norm(f: TateElem) -> NormValue:
    """Maximum coefficient norm.  Exact whenever the explicit part is
    nonempty (normalization folds dominated coefficients into slack);
    a slack-only element yields only an upper bound."""
    if f.terms:
        return _largest(c.norm() for _, c in f.terms)
    if f.slack is None:
        return NormValue.zero()
    return NormValue.at_most(f.slack.exponent)


def is_unit(f: TateElem) -> bool:
    """True when the constant coefficient strictly dominates everything.

    Requires the slack to sit strictly below the constant term's norm
    (or an exact element); otherwise the question is undecidable at the
    stored precision.  Terms are sorted, so a constant term comes first.
    """
    const = f.terms[0][1] if f.terms and not any(f.terms[0][0]) else None
    const_norm = const.norm() if const is not None else NormValue.zero()
    if f.slack is not None:
        if const_norm.is_zero or const_norm.compare(f.slack) <= 0:
            raise PrecisionError(
                "undecidable-at-precision: slack reaches the constant term"
            )
    elif const_norm.is_zero:
        return False
    return all(const_norm.compare(c.norm()) > 0 for _, c in f.terms[1:])


def _dominant_degree(f: TateElem, pos: int) -> tuple[int, NormValue]:
    """The largest degree in X_(pos+1) whose coefficient attains the Gauss
    norm of a nonempty exact f, and that norm, in one pass: a
    coefficient's Gauss norm is the largest norm of the terms of its
    degree, as their other indices differ."""
    degree, best = -1, None
    for idx, c in f.terms:
        sign = 1 if best is None else c.norm().compare(best)
        if sign > 0 or (sign == 0 and idx[pos] > degree):
            degree, best = idx[pos], c.norm()
    return degree, best


def distinguished_order(g: TateElem, axis: int | None = None) -> DistinguishedReport:
    """Largest-index dominant criterion along the chosen variable.

    Writes g as a series in X_axis with coefficients in the other
    variables, finds the largest index s whose coefficient attains the
    Gauss norm (everything above is then strictly smaller), and tests
    that coefficient for being a unit.
    """
    if axis is None:
        axis = g.n
    if not 1 <= axis <= g.n:
        raise DomainError(f"axis {axis} out of range for arity {g.n}")
    if g.slack is not None:
        raise DomainError("distinguished order needs an exact element")
    if not g.terms:
        raise DomainError("zero-input: the zero series has no distinguished order")
    pos = axis - 1
    order, total = _dominant_degree(g, pos)
    coeff = [(idx[:pos] + idx[pos + 1 :], c) for idx, c in g.terms if idx[pos] == order]
    return DistinguishedReport(order, total, is_unit(_from_pairs(g.n - 1, g.char, coeff)))


def euclid_degree(f: TateElem) -> int:
    """Largest index attaining the Gauss norm (one variable only)."""
    if f.n != 1:
        raise DomainError("the Euclidean degree is defined in one variable")
    if f.slack is not None:
        raise DomainError("the Euclidean degree needs an exact element")
    if not f.terms:
        raise DomainError("zero-input: the zero series has no degree")
    return _dominant_degree(f, 0)[0]


def _lucas_entry(k: int, p: int, r: int) -> tuple[int, int] | None:
    """The r-th of the j with C(k, j) nonzero mod p, largest (j = k) at
    r = 0, and C(k, j) mod p, or None past the last: j's base-p digits are
    k's minus r's digits in the mixed radix k_d + 1, least significant
    first, and C(k, j) is the product of the digits' binomials (Lucas)."""
    j, c, place = 0, 1, 1
    while k:
        k, digit = divmod(k, p)
        r, back = divmod(r, digit + 1)
        j += (digit - back) * place
        c = c * math.comb(digit, back) % p
        place *= p
    return None if r else (j, c)


def _binomial_row(k: int, p: int, sign: int) -> list[tuple[int, int]]:
    """(j, C(k, j) sign^j mod p) for the j with C(k, j) nonzero mod p, largest
    first: prod (k_d + 1) of them, by Lucas' theorem (see _lucas_entry)."""
    row = []
    while (entry := _lucas_entry(k, p, len(row))) is not None:
        row.append(entry)
    return [(j, c * sign**j % p) for j, c in row]


def apply_automorphism(
    spec: AutomorphismSpec, f: TateElem, inverse: bool = False
) -> TateElem:
    """Substitute X_i -> X_i +/- X_n^(a_i) for i < n and expand exactly."""
    n = spec.arity
    if f.n != n:
        raise BackendMismatch(
            f"automorphism arity {n} does not match series arity {f.n}"
        )
    sign = -1 if inverse else 1
    pairs = []
    for idx, coeff in f.terms:
        head, last = idx[:-1], idx[-1]
        # One binomial expansion per sheared variable.
        rows = [_binomial_row(k, f.char, sign) for k in head]
        for choice in itertools.product(*rows):
            factor = math.prod(fj for _, fj in choice) % f.char
            extra = sum(a * j for a, (j, _) in zip(spec.exponents, choice))
            new_idx = tuple(k - j for k, (j, _) in zip(head, choice)) + (last + extra,)
            pairs.append((new_idx, coeff.scalar_mul(factor)))
    return _from_pairs(f.n, f.char, pairs, f.slack)


def _top_part_is_constant(bar, exponents: tuple[int, ...], p: int) -> bool:
    """Whether the top X_n-degree part of the image of the F_p polynomial
    bar ((multi-index, int) pairs) under X_i -> X_i + X_n^(a_i), every
    a_i >= 1, is a constant (see find_distinguishing_automorphism).

    Past the top degree, the Lucas terms are popped from a heap by
    decreasing X_n-degree.  Term (i, pos) takes the pos[k]-th largest
    entry of each sheared variable's Lucas row; its children raise one
    position at or after its last nonzero one.  So each term has one
    parent (lower its last nonzero position) and lies no higher than it,
    every degree is complete when the next pop is lower, and the walk
    stops after the first degree whose sum is nonzero.  It pops the terms
    at or above that degree and one more, and pushes one root per term of
    bar and at most n - 1 children per pop.
    """
    top, lead = -1, 0
    for alpha, r in bar:
        degree = alpha[-1] + sum(map(operator.mul, exponents, alpha))
        if degree > top:
            top, lead = degree, 0
        if degree == top:
            lead += r
    if lead % p:
        return True
    import heapq  # only a cancelling top walks down, so only it loads heapq

    heap = []

    def push(i, pos, last):
        alpha, c = bar[i]
        js = []
        for k, s in zip(alpha, pos):
            entry = _lucas_entry(k, p, s)
            if entry is None:
                return
            js.append(entry[0])
            c = c * entry[1] % p
        degree = alpha[-1] + sum(map(operator.mul, exponents, js))
        heapq.heappush(heap, (-degree, i, pos, last, js, c))

    for i in range(len(bar)):
        push(i, (0,) * len(exponents), 0)
    level, part = None, {}
    while heap:
        key, i, pos, last, js, c = heapq.heappop(heap)
        if key != level:
            if part:
                break
            level = key
        index = tuple(map(operator.sub, bar[i][0], js))
        c = (part.pop(index, 0) + c) % p
        if c:
            part[index] = c
        for k in range(last, len(pos)):
            push(i, pos[:k] + (pos[k] + 1,) + pos[k + 1 :], k)
    return list(part) == [(0,) * len(exponents)]


def find_distinguishing_automorphism(gs: list[TateElem]) -> AutomorphismSpec:
    """Search for a shear making every input distinguished in X_n.

    Tries the identity-like zero exponent vector first, then the
    staircase a_i = 1 + c * (D+1)^(n-i) for c = 0, 1, where D is the
    maximal total degree, and returns the first candidate that makes
    every input distinguished.

    Each candidate is decided on g's reduction, with no expansion.  Let
    e^-v be the Gauss norm of g and gbar = sum r_alpha X^alpha in F_p[X],
    r_alpha the t^v-coefficient of c_alpha, nonzero exactly where c_alpha
    attains the norm.  A shear and its inverse have coefficients +/-1, so
    they map the unit ball onto itself and commute with reduction: the
    reduction of t^-v sigma(g) is sigmabar(gbar), nonzero as sigmabar is
    invertible.  So the largest X_n-degree s at which sigma(g) attains
    its Gauss norm is the top X_n-degree of sigmabar(gbar), and that
    coefficient, a series in X' = X_1..X_(n-1), is a unit (the test of
    distinguished_order) exactly when its reduction, the X_n^s part of
    sigmabar(gbar), is a nonzero constant.
    - The zero candidate X_i -> X_i + 1 keeps every X_n-degree and only
      translates X', so that part is a constant exactly when gbar's is:
      it succeeds exactly when g is already distinguished.
    - For a_i >= 1, by Lucas' theorem sigmabar(X^alpha) is the sum over
      j <= alpha' digitwise in base p of C(alpha', j) X'^(alpha' - j)
      X_n^(alpha_n + a.j).  The top degree M = max (alpha_n + a.alpha')
      is reached only at j = alpha', with X'-index 0, so its part is the
      constant sum of r_alpha over the alpha at M, and the candidate
      succeeds when that is nonzero mod p.  Otherwise
      _top_part_is_constant walks the degrees downward, so its work
      follows the terms of the expansion at or above the answer's degree,
      not the whole expansion.
    Any c >= 1 works: the shear sends X^alpha to X_n^e plus terms of
    lower X_n-degree, where e = |alpha| + c (D+1) M and M has base-(D+1)
    digits alpha_1..alpha_{n-1}.  As |alpha| <= D < c (D+1), e is
    injective on the support, so the norm-attaining term with the largest
    e alone reaches X_n^e at full norm, as a constant coefficient: the
    largest index attaining the Gauss norm has a unit coefficient.  The
    error is therefore unreachable and kept as a defensive path.
    """
    if not gs:
        raise DomainError("need at least one series")
    n = gs[0].n
    char = gs[0].char
    for g in gs:
        if g.n != n or g.char != char:
            raise BackendMismatch("series from different algebras")
        if g.slack is not None:
            raise DomainError("search needs exact elements")
        if not g.terms:
            raise DomainError("zero-input: zero is never distinguished")
    if n == 1:
        return AutomorphismSpec(())
    reports = [distinguished_order(g, n) for g in gs]
    if all(report.is_distinguished for report in reports):
        return AutomorphismSpec(tuple([0] * (n - 1)))
    bars = [
        [(idx, c.coefficient(norm.exponent)) for idx, c in g.terms if c.norm() == norm]
        for g, norm in zip(gs, (report.dominant_norm for report in reports))
    ]
    degree = max(g.total_degree() for g in gs)
    weights = [(degree + 1) ** (n - 1 - i) for i in range(n - 1)]
    for c in range(2):
        exponents = tuple(1 + c * w for w in weights)
        if all(_top_part_is_constant(bar, exponents, char) for bar in bars):
            return AutomorphismSpec(exponents)
    raise SearchExhausted("no distinguishing shear within the degree bound")


def project_kill_vars(f: TateElem, keep_axis: int) -> TateElem:
    """Send every variable except one to zero, yielding a one-variable
    series; the slack is preserved (projection never increases norms)."""
    if not 1 <= keep_axis <= f.n:
        raise DomainError(f"axis {keep_axis} out of range for arity {f.n}")
    pos = keep_axis - 1
    pairs = [
        ((idx[pos],), c)
        for idx, c in f.terms
        if all(k == 0 for j, k in enumerate(idx) if j != pos)
    ]
    return _from_pairs(1, f.char, pairs, f.slack)
