"""Euclidean division and gcd for one-variable restricted power series.

Division writes f = q*g + r with deg r < d(g), where d is the Euclidean
degree (largest index attaining the Gauss norm).  Coefficient divisions
happen in the Laurent field to a finite cutoff, so the result is exact
only when every step is; otherwise the identity holds up to the
requested slack, which is recorded on the remainder.  The algorithm
long-divides top down by g at its own Gauss norm: each step subtracts
step * X^shift * g, which clears a degree >= d(g) and leaves the smaller
tail terms above it for the next round.  The remainder's norm drops by
a fixed factor e^-contraction per round, so the number of rounds needed
for the target is known before the first one and is the loop's bound
(see ``divide``).

The rounds run on exact values at one lattice level: each X-degree is a
dict from lattice int to unreduced int, reduced mod p only where it is
read, and q and r become canonical series once, at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BackendMismatch, DomainError, PrecisionError
from .field import LaurentSeries, NormValue, _canonical, _denominator_level, _product
from .tate import TateElem, _dominant_degree, _from_pairs, euclid_degree, gauss_norm


def _require_exact_t1(f: TateElem, name: str) -> None:
    if f.n != 1:
        raise DomainError(f"{name} must be a one-variable series")
    if f.slack is not None:
        raise DomainError(f"{name} must be exact (no slack)")
    if any(not isinstance(c, LaurentSeries) for _, c in f.terms):
        raise BackendMismatch("division needs Laurent coefficients")


def divide(
    f: TateElem, g: TateElem, target_slack: NormValue
) -> tuple[TateElem, TateElem]:
    """Euclidean division f = q*g + r, deg r < d(g), up to target_slack.

    The returned r carries the norm of the discarded correction as its
    slack bound (exact when the iteration terminates with no residue);
    q is always explicit.

    Round bound.  Let |g| = e^-v.  The dominant coefficient has norm
    e^-v and ``inv_dominant``, its inverse exact to t^kappa, norm e^v;
    every head coefficient (degree <= d(g)) has norm <= e^-v and every
    tail coefficient norm <= e^-(v + c_t) with c_t > 0.  In a round each
    step c * inv_dominant has norm |c| e^v <= |h| e^v, so the head's
    updates stay within |h| and clear each degree >= d(g) up to the
    inverse's error, of norm <= |h| e^-kappa, while the tail adds terms of
    norm <= |h| e^-c_t above it.  One round thus takes |h| to at most
    |h| e^-contraction, where contraction = min(kappa, c_t) <= kappa.  As
    h starts at |f| <= e^-floor_exp, after ceil((tau - floor_exp) /
    contraction) rounds (none when that is not positive) |h| <= e^-tau
    and the stop test holds.  ``cap`` is that count and h is tested
    cap + 1 times, so the PrecisionError is unreachable; it stays as a
    defensive path.

    Working precision.  kappa = max(1, tau - floor_exp + 2) is fixed by
    the printed output, not a guessed cap to be derived away: the bound
    above holds for every kappa > 0, but q's terms past the target come
    from the inverse's truncation at t^kappa and so depend on it.  A
    margin of +1 in place of +2 changes printed answers.

    No scaling.  Dividing by t^-v g, of Gauss norm one, gives r and t^v q
    term for term: the inverse of its dominant coefficient is this one's
    times t^v (``inverse``'s u and the recurrence's range do not depend
    on v), so its steps are this one's times t^v and cancel t^-v in
    step * g; v is on its coefficient's lattice, so the common level is
    the same.
    """
    _require_exact_t1(f, "dividend")
    _require_exact_t1(g, "divisor")
    if not (target_slack.is_finite and isinstance(target_slack.exponent, Fraction)):
        raise DomainError("target slack must be a finite Laurent-scale norm")
    if not g.terms:
        raise DomainError("zero-divisor: cannot divide by zero")
    p = g.terms[0][1].p
    if not f.terms:
        return TateElem.zero(1, p), TateElem.zero(1, p)

    tau = target_slack.exponent
    order, g_norm = _dominant_degree(g, 0)
    floor_exp = min(Fraction(0), gauss_norm(f).exponent)
    kappa = max(Fraction(1), tau - floor_exp + 2)
    if _denominator_level(kappa.denominator, p) is None:
        # The inverse's cutoff must lie in the (1/p^e)Z lattice; a higher
        # working precision is as sound, and an integer lies in it.
        kappa = Fraction(math.ceil(kappa))
    inv_dominant = g.coefficient((order,)).inverse(kappa).explicit_part()
    tail = [c.norm().exponent - g_norm.exponent for (d,), c in g.terms if d > order]
    contraction = min([kappa, *tail])
    cap = max(0, math.ceil((tau - floor_exp) / contraction))

    level = max(c.level for _, c in (*f.terms, *g.terms, (None, inv_dominant)))
    inv = _lift(inv_dominant, level)
    g_rows = [(k, _lift(c, level)) for (k,), c in g.terms]
    h = {idx[0]: dict(_lift(c, level)) for idx, c in f.terms}
    q_rows: dict = {}
    for rnd in range(cap + 1):
        h = {d: row for d, row in ((d, _mod(row, p)) for d, row in h.items()) if row}
        # Degrees below d(g) are r's and leave the test after round one.
        least = min((min(row) for d, row in h.items() if d >= order or not rnd),
                    default=None)
        if least is None or Fraction(least, p**level) >= tau:
            break
        # One round, top down: h -= step * X^(d - d(g)) * g clears degree d up
        # to the inverse's error; the tail's smaller terms land above d.
        for d in range(max(h), order - 1, -1):
            if not (row := _mod(h.get(d, {}), p)):
                continue
            step = _mod(_product(row.items(), inv), p).items()
            q_row = q_rows.setdefault(d - order, {})
            for e, c in step:
                q_row[e] = q_row.get(e, 0) + c
            for k, gk in g_rows:
                acc = h.setdefault(d - order + k, {})
                for e1, c1 in step:
                    for e2, c2 in gk:
                        acc[e1 + e2] = acc.get(e1 + e2, 0) - c1 * c2
    else:
        raise PrecisionError("nonconvergence-at-bound: division iteration cap reached")
    slack = None if least is None else NormValue.finite(Fraction(least, p**level))
    q = [((d,), _canonical(p, level, row, None)) for d, row in q_rows.items()]
    r = [((d,), _canonical(p, level, row, None)) for d, row in h.items() if d < order]
    return _from_pairs(1, p, q), _from_pairs(1, p, r if rnd else [], slack)


def _lift(c: LaurentSeries, level: int) -> list:
    """c's (lattice int, coefficient) pairs at a level at least c's."""
    return [(e * c.p ** (level - c.level), a) for e, a in zip(c._exps, c._coeffs)]


def _mod(row: dict, p: int) -> dict:
    return {e: c % p for e, c in row.items() if c % p}


def gcd(f: TateElem, g: TateElem, target_slack: NormValue) -> TateElem:
    """Greatest common divisor up to unit and slack, normalized to the
    monic polynomial representative of degree d(gcd).

    Runs Euclid's algorithm with divisions at the target slack; remainder
    slacks are stripped between steps (a remainder whose explicit norm
    falls under the target counts as zero).  The final normalization
    divides X^d by the last nonzero element: X^d minus that remainder is
    the monic degree-d polynomial generating the same ideal, which turns
    every unit gcd into exactly 1.
    """
    _require_exact_t1(f, "first input")
    _require_exact_t1(g, "second input")
    if not f.terms and not g.terms:
        raise DomainError("zero-input: gcd(0, 0) is undefined")
    p = (f.terms or g.terms)[0][1].p
    a, b = f, g
    while b.terms:
        _, r = divide(a, b, target_slack)
        r_explicit = TateElem(1, p, r.terms)
        if gauss_norm(r_explicit).compare(target_slack) <= 0:
            r_explicit = TateElem.zero(1, p)
        a, b = b, r_explicit
    d = a
    order = euclid_degree(d)
    x_power = TateElem.monomial(1, (order,), LaurentSeries.one(p))
    _, rem = divide(x_power, d, target_slack)
    return x_power - rem
