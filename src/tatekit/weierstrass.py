"""Euclidean division and gcd for one-variable restricted power series.

Division writes f = q*g + r with deg r < d(g), where d is the Euclidean
degree (largest index attaining the Gauss norm).  Coefficient divisions
happen in the Laurent field to a finite cutoff, so the result is exact
only when every step is; otherwise the identity holds up to the
requested slack, which is recorded on the remainder.  The algorithm
pre-scales g by a monomial so its dominant coefficient has norm one,
long-divides by the part of degree <= d(g), and iterates on the
correction term, whose norm drops by a fixed factor per round.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BackendMismatch, DomainError, PrecisionError
from .field import LaurentSeries, NormValue, _denominator_level
from .tate import TateElem, euclid_degree, explicit_max_norm, gauss_norm

# Extra rounds past the predicted convergence point before giving up.
_EXTRA_ROUNDS = 8


def _require_exact_t1(f: TateElem, name: str) -> None:
    if f.n != 1:
        raise DomainError(f"{name} must be a one-variable series")
    if f.slack is not None:
        raise DomainError(f"{name} must be exact (no slack)")
    for _, c in f.terms:
        if not isinstance(c, LaurentSeries):
            raise BackendMismatch("division needs Laurent coefficients")


def _longdiv_pass(
    h: dict[int, LaurentSeries],
    head: dict[int, LaurentSeries],
    inv_dominant: LaurentSeries,
    order: int,
):
    """One top-down elimination of all degrees >= order.

    Returns (u, leftover, low): h = u*head + leftover + low with low of
    degree < order and leftover the small per-degree residues left by the
    truncated inverse.
    """
    work = dict(h)
    u: dict[int, LaurentSeries] = {}
    # Walk every degree down to the order: subtractions refill lower
    # entries, so the range must be dynamic rather than a key snapshot.
    for d in range(max(work), order - 1, -1):
        c = work.get(d)
        if c is None or c.is_zero:
            continue
        step = c * inv_dominant
        if step.is_zero:
            continue
        u[d - order] = step
        for k, pk in head.items():
            pos = d - order + k
            prod = step * pk
            prev = work.get(pos)
            work[pos] = -prod if prev is None else prev - prod
    leftover = {d: c for d, c in work.items() if d >= order and not c.is_zero}
    low = {d: c for d, c in work.items() if d < order and not c.is_zero}
    return u, leftover, low


def divide(
    f: TateElem, g: TateElem, target_slack: NormValue
) -> tuple[TateElem, TateElem]:
    """Euclidean division f = q*g + r, deg r < d(g), up to target_slack.

    The returned r carries the norm of the discarded correction as its
    slack bound (exact when the iteration terminates with no residue);
    q is always explicit.
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
    order = euclid_degree(g)
    gauss_exp = gauss_norm(g).exponent
    scale = None
    gh = {idx[0]: c for idx, c in g.terms}
    if gauss_exp != 0:
        scale = LaurentSeries.t_power(p, -gauss_exp)
        gh = {d: c * scale for d, c in gh.items()}
    head = {d: c for d, c in gh.items() if d <= order}
    tail = {d: c for d, c in gh.items() if d > order}

    f_val = gauss_norm(f).exponent
    floor_exp = min(Fraction(0), f_val)
    kappa = max(Fraction(1), tau - floor_exp + 2)
    if _denominator_level(kappa.denominator, p) is None:
        # The inverse's cutoff must lie in the (1/p^e)Z lattice; a higher
        # working precision is as sound, and an integer lies in it.
        kappa = Fraction(math.ceil(kappa))
    inv_dominant = head[order].inverse(kappa).explicit_part()

    contraction = kappa
    if tail:
        contraction = min(contraction, explicit_max_norm(tail.values()).exponent)
    cap = math.ceil((tau - floor_exp) / contraction) + _EXTRA_ROUNDS

    q: dict[int, LaurentSeries] = {}
    r: dict[int, LaurentSeries] = {}
    h = {idx[0]: c for idx, c in f.terms}
    residue_norm = None
    for _ in range(cap + 1):
        h = {d: c for d, c in h.items() if not c.is_zero}
        if not h:
            residue_norm = None
            break
        bound = explicit_max_norm(h.values())
        if bound.compare(target_slack) <= 0:
            residue_norm = bound
            break
        u, leftover, low = _longdiv_pass(h, head, inv_dominant, order)
        for d, c in u.items():
            q[d] = q[d] + c if d in q else c
        for d, c in low.items():
            r[d] = r[d] + c if d in r else c
        h = leftover
        for du, cu in u.items():
            for dt, ct in tail.items():
                pos = du + dt
                prod = cu * ct
                prev = h.get(pos)
                h[pos] = -prod if prev is None else prev - prod
    else:
        raise PrecisionError(
            "nonconvergence-at-bound: division iteration cap reached"
        )

    if scale is not None:
        q = {d: c * scale for d, c in q.items()}
    q_elem = TateElem.make(1, p, {(d,): c for d, c in q.items()})
    r_elem = TateElem.make(1, p, {(d,): c for d, c in r.items()}, residue_norm)
    return q_elem, r_elem


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
        r_explicit = TateElem.make(1, p, dict(r.terms))
        if (
            r_explicit.terms
            and explicit_max_norm(c for _, c in r_explicit.terms).compare(target_slack)
            <= 0
        ):
            r_explicit = TateElem.zero(1, p)
        a, b = b, r_explicit
    d = a
    order = euclid_degree(d)
    x_power = TateElem.monomial(1, (order,), LaurentSeries.one(p))
    _, rem = divide(x_power, d, target_slack)
    return x_power - rem
