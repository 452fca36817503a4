"""Desk-scale model of the compositum field with finitely many cosets.

The context fixes a prime p and a list of bounded coset representatives
s_1, s_2, ... of the generator cosets: the generators themselves (values
in (0, 1), pairwise distinct signatures mod p, strictly decreasing
values).  Elements of the modeled field are finite Hahn sums whose
exponents meet finitely many cosets of the p-divisible subgroup; the
witness series truncations f_N = sum of t^(-s_i) stay at distance > 1
from every such element, which is the computable core of the
non-density argument.  All norm comparisons are exact exponent
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, PrecisionError
from .exponents import (
    CosetSignature,
    ExponentVector,
    bounded_coset_representatives,
    compare,
)
from .field import HahnSum


@dataclass(frozen=True)
class GabberContext:
    p: int
    reps: tuple[ExponentVector, ...]

    @property
    def count(self) -> int:
        return len(self.reps)

    def rep(self, i: int) -> ExponentVector:
        """1-based access to the i-th representative."""
        if not 1 <= i <= self.count:
            raise DomainError(f"rep-shortage: representative {i} not available")
        return self.reps[i - 1]


def build_context(p: int, count: int) -> GabberContext:
    return GabberContext(p, tuple(bounded_coset_representatives(p, count)))


def signature_set(g: HahnSum, p: int) -> frozenset[CosetSignature]:
    return frozenset(e.signature(p) for e, _ in g.terms)


@dataclass(frozen=True)
class MElem:
    """A finite Hahn sum together with the coset signatures it meets."""

    elem: HahnSum
    signatures: frozenset[CosetSignature]


def melem(ctx: GabberContext, g: HahnSum) -> MElem:
    if g.p != ctx.p:
        raise DomainError("characteristic differs from the context")
    return MElem(g, signature_set(g, ctx.p))


def witness_truncation(ctx: GabberContext, upto: int) -> HahnSum:
    """f_N = t^(-s_1) + ... + t^(-s_N); support strictly increasing since
    the representative values strictly decrease."""
    if upto < 0 or upto > ctx.count:
        raise DomainError(
            f"rep-shortage: asked for {upto} terms, have {ctx.count} representatives"
        )
    return HahnSum.make(ctx.p, {-ctx.rep(i): 1 for i in range(1, upto + 1)})


def missing_coset_index(ctx: GabberContext, g: HahnSum, upto: int) -> int | None:
    """Least i <= upto whose witness coset does not meet g's exponents;
    None when every one of them is present."""
    if upto > ctx.count:
        raise DomainError("rep-shortage: fewer representatives than requested")
    present = signature_set(g, ctx.p)
    for i in range(1, upto + 1):
        if (-ctx.rep(i)).signature(ctx.p) not in present:
            return i
    return None


@dataclass(frozen=True)
class DistanceReport:
    missing_index: int
    bound_exponent: ExponentVector
    actual_exponent: ExponentVector
    passed: bool


def distance_lower_bound_check(
    ctx: GabberContext, g: HahnSum, upto: int
) -> DistanceReport:
    """Certify that the witness truncation stays far from g.

    With i the least missing coset, the difference f_N - g keeps the
    term t^(-s_i), so its norm is at least e^(s_i); since every s_i is
    positive the norm strictly exceeds 1.  Both comparisons are exact
    exponent comparisons and are recorded in the report.  Raises
    PrecisionError when the ball of g swallows every term of f_N - g.

    Only f_K, K = min(N, len(g.terms) + 1), is built, and f_K - g has
    the norm of f_N - g.  If K < N, at most len(g.terms) < K witness
    terms cancel against g, so some t^(-s_j) with j <= K survives in
    both differences.  They differ by the terms t^(-s_i), i > K, whose
    exponents exceed -s_j.  If -s_j lies below g's cutoff, both have the
    same least exponent, at most -s_j; if not, every differing term lies
    at or past the cutoff, so the two sums are equal.
    """
    i = missing_coset_index(ctx, g, upto)
    if i is None:
        raise DomainError("all witness cosets are present in g")
    witness = witness_truncation(ctx, min(upto, len(g.terms) + 1))
    difference = witness - g
    norm = difference.norm()
    if not norm.is_finite:
        raise PrecisionError(
            "undecidable-at-precision: the ball of g swallows the witness terms"
        )
    bound = -ctx.rep(i)
    at_least_bound = compare(norm.exponent, bound) <= 0
    exceeds_one = compare(norm.exponent, ExponentVector.zero()) < 0
    return DistanceReport(i, bound, norm.exponent, at_least_bound and exceeds_one)


def value_group_witness(ctx: GabberContext, exponent: ExponentVector) -> MElem:
    """The monomial t^exponent: norm e^(-exponent), inside the model."""
    return melem(ctx, HahnSum.t_power(ctx.p, exponent))


def residue_witness(ctx: GabberContext, c: int) -> MElem:
    """The constant c, whose residue is c itself."""
    return melem(ctx, HahnSum.constant(ctx.p, c))
