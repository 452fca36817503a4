"""Seeded randomized invariant suites, shared by the CLI and the tests.

Each suite is a trial function: it draws its inputs from the generator
it is given and returns whether every invariant held, so a trial counts
as failed once however many of its invariants break.  ``run_all`` runs
each suite ``trials`` times from its own ``random.Random(seed)``.
Samplers are deliberately small: desk-scale elements exercise every
code path while keeping the whole run under a second.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import gabber
from .exponents import ExponentVector, compare, enclose
from .field import HahnSum, LaurentSeries
from .frobenius import lift_splitting_tate, phi_standard
from .tate import TateElem, gauss_norm

DEFAULT_SEED = 20260810


def sample_exponent_vector(rng: random.Random, max_index=4, max_coeff=6):
    support = rng.sample(range(1, max_index + 1), k=rng.randint(0, max_index))
    return ExponentVector.from_dict(
        {i: rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c]) for i in support}
    )


def sample_laurent(rng: random.Random, p, max_terms=3, min_v=-3, max_v=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[Fraction(rng.randint(min_v, max_v))] = rng.randint(1, p - 1)
    return LaurentSeries.make(p, terms)


def sample_hahn(rng: random.Random, p, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[sample_exponent_vector(rng)] = rng.randint(1, p - 1)
    return HahnSum.make(p, terms)


def sample_tate(rng: random.Random, n, p, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        index = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[index] = sample_laurent(rng, p, max_terms=2)
    return TateElem.make(n, p, terms)


def _tate_frobenius(f: TateElem) -> TateElem:
    powered = {
        tuple(k * f.char for k in idx): c.frobenius() for idx, c in f.terms
    }
    return TateElem.make(f.n, f.char, powered, f.slack)


def _exponent_order(rng: random.Random) -> bool:
    a = sample_exponent_vector(rng)
    b = sample_exponent_vector(rng)
    c = sample_exponent_vector(rng)
    verdict = compare(a, b)
    width = Fraction(1, 10**12)
    ia, ib = enclose(a, width), enclose(b, width)
    return (
        (ia.lo <= ib.hi or verdict == 1)
        and (ia.hi >= ib.lo or verdict == -1)
        and (verdict == 0) == (a.coords == b.coords)
        and compare(a + c, b + c) == verdict
    )


def _strong_triangle(rng: random.Random) -> bool:
    p = rng.choice([2, 3, 5])
    if rng.random() < 0.5:
        x, y = sample_laurent(rng, p), sample_laurent(rng, p)
    else:
        x, y = sample_hahn(rng, p), sample_hahn(rng, p)
    nx, ny = x.norm(), y.norm()
    if nx.compare(ny) == 0:
        return True
    bigger = nx if nx.compare(ny) > 0 else ny
    return (x + y).norm().compare(bigger) == 0


def _gauss_multiplicativity(rng: random.Random) -> bool:
    p = rng.choice([2, 3])
    n = rng.choice([1, 2])
    f = sample_tate(rng, n, p)
    g = sample_tate(rng, n, p)
    return gauss_norm(f * g).compare(gauss_norm(f) * gauss_norm(g)) == 0


def _splitting(rng: random.Random) -> bool:
    p = rng.choice([2, 3, 5])
    n = rng.choice([1, 2])
    phi = phi_standard(p)
    h = sample_tate(rng, n, p)
    f = sample_tate(rng, n, p)
    lhs = lift_splitting_tate(phi, _tate_frobenius(h) * f)
    rhs = h * lift_splitting_tate(phi, f)
    return lhs == rhs and lift_splitting_tate(phi, _tate_frobenius(f)) == f


def _gabber_distance(rng: random.Random) -> bool:
    ctx = gabber.build_context(2, 4)
    terms = {}
    for i in rng.sample(range(1, 5), k=rng.randint(0, 3)):
        shift = sample_exponent_vector(rng, max_index=3, max_coeff=2).scale(2)
        terms[-ctx.rep(i) + shift] = 1
    return gabber.distance_lower_bound_check(ctx, HahnSum.make(2, terms), 4).passed


_SUITES = (
    ("exponent-order", _exponent_order),
    ("strong-triangle", _strong_triangle),
    ("gauss-multiplicativity", _gauss_multiplicativity),
    ("splitting-identities", _splitting),
    ("gabber-distance", _gabber_distance),
)


def run_all(seed: int, trials: int) -> list[tuple[str, int]]:
    """Return ``(suite name, failing trials)`` for each suite, in order."""
    results = []
    for name, trial in _SUITES:
        rng = random.Random(seed)
        results.append((name, sum(not trial(rng) for _ in range(trials))))
    return results
