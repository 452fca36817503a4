"""The benchmark's four workloads.

Each workload turns a ``random.Random`` into passes of ops.  An op is
one top-level call into tatekit (one ``divide``, one identity check,
one CLI process).  Inputs are plain dicts drawn from the seed alone;
``prepare`` builds library objects from them outside the timed region,
``run`` is the timed call, and ``check`` verifies the answer against
``oracles`` afterwards, also untimed.

A pass covers a fixed grid (division) or one op of each kind (the
others) with fresh draws, so every pass does a comparable amount of
work and a run that measures whole passes is steady across seeds.  The
kinds are not weighted: the repository has no record of real usage to
weight them by.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter
from types import SimpleNamespace

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

LIBRARY_MODULES = (
    "exponents",
    "field",
    "tate",
    "weierstrass",
    "frobenius",
    "gabber",
    "parsing",
)


def import_library() -> SimpleNamespace:
    """Import tatekit from scratch, dropping modules imported before, so
    set-up can be timed more than once in one process."""
    for name in [m for m in sys.modules if m == "tatekit" or m.startswith("tatekit.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"tatekit.{m}") for m in LIBRARY_MODULES}
    )


@dataclass
class Op:
    kind: str
    data: dict


def inputs_digest(passes: list[list[Op]]) -> str:
    text = repr([[(op.kind, op.data) for op in ops] for ops in passes])
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Seeded plain-data inputs


def draw_coeff(rng: Random, p: int, v: int, nterms: int, gap: int) -> dict:
    """A Laurent coefficient of valuation v with one or two terms."""
    c = {v: rng.randint(1, p - 1)}
    if nterms == 2:
        c[v + gap] = rng.randint(1, p - 1)
    return c


def draw_tate(rng: Random, n: int, p: int, nterms: int, max_exp: int = 2,
              lo: int = -1, hi: int = 3) -> dict:
    terms = {}
    while len(terms) < nterms:
        idx = tuple(rng.randint(0, max_exp) for _ in range(n))
        terms[idx] = draw_coeff(rng, p, rng.randint(lo, hi), rng.randint(1, 2),
                                rng.randint(1, 2))
    return terms


def draw_vector(rng: Random, max_index: int = 4, max_coeff: int = 6) -> tuple:
    support = rng.sample(range(1, max_index + 1), rng.randint(0, 3))
    return tuple(sorted(
        (i, rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c]))
        for i in support
    ))


def draw_hahn(rng: Random, p: int, nterms: int) -> dict:
    terms = {}
    while len(terms) < nterms:
        terms[draw_vector(rng)] = rng.randint(1, p - 1)
    return terms


def as_exact(data: dict) -> dict:
    """Plain Tate data as an oracle dict with Fraction exponents."""
    return {idx: {Fraction(e): c for e, c in coeff.items()} for idx, coeff in data.items()}


# ---------------------------------------------------------------------------
# Library objects from plain data


class Builder:
    def __init__(self, lib):
        self.lib = lib

    def laurent(self, p: int, terms: dict):
        return self.lib.field.LaurentSeries.make(
            p, {Fraction(e): c for e, c in terms.items()}
        )

    def tate(self, n: int, p: int, terms: dict):
        return self.lib.tate.TateElem.make(
            n, p, {idx: self.laurent(p, c) for idx, c in terms.items()}
        )

    def vector(self, coords):
        return self.lib.exponents.ExponentVector.from_dict(dict(coords))

    def hahn(self, p: int, terms: dict):
        return self.lib.field.HahnSum.make(
            p, {self.vector(e): c for e, c in terms.items()}
        )

    def norm(self, v):
        return self.lib.field.NormValue.finite(Fraction(v))


class Workload:
    """One workload: seeded passes of ops, the timed call and the check."""

    name = ""
    # Set during a traced run.
    tracer = None
    # Passes a traced run replays; a fixed count keeps traced counts
    # comparable between commits.
    trace_passes = 1

    def __init__(self, lib, root: str):
        self.lib = lib
        self.root = root
        self.build = Builder(lib)

    def warm_up(self) -> None:
        """Set-up work users pay once, done before the first timed op."""

    # Op kinds; a pass has one op of each, in shuffled order.
    KINDS: tuple = ()

    def make_pass(self, rng: Random) -> list[Op]:
        ops = [Op(kind, self.draw(kind, rng)) for kind in self.KINDS]
        rng.shuffle(ops)
        return ops

    def draw(self, kind: str, rng: Random) -> dict:
        return getattr(self, f"_draw_{kind}")(rng)

    def prepare(self, op: Op):
        """Library objects for the op, built outside the timed region."""
        raise NotImplementedError

    def run(self, op: Op, args):
        raise NotImplementedError

    def check(self, op: Op, args, result) -> str | None:
        raise NotImplementedError

    def divides(self, op: Op) -> int:
        """``weierstrass.divide`` calls the op makes in this process."""
        return 0

    def record(self, op: Op) -> dict | None:
        """Per-op fields kept in the results file, or None."""
        return None


# ---------------------------------------------------------------------------
# division


DIVISION_PRIMES = (2, 3, 5)
DIVISION_TAUS = (2, 4, 8, 12)
# (pivot terms, tail contraction, dividend terms).  A two-term pivot
# needs a geometric-series inverse; a tail of valuation c above the pivot
# makes each round gain only c in precision.  Both grow the Laurent
# products with tau, so these four shapes span cheap to expensive.
DIVISION_SHAPES = {
    "exact": (1, 0, 4),
    "tail": (1, 1, 3),
    "pivot2": (2, 0, 3),
    "pivot2_tail": (2, 3, 2),
}
# Degrees of the dividend; the divisor has degree 1, so the quotient has
# degree - 1 terms to find.  The cost of a cell grows about 3x from
# degree 2 to degree 4.
DIVISION_DEGREES = (2, 4)


def draw_division(rng: Random, p: int, tau: int, shape: str, degree: int) -> dict:
    """One division input of the given shape and dividend degree.  The
    shape fixes the operands' structure; the seed picks the F_p
    coefficients and the degrees of the dividend's lower terms.  With
    the structure and degree fixed, the cost of one cell varies little
    between seeds, so runs are comparable."""
    pivot_terms, contraction, f_terms = DIVISION_SHAPES[shape]
    g = {(1,): draw_coeff(rng, p, 0, pivot_terms, 1), (0,): draw_coeff(rng, p, 1, 1, 0)}
    if contraction:
        g[(2,)] = draw_coeff(rng, p, contraction, 1, 0)
    degrees = [degree] + rng.sample(range(degree), min(f_terms - 1, degree))
    f = {(k,): draw_coeff(rng, p, 0, 2, 1) for k in sorted(degrees)}
    return {"p": p, "tau": tau, "shape": shape, "f": f, "g": g}


def _size(data: dict) -> tuple[int, int]:
    return max(idx[0] for idx in data), sum(len(c) for c in data.values())


class Division(Workload):
    name = "division"
    trace_passes = 4

    def make_pass(self, rng):
        ops = [
            Op("divide", draw_division(rng, p, tau, shape, degree))
            for p in DIVISION_PRIMES
            for tau in DIVISION_TAUS
            for shape in DIVISION_SHAPES
            for degree in DIVISION_DEGREES
        ]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        d = op.data
        p = d["p"]
        return (self.build.tate(1, p, d["f"]), self.build.tate(1, p, d["g"]),
                self.build.norm(d["tau"]))

    def run(self, op, args):
        return self.lib.weierstrass.divide(*args)

    def check(self, op, args, result):
        q, r = result
        d = op.data
        slack = None if r.slack is None else r.slack.exponent
        return oracles.check_division(
            d["p"], d["tau"], as_exact(d["f"]), as_exact(d["g"]),
            oracles.tate_dict(q), oracles.tate_dict(r), slack,
        )

    def divides(self, op):
        return 1

    def record(self, op):
        d = op.data
        deg_f, terms_f = _size(d["f"])
        deg_g, terms_g = _size(d["g"])
        return {"p": d["p"], "tau": d["tau"], "shape": d["shape"],
                "deg_f": deg_f, "deg_g": deg_g,
                "terms_f": terms_f, "terms_g": terms_g}


# ---------------------------------------------------------------------------
# series


def _certificate(f: dict, radii: tuple) -> Fraction:
    """Smallest log-bound covering f: max of -v(a) + sum(k_j * rho_j)."""
    return max(
        -min(Fraction(e) for e in coeff) + sum(k * r for k, r in zip(idx, radii))
        for idx, coeff in f.items()
    )


# Box of the normalizing monomial search: t^a X^b, |a| <= 1, 0 <= b <= 1.
NORMALIZE_BOUND = 1


class Series(Workload):
    name = "series"
    trace_passes = 300
    # Tiny operands, so per-call overhead dominates.
    KINDS = ("product", "shear", "lift_hp", "lift_fp", "certified", "normalize")

    def _draw_product(self, rng):
        p, n = rng.choice((2, 3)), rng.choice((2, 3))
        return {"p": p, "n": n, "f": draw_tate(rng, n, p, rng.randint(1, 3)),
                "g": draw_tate(rng, n, p, rng.randint(1, 3))}

    def _draw_shear(self, rng):
        p, n = rng.choice((2, 3)), rng.choice((2, 3))
        return {"p": p, "n": n, "g": draw_tate(rng, n, p, rng.randint(1, 3))}

    def _draw_lift_hp(self, rng):
        p = rng.choice((2, 3))
        f = {}
        target = rng.randint(1, 3)
        while len(f) < target:
            # Half the terms survive the splitting: p-divisible index and exponent.
            m = p if rng.random() < 0.5 else 1
            idx = tuple(m * rng.randint(0, 2) for _ in range(2))
            f[idx] = draw_coeff(rng, p, m * rng.randint(-1, 2), 1, 0)
        return {"p": p, "n": 2, "h": draw_tate(rng, 2, p, rng.randint(1, 2), 1),
                "f": f}

    def _draw_lift_fp(self, rng):
        p = rng.choice((2, 3))
        return {"p": p, "n": 2, "f": draw_tate(rng, 2, p, rng.randint(1, 2), 1)}

    def _draw_certified(self, rng):
        p = rng.choice((2, 3))
        f = draw_tate(rng, 2, p, rng.randint(1, 3))
        radii = tuple(Fraction(rng.randint(0, 2), 2) for _ in range(2))
        return {"p": p, "n": 2, "f": f, "radii": radii,
                "bound": _certificate(f, radii)}

    def _draw_normalize(self, rng):
        p = rng.choice((2, 3))
        twist = {(0, 0): {0: 1}}
        target = 1 + rng.randint(1, 2)
        while len(twist) < target:
            idx = (rng.randint(0, 1) * p, rng.randint(0, 2))
            if idx != (0, 0):
                twist[idx] = draw_coeff(rng, p, p * rng.randint(1, 2), 1, 0)
        f = {}
        target = rng.randint(1, 2)
        while len(f) < target:
            f[(rng.randint(0, 2),)] = draw_coeff(rng, p, rng.randint(0, 3), 1, 0)
        return {"p": p, "shear": rng.randint(1, 2), "twist": twist, "f": f,
                "tau": rng.randint(2, 3)}

    def prepare(self, op):
        d, b, fr = op.data, self.build, self.lib.frobenius
        p = d["p"]
        if op.kind == "product":
            return b.tate(d["n"], p, d["f"]), b.tate(d["n"], p, d["g"])
        if op.kind == "shear":
            return (b.tate(d["n"], p, d["g"]),)
        if op.kind == "lift_hp":
            return fr.phi_standard(p), b.tate(2, p, d["h"]), b.tate(2, p, d["f"])
        if op.kind == "lift_fp":
            return fr.phi_standard(p), b.tate(2, p, d["f"])
        if op.kind == "certified":
            cert = fr.ConvergenceCertificate(d["radii"], d["bound"])
            return fr.phi_standard(p), b.tate(2, p, d["f"]), cert
        sigma = self.lib.tate.AutomorphismSpec((d["shear"],))
        psi = fr.ReducedMap(fr.phi_standard(p), sigma, 2, b.tate(2, p, d["twist"]))
        return psi, b.tate(1, p, d["f"]), b.norm(d["tau"])

    def run(self, op, args):
        lib = self.lib
        if op.kind == "product":
            h = args[0] * args[1]
            return h, lib.tate.gauss_norm(h)
        if op.kind == "shear":
            spec = lib.tate.find_distinguishing_automorphism([args[0]])
            return spec, lib.tate.apply_automorphism(spec, args[0])
        if op.kind in ("lift_hp", "lift_fp"):
            phi, x = args[0], args[1]
            power = x
            for _ in range(phi.p - 1):
                power = power * x
            if op.kind == "lift_fp":
                return power, lib.frobenius.lift_splitting_tate(phi, power)
            f = args[2]
            lhs = lib.frobenius.lift_splitting_tate(phi, power * f)
            return lhs, x * lib.frobenius.lift_splitting_tate(phi, f)
        if op.kind == "certified":
            return lib.frobenius.lift_splitting_convergent(*args)
        psi, f, target = args
        unital = lib.frobenius.normalize_to_unital(psi, NORMALIZE_BOUND)
        return unital, unital.apply(f, target)

    def check(self, op, args, result):
        d = op.data
        p = d["p"]
        if op.kind == "product":
            h, norm = result
            expected = oracles.tate_mul(as_exact(d["f"]), as_exact(d["g"]), p)
            if oracles.tate_dict(h) != expected:
                return "product differs from the reference"
            if norm.exponent != oracles.gauss_exponent(expected):
                return "Gauss norm differs from the reference"
            return None
        if op.kind == "shear":
            spec, h = result
            expected = oracles.shear(as_exact(d["g"]), spec.exponents, p)
            if oracles.tate_dict(h) != expected:
                return "sheared series differs from the reference"
            if not oracles.is_distinguished(expected):
                return "shear does not make the series distinguished"
            return None
        if op.kind == "lift_hp":
            lhs, rhs = result
            h = as_exact(d["h"])
            product = oracles.tate_mul(oracles.tate_power_p(h, p), as_exact(d["f"]), p)
            expected = oracles.standard_lift(product, p)
            if oracles.tate_dict(lhs) != expected:
                return "Phi(h^p f) differs from the reference"
            if oracles.tate_dict(rhs) != expected:
                return "Phi(h^p f) != h Phi(f)"
            return None
        if op.kind == "lift_fp":
            power, image = result
            f = as_exact(d["f"])
            if oracles.tate_dict(power) != oracles.tate_power_p(f, p):
                return "f^p differs from the reference"
            if oracles.tate_dict(image) != f:
                return "Phi(f^p) != f"
            return None
        if op.kind == "certified":
            image, cert = result
            expected = oracles.standard_lift(as_exact(d["f"]), p)
            if oracles.tate_dict(image) != expected:
                return "certified lift differs from the reference"
            if cert.log_bound != d["bound"] / p or cert.log_radii != d["radii"]:
                return "transported certificate is wrong"
            if expected and _certificate(expected, d["radii"]) > cert.log_bound:
                return "image escapes the transported certificate"
            return None
        unital, quotient = result
        shear_exps, twist = (d["shear"],), as_exact(d["twist"])
        expected = oracles.unital_monomial(p, shear_exps, twist, NORMALIZE_BOUND)
        if expected is None:
            return "no unital monomial in the search box"
        monomial, unit_value = expected
        if oracles.tate_dict(unital.monomial) != monomial:
            return "normalizing monomial differs from the reference"
        if oracles.tate_dict(unital.unit_value) != unit_value:
            return "unit value differs from the reference psi(monomial)"
        # quotient * psi(monomial) must reproduce psi(monomial * f) to tau.
        value = oracles.reduced_map(oracles.tate_mul(monomial, as_exact(d["f"]), p),
                                    p, shear_exps, twist)
        rebuilt = oracles.tate_mul(oracles.tate_dict(quotient), unit_value, p)
        v = oracles.gauss_exponent(oracles.tate_add(value, rebuilt, p, -1))
        if v is not None and v < d["tau"]:
            return "normalized splitting misses the target precision"
        return None

    def divides(self, op):
        return 1 if op.kind == "normalize" else 0


# ---------------------------------------------------------------------------
# hahn


def sqrt_two_thirds_convergents(max_bits: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents a/b of sqrt(6)/3 = sqrt(2/3), so
    a/sqrt(2) - b/sqrt(3) is tiny: below 1/b, about 2^-bits."""
    out = []
    big_p, big_q, d = 0, 3, 6  # x = (P + sqrt(D)) / Q
    h0, h1, k0, k1 = 0, 1, 1, 0
    root = 2  # floor(sqrt(6))
    while True:
        a = (big_p + root) // big_q
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if max(h1, k1).bit_length() > max_bits:
            return out
        if h1:
            out.append((h1, k1))
        big_p = a * big_q - big_p
        big_q = (d - big_p * big_p) // big_q


_CONVERGENTS = sqrt_two_thirds_convergents(100)
# The cached 2^-80 enclosures separate the near-cancelling pairs up to
# about 80 bits; beyond that compare refines from scratch.
COMPARE_CLASSES = {
    "compare_cached": [c for c in _CONVERGENTS if 56 <= max(c).bit_length() <= 76],
    "compare_refined": [c for c in _CONVERGENTS if 84 <= max(c).bit_length() <= 100],
}

GABBER_P = 2
GABBER_REPS = 8


def draw_distance(rng: Random, max_n: int) -> dict:
    """A Hahn sum at p = 2 meeting at most four witness cosets, so the
    distance check always has a missing coset among the first N >= 5."""
    g = {}
    target = rng.randint(1, 4)
    while len(g) < target:
        # e_i + 2w lies in the coset of the i-th witness term.
        i = rng.randint(1, GABBER_REPS)
        w = {j: 2 * c for j, c in draw_vector(rng, 4, 2)}
        w[i] = w.get(i, 0) + 1
        g[tuple(sorted((j, c) for j, c in w.items() if c))] = 1
    return {"p": GABBER_P, "g": g, "N": rng.randint(5, max_n)}


def check_distance(ctx, d: dict, missing_index: int, bound: dict, actual: dict,
                   passed: bool) -> str | None:
    present = {tuple(sorted((j, c % 2) for j, c in e if c % 2)) for e in d["g"]}
    missing = next(i for i in range(1, d["N"] + 1) if ((i, 1),) not in present)
    rep = oracles.coords_dict(ctx.rep(missing))
    if missing_index != missing or bound != {i: -c for i, c in rep.items()}:
        return "missing coset index differs from the reference"
    witness = {
        tuple(sorted((i, -c) for i, c in ctx.rep(k).coords)): 1
        for k in range(1, d["N"] + 1)
    }
    diff = oracles.hahn_add(witness, {e: 1 for e in d["g"]}, GABBER_P)
    if actual != oracles.hahn_valuation(diff):
        return "valuation of f_N - g differs from the reference"
    if not passed or oracles.sign(actual) >= 0 or oracles.less(bound, actual):
        return "distance bound not certified"
    return None


class Hahn(Workload):
    name = "hahn"
    trace_passes = 300
    KINDS = ("triangle", "product", "distance", "compare_cached", "compare_refined")

    def warm_up(self):
        self.ctx = self.lib.gabber.build_context(GABBER_P, GABBER_REPS)

    def draw(self, kind, rng):
        if kind == "triangle":
            p = rng.choice((2, 3, 5))
            while True:
                x = draw_hahn(rng, p, rng.randint(1, 3))
                y = draw_hahn(rng, p, rng.randint(1, 3))
                vx, vy = oracles.hahn_valuation(x), oracles.hahn_valuation(y)
                if vx != vy:
                    return {"p": p, "x": x, "y": y}
        if kind == "product":
            p = rng.choice((2, 3, 5))
            return {"p": p, "x": draw_hahn(rng, p, rng.randint(2, 4)),
                    "y": draw_hahn(rng, p, rng.randint(2, 4))}
        if kind == "distance":
            return draw_distance(rng, GABBER_REPS)
        a, b = rng.choice(COMPARE_CLASSES[kind])
        shift = draw_vector(rng, 5, 5)
        shift = tuple((i, c) for i, c in shift if i >= 3)
        return {"a": a, "b": b, "shift": shift, "flip": rng.random() < 0.5}

    def prepare(self, op):
        d, b = op.data, self.build
        if op.kind in ("triangle", "product"):
            return b.hahn(d["p"], d["x"]), b.hahn(d["p"], d["y"])
        if op.kind == "distance":
            return self.ctx, b.hahn(d["p"], d["g"]), d["N"]
        u, v = self._compare_pair(d)
        return b.vector(u.items()), b.vector(v.items())

    @staticmethod
    def _compare_pair(d):
        shift = dict(d["shift"])
        u = oracles.vec_add({1: d["a"]}, shift)
        v = oracles.vec_add({2: d["b"]}, shift)
        return (v, u) if d["flip"] else (u, v)

    def run(self, op, args):
        if op.kind == "triangle":
            x, y = args
            nx, ny = x.norm(), y.norm()
            bigger = nx if nx.compare(ny) > 0 else ny
            total = (x + y).norm()
            return total, bigger, total.compare(bigger)
        if op.kind == "product":
            return args[0] * args[1]
        if op.kind == "distance":
            return self.lib.gabber.distance_lower_bound_check(*args)
        return self.lib.exponents.compare(*args)

    def check(self, op, args, result):
        d = op.data
        if op.kind == "triangle":
            total, bigger, verdict = result
            p = d["p"]
            x, y = d["x"], d["y"]
            expected = oracles.hahn_valuation(oracles.hahn_add(x, y, p))
            vx, vy = oracles.hahn_valuation(x), oracles.hahn_valuation(y)
            smaller = vx if oracles.less(vx, vy) else vy
            if verdict != 0 or expected != smaller:
                return "strong triangle equality fails"
            if oracles.coords_dict(total.exponent) != expected:
                return "norm of the sum differs from the reference"
            if oracles.coords_dict(bigger.exponent) != smaller:
                return "larger norm picked wrongly"
            return None
        if op.kind == "product":
            expected = oracles.hahn_mul(d["x"], d["y"], d["p"])
            return oracles.check_hahn_sum(
                expected, [(e.coords, c) for e, c in result.terms])
        if op.kind == "distance":
            return check_distance(
                self.ctx, d, result.missing_index,
                oracles.coords_dict(result.bound_exponent),
                oracles.coords_dict(result.actual_exponent), result.passed)
        u, v = self._compare_pair(d)
        if result != oracles.sign(oracles.vec_sub(u, v)):
            return "compare disagrees with the isqrt enclosure"
        return None


# ---------------------------------------------------------------------------
# cli


def laurent_literal(terms: dict) -> str:
    return " + ".join(f"{c}*t^{e}" if e else str(c) for e, c in terms.items())


def tate_literal(n: int, terms: dict) -> str:
    parts = []
    for idx, coeff in terms.items():
        names = ["X"] if n == 1 else [f"X{i}" for i in range(1, n + 1)]
        monomial = "*".join(f"{v}^{k}" for v, k in zip(names, idx) if k)
        parts.append(f"[{laurent_literal(coeff)}]{monomial}")
    return " + ".join(parts)


def hahn_literal(terms: dict) -> str:
    return " + ".join(
        f"{c}*t^[{', '.join(f'{i}:{k}' for i, k in e)}]" for e, c in terms.items()
    )


def _records(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines())


class Cli(Workload):
    """Each op is one ``python -m tatekit.cli`` process.  In a traced run
    the process is ``cli_child.py`` instead, which records spans and
    hands them back on its last stderr line."""

    name = "cli"
    trace_passes = 6
    KINDS = ("divide", "norm", "degree", "split", "distance")

    def __init__(self, lib, root):
        super().__init__(lib, root)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.command = [sys.executable, "-m", "tatekit.cli"]
        self.traced_command = [sys.executable, os.path.join(HERE, "cli_child.py")]
        self.ctx = None

    def warm_up(self):
        # One process so bytecode caches exist before the first timed op.
        self.spawn(self.command + ["degree", "--f", "X"])

    def spawn(self, argv: list[str]):
        done = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def _draw_divide(self, rng):
        p = rng.choice((2, 3, 5))
        d = draw_division(rng, p, rng.choice((2, 4)), rng.choice(("exact", "tail")),
                          rng.choice(DIVISION_DEGREES))
        d["argv"] = ["divide", "--p", str(p), "--f", tate_literal(1, d["f"]),
                     "--g", tate_literal(1, d["g"]), "--slack", f"e^-{d['tau']}"]
        return d

    def _draw_norm(self, rng):
        p = rng.choice((2, 3, 5))
        f = draw_tate(rng, 2, p, rng.randint(1, 4))
        return {"p": p, "f": f, "argv": ["norm", "--p", str(p), "--n", "2",
                                         "--f", tate_literal(2, f)]}

    def _draw_degree(self, rng):
        p = rng.choice((2, 3, 5))
        f = draw_tate(rng, 1, p, rng.randint(1, 4), 6)
        return {"p": p, "f": f, "argv": ["degree", "--p", str(p),
                                         "--f", tate_literal(1, f)]}

    def _draw_split(self, rng):
        p = rng.choice((2, 3))
        f = {}
        target = rng.randint(1, 4)
        while len(f) < target:
            m = p if rng.random() < 0.6 else 1
            idx = tuple(m * rng.randint(0, 2) for _ in range(2))
            f[idx] = draw_coeff(rng, p, m * rng.randint(-1, 2), 1, 0)
        return {"p": p, "f": f, "argv": ["split", "--p", str(p), "--n", "2",
                                          "--f", tate_literal(2, f)]}

    def _draw_distance(self, rng):
        d = draw_distance(rng, 6)
        d["argv"] = ["gabber", "distance", "--p", "2", "--N", str(d["N"]),
                     "--g", hahn_literal({e: c for e, c in d["g"].items()})]
        return d

    def startup_times(self, repeats: int) -> tuple[float, float]:
        """Median start-up of a bare interpreter, and median extra time to
        import ``tatekit.cli`` in one."""

        def timed(argv):
            start = perf_counter()
            self.spawn(argv)
            return perf_counter() - start

        bare = statistics.median(
            timed([sys.executable, "-c", "pass"]) for _ in range(repeats))
        loaded = statistics.median(
            timed([sys.executable, "-c", "import tatekit.cli"]) for _ in range(repeats))
        return bare, loaded - bare

    @staticmethod
    def cli_args(op):
        return op.data["argv"] + ["--format", "records"]

    def prepare(self, op):
        command = self.command if self.tracer is None else self.traced_command
        return command + self.cli_args(op)

    def run(self, op, args):
        code, stdout, stderr = self.spawn(args)
        if self.tracer is not None:
            stderr, _, last = stderr.rstrip("\n").rpartition("\n")
            payload = json.loads(last)
            self.tracer.merge(payload["spans"], payload["counters"])
        return code, stdout, stderr

    def check(self, op, args, result):
        code, stdout, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        out = _records(stdout)
        d = op.data
        p = d["p"]
        if op.kind == "divide":
            q, _ = oracles.read_tate(out["q"], p, 1)
            r, slack = oracles.read_tate(out["r"], p, 1)
            return oracles.check_division(p, d["tau"], as_exact(d["f"]),
                                          as_exact(d["g"]), q, r, slack)
        if op.kind == "norm":
            expected = oracles.format_norm(oracles.gauss_exponent(as_exact(d["f"])))
            return None if out["norm"] == expected else "norm differs"
        if op.kind == "degree":
            expected = oracles.euclid_degree(as_exact(d["f"]))
            return None if out["degree"] == str(expected) else "degree differs"
        if op.kind == "split":
            image, _ = oracles.read_tate(out["result"], p, 2)
            expected = oracles.standard_lift(as_exact(d["f"]), p)
            return None if image == expected else "splitting lift differs"
        if self.ctx is None:
            self.ctx = self.lib.gabber.build_context(GABBER_P, GABBER_REPS)
        return check_distance(
            self.ctx, d, int(out["i_g"]), oracles.read_vector(out["bound_exp"]),
            oracles.read_vector(out["actual_exp"]), out["pass"] == "true")

    def divides(self, op):
        return 1 if op.kind == "divide" else 0


WORKLOADS = {w.name: w for w in (Division, Series, Hahn, Cli)}
