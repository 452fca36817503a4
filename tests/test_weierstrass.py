import hashlib
import random
import time
from fractions import Fraction

import pytest

from conftest import SEED
from tatekit.errors import DomainError
from tatekit.field import LaurentSeries, NormValue
from tatekit.parsing import format_tate, parse_tate
from tatekit.tate import TateElem, euclid_degree, gauss_norm
from tatekit.weierstrass import divide, gcd

TARGET = NormValue.finite(Fraction(8))


def one(p):
    return LaurentSeries.one(p)


def t(p, e=1):
    return LaurentSeries.t_power(p, e)


def schoolbook_division(f: TateElem, g: TateElem):
    """Independent coefficientwise solve of f = q*g + r, deg r < d(g).

    Only attempts the configurations where every pivot division is exact
    in finite Laurent arithmetic: the dominant index equals the
    polynomial degree and the dominant coefficient is a monomial.
    Returns None when not applicable (the oracle "does not terminate
    exactly"), otherwise the unique exact (q, r).
    """
    p = g.terms[0][1].p
    order = euclid_degree(g)
    degrees = [idx[0] for idx, _ in g.terms]
    if order != max(degrees):
        return None
    dominant = dict((idx[0], c) for idx, c in g.terms)[order]
    if len(dominant.terms) != 1 or dominant.cutoff is not None:
        return None
    exp, coeff = dominant.terms[0]
    inverse = LaurentSeries.make(p, {-exp: pow(coeff, -1, p)})
    remainder = {idx[0]: c for idx, c in f.terms}
    gdict = {idx[0]: c for idx, c in g.terms}
    quotient = {}
    top = max(remainder, default=-1)
    for d in range(top, order - 1, -1):
        c = remainder.get(d)
        if c is None or c.is_zero:
            continue
        u = c * inverse
        quotient[d - order] = u
        for k, ck in gdict.items():
            pos = d - order + k
            prev = remainder.get(pos, LaurentSeries.zero(p))
            remainder[pos] = prev - u * ck
    q = TateElem.make(1, p, {(d,): c for d, c in quotient.items()})
    r = TateElem.make(
        1, p, {(d,): c for d, c in remainder.items() if d < order and not c.is_zero}
    )
    return q, r


def random_series(rng, p, max_degree=6, min_v=-2, max_v=4, monomial_coeffs=False):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, max_degree)
        v = rng.randint(min_v, max_v)
        coeff = LaurentSeries.make(p, {Fraction(v): rng.randint(1, p - 1)})
        if not monomial_coeffs and rng.random() < 0.4:
            coeff = coeff + LaurentSeries.make(
                p, {Fraction(v + rng.randint(1, 3)): rng.randint(1, p - 1)}
            )
        terms[(d,)] = coeff
    return TateElem.make(1, p, terms)


class TestDivideExamples:
    def test_polynomial_identity(self):
        p = 5
        f = TateElem.monomial(1, (2,), one(p))
        g = TateElem.make(1, p, {(1,): one(p), (0,): -t(p)})
        q, r = divide(f, g, TARGET)
        assert q == TateElem.make(1, p, {(1,): one(p), (0,): t(p)})
        assert r == TateElem.constant(1, t(p, 2))
        assert r.slack is None

    def test_self_division(self):
        p = 3
        f = TateElem.monomial(1, (1,), one(p))
        q, r = divide(f, f, TARGET)
        assert q == TateElem.constant(1, one(p))
        assert not r.terms and r.slack is None

    def test_geometric_series(self):
        p = 5
        f = TateElem.constant(1, one(p))
        g = TateElem.make(1, p, {(0,): one(p), (1,): -t(p)})
        q, r = divide(f, g, NormValue.finite(Fraction(3)))
        # Oracle: the truncation of sum(t^i X^i) at |t^i| <= e^-3.
        expected_q = TateElem.make(
            1, p, {(0,): one(p), (1,): t(p), (2,): t(p, 2)}
        )
        assert q == expected_q
        assert not r.terms
        assert r.slack == NormValue.finite(Fraction(3))

    def test_zero_divisor(self):
        p = 3
        with pytest.raises(DomainError):
            divide(TateElem.constant(1, one(p)), TateElem.zero(1, p), TARGET)

    def test_fractional_dominant_norm(self):
        # Pre-scaling must handle dominant coefficients off the integer
        # lattice: g = t^(1/2) X has Gauss norm e^(-1/2).
        p = 2
        g = TateElem.monomial(1, (1,), t(p, Fraction(1, 2)))
        f = TateElem.monomial(1, (2,), one(p))
        q, r = divide(f, g, TARGET)
        assert q == TateElem.monomial(1, (1,), t(p, Fraction(-1, 2)))
        assert not r.terms and r.slack is None
        assert q * g == f

    @pytest.mark.parametrize(
        "p,slack", [(2, Fraction(1, 3)), (3, Fraction(5, 2)), (5, Fraction(7, 4))]
    )
    def test_slack_off_the_lattice(self, p, slack):
        # The working precision tau - floor + 2 is off the (1/p^e)Z lattice
        # here, and the dominant coefficient 1 + t needs a truncated inverse.
        target = NormValue.finite(slack)
        f = TateElem.monomial(1, (2,), one(p))
        g = TateElem.make(1, p, {(1,): one(p) + t(p), (0,): t(p)})
        q, r = divide(f, g, target)
        residual = f - (q * g + r)
        res_norm = gauss_norm(TateElem.make(1, p, dict(residual.terms)))
        assert res_norm.is_zero or res_norm.compare(target) <= 0
        assert r.terms and max(idx[0] for idx, _ in r.terms) < euclid_degree(g)


class TestDivideProperties:
    def test_identity_degree_and_oracle(self):
        rng = random.Random(SEED)
        exact_hits = 0
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            f = random_series(rng, p)
            g = random_series(rng, p)
            q, r = divide(f, g, TARGET)
            residual = f - (q * g + r)
            res_norm = gauss_norm(
                TateElem.make(1, p, dict(residual.terms))
            )
            assert res_norm.is_zero or res_norm.compare(TARGET) <= 0
            if r.terms:
                assert max(idx[0] for idx, _ in r.terms) < euclid_degree(g)
                if r.slack is None:
                    assert euclid_degree(r) < euclid_degree(g)
            oracle = schoolbook_division(f, g)
            if oracle is not None:
                oq, orr = oracle
                assert q == oq
                assert TateElem.make(1, p, dict(r.terms)) == orr
                exact_hits += 1
        assert exact_hits > 20  # the oracle regime is actually exercised

    def test_requires_exact_inputs(self):
        p = 3
        withslack = TateElem.make(
            1, p, {(0,): one(p)}, slack=NormValue.finite(Fraction(9))
        )
        with pytest.raises(DomainError):
            divide(withslack, TateElem.constant(1, one(p)), TARGET)


class TestGcd:
    def test_power_examples(self):
        p = 5
        assert gcd(
            TateElem.monomial(1, (2,), one(p)),
            TateElem.monomial(1, (1,), one(p)),
            TARGET,
        ) == TateElem.monomial(1, (1,), one(p))

    def test_equal_arguments_normalize(self):
        p = 5
        g = TateElem.make(1, p, {(1,): one(p), (0,): -t(p)})
        assert gcd(g, g, TARGET) == g

    def test_coprime_unit(self):
        p = 5
        unit = TateElem.make(1, p, {(0,): one(p), (1,): t(p)})
        x = TateElem.monomial(1, (1,), one(p))
        assert gcd(unit, x, TARGET) == TateElem.constant(1, one(p))

    def test_zero_pair_rejected(self):
        with pytest.raises(DomainError):
            gcd(TateElem.zero(1, 3), TateElem.zero(1, 3), TARGET)

    def test_long_remainder_chain_within_time(self):
        # The time is in divide's step products, not in the inverses: under
        # cProfile, divide's own loop and its dict updates take 7.0 of the
        # chain's 7.2 s.  Unprofiled it takes 2 to 3 s on a 2-vCPU x86-64
        # host with Python 3.11.
        p = 5
        f = parse_tate("[3*t + 4*t^4]X^4 + [3*t + 2*t^3]X^3 + [4]X^2", p)
        g = parse_tate("[2*t^2]X^6 + [2*t + 3*t^3]X^4 + [3*t^2]X^2 + [t + 4*t^3]X", p)
        started = time.perf_counter()
        assert format_tate(gcd(f, g, TARGET)) == "X + O(e^-10)"
        assert time.perf_counter() - started < 4

    def test_divides_both_within_slack(self):
        rng = random.Random(SEED + 1)
        for _ in range(40):
            p = rng.choice([2, 3])
            d = random_series(rng, p, max_degree=2, monomial_coeffs=True)
            a = d * random_series(rng, p, max_degree=2, monomial_coeffs=True)
            b = d * random_series(rng, p, max_degree=2, monomial_coeffs=True)
            common = gcd(a, b, TARGET)
            # The gcd may carry slack from inexact chain divisions; its
            # explicit part is the usable divisor at this precision.
            common_explicit = TateElem.make(1, p, dict(common.terms))
            for original in (a, b):
                _, rem = divide(original, common_explicit, TARGET)
                rem_norm = gauss_norm(TateElem.make(1, p, dict(rem.terms)))
                assert rem_norm.is_zero or rem_norm.compare(TARGET) <= 0


class TestRoundBound:
    """divide runs at most ceil((tau - floor_exp) / contraction) rounds."""

    @pytest.mark.parametrize("tau", [Fraction(8), Fraction(17, 2), Fraction(12)])
    def test_stops_at_the_predicted_round(self, tau):
        # g = 1 + tX: order 0, tail norm e^-1, so contraction = 1 and each
        # round leaves exactly one term t^k X^k of norm e^-k; with |f| = 1
        # the target e^-tau is met after exactly ceil(tau) rounds, the cap.
        p = 2
        f = TateElem.constant(1, one(p))
        g = TateElem.make(1, p, {(0,): one(p), (1,): t(p)})
        rounds = -(-tau.numerator // tau.denominator)
        q, r = divide(f, g, NormValue.finite(tau))
        assert q == TateElem.make(1, p, {(k,): t(p, k) for k in range(rounds)})
        assert not r.terms
        assert r.slack == NormValue.finite(Fraction(rounds))

    def test_target_above_the_dividend(self):
        # No round is needed: f itself is within the target, so q = 0 and
        # r is f's norm as slack.
        p = 3
        f = TateElem.constant(1, t(p, -2))
        g = TateElem.make(1, p, {(0,): one(p), (1,): t(p)})
        q, r = divide(f, g, NormValue.finite(Fraction(-30)))
        assert q.is_zero
        assert not r.terms and r.slack == NormValue.finite(Fraction(-2))


def check_division(f, g, q, r, target):
    """f - q*g - r is within the target and deg r < d(g) (the same
    independent check as ``TestDivideProperties``)."""
    p = g.terms[0][1].p
    residual = f - (q * g + r)
    res_norm = gauss_norm(TateElem.make(1, p, dict(residual.terms)))
    assert res_norm.is_zero or res_norm.compare(target) <= 0
    if r.terms:
        assert max(idx[0] for idx, _ in r.terms) < euclid_degree(g)


def series(p, coeffs):
    """TateElem from {X-degree: {t-exponent: coefficient}}."""
    return TateElem.make(
        1, p, {(d,): LaurentSeries.make(p, c) for d, c in coeffs.items()}
    )


class TestAccumulatorEdges:
    """Division keeps exact values at one lattice level and reduces them
    mod p only where they are read; these inputs reach each edge."""

    def test_mixed_lattice_levels(self):
        # f at level 2 (t^(1/4)), g at level 1 (t^(1/2)): q and r carry
        # quarter exponents, and the first g has the oracle's exact shape.
        p, target = 2, NormValue.finite(Fraction(17, 2))
        f = series(p, {2: {Fraction(1, 4): 1}, 1: {0: 1}, 0: {Fraction(3, 4): 1}})
        exact_g = series(p, {1: {0: 1}, 0: {Fraction(1, 2): 1}})
        q, r = divide(f, exact_g, target)
        check_division(f, exact_g, q, r, target)
        assert (q, r) == schoolbook_division(f, exact_g)
        assert q == series(p, {1: {Fraction(1, 4): 1}, 0: {0: 1, Fraction(3, 4): 1}})
        g = series(p, {1: {0: 1, Fraction(1, 2): 1}, 0: {Fraction(1, 2): 1}})
        q, r = divide(f, g, target)
        check_division(f, g, q, r, target)
        assert r.slack.compare(target) <= 0

    def test_multiple_of_p_counts_as_absent(self):
        # p = 3, f = X + 1, g = 2X + 2: the one step is 2 and leaves the
        # ints 1 - 2*2 = -3 at X^1 and X^0, nonzero but 0 mod 3.  The
        # stop test and r must skip them, so the division is exact.
        p = 3
        f = series(p, {1: {0: 1}, 0: {0: 1}})
        g = series(p, {1: {0: 2}, 0: {0: 2}})
        q, r = divide(f, g, TARGET)
        check_division(f, g, q, r, TARGET)
        assert q == TateElem.constant(1, LaurentSeries.constant(p, 2))
        assert not r.terms and r.slack is None
        # p = 2, f = t, g = tX + (1 + t): steps of later rounds cancel
        # q's earlier ones, leaving ints 2 in q's rows.
        f = series(2, {0: {1: 1}})
        g = series(2, {1: {1: 1}, 0: {0: 1, 1: 1}})
        q, r = divide(f, g, TARGET)
        check_division(f, g, q, r, TARGET)
        assert all(c % 2 for _, coeff in q.terms for _, c in coeff.terms)

    def test_residue_equal_to_target_stops(self):
        # g = 1 + t^(1/2) X leaves t^(k/2) X^k after round k, so at
        # tau = 5/2 the residue meets the target exactly after 5 rounds.
        p, tau = 2, Fraction(5, 2)
        f = series(p, {0: {0: 1}})
        g = series(p, {0: {0: 1}, 1: {Fraction(1, 2): 1}})
        q, r = divide(f, g, NormValue.finite(tau))
        check_division(f, g, q, r, NormValue.finite(tau))
        assert q == series(p, {k: {Fraction(k, 2): 1} for k in range(5)})
        assert not r.terms and r.slack == NormValue.finite(tau)

    def test_quotient_degree_stepped_in_several_rounds(self):
        # p = 3, f = 1 + tX, g = 2 + tX = -(1 - tX): f/g = 2 + sum t^k X^k
        # (k >= 1).  Rounds one and two each add 2t to q's X^1, which
        # sums to 4t = t, and so on up; X^8 keeps only its first step
        # 2t^8, as the residue then meets the target.
        p = 3
        f = series(p, {0: {0: 1}, 1: {1: 1}})
        g = series(p, {0: {0: 2}, 1: {1: 1}})
        q, r = divide(f, g, TARGET)
        check_division(f, g, q, r, TARGET)
        expected = {0: {0: 2}, **{k: {k: 1} for k in range(1, 8)}, 8: {8: 2}}
        assert q == series(p, expected)
        assert not r.terms and r.slack == TARGET


# (pivot terms, tail valuation, dividend terms), the shapes of the
# benchmark's division workload.
SHAPES = [(1, 0, 4), (1, 1, 3), (2, 0, 3), (2, 3, 2)]
# sha256 of the printed q, r and r.slack below, recorded before division
# moved to the lattice accumulator; any change to a printed answer shows.
PINNED_DIGEST = "2e0a82f14606a0e9d682bd3e168a61d7d72a8dead1ca81ebfb17cce2e9476bbb"


def draw_shaped(rng, p, shape, degree):
    pivot_terms, tail, f_terms = shape

    def coeff(v, nterms):
        c = {Fraction(v): rng.randint(1, p - 1)}
        if nterms == 2:
            c[Fraction(v + 1)] = rng.randint(1, p - 1)
        return LaurentSeries.make(p, c)

    g = {(1,): coeff(0, pivot_terms), (0,): coeff(1, 1)}
    if tail:
        g[(2,)] = coeff(tail, 1)
    degrees = [degree] + rng.sample(range(degree), min(f_terms - 1, degree))
    f = {(k,): coeff(0, 2) for k in degrees}
    return TateElem.make(1, p, f), TateElem.make(1, p, g)


def test_printed_answers_pinned():
    # A fixed seed, not SEED: the digest pins these very inputs.
    rng = random.Random(8)
    digest = hashlib.sha256()
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        f, g = draw_shaped(rng, p, rng.choice(SHAPES), rng.choice([2, 4]))
        tau = rng.choice([Fraction(3), Fraction(8), Fraction(17, 2)])
        q, r = divide(f, g, NormValue.finite(tau))
        digest.update(f"{format_tate(q)}|{format_tate(r)}|{r.slack!r}\n".encode())
    assert digest.hexdigest() == PINNED_DIGEST


# sha256 of the printed q, r and r.slack below, recorded while ``divide``
# still scaled a divisor to Gauss norm one before dividing.
NON_UNIT_NORM_DIGEST = "faa47765e0db2b7a3eb37cbe4be65fc2cd072499fa060bf5cf10b031f4742d8b"


def test_non_unit_norm_answers_pinned():
    # A fixed seed, not SEED: the digest pins these very inputs.  Every g
    # has Gauss exponent v != 0, of either sign, integral or fractional
    # on the (1/p)Z lattice; f is scaled by a lattice exponent too.
    rng = random.Random(15)
    digest = hashlib.sha256()
    for _ in range(240):
        p = rng.choice([2, 3, 5])
        f, g = draw_shaped(rng, p, rng.choice(SHAPES), rng.choice([2, 4]))
        v = Fraction(rng.choice([k for k in range(-2 * p, 2 * p + 1) if k]), p)
        w = Fraction(rng.randint(-p, p), p)
        g = g.map_coefficients(lambda c: c * t(p, v))
        f = f.map_coefficients(lambda c: c * t(p, w))
        assert gauss_norm(g) == NormValue.finite(v)
        tau = rng.choice([Fraction(3), Fraction(8), Fraction(17, 2)])
        q, r = divide(f, g, NormValue.finite(tau))
        digest.update(f"{format_tate(q)}|{format_tate(r)}|{r.slack!r}\n".encode())
    assert digest.hexdigest() == NON_UNIT_NORM_DIGEST


# sha256 of the printed gcds below, recorded before this test was added.  A
# remainder of norm exactly e^-tau counts as zero in gcd; 14 of these 200
# answers change when it does not.
GCD_DIGEST = "558c0cb561179d5632f18cd90dc9a51284fef8f7ac9e233be255944bb6118b66"


def test_gcd_answers_pinned():
    # A fixed seed, not SEED: the digest pins these very inputs.
    rng = random.Random(22)
    digest = hashlib.sha256()
    for _ in range(200):
        p = rng.choice([2, 3])
        f = random_series(rng, p, max_degree=3, min_v=0, max_v=3)
        g = random_series(rng, p, max_degree=3, min_v=0, max_v=3)
        tau = NormValue.finite(Fraction(rng.randint(1, 4)))
        digest.update(f"{format_tate(gcd(f, g, tau))}\n".encode())
    assert digest.hexdigest() == GCD_DIGEST
