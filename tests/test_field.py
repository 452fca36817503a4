import copy
import dataclasses
import decimal
import hashlib
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from tatekit.errors import BackendMismatch, DomainError, PrecisionError
from tatekit import exponents
from tatekit.exponents import ExponentVector, compare, nth_prime
from tatekit.field import HahnSum, LaurentSeries, NormValue
from tatekit.frobenius import phi_standard
from tatekit.parsing import format_norm_value
from tatekit.selftest import sample_exponent_vector, sample_hahn, sample_laurent
from test_exponents import sqrt_convergents

E1 = ExponentVector.unit(1)
E2 = ExponentVector.unit(2)


def L(p, terms, cutoff=None):
    return LaurentSeries.make(p, terms, cutoff)


class TestAdd:
    def test_doubling(self):
        t = LaurentSeries.t_power(3, 1)
        assert (t + t).terms == ((Fraction(1), 2),)

    def test_char_p_cancellation(self):
        p = 5
        t = LaurentSeries.t_power(p, 1)
        assert (t + t.scalar_mul(p - 1)).is_zero

    def test_ball_absorbs_small_terms(self):
        p = 3
        x = L(p, {0: 1}, cutoff=2)
        y = L(p, {2: 1})
        total = x + y
        assert total.terms == ((Fraction(0), 1),)
        assert total.cutoff == 2

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatch):
            LaurentSeries.one(2) + LaurentSeries.one(3)
        with pytest.raises(BackendMismatch):
            LaurentSeries.one(2) + HahnSum.one(2)


class TestMul:
    def test_half_powers(self):
        x = LaurentSeries.t_power(2, Fraction(1, 2))
        assert (x * x).terms == ((Fraction(1), 1),)
        assert x.level == 1 and (x * x).level == 0

    def test_hahn_monomials(self):
        x = HahnSum.t_power(5, -E1)
        y = HahnSum.t_power(5, -E2)
        assert (x * y).terms == ((-E1 - E2, 1),)

    def test_difference_of_squares(self):
        p = 5
        one = LaurentSeries.one(p)
        t = LaurentSeries.t_power(p, 1)
        prod = (one + t) * (one - t)
        assert prod == L(p, {0: 1, 2: -1})

    def test_cutoff_propagation(self):
        p = 3
        x = L(p, {1: 1}, cutoff=4)  # t + O(t^4)
        y = L(p, {0: 1}, cutoff=2)  # 1 + O(t^2)
        # min(v(x) + cut(y), v(y) + cut(x)) = min(1 + 2, 0 + 4) = 3
        assert (x * y).cutoff == 3


class TestValuation:
    def test_exact(self):
        x = L(7, {2: 1, 5: 1})
        v = x.norm()
        assert v.is_finite and v.exponent == 2

    def test_ball_only(self):
        x = L(7, {}, cutoff=3)
        v = x.norm()
        assert v.is_bound and v.exponent == 3

    def test_zero(self):
        assert LaurentSeries.zero(7).norm().is_zero


def untruncated_inverse(x, tau):
    """The geometric series sum (-u)^k of x = c t^v (1 + u) with every
    power kept whole, truncated once at the end: a reference for
    ``inverse``, which runs the recurrence for 1/(1 + u) instead."""
    p = x.p
    v, c = x.terms[0]
    lead_inv = LaurentSeries.t_power(p, -v, pow(c, -1, p))
    u = x * lead_inv - LaurentSeries.one(p)
    if u.is_zero:
        return lead_inv
    drop = u.terms[0][0] if u.terms else u.cutoff
    acc = power = LaurentSeries.one(p)
    for _ in range(1, max(1, math.ceil(tau / drop))):
        power = power * (-u)
        acc = acc + power
    y, bound = acc * lead_inv, tau - v
    if y.cutoff is not None and y.cutoff <= bound:
        return y
    return LaurentSeries.make(p, [(e, a) for e, a in y.terms if e < bound], bound)


def ref_inverse(p, terms, cutoff, tau):
    """The inverse of the canonical (terms, cutoff) to the target tau,
    from the definitions on a dict of Fractions with no LaurentSeries
    arithmetic: an exact monomial inverts exactly; otherwise, with v the
    valuation, the cut is cutoff - 2v when x has a ball and that is at
    most tau - v, else tau - v (DomainError off the lattice), and the
    terms below it come from long division by x."""
    v = min(terms)
    lead_inv = pow(terms[v], -1, p)
    if cutoff is None and len(terms) == 1:
        return {-v: lead_inv}, None
    if cutoff is not None and cutoff - 2 * v <= tau - v:
        cut = cutoff - 2 * v
    else:
        cut = tau - v
        den = cut.denominator
        while den % p == 0:
            den //= p
        if den != 1:
            raise DomainError(f"cut {cut} is off the lattice")
    # x = c t^v (1 + sum a_d t^d), d > 0 on the grid (1/n)Z, and
    # s = 1 / (1 + sum a_d t^d) has s_0 = 1, s_k = -sum a_d s_(k-d).
    a = {e - v: c * lead_inv for e, c in terms.items() if e != v}
    n = max((d.denominator for d in a), default=1)
    steps = {int(d * n): c for d, c in a.items()}
    s = [1]
    while Fraction(len(s), n) - v < cut:
        k = len(s)
        s.append(-sum(c * s[k - d] for d, c in steps.items() if d <= k) % p)
    y = {Fraction(k, n) - v: c * lead_inv for k, c in enumerate(s)}
    return ref_canon(p, y, cut)


class TestInverse:
    def test_monomial_exact(self):
        t = LaurentSeries.t_power(5, 1)
        y = t.inverse(10)
        assert y == L(5, {-1: 1})
        assert y.cutoff is None

    def test_geometric(self):
        p = 5
        x = L(p, {0: 1, 1: -1})  # 1 - t
        y = x.inverse(3)
        assert y == L(p, {0: 1, 1: 1, 2: 1}, cutoff=3)
        product = x * y
        assert product.terms == ((Fraction(0), 1),)
        assert product.cutoff >= 3

    def test_ball_only_rejected(self):
        with pytest.raises(PrecisionError):
            L(5, {}, cutoff=1).inverse(3)

    def test_identity_up_to_target(self, rng):
        for _ in range(50):
            p = rng.choice([2, 3, 5])
            x = sample_laurent(rng, p)
            if not x.terms:
                continue
            tau = Fraction(rng.randint(1, 6))
            y = x.inverse(tau)
            residual = x * y - LaurentSeries.one(p)
            v = residual.norm()
            assert v.is_zero or v.exponent >= tau

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_the_untruncated_loop(self, rng, p):
        for _ in range(100):
            # c t^v (1 + up to four terms in (0, 4]) at level 0..2, with a
            # ball on a third of the draws.
            den = p ** rng.randint(0, 2)
            v = Fraction(rng.randint(-6, 6), den)
            terms = {v + Fraction(rng.randint(1, 4 * den), den): rng.randint(1, p - 1)
                     for _ in range(rng.randint(1, 4))}
            terms[v] = rng.randint(1, p - 1)
            cutoff = None
            if rng.random() < 1 / 3:
                cutoff = v + Fraction(rng.randint(1, 6 * den), den)
            x = LaurentSeries.make(p, terms, cutoff)
            # Targets off the lattice (denominator 7) raise in both.
            d = rng.choice([1, p, 7])
            tau = Fraction(rng.randint(1, 10 * d), d)
            got = outcome(x.inverse, tau)
            assert got == outcome(untruncated_inverse, x, tau)
            ref = outcome(ref_inverse, p, *ref_canon(p, terms, cutoff), tau)
            assert got[0] == ref[0]
            if got[0] == "ok":
                assert_matches(got[1], p, ref[1])
            else:
                assert got[1] is ref[1]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_the_long_division_oracle(self, rng, p):
        for _ in range(40):
            # c t^v (1 + up to five terms, some 0 mod p) at level 0..3,
            # with a ball on 40% of the draws; targets from -8 to 30, on
            # and off the lattice (denominator 3, or 2 when p is 3).
            den = p ** rng.randint(0, 3)
            v = Fraction(rng.randint(-8, 8), den)
            terms = {v + Fraction(rng.randint(1, 6 * den), den): rng.randint(0, p - 1)
                     for _ in range(rng.randint(0, 5))}
            terms[v] = rng.randint(1, p - 1)
            cutoff = None
            if rng.random() < 0.4:
                cutoff = v + Fraction(rng.randint(1, 8 * den), den)
            x = LaurentSeries.make(p, terms, cutoff)
            d = rng.choice([1, p, p * p, 2 if p == 3 else 3])
            tau = Fraction(rng.randint(-8 * d, 30 * d), d)
            got = outcome(x.inverse, tau)
            ref = outcome(ref_inverse, p, *ref_canon(p, terms, cutoff), tau)
            assert got[0] == ref[0]
            if got[0] == "ok":
                assert_matches(got[1], p, ref[1])
            else:
                assert got[1] is ref[1]

    def test_long_target_within_time(self):
        # The recurrence costs |u| steps per term of the inverse; summing
        # whole powers of u took quadratic time (1.1-1.3 s on a 2-vCPU
        # x86-64 host).
        p, terms, tau = 2, {0: 1, Fraction(1, 2): 1, 3: 1}, Fraction(2000)
        x = L(p, terms)
        started = time.perf_counter()
        y = x.inverse(tau)
        assert time.perf_counter() - started < 0.2
        assert_matches(y, p, ref_inverse(p, terms, None, tau))

    def test_work_follows_the_terms_not_the_level(self):
        # Level 7 at p = 7 puts 4 * 7^7 lattice points below the target,
        # where the inverses have 10 and 4 terms; a recurrence stepping
        # through every point takes about 1 s on a 2-vCPU x86-64 host.
        p, fine = 7, Fraction(1, 7**7)
        for x in (L(p, {0: 1, 1: 1, 1 + fine: 1}), L(p, {0: 1, 1: 1}, 3 + fine)):
            started = time.perf_counter()
            y = x.inverse(4)
            assert time.perf_counter() - started < 0.2
            assert y == untruncated_inverse(x, 4)


class TestFrobeniusAndRoot:
    def test_square_of_root(self):
        x = LaurentSeries.t_power(2, Fraction(1, 2))
        assert x.frobenius() == LaurentSeries.t_power(2, 1)

    def test_freshman_dream(self):
        p = 3
        x = LaurentSeries.one(p) + LaurentSeries.t_power(p, 1)
        assert x.frobenius() == L(p, {0: 1, p: 1})

    def test_ball_scaling(self):
        x = L(5, {}, cutoff=2)
        assert x.frobenius().cutoff == 10

    def test_root_examples(self):
        t = LaurentSeries.t_power(2, 1)
        root = t.pth_root()
        assert root == LaurentSeries.t_power(2, Fraction(1, 2))
        assert root.level == 1
        x = L(2, {0: 1, 2: 1})
        assert x.pth_root() == L(2, {0: 1, 1: 1})

    def test_hahn_root_requires_divisible_exponents(self):
        x = HahnSum.t_power(2, E1)
        with pytest.raises(DomainError) as info:
            x.pth_root()
        assert str(info.value) == "not-a-pth-power: exponent outside the p-divisible subgroup"
        y = HahnSum.t_power(2, E1.scale(2))
        assert y.pth_root() == HahnSum.t_power(2, E1)

    def test_hahn_root_halves_the_cutoff(self):
        x = HahnSum.make(2, {E1.scale(2): 1}, cutoff=E1.scale(4))  # t^[1:2] + O(t^[1:4])
        root = x.pth_root()
        assert root == HahnSum.make(2, {E1: 1}, cutoff=E1.scale(2))
        assert root.frobenius() == x

    def test_hahn_root_requires_divisible_cutoff(self):
        x = HahnSum.make(2, {E1.scale(2): 1}, cutoff=E1.scale(3))
        with pytest.raises(DomainError) as info:
            x.pth_root()
        assert str(info.value) == "not-a-pth-power: cutoff outside the p-divisible subgroup"
        # When an exponent and the cutoff both fail, the exponent is named.
        y = HahnSum.make(2, {E1: 1}, cutoff=E1.scale(3))
        with pytest.raises(DomainError) as info:
            y.pth_root()
        assert str(info.value) == "not-a-pth-power: exponent outside the p-divisible subgroup"

    def test_roundtrip(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            x = sample_laurent(rng, p)
            assert x.frobenius().pth_root() == x
            h = sample_hahn(rng, p)
            assert h.frobenius().pth_root() == h


class TestResidue:
    def test_constant_plus_t(self):
        assert L(5, {0: 3, 1: 1}).residue() == 3

    def test_positive_valuation(self):
        assert LaurentSeries.t_power(5, 1).residue() == 0

    def test_negative_valuation_rejected(self):
        with pytest.raises(DomainError):
            LaurentSeries.t_power(5, -1).residue()

    def test_ball_at_zero_rejected(self):
        with pytest.raises(PrecisionError):
            L(5, {}, cutoff=0).residue()

    def test_hahn_residue(self):
        x = HahnSum.constant(3, 2) + HahnSum.t_power(3, E1)
        assert x.residue() == 2
        with pytest.raises(DomainError):
            HahnSum.t_power(3, -E1).residue()

    def test_hahn_ball_residue(self):
        ball = HahnSum.make(3, {}, cutoff=E1)  # tail of valuation >= e_1 > 0
        assert ball.residue() == 0
        with pytest.raises(PrecisionError):
            HahnSum.make(3, {}, cutoff=-E1).residue()

    def test_ring_morphism_on_unit_ball(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            x = sample_laurent(rng, p, min_v=0)
            y = sample_laurent(rng, p, min_v=0)
            assert (x + y).residue() == (x.residue() + y.residue()) % p
            assert (x * y).residue() == (x.residue() * y.residue()) % p


def norm_pairs():
    """(left, right, expected) for every pair of zero, finite and bound
    norms on the Laurent and the Hahn scale, with exponents below, equal
    to and above each other.  expected is compare's answer, or the text
    of its PrecisionError, read off the set of reals each norm allows:
    {0}, {e^-v} or [0, e^-c]."""
    scales = [
        [Fraction(-1), Fraction(2), Fraction(3)],
        [E2, E1, E1.scale(2)],  # 1/sqrt 3 < 1/sqrt 2 < 2/sqrt 2
    ]
    for exps in scales:
        # Each norm with its kind and the least and greatest real it
        # allows, as ranks: -inf stands for 0 and -i for e^-v, v = exps[i].
        norms = [(NormValue.zero(), "zero", -math.inf, -math.inf)]
        for rank, e in enumerate(exps):
            norms.append((NormValue.finite(e), "finite", -rank, -rank))
            norms.append((NormValue.at_most(e), "bound", -math.inf, -rank))
        for left, kind_l, lo_l, hi_l in norms:
            for right, kind_r, lo_r, hi_r in norms:
                if hi_l < lo_r:
                    expected = -1
                elif lo_l > hi_r:
                    expected = 1
                elif lo_l == hi_l == lo_r == hi_r:
                    expected = 0
                elif kind_l == kind_r == "bound":
                    expected = "comparison of two norm upper bounds is undecidable"
                else:
                    expected = "comparison with a norm upper bound is undecidable"
                yield left, right, expected


class TestNorm:
    def test_examples(self):
        assert L(11, {2: 1}).norm() == NormValue.finite(Fraction(2))
        assert LaurentSeries.constant(11, 7).norm() == NormValue.finite(Fraction(0))
        assert LaurentSeries.zero(11).norm() == NormValue.zero()

    def test_norm_value_comparisons(self):
        for left, right, expected in norm_pairs():
            if isinstance(expected, int):
                assert left.compare(right) == expected, (left, right)
        zero = NormValue.zero()
        small = NormValue.finite(Fraction(3))  # e^-3
        big = NormValue.finite(Fraction(-1))  # e^1
        bound = NormValue.at_most(Fraction(2))  # <= e^-2
        assert zero.compare(small) == -1 and small.compare(zero) == 1
        assert small.compare(big) == -1 and big.compare(small) == 1
        assert small.compare(small) == 0
        # A bound e^-2 decides against strictly larger finite norms only.
        assert bound.compare(big) == -1 and big.compare(bound) == 1
        with pytest.raises(PrecisionError):
            bound.compare(small)
        with pytest.raises(PrecisionError):
            bound.compare(zero)
        assert (small * big) == NormValue.finite(Fraction(2))
        assert (zero * bound) == zero
        assert (bound * small).is_bound

    def test_hahn_bound_against_finite_both_orders(self):
        # compare tests bound.exponent > finite.exponent, which the
        # exponent vectors answer with the reflected <.
        bound = NormValue.at_most(E1)  # <= e^-(1/sqrt 2)
        big = NormValue.finite(E2)  # e^-(1/sqrt 3), larger
        small = NormValue.finite(E1.scale(2))  # e^-(2/sqrt 2), smaller
        assert bound.compare(big) == -1 and big.compare(bound) == 1
        for finite in (small, NormValue.finite(E1)):
            with pytest.raises(PrecisionError):
                bound.compare(finite)
            with pytest.raises(PrecisionError):
                finite.compare(bound)

    def test_undecidable_bound_comparisons(self):
        for left, right, expected in norm_pairs():
            if isinstance(expected, str):
                with pytest.raises(PrecisionError) as info:
                    left.compare(right)
                assert str(info.value) == expected, (left, right)
        with pytest.raises(PrecisionError):
            NormValue.zero().compare(NormValue.at_most(Fraction(1)))
        with pytest.raises(PrecisionError):
            NormValue.at_most(Fraction(1)).compare(NormValue.at_most(Fraction(2)))

    def test_backends_do_not_mix(self):
        laurent = NormValue.finite(Fraction(1))
        hahn = NormValue.finite(E1)
        for left, right in ((laurent, hahn), (hahn, laurent)):
            with pytest.raises(BackendMismatch, match="norms from different backends"):
                left.compare(right)
            with pytest.raises(BackendMismatch, match="norms from different backends"):
                left * right

    def test_root(self):
        assert NormValue.zero().root(2) == NormValue.zero()
        with pytest.raises(DomainError):
            NormValue.finite(E1).root(2)

    def test_ball_only_norm_is_upper_bound(self):
        x = L(5, {}, cutoff=3)
        n = x.norm()
        assert n.is_bound and n.exponent == 3

    def test_strong_triangle_sampled(self, rng):
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            if rng.random() < 0.5:
                x, y = sample_laurent(rng, p), sample_laurent(rng, p)
            else:
                x, y = sample_hahn(rng, p), sample_hahn(rng, p)
            nx, ny = x.norm(), y.norm()
            if nx.compare(ny) == 0:
                continue
            bigger = nx if nx.compare(ny) > 0 else ny
            assert (x + y).norm().compare(bigger) == 0

    def test_multiplicativity_sampled(self, rng):
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            if rng.random() < 0.5:
                x, y = sample_laurent(rng, p), sample_laurent(rng, p)
            else:
                x, y = sample_hahn(rng, p), sample_hahn(rng, p)
            assert (x * y).norm().compare(x.norm() * y.norm()) == 0


class TestBallSoundness:
    def test_add_contains_representatives(self, rng):
        # Brute-force tail sampling: every representative of x and y sums
        # into the ball of x + y.
        for _ in range(60):
            p = rng.choice([2, 3])
            x = sample_laurent(rng, p, max_terms=2)
            y = sample_laurent(rng, p, max_terms=2)
            cx = Fraction(rng.randint(0, 4))
            cy = Fraction(rng.randint(0, 4))
            x_ball = LaurentSeries.make(p, dict(x.terms), cx)
            y_ball = LaurentSeries.make(p, dict(y.terms), cy)
            total = x_ball + y_ball
            for dx in (0, 1):
                for c1 in range(p):
                    for dy in (0, 1):
                        for c2 in range(p):
                            x_rep = LaurentSeries.make(
                                p, dict(x_ball.terms)
                            ) + LaurentSeries.make(p, {cx + dx: c1})
                            y_rep = LaurentSeries.make(
                                p, dict(y_ball.terms)
                            ) + LaurentSeries.make(p, {cy + dy: c2})
                            diff = (x_rep + y_rep) - LaurentSeries.make(
                                p, dict(total.terms)
                            )
                            v = diff.norm()
                            assert v.is_zero or v.exponent >= total.cutoff

    def test_mul_contains_representatives(self, rng):
        for _ in range(40):
            p = 2
            x = sample_laurent(rng, p, max_terms=2, min_v=0, max_v=3)
            y = sample_laurent(rng, p, max_terms=2, min_v=0, max_v=3)
            if not x.terms or not y.terms:
                continue
            x_ball = LaurentSeries.make(p, dict(x.terms), 4)
            y_ball = LaurentSeries.make(p, dict(y.terms), 4)
            total = x_ball * y_ball
            for dx in (0, 1):
                for dy in (0, 1):
                    x_rep = x + LaurentSeries.make(p, {4 + dx: 1})
                    y_rep = y + LaurentSeries.make(p, {4 + dy: 1})
                    diff = (x_rep * y_rep) - LaurentSeries.make(
                        p, dict(total.terms)
                    )
                    v = diff.norm()
                    assert v.is_zero or v.exponent >= total.cutoff


class TestLattice:
    def test_exponent_outside_lattice_rejected(self):
        with pytest.raises(DomainError):
            LaurentSeries.make(2, {Fraction(1, 3): 1})
        # The first surviving exponent in input order is named, and an
        # off-lattice cutoff before any term (1/5 lies below 1/3).
        for terms, cutoff, named in (
            ({Fraction(1, 5): 1, Fraction(1, 7): 1}, None, "1/5"),
            ({Fraction(1, 5): 1}, Fraction(1, 3), "1/3"),
        ):
            with pytest.raises(DomainError) as info:
                L(2, terms, cutoff)
            assert str(info.value) == f"exponent {named} is not in the (1/2^e)Z lattice"

    def test_level_promotion_on_mixed_ops(self):
        a = LaurentSeries.t_power(2, Fraction(1, 2))
        b = LaurentSeries.t_power(2, 1)
        assert (a + b).level == 1

    def test_vanishing_terms_may_lie_off_the_lattice(self):
        # Only surviving terms are checked: 2 = 0 mod 2, and 5/3 is past
        # the cutoff.
        zero = L(2, {Fraction(1, 3): 2})
        assert zero == LaurentSeries.zero(2) and zero.level == 0
        x = L(2, {0: 1, Fraction(5, 3): 1}, cutoff=1)
        assert x == L(2, {0: 1}, cutoff=1) and x.level == 0


# A reference kernel for the differential test: a series is a pair
# (dict {Fraction exponent: coefficient}, cutoff or None), computed
# straight from the definitions with no lattice bookkeeping.


def ref_canon(p, terms, cutoff):
    kept = {
        e: c % p for e, c in terms.items() if c % p and (cutoff is None or e < cutoff)
    }
    return kept, cutoff


def ref_add(p, x, y):
    total = dict(x[0])
    for e, c in y[0].items():
        total[e] = total.get(e, 0) + c
    cuts = [c for c in (x[1], y[1]) if c is not None]
    return ref_canon(p, total, min(cuts) if cuts else None)


def ref_neg(p, x):
    return ref_canon(p, {e: -c for e, c in x[0].items()}, x[1])


def ref_mul(p, x, y):
    if (not x[0] and x[1] is None) or (not y[0] and y[1] is None):
        return {}, None
    cuts = []
    for a, b in ((x, y), (y, x)):
        if b[1] is not None:
            # The ball of b times the lowest explicit or ball exponent of a.
            cuts.append(min([*a[0], *([a[1]] if a[1] is not None else [])]) + b[1])
    product = {}
    for e1, c1 in x[0].items():
        for e2, c2 in y[0].items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    return ref_canon(p, product, min(cuts) if cuts else None)


def ref_scale(p, x, factor):
    cut = None if x[1] is None else x[1] * factor
    return ref_canon(p, {e * factor: c for e, c in x[0].items()}, cut)


def ref_split(p, level, x):
    """Terms with exponent in (1/p^level)Z, same cutoff."""
    kept = {e: c for e, c in x[0].items() if (e * p**level).denominator == 1}
    return kept, x[1]


def ref_level(p, x):
    values = [*x[0], *([x[1]] if x[1] is not None else [])]
    level = 0
    while any((v * p**level).denominator != 1 for v in values):
        level += 1
    return level


def sample_ref(rng, p):
    """Up to five terms with exponents in [-12/p^k, 12/p^k], k in 0..2
    (coefficient 0 allowed), and a cutoff half of the time."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = Fraction(rng.randint(-12, 12), p ** rng.randint(0, 2))
        terms[e] = terms.get(e, 0) + rng.randint(0, p - 1)
    cutoff = None
    if rng.random() < 0.5:
        cutoff = Fraction(rng.randint(-6, 14), p ** rng.randint(0, 2))
    return ref_canon(p, terms, cutoff)


def assert_matches(got, p, ref):
    terms, cutoff = ref
    assert got.terms == tuple(sorted(terms.items()))
    assert got.cutoff == cutoff
    assert got.level == ref_level(p, ref)


class TestLatticeKernelDifferential:
    """The integer-lattice kernel against the dict-of-Fraction reference."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ring_ops_frobenius_root_and_splitting(self, rng, p):
        for _ in range(150):
            x, y = sample_ref(rng, p), sample_ref(rng, p)
            a = LaurentSeries.make(p, x[0], x[1])
            b = LaurentSeries.make(p, y[0], y[1])
            assert_matches(a, p, x)
            for e in [*x[0], Fraction(1, p**3), Fraction(-13)]:
                assert a.coefficient(e) == x[0].get(e, 0)
            assert_matches(a + b, p, ref_add(p, x, y))
            assert_matches(a - b, p, ref_add(p, x, ref_neg(p, y)))
            assert_matches(a * b, p, ref_mul(p, x, y))
            assert_matches(a.frobenius(), p, ref_scale(p, x, p))
            assert_matches(a.pth_root(), p, ref_scale(p, x, Fraction(1, p)))
            for level in range(3):
                phi = phi_standard(p, level=level)
                if ref_level(p, x) > level + 1:
                    with pytest.raises(BackendMismatch):
                        phi.apply(a)
                else:
                    assert_matches(phi.apply(a), p, ref_split(p, level, x))


class TestCanonicalForm:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_level_minimal_after_cancellation(self, p):
        root = LaurentSeries.t_power(p, Fraction(1, p))
        x = LaurentSeries.one(p) + root
        assert x.level == 1
        assert (x - root).level == 0
        assert (x - root) == LaurentSeries.one(p)
        # t^(1/p) * t^((p-1)/p) = t lands back on the integer lattice.
        prod = root * LaurentSeries.t_power(p, Fraction(p - 1, p))
        assert prod.level == 0 and prod == LaurentSeries.t_power(p, 1)
        # A coefficient that vanishes mod p leaves no level behind.
        assert L(p, {1: 1, Fraction(1, p**2): p}).level == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_level_minimal_after_a_cutoff_drops_terms(self, p):
        x = L(p, {0: 1, Fraction(p + 1, p): 1})
        assert x.level == 1
        assert (x + LaurentSeries.ball(p, 1)).level == 0
        assert L(p, {0: 1, Fraction(p + 1, p): 1}, cutoff=1).level == 0
        near_one = L(p, {0: 1}, cutoff=1)  # 1 + O(t)
        prod = x * near_one
        assert prod.terms == ((Fraction(0), 1),) and prod.cutoff == 1
        assert prod.level == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_level_minimal_after_frobenius(self, p):
        x = L(p, {Fraction(1, p**2): 1, Fraction(1, p): 2 % p or 1})
        assert x.level == 2
        assert x.frobenius().level == 1
        assert x.frobenius().frobenius().level == 0
        assert L(p, {1: 1}, cutoff=Fraction(1, p)).frobenius().level == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equal_values_built_differently(self, p):
        t = LaurentSeries.t_power(p, 1)
        root = LaurentSeries.t_power(p, Fraction(1, p))
        power = LaurentSeries.one(p)
        for _ in range(p):
            power = power * root
        built = [
            t,
            power,
            root.frobenius(),
            t.frobenius().pth_root(),
            L(p, [(Fraction(p, p), 1)]),
            L(p, [(1, 1), (Fraction(1, p), 1), (Fraction(1, p), p - 1)]),
            L(p, {1: 1, 2: 1}, cutoff=Fraction(2 * p, p)).explicit_part(),
            (t + root) - root,
            t.scalar_mul(p + 1),
            (L(p, {1: 1}, cutoff=3) + LaurentSeries.t_power(p, 3)).explicit_part(),
            pickle.loads(pickle.dumps(t)),
        ]
        for other in built:
            assert other == t
            assert hash(other) == hash(t)
        assert t != root and t != LaurentSeries.ball(p, 2) + t


def t_vec(c):
    """The Hahn exponent [1:c], the image of the Laurent exponent c."""
    return ExponentVector.unit(1, int(c))


def hahn_sum(p, terms, cutoff):
    """HahnSum.make with the exponents and cutoff mapped by t_vec."""
    cut = None if cutoff is None else t_vec(cutoff)
    return HahnSum.make(p, [(t_vec(e), c) for e, c in terms], cut)


def hahn_image(x):
    """The image of a Laurent series with integer exponents under
    t^c -> t^[1:c], which keeps sums and order since 1/sqrt(2) > 0."""
    return hahn_sum(x.p, x.terms, x.cutoff)


def norm_image(n):
    return n if n.is_zero else NormValue(n.kind, t_vec(n.exponent))


def outcome(op, *args):
    """('ok', value) or ('error', exception type)."""
    try:
        return "ok", op(*args)
    except Exception as error:  # the type is the outcome
        return "error", type(error)


class TestBackendsAgree:
    """One kernel serves both backends alike: t^c -> t^[1:c] commutes with
    every operation both backends have."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_integer_exponent_series_map_to_hahn_sums(self, rng, p):
        for _ in range(300):
            raws = []
            for _ in range(2):
                n = rng.randint(0, 5)
                raw = [(rng.randint(-6, 6), rng.randint(0, p)) for _ in range(n)]
                cut = rng.randint(-3, 8) if rng.random() < 0.5 else None
                raws.append((raw, cut))
            (a, b) = xs = [LaurentSeries.make(p, raw, cut) for raw, cut in raws]
            (ha, hb) = hs = [hahn_sum(p, raw, cut) for raw, cut in raws]
            assert hs == [hahn_image(x) for x in xs]
            k = rng.randint(-p, 2 * p)
            for op in [
                lambda u, v: u + v,
                lambda u, v: u - v,
                lambda u, v: u * v,
                lambda u, v: -u,
                lambda u, v: u.scalar_mul(k),
                lambda u, v: u.frobenius(),
            ]:
                kind, value = outcome(op, a, b)
                expected = (kind, hahn_image(value) if kind == "ok" else value)
                assert outcome(op, ha, hb) == expected
            for x, h in zip(xs, hs):
                assert h.norm() == norm_image(x.norm())
                assert outcome(h.residue) == outcome(x.residue)


# sha256 of the printed answers below, recorded before the cached
# exponent bounds came from a table of constants per generator.
HAHN_PINNED_DIGEST = "4ccd9984aacbf5d499d433b9026f6373bdb823ec72420efe24bc95559c8b7939"


def test_hahn_answers_pinned():
    # A fixed seed, not SEED: the digest pins these very inputs.
    rng = random.Random(13)
    digest = hashlib.sha256()

    def wide(rng):
        # Up to 12 generators and coefficients of up to 90 bits.
        support = rng.sample(range(1, 13), k=rng.randint(1, 4))
        return ExponentVector.from_dict(
            {i: rng.choice([-1, 1]) * rng.getrandbits(rng.randint(1, 90)) for i in support}
        )

    for _ in range(200):
        p = rng.choice([2, 3, 5])
        x, y = sample_hahn(rng, p), sample_hahn(rng, p)
        if rng.random() < 0.3:
            x = x + HahnSum.ball(p, sample_exponent_vector(rng))
        total, product = x + y, x * y
        a, b = sample_exponent_vector(rng, max_index=6), wide(rng)
        printed = [
            str(total),
            str(product),
            format_norm_value(total.norm()),
            format_norm_value(product.norm()),
            compare(a, b),
            compare(b, a + b),
        ]
        digest.update(f"{printed}\n".encode())
    # h/sqrt(2) - 3k/sqrt(3) is tiny for the convergents h/k of sqrt(6).
    for h, k in sqrt_convergents(6):
        a, b = h, 3 * k
        if max(a, b).bit_length() > 200:
            break
        for shift in [{}, {3: 1}, {3: -7, 5: 2}]:
            u = ExponentVector.from_dict({1: a, **shift})
            v = ExponentVector.from_dict({2: b, **shift})
            printed = [compare(u, v), str(HahnSum.make(2, {u: 1, v: 1}))]
            digest.update(f"{printed}\n".encode())
    assert digest.hexdigest() == HAHN_PINNED_DIGEST


# Records on __slots__: each prints and hashes as a frozen dataclass of the
# same name and fields (built here as the reference), is equal to no plain
# tuple, refuses writes and survives pickle and deepcopy.
RECORDS = [
    (
        ExponentVector.from_dict({1: 2, 3: -1}),
        ("coords",),
        "ExponentVector(coords=((1, 2), (3, -1)))",
    ),
    (ExponentVector.zero(), ("coords",), "ExponentVector(coords=())"),
    (E1.signature(3), ("p", "residues"), "CosetSignature(p=3, residues=((1, 1),))"),
    (
        NormValue.finite(Fraction(1, 2)),
        ("kind", "exponent"),
        "NormValue(kind='finite', exponent=Fraction(1, 2))",
    ),
    (
        NormValue.at_most(E2),
        ("kind", "exponent"),
        "NormValue(kind='at_most', exponent=ExponentVector(coords=((2, 1),)))",
    ),
    (NormValue.zero(), ("kind", "exponent"), "NormValue(kind='zero', exponent=None)"),
]


@pytest.mark.parametrize(
    "record,fields,text",
    RECORDS,
    ids=["vector", "zero-vector", "signature", "finite", "at-most", "zero-norm"],
)
def test_slotted_records_behave_as_frozen_dataclasses(record, fields, text):
    values = tuple(getattr(record, name) for name in fields)
    twin = dataclasses.make_dataclass(type(record).__name__, fields, frozen=True)(*values)
    assert repr(record) == repr(twin) == text
    assert hash(record) == hash(twin) == hash(values)
    assert record != values and values != record
    assert record != twin
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, name) for name in fields) == values
    for copied in [pickle.loads(pickle.dumps(record)), copy.deepcopy(record)]:
        assert copied == record and copied is not record
        assert hash(copied) == hash(record) and repr(copied) == text
        assert type(copied) is type(record)


def test_vector_caches_are_read_only_and_not_pickled():
    vec = ExponentVector.from_dict({1: 3, 2: -4})
    bounds, h = vec._fast_bounds, hash(vec)
    for name in ["_hash", "_enclosure"]:
        with pytest.raises(AttributeError):
            setattr(vec, name, None)
    copied = pickle.loads(pickle.dumps(vec))
    assert copied._hash is None and copied._enclosure is None
    assert copied._fast_bounds == bounds and hash(copied) == h


def decimal_value_150(vec):
    """The real value of vec with decimal square roots at 150 digits."""
    with decimal.localcontext(decimal.Context(prec=150)):
        return sum(
            (c / decimal.Decimal(nth_prime(i)).sqrt() for i, c in vec.coords),
            decimal.Decimal(0),
        )


@pytest.mark.parametrize("bits,others", [(108, 2), (150, 3), (200, 3)])
def test_hahn_support_orders_near_ties_in_every_insertion_order(monkeypatch, bits, others):
    # a/sqrt(2) and b/sqrt(3) differ by about 2^-bits, less than the width of
    # their cached enclosures (about 2^(bits - 208)), so the sort must reach
    # _sign; the other terms sit at distances the cached bounds settle.
    h, k = next((h, k) for h, k in sqrt_convergents(6) if max(h, 3 * k).bit_length() >= bits)
    a, b = h, 3 * k
    tie = [ExponentVector.unit(1, a), ExponentVector.unit(2, b)]
    extra = [
        ExponentVector.from_dict({1: a, 3: 1}),
        ExponentVector.from_dict({2: b, 3: -1}),
        ExponentVector.unit(4, 7),
    ]
    exps = tie + extra[:others]
    values = {e: decimal_value_150(e) for e in exps}
    expected = sorted(exps, key=values.__getitem__)
    gaps = [values[v] - values[u] for u, v in zip(expected, expected[1:])]
    # At 150 digits a value below 2^201 is off by under 10^-89, far below
    # the least gap.
    assert min(gaps) > decimal.Decimal(2) ** -(bits + 8)
    signs = []
    sign = exponents._sign

    def counting_sign(vec, r):
        signs.append(vec)
        return sign(vec, r)

    monkeypatch.setattr(exponents, "_sign", counting_sign)
    cut = max(tie, key=values.__getitem__)
    for order in itertools.permutations(exps):
        fresh = [ExponentVector(e.coords) for e in order]
        coeffs = range(1, len(fresh) + 1)
        assert HahnSum.make(7, zip(fresh, coeffs)).support() == tuple(expected)
        below = tuple(e for e in expected if values[e] < values[cut])
        assert HahnSum.make(7, zip(fresh, coeffs), cut).support() == below
    assert signs, "the exact path never ran"


def test_laurent_series_refuses_writes_and_deletes():
    x = L(3, {0: 1, 1: 2}, cutoff=4)
    for name in ["p", "level", "_exps", "_coeffs", "_cut", "_terms", "extra"]:
        with pytest.raises(AttributeError, match="^LaurentSeries is immutable"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match="^LaurentSeries is immutable"):
            delattr(x, name)
    assert x == L(3, {0: 1, 1: 2}, cutoff=4)


def test_hahn_sort_meets_presorted_input(monkeypatch):
    # Exponents whose cached enclosures are disjoint, in a shuffled order:
    # after the presort by enclosure the comparison sort sees a sorted list
    # and makes n - 1 comparisons (a plain sort of this order makes 24).
    exps = [ExponentVector.from_dict({1: k, 2: -k, 3: 1}) for k in range(-5, 5)]
    order = [exps[i] for i in [3, 8, 0, 6, 1, 9, 4, 2, 7, 5]]
    calls = []
    less = ExponentVector.__lt__

    def counting_less(a, b):
        calls.append((a, b))
        return less(a, b)

    monkeypatch.setattr(ExponentVector, "__lt__", counting_less)
    total = HahnSum.make(5, {e: 1 for e in order})
    assert len(calls) == len(exps) - 1
    assert total.support() == tuple(sorted(exps, key=decimal_value_150))
