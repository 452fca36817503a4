import io
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from tatekit.cli import main
from tatekit.errors import BackendMismatch, DomainError, PrecisionError
from tatekit.exponents import ExponentVector
from tatekit.field import HahnSum, LaurentSeries, NormValue
from tatekit.selftest import sample_tate
from tatekit.tate import (
    AutomorphismSpec,
    DistinguishedReport,
    TateElem,
    _lucas_entry,
    apply_automorphism,
    distinguished_order,
    euclid_degree,
    find_distinguishing_automorphism,
    gauss_norm,
    is_unit,
    project_kill_vars,
)


def one(p):
    return LaurentSeries.one(p)


def t(p, e=1):
    return LaurentSeries.t_power(p, e)


class TestRingOps:
    def test_add_doubles(self):
        p = 3
        x1 = TateElem.monomial(2, (1, 0), one(p))
        assert (x1 + x1) == TateElem.monomial(2, (1, 0), LaurentSeries.constant(p, 2))

    def test_mul_monomials(self):
        p = 5
        tx = TateElem.monomial(1, (1,), t(p))
        assert tx * tx == TateElem.monomial(1, (2,), t(p, 2))

    def test_slack_scales_with_norm(self):
        p = 5
        f = TateElem.make(
            1, p, {(0,): one(p)}, slack=NormValue.finite(Fraction(2))
        )
        g = TateElem.constant(1, t(p))
        product = f * g
        assert product.coefficient((0,)) == t(p)
        assert product.slack == NormValue.finite(Fraction(3))

    def test_arity_mismatch(self):
        p = 3
        with pytest.raises(BackendMismatch):
            TateElem.constant(1, one(p)) + TateElem.constant(2, one(p))

    def test_normalization_folds_dominated_terms(self):
        p = 3
        f = TateElem.make(
            1,
            p,
            {(0,): one(p), (1,): t(p, 5)},
            slack=NormValue.finite(Fraction(2)),
        )
        # |t^5| = e^-5 <= e^-2, so the term folds into the slack.
        assert f.coefficient((1,)) is None
        assert f.coefficient((0,)) == one(p)


class TestGaussNorm:
    def test_examples(self):
        p = 5
        f = TateElem.make(1, p, {(2,): one(p), (1,): t(p)})
        assert gauss_norm(f) == NormValue.finite(Fraction(0))
        g = TateElem.make(1, p, {(1,): t(p), (0,): t(p, 3)})
        assert gauss_norm(g) == NormValue.finite(Fraction(1))
        assert gauss_norm(TateElem.zero(1, p)) == NormValue.zero()

    def test_slack_only_is_a_bound(self):
        p = 3
        f = TateElem.make(1, p, {}, slack=NormValue.finite(Fraction(1)))
        assert gauss_norm(f).is_bound


class TestIsUnit:
    def test_examples(self):
        p = 5
        assert is_unit(TateElem.make(1, p, {(0,): one(p), (1,): t(p)}))
        assert not is_unit(TateElem.make(1, p, {(0,): t(p), (1,): one(p)}))
        with pytest.raises(PrecisionError):
            is_unit(TateElem.make(1, p, {}, slack=NormValue.finite(Fraction(1))))

    def test_zero_is_not_a_unit(self):
        assert not is_unit(TateElem.zero(2, 3))

    def test_unit_iff_distinguished_of_order_zero(self, rng):
        for _ in range(200):
            p = rng.choice([2, 3])
            n = rng.choice([1, 2])
            f = sample_tate(rng, n, p)
            if not f.terms:
                continue
            report = distinguished_order(f, n)
            assert is_unit(f) == (report.order == 0 and report.is_distinguished)


class TestDistinguished:
    def test_t_plus_x(self):
        p = 5
        report = distinguished_order(TateElem.make(1, p, {(0,): t(p), (1,): one(p)}))
        assert report.order == 1 and report.is_distinguished

    def test_tie_goes_to_largest_index(self):
        p = 5
        report = distinguished_order(TateElem.make(1, p, {(0,): one(p), (1,): one(p)}))
        assert report.order == 1 and report.is_distinguished

    def test_non_unit_dominant_coefficient(self):
        p = 5
        report = distinguished_order(TateElem.monomial(2, (1, 0), one(p)), 2)
        assert report.order == 0 and not report.is_distinguished

    def test_zero_input(self):
        with pytest.raises(DomainError):
            distinguished_order(TateElem.zero(1, 3))

    def test_distinguished_has_pure_last_variable_term(self, rng):
        for _ in range(150):
            p = rng.choice([2, 3])
            n = rng.choice([2, 3])
            f = sample_tate(rng, n, p)
            if not f.terms:
                continue
            report = distinguished_order(f, n)
            if not report.is_distinguished:
                continue
            pure = tuple([0] * (n - 1)) + (report.order,)
            assert f.coefficient(pure) is not None

    def test_matches_the_coefficient_decomposition(self, rng):
        # Exponents at most 2 and up to 6 terms, so terms often share
        # their X_axis degree; every axis of n = 1, 2, 3.
        shared = 0
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            n = rng.choice([1, 2, 3])
            f = sample_tate(rng, n, p, max_terms=6, max_exp=2)
            if not f.terms:
                continue
            for axis in range(1, n + 1):
                order, total, unit = decomposed_order(f, axis)
                expected = DistinguishedReport(order, NormValue.finite(total), unit)
                assert distinguished_order(f, axis) == expected
                degrees = [idx[axis - 1] for idx, _ in f.terms]
                shared += len(set(degrees)) < len(degrees)
        assert shared > 100


def decomposed_order(f: TateElem, axis: int):
    """(order, Gauss exponent, distinguished) read off f = sum_k a_k X_axis^k:
    each a_k's Gauss exponent is the least valuation of its terms, the
    order is the largest k whose a_k attains the least of these, and a_k
    is a unit when its constant term's valuation is below all the others."""
    pos = axis - 1
    coeffs: dict = {}
    for idx, c in f.terms:
        rest = idx[:pos] + idx[pos + 1 :]
        coeffs.setdefault(idx[pos], {})[rest] = c.terms[0][0]
    exps = {k: min(a.values()) for k, a in coeffs.items()}
    total = min(exps.values())
    order = max(k for k, e in exps.items() if e == total)
    a = coeffs[order]
    const = a.get(tuple([0] * (f.n - 1)))
    unit = const is not None and all(const < e for rest, e in a.items() if any(rest))
    return order, total, unit


class TestEuclidDegree:
    def test_examples(self):
        p = 7
        assert euclid_degree(TateElem.make(1, p, {(2,): one(p), (1,): t(p)})) == 2
        assert euclid_degree(TateElem.monomial(1, (1,), t(p))) == 1
        assert euclid_degree(TateElem.constant(1, LaurentSeries.constant(p, 5))) == 0

    def test_rejects_higher_arity(self):
        with pytest.raises(DomainError):
            euclid_degree(TateElem.constant(2, one(3)))


class TestAutomorphism:
    def test_shear_of_x1(self):
        p = 5
        sigma = AutomorphismSpec((1,))
        image = apply_automorphism(sigma, TateElem.monomial(2, (1, 0), one(p)))
        assert image == TateElem.make(2, p, {(1, 0): one(p), (0, 1): one(p)})

    def test_round_trip(self):
        p = 5
        sigma = AutomorphismSpec((1,))
        f = TateElem.monomial(2, (1, 1), one(p))
        assert apply_automorphism(sigma, apply_automorphism(sigma, f), True) == f

    def test_binomial_expansion(self):
        p = 5
        sigma = AutomorphismSpec((2,))
        image = apply_automorphism(sigma, TateElem.monomial(2, (2, 0), one(p)))
        expected = TateElem.make(
            2,
            p,
            {
                (2, 0): one(p),
                (1, 2): LaurentSeries.constant(p, 2),
                (0, 4): one(p),
            },
        )
        assert image == expected

    def test_ring_morphism(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3])
            n = rng.choice([2, 3])
            spec = AutomorphismSpec(
                tuple(rng.randint(0, 3) for _ in range(n - 1))
            )
            f = sample_tate(rng, n, p)
            g = sample_tate(rng, n, p)
            assert apply_automorphism(spec, f + g) == apply_automorphism(
                spec, f
            ) + apply_automorphism(spec, g)
            assert apply_automorphism(spec, f * g) == apply_automorphism(
                spec, f
            ) * apply_automorphism(spec, g)
            assert (
                apply_automorphism(spec, apply_automorphism(spec, f), True) == f
            )

    def test_gauss_norm_preserved(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3])
            n = rng.choice([2, 3])
            spec = AutomorphismSpec(
                tuple(rng.randint(0, 3) for _ in range(n - 1))
            )
            f = sample_tate(rng, n, p)
            lhs = gauss_norm(apply_automorphism(spec, f))
            rhs = gauss_norm(f)
            if rhs.is_zero:
                assert lhs.is_zero
            else:
                assert lhs.compare(rhs) == 0


class TestFindAutomorphism:
    def test_x1(self):
        p = 5
        spec = find_distinguishing_automorphism([TateElem.monomial(2, (1, 0), one(p))])
        assert spec.exponents == (1,)

    def test_x1x2(self):
        p = 5
        f = TateElem.monomial(2, (1, 1), one(p))
        spec = find_distinguishing_automorphism([f])
        assert spec.exponents == (1,)
        report = distinguished_order(apply_automorphism(spec, f), 2)
        assert report.order == 2 and report.is_distinguished

    def test_last_candidate_wins(self):
        # X1^2 X2^2 + X1^3 X2 + 1: D = 4, and neither (0,) nor (1,) makes
        # it distinguished, so the search reaches the staircase at c = 1,
        # a_1 = 1 + (D+1) = 6, under which X1^3 X2 leads with X2^19.
        p = 2
        f = TateElem.make(2, p, {(0, 0): one(p), (2, 2): one(p), (3, 1): one(p)})
        for exponents in [(0,), (1,)]:
            sheared = apply_automorphism(AutomorphismSpec(exponents), f)
            assert not distinguished_order(sheared, 2).is_distinguished
        spec = find_distinguishing_automorphism([f])
        assert spec.exponents == (6,)
        assert distinguished_order(apply_automorphism(spec, f), 2).order == 19

    def test_constant_unit_needs_no_shear(self):
        p = 5
        spec = find_distinguishing_automorphism([TateElem.constant(2, t(p))])
        assert spec.exponents == (0,)

    def test_one_variable_needs_no_shear(self):
        p = 5
        f = TateElem.make(1, p, {(1,): one(p), (0,): t(p)})
        assert find_distinguishing_automorphism([f]).exponents == ()
        out, err = io.StringIO(), io.StringIO()
        code = main(["automorph", "--f", "X + [t]"], out, err)
        assert (code, out.getvalue(), err.getvalue()) == (0, "alphas = \n", "")

    @pytest.mark.parametrize(
        "gs,error,message",
        [
            ([], DomainError, "need at least one series"),
            (
                [TateElem.monomial(1, (1,), one(5)), TateElem.monomial(2, (1, 0), one(5))],
                BackendMismatch,
                "series from different algebras",
            ),
            (
                [TateElem.make(1, 5, {(1,): one(5)}, NormValue.at_most(Fraction(1)))],
                DomainError,
                "search needs exact elements",
            ),
            ([TateElem.zero(2, 5)], DomainError, "zero-input: zero is never distinguished"),
        ],
    )
    def test_input_errors(self, gs, error, message):
        with pytest.raises(error) as info:
            find_distinguishing_automorphism(gs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "f,message",
        [("X + O(e^1)", "search needs exact elements"), ("0", "zero-input: zero is never distinguished")],
    )
    def test_cli_input_errors_exit_2(self, f, message):
        out, err = io.StringIO(), io.StringIO()
        code = main(["automorph", "--f", f], out, err)
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")

    def test_search_memory_is_bounded(self):
        # X1^40 + X2 + X3 is distinguished as it stands, so the first
        # candidate (0, 0) wins; the other 2 + 40^3 must not be built.
        p = 3
        f = TateElem.make(
            3, p, {(40, 0, 0): one(p), (0, 1, 0): one(p), (0, 0, 1): one(p)}
        )
        tracemalloc.start()
        try:
            spec = find_distinguishing_automorphism([f])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.exponents == (0, 0)
        assert peak < 1_000_000

    def test_verified_on_random_inputs(self, rng):
        for _ in range(60):
            p = rng.choice([2, 3])
            n = rng.choice([2, 3])
            gs = []
            while len(gs) < rng.randint(1, 3):
                f = sample_tate(rng, n, p)
                if f.terms:
                    gs.append(f)
            spec = find_distinguishing_automorphism(gs)
            for g in gs:
                report = distinguished_order(apply_automorphism(spec, g), n)
                assert report.is_distinguished

    def test_first_candidate_by_expansion(self):
        # The search decides each candidate on the reduction; the oracle
        # expands every candidate and asks distinguished_order.  Most draws
        # put several terms on one total degree at one norm, so the top of
        # a = (1, ..., 1) often cancels mod p and the search walks down.
        rng = random.Random(22)
        answers, cancelled, hahn = set(), 0, 0
        for _ in range(300):
            p, n = rng.choice([2, 3, 5]), rng.choice([2, 3])
            use_hahn = rng.random() < 0.25
            gs = [draw_search_input(rng, p, n, use_hahn) for _ in range(rng.randint(1, 2))]
            degree = max(g.total_degree() for g in gs)
            weights = [(degree + 1) ** (n - 1 - i) for i in range(n - 1)]
            candidates = [(0,) * (n - 1)] + [tuple(1 + c * w for w in weights) for c in range(2)]
            reports = [
                [distinguished_order(apply_automorphism(AutomorphismSpec(a), g), n) for g in gs]
                for a in candidates
            ]
            first = next(k for k, row in enumerate(reports) if all(r.is_distinguished for r in row))
            assert find_distinguishing_automorphism(gs).exponents == candidates[first]
            answers.add(first)
            # Under a = (1, ..., 1) the top of the reduction cancelled when
            # the sheared order is below the largest |alpha| at full norm.
            cancelled += any(
                r.order < max(sum(idx) for idx, c in g.terms if c.norm() == r.dominant_norm)
                for g, r in zip(gs, reports[1])
            )
            hahn += use_hahn
        assert answers == {0, 1, 2} and cancelled >= 50 and hahn >= 40


def draw_search_input(rng, p, n, use_hahn):
    """A nonzero element with 1-4 terms whose coefficients are r t^v plus
    a term of smaller norm, v mostly 0; most indices share one total degree."""
    zero, step = (ExponentVector.zero(), ExponentVector.unit(2)) if use_hahn else (0, 1)
    make = HahnSum.make if use_hahn else LaurentSeries.make
    total = rng.randint(1, 3 * n)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.7:
            index = [0] * n
            for _ in range(total):
                index[rng.randrange(n)] += 1
        else:
            index = [rng.randint(0, 3) for _ in range(n)]
        v = zero if rng.random() < 0.8 else zero + step
        coeff = make(p, {v: rng.randint(1, p - 1), v + step: rng.randint(1, p - 1)})
        terms[tuple(index)] = coeff
    return TateElem.make(n, p, terms)


class TestProjection:
    def test_examples(self):
        p = 5
        f = TateElem.make(2, p, {(1, 0): one(p), (0, 3): one(p)})
        assert project_kill_vars(f, 2) == TateElem.monomial(1, (3,), one(p))
        assert project_kill_vars(
            TateElem.monomial(2, (1, 1), one(p)), 2
        ) == TateElem.zero(1, p)
        g = TateElem.make(2, p, {(0, 0): one(p), (0, 1): t(p)})
        assert project_kill_vars(g, 2) == TateElem.make(
            1, p, {(0,): one(p), (1,): t(p)}
        )

    def test_ring_morphism_and_norm_bound(self, rng):
        for _ in range(100):
            p = rng.choice([2, 3])
            f = sample_tate(rng, 2, p)
            g = sample_tate(rng, 2, p)
            pf, pg = project_kill_vars(f, 2), project_kill_vars(g, 2)
            assert project_kill_vars(f + g, 2) == pf + pg
            assert project_kill_vars(f * g, 2) == pf * pg
            nf, npf = gauss_norm(f), gauss_norm(pf)
            if not npf.is_zero and not nf.is_zero:
                assert npf.compare(nf) <= 0


class TestExhaustiveMultiplicativity:
    def test_small_one_variable_grid(self):
        # All <=2-term series, exponents <=3, monomial coefficients with
        # valuation in {-1, 0, 1}, for p in {2, 3}.
        for p in (2, 3):
            elements = [TateElem.zero(1, p)]
            singles = [
                TateElem.monomial(1, (k,), t(p, v))
                for k in range(4)
                for v in (-1, 0, 1)
            ]
            elements.extend(singles)
            for (k1, k2) in itertools.combinations(range(4), 2):
                for v1 in (-1, 0, 1):
                    for v2 in (-1, 0, 1):
                        elements.append(
                            TateElem.make(1, p, {(k1,): t(p, v1), (k2,): t(p, v2)})
                        )
            sample = elements[:: max(1, len(elements) // 25)]
            for f in sample:
                for g in sample:
                    assert gauss_norm(f * g).compare(
                        gauss_norm(f) * gauss_norm(g)
                    ) == 0


def ball(p):
    return LaurentSeries.make(p, {0: 1}, 4)


class TestOutsideInputChecks:
    """Indices and coefficients from a caller are checked; the builder
    behind the internal operations trusts its pairs."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (
                lambda: TateElem.make(2, 3, {(1,): one(3)}),
                DomainError,
                "multi-index (1,) invalid for arity 2",
            ),
            (
                lambda: TateElem.make(1, 3, {(0, 0): one(3)}),
                DomainError,
                "multi-index (0, 0) invalid for arity 1",
            ),
            (
                lambda: TateElem.make(2, 3, {(1, -1): one(3)}),
                DomainError,
                "multi-index (1, -1) invalid for arity 2",
            ),
            (
                lambda: TateElem.make(1, 3, {(0,): one(5)}),
                BackendMismatch,
                "coefficient characteristic differs",
            ),
            (
                lambda: TateElem.make(1, 3, {(0,): ball(3)}),
                DomainError,
                "coefficients must be exact (no ball)",
            ),
            (
                lambda: TateElem.make(1, 3, [((0,), one(3)), ((0,), ball(3))]),
                DomainError,
                "coefficients must be exact (no ball)",
            ),
            (
                lambda: TateElem.monomial(2, (1,), one(3)),
                DomainError,
                "multi-index (1,) invalid for arity 2",
            ),
            (
                lambda: TateElem.constant(1, ball(3)),
                DomainError,
                "coefficients must be exact (no ball)",
            ),
            (
                lambda: TateElem.constant(1, one(3)).map_coefficients(lambda c: ball(3)),
                DomainError,
                "coefficients must be exact (no ball)",
            ),
            (
                lambda: TateElem.constant(1, one(3)).map_coefficients(lambda c: one(5)),
                BackendMismatch,
                "coefficient characteristic differs",
            ),
            (
                lambda: TateElem.make(1, 2, {}, "e^-3"),
                DomainError,
                "slack must be a norm value",
            ),
            (
                lambda: TateElem.make(1, 2, {}, 3),
                DomainError,
                "slack must be a norm value",
            ),
        ],
    )
    def test_rejected(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    def test_repeated_indices_merge(self):
        p = 3
        pairs = [((1,), one(p)), ((0,), t(p)), ((1,), one(p)), ((1,), one(p))]
        assert TateElem.make(1, p, pairs) == TateElem.constant(1, t(p))


def shear_by_every_binomial(spec, f, inverse=False):
    """Independent oracle: expand every (X_i +/- X_n^a_i)^k over all j <= k."""
    sign = -1 if inverse else 1
    data = {}
    for idx, coeff in f.terms:
        head, last = idx[:-1], idx[-1]
        for js in itertools.product(*[range(k + 1) for k in head]):
            factor = 1
            for k, j in zip(head, js):
                factor *= math.comb(k, j) * sign**j
            if factor % f.char == 0:
                continue
            extra = sum(a * j for a, j in zip(spec.exponents, js))
            new_idx = tuple(k - j for k, j in zip(head, js)) + (last + extra,)
            piece = coeff.scalar_mul(factor % f.char)
            data[new_idx] = data[new_idx] + piece if new_idx in data else piece
    return TateElem.make(f.n, f.char, data, f.slack)


class TestLucasExpansion:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_matches_every_binomial(self, p, inverse):
        for k in range(61):
            for spec, index in [
                (AutomorphismSpec((0,)), (k, k % 3)),
                (AutomorphismSpec((2,)), (k, 1)),
                (AutomorphismSpec((1, 3)), (k, 60 - k, 2)),
                (AutomorphismSpec((0, 0)), (k % 7, k, 0)),
            ]:
                f = TateElem.monomial(len(index), index, t(p, k % 4 - 1))
                f = f + TateElem.constant(len(index), one(p))
                expected = shear_by_every_binomial(spec, f, inverse)
                assert apply_automorphism(spec, f, inverse) == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_lucas_entries_run_down_the_row(self, p):
        # The search walks each row from the largest j down, so the order
        # is part of the contract; None ends the row.
        for k in range(200):
            row = [(j, math.comb(k, j) % p) for j in range(k, -1, -1) if math.comb(k, j) % p]
            assert [_lucas_entry(k, p, r) for r in range(len(row) + 1)] == row + [None]

    def test_power_of_two_has_two_terms(self):
        # (X1 + X2)^(2^15) = X1^(2^15) + X2^(2^15) in characteristic 2.
        image = apply_automorphism(
            AutomorphismSpec((1,)), TateElem.monomial(2, (32768, 0), one(2))
        )
        assert image == TateElem.make(
            2, 2, {(32768, 0): one(2), (0, 32768): one(2)}
        )

    def test_cli_large_power_is_fast(self):
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        code = main(["automorph", "--p", "2", "--n", "2", "--f", "X1^8192 + X2"], out, err)
        elapsed = time.perf_counter() - started
        assert (code, out.getvalue(), err.getvalue()) == (0, "alphas = 0\n", "")
        assert elapsed < 1.0
