import io
import random
import tracemalloc

import pytest

from tatekit.cli import main
from tatekit.errors import DomainError, PrecisionError
from tatekit.exponents import ExponentVector, compare
from tatekit.field import HahnSum
from tatekit.gabber import (
    build_context,
    distance_lower_bound_check,
    melem,
    missing_coset_index,
    residue_witness,
    signature_set,
    value_group_witness,
    witness_truncation,
)
from tatekit.parsing import parse_hahn
from tatekit.selftest import sample_exponent_vector, sample_hahn

E1 = ExponentVector.unit(1)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    return main(argv, out, err), out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def ctx():
    return build_context(2, 4)


class TestWitness:
    def test_single_term(self, ctx):
        w = witness_truncation(ctx, 1)
        assert w == HahnSum.t_power(2, -ctx.rep(1))

    def test_three_terms_are_the_generators(self, ctx):
        w = witness_truncation(ctx, 3)
        expected = HahnSum.make(
            2, {-ctx.rep(i): 1 for i in (1, 2, 3)}
        )
        assert w == expected
        # With these generators the representatives are the generators
        # themselves (values 1/sqrt(2), 1/sqrt(3), 1/sqrt(5) already in (-1,1)).
        assert [ctx.rep(i) for i in (1, 2, 3)] == [
            ExponentVector.unit(i) for i in (1, 2, 3)
        ]

    def test_empty(self, ctx):
        assert witness_truncation(ctx, 0) == HahnSum.zero(2)

    def test_rep_shortage(self, ctx):
        with pytest.raises(DomainError):
            witness_truncation(ctx, ctx.count + 1)

    def test_support_strictly_increasing(self, ctx):
        w = witness_truncation(ctx, 4)
        support = w.support()
        for a, b in zip(support, support[1:]):
            assert compare(a, b) < 0


class TestMissingCoset:
    def test_zero_misses_first(self, ctx):
        assert missing_coset_index(ctx, HahnSum.zero(2), 3) == 1

    def test_first_present(self, ctx):
        g = HahnSum.t_power(2, -ctx.rep(1))
        assert missing_coset_index(ctx, g, 3) == 2

    def test_all_present(self, ctx):
        g = HahnSum.make(2, {-ctx.rep(i): 1 for i in (1, 2, 3)})
        assert missing_coset_index(ctx, g, 3) is None

    def test_shifted_exponent_still_counts(self, ctx):
        # An exponent in the same coset, but not equal to -s_1, still
        # marks the coset as present.
        shifted = -ctx.rep(1) + ExponentVector.unit(1, 2)
        g = HahnSum.t_power(2, shifted)
        assert missing_coset_index(ctx, g, 3) == 2


class TestDistance:
    def test_zero_element(self, ctx):
        report = distance_lower_bound_check(ctx, HahnSum.zero(2), 3)
        assert report.missing_index == 1
        assert report.bound_exponent == -ctx.rep(1)
        assert report.actual_exponent == -ctx.rep(1)
        assert report.passed

    def test_first_term_removed(self, ctx):
        g = HahnSum.t_power(2, -ctx.rep(1))
        report = distance_lower_bound_check(ctx, g, 3)
        assert report.missing_index == 2
        assert report.actual_exponent == -ctx.rep(2)
        assert report.passed

    def test_same_coset_different_exponent(self, ctx):
        gamma = -ctx.rep(2) + ExponentVector.unit(1, 2)
        g = HahnSum.make(2, {-ctx.rep(1): 1, gamma: 1})
        report = distance_lower_bound_check(ctx, g, 3)
        assert report.missing_index == 3
        # Strong triangle: the difference keeps both the missing witness
        # term and the stray gamma term; its valuation is their minimum.
        expected = min(-ctx.rep(2), min(-ctx.rep(3), gamma))
        assert report.actual_exponent == expected
        assert report.passed

    def test_stray_term_can_dominate_the_distance(self, ctx):
        # A stray exponent far below the witness terms makes the distance
        # even larger; the bound still holds.
        gamma = -ctx.rep(2) - ExponentVector.unit(1, 2)
        g = HahnSum.make(2, {-ctx.rep(1): 1, gamma: 1})
        report = distance_lower_bound_check(ctx, g, 3)
        assert report.missing_index == 3
        assert report.actual_exponent == gamma
        assert report.passed

    def test_all_present_rejected(self, ctx):
        g = HahnSum.make(2, {-ctx.rep(i): 1 for i in (1, 2, 3)})
        with pytest.raises(DomainError):
            distance_lower_bound_check(ctx, g, 3)

    @pytest.mark.parametrize("text", ["O(t^[1:-2])", "t^[3:1] + O(t^[1:-2])"])
    def test_ball_swallowing_the_witness_is_undecidable(self, ctx, text):
        # The cutoff -2/sqrt(2) lies below -s_1 and -s_2, so f_2 - g is a
        # bare ball and its norm has no exact exponent to compare.
        with pytest.raises(PrecisionError, match="^undecidable-at-precision: "):
            distance_lower_bound_check(ctx, parse_hahn(text, 2), 2)

    def test_random_partial_coset_elements(self, ctx, rng):
        for _ in range(200):
            used = rng.sample([1, 2, 3, 4], k=rng.randint(0, 3))
            terms = {}
            for i in used:
                for _ in range(rng.randint(1, 3)):
                    shift = sample_exponent_vector(rng, max_index=3, max_coeff=2).scale(2)
                    terms[-ctx.rep(i) + shift] = 1
            g = HahnSum.make(2, terms)
            report = distance_lower_bound_check(ctx, g, 4)
            assert report.passed
            assert compare(report.actual_exponent, ExponentVector.zero()) < 0


class TestWitnessCut:
    """The check builds the witness only as far as its answer needs."""

    @pytest.fixture(scope="class")
    def big_ctx(self):
        return build_context(2, 20000)

    @pytest.mark.parametrize("text", ["0", "t^[1:-1] + t^[2:-1]"])
    def test_memory_bounded_by_g_not_n(self, big_ctx, text):
        # Building all 20,000 witness terms peaks at several MB.
        g = parse_hahn(text, 2)
        tracemalloc.start()
        try:
            report = distance_lower_bound_check(big_ctx, g, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert report.actual_exponent == -big_ctx.rep(len(g.terms) + 1)
        assert peak < 200_000

    @pytest.mark.parametrize("p", [2, 3])
    def test_matches_the_whole_witness(self, p):
        # Oracle: the norm of f_N - g with every witness term built, and
        # the least missing coset by a scan written here.
        rng = random.Random(p)
        ctx = build_context(p, 12)
        decided = undecidable = 0
        for _ in range(300):
            n = rng.randint(1, 12)
            terms = {}
            for i in rng.sample(range(1, 13), k=rng.randint(0, 6)):
                # Mostly the witness term itself, often with coefficient 1
                # so that it cancels; else another member of its coset.
                shift = ExponentVector.zero()
                if rng.random() < 0.3:
                    shift = sample_exponent_vector(rng, max_index=3, max_coeff=2).scale(p)
                terms[-ctx.rep(i) + shift] = 1 if rng.random() < 0.7 else rng.randint(1, p - 1)
            if rng.random() < 0.3:
                terms[sample_exponent_vector(rng)] = rng.randint(1, p - 1)
            cutoff = None
            if rng.random() < 0.4:
                cutoff = -ctx.rep(rng.randint(1, 12))
                if rng.random() < 0.5:
                    cutoff = cutoff + sample_exponent_vector(rng, max_index=2, max_coeff=1)
            g = HahnSum.make(p, terms, cutoff)
            present = {e.signature(p) for e, _ in g.terms}
            missing = [i for i in range(1, n + 1) if (-ctx.rep(i)).signature(p) not in present]
            if not missing:
                with pytest.raises(DomainError):
                    distance_lower_bound_check(ctx, g, n)
                continue
            norm = (witness_truncation(ctx, n) - g).norm()
            if not norm.is_finite:
                undecidable += 1
                with pytest.raises(PrecisionError):
                    distance_lower_bound_check(ctx, g, n)
                continue
            decided += 1
            report = distance_lower_bound_check(ctx, g, n)
            bound = -ctx.rep(missing[0])
            assert report.missing_index == missing[0]
            assert report.bound_exponent == bound
            assert report.actual_exponent == norm.exponent
            assert report.passed == (
                compare(norm.exponent, bound) <= 0
                and compare(norm.exponent, ExponentVector.zero()) < 0
            )
        assert decided >= 100 and undecidable >= 5


class TestCliDistance:
    """``gabber distance`` builds min(N, len(g.terms) + 1) representatives."""

    def test_memory_bounded_by_g_not_n(self):
        # One representative and a one-term witness; N = 10^6 of them took
        # 2.95 s and 262 MB.
        run_cli(["gabber", "distance", "--N", "2", "--g", "0"])  # warm the caches
        tracemalloc.start()
        try:
            result = run_cli(["gabber", "distance", "--N", "1000000", "--g", "0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (0, "i_g = 1\nbound_exp = [1:-1]\nactual_exp = [1:-1]\npass = true\n", "")
        assert peak < 1_000_000

    @pytest.mark.parametrize("p", [2, 3])
    def test_reports_what_n_representatives_give(self, p):
        # Oracle: the library check on a context of all N representatives.
        rng = random.Random(p)
        full = build_context(p, 12)
        for _ in range(150):
            n = rng.randint(1, 12)
            terms = {-full.rep(i): 1 for i in rng.sample(range(1, 13), k=rng.randint(0, 6))}
            if rng.random() < 0.3:
                terms[sample_exponent_vector(rng)] = rng.randint(1, p - 1)
            cutoff = -full.rep(rng.randint(1, 12)) if rng.random() < 0.3 else None
            g = HahnSum.make(p, terms, cutoff)
            argv = ["gabber", "distance", "--p", str(p), "--N", str(n), "--g", str(g)]
            try:
                report = distance_lower_bound_check(build_context(p, n), g, n)
            except (DomainError, PrecisionError) as exc:
                assert run_cli(argv) == ({DomainError: 2}.get(type(exc), 3), "", f"error: {exc}\n")
                continue
            assert run_cli(argv) == (0, (
                f"i_g = {report.missing_index}\nbound_exp = {report.bound_exponent}\n"
                f"actual_exp = {report.actual_exponent}\n"
                f"pass = {'true' if report.passed else 'false'}\n"), "")


class TestWitnessElements:
    def test_value_group(self, ctx):
        w = value_group_witness(ctx, E1)
        assert w.elem.norm().exponent == E1
        assert value_group_witness(ctx, ExponentVector.zero()).elem == HahnSum.one(2)
        doubled = value_group_witness(ctx, E1.scale(2))
        assert all(sig.is_zero for sig in doubled.signatures)

    def test_residue(self, ctx):
        assert residue_witness(ctx, 1).elem.residue() == 1
        assert residue_witness(ctx, 0).elem.residue() == 0
        ctx3 = build_context(3, 2)
        assert residue_witness(ctx3, 2).elem.residue() == 2


class TestSignatureSets:
    def test_closure_under_ring_ops(self, ctx, rng):
        for _ in range(150):
            g = sample_hahn(rng, 2)
            h = sample_hahn(rng, 2)
            sig_sum = signature_set(g + h, 2)
            assert sig_sum <= signature_set(g, 2) | signature_set(h, 2)
            pairwise = set()
            for e1, _ in g.terms:
                for e2, _ in h.terms:
                    pairwise.add((e1 + e2).signature(2))
            assert signature_set(g * h, 2) <= pairwise

    def test_frobenius_lands_in_divisible_cosets(self, ctx, rng):
        for _ in range(100):
            g = sample_hahn(rng, 2)
            powered = melem(ctx, g.frobenius())
            assert all(sig.is_zero for sig in powered.signatures)
