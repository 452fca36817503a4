import decimal
import io
import itertools
import math
import time
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from tatekit import exponents
from tatekit.cli import main
from tatekit.errors import DomainError
from tatekit.exponents import (
    CosetSignature,
    ExponentVector,
    RealInterval,
    bounded_coset_representatives,
    certify_in_open_interval,
    compare,
    enclose,
    nth_prime,
)
from tatekit.selftest import sample_exponent_vector

E1 = ExponentVector.unit(1)
E2 = ExponentVector.unit(2)


def test_group_law_examples():
    assert (E1 + (-E1)).is_zero
    assert (E1 + E2).as_dict() == {1: 1, 2: 1}
    assert (E1.scale(2) + E1.scale(3)).as_dict() == {1: 5}


def test_canonical_form_drops_zeros():
    v = ExponentVector.from_dict({1: 2, 2: 0, 5: -1})
    assert v.coords == ((1, 2), (5, -1))


@pytest.mark.parametrize(
    "data",
    [{2: 2.7}, {1: Fraction(1, 2)}, {1: Fraction(-1, 3), 2: 1}, {1.5: 1}, {1: "3"}],
)
def test_from_dict_rejects_non_integers(data):
    # int() would turn 1/2 into a stored 0: a vector of value 0 that is not
    # the zero vector, whose sign _sign never decides.
    message = "^generator indices and coefficients are integers$"
    with pytest.raises(ValueError, match=message):
        ExponentVector.from_dict(data)


def test_unit_rejects_a_non_integer_coefficient():
    with pytest.raises(ValueError):
        ExponentVector.unit(2, 2.7)


def test_from_dict_converts_integral_values():
    v = ExponentVector.from_dict({1: Fraction(0), 2: Fraction(6, 3), 3.0: 1})
    assert v.coords == ((2, 2), (3, 1))
    assert all(type(x) is int for pair in v.coords for x in pair)
    assert ExponentVector.from_dict({1: Fraction(0)}) == ExponentVector.zero()


def test_enclose_sqrt2_inverse():
    iv = enclose(E1, Fraction(1, 1000))
    assert iv.width <= Fraction(1, 1000)
    # Independent check: lo < 1/sqrt(2) < hi, by exact squaring.
    assert iv.lo > 0 and 2 * iv.lo**2 < 1 < 2 * iv.hi**2


def test_enclose_sqrt3_inverse():
    iv = enclose(E2, Fraction(1, 1000))
    assert iv.width <= Fraction(1, 1000)
    assert iv.lo > 0 and 3 * iv.lo**2 < 1 < 3 * iv.hi**2


def test_enclose_zero_vector():
    iv = enclose(ExponentVector.zero(), Fraction(1, 10**9))
    assert iv.lo == 0 and iv.hi == 0


@pytest.mark.parametrize("width", [0, Fraction(0), -1])
def test_enclose_rejects_a_width_that_is_not_positive(width):
    # A width of 0 is refused like a negative one, before any division.
    with pytest.raises(ValueError, match="^width must be positive$"):
        enclose(E1, width)


def test_zero_vector_at_an_open_endpoint():
    # The value 0 is the endpoint itself, so it lies in neither interval.
    zero = ExponentVector.zero()
    assert not certify_in_open_interval(zero, Fraction(0), Fraction(1))
    assert not certify_in_open_interval(zero, Fraction(-1), Fraction(0))
    assert certify_in_open_interval(zero, Fraction(-1), Fraction(1))


def test_compare_examples():
    assert compare(E1, E1) == 0
    # 1/sqrt(2) > 1/sqrt(3) since squares compare as 1/2 > 1/3.
    assert compare(E1, E2) == 1
    # 2/sqrt(3) > 1/sqrt(2) since 4/3 > 1/2.
    assert compare(E2.scale(2), E1) == 1


def test_reflected_comparisons_agree_with_compare(rng):
    # ExponentVector defines only < and <=; > and >= run reflected.
    assert E1 > E2 and E1 >= E2 and not E2 > E1 and not E2 >= E1
    assert max([E2, E1, E2.scale(-1)]) == E1
    for _ in range(200):
        a, b = sample_exponent_vector(rng), sample_exponent_vector(rng)
        verdict = compare(a, b)
        assert (a > b) == (verdict > 0)
        assert (a >= b) == (verdict >= 0)
        assert a >= a and not a > a


def test_signature_examples():
    assert E1.signature(2) == CosetSignature(2, ((1, 1),))
    assert E1.scale(2).signature(2).is_zero
    v = E1.scale(3) + E2.scale(-4)
    assert v.signature(3) == CosetSignature(3, ((2, 2),))


def test_bounded_reps_first_two_are_generators():
    reps = bounded_coset_representatives(2, 2)
    assert reps == [E1, E2]


def test_bounded_reps_single():
    assert bounded_coset_representatives(2, 1) == [E1]


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_bounded_reps_reject_non_prime(p):
    # The prime check comes before the count check, as in build_context.
    with pytest.raises(DomainError, match=f"^characteristic {p} is not prime$"):
        bounded_coset_representatives(p, 0)


def test_bounded_reps_distinct_mod_2():
    reps = bounded_coset_representatives(2, 2)
    assert reps[0].signature(2) != reps[1].signature(2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bounded_reps_postconditions(p):
    reps = bounded_coset_representatives(p, 8)
    signatures = set()
    for i, rep in enumerate(reps, start=1):
        assert certify_in_open_interval(rep, Fraction(-1), Fraction(1))
        assert rep.signature(p) == ExponentVector.unit(i).signature(p)
        signatures.add(rep.signature(p))
    assert len(signatures) == 8


def test_bounded_reps_linear_in_count():
    # The representatives are the generators themselves, whose values lie
    # in (0, 1); building them must not cost a count-long tuple and dict
    # per generator (8000 took about 10 s when a shift search ran).
    p, count = 2, 8000
    started = time.perf_counter()
    reps = bounded_coset_representatives(p, count)
    assert time.perf_counter() - started < 3
    assert len({rep.signature(p) for rep in reps}) == count
    for i, rep in enumerate(reps, start=1):
        assert (rep - ExponentVector.unit(i)).signature(p).is_zero
        assert certify_in_open_interval(rep, Fraction(-1), Fraction(1))


def test_order_compatible_with_intervals(rng):
    width = Fraction(1, 10**12)
    for _ in range(200):
        a = sample_exponent_vector(rng)
        b = sample_exponent_vector(rng)
        verdict = compare(a, b)
        ia, ib = enclose(a, width), enclose(b, width)
        if ia.lo > ib.hi:
            assert verdict == 1
        elif ia.hi < ib.lo:
            assert verdict == -1
        assert (verdict == 0) == (a.coords == b.coords)


def test_translation_invariance(rng):
    for _ in range(200):
        a = sample_exponent_vector(rng)
        b = sample_exponent_vector(rng)
        c = sample_exponent_vector(rng)
        assert compare(a + c, b + c) == compare(a, b)


# The cached enclosure _fast_bounds against values computed with decimal
# square roots at 300 digits: with coefficients below 2^141, the scaled
# sum is off by less than 10^-190, inside the margin allowed below.


def assert_encloses(vec, lo, hi):
    """lo <= value * 2^_TABLE_BITS <= hi, checked with decimal roots."""
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        value = sum(
            decimal.Decimal(c) / decimal.Decimal(nth_prime(i)).sqrt()
            for i, c in vec.coords
        ) * 2**exponents._TABLE_BITS
        error = decimal.Decimal(10) ** -150
        assert lo <= value - error and value + error <= hi


def draw_cached_vector(rng):
    indices = [rng.randint(1, 40), rng.randint(1000, 1100), exponents._TABLE_SIZE + 7]
    support = set(rng.sample(indices + list(range(1, 6)), k=rng.randint(1, 5)))
    return ExponentVector.from_dict(
        {
            i: rng.choice([-1, 1]) * rng.randint(1, 1 << rng.choice([3, 20, 64, 70, 100, 128, 140]))
            for i in support
        }
    )


def test_fast_bounds_enclose_the_value(rng):
    for _ in range(400):
        vec = draw_cached_vector(rng)
        lo, hi = vec._fast_bounds
        assert_encloses(vec, lo, hi)
        assert hi - lo == sum(abs(c) for _, c in vec.coords)


def test_fast_bounds_table_is_bounded(monkeypatch):
    size = exponents._TABLE_SIZE
    for i in range(1, size + 50):
        ExponentVector.unit(i, -3)._fast_bounds
    assert exponents._inv_root.cache_info().currsize <= size
    # With the constants in the table, no root or prime is computed for a
    # new vector.
    for name in ["isqrt", "nth_prime"]:
        monkeypatch.setattr(exponents, name, None)
    vec = ExponentVector.from_dict({i: 2**70 - i for i in range(size, size + 49)})
    lo, hi = vec._fast_bounds
    monkeypatch.undo()
    assert_encloses(vec, lo, hi)


# Decimal oracles at 1,100 digits.  Every term c / sqrt(q) below is under
# 10^190 in absolute value, so the decimal sums are off by less than
# 10^-900, and arithmetic on them runs in the same context.
ORACLE_ERROR = decimal.Decimal(10) ** -900


def oracle_context():
    return decimal.localcontext(decimal.Context(prec=1100))


@lru_cache(maxsize=None)
def decimal_inv_root(i):
    with oracle_context():
        return 1 / decimal.Decimal(nth_prime(i)).sqrt()


def decimal_value(vec):
    with oracle_context():
        terms = (c * decimal_inv_root(i) for i, c in vec.coords)
        return sum(terms, decimal.Decimal(0))


def test_enclose_is_certified_and_least(rng):
    wide = 0
    for _ in range(300):
        vec = draw_cached_vector(rng)
        weight = sum(abs(c) for _, c in vec.coords)
        width = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        width *= Fraction(2) ** rng.randint(-600, 150)
        iv = enclose(vec, width)
        value = decimal_value(vec)
        with oracle_context():
            assert iv.lo <= value - ORACLE_ERROR and value + ORACLE_ERROR <= iv.hi
        # The width is weight / 2^b for the least b >= 0 that fits.
        ratio = weight / iv.width
        assert ratio.denominator == 1
        assert ratio.numerator & (ratio.numerator - 1) == 0
        if weight <= width:
            assert iv.width == weight
            wide += 1
        else:
            assert width / 2 < iv.width <= width
    assert 10 <= wide <= 290
    for width in [Fraction(1, 2**600), Fraction(1, 10**9), Fraction(5)]:
        zero = RealInterval(Fraction(0), Fraction(0))
        assert enclose(ExponentVector.zero(), width) == zero


def test_nth_prime_sequence():
    assert [nth_prime(i) for i in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.fixture
def fresh_primes(monkeypatch):
    """The prime table as a new process starts it, restored afterwards."""
    monkeypatch.setattr(exponents, "_PRIMES", exponents._PRIMES[:10])


def test_nth_prime_far_index(fresh_primes):
    assert nth_prime(100000) == 1299709


def test_nth_prime_matches_trial_division(fresh_primes):
    reference = [
        c for c in range(2, 50000) if all(c % d for d in range(2, int(c**0.5) + 1))
    ]
    assert [nth_prime(i) for i in range(1, len(reference) + 1)] == reference
    assert nth_prime(len(reference) + 1) > 50000


# The least strong pseudoprime to the first 13 prime bases (Sorenson and
# Webster, 2017).
PSI13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(-3, 200_000) if exponents._is_prime(n) != trial_division(n)] == []


def test_is_prime_rejects_the_least_strong_pseudoprime_to_twelve_bases():
    # psi_12 passes Miller-Rabin to the bases 2, ..., 37; base 41 exposes it.
    psi12 = 318_665_857_834_031_151_167_461
    assert psi12 == 399_165_290_221 * 798_330_580_441
    assert not exponents._is_prime(psi12)
    with pytest.raises(DomainError, match=f"^characteristic {psi12} is not prime$"):
        exponents._require_prime(psi12)


@pytest.mark.parametrize(
    "n,factors",
    [
        (2**61 - 1, [2**61 - 1]),  # a Mersenne prime
        (10**18 + 3, [10**18 + 3]),
        (2**67 - 1, [193_707_721, 761_838_257_287]),
        # Strong pseudoprimes to the bases 2, ..., 7 and 2, ..., 31.
        (3_215_031_751, [151, 751, 28_351]),
        (3_825_123_056_546_413_051, [149_491, 747_451, 34_233_211]),
    ],
)
def test_is_prime_on_large_numbers(n, factors):
    assert math.prod(factors) == n
    assert exponents._is_prime(n) == (len(factors) == 1)


@pytest.mark.parametrize("n", [PSI13, PSI13 + 1, 10**40 + 1])
def test_is_prime_refuses_past_the_bound(n):
    with pytest.raises(DomainError, match=f"^characteristic {n} is too large: primality "
                                          f"is certified only below psi_13 = {PSI13}$"):
        exponents._require_prime(n)


def test_large_generator_index_in_cli(fresh_primes):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = main(["gabber", "distance", "--N", "2", "--g", "t^[100000:1]"], out, err)
    elapsed = time.perf_counter() - start
    assert code == 0 and err.getvalue() == ""
    assert out.getvalue() == (
        "i_g = 1\nbound_exp = [1:-1]\nactual_exp = [1:-1]\npass = true\n"
    )
    assert elapsed < 2.0


# Near-cancelling inputs.  Oracles are exact integer tests written here:
# for a, b > 0, a/sqrt(2) - b/sqrt(3) has the sign of 3a^2 - 2b^2 (a
# shift common to both sides cancels in the difference), and a rational
# r > 0 lies below 1/sqrt(2) exactly when 2r^2 < 1.


def sqrt_convergents(n):
    """Continued-fraction convergents h/k of sqrt(n), n not a square."""
    a0 = isqrt(n)
    m, d, a = 0, 1, a0
    h0, h1, k0, k1 = 1, a0, 0, 1
    while True:
        yield h1, k1
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0


def near_cancelling_pair(bits):
    """(a, b) with a/b a convergent of sqrt(2/3) = sqrt(6)/3 and
    max(a, b) of at least the given bit length."""
    for h, k in sqrt_convergents(6):
        if max(h, 3 * k).bit_length() >= bits:
            return h, 3 * k


@pytest.mark.parametrize("bits", [260, 600, 2000])
@pytest.mark.parametrize("shift", [{}, {3: 1}, {3: -7, 5: 2}])
def test_compare_near_cancelling_convergents(bits, shift):
    a, b = near_cancelling_pair(bits)
    expected = (3 * a * a > 2 * b * b) - (3 * a * a < 2 * b * b)
    assert expected != 0
    u = ExponentVector.from_dict({1: a, **shift})
    v = ExponentVector.from_dict({2: b, **shift})
    assert compare(u, v) == expected
    assert compare(v, u) == -expected
    assert (u < v) == (expected < 0)


class RefinementCalled(Exception):
    pass


def refuse_refinement(vec, r):
    raise RefinementCalled


@pytest.mark.parametrize("bits", [56, 64, 76, 84, 100])
@pytest.mark.parametrize("shift", [{}, {3: 1}, {3: -7, 5: 2}])
def test_cached_bounds_decide_near_cancelling_pairs(monkeypatch, bits, shift):
    # The cached enclosures alone separate pairs up to 100 bits.
    a, b = near_cancelling_pair(bits)
    expected = (3 * a * a > 2 * b * b) - (3 * a * a < 2 * b * b)
    u = ExponentVector.from_dict({1: a, **shift})
    v = ExponentVector.from_dict({2: b, **shift})
    monkeypatch.setattr(exponents, "_sign", refuse_refinement)
    assert compare(u, v) == expected
    assert compare(v, u) == -expected


def test_equal_vectors_never_reach_refinement(monkeypatch):
    # Equal vectors have equal, overlapping bounds; _sign on their zero
    # difference would never end, so equality must be settled first.
    monkeypatch.setattr(exponents, "_sign", refuse_refinement)
    for vec in [E1, ExponentVector.zero(), ExponentVector.from_dict({1: 3, 4: -2})]:
        twin = ExponentVector(vec.coords)
        assert not vec < twin and not vec > twin
        assert vec <= twin and vec >= twin and compare(vec, twin) == 0


@pytest.mark.parametrize("bits", [112, 200])
def test_closer_pairs_reach_refinement(monkeypatch, bits):
    # The cached enclosures of these pairs, about 2^(bits - 208) wide,
    # are wider than the difference, about 2^-bits, so they overlap.
    a, b = near_cancelling_pair(bits)
    monkeypatch.setattr(exponents, "_sign", refuse_refinement)
    with pytest.raises(RefinementCalled):
        compare(ExponentVector.unit(1, a), ExponentVector.unit(2, b))


def test_certify_at_a_convergent_endpoint():
    # h/k -> sqrt(2), so k/h -> 1/sqrt(2); take the first of 300 bits.
    h, k = next((h, k) for h, k in sqrt_convergents(2) if h.bit_length() >= 300)
    r = Fraction(k, h)
    below = 2 * r * r < 1
    assert certify_in_open_interval(E1, r, Fraction(1)) == below
    assert certify_in_open_interval(E1, Fraction(0), r) == (not below)


# Generator past the table of cached constants.
FAR = exponents._TABLE_SIZE + 7


@pytest.mark.parametrize("centre", [(0, 0), (300, 0), (600, 9)])
def test_box_order_matches_decimal_oracle(centre):
    # A box of vectors around 0 or around a near-cancelling pair, over
    # generators 1, 2 and one past the table, sorted by decimal value.
    bits, k = centre
    a, b = near_cancelling_pair(bits) if bits else (0, 0)
    box = [
        ExponentVector.from_dict({1: a + i, 2: j - b, FAR: k + m})
        for i, j, m in itertools.product(range(-6, 7), repeat=3)
    ]
    values = {vec: decimal_value(vec) for vec in box}
    ordered = sorted(box, key=values.__getitem__)
    for u, v in zip(ordered, ordered[1:]):
        with oracle_context():
            assert values[v] - values[u] > 2 * ORACLE_ERROR
        assert compare(u, v) == -1 and compare(v, u) == 1


def test_certify_near_truncated_values(monkeypatch, rng):
    # r_k is the value truncated to k digits, so the value lies in
    # (r_k, r_k + 10^-k) and in neither neighbouring interval.  A gap near
    # 10^-k = 2^-3.33k makes _sign refine to 416, 832 and 1664 bits.
    seen = set()
    bounds = exponents._bounds

    def recording_bounds(vec, bits):
        seen.add(bits)
        return bounds(vec, bits)

    monkeypatch.setattr(exponents, "_bounds", recording_bounds)
    for _ in range(20):
        support = rng.sample([1, 2, 3, 4, 5, 6, FAR], k=rng.randint(3, 4))
        vec = ExponentVector.from_dict(
            {i: rng.choice([-1, 1]) * rng.randint(1, 2**20) for i in support}
        )
        value = decimal_value(vec)
        for k in [70, 150, 300]:
            with oracle_context():
                scaled = value.scaleb(k)
                floor = scaled.to_integral_value(rounding=decimal.ROUND_FLOOR)
                assert ORACLE_ERROR < scaled - floor < 1 - ORACLE_ERROR
            r, step = Fraction(int(floor), 10**k), Fraction(1, 10**k)
            assert certify_in_open_interval(vec, r, r + step)
            assert not certify_in_open_interval(vec, r + step, r + 2 * step)
            assert not certify_in_open_interval(vec, r - step, r)
    assert {416, 832, 1664} <= seen


def test_near_cancelling_gabber_distance_in_cli():
    a, b = near_cancelling_pair(300)
    out, err = io.StringIO(), io.StringIO()
    g = f"t^[1:{a}] + t^[2:{b}]"
    code = main(["gabber", "distance", "--p", "3", "--N", "2", "--g", g], out, err)
    assert code == 0 and err.getvalue() == ""
    assert out.getvalue().endswith("pass = true\n")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bounded_reps_pinned(p):
    assert bounded_coset_representatives(p, 8) == [
        ExponentVector.unit(i) for i in range(1, 9)
    ]
