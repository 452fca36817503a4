import decimal
import io
import time
from fractions import Fraction
from math import isqrt

import pytest

from tatekit import exponents
from tatekit.cli import main
from tatekit.errors import DomainError
from tatekit.exponents import (
    CosetSignature,
    ExponentVector,
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
# square roots at 250 digits: with coefficients below 2^141, the scaled
# sum is off by less than 10^-160, inside the margin allowed below.


def assert_encloses(vec, lo, hi):
    """lo <= value * 2^_FAST_BITS <= hi, checked with decimal roots."""
    with decimal.localcontext() as ctx:
        ctx.prec = 250
        value = sum(
            decimal.Decimal(c) / decimal.Decimal(nth_prime(i)).sqrt()
            for i, c in vec.coords
        ) * 2**exponents._FAST_BITS
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
    narrow = wide = 0
    for _ in range(400):
        vec = draw_cached_vector(rng)
        lo, hi = vec._fast_bounds
        assert_encloses(vec, lo, hi)
        weight = sum(abs(c) for _, c in vec.coords)
        spare = exponents._SPARE_BITS
        assert hi - lo <= 1 + -(-weight >> spare)
        if weight <= 2**spare:
            assert hi - lo <= 2
            narrow += weight > 2**64
        else:
            wide += 1
    assert narrow >= 50 and wide >= 50


def test_fast_bounds_table_is_bounded(monkeypatch):
    size = exponents._TABLE_SIZE
    for i in range(1, size + 50):
        ExponentVector.unit(i, -3)._fast_bounds
    assert exponents._inv_root.cache_info().currsize <= size
    # With the constants in the table, no root, prime or product is
    # computed for a new vector.
    for name in ["isqrt", "nth_prime", "prod"]:
        monkeypatch.setattr(exponents, name, None)
    vec = ExponentVector.from_dict({i: 2**70 - i for i in range(size, size + 49)})
    lo, hi = vec._fast_bounds
    monkeypatch.undo()
    assert_encloses(vec, lo, hi)


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


@pytest.mark.parametrize("bits", [56, 64, 76])
@pytest.mark.parametrize("shift", [{}, {3: 1}, {3: -7, 5: 2}])
def test_cached_bounds_decide_near_cancelling_pairs(monkeypatch, bits, shift):
    # The 2^-80 cached enclosures alone separate pairs up to 76 bits.
    a, b = near_cancelling_pair(bits)
    expected = (3 * a * a > 2 * b * b) - (3 * a * a < 2 * b * b)
    u = ExponentVector.from_dict({1: a, **shift})
    v = ExponentVector.from_dict({2: b, **shift})
    monkeypatch.setattr(exponents, "_sign", refuse_refinement)
    assert compare(u, v) == expected
    assert compare(v, u) == -expected


@pytest.mark.parametrize("bits", [84, 100])
def test_closer_pairs_reach_refinement(monkeypatch, bits):
    # These differ by less than 2^-80, which no cached enclosure can
    # separate.
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
