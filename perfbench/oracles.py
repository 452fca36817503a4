"""Reference answers the benchmark checks tatekit's results against.

Everything here works on plain dicts and integers and calls nothing in
tatekit, so a change to the library cannot also change the yardstick:

* Laurent series are ``{exponent (Fraction): coefficient in 1..p-1}``.
* Restricted power series are ``{multi-index tuple: Laurent dict}``.
* Exponent vectors are ``{generator index: integer coefficient}`` with
  real value ``sum(c / sqrt(q_i))`` over the i-th prime ``q_i``; Hahn
  sums are ``{sorted coordinate tuple: coefficient}``.

Exponent order is decided with ``math.isqrt`` fixed-point enclosures,
a different method from the library's ``Fraction`` refinement.  Each
``check_*`` function returns ``None`` when the answer is right and a
short reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

# ---------------------------------------------------------------------------
# Conversions from library objects (attribute reads only)


def laurent_dict(x) -> dict:
    return {Fraction(e): c for e, c in x.terms}


def tate_dict(f) -> dict:
    return {tuple(idx): laurent_dict(c) for idx, c in f.terms}


def coords_dict(vec) -> dict:
    return dict(vec.coords)


def hahn_dict(x) -> dict:
    return {tuple(e.coords): c for e, c in x.terms}


# ---------------------------------------------------------------------------
# Laurent and restricted power series arithmetic


def laurent_add(a: dict, b: dict, p: int, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + sign * c) % p
    return {e: c for e, c in out.items() if c}


def laurent_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def valuation(a: dict):
    """Smallest exponent, or None for zero."""
    return min(a) if a else None


def tate_add(f: dict, g: dict, p: int, sign: int = 1) -> dict:
    out = dict(f)
    for idx, c in g.items():
        out[idx] = laurent_add(out.get(idx, {}), c, p, sign)
    return {idx: c for idx, c in out.items() if c}


def tate_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for i1, c1 in f.items():
        for i2, c2 in g.items():
            idx = tuple(a + b for a, b in zip(i1, i2))
            out[idx] = laurent_add(out.get(idx, {}), laurent_mul(c1, c2, p), p)
    return {idx: c for idx, c in out.items() if c}


def tate_power_p(f: dict, p: int) -> dict:
    """f^p in characteristic p: indices and exponents scale by p, F_p
    coefficients are fixed."""
    return {
        tuple(k * p for k in idx): {e * p: c for e, c in coeff.items()}
        for idx, coeff in f.items()
    }


def gauss_exponent(f: dict):
    """The Gauss norm as an exponent v (norm e^-v), or None for zero."""
    vals = [valuation(c) for c in f.values() if c]
    return min(vals) if vals else None


def euclid_degree(f: dict) -> int:
    v = gauss_exponent(f)
    return max(idx[0] for idx, c in f.items() if valuation(c) == v)


def standard_lift(f: dict, p: int) -> dict:
    """The standard splitting lift: keep p-divisible indices, take p-th
    roots of coefficients, keep integer exponents."""
    out = {}
    for idx, coeff in f.items():
        if any(k % p for k in idx):
            continue
        kept = {e / p: c for e, c in coeff.items() if (e / p).denominator == 1}
        if kept:
            out[tuple(k // p for k in idx)] = kept
    return out


def shear(f: dict, exponents: tuple, p: int, sign: int = 1) -> dict:
    """Substitute X_i -> X_i + sign * X_n^(a_i) for i < n by repeated
    products; sign -1 gives the inverse shear."""
    n = len(exponents) + 1
    one = {Fraction(0): 1}
    out: dict = {}
    for idx, coeff in f.items():
        term = {tuple([0] * (n - 1)) + (idx[-1],): coeff}
        for i, k in enumerate(idx[:-1]):
            x_i = [0] * n
            x_i[i] = 1
            x_n = [0] * n
            x_n[-1] = exponents[i]
            linear = tate_add({tuple(x_i): one}, {tuple(x_n): one}, p, sign)
            for _ in range(k):
                term = tate_mul(term, linear, p)
        out = tate_add(out, term, p)
    return out


def is_distinguished(f: dict) -> bool:
    """Distinguished in the last variable: the largest X_n-degree whose
    coefficient attains the Gauss norm carries a unit coefficient."""
    groups: dict = {}
    for idx, c in f.items():
        groups.setdefault(idx[-1], {})[idx[:-1]] = c
    total = gauss_exponent(f)
    order = max(k for k, g in groups.items() if gauss_exponent(g) == total)
    group = groups[order]
    zero = tuple([0] * (len(next(iter(f))) - 1))
    if zero not in group:
        return False
    v0 = valuation(group[zero])
    return all(valuation(c) > v0 for idx, c in group.items() if idx != zero)


def is_unit(f: dict) -> bool:
    """The constant coefficient strictly dominates every other one."""
    zero = tuple([0] * len(next(iter(f)))) if f else None
    if zero not in f:
        return False
    v0 = valuation(f[zero])
    return all(valuation(c) > v0 for idx, c in f.items() if idx != zero)


def reduced_map(f: dict, p: int, exponents: tuple, twist: dict) -> dict:
    """The one-variable map pi . sigma . Phi . (twist *) . sigma^-1 of
    the standard splitting lift Phi and the shear sigma, at f in X."""
    n = len(exponents) + 1
    g = {tuple([0] * (n - 1)) + idx: c for idx, c in f.items()}
    g = standard_lift(tate_mul(twist, shear(g, exponents, p, -1), p), p)
    g = shear(g, exponents, p)
    return {idx[-1:]: c for idx, c in g.items() if not any(idx[:-1])}


def unital_monomial(p: int, exponents: tuple, twist: dict, bound: int):
    """The monomial t^a X^b (0 <= b <= bound, |a| <= bound, b-major
    order) that the normalizing search must pick, with its image: the
    first whose image is exactly 1, else the first whose image is a unit;
    None when there is none."""
    one = {(0,): {Fraction(0): 1}}
    first_unit = None
    for b in range(bound + 1):
        for a in range(-bound, bound + 1):
            x = {(b,): {Fraction(a): 1}}
            value = reduced_map(x, p, exponents, twist)
            if value == one:
                return x, value
            if first_unit is None and is_unit(value):
                first_unit = x, value
    return first_unit


# ---------------------------------------------------------------------------
# Division


def schoolbook_division(f: dict, g: dict, p: int):
    """Exact f = q*g + r when the pivot is a monomial at g's top degree;
    None otherwise (the division does not terminate exactly)."""
    order = euclid_degree(g)
    if order != max(idx[0] for idx in g):
        return None
    pivot = g[(order,)]
    if len(pivot) != 1:
        return None
    ((exp, coeff),) = pivot.items()
    inverse = {-exp: pow(coeff, -1, p)}
    rem = {idx[0]: c for idx, c in f.items()}
    quotient = {}
    for d in range(max(rem, default=-1), order - 1, -1):
        c = rem.get(d)
        if not c:
            continue
        u = laurent_mul(c, inverse, p)
        quotient[(d - order,)] = u
        for (k,), gk in g.items():
            pos = d - order + k
            rem[pos] = laurent_add(rem.get(pos, {}), laurent_mul(u, gk, p), p, -1)
    r = {(d,): c for d, c in rem.items() if d < order and c}
    return quotient, r


def check_division(p, tau, f: dict, g: dict, q: dict, r: dict, r_slack):
    """f = q*g + r to precision e^-tau with deg r < d(g); exact when
    the schoolbook division applies and r carries no slack."""
    tau = Fraction(tau)
    if r_slack is not None and r_slack < tau:
        return "remainder slack exceeds the target"
    d = euclid_degree(g)
    if any(idx[0] >= d for idx in r):
        return "deg r >= d(g)"
    residual = tate_add(f, tate_add(tate_mul(q, g, p), r, p), p, -1)
    v = gauss_exponent(residual)
    if v is not None and v < tau:
        return f"residual norm e^-{v} exceeds the target e^-{tau}"
    if r_slack is None:
        exact = schoolbook_division(f, g, p)
        if exact is not None and (exact[0] != q or exact[1] != r):
            return "differs from the exact schoolbook division"
    return None


# ---------------------------------------------------------------------------
# Exponent order


def nth_prime(i: int) -> int:
    count, c = 0, 1
    while count < i:
        c += 1
        if all(c % d for d in range(2, isqrt(c) + 1)):
            count += 1
    return c


def sign(coords: dict) -> int:
    """Sign of sum(c / sqrt(q_i)), from isqrt enclosures that double in
    precision until they exclude zero (a nonzero vector is never zero)."""
    coords = {i: c for i, c in coords.items() if c}
    if not coords:
        return 0
    primes = {i: nth_prime(i) for i in coords}
    total = prod(primes.values())
    bits = 64
    while True:
        # c/sqrt(q) = c*(Q/q)*sqrt(q)/Q; floor(sqrt(q)*2^b) is off by < 1.
        s = e = 0
        for i, c in coords.items():
            w = total // primes[i]
            s += c * w * isqrt(primes[i] << (2 * bits))
            e += abs(c) * w
        if s >= e:
            return 1
        if s <= -e:
            return -1
        bits *= 2


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for i, c in b.items():
        out[i] = out.get(i, 0) - c
    return {i: c for i, c in out.items() if c}


def vec_add(a: dict, b: dict) -> dict:
    return vec_sub(a, {i: -c for i, c in b.items()})


def less(a: dict, b: dict) -> bool:
    return sign(vec_sub(b, a)) > 0


def hahn_add(x: dict, y: dict, p: int) -> dict:
    out = dict(x)
    for e, c in y.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def hahn_mul(x: dict, y: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(sorted(vec_add(dict(e1), dict(e2)).items()))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def hahn_valuation(x: dict):
    """Smallest exponent by real value (as a coordinate dict), or None."""
    best = None
    for e in x:
        if best is None or less(dict(e), best):
            best = dict(e)
    return best


def check_hahn_sum(expected: dict, terms) -> str | None:
    """``terms`` are a HahnSum's (exponent coords, coefficient) pairs: they
    must match ``expected`` and be sorted by strictly increasing value."""
    got = {tuple(e): c for e, c in terms}
    if got != expected:
        return "Hahn terms differ from the reference"
    exps = [dict(e) for e, _ in terms]
    for a, b in zip(exps, exps[1:]):
        if not less(a, b):
            return "Hahn terms are not in increasing exponent order"
    return None


# ---------------------------------------------------------------------------
# Reading the CLI's canonical output


def _split_top(text: str, sep: str = " + ") -> list[str]:
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def read_laurent(text: str, p: int) -> dict:
    out: dict = {}
    if text == "0":
        return out
    for part in _split_top(text):
        if "t" not in part:
            e, c = Fraction(0), int(part)
        else:
            c_text, _, t_text = part.rpartition("t")
            c = int(c_text.rstrip("*")) if c_text else 1
            e = Fraction(t_text[1:]) if t_text else Fraction(1)
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def read_tate(text: str, p: int, n: int) -> tuple[dict, Fraction | None]:
    """(series dict, slack exponent or None) from ``format_tate`` output."""
    out: dict = {}
    slack = None
    if text == "0":
        return out, slack
    for part in _split_top(text):
        if part.startswith("O(e^"):
            slack = -Fraction(part[4:-1])
            continue
        coeff = {Fraction(0): 1}
        if part.startswith("["):
            inner, _, part = part[1:].partition("]")
            coeff = read_laurent(inner, p)
        idx = [0] * n
        for factor in filter(None, part.split("*")):
            name, _, power = factor.partition("^")
            var = int(name[1:]) if len(name) > 1 else 1
            idx[var - 1] += int(power) if power else 1
        out[tuple(idx)] = coeff
    return out, slack


def read_vector(text: str) -> dict:
    body = text.strip()[1:-1]
    out = {}
    for item in filter(None, body.split(",")):
        i, _, c = item.partition(":")
        out[int(i)] = int(c)
    return out


def format_norm(v) -> str:
    """The CLI's norm format for an exponent v (norm e^-v)."""
    if v is None:
        return "0"
    x = -Fraction(v)
    body = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return f"e^{body}"
