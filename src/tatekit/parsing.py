"""Parsers and printers for the series literal grammars.

Three dialects share one scanner:

* Laurent:  ``1 + 2*t^3 + O(t^5)``, ``t^-1/2``: integer coefficients,
  rational exponents, optional trailing ball.
* Hahn:     ``t^[1:-1] + 2*t^[2:1]``: exponents are coordinate vectors
  ``[index:coeff, ...]`` over the square-root generators.
* Tate:     ``[1+t]X1^2*X2 + [t^2] + O(e^-3)``: bracketed Laurent
  coefficients, monomials in X1..Xn (bare ``X`` means X1), optional
  Gauss-norm slack.

Positions in errors are 1-based columns on line 1 (literals are single
line).  Formatting is canonical: parsing the printed form gives back an
equal element, and printing is deterministic, which the golden CLI tests
rely on.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .exponents import ExponentVector
from .field import HahnSum, LaurentSeries, NormValue
from .tate import TateElem


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, 1, self.pos + 1)

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str | None:
        self._ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def try_consume(self, literal: str) -> bool:
        self._ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.try_consume(literal):
            self.error(f"expected '{literal}'")

    def at_end(self) -> bool:
        return self.peek() is None

    def expect_end(self) -> None:
        if not self.at_end():
            self.error("unexpected trailing input")

    def parse_unsigned(self) -> int:
        self._ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start : self.pos])

    def parse_int(self) -> int:
        self._ws()
        sign = 1
        if self.try_consume("-"):
            sign = -1
        return sign * self.parse_unsigned()

    def parse_rational(self) -> Fraction:
        self._ws()
        if self.peek() is None or not (self.peek().isdigit() or self.peek() == "-"):
            self.error("expected a rational number")
        num = self.parse_int()
        if self.try_consume("/"):
            den = self.parse_unsigned()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)


def _parse_exponent_vector(sc: _Scanner) -> ExponentVector:
    sc.expect("[")
    data: dict[int, int] = {}
    if sc.peek() != "]":
        while True:
            index = sc.parse_unsigned()
            sc.expect(":")
            coeff = sc.parse_int()
            data[index] = data.get(index, 0) + coeff
            if not sc.try_consume(","):
                break
    sc.expect("]")
    return ExponentVector.from_dict(data)


def parse_exponent_vector(text: str) -> ExponentVector:
    sc = _Scanner(text)
    vec = _parse_exponent_vector(sc)
    sc.expect_end()
    return vec


# ---------------------------------------------------------------------------
# Laurent dialect


def _parse_laurent_term(sc: _Scanner) -> tuple[Fraction, int]:
    ch = sc.peek()
    coeff = None
    if ch is not None and (ch.isdigit() or ch == "-"):
        coeff = sc.parse_int()
        if sc.try_consume("*"):
            if sc.peek() != "t":
                sc.error("expected 't' after '*'")
    if sc.peek() == "t":
        sc.expect("t")
        exponent = Fraction(1)
        if sc.try_consume("^"):
            exponent = sc.parse_rational()
        return exponent, 1 if coeff is None else coeff
    if coeff is None:
        sc.error("expected a term")
    return Fraction(0), coeff


def _parse_laurent_cutoff(sc: _Scanner) -> Fraction:
    sc.expect("O")
    sc.expect("(")
    if sc.peek() != "t":
        sc.error("expected 't' inside O(...)")
    sc.expect("t")
    exponent = Fraction(1)
    if sc.try_consume("^"):
        exponent = sc.parse_rational()
    sc.expect(")")
    return exponent


def _parse_laurent_body(sc: _Scanner, p: int) -> LaurentSeries:
    terms: dict[Fraction, int] = {}
    cutoff = None
    if sc.peek() == "O":
        cutoff = _parse_laurent_cutoff(sc)
        return LaurentSeries.make(p, terms, cutoff)
    exponent, coeff = _parse_laurent_term(sc)
    terms[exponent] = terms.get(exponent, 0) + coeff
    while sc.try_consume("+"):
        if sc.peek() == "O":
            cutoff = _parse_laurent_cutoff(sc)
            break
        exponent, coeff = _parse_laurent_term(sc)
        terms[exponent] = terms.get(exponent, 0) + coeff
    return LaurentSeries.make(p, terms, cutoff)


def parse_laurent(text: str, p: int) -> LaurentSeries:
    sc = _Scanner(text)
    series = _parse_laurent_body(sc, p)
    sc.expect_end()
    return series


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_laurent(series: LaurentSeries) -> str:
    parts = []
    for exponent, coeff in series.terms:
        if exponent == 0:
            parts.append(str(coeff))
            continue
        tpart = "t" if exponent == 1 else f"t^{format_rational(exponent)}"
        parts.append(tpart if coeff == 1 else f"{coeff}*{tpart}")
    if series.cutoff is not None:
        cut = series.cutoff
        parts.append("O(t)" if cut == 1 else f"O(t^{format_rational(cut)})")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Hahn dialect


def _parse_hahn_term(sc: _Scanner) -> tuple[ExponentVector, int]:
    ch = sc.peek()
    coeff = None
    if ch is not None and (ch.isdigit() or ch == "-"):
        coeff = sc.parse_int()
        if sc.try_consume("*"):
            if sc.peek() != "t":
                sc.error("expected 't' after '*'")
    if sc.peek() == "t":
        sc.expect("t")
        sc.expect("^")
        exponent = _parse_exponent_vector(sc)
        return exponent, 1 if coeff is None else coeff
    if coeff is None:
        sc.error("expected a term")
    return ExponentVector.zero(), coeff


def _parse_hahn_cutoff(sc: _Scanner) -> ExponentVector:
    sc.expect("O")
    sc.expect("(")
    sc.expect("t")
    sc.expect("^")
    exponent = _parse_exponent_vector(sc)
    sc.expect(")")
    return exponent


def parse_hahn(text: str, p: int) -> HahnSum:
    sc = _Scanner(text)
    terms: dict[ExponentVector, int] = {}
    cutoff = None
    if sc.peek() == "O":
        cutoff = _parse_hahn_cutoff(sc)
    else:
        exponent, coeff = _parse_hahn_term(sc)
        terms[exponent] = terms.get(exponent, 0) + coeff
        while sc.try_consume("+"):
            if sc.peek() == "O":
                cutoff = _parse_hahn_cutoff(sc)
                break
            exponent, coeff = _parse_hahn_term(sc)
            terms[exponent] = terms.get(exponent, 0) + coeff
    sc.expect_end()
    return HahnSum.make(p, terms, cutoff)


def format_hahn(series: HahnSum) -> str:
    parts = []
    for exponent, coeff in series.terms:
        if exponent.is_zero:
            parts.append(str(coeff))
            continue
        tpart = f"t^{exponent}"
        parts.append(tpart if coeff == 1 else f"{coeff}*{tpart}")
    if series.cutoff is not None:
        parts.append(f"O(t^{series.cutoff})")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Norm values (slack literals)


def _parse_norm_value(sc: _Scanner) -> NormValue:
    if sc.try_consume("0"):
        return NormValue.zero()
    sc.expect("e")
    sc.expect("^")
    log_norm = sc.parse_rational()
    return NormValue.finite(-log_norm)


def parse_norm_value(text: str) -> NormValue:
    sc = _Scanner(text)
    value = _parse_norm_value(sc)
    sc.expect_end()
    return value


def format_norm_value(value: NormValue) -> str:
    if value.is_zero:
        return "0"
    exponent = value.exponent
    if isinstance(exponent, ExponentVector):
        body = f"e^-{exponent}"
    else:
        body = f"e^{format_rational(-exponent)}"
    return body if value.is_finite else f"<={body}"


# ---------------------------------------------------------------------------
# Tate dialect


def _parse_tate_monomial_unit(sc: _Scanner) -> tuple[int, int]:
    sc.expect("X")
    index = 1
    ch = sc.peek()
    if ch is not None and ch.isdigit():
        index = sc.parse_unsigned()
        if index < 1:
            sc.error("variable indices are 1-based")
    power = 1
    if sc.try_consume("^"):
        power = sc.parse_unsigned()
    return index, power


def _parse_tate_term(sc: _Scanner, p: int):
    coeff = LaurentSeries.one(p)
    exponents: dict[int, int] = {}
    saw_factor = False
    while True:
        ch = sc.peek()
        if ch == "[":
            sc.expect("[")
            coeff = coeff * _parse_laurent_body(sc, p)
            sc.expect("]")
            saw_factor = True
        elif ch == "X":
            index, power = _parse_tate_monomial_unit(sc)
            exponents[index] = exponents.get(index, 0) + power
            saw_factor = True
        elif ch is not None and (ch.isdigit() or ch == "-") and not saw_factor:
            # Bare integer constant, e.g. "0" or "-1".
            coeff = coeff.scalar_mul(sc.parse_int())
            saw_factor = True
        else:
            if not saw_factor:
                sc.error("expected a coefficient or monomial")
            break
        if sc.try_consume("*"):
            continue
        if sc.peek() in ("[", "X"):
            continue
        break
    return coeff, exponents


def _parse_tate_slack(sc: _Scanner) -> NormValue:
    sc.expect("O")
    sc.expect("(")
    value = _parse_norm_value(sc)
    sc.expect(")")
    return value


def parse_tate(text: str, p: int, n: int | None = None) -> TateElem:
    sc = _Scanner(text)
    raw_terms = []
    slack = None
    if sc.peek() == "O":
        slack = _parse_tate_slack(sc)
    else:
        raw_terms.append(_parse_tate_term(sc, p))
        while sc.try_consume("+"):
            if sc.peek() == "O":
                slack = _parse_tate_slack(sc)
                break
            raw_terms.append(_parse_tate_term(sc, p))
    sc.expect_end()
    max_index = max(
        (max(exps) for _, exps in raw_terms if exps),
        default=0,
    )
    arity = n if n is not None else max(1, max_index)
    if max_index > arity:
        raise ParseError(f"variable X{max_index} exceeds arity {arity}", 1, 1)
    data: dict[tuple[int, ...], LaurentSeries] = {}
    for coeff, exps in raw_terms:
        index = tuple(exps.get(i, 0) for i in range(1, arity + 1))
        data[index] = data[index] + coeff if index in data else coeff
    return TateElem.make(arity, p, data, slack)


def format_tate(f: TateElem) -> str:
    parts = []
    for index, coeff in sorted(f.terms, key=lambda kv: kv[0], reverse=True):
        if isinstance(coeff, LaurentSeries):
            inner = format_laurent(coeff)
            is_one = coeff.terms == ((Fraction(0), 1),) and coeff.cutoff is None
        else:
            inner = format_hahn(coeff)
            is_one = (
                coeff.terms == ((ExponentVector.zero(), 1),) and coeff.cutoff is None
            )
        factors = []
        for i, power in enumerate(index, start=1):
            if power == 0:
                continue
            name = "X" if f.n == 1 else f"X{i}"
            factors.append(name if power == 1 else f"{name}^{power}")
        monom = "*".join(factors)
        if not monom:
            parts.append(f"[{inner}]")
        elif is_one:
            parts.append(monom)
        else:
            parts.append(f"[{inner}]{monom}")
    if f.slack is not None:
        parts.append(f"O({format_norm_value(f.slack)})")
    return " + ".join(parts) if parts else "0"
