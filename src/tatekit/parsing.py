"""Parsers and printers for the series literal grammars.

Three dialects share one scanner and one sum grammar,
``term (+ term)* [+ O(...)]`` or a lone ``O(...)``:

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

    def expect_end(self) -> None:
        if self.peek() is not None:
            self.error("unexpected trailing input")

    def parse_unsigned(self) -> int:
        self._ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
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

    def parse_index(self, kind: str) -> int:
        """A 1-based index; an error points at its first digit."""
        self._ws()
        start = self.pos
        index = self.parse_unsigned()
        if index < 1:
            self.pos = start
            self.error(f"{kind} indices are 1-based")
        return index

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
            index = sc.parse_index("generator")
            sc.expect(":")
            coeff = sc.parse_int()
            data[index] = data.get(index, 0) + coeff
            if not sc.try_consume(","):
                break
    sc.expect("]")
    return ExponentVector.from_dict(data)


def _parse_whole(text: str, read):
    """read(scanner) over all of text."""
    sc = _Scanner(text)
    value = read(sc)
    sc.expect_end()
    return value


def parse_exponent_vector(text: str) -> ExponentVector:
    return _parse_whole(text, _parse_exponent_vector)


# ---------------------------------------------------------------------------
# Sums and the two field dialects
#
# The Laurent and Hahn dialects differ only in what follows ``t``:
# ``^rational`` (nothing for exponent 1) against ``^[i:c, ...]``.


def _parse_sum(sc: _Scanner, term, inside) -> tuple[list, object]:
    """``term (+ term)* [+ O(...)]`` or a lone ``O(...)``: the terms and
    what inside(scanner) reads between the parentheses, or None."""
    terms = []
    if sc.peek() != "O":
        terms.append(term(sc))
        while True:
            if not sc.try_consume("+"):
                return terms, None
            if sc.peek() == "O":
                break
            terms.append(term(sc))
    sc.expect("O")
    sc.expect("(")
    ball = inside(sc)
    sc.expect(")")
    return terms, ball


def _parse_field_series(sc: _Scanner, p: int, make, exponent, zero):
    """A field literal; exponent(scanner) reads what follows ``t``, and
    zero is the exponent of a constant term."""

    def term(sc: _Scanner):
        # c, t..., c*t... or ct...
        ch = sc.peek()
        has_coeff = ch is not None and (ch.isdigit() or ch == "-")
        coeff = 1
        if has_coeff:
            coeff = sc.parse_int()
            if sc.try_consume("*") and sc.peek() != "t":
                sc.error("expected 't' after '*'")
        if sc.try_consume("t"):
            return exponent(sc), coeff
        if not has_coeff:
            sc.error("expected a term")
        return zero, coeff

    def cutoff(sc: _Scanner):
        if not sc.try_consume("t"):
            sc.error("expected 't' inside O(...)")
        return exponent(sc)

    terms, cut = _parse_sum(sc, term, cutoff)
    return make(p, terms, cut)


def _format_field_sum(series, exponent, zero) -> str:
    """Inverse of the field grammar; exponent(e) prints what follows t."""
    parts = []
    for e, coeff in series.terms:
        if e == zero:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(f"t{exponent(e)}")
        else:
            parts.append(f"{coeff}*t{exponent(e)}")
    if series.cutoff is not None:
        parts.append(f"O(t{exponent(series.cutoff)})")
    return " + ".join(parts) if parts else "0"


def _laurent_exponent(sc: _Scanner) -> Fraction:
    return sc.parse_rational() if sc.try_consume("^") else Fraction(1)


def _hahn_exponent(sc: _Scanner) -> ExponentVector:
    sc.expect("^")
    return _parse_exponent_vector(sc)


def _parse_laurent_body(sc: _Scanner, p: int) -> LaurentSeries:
    return _parse_field_series(
        sc, p, LaurentSeries.make, _laurent_exponent, Fraction(0)
    )


def parse_laurent(text: str, p: int) -> LaurentSeries:
    return _parse_whole(text, lambda sc: _parse_laurent_body(sc, p))


def parse_hahn(text: str, p: int) -> HahnSum:
    return _parse_whole(
        text,
        lambda sc: _parse_field_series(
            sc, p, HahnSum.make, _hahn_exponent, ExponentVector.zero()
        ),
    )


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_laurent(series: LaurentSeries) -> str:
    return _format_field_sum(
        series, lambda e: "" if e == 1 else f"^{format_rational(e)}", 0
    )


def format_hahn(series: HahnSum) -> str:
    return _format_field_sum(series, lambda e: f"^{e}", ExponentVector.zero())


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
    return _parse_whole(text, _parse_norm_value)


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
        index = sc.parse_index("variable")
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
        starred = sc.try_consume("*")
        if sc.peek() in ("[", "X"):
            continue
        if starred:
            sc.error("expected a coefficient or monomial")
        break
    return coeff, exponents


def _parse_tate_body(sc: _Scanner, p: int):
    return _parse_sum(sc, lambda sc: _parse_tate_term(sc, p), _parse_norm_value)


def parse_tate(text: str, p: int, n: int | None = None) -> TateElem:
    raw_terms, slack = _parse_whole(text, lambda sc: _parse_tate_body(sc, p))
    max_index = max(
        (max(exps) for _, exps in raw_terms if exps),
        default=0,
    )
    arity = n if n is not None else max(1, max_index)
    if max_index > arity:
        raise ParseError(f"variable X{max_index} exceeds arity {arity}", 1, 1)
    terms = [
        (tuple(exps.get(i, 0) for i in range(1, arity + 1)), coeff)
        for coeff, exps in raw_terms
    ]
    return TateElem.make(arity, p, terms, slack)


def format_tate(f: TateElem) -> str:
    parts = []
    for index, coeff in reversed(f.terms):
        inner = str(coeff)
        factors = []
        for i, power in enumerate(index, start=1):
            if power == 0:
                continue
            name = "X" if f.n == 1 else f"X{i}"
            factors.append(name if power == 1 else f"{name}^{power}")
        monom = "*".join(factors)
        if not monom:
            parts.append(f"[{inner}]")
        elif inner == "1":  # printing is canonical: only an exact 1 prints "1"
            parts.append(monom)
        else:
            parts.append(f"[{inner}]{monom}")
    if f.slack is not None:
        parts.append(f"O({format_norm_value(f.slack)})")
    return " + ".join(parts) if parts else "0"
