"""Frobenius splittings of the Laurent backend and their series lifts.

The standard splitting projects an element of the p-th-root field onto
the coarse exponent lattice: terms whose exponent survives in the base
lattice are kept, everything else dies.  Precomposing with a field
element ("twist") gives the other continuous splittings we can
represent.  The lift to restricted power series keeps exactly the
multi-indices with all coordinates divisible by p, dividing them by p
and applying the field splitting to the rooted coefficients.

Also here: the composed one-variable reduction (conjugate the lift by a
shear, then kill all variables but the last), a bounded monomial search
that rescales such a composed map so 1 maps to 1, convergence
certificates in the log scale with their p-th-root transform, and the
diagonal index selection over a table of norm exponents that drives the
divergence argument for non-continuous splittings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendMismatch, DomainError, SearchExhausted
from .field import LaurentSeries, NormValue
from .tate import AutomorphismSpec, TateElem, _from_pairs, _product, is_unit
from .weierstrass import divide


@dataclass(frozen=True)
class SplittingMap:
    """Continuous splitting of the Laurent backend at lattice level e.

    The domain is the refined lattice (1/p^(e+1))Z; application keeps the
    terms whose exponent lies in the base lattice (1/p^e)Z.  An optional
    twist premultiplies the argument.  Untwisted, the map fixes the base
    field pointwise, so it sends 1 to 1.
    """

    p: int
    level: int = 0
    twist: LaurentSeries | None = None

    def apply(self, x: LaurentSeries) -> LaurentSeries:
        if x.p != self.p:
            raise BackendMismatch("characteristics differ")
        if self.twist is not None:
            x = self.twist * x
        if x.level > self.level + 1:
            raise BackendMismatch(
                "lattice mismatch: element is finer than the splitting domain"
            )
        return x.lattice_part(self.level)

    def apply_to_root_class(self, x: LaurentSeries) -> LaurentSeries:
        """p^(-1)-linear avatar: root the argument, then project."""
        return self.apply(x.pth_root())


def phi_standard(
    p: int, twist: LaurentSeries | None = None, level: int = 0
) -> SplittingMap:
    if twist is not None and twist.p != p:
        raise BackendMismatch("twist characteristic differs")
    return SplittingMap(p, level, twist)


def lift_splitting_tate(phi: SplittingMap, f: TateElem) -> TateElem:
    """Lift the field splitting to restricted power series.

    Keeps multi-indices with every coordinate divisible by p, divides
    them by p, and maps coefficients through the field splitting after
    taking p-th roots.  A slack bound e^(-s) becomes e^(-s/p).
    """
    p = phi.p
    if f.char != p:
        raise BackendMismatch("characteristics differ")
    pairs = []
    for idx, coeff in f.terms:
        if any(k % p for k in idx):
            continue
        if not isinstance(coeff, LaurentSeries):
            raise BackendMismatch("the splitting lift needs Laurent coefficients")
        pairs.append((tuple(k // p for k in idx), phi.apply(coeff.pth_root())))
    # A ball in the twist is the one way a caller's data reaches the images.
    if pairs and phi.twist is not None and phi.twist.cutoff is not None:
        raise DomainError("coefficients must be exact (no ball)")
    slack = None if f.slack is None else f.slack.root(p)
    return _from_pairs(f.n, p, pairs, slack)


@dataclass(frozen=True)
class ReducedMap:
    """The composed one-variable map pi . sigma . Phi . (pre_twist *) . sigma^(-1).

    Phi is the lift of ``phi`` in arity n; ``pre_twist`` is an optional
    series premultiplication (the constructive stand-in for an arbitrary
    nonzero map's normalization); sigma is a shear; pi kills all
    variables but the last.  Inputs and outputs are one-variable series.

    ``apply`` drops every stage whose output the next one discards.
    (i) sigma^(-1) fixes the embedded f: each index has head exponents 0,
    and X_i^0 expands to 1.  (ii) sigma expands X_i^b into the terms
    C(b, j) X_i^(b-j) X_n^(a_i j); pi keeps j = b alone, where C(b, b) = 1.
    So an index pi keeps is reached only by c X^b -> c X_n^(b_n + sum a_i b_i),
    sigma's builder merges and folds it over the same terms as this one
    substitution does, and pi's builder, on distinct indices, is a no-op.
    (iii) Phi reads only the indices with every coordinate divisible by p,
    and the product merges and folds each index on its own, so only the
    products landing there are built; the slack is the full product's.
    """

    phi: SplittingMap
    sigma: AutomorphismSpec
    n: int
    pre_twist: TateElem | None = None

    def apply(self, f: TateElem) -> TateElem:
        if self.sigma.arity != self.n:
            raise BackendMismatch("shear arity does not match")
        if f.n != 1:
            raise DomainError("embedding expects a one-variable series")
        pad = (0,) * (self.n - 1)
        g = _from_pairs(self.n, f.char, [(pad + i, c) for i, c in f.terms], f.slack)
        if self.pre_twist is not None:
            g = _product(self.pre_twist, g, self.phi.p)
        g = lift_splitting_tate(self.phi, g)
        weights = self.sigma.exponents + (1,)
        pairs = [((sum(a * k for a, k in zip(weights, i)),), c) for i, c in g.terms]
        return _from_pairs(1, g.char, pairs, g.slack)


@dataclass(frozen=True)
class NormalizedSplitting:
    """A composed map rescaled so that 1 maps to 1.

    Evaluation divides by the unit value, so it takes a target slack.
    When the unit value is exactly 1, the quotient is the value itself
    unless |value| <= e^-tau: then it is 0 and the value becomes slack.
    """

    base: ReducedMap
    monomial: TateElem
    unit_value: TateElem

    def apply(self, f: TateElem, target_slack: NormValue) -> TateElem:
        value = self.base.apply(self.monomial * f)
        quotient, _ = divide(value, self.unit_value, target_slack)
        return quotient


def normalize_to_unital(
    psi: ReducedMap, search_bound: int
) -> NormalizedSplitting | None:
    """Bounded monomial search making the composed map send 1 to 1.

    Scans x = t^a X^b with |a| <= bound, 0 <= b <= bound, preferring an
    x with psi(x) exactly 1 before any x whose image is a unit; the
    result is psi(x * -) divided by psi(x), a division that runs even
    when psi(x) is 1.  Returns None when no monomial in the box works.
    """
    p = psi.phi.p
    one = TateElem.constant(1, LaurentSeries.one(p))
    first_unit = None
    for b in range(search_bound + 1):
        for a in range(-search_bound, search_bound + 1):
            # t^a X^b in canonical form: integer exponent, coefficient 1.
            x = TateElem(1, p, (((b,), LaurentSeries(p, 0, (a,), (1,))),))
            value = psi.apply(x)
            if value == one:
                return NormalizedSplitting(psi, x, value)
            # is_unit runs on every candidate, so its PrecisionError surfaces.
            if value.terms and is_unit(value) and first_unit is None:
                first_unit = NormalizedSplitting(psi, x, value)
    return first_unit


def frobenius_components(phi: SplittingMap, f: TateElem) -> dict:
    """Decompose a finite series over the splitting's direct summands.

    Components are indexed by (j, e) with j in 0..p-1 a class of the
    coefficient exponent lattice and e in {0..p-1}^n a class of the
    multi-index lattice.  For the untwisted standard splitting,

        f = sum over (j, e) of  t^(j/p^L) * X^e * component^p

    with L the common lattice level, which the tests verify exactly.
    """
    p = phi.p
    if f.char != p:
        raise BackendMismatch("characteristics differ")
    level = 0
    for _, c in f.terms:
        if not isinstance(c, LaurentSeries):
            raise BackendMismatch("decomposition needs Laurent coefficients")
        level = max(level, c.level)
    scale = p**level
    unit_exp = Fraction(1, scale)
    components = {}
    for idx, coeff in f.terms:
        e_class = tuple(k % p for k in idx)
        target_idx = tuple(k // p for k in idx)
        for m, c in coeff.terms:
            j = int(m * scale) % p
            piece = LaurentSeries.t_power(p, m - j * unit_exp, c)
            inner = phi.apply(piece.pth_root())
            components.setdefault((j, e_class), []).append((target_idx, inner))
    # A twist with a ball gives ball images, which ``make`` rejects.
    return {key: TateElem.make(f.n, p, pairs) for key, pairs in components.items()}


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Radii and bound in the log scale: radius_j = e^(log_radii[j]),
    bound = e^(log_bound).

    The certified condition |a| * prod(radius_j^(index_j)) <= bound turns
    into the exact rational inequality
    -v(a) + sum(index_j * log_radii[j]) <= log_bound.
    """

    log_radii: tuple[Fraction, ...]
    log_bound: Fraction

    def covers(self, f: TateElem) -> bool:
        if len(self.log_radii) != f.n:
            raise DomainError("certificate arity does not match")
        for idx, coeff in f.terms:
            norm = coeff.norm()
            if not norm.is_finite:
                raise DomainError("certificates need exact coefficients")
            lhs = -norm.exponent + sum(
                k * rho for k, rho in zip(idx, self.log_radii)
            )
            if lhs > self.log_bound:
                return False
        return True

    def check(self, f: TateElem) -> None:
        if not self.covers(f):
            raise DomainError("invalid-certificate: a coefficient violates the bound")


def lift_splitting_convergent(
    phi: SplittingMap, f: TateElem, cert: ConvergenceCertificate
) -> tuple[TateElem, ConvergenceCertificate]:
    """Splitting lift with certificate transport.

    The image coefficient norms are at most the p-th roots of the input
    norms, so keeping the radii and taking the p-th root of the bound
    (exact in the log scale: log_bound / p) yields a valid certificate,
    which is re-verified on the output before returning.
    """
    if f.slack is not None:
        raise DomainError("certified lifts need finite-support inputs")
    cert.check(f)
    image = lift_splitting_tate(phi, f)
    out_cert = ConvergenceCertificate(cert.log_radii, cert.log_bound / phi.p)
    out_cert.check(image)
    return image, out_cert


@dataclass(frozen=True)
class NormTable:
    """Grid of norm exponents v[i, j] (norm = e^(-v)) with growth floors.

    floors[i] bounds the first column from below in norm:
    |b_(i,0)| >= e^(floors[i]), i.e. v[i, 0] <= -floors[i].
    """

    rows: int
    cols: int
    entries: dict
    floors: tuple[Fraction, ...]

    @classmethod
    def from_entries(cls, entries: dict, floors) -> NormTable:
        if not entries:
            raise DomainError("norm table has no entries")
        rows = max(i for i, _ in entries) + 1
        cols = max(j for _, j in entries) + 1
        floors = tuple(Fraction(x) for x in floors)
        table = cls(rows, cols, dict(entries), floors)
        table.validate()
        return table

    @classmethod
    def from_csv(cls, text: str, floors) -> NormTable:
        import csv
        import io

        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["i", "j", "v"]:
            raise DomainError("norm table CSV must start with header i,j,v")
        entries = {}
        for row in reader:
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                i, j, v = (cell.strip() for cell in row)
                entries[(int(i), int(j))] = Fraction(v)
            except (ValueError, ZeroDivisionError):
                raise DomainError(
                    f"norm table line {reader.line_num} is not i,j,v"
                ) from None
        return cls.from_entries(entries, floors)

    def validate(self) -> None:
        if len(self.floors) != self.rows:
            raise DomainError("need one growth floor per table row")
        for i in range(self.rows):
            for j in range(self.cols):
                if (i, j) not in self.entries:
                    raise DomainError(f"norm table is missing entry ({i}, {j})")
        for i in range(self.rows):
            if self.entries[(i, 0)] > -self.floors[i]:
                raise DomainError(
                    f"row {i} violates its growth floor"
                )


@dataclass(frozen=True)
class DiagonalStep:
    """One selected index with its certificate data.

    coeff_exponent is v[index, 0]; the selected coefficient's norm equals
    e^(-coeff_exponent) and is bounded below by e^(floor).  For steps
    after the first, competitor_exponent is the smallest v[m_r, i-r]
    over earlier selections (largest competing norm); strictness of
    coeff_exponent < competitor_exponent is the choice inequality.
    """

    position: int
    index: int
    coeff_exponent: Fraction
    floor: Fraction
    competitor_exponent: Fraction | None


def select_diagonal_indices(table: NormTable, count: int) -> list[DiagonalStep]:
    """Choose indices m_0 = 0 < m_1 < ... so each new diagonal entry
    strictly dominates every earlier row's entry on the same diagonal.

    Greedy and minimal: m_i is the least index above m_(i-1) whose
    first-column norm strictly exceeds all competitors b_(m_r, i-r).
    Requires strictly increasing growth floors (the finite stand-in for
    unboundedness); raises SearchExhausted when the table runs out.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    for i in range(1, table.rows):
        if table.floors[i] <= table.floors[i - 1]:
            raise DomainError(
                "precondition: growth floors must be strictly increasing"
            )
    steps = [
        DiagonalStep(0, 0, table.entries[(0, 0)], table.floors[0], None)
    ]
    for i in range(1, count):
        if i >= table.cols:
            raise SearchExhausted(
                "table-exhausted: not enough columns for the diagonal"
            )
        competitors = [
            table.entries[(steps[r].index, i - r)] for r in range(i)
        ]
        needed = min(competitors)
        chosen = None
        for m in range(steps[-1].index + 1, table.rows):
            if table.entries[(m, 0)] < needed:
                chosen = m
                break
        if chosen is None:
            raise SearchExhausted(
                "table-exhausted: no admissible row above the last selection"
            )
        steps.append(
            DiagonalStep(
                i, chosen, table.entries[(chosen, 0)], table.floors[chosen], needed
            )
        )
    return steps
