"""Test oracle for the Frobenius decomposition: rebuild a series from
its direct-summand components, so a test can check
f == sum of t^(j/p^L) * X^e * component^p exactly."""

from fractions import Fraction

from tatekit.field import LaurentSeries
from tatekit.frobenius import SplittingMap, frobenius_components
from tatekit.tate import TateElem


def reconstruct_from_components(phi: SplittingMap, f: TateElem) -> TateElem:
    """Reassemble f from its direct-summand components."""
    p = phi.p
    level = 0
    for _, c in f.terms:
        level = max(level, c.level)
    unit_exp = Fraction(1, p**level)
    total = TateElem.zero(f.n, p)
    for (j, e_class), comp in frobenius_components(phi, f).items():
        shift = TateElem.monomial(
            f.n, e_class, LaurentSeries.t_power(p, j * unit_exp)
        )
        powered = comp.map_coefficients(lambda c: c.frobenius())
        powered = TateElem.make(
            f.n, p, {tuple(k * p for k in idx): c for idx, c in powered.terms}
        )
        total = total + shift * powered
    return total
