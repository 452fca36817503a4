"""Exact ball-precision arithmetic for non-Archimedean fields,
restricted power series, and Frobenius splittings."""

from .errors import (
    BackendMismatch,
    DomainError,
    ParseError,
    PrecisionError,
    SearchExhausted,
    TatekitError,
)
from .exponents import (
    CosetSignature,
    ExponentVector,
    RealInterval,
    bounded_coset_representatives,
    compare,
    enclose,
)
from .field import HahnSum, LaurentSeries, NormValue
from .tate import (
    AutomorphismSpec,
    DistinguishedReport,
    TateElem,
    apply_automorphism,
    distinguished_order,
    euclid_degree,
    find_distinguishing_automorphism,
    gauss_norm,
    is_unit,
    project_kill_vars,
)

__all__ = [
    "AutomorphismSpec",
    "BackendMismatch",
    "CosetSignature",
    "DistinguishedReport",
    "DomainError",
    "ExponentVector",
    "HahnSum",
    "LaurentSeries",
    "NormValue",
    "ParseError",
    "PrecisionError",
    "RealInterval",
    "SearchExhausted",
    "TateElem",
    "TatekitError",
    "apply_automorphism",
    "bounded_coset_representatives",
    "compare",
    "distinguished_order",
    "enclose",
    "euclid_degree",
    "find_distinguishing_automorphism",
    "gauss_norm",
    "is_unit",
    "project_kill_vars",
]
