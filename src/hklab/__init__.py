"""hklab: exact Hilbert-Kunz / Hilbert-Samuel multiplicity laboratory for
ideals in quotients of polynomial rings over positive-characteristic fields,
with empirical checks of semicontinuity, monotonicity, uniform-convergence,
and reduction-mod-p behavior on parametrized families."""

from .coeff import (
    ExtensionField,
    Field,
    FieldElement,
    PrimeField,
    RationalFunctionField,
    frobenius,
    make_extension,
)
from .errors import HKLabError, StructuralError, ValidationError
from .family import (
    FamilySpec,
    FiberSpec,
    ModpResult,
    SweepResult,
    Verdict,
    hk_sweep,
    modp_sweep,
    specialize_fiber,
    verdict_hk_monotonicity,
    verdict_hs_lex,
    verdict_term_semicontinuity,
    verdict_uniform_bounds,
)
from .groebner import INFINITE, GroebnerBasis, buchberger, is_primary_to_origin
from .multiplicity import (
    CSigResult,
    HKEstimate,
    HKSample,
    HSEstimate,
    HSSample,
    QuotientRingSpec,
    RSigResult,
    csig_search,
    hk_estimate,
    hk_function,
    hs_function,
    hs_multiplicity,
    rsig_search,
    socle_basis,
)
from .polyring import (
    IdealPresentation,
    IntegerDomain,
    Monomial,
    Polynomial,
    PolynomialRing,
    TermOrder,
    frobenius_power,
    ordinary_power,
)
from .quotient import ideal_colon_m, multiplication_matrix, trace_discriminant

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
