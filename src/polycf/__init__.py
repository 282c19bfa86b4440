"""polycf: exact arithmetic for polynomial continued fractions.

Construct continued fractions K b(i)/a(i) with polynomial coefficients,
evaluate their convergents exactly, identify which of them arise from a
three-term recurrence factorization (h1, h2, f), and derive closed forms
(zeta combinations, Beta-integral values, quadratic surd limits) where the
structure allows it.  Everything is exact: polynomials keep int numerators
over one denominator, deep convergents and partial values are read straight
off integer product trees, and results are Fractions, integer pairs or
quadratic surds.  No floating point.
"""

from .algebra import (
    INF,
    Infinity,
    Poly,
    QuadSurd,
    RatFunc,
    factor_integer_rooted,
    is_inf,
    parse_factored,
    parse_poly,
    poly_gcd,
    rational_roots,
)
from .errors import (
    DegenerateTerm,
    InvalidInput,
    NonTelescoping,
    NotDivisible,
    PoleInFormula,
    PolycfError,
    PolyParseError,
    PreconditionViolated,
    ZeroCEntry,
    ZeroF,
    ZeroScaler,
)
from .mobius import (
    CFLimit,
    CFSpec,
    ConvergentState,
    Mat2,
    cf_value,
    constant_cf_limit,
    convergents,
    convergents_from_terms,
    product_apply,
)
from .euler import (
    EulerTriple,
    build_euler_cf,
    equivalence_transform,
    euler_partial_value,
    euler_sum,
    euler_sum_to_cf,
    trivial_triple,
)
from .identify import (
    IdentifyReport,
    Rejection,
    candidate_degrees,
    identify,
    leading_coeff_split,
    solve_f,
)
from .limits import (
    BetaForm,
    ClosedForm,
    LimitEstimate,
    ZetaCombo,
    beta_degree1,
    cf_limit_from_zeta,
    dominant_limit,
    numeric_limit,
    telescoped_summand,
    telescoping_zeta_sum,
)
from .matforms import (
    EigenSeq,
    PolyMat2,
    cf_form_states,
    coboundary_check,
    eigen_check,
    euler_cf_matrix,
    euler_left_eigen,
    rederive_euler_sum,
    to_cf_form,
    to_integral_cf_form,
    triangularize,
)

__version__ = "0.1.0"

__all__ = [
    # algebra
    "INF", "Infinity", "Poly", "QuadSurd", "RatFunc", "factor_integer_rooted",
    "is_inf", "parse_factored", "parse_poly", "poly_gcd", "rational_roots",
    # errors
    "DegenerateTerm", "InvalidInput", "NonTelescoping", "NotDivisible",
    "PoleInFormula", "PolycfError", "PolyParseError", "PreconditionViolated",
    "ZeroCEntry", "ZeroF", "ZeroScaler",
    # mobius
    "CFLimit", "CFSpec", "ConvergentState", "Mat2", "cf_value",
    "constant_cf_limit", "convergents", "convergents_from_terms", "product_apply",
    # euler
    "EulerTriple", "build_euler_cf", "equivalence_transform", "euler_partial_value",
    "euler_sum", "euler_sum_to_cf", "trivial_triple",
    # identify
    "IdentifyReport", "Rejection", "candidate_degrees", "identify",
    "leading_coeff_split", "solve_f",
    # limits
    "BetaForm", "ClosedForm", "LimitEstimate", "ZetaCombo", "beta_degree1",
    "cf_limit_from_zeta", "dominant_limit", "numeric_limit", "telescoped_summand",
    "telescoping_zeta_sum",
    # matforms
    "EigenSeq", "PolyMat2", "cf_form_states", "coboundary_check", "eigen_check",
    "euler_cf_matrix", "euler_left_eigen", "rederive_euler_sum",
    "to_cf_form", "to_integral_cf_form", "triangularize",
]
