"""polycf: exact arithmetic for polynomial continued fractions.

Construct continued fractions K b(i)/a(i) with polynomial coefficients,
evaluate their convergents exactly, identify which of them arise from a
three-term recurrence factorization (h1, h2, f), and derive closed forms
(zeta combinations, Beta-integral values, quadratic surd limits) where the
structure allows it.  Everything is exact: polynomials keep int numerators
over one denominator, deep convergents and partial values are read straight
off integer product trees, and results are Fractions, integer pairs or
quadratic surds.  No floating point.

The public names load on first use (PEP 562): ``import polycf`` runs no
submodule, and the first name read from the package loads the whole
library at once, so ``python -m polycf`` pays only for the modules its
subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it exports; __all__ is read off this map
_EXPORTS = {
    "algebra": (
        "INF", "Infinity", "Poly", "QuadSurd", "RatFunc", "factor_integer_rooted",
        "is_inf", "parse_factored", "parse_poly", "poly_gcd", "rational_roots",
    ),
    "errors": (
        "DegenerateTerm", "InvalidInput", "NonTelescoping", "NotDivisible",
        "PoleInFormula", "PolycfError", "PolyParseError", "PreconditionViolated",
        "ZeroCEntry", "ZeroF", "ZeroScaler",
    ),
    "mobius": (
        "CFLimit", "CFSpec", "ConvergentState", "Mat2", "cf_value",
        "constant_cf_limit", "convergents", "convergents_from_terms", "product_apply",
    ),
    "euler": (
        "EulerTriple", "build_euler_cf", "equivalence_transform", "euler_partial_value",
        "euler_sum", "euler_sum_to_cf", "trivial_triple",
    ),
    "identify": (
        "IdentifyReport", "Rejection", "candidate_degrees", "identify",
        "leading_coeff_split", "solve_f",
    ),
    "limits": (
        "BetaForm", "ClosedForm", "LimitEstimate", "ZetaCombo", "beta_degree1",
        "cf_limit_from_zeta", "dominant_limit", "numeric_limit", "telescoped_summand",
        "telescoping_zeta_sum",
    ),
    "matforms": (
        "EigenSeq", "PolyMat2", "cf_form_states", "coboundary_check", "eigen_check",
        "euler_cf_matrix", "euler_left_eigen", "rederive_euler_sum",
        "to_cf_form", "to_integral_cf_form", "triangularize",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # Any one name loads every module: code that looks a module up in
    # sys.modules after its first public name then finds all seven.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    scope = globals()
    for module, names in _EXPORTS.items():
        loaded = _import_module(f".{module}", __name__)
        scope.update((n, getattr(loaded, n)) for n in names)
    return scope[name]


def __dir__():
    return sorted(set(__all__) | globals().keys())
