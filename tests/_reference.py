"""Independent reference constants and oracles for the test suite.

Everything here is computed with exact Fraction arithmetic from classical
series that have nothing to do with the code under test: e from its
factorial series, pi from Machin's arctangent formula, zeta from a scaled
prefix sum plus an Euler-Maclaurin tail.  Accuracy bounds are stated per
constant; test_reference.py pins 20-digit decimal prefixes so a regression
here fails loudly rather than silently weakening every numeric comparison.

The generic three-term degree analysis at the end is the oracle for
polycf.identify.candidate_degrees: it derives the degree of f from the
recurrence form rather than from the per-case formulas.  reference_splits is
the oracle for the splits polycf.identify.identify examines: it builds each
split pick by pick rather than as running prefix products.

reference_state_at and reference_numeric_limit are the oracles for the deep
convergent kernel: they walk the plain convergent stream of the CF as given
(Fraction arithmetic for rational coefficients), where polycf clears
denominators and multiplies in a product tree.  In the same way
reference_euler_partial_value sums the closed form term by term, and
reference_triangular_product / reference_rederive_euler_sum run the
triangular route as one Fraction pass, where polycf multiplies scaled
integer steps in a product tree.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from polycf.algebra import INF, Poly, is_inf, rat, rational_sqrt
from polycf.errors import InvalidInput, PoleInFormula, PolycfError
from polycf.limits import LimitEstimate
from polycf.mobius import CFSpec, ConvergentState, Mat2, convergents


@lru_cache(maxsize=None)
def e_ref() -> Fraction:
    """sum of 1/k! for k = 0..40; error below 1e-49."""
    total = Fraction(0)
    fact = 1
    for k in range(41):
        if k:
            fact *= k
        total += Fraction(1, fact)
    return total


def _arctan_inv(m: int, terms: int) -> Fraction:
    """arctan(1/m) by the alternating Taylor series, `terms` terms."""
    total = Fraction(0)
    for k in range(terms):
        term = Fraction(1, (2 * k + 1) * m ** (2 * k + 1))
        total += -term if k % 2 else term
    return total


@lru_cache(maxsize=None)
def pi_ref() -> Fraction:
    """Machin: pi = 16 arctan(1/5) - 4 arctan(1/239); error below 1e-80."""
    return 16 * _arctan_inv(5, 60) - 4 * _arctan_inv(239, 20)


_ZETA_N = 10**4
_ZETA_SCALE = 10**36


@lru_cache(maxsize=None)
def zeta_ref(d: int) -> Fraction:
    """zeta(d) for integer d >= 2; error below 1e-25.

    Prefix sum over k < N as one scaled integer (each term truncated at
    36 decimal places, so the prefix undershoots by < N * 1e-36), then the
    Euler-Maclaurin tail N^(1-d)/(d-1) + N^-d/2 + (d/12) N^(-d-1)
    - (d(d+1)(d+2)/720) N^(-d-3), whose own error is O(N^(-d-5)).
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError("zeta_ref needs an integer d >= 2")
    n = _ZETA_N
    prefix = sum(_ZETA_SCALE // k**d for k in range(1, n))
    total = Fraction(prefix, _ZETA_SCALE)
    nf = Fraction(n)
    total += nf ** (1 - d) / (d - 1)
    total += nf ** (-d) / 2
    total += Fraction(d, 12) * nf ** (-d - 1)
    total -= Fraction(d * (d + 1) * (d + 2), 720) * nf ** (-d - 3)
    return total


def harmonic(m: int) -> Fraction:
    """H_m = sum of 1/j for j = 1..m."""
    return sum((Fraction(1, j) for j in range(1, m + 1)), Fraction(0))


def decimal_prefix(q: Fraction, digits: int) -> str:
    """Truncated decimal rendering used to pin reference digits."""
    sign = "-" if q < 0 else ""
    n, d = abs(q.numerator), q.denominator
    whole, rem = divmod(n, d)
    frac = rem * 10**digits // d
    return f"{sign}{whole}.{frac:0{digits}d}"


@dataclass(frozen=True)
class BetaTriple:
    """Coefficients of the three-term recurrence
    f(x+1) beta1(x) + f(x) beta0(x) + f(x-1) betam1(x) = 0."""

    betam1: Poly
    beta0: Poly
    beta1: Poly

    @classmethod
    def from_cf(cls, a: Poly, h1: Poly, h2: Poly) -> "BetaTriple":
        """Encode f(x)a(x) = f(x-1)h1(x) + f(x+1)h2(x+1) in recurrence form."""
        return cls(betam1=h1, beta0=-a, beta1=h2.shift(1))


def three_term_degree_analysis(bt: BetaTriple) -> set[int]:
    """Possible degrees of a polynomial solution f of the recurrence.

    Writing d for the max degree of the three coefficients and b_j^(k) for
    the x^k coefficient of beta_j (zero when out of range):

    * a solution forces b_-1^(d) + b_0^(d) + b_1^(d) = 0;
    * if b_-1^(d) != b_1^(d), the degree is pinned to a single ratio;
    * otherwise the degree satisfies an explicit quadratic.

    Only nonnegative integer degrees are kept.
    """
    polys = (bt.betam1, bt.beta0, bt.beta1)
    degs = [p.degree for p in polys if not p.is_zero]
    if not degs:
        raise ValueError("all three recurrence coefficients are zero")
    d = max(degs)
    cm1, c0, c1 = (p.coeff(d) for p in polys)
    if cm1 + c0 + c1 != 0:
        return set()
    out: set[int] = set()
    if cm1 != c1:
        s1 = sum(p.coeff(d - 1) for p in polys)
        df = s1 / (cm1 - c1)
        if df.denominator == 1 and df >= 0:
            out.add(int(df))
        return out
    # cm1 == c1 (both nonzero: a zero would force all three to vanish at d)
    s2 = cm1 + c1
    qa = s2 / 2
    qb = (polys[2].coeff(d - 1) - polys[0].coeff(d - 1)) - s2 / 2
    qc = sum(p.coeff(d - 2) for p in polys)
    disc = qb * qb - 4 * qa * qc
    sq = rational_sqrt(disc)
    if sq is None:
        return set()
    for root in {(-qb + sq) / (2 * qa), (-qb - sq) / (2 * qa)}:
        if root.denominator == 1 and root >= 0:
            out.add(int(root))
    return out


def split_key(split):
    """The order identify examines splits in: by h1, then h2, each by
    degree and then by ascending coefficients."""
    h1, h2 = split
    return (len(h1.coeffs), h1.coeffs, len(h2.coeffs), h2.coeffs)


def reference_splits(blocks) -> list:
    """Every monic split (h1, h2) of the factor blocks [(p, mult), ...],
    sorted by split_key.

    Each pick of exponents e gives h1 = prod p**e and h2 = prod p**(mult-e);
    a block of degree >= 2 is atomic and goes whole to one side.
    """
    choices = [(0, m) if p.degree >= 2 else range(m + 1) for p, m in blocks]
    splits = []
    for pick in itertools.product(*choices):
        h1 = h2 = Poly.one()
        for (p, m), e in zip(blocks, pick):
            h1 = h1 * p**e
            h2 = h2 * p ** (m - e)
        splits.append((h1, h2))
    return sorted(splits, key=split_key)


def reference_state_at(cf: CFSpec, depth: int) -> ConvergentState:
    """State `depth` + 1 of the convergent stream of cf, walked step by step
    (the truncated state when a zero b comes first)."""
    if depth < 0:
        raise InvalidInput("depth must be nonnegative")
    last = None
    for state in convergents(cf):
        last = state
        if state.n >= depth + 1 or state.truncated:
            return last
    raise InvalidInput(
        f"coefficient sequence exhausted after {last.n - 1} terms, needed {depth}"
    )


def reference_cf_value(cf: CFSpec, depth: int):
    """head + the depth-term convergent, or INF, from reference_state_at."""
    v = reference_state_at(cf, depth).value
    return INF if is_inf(v) else cf.head + v


def reference_numeric_limit(cf: CFSpec, eps, max_depth: int = 1 << 16) -> LimitEstimate:
    """numeric_limit on the stream of cf as given: checkpoints at depths 8,
    16, 32, ..., stop when two successive finite checkpoints differ by less
    than eps; a truncated CF is exact with delta 0."""
    eps = rat(eps)
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    checkpoint = 8
    prev = None
    last_val = None
    last_delta = None
    depth_seen = 0
    for state in convergents(cf):
        depth = state.n - 1
        if state.truncated:
            v = state.value
            value = cf.head + v if not is_inf(v) else v
            return LimitEstimate(value, Fraction(0), depth, LimitEstimate.ESTIMATED)
        if depth == checkpoint:
            v = state.value
            if not is_inf(v):
                val = cf.head + v
                if prev is not None:
                    last_delta = abs(val - prev)
                    if last_delta < eps:
                        return LimitEstimate(val, last_delta, depth, LimitEstimate.ESTIMATED)
                prev = val
                last_val = val
            checkpoint *= 2
        depth_seen = depth
        if depth >= max_depth:
            break
    return LimitEstimate(last_val, last_delta, depth_seen, LimitEstimate.INCONCLUSIVE)


def reference_euler_partial_value(t, n: int):
    """euler_partial_value by summing S term by term in Fractions, with the
    same pole checks (every f(k), then every h2(k)) and INF when S = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    h1, h2, f = t.h1, t.h2, t.f
    fv = [f(Fraction(k)) for k in range(n + 2)]
    for k, v in enumerate(fv):
        if v == 0:
            raise PoleInFormula(k, "f")
    h2v = [None] + [h2(Fraction(k)) for k in range(1, n + 2)]
    for k in range(1, n + 2):
        if h2v[k] == 0:
            raise PoleInFormula(k, "h2")
    f01 = fv[0] * fv[1]
    total = Fraction(0)
    prod = Fraction(1)  # prod_{i=1}^{k} h1(i)/h2(i+1)
    for k in range(n + 1):
        if k > 0:
            prod *= h1(Fraction(k)) / h2v[k + 1]
        total += f01 / (fv[k] * fv[k + 1]) * prod
    if total == 0:
        return INF
    return (fv[1] * h2v[1] / fv[0]) * (1 / total - 1)


def reference_triangular_product(terms, n: int) -> Mat2:
    """prod_{i=1}^{n-1} T(i) in one pass: the diagonal multiplies out and the
    corner obeys C_m = C_{m-1} gamma_m + (prod_{i<m} alpha_i) beta_m."""
    if n < 1:
        raise InvalidInput("n must be at least 1")
    prod_a = Fraction(1)
    corner = Fraction(0)
    prod_g = Fraction(1)
    for i in range(1, n):
        if callable(terms):
            t = terms(i)
        elif i - 1 < len(terms):
            t = terms[i - 1]
        else:
            raise InvalidInput(f"matrix sequence exhausted at index {i}")
        if t.c != 0:
            raise InvalidInput(f"matrix at index {i} is not upper triangular")
        corner = corner * t.d + prod_a * t.b
        prod_a *= t.a
        prod_g *= t.d
    return Mat2(prod_a, corner, 0, prod_g)


def reference_rederive_euler_sum(h1: Poly, h2: Poly, n: int):
    """rederive_euler_sum with the unscaled Fraction steps
    T(i) = (h1(i), -h1(i)/h2(i+1); 0, h2(i)).  z = corner/prod_g is taken
    directly, so a zero h1(i) (a singular product) still gives the value."""
    if n < 1:
        raise InvalidInput("n must be at least 1")
    h2_vals = {}
    for k in range(1, n + 1):
        v = h2(Fraction(k))
        if v == 0:
            raise PoleInFormula(k, "h2")
        h2_vals[k] = v

    def term(i: int) -> Mat2:
        h1i = h1(Fraction(i))
        return Mat2(h1i, -h1i / h2_vals[i + 1], 0, h2_vals[i])

    prod = reference_triangular_product(term, n)
    z = prod.b / prod.d
    u1inv = Mat2(h2_vals[1], 0, -1, 1 / h2_vals[1])
    return u1inv.apply(z)


def outcome(fn, *args):
    """(type, value) of fn(*args), or (exception type, message) when it raises
    a polycf error or ValueError: what two routes must agree on."""
    try:
        v = fn(*args)
    except (PolycfError, ValueError) as exc:
        return type(exc), str(exc)
    return type(v), v
