"""Independent reference constants and oracles for the test suite.

Everything here is computed with exact Fraction arithmetic from classical
series that have nothing to do with the code under test: e from its
factorial series, pi from Machin's arctangent formula, zeta from a scaled
prefix sum plus an Euler-Maclaurin tail.  Accuracy bounds are stated per
constant; test_reference.py pins 20-digit decimal prefixes so a regression
here fails loudly rather than silently weakening every numeric comparison.

The generic three-term degree analysis at the end is the oracle for
polycf.identify.candidate_degrees: it derives the degree of f from the
recurrence form rather than from the stored ints.  reference_splits is
the oracle for the splits polycf.identify.identify examines: it builds each
split pick by pick rather than as running prefix products.

reference_state_at and reference_numeric_limit are the oracles for the deep
convergent kernel and for the convergent stream: they walk the plain
three-term recurrence, written out in reference_states, over the terms of the
CF as given (Fraction arithmetic for rational coefficients), where polycf
steps its own companion step, clears denominators and multiplies in a
product tree.  reference_numeric_limit's rule for a CF with no limit,
reference_oscillates, compares the normalized terms c_i in Fractions at
enough indices and finds the roots of a by trial divisors, where polycf
compares b with c a(x-1) a(x) as polynomials.  reference_apply, the Mobius
action of a state's matrix, is the oracle for product_apply, which reads
the action off the cleared integer product.  reference_eval_pair brings
the stream's Fractions to the integer pair the CLI prints with an lcm, where
polycf reads it off the cleared integer state.  In the same way
reference_euler_partial_value sums the closed form term by term, and
reference_triangular_product / reference_rederive_euler_sum run the
triangular route as one Fraction pass, where polycf multiplies scaled
integer steps in a product tree.  reference_cf_form_states multiplies the
companion matrices of the CF form state by state in Fractions, where polycf
reads the states off one integer running product of the original matrix, and
reference_solve_f solves for f as a dense linear system in reduced row echelon
form (reference_kernel), where identify.solve_f reduces the images of the
powers of x by degree.  reference_zeta_sum finds the poles of the telescoped
summand with rational_roots, where limits.telescoping_zeta_sum reads them off
the root lists the summand is built from.

RefPoly is the polynomial type as it was on Fraction coefficients, the
oracle for polycf.algebra.Poly, which computes on int numerators over one
denominator.  reference_rational_roots is the oracle for
polycf.algebra.rational_roots and factor_integer_rooted: it tries every
divisor pair s/t of the constant and the leading coefficient, found by
trial division (fine for small coefficients), where polycf lifts the roots
of one polynomial p-adically and factors no integer.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from polycf.algebra import (
    INF,
    Poly,
    is_inf,
    rat,
    rational_roots,
    taylor_div,
)
from polycf.errors import InvalidInput, PoleInFormula, PolycfError
from polycf.limits import LimitEstimate, ZetaCombo, telescoped_summand
from polycf.matforms import to_cf_form
from polycf.mobius import CFSpec, ConvergentState, Mat2


def trial_factor(n: int) -> dict:
    """{prime: exponent} for an int n != 0, by trial division."""
    n, factors, k = abs(n), {}, 2
    while n > 1:
        if k * k > n:
            k = n
        while n % k == 0:
            n //= k
            factors[k] = factors.get(k, 0) + 1
        k += 1
    return factors


def _divisors(n: int) -> list:
    """The positive divisors of an int n != 0."""
    divisors = [1]
    for p, e in trial_factor(n).items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return divisors


def reference_rational_roots(p: Poly) -> tuple[dict, Poly]:
    """(roots, residual) for a nonzero p: its rational roots with
    multiplicities, ascending, and the monic quotient of p by every
    (x - r)^m.  Each s/t with s dividing the lowest nonzero coefficient of
    p's primitive numerators and t the leading one is tested at a Fraction
    and divided out by Poly division, as often as it divides."""
    x = Poly.x()
    roots: dict = {}
    while p.degree and p.coeff(0) == 0:
        p = p // x
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
    nums = p.numerators
    g = math.gcd(*nums)
    for s in _divisors(nums[0] // g):
        for t in _divisors(nums[-1] // g):
            for r in (Fraction(s, t), Fraction(-s, t)):
                while p.degree and p(r) == 0:
                    p = p // Poly((-r, 1))
                    roots[r] = roots.get(r, 0) + 1
    return dict(sorted(roots.items())), p.monic()


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of q if it is the square of a rational, else None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


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
    # cm1 == c1 (both nonzero: a zero would force all three to vanish at d),
    # so the x^(k+d-1) coefficient of the image of x^k does not depend on k
    if sum(p.coeff(d - 1) for p in polys) != 0:
        return set()
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
    """Every distinct monic split (h1, h2) of the factor blocks
    [(p, mult), ...], sorted by split_key.

    Each pick of exponents e, every e in 0..mult for every block, gives
    h1 = prod p**e and h2 = prod p**(mult-e); blocks that share a factor
    give some split by more than one pick, and it is listed once.
    """
    choices = [range(m + 1) for _, m in blocks]
    splits = []
    for pick in itertools.product(*choices):
        h1 = h2 = Poly.one()
        for (p, m), e in zip(blocks, pick):
            h1 = h1 * p**e
            h2 = h2 * p ** (m - e)
        splits.append((h1, h2))
    return sorted(dict.fromkeys(splits), key=split_key)


def reference_states(cf: CFSpec):
    """The convergent states of cf by p_next = a p + b p_prev (the same for
    q) from the identity; a zero b gives one final state flagged truncated."""
    p_prev, p, q_prev, q = 1, 0, 0, 1
    yield ConvergentState(1, p_prev, p, q_prev, q)
    for n, (b, a) in enumerate(cf.terms(), 2):
        if b == 0:
            yield ConvergentState(n, p_prev, p, q_prev, q, truncated=True)
            return
        p_prev, p = p, a * p + b * p_prev
        q_prev, q = q, a * q + b * q_prev
        yield ConvergentState(n, p_prev, p, q_prev, q)


def reference_value(state: ConvergentState):
    """p/q of a state as a Fraction, or INF when q = 0."""
    return INF if state.q == 0 else Fraction(state.p, state.q)


def reference_state_at(cf: CFSpec, depth: int) -> ConvergentState:
    """State `depth` + 1 of the convergent stream of cf, walked step by step
    (the truncated state when a zero b comes first)."""
    if depth < 0:
        raise InvalidInput("depth must be nonnegative")
    last = None
    for state in reference_states(cf):
        last = state
        if state.n >= depth + 1 or state.truncated:
            return last
    raise InvalidInput(
        f"coefficient sequence exhausted after {last.n - 1} terms, needed {depth}"
    )


def reference_eval_pair(cf: CFSpec, depth: int) -> tuple:
    """head + the depth-term convergent as eval prints it: with h = u/v and
    the stream's p and q from reference_state_at, u q + v p over v q, scaled
    to integers by the lcm of the two reduced denominators."""
    state = reference_state_at(cf, depth)
    u, v = cf.head.numerator, cf.head.denominator
    num, den = rat(u * state.q + v * state.p), rat(v * state.q)
    scale = math.lcm(num.denominator, den.denominator)
    return int(num * scale), int(den * scale)


def reference_cf_value(cf: CFSpec, depth: int):
    """head + the depth-term convergent, or INF, from reference_state_at."""
    v = reference_value(reference_state_at(cf, depth))
    return INF if is_inf(v) else cf.head + v


def reference_oscillates(cf: CFSpec) -> bool:
    """Whether cf, with Poly a and b, normalizes to K c_i/1 with one constant
    c_i = b(i)/(a(i-1) a(i)) = c < -1/4 for all i >= 2, and a has no root
    at an integer >= 0 (so every c_i is defined).  b(i) - c a(i-1) a(i) has
    degree at most m = max(deg b, 2 deg a), so its vanishing at the m + 2
    indices 2 .. m + 3 compared here makes the c_i constant for all i."""
    a, b = cf.a, cf.b
    if not (isinstance(a, Poly) and isinstance(b, Poly)) or a.is_zero or b.is_zero:
        return False
    roots, _ = reference_rational_roots(a)
    if any(r.denominator == 1 and r >= 0 for r in roots):
        return False
    m = max(b.degree, 2 * a.degree)
    cs = {b(Fraction(i)) / (a(Fraction(i - 1)) * a(Fraction(i))) for i in range(2, m + 4)}
    return len(cs) == 1 and 4 * cs.pop() < -1


def reference_numeric_limit(cf: CFSpec, eps, max_depth: int = 1 << 16) -> LimitEstimate:
    """numeric_limit on the stream of cf as given: checkpoints at depths 8,
    16, 32, ..., stop when two successive finite checkpoints differ by less
    than eps and the previous convergent is finite (q_prev != 0), unless
    reference_oscillates(cf); a truncated CF is exact with delta 0."""
    eps = rat(eps)
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    oscillates = reference_oscillates(cf)
    checkpoint = 8
    prev = None
    last_val = None
    last_delta = None
    depth_seen = 0
    for state in reference_states(cf):
        depth = state.n - 1
        if state.truncated:
            v = reference_value(state)
            value = cf.head + v if not is_inf(v) else v
            return LimitEstimate(value, Fraction(0), depth, LimitEstimate.ESTIMATED)
        if depth == checkpoint:
            v = reference_value(state)
            if not is_inf(v):
                val = cf.head + v
                if prev is not None:
                    last_delta = abs(val - prev)
                    if last_delta < eps and state.q_prev != 0 and not oscillates:
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


def reference_apply(m: Mat2, z):
    """The Mobius action z -> (a z + b)/(c z + d) of a nonsingular m on the
    projective line: finite z with c z + d = 0 maps to INF, and INF maps to
    a/c, or to INF when c = 0."""
    if is_inf(z):
        return INF if m.c == 0 else m.a / m.c
    z = rat(z)
    den = m.c * z + m.d
    return INF if den == 0 else (m.a * z + m.b) / den


def reference_triangular_product(term, n: int) -> Mat2:
    """prod_{i=1}^{n-1} T(i) for the upper triangular T(i) = term(i), in one
    pass: the diagonal multiplies out and the corner obeys
    C_m = C_{m-1} gamma_m + (prod_{i<m} alpha_i) beta_m."""
    prod_a = Fraction(1)
    corner = Fraction(0)
    prod_g = Fraction(1)
    for i in range(1, n):
        t = term(i)
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
    return reference_apply(u1inv, z)


def reference_zeta_sum(t) -> ZetaCombo:
    """telescoping_zeta_sum by expanding the summand RatFunc: divide out the
    polynomial part, find the poles with rational_roots, divide each
    (x + alpha)^m out of the denominator and Taylor-expand at -alpha, where
    polycf reads the poles off the root lists the summand is built from."""
    s = telescoped_summand(t)
    whole, rem = divmod(s.num, s.den)
    if not whole.is_zero:
        return ZetaCombo(Fraction(0), {}, ZetaCombo.DIVERGENT)
    terms = {}
    for root, mult in rational_roots(s.den).items():
        alpha = -root
        assert alpha.denominator == 1 and alpha >= 1, f"pole at k = {root}"
        alpha = int(alpha)
        rest = s.den
        for _ in range(mult):
            rest = rest // Poly((alpha, 1))
        coeffs = taylor_div(rem.shift(-alpha), rest.shift(-alpha), mult)
        for j, c in enumerate(coeffs):
            if c != 0:
                terms[(alpha, mult - j)] = c
    residue = sum((c for (_, order), c in terms.items() if order == 1), Fraction(0))
    if residue != 0:
        return ZetaCombo(Fraction(0), {}, ZetaCombo.DIVERGENT, residue=residue)
    const = Fraction(0)
    zeta = {}
    for (alpha, order), c in sorted(terms.items()):
        if order > 1:
            zeta[order] = zeta.get(order, 0) + c
        const -= c * sum((Fraction(1, j**order) for j in range(1, alpha)), Fraction(0))
    return ZetaCombo(const, {k: v for k, v in zeta.items() if v != 0}, ZetaCombo.EXACT)


class RefPoly:
    """polycf's Poly as it was on Fraction coefficients, kept as the oracle
    for the integer-coefficient Poly: one Fraction per coefficient and the
    textbook double loops.  Its repr reads ``Poly(...)`` as before."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RefPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RefPoly":
        return cls((1,))

    @classmethod
    def const(cls, c) -> "RefPoly":
        return cls((rat(c),))

    @classmethod
    def x(cls) -> "RefPoly":
        return cls((0, 1))

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree as int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k; zero outside range (negative k included)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RefPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RefPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return RefPoly([self.coeff(i) + o.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return RefPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = RefPoly.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, o.degree
        if dn < dd:
            return RefPoly.zero(), self
        q = [Fraction(0)] * (dn - dd + 1)
        inv = 1 / o.lead
        for k in range(dn - dd, -1, -1):
            c = rem[k + dd] * inv
            q[k] = c
            if c:
                for j, b in enumerate(o.coeffs):
                    rem[k + j] -= c * b
        return RefPoly(q), RefPoly(rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return RefPoly([c / rat(other) for c in self.coeffs])
        return NotImplemented

    # -- evaluation and reindexing --------------------------------------

    def __call__(self, v):
        """Evaluate by Horner's rule.  Accepts Fraction/int or another RefPoly
        (composition); any value supporting * and + works."""
        if not self.coeffs:
            return Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * v + c
        return acc

    def shift(self, k) -> "RefPoly":
        """p.shift(k) is the polynomial x -> p(x + k)."""
        if len(self.coeffs) <= 1:
            return self
        return self(RefPoly((rat(k), 1)))

    def monic(self) -> "RefPoly":
        return self / self.lead

    # -- misc -----------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return self.to_text()

    def to_text(self) -> str:
        """Canonical text form, descending powers; parses back exactly."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = "n" if k == 1 else f"n^{k}"
            else:
                body = f"{mag}*n" if k == 1 else f"{mag}*n^{k}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def reference_kernel(m: list, ncols: int) -> list:
    """Kernel basis of a matrix over Q, via reduced row echelon form in
    Fractions: one vector per free column, 1 there, minus the reduced
    rows' entries at the pivots."""
    rows = [row[:] for row in m if any(c != 0 for c in row)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in sorted(free, reverse=True):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


def reference_solve_f(a: Poly, h1: Poly, h2: Poly, d_f: int):
    """identify.solve_f as a dense system over Q: column i holds the
    coefficients of x^i a - (x-1)^i h1 - (x+1)^i h2(x+1), and the answer is
    the kernel vector of the highest free column, made monic, as a RefPoly;
    None for a zero kernel."""
    ra, r1, r2 = (RefPoly(p.coeffs) for p in (a, h1, h2))
    r2s, x = r2.shift(1), RefPoly.x()
    cols = [x**i * ra - (x - 1) ** i * r1 - (x + 1) ** i * r2s for i in range(d_f + 1)]
    rows = max((len(c.coeffs) for c in cols), default=0)
    kernel = reference_kernel([[c.coeff(k) for c in cols] for k in range(rows)], d_f + 1)
    # reference_kernel lists the vectors by free column, highest first
    return RefPoly(kernel[0]).monic() if kernel else None


def reference_cf_form_states(m, n: int) -> list:
    """cf_form_states as the plain product P_k = P_{k-1} cfm(k) of Mat2s,
    with cfm evaluated at every index (a pole raises ZeroDivisionError)."""
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    cfm, u, init = to_cf_form(m)
    states = [init]
    cur = init
    for k in range(1, n + 1):
        cur = cur * cfm.eval_at(k)
        states.append(cur)
    return states


def outcome(fn, *args):
    """(type, value) of fn(*args), or (exception type, message) when it raises
    a polycf error or ValueError: what two routes must agree on."""
    try:
        v = fn(*args)
    except (PolycfError, ValueError) as exc:
        return type(exc), str(exc)
    return type(v), v


def python_calls(fn) -> int:
    """The "call" events of sys.setprofile while fn runs: one per Python
    function call and per generator resume, none for C functions.  Not an
    oracle: the measure of the guards against a Python call per term or per
    image."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls
