"""Matrix normal forms for polynomial CF step products.

A 2x2 matrix family M(n) with polynomial entries drives the recurrence
(p_n; q_n) = M(1) ... M(n) (1; 0).  Two normal forms are computed here:

* CF form: a coboundary U(n) = (1, a(n); 0, c(n)) conjugating M into a
  companion shape (0, b; 1, a), so the same p_n, q_n arise from an honest
  continued fraction (possibly with rational-function coefficients; an
  integral variant clears the denominators);
* triangular form: a polynomial family of left eigenvectors (G, F) with
  eigenvalue lambda turns M into an upper triangular T whose products
  collapse to a single telescoping pass.

The Euler-family step matrix (0, -h1 h2; 1, h1 + h2(x+1)) has both
structures explicitly, and the triangular route re-derives its partial
values without touching convergent recurrences.  Its steps
T(i) = (h1(i), -h1(i)/h2(i+1); 0, h2(i)) are multiplied on integers: with
h1 = H1/D1 and h2 = H2/D2 (each Poly's stored int numerators over its stored
denominator), the scaled step

    D1 D2 H2(i+1) T(i) = (H1(i) H2(i+1) D2, -H1(i) D2^2; 0, H2(i) H2(i+1) D1)

is integral, and the scalar factors cancel in corner/prod_g.

``rederive_euler_sum`` multiplies these scaled steps by
``mobius._tree_product``, its leaves by ``mobius._triangular_leaves``, the
entries read by ``algebra.eval_range`` as the values of three integer
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import INF, Poly, RatFunc, eval_range, first_zero, horner, is_inf, scaled_desc
from .errors import InvalidInput, PoleInFormula, ZeroCEntry, ZeroF
from .mobius import _LAST_COLUMN, Mat2, _Matrix2, _fraction, _mat_mul, _tree_product
from .mobius import _triangular_leaves


def _sym(x):
    """Coerce an entry to Poly (preferred) or RatFunc."""
    if isinstance(x, RatFunc):
        return x.as_poly() if x.is_poly else x
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


def _rf(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(x)


class PolyMat2(_Matrix2):
    """2x2 matrix over polynomials / rational functions in the index."""

    __slots__ = ()
    _entry = staticmethod(_sym)

    @property
    def is_poly(self) -> bool:
        return all(isinstance(e, Poly) for e in self.entries)

    def det(self):
        return _sym(self.a * self.d - self.b * self.c)

    def shift(self, k) -> "PolyMat2":
        return PolyMat2(*(e.shift(k) for e in self.entries))

    def eval_at(self, i) -> Mat2:
        """Evaluate every entry at index i; entries must be finite there."""
        vals = []
        for e in self.entries:
            v = e(Fraction(i))
            if is_inf(v):
                raise ZeroDivisionError(f"matrix entry has a pole at index {i}")
            vals.append(v)
        return Mat2(*vals)

    def __repr__(self):
        return f"PolyMat2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        return f"[{self.a}, {self.b}; {self.c}, {self.d}]"


def coboundary_check(m1: PolyMat2, m2: PolyMat2, u: PolyMat2) -> bool:
    """Does u conjugate the family m2 into m1, i.e. m1(i) u(i+1) == u(i) m2(i)?"""
    return m1 * u.shift(1) == u * m2


# ---------------------------------------------------------------------------
# CF form
# ---------------------------------------------------------------------------


def to_cf_form(m: PolyMat2) -> tuple[PolyMat2, PolyMat2, Mat2]:
    """Conjugate a polynomial family M(n) into companion (CF) shape.

    Returns (cfm, u, init) with cfm(n) = (0, -(c(n+1)/c(n)) det M(n);
    1, a(n+1) + d(n) c(n+1)/c(n)), the coboundary u(n) = (1, a(n); 0, c(n)),
    and init = u(1) evaluated.  States P_k = init * cfm(1) * ... * cfm(k)
    stack consecutive columns (p_k, p_{k+1}; q_k, q_{k+1}) of the original
    product applied to (1; 0).  Raises ZeroCEntry when the lower-left entry
    is identically zero (no companion shape exists then).
    """
    if not m.is_poly:
        raise TypeError("matrix entries must be polynomials")
    a, b, c, d = m.entries
    if c.is_zero:
        raise ZeroCEntry("lower-left entry is identically zero")
    cratio = RatFunc(c.shift(1), c)
    top = _sym(-(cratio * m.det()))
    bottom = _sym(RatFunc(a.shift(1)) + cratio * d)
    cfm = PolyMat2(0, top, 1, bottom)
    u = PolyMat2(1, a, 0, c)
    init = Mat2(1, a(Fraction(1)), 0, c(Fraction(1)))
    return cfm, u, init


def to_integral_cf_form(m: PolyMat2) -> PolyMat2:
    """Companion shape with polynomial entries: scale step n by c(n-1)c(n).

    cfm(n) = (0, -c(n-1) c(n+1) det M(n); 1, c(n) a(n+1) + d(n) c(n+1)).
    Seeded with (1, c(0)a(1); 0, c(0)c(1)), its state k equals the CF-form
    state with columns scaled by prod_{j=0}^{k-1} c(j) and
    prod_{j=0}^{k} c(j), so convergent ratios and rationality questions
    survive while all arithmetic stays in polynomials.
    """
    if not m.is_poly:
        raise TypeError("matrix entries must be polynomials")
    a, b, c, d = m.entries
    if c.is_zero:
        raise ZeroCEntry("lower-left entry is identically zero")
    top = -(c.shift(-1) * c.shift(1) * m.det())
    bottom = c * a.shift(1) + d * c.shift(1)
    return PolyMat2(0, top, 1, bottom)


def cf_form_states(m: PolyMat2, n: int) -> list[Mat2]:
    """[P_0, ..., P_n] with P_0 = u(1) and P_k = P_{k-1} cfm(k).

    Column k of the original product: P_k = (p_k, p_{k+1}; q_k, q_{k+1})
    where (p_j; q_j) = M(1) ... M(j) (1; 0).  The states are read that way,
    from one running product of L M(j) on ints (L the lcm of the entries'
    denominators) and scaled back by L^j.  Raises ZeroDivisionError at the
    first k <= n where an entry of cfm has a pole.
    """
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    cfm, _, _ = to_cf_form(m)
    dens = [e.den.numerators[::-1] for e in (cfm.b, cfm.d) if isinstance(e, RatFunc)]
    pole = min(filter(None, (first_zero(den, 1, n + 1) for den in dens)), default=None)
    if pole:
        raise ZeroDivisionError(f"matrix entry has a pole at index {pole}")
    L = math.lcm(*(e.denominator for e in m.entries))
    # columns (p_j, q_j) of L^j M(1) ... M(j), j = 0 .. n + 1
    r = (1, 0, 0, 1)
    cols = [(Fraction(1), Fraction(0))]
    Lj = 1
    for batch in zip(*(eval_range(scaled_desc(e, L), 1, n + 2) for e in m.entries)):
        for step in zip(*batch):
            r = _mat_mul(r, step)
            if L == 1:
                cols.append((Fraction(r[0]), Fraction(r[2])))
            else:
                Lj *= L
                cols.append((Fraction(r[0], Lj), Fraction(r[2], Lj)))
    return [Mat2(p, p1, q, q1) for (p, q), (p1, q1) in zip(cols, cols[1:])]


# ---------------------------------------------------------------------------
# eigen structure and triangular form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenSeq:
    """A polynomial left eigenvector family for a matrix family M(i):

    (g(i), f(i)) M(i) = eigenvalue(i) (g(i+1), f(i+1)).
    """

    g: Poly
    f: Poly
    eigenvalue: object


def eigen_check(m: PolyMat2, e: EigenSeq) -> bool:
    """Verify the left eigenvector identity of e against m, exactly."""
    a, b, c, d = m.entries
    g, f, lam = e.g, e.f, e.eigenvalue
    return g * a + f * c == lam * g.shift(1) and g * b + f * d == lam * f.shift(1)


def euler_cf_matrix(h1: Poly, h2: Poly) -> PolyMat2:
    """Step matrix (0, -h1 h2; 1, h1 + h2(x+1)) of the trivial family."""
    return PolyMat2(0, -(h1 * h2), 1, h1 + h2.shift(1))


def euler_left_eigen(h1: Poly, h2: Poly) -> EigenSeq:
    """(1, h2(i)) is a left eigenvector of the Euler step matrix, eigenvalue h2."""
    return EigenSeq(Poly.one(), h2, h2)


def triangularize(m: PolyMat2, left: EigenSeq) -> tuple[PolyMat2, object]:
    """Conjugate m into upper triangular T with diagonal (det/lambda, lambda).

    Uses the unimodular U(i) = (1/f, 0; g, f) built from a verified left
    eigenvector family: T(i) = U(i) M(i) U(i+1)^{-1} = (alpha, b/(f f+);
    0, lambda) with alpha = det M / lambda.  Returns (T, alpha).
    """
    if left.f.is_zero:
        raise ZeroF("eigenvector second component is identically zero")
    if not eigen_check(m, left):
        raise InvalidInput("eigenvector identity fails for this matrix family")
    f, g = left.f, left.g
    fp, gp = f.shift(1), g.shift(1)
    u = PolyMat2(RatFunc(Poly.one(), f), 0, g, f)
    uinv_next = PolyMat2(fp, 0, -gp, RatFunc(Poly.one(), fp))
    t = u * m * uinv_next
    alpha = _sym(_rf(m.det()) / left.eigenvalue)
    assert t.c == 0 and t.a == alpha and t.d == left.eigenvalue
    return t, alpha


def rederive_euler_sum(h1: Poly, h2: Poly, n: int):
    """Partial CF value K_{i=1}^{n-1} b(i)/a(i) of the trivial family, via
    the triangular route only.

    The product of T(i) = (h1(i), -h1(i)/h2(i+1); 0, h2(i)) applied to 0 is
    z = corner/prod_g, which U(1)^{-1} maps to the value.  The steps are
    multiplied on integers, scaled as in the module docstring, with the tail
    (0, 0; 0, 1), so the tree computes only the column (corner, prod_g),
    stripped of its content as it goes (the value is homogeneous in the
    column); the value is reduced once by mobius._fraction.  Must agree
    with the summation formula for the same triple; n = 1 gives 0.  Raises
    PoleInFormula when h2 vanishes on 1..n.

    >>> rederive_euler_sum(Poly.x(), Poly.x() + Fraction(1, 2), 4)
    Fraction(-123, 187)
    """
    if n < 1:
        raise InvalidInput("n must be at least 1")
    h2_desc = h2.numerators[::-1]  # H2
    k = first_zero(h2_desc, 1, n + 1)
    if k is not None:
        raise PoleInFormula(k, "h2")
    # the entries of the scaled step D1 D2 H2(x+1) T(x) (see the module
    # docstring), as c h1(x) h2(x+1), -c h1(x) and c h2(x) h2(x+1) for
    # c = D1 D2^2, each read at i = 1..n-1
    D2 = h2.denominator
    c = h1.denominator * D2 * D2
    h2_next = h2.shift(1)
    descs = [scaled_desc(e, s) for e, s in ((h1 * h2_next, c), (h1, -c), (h2 * h2_next, c))]
    leaves = _triangular_leaves(zip(*(eval_range(desc, 1, n) for desc in descs)))
    _, corner, _, prod_g = _tree_product(leaves, _LAST_COLUMN, strip=True)
    # U(1)^{-1} = (h, 0; -1, 1/h), h = H/D2 = h2(1), maps z = corner/prod_g
    # to h z/(1/h - z) = H^2 corner/(D2 (D2 prod_g - H corner))
    H = horner(h2_desc, 1)
    den = D2 * (D2 * prod_g - H * corner)
    if den == 0:
        return INF
    return _fraction(H * H * corner, den)
