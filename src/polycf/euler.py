"""Euler-family continued fractions.

The sum-to-CF identity turns partial sums of products into continued
fractions:

    sum_{k=0}^{n} prod_{i=1}^{k} r(i)  =  1 / (1 + K_{i=1}^{n} (-r(i)) / (1 + r(i)))

and the polynomial version is driven by triples (h1, h2, f) with

    b(x) = -h1(x) h2(x),
    a(x) = (f(x-1) h1(x) + f(x+1) h2(x+1)) / f(x)       (exact division),

whose finite values have the closed form implemented in
:func:`euler_partial_value`.  The trivial family has f = 1 and
a = h1(x) + h2(x+1).

The closed form is computed on integers.  With h1 = H1/D1, h2 = H2/D2 and
f = F/Df (H1, H2, F integral: each Poly's stored numerators over its stored
denominator), consecutive summands of its sum S have the ratio p/q with

    p = F(k-1) H1(k) D2,   q = F(k+1) H2(k+1) D1,

so S = [A(1) ... A(n)](1; 1) for the steps A(k) = (p, q; 0, q), which
mobius._tree_product multiplies as a balanced product tree, its leaves by
mobius._triangular_leaves, with the column (1, 1) as its tail.  p and q are
the values of the integer polynomials F(x-1) H1(x) D2 and F(x+1) H2(x+1) D1
at k, read by algebra.eval_range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import INF, Poly, eval_range, first_zero, horner, rational_roots, scaled_desc
from .errors import (
    DegenerateTerm,
    InvalidInput,
    NotDivisible,
    PoleInFormula,
    ZeroScaler,
)
from .mobius import CFSpec, _fraction, _term, _tree_product, _triangular_leaves


@dataclass(frozen=True)
class EulerTriple:
    """A triple (h1, h2, f) defining an Euler-family CF.

    Construction validates that f(x) divides f(x-1)h1(x) + f(x+1)h2(x+1)
    (raising NotDivisible otherwise), so every instance carries a genuine
    polynomial a.  All three components must be nonzero.  This division is
    the only exact check of the relation on identify's path:
    polycf.identify.solve_f builds the triple and compares its a with the
    given one.
    """

    h1: Poly
    h2: Poly
    f: Poly

    def __post_init__(self):
        for name in ("h1", "h2", "f"):
            p = getattr(self, name)
            if not isinstance(p, Poly) or p.is_zero:
                raise InvalidInput(f"{name} must be a nonzero polynomial")
        num = self.f.shift(-1) * self.h1 + self.f.shift(1) * self.h2.shift(1)
        q, r = divmod(num, self.f)
        if not r.is_zero:
            raise NotDivisible(
                f"f does not divide f(x-1)h1(x) + f(x+1)h2(x+1) for f = {self.f}"
            )
        object.__setattr__(self, "_a", q)

    @property
    def a(self) -> Poly:
        return self._a

    @property
    def b(self) -> Poly:
        return -(self.h1 * self.h2)


def trivial_triple(h1: Poly, h2: Poly) -> EulerTriple:
    """The f = 1 member: a = h1(x) + h2(x+1)."""
    return EulerTriple(h1, h2, Poly.one())


def build_euler_cf(t: EulerTriple) -> tuple[Poly, Poly]:
    """The CF coefficient pair (a, b) of a triple."""
    return t.a, t.b


def euler_sum(r, n: int) -> Fraction:
    """Partial sum sum_{k=0}^{n} prod_{i=1}^{k} r(i), evaluated directly;
    r is a Poly or a finite list or tuple."""
    _check_length(r, n, "r")
    total = Fraction(1)
    prod = Fraction(1)
    for k in range(1, n + 1):
        prod *= _term(r, k - 1, k)
        total += prod
    return total


def euler_sum_to_cf(r) -> CFSpec:
    """CFSpec with terms b(i) = -r(i), a(i) = 1 + r(i), for r a Poly or a
    finite list or tuple.

    The value identity is euler_sum(r, n) == 1/(1 + cf_value(cf, n)).
    A term r(i) = -1 zeroes the partial denominator: DegenerateTerm(i) is
    raised here for the least such i >= 1, whatever terms come before it.
    A list or tuple is read in order, a Poly by the rational roots of r + 1.

    >>> from polycf import cf_value
    >>> cf = euler_sum_to_cf(Poly([1, 1]))    # r(i) = i + 1: 1 + 2 + 2*3 + 2*3*4 = 33
    >>> print(cf.b, "|", cf.a, "|", 1 / (1 + cf_value(cf, 3)))
    -n - 1 | n + 2 | 33
    """
    if isinstance(r, Poly):
        a = r + 1
        bad = [1] if a.is_zero else [x for x in rational_roots(a) if x.denominator == 1 and x >= 1]
        if bad:
            raise DegenerateTerm(int(bad[0]))
        return CFSpec(b=-r, a=a)
    rs = []
    for i in range(1, len(r) + 1):
        rs.append(_term(r, i - 1, i))
        if rs[-1] == -1:
            raise DegenerateTerm(i)
    return CFSpec(b=[-ri for ri in rs], a=[1 + ri for ri in rs])


def _check_length(seq, count: int, name: str) -> None:
    """Raise InvalidInput when an explicit sequence holds fewer than count terms."""
    if isinstance(seq, (list, tuple)) and len(seq) < count:
        raise InvalidInput(f"{name} has {len(seq)} terms, needed {count}")


def equivalence_transform(b, a, c, n: int | None = None):
    """Rescale a CF without changing its value.

    With scalers c(0), c(1), ... (all nonzero) the CF K b(i)/a(i) equals
    (1/c(0)) * K b'(i)/a'(i) where b'(i) = c(i-1) c(i) b(i) and
    a'(i) = c(i) a(i).

    b, a and c are each a Poly or a finite list or tuple.  To transform the
    tail from index k+1 on (say, when c(0) would be zero: peel the head
    terms off by hand), pass b and a shifted: b.shift(k), or the list from
    position k on.

    Polynomial mode (b, a, c Polys and n None) returns Polys; otherwise n is
    required and explicit lists for indices 1..n are returned.  The third
    element of the result is the front scale 1/c(0).

    Raises ZeroScaler when some needed c(i) is zero, and InvalidInput when
    an explicit sequence holds fewer terms than n asks for.
    """
    if n is None:
        if not (isinstance(b, Poly) and isinstance(a, Poly) and isinstance(c, Poly)):
            raise TypeError("polynomial mode needs b, a, c as Polys (or pass n)")
        c0 = c(Fraction(0))
        if c0 == 0:
            raise ZeroScaler("c(0) = 0")
        for root in rational_roots(c):
            if root.denominator == 1 and root > 0:
                raise ZeroScaler(f"c({root}) = 0")
        b2 = c.shift(-1) * c * b
        a2 = c * a
        return b2, a2, 1 / c0
    _check_length(c, n + 1, "c")
    _check_length(b, n, "b")
    _check_length(a, n, "a")
    c_vals = []
    for j in range(0, n + 1):
        cj = _term(c, j, j)
        if cj == 0:
            raise ZeroScaler(f"c({j}) = 0")
        c_vals.append(cj)
    bs = [c_vals[j - 1] * c_vals[j] * _term(b, j - 1, j) for j in range(1, n + 1)]
    as_ = [c_vals[j] * _term(a, j - 1, j) for j in range(1, n + 1)]
    return bs, as_, 1 / c_vals[0]


def euler_partial_value(t: EulerTriple, n: int):
    """Closed form for the depth-n value of the CF of a triple.

    Equals cf_value(CFSpec(b=t.b, a=t.a), n) exactly:

        (f(1) h2(1) / f(0)) * (1 / S - 1),
        S = sum_{k=0}^{n} (f(0) f(1) / (f(k) f(k+1))) prod_{i=1}^{k} h1(i)/h2(i+1).

    Computed on integers: the product tree of the summand ratios (see the
    module docstring) gives S as one integer pair, its tail keeping only
    that column and its content stripped as it goes (S is read as a ratio),
    and the value is reduced once by mobius._fraction.

    Raises InvalidInput when n < 0, and PoleInFormula(k) when a needed f(k)
    (0 <= k <= n+1) or h2(k) (1 <= k <= n+1) vanishes.  Returns INF when
    S = 0.

    >>> x = Poly.x()
    >>> euler_partial_value(trivial_triple(x, x + Fraction(1, 2)), 3)
    Fraction(-123, 187)
    >>> euler_partial_value(EulerTriple(x**3, x**3, x * x + x + Fraction(1, 2)), 3)
    Fraction(-727, 14315)
    """
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    f, h2 = t.f.numerators[::-1], t.h2.numerators[::-1]  # F and H2
    for name, desc, start in (("f", f, 0), ("h2", h2, 1)):
        k = first_zero(desc, start, n + 2)
        if k is not None:
            raise PoleInFormula(k, name)
    D2 = t.h2.denominator
    # P(x) = F(x-1) H1(x) D2 and Q(x) = F(x) H2(x) D1, as c f(x-1) h1(x)
    # and c f(x) h2(x) for c = Df D1 D2; step k is (p, q; 0, q) with
    # p = P(k) and q = Q(k + 1), k = 1..n
    c = t.f.denominator * t.h1.denominator * D2
    P, Q = scaled_desc(t.f.shift(-1) * t.h1, c), scaled_desc(t.f * t.h2, c)
    batches = ((ps, qs, qs) for ps, qs in zip(eval_range(P, 1, n + 1), eval_range(Q, 2, n + 2)))
    # [A(1) ... A(n)] = (a, b; 0, d), so S = (a + b)/d; the tail (0, 1; 0, 1)
    # gives the column (a + b, d) alone
    _, s, _, d = _tree_product(_triangular_leaves(batches), (0, 1, 0, 1), strip=True)
    if s == 0:
        return INF
    return _fraction(horner(f, 1) * horner(h2, 1) * (d - s), horner(f, 0) * D2 * s)
