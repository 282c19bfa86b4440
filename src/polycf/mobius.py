"""Mobius transformations, convergent streams, and constant-CF limits.

A continued fraction K b(i)/a(i) is driven by the matrix product of steps
M(i) = (0, b(i); 1, a(i)).  The running product

    prod_{i=1}^{n-1} M(i)  =  (p_{n-1}, p_n; q_{n-1}, q_n)

carries both the previous and the current convergent; the stream below yields
exactly these states, starting from the identity (state 1).  The pairs are
kept unreduced so that the determinant identity

    p_{n-1} q_n - p_n q_{n-1} = prod_{i=1}^{n-1} (-b(i))

holds on the raw integers; ``ConvergentState.reduced()`` gives lowest terms
on demand.

Deep states are computed on integers.  A Poly stores int numerators over
one denominator (see polycf.algebra), and that form is the only coefficient
reader here: ``CFSpec.terms`` evaluates a Poly with denominator 1 by
``algebra.horner`` on its numerators, and ``_cleared`` takes a CF with Poly
coefficients to b -> L^2 b, a -> L a, where L is the lcm of the two stored
denominators (the constant-c equivalence transform), so its terms are
integers and the value of the original K part is the cleared value over L.
``_tree_product(steps, leaf_step)`` is the one product kernel for step
products (binary splitting).  It multiplies leaves of a few steps by the
caller's plain recurrence leaf_step, then merges equal-sized neighbouring
blocks, so that the large multiplications are between operands of equal
size and only O(log depth) blocks are held.  ``_mat_mul`` is the one 2x2
product, used by the tree's merges, ``Mat2``, ``matforms.PolyMat2`` and
``matforms.cf_form_states``.  The callers of the tree and their leaf steps:

* ``_tree_state``, behind ``cf_value``, ``product_apply`` and the CLI's
  ``eval``, from the cleared companion steps (0, b; 1, a);
* ``euler.euler_partial_value`` from the summand ratios of its closed form;
* ``matforms.rederive_euler_sum`` from scaled integer triangular steps, and
  ``matforms.triangular_product`` from the (alpha, beta, gamma) of its Mat2
  terms, both by ``matforms._triangular_step``.

After k steps the cleared product (P'', P'; Q'', Q') of ``_tree_state`` is
the stream's state k + 1 up to powers of L:

    p_prev = P''/L^k,  p = P'/L^(k+1),  q_prev = Q''/L^(k-1),  q = Q'/L^k.

Every deep result is read straight off these integers, and only this module
knows their powers of L: ``cf_value`` takes p/q = P'/(L Q'),
``product_apply`` acts by (L P'', P'; L^2 Q'', L Q'), the state times
L^(k+1), and ``_eval_pair`` gives the CLI's integer pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .algebra import INF, Poly, QuadSurd, horner, is_inf, rat, sqrt_fraction
from .errors import InvalidInput, SingularMatrix


class Mat2:
    """2x2 matrix with exact rational entries, row major (a, b; c, d).

    >>> m = Mat2(1, 2, 3, 4)
    >>> m.det
    Fraction(-2, 1)
    >>> m.apply(Fraction(1))      # (1+2)/(3+4)
    Fraction(3, 7)
    >>> m.apply(INF)
    Fraction(1, 3)
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = rat(a)
        self.b = rat(b)
        self.c = rat(c)
        self.d = rat(d)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        m, n = (self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)
        return Mat2(*_mat_mul(m, n))

    def inverse(self) -> "Mat2":
        det = self.det
        if det == 0:
            raise SingularMatrix("matrix is singular")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def apply(self, z):
        """Mobius action z -> (a z + b) / (c z + d) on the projective line.

        Scalar matrices act as the identity.  The full case table:
        finite z with c z + d = 0 maps to INF; INF maps to a/c, or to INF
        when c = 0 (then a != 0 because the matrix is nonsingular).
        """
        if self.det == 0:
            raise SingularMatrix("Mobius action of a singular matrix")
        if is_inf(z):
            if self.c == 0:
                return INF
            return self.a / self.c
        z = rat(z)
        den = self.c * z + self.d
        if den == 0:
            return INF
        return (self.a * z + self.b) / den

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


def cf_step_matrix(b, a) -> Mat2:
    """The step matrix (0, b; 1, a) of one CF term."""
    return Mat2(0, b, 1, a)


# ---------------------------------------------------------------------------
# term sources and the convergent stream
# ---------------------------------------------------------------------------

# A coefficient sequence is a Poly (evaluated at the index), an explicit
# sequence (index 1 maps to position 0 after the start offset), or a callable.
# _term is the one reader of such sequences, here and in polycf.euler.


def _term(seq, pos: int, i: int):
    """Read one coefficient: Polys and callables see the index i, explicit
    sequences are consumed positionally; None signals exhaustion."""
    if isinstance(seq, Poly):
        return seq(i)
    if isinstance(seq, (list, tuple)):
        if pos >= len(seq):
            return None
        return rat(seq[pos])
    if callable(seq):
        return rat(seq(i))
    raise TypeError(f"cannot read a coefficient sequence from {type(seq).__name__}")


@dataclass(frozen=True)
class CFSpec:
    """A continued fraction head + K_{i>=start} b(i)/a(i).

    ``a`` and ``b`` are Polys, explicit (finite) sequences, or callables in
    the index.  ``head`` is added in front of the K part when evaluating.
    """

    b: object
    a: object
    start: int = 1
    head: Fraction = Fraction(0)

    def terms(self) -> Iterator[tuple]:
        """(b(i), a(i)) for i = start, start + 1, ...; ints for an integral
        Poly, Fractions otherwise."""
        b_int, a_int = (
            s.numerators[::-1] if isinstance(s, Poly) and s.denominator == 1 else None
            for s in (self.b, self.a)
        )
        pos = 0
        while True:
            i = self.start + pos
            bi = _term(self.b, pos, i) if b_int is None else horner(b_int, i)
            ai = _term(self.a, pos, i) if a_int is None else horner(a_int, i)
            if bi is None or ai is None:
                return
            yield bi, ai
            pos += 1


@dataclass(frozen=True)
class ConvergentState:
    """State n of the stream: the product of the first n-1 step matrices.

    Fields are the unreduced matrix entries (p_prev, p; q_prev, q) plus the
    index and a truncation flag (set when a zero b(i) ended the stream; the
    CF value is frozen from that point on).
    """

    n: int
    p_prev: object
    p: object
    q_prev: object
    q: object
    truncated: bool = False

    @property
    def value(self):
        """p/q as an exact Fraction, or INF when q = 0."""
        if self.q == 0:
            return INF
        return Fraction(self.p, self.q) if isinstance(self.p, int) and isinstance(self.q, int) else rat(self.p) / rat(self.q)

    def reduced(self) -> tuple:
        """(p, q) in lowest terms with positive q; (1, 0) for INF."""
        if self.q == 0:
            return (1, 0)
        v = self.value
        return (v.numerator, v.denominator)

    def as_matrix(self) -> Mat2:
        return Mat2(self.p_prev, self.p, self.q_prev, self.q)


def convergents_from_terms(pairs: Iterable[tuple]) -> Iterator[ConvergentState]:
    """Stream convergent states from (b_i, a_i) pairs.

    State 1 is the identity; consuming term i moves state i to state i+1 via
    p_next = a_i p + b_i p_prev (same for q).  A zero b_i yields one final
    state flagged truncated, then the stream ends: the CF value cannot change
    past that point.

    Arithmetic stays in plain ints while every term is integral (the common
    case for polynomial CFs) and switches to Fraction otherwise.
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    n = 1
    yield ConvergentState(n, p_prev, p, q_prev, q)
    for bi, ai in pairs:
        if bi == 0:
            yield ConvergentState(n + 1, p_prev, p, q_prev, q, truncated=True)
            return
        if isinstance(bi, Fraction) and bi.denominator == 1:
            bi = bi.numerator
        if isinstance(ai, Fraction) and ai.denominator == 1:
            ai = ai.numerator
        p_prev, p = p, ai * p + bi * p_prev
        q_prev, q = q, ai * q + bi * q_prev
        n += 1
        yield ConvergentState(n, p_prev, p, q_prev, q)


def convergents(cf: CFSpec) -> Iterator[ConvergentState]:
    """Convergent stream of a CFSpec (head is ignored here; see cf_value)."""
    return convergents_from_terms(cf.terms())


def _cleared(cf: CFSpec) -> tuple[int, CFSpec]:
    """(L, CFSpec(b=L^2 b, a=L a)) for Poly a and b, L the lcm of their
    denominators; the value of cf is head + (cleared value)/L.  Any other CF
    comes back unchanged with L = 1."""
    if not (isinstance(cf.a, Poly) and isinstance(cf.b, Poly)):
        return 1, cf
    L = math.lcm(cf.a.denominator, cf.b.denominator)
    return L, CFSpec(b=cf.b * (L * L), a=cf.a * L, start=cf.start)


# Steps per leaf of a product tree; a leaf is multiplied by its caller's
# plain recurrence, which costs fewer products than a 2x2 product.
_LEAF = 16


def _mat_mul(m: tuple, n: tuple) -> tuple:
    """The 2x2 product m n of row-major entries (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _tree_product(steps: Iterable, step) -> tuple:
    """The product, left to right, of the step matrices of `steps`, as a
    balanced tree of 2x2 blocks (a, b, c, d).

    Each leaf is _LEAF consecutive steps multiplied out from the identity by
    leaf = step(leaf, s).  Full leaves are pushed on a stack in order and
    merged while the two top entries are products of equally many leaves (a
    binary counter); the remaining entries are folded from the right into
    the last, partial leaf at the end.  The empty product is the identity.
    """
    stack = []  # (leaves, product), counts strictly decreasing up the stack
    leaf, count = (1, 0, 0, 1), 0
    for s in steps:
        leaf, count = step(leaf, s), count + 1
        if count == _LEAF:
            size, m = 1, leaf
            while stack and stack[-1][0] == size:
                below, left = stack.pop()
                size, m = size + below, _mat_mul(left, m)
            stack.append((size, m))
            leaf, count = (1, 0, 0, 1), 0
    m = leaf
    while stack:
        m = _mat_mul(stack.pop()[1], m)
    return m


def _companion_step(leaf: tuple, term: tuple) -> tuple:
    """leaf * (0, b; 1, a) by the convergent recurrence."""
    p_prev, p, q_prev, q = leaf
    b, a = term
    return (p, a * p + b * p_prev, q, a * q + b * q_prev)


def _tree_state(cf: CFSpec, depth: int) -> ConvergentState:
    """State `depth` + 1 of the stream of cf, as a balanced product tree.

    Exactly `depth` terms are read, fewer when a zero b truncates the CF.
    """
    if depth < 0:
        raise InvalidInput("depth must be nonnegative")
    steps = 0
    truncated = False

    def terms():
        nonlocal steps, truncated
        for bi, ai in itertools.islice(cf.terms(), depth):
            if bi == 0:
                truncated = True
                return
            if isinstance(bi, Fraction) and bi.denominator == 1:
                bi = bi.numerator
            if isinstance(ai, Fraction) and ai.denominator == 1:
                ai = ai.numerator
            steps += 1
            yield bi, ai

    m = _tree_product(terms(), _companion_step)
    if steps < depth and not truncated:
        raise InvalidInput(
            f"coefficient sequence exhausted after {steps} terms, needed {depth}"
        )
    return ConvergentState(steps + 1 + truncated, *m, truncated=truncated)


def _scaled_value(state: ConvergentState, L: int):
    """p/(L q) for a state of a CF cleared with L, or INF when q = 0."""
    if state.q == 0:
        return INF
    return Fraction(state.p, L * state.q)


def cf_value(cf: CFSpec, depth: int):
    """Exact value head + K_{i=start}^{start+depth-1} b(i)/a(i).

    Consumes exactly `depth` terms (fewer if a zero b truncates the CF).
    Returns a Fraction, or INF when the finite CF is a pole.

    >>> cf_value(CFSpec(b=Poly([0, -1]), a=Poly([2, 1])), 2)   # -1/(3 + (-2)/4)
    Fraction(-2, 5)

    Rational coefficients are cleared to integers first (see _cleared):

    >>> cf_value(CFSpec(b=Poly([0, Fraction(-1, 2), -1]), a=Poly([Fraction(3, 2), 2])), 3)
    Fraction(-123, 187)
    """
    L, cleared = _cleared(cf)
    v = _scaled_value(_tree_state(cleared, depth), L)
    if is_inf(v):
        return INF
    return cf.head + v


def product_apply(cf: CFSpec, depth: int, z):
    """Apply the product of the first `depth` step matrices to z.

    product_apply(cf, n, 0) equals the plain convergent at depth n, and a
    better tail seed z sharpens the estimate without changing exactness.
    """
    L, cleared = _cleared(cf)
    s = _tree_state(cleared, depth)
    return Mat2(L * s.p_prev, s.p, L * L * s.q_prev, L * s.q).apply(z)


def _eval_pair(cf: CFSpec, depth: int) -> tuple:
    """head + the depth-term convergent of cf (Poly a and b) as the integer
    pair (num, den) that the CLI prints; den = 0 for a pole.

    With the stream's p and q and the head h = u/v, the pair is u q + v p
    over v q, scaled by the least factor that makes both integers.  On the
    cleared state that is X = u L Q' + v P' over Y = v L Q', divided by
    gcd(L^(k+1), X, Y); for integral a and b (L = 1) nothing is divided out.
    """
    L, cleared = _cleared(cf)
    s = _tree_state(cleared, depth)
    k = s.n - 1 - s.truncated
    u, v = cf.head.numerator, cf.head.denominator
    x, y = u * L * s.q + v * s.p, v * L * s.q
    g = math.gcd(L ** (k + 1), x, y)
    return x // g, y // g


# ---------------------------------------------------------------------------
# constant-coefficient classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFLimit:
    """Outcome of the constant-CF classifier.

    kind is one of "converges", "diverges_oscillates", "diverges_infinite";
    root is the exact limit (a QuadSurd) when kind == "converges".
    """

    kind: str
    root: QuadSurd | None = None

    CONVERGES = "converges"
    OSCILLATES = "diverges_oscillates"
    INFINITE = "diverges_infinite"


def constant_cf_limit(A, B) -> CFLimit:
    """Classify K B/A with constant rational terms.

    Converges exactly when A != 0 and A^2 + 4B >= 0; the limit is the
    attracting fixed point of z -> B/(A+z), i.e. the root of x^2 + Ax - B
    on sign(A)'s side: x = (-A + sign(A) sqrt(A^2+4B))/2.  A = 0 or a
    negative discriminant oscillates.  B = 0 is outside the domain.

    >>> constant_cf_limit(1, 1).root == QuadSurd(Fraction(-1, 2), Fraction(1, 2), 5)
    True
    >>> constant_cf_limit(-1, 1).root == QuadSurd(Fraction(1, 2), Fraction(-1, 2), 5)
    True
    """
    A, B = rat(A), rat(B)
    if B == 0:
        raise InvalidInput("B = 0 gives an empty continued fraction")
    if A == 0:
        return CFLimit(CFLimit.OSCILLATES)
    disc = A * A + 4 * B
    if disc < 0:
        return CFLimit(CFLimit.OSCILLATES)
    s = 1 if A > 0 else -1
    root = (sqrt_fraction(disc) * s + (-A)) * Fraction(1, 2)
    return CFLimit(CFLimit.CONVERGES, root)
