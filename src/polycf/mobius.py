"""Mobius transformations, convergent streams, and constant-CF limits.

A continued fraction K b(i)/a(i) is driven by the matrix product of steps
M(i) = (0, b(i); 1, a(i)).  The running product

    prod_{i=1}^{n-1} M(i)  =  (p_{n-1}, p_n; q_{n-1}, q_n)

carries both the previous and the current convergent; the stream below yields
exactly these states, starting from the identity (state 1).  The pairs are
kept unreduced so that the determinant identity

    p_{n-1} q_n - p_n q_{n-1} = prod_{i=1}^{n-1} (-b(i))

holds on the raw integers.

Deep states are computed on integers.  A Poly stores int numerators over
one denominator (see polycf.algebra), and that form is the only coefficient
reader here: ``_cleared`` takes a CF with Poly coefficients to
b -> L^2 b, a -> L a, where L is the lcm of the two stored denominators
(the constant-c equivalence transform), so its terms are integers and the
value of the original K part is the cleared value over L, and a Poly with
denominator 1 is read by ``algebra.eval_range`` on its numerators, in
batches of consecutive indices with no Python call per term.
``CFSpec.terms``, the one place where a single term becomes an int, reads
those batches one term at a time; ``_companion_product`` hands them to the
tree whole (an explicit CF in one batch).
``_tree_product(leaves, tail, strip)`` is the one product kernel for step
products (binary splitting).  Its leaves are the products of _LEAF
consecutive steps, each multiplied out by one local loop over a batch in
one of two shapes: ``_companion_leaves`` for (0, b; 1, a) by the
convergent recurrence, ``_triangular_leaves`` for (alpha, beta; 0, gamma).
The tree merges equal-sized neighbouring blocks, so that the large
multiplications are between operands of equal size and only O(log depth)
blocks are held.  It returns the product times a fixed ``tail``.  A
reader that needs one column of the product passes a tail whose first
column is zero; the tail goes into the last leaf, and every merge with
that leaf, the top merge among them, then costs 4 big products in place
of 8.  ``_mat_mul`` is the one 2x2 product, used by the
tree's merges, ``_Matrix2`` (the shell of ``Mat2`` and
``matforms.PolyMat2``) and ``matforms.cf_form_states``.  The callers of
the tree, their leaves and their tails:

* ``_companion_product``, companion leaves of the cleared terms: behind
  the CLI's plain ``eval``, with the tail (0, 0; 0, 1), which keeps the
  column (P', Q'), and behind ``product_apply`` (so ``cf_value`` and
  ``eval --reduced``) with the column (L u, v) of its argument z = u/v
  ((L, 0) for INF, (0, 1) for 0);
* ``euler.euler_partial_value``, triangular leaves (p, q; 0, q) of the
  summand ratios p/q of its closed form, with the tail (0, 1; 0, 1), which
  gives a + b and d of (a, b; 0, d);
* ``matforms.rederive_euler_sum``, triangular leaves of its scaled integer
  steps, with the tail (0, 0; 0, 1), which keeps its corner and prod_g.

Of these, the value readers ``product_apply``, ``euler_partial_value``
(which reads (d - s)/s) and ``rederive_euler_sum`` (homogeneous in corner
and prod_g) read only a ratio of the column, which a positive scalar leaves
unchanged, so they ask the tree to strip: to divide its blocks by the
common content of their entries as it goes (see _tree_product).  The raw
readers never see a stripped product: ``_eval_pair`` prints the unreduced
pair of plain ``eval`` byte for byte, and the stream and
``matforms.cf_form_states`` multiply without the tree.

``_fraction(p, q)`` is the one reducer of deep integer pairs, behind
``ConvergentState.value``, ``cf_value``, ``product_apply``, the
``numeric_limit`` checkpoints, ``euler_partial_value``,
``rederive_euler_sum`` and ``eval --reduced``.  An int pair gets one gcd
and two exact divisions by it (``_exact_div``, a 2-adic Newton inverse
above a crossover in the operand sizes), and no second gcd in ``Fraction``.

After k steps the raw cleared product (P'', P'; Q'', Q') of
``_companion_product`` is the stream's state k + 1 up to powers of L:

    p_prev = P''/L^k,  p = P'/L^(k+1),  q_prev = Q''/L^(k-1),  q = Q'/L^k.

Every deep result is read straight off these integers, and only this module
knows their powers of L: ``product_apply`` acts by (L P'', P'; L^2 Q'', L Q'),
the state times L^(k+1), so z = u/v goes to x/(L y) for the column (x, y)
of the cleared product times (L u, v), which at z = 0 is the convergent
P'/(L Q') that ``cf_value`` reads (on the stripped product: the ratio
x/(L y) is the same), and ``_eval_pair`` gives the CLI's integer pair.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .algebra import INF, Poly, QuadSurd, eval_range, is_inf, rat
from .errors import InvalidInput


class _Matrix2:
    """Row-major 2x2 matrix (a, b; c, d) whose entries pass through the
    class's ``_entry`` coercion: ``entries``, the product by _mat_mul, and
    entrywise ``==`` and hash, between matrices of one class."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entry = self._entry
        self.a, self.b, self.c, self.d = entry(a), entry(b), entry(c), entry(d)

    @property
    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(*_mat_mul(self.entries, other.entries))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


class Mat2(_Matrix2):
    """2x2 matrix with exact rational entries, row major (a, b; c, d).

    >>> Mat2(1, 2, 3, 4).det
    Fraction(-2, 1)
    """

    __slots__ = ()
    _entry = staticmethod(rat)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


# ---------------------------------------------------------------------------
# term sources and the convergent stream
# ---------------------------------------------------------------------------

# A coefficient sequence is a Poly (evaluated at the index) or an explicit
# finite list or tuple (index 1 maps to position 0).
# _term is the one reader of such sequences, here and in polycf.euler.


def _term(seq, pos: int, i: int):
    """Read one coefficient: a Poly sees the index i, a list or tuple is
    read at position pos; None signals exhaustion."""
    if isinstance(seq, Poly):
        return seq(i)
    if isinstance(seq, (list, tuple)):
        if pos >= len(seq):
            return None
        return rat(seq[pos])
    raise TypeError(f"cannot read a coefficient sequence from {type(seq).__name__}")


@dataclass(frozen=True)
class CFSpec:
    """A continued fraction head + K_{i>=1} b(i)/a(i).

    ``a`` and ``b`` are Polys or explicit finite lists or tuples, so a CF
    not given by two Polys is finite.  ``head`` is added in front of the K
    part when evaluating.
    """

    b: object
    a: object
    head: Fraction = Fraction(0)

    def terms(self) -> Iterator[tuple]:
        """(b(i), a(i)) for i = 1, 2, ...: ints for integral terms (by
        algebra.eval_range when a and b are integral Polys), Fractions
        otherwise."""
        descs = _integral_descs(self)
        if descs is not None:
            for bs, as_ in zip(*(eval_range(desc, 1) for desc in descs)):
                yield from zip(bs, as_)
        else:
            for pos in itertools.count():
                bi, ai = _term(self.b, pos, pos + 1), _term(self.a, pos, pos + 1)
                if bi is None or ai is None:
                    return
                yield (bi.numerator if bi.denominator == 1 else bi,
                       ai.numerator if ai.denominator == 1 else ai)


def _integral_descs(cf: CFSpec) -> tuple | None:
    """The integer coefficients of b and a, highest power first (as
    algebra.horner and eval_range take them), when both are Polys with
    denominator 1; else None."""
    if all(isinstance(s, Poly) and s.denominator == 1 for s in (cf.b, cf.a)):
        return cf.b.numerators[::-1], cf.a.numerators[::-1]
    return None


_IDENTITY = (1, 0, 0, 1)


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
        return _fraction(self.p, self.q)

    def as_matrix(self) -> Mat2:
        return Mat2(self.p_prev, self.p, self.q_prev, self.q)


def convergents_from_terms(pairs: Iterable[tuple]) -> Iterator[ConvergentState]:
    """Stream convergent states from (b_i, a_i) pairs.

    State 1 is the identity; consuming term i moves state i to state i+1 by
    the convergent recurrence p_next = a_i p + b_i p_prev (same for q), the
    companion step (0, b_i; 1, a_i) of _companion_leaves.  A zero b_i
    yields one final state flagged truncated, then the stream ends: the CF
    value cannot change past that point.

    Entries stay plain ints while every term is an int, as CFSpec.terms
    gives integral terms; a Fraction term, even an integral one, makes
    them Fractions.
    """
    p_prev, p, q_prev, q = _IDENTITY
    yield ConvergentState(1, p_prev, p, q_prev, q)
    for n, (b, a) in enumerate(pairs, 2):
        if b == 0:
            yield ConvergentState(n, p_prev, p, q_prev, q, truncated=True)
            return
        p_prev, p = p, a * p + b * p_prev
        q_prev, q = q, a * q + b * q_prev
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
    return L, CFSpec(b=cf.b * (L * L), a=cf.a * L)


# Steps per leaf of a product tree; a leaf is multiplied out by a plain
# recurrence (_companion_leaves, _triangular_leaves), which costs fewer
# products than a 2x2 product.  algebra._BATCH is a multiple of it.
_LEAF = 64

# The tail that keeps the last column (p, q) of a state
_LAST_COLUMN = (0, 0, 0, 1)


def _mat_mul(m: tuple, n: tuple) -> tuple:
    """The 2x2 product m n of row-major entries (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


# The strip rule of _tree_product: the bits of d above which a merged block
# is divided by its content, and the gcd bits below which a branch stops
_STRIP_BITS = 2000
_STRIP_STOP_BITS = 64


def _merge(left: tuple, right: tuple, strip: bool) -> tuple:
    """(left right, strip'): with `strip`, more than _STRIP_BITS bits in the
    product's d entry and int entries, the product divided by the gcd of its
    entries, and strip' false once that gcd has fewer than _STRIP_STOP_BITS
    bits."""
    m = _mat_mul(left, right)
    if (strip and type(m[3]) is int and m[3].bit_length() > _STRIP_BITS
            and all(type(x) is int for x in m)):
        g = math.gcd(*m)
        strip = g.bit_length() >= _STRIP_STOP_BITS
        if g > 1:
            m = tuple(_exact_div(x, g) for x in m)
    return m, strip


def _tree_product(leaves: Iterable, tail: tuple, strip: bool) -> tuple:
    """The product, left to right, of the blocks (a, b, c, d) of `leaves`,
    times `tail`, as a balanced tree; with `strip`, that product divided by
    a positive integer (a block with a Fraction entry is never divided).

    The leaves are products of _LEAF consecutive steps, the last one maybe
    fewer, from _companion_leaves or _triangular_leaves.  Each leaf is held
    back until the next one arrives, then pushed on a stack and merged while
    the two top entries are products of equally many leaves (a binary
    counter), so the large multiplications are between operands of equal
    size and only O(log depth) blocks are held.  The last leaf is multiplied
    by `tail` and the stack is folded into it from the right, so with a tail
    whose first column is zero every merge of the fold, the top merge among
    them, costs 4 big products in place of 8 (a product with a literal 0
    returns at once).  No leaves give the tail itself.

    `strip` is for readers of a ratio of entries, which a positive scalar
    leaves unchanged.  Deep products of polynomial steps carry a large
    common content (Apery's q_n = (n!)^3 B_n: 546k of the 700k bits of P'
    at depth 16384), which every merge above would multiply again and the
    reader's gcd would then remove.  So each merge whose d entry passes
    _STRIP_BITS = 2000 bits divides the block by the gcd of its four entries
    (Haible & Papanikolaou's binary splitting with factored-out content).
    A gcd under _STRIP_STOP_BITS = 64 bits ends the stripping of every block
    built on that one, so a CF whose blocks carry little content (K n/n,
    whose gcds are 1) pays one small gcd per branch.  The top merge is never
    stripped: the reader reduces the result by its own gcd.

    Measured on cf_value at depth 16384 (CPU time, median of 7 interleaved
    runs, CPython 3.11 on one core of a shared 2.1 GHz Xeon): Apery and
    zeta(2) took 0.48-0.52 of the raw product's time with a threshold of
    1000 to 4000 bits, 0.52-0.57 at 500 or 8000; K n/n took 0.95-1.0, and
    1.2 with no stop; K n^2/n, whose every block has a gcd of about 4% of
    its bits, took 0.8-0.9 whatever the stop (16 to 256 bits).
    """
    stack = []  # (leaves, product, stripping), counts strictly decreasing up the stack
    m = None
    for leaf in leaves:
        if m is not None:
            size, live = 1, strip
            while stack and stack[-1][0] == size:
                below, left, left_live = stack.pop()
                size, (m, live) = size + below, _merge(left, m, live and left_live)
            stack.append((size, m, live))
        m = leaf
    m, live = tail if m is None else _mat_mul(m, tail), strip
    while stack:
        _, left, left_live = stack.pop()
        m, live = _merge(left, m, live and left_live and bool(stack))
    return m


def _companion_leaves(batches: Iterable) -> Iterator[tuple]:
    """The products of each _LEAF consecutive companion steps (0, b; 1, a)
    of the batches (bs, as), by the convergent recurrence, one loop per
    leaf; a batch's last leaf may be short."""
    for bs, as_ in batches:
        for lo in range(0, len(bs), _LEAF):
            hi = lo + _LEAF
            p_prev, p, q_prev, q = _IDENTITY
            for b, a in zip(bs[lo:hi], as_[lo:hi]):
                p_prev, p = p, a * p + b * p_prev
                q_prev, q = q, a * q + b * q_prev
            yield p_prev, p, q_prev, q


def _triangular_leaves(batches: Iterable) -> Iterator[tuple]:
    """The products of each _LEAF consecutive upper triangular steps
    (alpha, beta; 0, gamma) of the batches (alphas, betas, gammas), one
    loop per leaf; a batch's last leaf may be short."""
    for alphas, betas, gammas in batches:
        for lo in range(0, len(alphas), _LEAF):
            hi = lo + _LEAF
            a, b, d = 1, 0, 1
            for alpha, beta, gamma in zip(alphas[lo:hi], betas[lo:hi], gammas[lo:hi]):
                a, b, d = a * alpha, a * beta + b * gamma, d * gamma
            yield a, b, 0, d


def _companion_product(cf: CFSpec, depth: int, tail: tuple, strip: bool) -> tuple:
    """(m, steps, truncated): the _tree_product of the companion steps of cf
    times `tail`, stripped with `strip`.

    Up to `depth` steps are multiplied, fewer when a zero b truncates the
    CF: integral Polys are read in batches by eval_range, and any other CF,
    which is finite, as one batch of its first `depth` terms.
    """
    if depth < 0:
        raise InvalidInput("depth must be nonnegative")
    descs = _integral_descs(cf)
    if descs is not None:
        source = zip(*(eval_range(desc, 1, depth + 1) for desc in descs))
    else:
        terms = list(itertools.islice(cf.terms(), depth))
        source = [([b for b, _ in terms], [a for _, a in terms])]
    steps = 0
    truncated = False

    def batches():
        nonlocal steps, truncated
        for bs, as_ in source:
            if 0 in bs:
                k = bs.index(0)
                bs, as_, truncated = bs[:k], as_[:k], True
            steps += len(bs)
            yield bs, as_
            if truncated:
                return

    m = _tree_product(_companion_leaves(batches()), tail, strip)
    if steps < depth and not truncated:
        raise InvalidInput(
            f"coefficient sequence exhausted after {steps} terms, needed {depth}"
        )
    return m, steps, truncated


# Exact division beats // once the divisor has this many bits and at least
# twice as many as the quotient (see _exact_div).
_EXACT_DIV_BITS = 10_000


def _exact_div(n: int, d: int) -> int:
    """n / d for a nonzero d that divides n.

    Above the crossover this is Jebelean's exact division: shift the power
    of 2 out of d (and n), invert the odd part of d modulo 2^k by Newton's
    iteration x <- x (2 - d x), which doubles the correct low bits of x each
    round, and read the quotient n x modulo 2^k as a signed residue, k one
    bit more than the quotient needs.  Its cost is a few products of the
    quotient's size, where n // d costs the quotient's size times the
    divisor's.  Measured (median of 7, CPU time, CPython 3.10-3.13 on one
    x86-64 core): a divisor under 8000 bits, or one as long as the
    quotient, is faster by //; a 10000-bit divisor over a quotient a
    quarter as long is 1.2-1.7 times faster here.  At a divisor twice the
    quotient, the bound below, 3.11 gains 1.3-2.2x, 3.10 0.9-1.3x, and 3.12
    and 3.13, whose // is subquadratic, lose up to 20%.  A 154k-bit
    quotient by a 546k-bit divisor takes 182 ms by // on 3.11, 29 ms here.
    """
    k = n.bit_length() - d.bit_length() + 2  # |n / d| < 2^(k-1)
    if k <= 64 or d.bit_length() < max(_EXACT_DIV_BITS, 2 * k):
        return n // d
    s = (d & -d).bit_length() - 1
    n, d = n >> s, d >> s
    precisions = []
    while k > 64:
        precisions.append(k)
        k -= k // 2
    x = pow(d & ((1 << k) - 1), -1, 1 << k)
    for k in reversed(precisions):
        mask = (1 << k) - 1
        x = x * (2 - (d & mask) * x) & mask
    q = (n & mask) * x & mask
    return q - (1 << k) if q >> (k - 1) else q


class _Lowest:
    """An int pair in lowest terms, denominator positive.  Fraction(x) copies
    a numbers.Rational x without a gcd (CPython 3.6-3.13)."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_Lowest)


def _fraction(p, q) -> Fraction:
    """Fraction(p, q), the one reducer of deep integer pairs.

    An int pair is divided by its gcd, signed like q, by _exact_div and
    handed over as a _Lowest; a pair with a Fraction entry goes to Fraction.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        return Fraction(p, q)
    if q == 0:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    return Fraction(_Lowest(_exact_div(p, g), _exact_div(q, g)))


def _scaled_value(state: ConvergentState, L: int):
    """p/(L q) for a state of a CF cleared with L, or INF when q = 0."""
    if state.q == 0:
        return INF
    return _fraction(state.p, L * state.q)


def cf_value(cf: CFSpec, depth: int):
    """Exact value head + K_{i=1}^{depth} b(i)/a(i).

    Multiplies exactly `depth` steps (fewer if a zero b truncates the CF).
    Returns a Fraction, or INF when the finite CF is a pole.

    >>> cf_value(CFSpec(b=Poly([0, -1]), a=Poly([2, 1])), 2)   # -1/(3 + (-2)/4)
    Fraction(-2, 5)

    Rational coefficients are cleared to integers first (see _cleared):

    >>> cf_value(CFSpec(b=Poly([0, Fraction(-1, 2), -1]), a=Poly([Fraction(3, 2), 2])), 3)
    Fraction(-123, 187)
    """
    v = product_apply(cf, depth, 0)
    return v if is_inf(v) else cf.head + v


def product_apply(cf: CFSpec, depth: int, z):
    """Apply the product of the first `depth` step matrices to z.

    product_apply(cf, n, 0) equals the plain convergent at depth n, and a
    better tail seed z sharpens the estimate without changing exactness.
    """
    # The state times L^(k+1), (L P'', P'; L^2 Q'', L Q'), sends z = u/v to
    # x/(L y), (x, y) the cleared product times the column (L u, v); INF is
    # u/v = 1/0, and y = 0 gives INF.  Nothing checks the determinant, which
    # is never 0: each step's is -b(i) L^2, and a zero b ends the product
    # before its step.  Only the ratio x/y is read, so the product is
    # stripped.
    L, cleared = _cleared(cf)
    u, v = (1, 0) if is_inf(z) else (rat(z).numerator, rat(z).denominator)
    (_, x, _, y), _, _ = _companion_product(cleared, depth, (0, L * u, 0, v), strip=True)
    return INF if y == 0 else _fraction(x, L * y)


def _eval_pair(cf: CFSpec, depth: int) -> tuple:
    """head + the depth-term convergent of cf (Poly a and b) as the integer
    pair (num, den) that the CLI prints; den = 0 for a pole.

    With the stream's p and q and the head h = u/v, the pair is u q + v p
    over v q, scaled by the least factor that makes both integers.  On the
    cleared state that is X = u L Q' + v P' over Y = v L Q', divided by
    gcd(L^(k+1), X, Y); for integral a and b (L = 1) nothing is divided out.
    """
    L, cleared = _cleared(cf)
    (_, p, _, q), k, _ = _companion_product(cleared, depth, _LAST_COLUMN, strip=False)
    u, v = cf.head.numerator, cf.head.denominator
    x, y = u * L * q + v * p, v * L * q
    g = math.gcd(L ** (k + 1), x, y)
    return x // g, y // g


# ---------------------------------------------------------------------------
# constant-coefficient classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFLimit:
    """Outcome of the constant-CF classifier.

    kind is "converges" or "diverges_oscillates"; root is the exact limit
    (a QuadSurd) when kind == "converges".
    """

    kind: str
    root: QuadSurd | None = None

    CONVERGES = "converges"
    OSCILLATES = "diverges_oscillates"


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
    # sqrt(num/den) = sqrt(num den)/den: one QuadSurd, one squarefree split
    num, den = disc.numerator, disc.denominator
    return CFLimit(CFLimit.CONVERGES, QuadSurd(-A / 2, Fraction(s, 2 * den), num * den))
