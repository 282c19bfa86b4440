"""Exact scalar and polynomial arithmetic.

Everything in this library runs on integers and `fractions.Fraction`; there
is no floating point here or anywhere downstream.  This module provides the
shared ground types:

* ``INF``       the extra point for the extended rationals (Mobius arithmetic)
* ``QuadSurd``  exact quadratic surds u + v*sqrt(d)
* ``Poly``      dense univariate polynomials over Q, stored as int
                numerators over one positive int denominator
* ``horner``    the one Horner evaluation on ints, behind every Poly
                evaluation at a point
* ``eval_range`` an integral polynomial's values at consecutive indices,
                in bounded batches, behind the integer kernels downstream
* ``RatFunc``   reduced quotients of two polynomials

plus the text grammar used by the command line tool and the rational-root
machinery that the identification pipeline builds on.

Polynomials are immutable.  The zero polynomial has ``degree None`` (a
distinguished flag, on purpose no integer sentinel), and every formula in the
library that consumes degrees treats that case explicitly.

>>> p = parse_poly("34n^3+51n^2+27n+5")
>>> p.coeffs
(Fraction(5, 1), Fraction(27, 1), Fraction(51, 1), Fraction(34, 1))
>>> p(1)
Fraction(117, 1)
>>> str(p.shift(-1))
'34*n^3 - 51*n^2 + 27*n - 5'
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import PolyParseError


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction; a float
    is refused (0.1 would enter as 3602879701896397/2**55)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not exact; pass an int, a Fraction or a string")
    return Fraction(x)


class Infinity:
    """The single point at infinity of the projective rational line."""

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self or isinstance(other, Infinity)

    def __hash__(self):
        return hash("polycf-infinity")


INF = Infinity()


def is_inf(v) -> bool:
    return isinstance(v, Infinity)


# ---------------------------------------------------------------------------
# small primes
# ---------------------------------------------------------------------------


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ...: the integers prime to every smaller prime."""
    product = 1
    for n in itertools.count(2):
        if math.gcd(n, product) == 1:
            product *= n
            yield n


# QuadSurd takes the squares of the primes below this bound, P, out of a
# radicand, then the rest if it is a perfect square
_SQUARE_BOUND = 1000
_PRIMORIAL = math.prod(itertools.takewhile(lambda p: p < _SQUARE_BOUND, _primes()))


class _Exact:
    """`-` both ways, `==` and hash for QuadSurd, Poly and RatFunc, from each
    type's ``_coerce`` (an operand of the type, or None), ``+``, unary ``-``
    and ``_key()``, a canonical form of the value.  A rational value's key is
    that Fraction and a Poly-valued RatFunc's is the Poly's, so x == y gives
    hash(x) == hash(y) across the three types, int and Fraction.  Two of the
    types that do not coerce each other compare by key, which keeps ==
    transitive: a rational QuadSurd equals the constant Poly of its value."""

    __slots__ = ()

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

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return self._key() == other._key() if isinstance(other, _Exact) else NotImplemented
        return self._key() == o._key()

    def __hash__(self):
        return hash(self._key())


class QuadSurd(_Exact):
    """Exact number u + v*sqrt(d) with rational u, v and an int d >= 0.

    Normalization folds d in {0, 1} (and v = 0) back into the rational case,
    where the stored form is (u, 0, 0), and moves square factors of d into
    v with no integer factoring: the squares of the primes below P = 1000,
    then the rest of d if it is a perfect square.  So d is squarefree when
    d < P^3; a larger d with the square of a prime >= P keeps that square,
    and prints unreduced.  The key of an irrational value is (u, sign v,
    v^2 d), canonical all the same.  Arithmetic needs compatible radicands,
    d d' a perfect square; mixing incompatible ones raises ValueError.

    >>> r = QuadSurd(Fraction(1, 2), Fraction(1, 2), 5)
    >>> r * r - r            # golden ratio satisfies x^2 - x - 1 = 0
    QuadSurd(1, 0, 0)
    >>> QuadSurd(2, 3, 4)    # sqrt(4) collapses
    QuadSurd(8, 0, 0)
    """

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v=0, d=0):
        u = rat(u)
        v = rat(v)
        d = int(d)
        if d < 0:
            raise ValueError("negative radicand")
        if d and v:
            while True:
                g = math.gcd(d, _PRIMORIAL)  # the primes below P that divide d
                h = math.gcd(d // g, g)  # those that divide it twice
                if h == 1:
                    break
                d //= h * h
                v *= h
            # the rest d/g has only primes >= P: if it is not a square but has
            # a square factor q^2, then d >= q^2 P >= P^3
            r = math.isqrt(d // g)
            if r * r == d // g:
                d, v = g, v * r
        if d in (0, 1):
            u += v * d
            v = Fraction(0)
            d = 0
        if v == 0:
            d = 0
        self.u = u
        self.v = v
        self.d = d

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, no approximation involved."""
        u, v, d = self.u, self.v, self.d
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        uu, vv = u * u, v * v * d
        if uu == vv:
            return 0
        if u > 0:
            return 1 if uu > vv else -1
        return 1 if vv > uu else -1

    def approx(self, digits: int = 30) -> Fraction:
        """Rational approximation within 10**-digits, via integer isqrt."""
        if self.v == 0:
            return self.u
        # the isqrt of the integer part of v^2 d scale^2 is floor(|v| sqrt(d)
        # scale), so the error stays below 1/scale whatever the size of v
        scale = 10 ** (digits + 6)
        v = abs(self.v)
        root = math.isqrt(v.numerator**2 * self.d * scale**2 // v.denominator**2)
        return self.u + (1 if self.v > 0 else -1) * Fraction(root, scale)

    def _coerce(self, other):
        if isinstance(other, QuadSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadSurd(other)
        return None

    def _common(self, o) -> tuple:
        """(d, v, w) with self = u + v sqrt(d) and o = o.u + w sqrt(d)."""
        if not (self.d and o.d) or self.d == o.d:
            return self.d or o.d, self.v, o.v
        s = math.isqrt(self.d * o.d)
        if s * s != self.d * o.d:
            raise ValueError("incompatible radicands")
        if self.d < o.d:
            return self.d, self.v, o.v * Fraction(s, self.d)
        return o.d, self.v * Fraction(s, o.d), o.v

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, v, w = self._common(o)
        return QuadSurd(self.u + o.u, v + w, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadSurd(-self.u, -self.v, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, v, w = self._common(o)
        return QuadSurd(self.u * o.u + v * w * d, self.u * w + v * o.u, d)

    __rmul__ = __mul__

    def _key(self):
        return self.u if self.v == 0 else (self.u, self.v > 0, self.v * self.v * self.d)

    def __repr__(self):
        return f"QuadSurd({self.u}, {self.v}, {self.d})"

    def __str__(self):
        if self.v == 0:
            return str(self.u)
        tail = f"sqrt({self.d})" if abs(self.v) == 1 else f"{abs(self.v)}*sqrt({self.d})"
        if self.u == 0:
            return tail if self.v > 0 else "-" + tail
        op = "+" if self.v > 0 else "-"
        return f"{self.u} {op} {tail}"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def horner(desc, p: int, q: int = 1) -> int:
    """q^d H(p/q) by Horner's rule on ints, for the polynomial H of degree d
    whose integer coefficients `desc` lists highest power first (the order
    the rule consumes them: a Poly's numerators reversed, which loops over
    many points reverse once).  With q = 1 this is H(p).  Every evaluation
    of a Poly at one point runs here; at a Poly, p is that Poly.  Runs of
    consecutive indices go through eval_range.

    >>> horner((34, 51, 27, 5), 1), horner((34, 51, 27, 5), 1, 2)
    (117, 284)
    """
    acc = 0
    if q == 1:
        for c in desc:
            acc = acc * p + c
        return acc
    qpow = 1
    for c in desc:
        acc = acc * p + c * qpow
        qpow *= q
    return acc


# Values per batch of eval_range: a bound on every batch, whatever the
# range, and a multiple of the product tree's leaf (mobius._LEAF), so that
# the tree's leaves fill whole batches.
_BATCH = 256


def eval_range(desc, start: int, stop: int | None = None) -> Iterator[list]:
    """H(start), H(start + 1), ..., H(stop - 1) (with no end for stop None)
    in lists of _BATCH values, the last one shorter, for the polynomial H
    whose integer coefficients `desc` lists highest power first (as for
    horner; the empty list is the zero polynomial).

    The values come from forward differences: horner gives H at the first
    d + 1 indices (d the degree), whose difference table holds D^j H(start)
    for j = 0..d.  D^d H is constant, so D^(d-1) H runs through a range, and
    D^j H(i + k) is D^j H(i) plus the sum of D^(j+1) H(i + m) for m < k, so
    one itertools.accumulate per lower order builds a batch from the top
    order down, with no Python call per value; its last sum is D^j H at the
    next batch.

    >>> list(eval_range((34, 51, 27, 5), 0, 4))
    [[5, 117, 535, 1463]]
    """
    d = max(len(desc) - 1, 0)
    # D^j H at the first index of the next batch, from H(start..start+d)
    diffs = [horner(desc, start + k) for k in range(d + 1)]
    for j in range(1, d + 1):
        for k in range(d, j - 1, -1):
            diffs[k] -= diffs[k - 1]
    i = start
    while stop is None or i < stop:
        size = _BATCH if stop is None else min(_BATCH, stop - i)
        if d == 0:
            row = [diffs[0]] * size
        else:
            step, first = diffs[d], diffs[d - 1]
            diffs[d - 1] = first + step * size
            row = list(range(first, diffs[d - 1], step)) if step else [first] * size
        for j in range(d - 2, -1, -1):
            row = list(itertools.accumulate(row, initial=diffs[j]))
            diffs[j] = row.pop()
        yield row
        i += size


def scaled_desc(p: Poly, c: int) -> list:
    """The integer coefficients of c p, highest power first (as horner and
    eval_range take them), for an int c that p's denominator divides."""
    k = c // p.denominator
    return [x * k for x in reversed(p.numerators)]


def first_zero(desc, start: int, stop: int) -> int | None:
    """The least i in start..stop-1 with H(i) = 0 (H as for eval_range),
    else None."""
    for i, batch in zip(itertools.count(start, _BATCH), eval_range(desc, start, stop)):
        if 0 in batch:
            return i + batch.index(0)
    return None


class Poly(_Exact):
    """Dense univariate polynomial over Q, ascending coefficients.

    A Poly is stored as ``numerators``, a tuple of ints, over one positive
    int ``denominator``, with no factor of the denominator left in common
    with all the numerators, so equal polynomials have equal stored forms.
    The ring operations, shifts and evaluation (composition included) run
    on these ints.  ``coeffs``, the tuple of Fraction coefficients, is built
    on first use.

    ``Poly(())`` is the zero polynomial (numerators ``()`` over 1); its
    ``degree`` is None rather than any integer.  Instances are immutable and
    hashable.

    >>> p = Poly([5, 27, 51, 34])
    >>> p.degree, p.lead
    (3, Fraction(34, 1))
    >>> divmod(p * p, p) == (p, Poly.zero())
    True
    >>> q = p / 6
    >>> q.numerators, q.denominator
    ((5, 27, 51, 34), 6)
    """

    __slots__ = ("numerators", "denominator", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, (int, Fraction)) else rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # over the lcm of the reduced denominators no prime of the
        # denominator divides every numerator: the form is normalized
        den = math.lcm(*(c.denominator for c in cs))
        self.numerators = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.denominator = den
        self._coeffs = None

    @classmethod
    def _make(cls, nums, den: int = 1) -> "Poly":
        """nums/den for int numerators and a positive int den, normalized:
        trailing zeros dropped and gcd(content, den) divided out."""
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        p = object.__new__(cls)
        p.numerators, p.denominator, p._coeffs = tuple(nums), den, None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make(())

    @classmethod
    def one(cls) -> "Poly":
        return cls._make((1,))

    @classmethod
    def const(cls, c) -> "Poly":
        c = rat(c)
        return cls._make((c.numerator,), c.denominator)

    @classmethod
    def x(cls) -> "Poly":
        return cls._make((0, 1))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Fractions, ascending."""
        if self._coeffs is None:
            den = self.denominator
            self._coeffs = tuple(Fraction(c, den) for c in self.numerators)
        return self._coeffs

    @property
    def degree(self):
        """Degree as int, or None for the zero polynomial."""
        return len(self.numerators) - 1 if self.numerators else None

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def lead(self) -> Fraction:
        if not self.numerators:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.numerators[-1], self.denominator)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k; zero outside range (negative k included)."""
        if 0 <= k < len(self.numerators):
            return self.coeffs[k]
        return Fraction(0)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._make((other.numerator,), other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, da, b, db = self.numerators, self.denominator, o.numerators, o.denominator
        if da != db:
            a, b = [c * db for c in a], [c * da for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._make(out, da if da == db else da * db)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make([-c for c in self.numerators], self.denominator)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.numerators, o.numerators
        if not a or not b:
            return Poly.zero()
        if b == (1,) and o.denominator == 1:
            return self
        if a == (1,) and self.denominator == 1:
            return o
        if len(b) == 1:
            out = [c * b[0] for c in a]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, e in enumerate(b, i):
                        out[j] += c * e
        return Poly._make(out, self.denominator * o.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = Poly.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __divmod__(self, other):
        """Division with remainder over Q, as a pseudo-division on ints
        (see _pseudo_divmod)."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem, scale = _pseudo_divmod(self.numerators, o.numerators)
        # self = (quo E / (scale D)) other + rem / (scale D)
        den = scale * self.denominator
        E = o.denominator if den > 0 else -o.denominator
        return (
            Poly._make([q * E for q in quo], abs(den)),
            Poly._make(rem if den > 0 else [-r for r in rem], abs(den)),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            num, den = other.numerator, other.denominator
            if num < 0:
                num, den = -num, -den
            return Poly._make([c * den for c in self.numerators], self.denominator * num)
        return NotImplemented

    # -- evaluation and reindexing --------------------------------------

    def __call__(self, v):
        """Evaluate by Horner's rule on the int numerators (see horner): at
        an int or a Fraction, giving a Fraction; at a Poly (composition),
        giving a Poly, with the rule's products and sums taken on Polys."""
        nums = self.numerators
        if isinstance(v, Poly):
            # _coerce: for the zero Poly horner gives the int 0
            return Poly._coerce(horner(nums[::-1], v)) / self.denominator
        p, q = v.numerator, v.denominator
        return Fraction(horner(nums[::-1], p, q), self.denominator * q ** max(len(nums) - 1, 0))

    def shift(self, k) -> "Poly":
        """p.shift(k) is the polynomial x -> p(x + k).

        A Taylor shift on ints: for k = s/t the numerators of t^d p(x + s/t)
        in the variable t x come from repeated synthetic division by s.
        """
        nums = self.numerators
        if len(nums) <= 1 or k == 0:
            return self
        k = rat(k)
        s, t = k.numerator, k.denominator
        d = len(nums) - 1
        out = list(nums) if t == 1 else [c * t ** (d - i) for i, c in enumerate(nums)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                out[j] += s * out[j + 1]
        if t != 1:
            out = [c * t**j for j, c in enumerate(out)]
        return Poly._make(out, self.denominator * t**d)

    def monic(self) -> "Poly":
        return self / self.lead

    # -- misc -----------------------------------------------------------

    def _key(self):
        nums, den = self.numerators, self.denominator
        if len(nums) > 1:
            return nums, den
        c = nums[0] if nums else 0
        return c if den == 1 else Fraction(c, den)

    def __bool__(self):
        return bool(self.numerators)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return self.to_text()

    def to_text(self) -> str:
        """Canonical text form, descending powers; parses back exactly."""
        if not self.numerators:
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


def _pseudo_divmod(N, M) -> tuple[list, list, int]:
    """(quo, rem, scale) with scale N = quo M + rem, rem shorter than M, for
    int coefficient lists, lowest power first (M with no trailing zero).
    Each step scales by just enough that M's lead divides the top
    coefficient, so scale is 1 when M divides N over the integers."""
    rem = list(N)
    dn, dd = len(rem) - 1, len(M) - 1
    lead = M[-1]
    quo = [0] * (dn - dd + 1)
    scale = 1
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd]
        if not c:
            continue
        g = math.gcd(c, lead)
        fac, c = lead // g, c // g
        if fac != 1:
            rem = [r * fac for r in rem]
            quo = [q * fac for q in quo]
            scale *= fac
        quo[k] = c
        for j, m in enumerate(M, k):
            rem[j] -= c * m
    del rem[dd:]
    return quo, rem, scale


def _primitive_gcd(a: list, b: list) -> list:
    """gcd of two int coefficient lists (lowest power first, not both empty,
    a with no trailing zero), primitive with a positive lead, by the
    remainder sequence, each pseudo-remainder divided by its content."""
    while True:
        while b and not b[-1]:
            b.pop()
        if len(b) <= 1:
            break
        g = math.gcd(*b)
        b = [c // g for c in b]
        a, b = b, _pseudo_divmod(a, b)[1]
    if b:
        return [1]
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q, from the int numerators; gcd(0, 0) errors."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    return Poly._make(_primitive_gcd(list(p.numerators), list(q.numerators))).monic()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# One match per token: an INT, a VAR or an operator, whose kind is the
# operator itself.  \d takes only decimal digits, the ones int() reads, so a
# superscript lands in the last group with every other foreign character.
_TOKEN = re.compile(r"(\d+)|([nx])|([-+*/^()])|(\S)")


class _Scanner:
    """Tokens (kind, text, position) of the polynomial grammar, ending in END."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            if m.lastindex == 4:
                raise PolyParseError(m.group(), m.start(), text)
            kind = ("INT", "VAR", m.group())[m.lastindex - 1]
            self.tokens.append((kind, m.group(), m.start()))
        self.tokens.append(("END", "", len(text)))
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] != "END":
            self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(tok[1] or "end of input", tok[2], self.text)
        return tok


# The largest exponent or multiplicity the parsers accept: n^k allocates
# k + 1 coefficients, so the bound is checked on the digits, before any allocation.
MAX_EXPONENT = 10_000


def _parse_exponent(sc: _Scanner) -> int:
    tok = sc.expect("INT")
    digits = tok[1].lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise PolyParseError(tok[1], tok[2], sc.text)
    return int(digits)


def _parse_rational(sc: _Scanner) -> Fraction:
    tok = sc.expect("INT")
    num = int(tok[1])
    if sc.peek()[0] == "/":
        sc.next()
        den_tok = sc.expect("INT")
        den = int(den_tok[1])
        if den == 0:
            raise PolyParseError(den_tok[1], den_tok[2], sc.text)
        return Fraction(num, den)
    return Fraction(num)


def _parse_term(sc: _Scanner) -> Poly:
    """term := rational [['*'] var ['^' uint]] | var ['^' uint]"""
    coeff = Fraction(1)
    if sc.peek()[0] == "INT":
        coeff = _parse_rational(sc)
        if sc.peek()[0] == "*":
            sc.next()
        elif sc.peek()[0] != "VAR":
            return Poly((coeff,))
    sc.expect("VAR")
    power = 1
    if sc.peek()[0] == "^":
        sc.next()
        power = _parse_exponent(sc)
    return Poly([Fraction(0)] * power + [coeff])


def _parse_sum(sc: _Scanner, stop: str = "END") -> Poly:
    """sum := ['+' | '-'] term (('+' | '-') term)*, ended by the `stop` token."""
    total = Poly.zero()
    tok = sc.peek()
    while True:
        sign = -1 if tok[0] == "-" else 1
        if tok[0] in ("+", "-"):
            sc.next()
        total = total + sign * _parse_term(sc)
        tok = sc.peek()
        if tok[0] == stop:
            return total
        if tok[0] not in ("+", "-"):
            raise PolyParseError(tok[1] or "end of input", tok[2], sc.text)


def parse_poly(text: str) -> Poly:
    """Parse the plain polynomial grammar.

    Signed terms ``c``, ``c*n^k``, ``n^k``, ``n`` with integer or p/q
    coefficients; the ``*`` is optional and whitespace is ignored.  The index
    variable is ``n``, with ``x`` accepted as a synonym.  Numbers are runs of
    decimal digits (those ``int`` reads); any other character, a superscript
    such as ``²`` too, raises PolyParseError at its position.  An exponent k
    above MAX_EXPONENT = 10000 raises PolyParseError at its token.

    >>> parse_poly("-n^2 + 3/2 n - 1") == Poly([-1, Fraction(3, 2), -1])
    True
    """
    sc = _Scanner(text)
    p = _parse_sum(sc)
    sc.expect("END")
    return p


def parse_factored(text: str) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Parse a factored polynomial: optional rational constant and
    ``(poly)^k`` blocks joined by ``*`` (the ``*`` is optional).

    Returns (constant, [(monic_block, multiplicity), ...]); block leading
    coefficients and constant blocks are folded into the constant, equal
    blocks are merged; a multiplicity above MAX_EXPONENT raises at its token.

    >>> c, blocks = parse_factored("-2*(n)^3*(2n-1)")
    >>> c
    Fraction(-4, 1)
    >>> [(str(b), m) for b, m in blocks]
    [('n', 3), ('n - 1/2', 1)]
    """
    sc = _Scanner(text)
    const = Fraction(1)
    # monic block -> multiplicity, in order of first appearance
    blocks: dict[Poly, int] = {}
    if sc.peek()[0] in ("+", "-") and sc.next()[0] == "-":
        const = -const
    while True:
        tok = sc.peek()
        if tok[0] == "INT":
            const *= _parse_rational(sc)
        else:
            sc.expect("(")
            block = _parse_sum(sc, stop=")")
            close = sc.expect(")")[2]
            mult = 1
            if sc.peek()[0] == "^":
                sc.next()
                mult = _parse_exponent(sc)
            if block.is_zero:
                raise PolyParseError(sc.text[tok[2] : close + 1], tok[2], sc.text)
            const *= block.lead ** mult
            if mult > 0 and block.degree > 0:
                key = block.monic()
                blocks[key] = blocks.get(key, 0) + mult
        tok = sc.peek()
        if tok[0] == "END":
            return const, list(blocks.items())
        if tok[0] == "*":
            sc.next()
        elif tok[0] != "(":
            raise PolyParseError(tok[1] or "end of input", tok[2], sc.text)


def assemble_factored(const: Fraction, blocks: list[tuple[Poly, int]]) -> Poly:
    """Multiply a factored form back out."""
    p = Poly.const(const)
    for b, m in blocks:
        p = p * b**m
    return p


# ---------------------------------------------------------------------------
# rational roots and integer-rooted factorization
# ---------------------------------------------------------------------------


def _root_split(p: Poly) -> tuple[dict[Fraction, int], Poly]:
    """Rational roots of a nonzero p with multiplicities, keys in ascending
    order, and the monic quotient of p by every (x - r)^m, with no integer
    factoring (Loos, "Computing rational zeros of integral polynomials by
    p-adic expansion", SIAM J. Comput. 12, 1983).

    On the primitive integer numerators f of p, the root at 0 stripped: the
    squarefree part q of f (f over gcd(f, f')), of lead c and degree d, has
    the roots of f, and they are y/c for the integer roots y of the monic
    h(y) = c^(d-1) q(y/c), each a divisor of h(0).  At the least prime at
    which every root of h is simple (only divisors of its discriminant are
    not), Newton's method lifts each root to one mod a prime power above
    2|h(0)|, whose symmetric residue is the one candidate y.  Each candidate
    s/t is tested by horner and divided out of f as the factor (t x - s) by
    synthetic division (exact, by Gauss's lemma) as often as it divides,
    until the quotient is linear, whose root is read off, or constant."""
    desc = list(p.numerators[::-1])
    # strip the root at zero
    zmult = 0
    while desc[-1] == 0:
        desc.pop()
        zmult += 1
    # (s, t, multiplicity) for each root s/t, each found once, as ints
    found = [(0, 1, zmult)] if zmult else []
    if len(desc) > 2:
        g = math.gcd(*desc)
        desc = [c // g for c in desc]
        f, d = desc[::-1], len(desc) - 1
        # gcd(f, f') = gcd(f', d f - x f'), whose coefficients are (d - i) f_i
        g = _primitive_gcd([i * c for i, c in enumerate(f)][1:], [(d - i) * c for i, c in enumerate(f)])
        q = _pseudo_divmod(f, g)[0] if len(g) > 1 else f
        c, d = q[-1], len(q) - 1
        # h, highest power first: q's coefficient of y^i times c^(d-1-i)
        h, k = [1], 1
        for x in q[-2::-1]:
            h.append(x * k)
            k *= c
        dh = [(d - i) * x for i, x in enumerate(h[:-1])]
        bound = 2 * abs(h[-1])
        for prime in _primes():
            ys = [y for y in range(prime) if horner(h, y) % prime == 0]
            if all(horner(dh, y) % prime for y in ys):
                break
        for y in ys:
            if len(desc) <= 2:
                break
            m = prime
            while m <= bound:
                m *= m
                y = (y - horner(h, y) * pow(horner(dh, y), -1, m)) % m
            y = y - m if 2 * y > m else y
            g = math.gcd(y, c) if c > 0 else -math.gcd(y, c)
            s, t = y // g, c // g
            m = 0
            while horner(desc, s, t) == 0:
                # desc = (t x - s) * quotient, from the top down
                acc = 0
                for k in range(len(desc) - 1):
                    acc = (desc[k] + s * acc) // t
                    desc[k] = acc
                desc.pop()
                m += 1
            if m:
                found.append((s, t, m))
    if len(desc) == 2:
        found.append((-desc[1], desc[0], 1))
        desc = [1]
    # ascending s/t is ascending s L/t, over the lcm L of the t
    lcm = math.lcm(*(t for _, t, _ in found))
    found.sort(key=lambda r: r[0] * (lcm // r[1]))
    lead = desc[0]
    residual = Poly._make(desc[::-1] if lead > 0 else [-c for c in reversed(desc)], abs(lead))
    return {Fraction(s, t): m for s, t, m in found}, residual


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """All rational roots of p with multiplicities, keys in ascending order.

    >>> rational_roots(Poly([0, -1, 2]))     # 2x^2 - x
    {Fraction(0, 1): 1, Fraction(1, 2): 1}
    """
    if p.is_zero:
        raise ValueError("zero polynomial vanishes everywhere")
    return _root_split(p)[0]


def factor_integer_rooted(p: Poly) -> tuple[Fraction, list[tuple[Poly, int]], Poly]:
    """Split p into content * product of monic linear factors * residual.

    content is the leading coefficient, factors are (x - r)^m for every
    rational root r in ascending order, and the residual is monic with no
    rational roots (Poly.one() when p splits completely).

    >>> c, fs, res = factor_integer_rooted(Poly([0, 1, -2]))   # -2x^2 + x
    >>> c, [(str(f), m) for f, m in fs], str(res)
    (Fraction(-2, 1), [('n', 1), ('n - 1/2', 1)], '1')
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    roots, residual = _root_split(p)
    return p.lead, [(Poly((-r, 1)), m) for r, m in roots.items()], residual


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc(_Exact):
    """Quotient of two polynomials, stored reduced with a monic denominator.

    >>> f = RatFunc(Poly([0, 1]), Poly([1, 1]))     # x / (x+1)
    >>> f + 1
    RatFunc(2*n + 1, n + 1)
    >>> f(Fraction(1))
    Fraction(1, 2)
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        num = num if isinstance(num, Poly) else Poly._coerce(num)
        den = den if isinstance(den, Poly) else Poly._coerce(den)
        if num is None or den is None:
            raise TypeError("RatFunc needs polynomial or rational arguments")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = Poly.zero(), Poly.one()
            return
        g = poly_gcd(num, den)
        num, den = num // g, den // g
        lead = den.lead
        self.num = num / lead
        self.den = den / lead

    @property
    def is_poly(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_poly:
            raise ValueError(f"{self} is a proper rational function")
        return self.num

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (Poly, int, Fraction)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def shift(self, k) -> "RatFunc":
        return RatFunc(self.num.shift(k), self.den.shift(k))

    def __call__(self, v):
        dv = self.den(v)
        if dv == 0:
            return INF
        return self.num(v) / dv

    def _key(self):
        return self.num._key() if self.is_poly else (self.num._key(), self.den._key())

    def __repr__(self):
        if self.is_poly:
            return f"RatFunc({self.num})"
        return f"RatFunc({self.num}, {self.den})"

    def __str__(self):
        if self.is_poly:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def taylor_div(num: Poly, den: Poly, order: int) -> list[Fraction]:
    """First `order` Taylor coefficients of num/den at 0; den(0) != 0."""
    if den.coeff(0) == 0:
        raise ZeroDivisionError("denominator vanishes at the expansion point")
    inv0 = 1 / den.coeff(0)
    out: list[Fraction] = []
    for k in range(order):
        acc = num.coeff(k)
        for j in range(k):
            acc -= out[j] * den.coeff(k - j)
        out.append(acc * inv0)
    return out
