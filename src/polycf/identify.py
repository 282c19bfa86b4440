"""Identify Euler triples behind a polynomial CF coefficient pair (a, b).

Given a and b, the task is to find every factorization b = -h1*h2 together
with a polynomial f such that

    f(x) a(x) = f(x-1) h1(x) + f(x+1) h2(x+1).

The search factors -b over the rationals, enumerates how the factor base can
be split between h1 and h2, pins the two leading coefficients from the
leading coefficients of a and b, takes the candidate degrees of f from the
indicial coefficients of L: f -> f a - f(x-1) h1 - f(x+1) h2(x+1), and
solves for f by reducing the images of the powers of x under L by degree
(:func:`solve_f`).  These steps read each Poly's stored ints, with no
Fraction or Poly per image.  Everything is exact, and each fact is checked
once: -h1*h2 = b for every leading pair, and the relation for every f
found, by the EulerTriple that solve_f builds.  A reported triple also
rebuilds (a, b) through build_euler_cf.  Each split gets one verdict: its
solutions, or one rejection reason.

The splits come from one Poly product per exponent vector (e_i in 0..m_i
for each block p_i^m_i): prod p_i^e_i is one block times the product for
a vector made before it.  Split e pairs the product for e with the one for
m - e, and the splits are sorted by (h1, h2).

The image of x^k under L has degree at most k + d, d the largest degree of
a, h1 and h2.  Its coefficients at x^(k+d), x^(k+d-1) and x^(k+d-2), a
constant, a line and a quadratic in k, are the indicial ones
(:func:`candidate_degrees`; Abramov, Bronstein and Petkovsek, ISSAC 1995):
the first that is not identically zero vanishes at k = deg f.  The tests
check these degrees against the generic recurrence analysis in
``tests/_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from .algebra import (
    Poly,
    assemble_factored,
    factor_integer_rooted,
)
from .errors import InvalidInput, NotDivisible
from .euler import EulerTriple, build_euler_cf

REASON_PATTERN = "degree pattern inadmissible"
REASON_IRRATIONAL = "irrational leading split"
REASON_NO_DEGREE = "no admissible f degree"
REASON_NO_F = "no f solution at admissible degrees"
REASON_F_BUDGET = "f degree above the search budget"

# The largest deg f that solve_f is asked for.  A large integer root of b can
# make a candidate degree astronomical (about the root itself); such a degree
# is skipped and reported with REASON_F_BUDGET, so identify always ends.
MAX_F_DEGREE = 1000


def _exact_isqrt(n: int) -> int | None:
    """The square root of n if n is the square of an integer, else None."""
    r = math.isqrt(n) if n >= 0 else -1
    return r if r * r == n else None


def candidate_degrees(a: Poly, h1: Poly, h2: Poly) -> set[int]:
    """Candidate deg f values: the nonnegative integer roots of the
    indicial coefficients of f -> f a - f(x-1) h1 - f(x+1) h2(x+1).

    Let d be the largest of the three degrees, and A, u, v and a1, g1, g2
    the x^d and x^(d-1) coefficients of a, h1, h2 (zero where missing).
    The image of x^k has the coefficient A - u - v at x^(k+d); unless it is
    zero, no f exists.  At x^(k+d-1) it has c + k (u - v) with
    c = a1 - g1 - g2 - d v, so for u != v deg f is the root of that line.
    For u = v a nonzero c admits no degree, and a zero one leaves the
    x^(k+d-2) coefficient, quadratic in k.  Roots that are not nonnegative
    integers are dropped.
    """
    if a.is_zero or h1.is_zero or h2.is_zero:
        raise InvalidInput("a, h1, h2 must be nonzero")
    d = max(a.degree, h1.degree, h2.degree)
    # every root is a ratio of terms linear in the coefficients (the
    # quadratic's too), so one common integer scale L leaves it as is
    L = math.lcm(a.denominator, h1.denominator, h2.denominator)
    ca, c1, c2 = (
        [c * (L // p.denominator) for c in p.numerators] for p in (a, h1, h2)
    )

    def at(cs: list, k: int) -> int:
        return cs[k] if 0 <= k < len(cs) else 0

    A = at(ca, d)
    u, v = at(c1, d), at(c2, d)
    if A != u + v:
        return set()
    g1, g2 = at(c1, d - 1), at(c2, d - 1)
    # the shift in h2(x+1) adds d*v at x^(d-1)
    c = at(ca, d - 1) - g1 - g2 - d * v

    def keep(num: int, den: int) -> set[int]:
        q, r = divmod(num, den)
        return {q} if not r and q >= 0 else set()

    if u != v:
        return keep(c, v - u)
    if c:
        return set()
    # equal leads, A = 2u: qc + k (g1 - g2 - d v) - C(k, 2) A = 0, where
    # h2(x+1) has f2 + (d-1) g2 + C(d, 2) v at x^(d-2)
    qc = at(ca, d - 2) - at(c1, d - 2) - at(c2, d - 2) - (d - 1) * g2 - d * (d - 1) // 2 * v
    qb = g1 - g2 - d * v + u
    sq = _exact_isqrt(qb * qb + 4 * u * qc)
    if sq is None:
        return set()
    return keep(-qb + sq, -2 * u) | keep(-qb - sq, -2 * u)


def leading_coeff_split(a: Poly, b: Poly, degree_pattern: tuple[int, int]):
    """Forced leading coefficients (c1, c2) for a split of b with the given
    (deg h1, deg h2) target.

    Returns (pairs, reason): `pairs` is a list of admissible (c1, c2), and
    `reason` explains an empty list ("degree pattern inadmissible" or
    "irrational leading split").
    """
    if a.is_zero or b.is_zero:
        raise InvalidInput("a and b must be nonzero")
    d1, d2 = degree_pattern
    da = a.degree
    # the leads A = an/ad and B = bn/bd, from the stored ints (ad, bd > 0)
    an, ad, bn, bd = a.numerators[-1], a.denominator, b.numerators[-1], b.denominator
    if d1 != d2:
        if da != max(d1, d2):
            return [], REASON_PATTERN
        A, c = Fraction(an, ad), Fraction(-bn * ad, bd * an)  # c = -B/A
        return [(A, c) if d1 > d2 else (c, A)], None
    # equal target degrees
    if da > d1:
        return [], REASON_PATTERN
    if da < d1:
        # c1 = -c2, c1^2 = B = bn*bd / bd^2
        r = _exact_isqrt(bn * bd)
        if r is None:
            return [], REASON_IRRATIONAL
        s = Fraction(r, bd)
        return [(s, -s), (-s, s)], None
    # da == d1 == d2: c1, c2 are the roots (A +- sqrt(D/E))/2 of t^2 - A t - B,
    # D/E = A^2 + 4B; sqrt(D/E) = r/E
    E = ad * ad * bd
    r = _exact_isqrt((an * an * bd + 4 * bn * ad * ad) * E)
    if r is None:
        return [], REASON_IRRATIONAL
    # the roots multiply to -B != 0, so neither is zero
    m = an * ad * bd
    r1, r2 = Fraction(m + r, 2 * E), Fraction(m - r, 2 * E)
    if r == 0:
        return [(r1, r2)], None
    return [(r1, r2), (r2, r1)], None


def solve_f(a: Poly, h1: Poly, h2: Poly, d_f: int) -> EulerTriple | None:
    """The triple (h1, h2, f) for a nonzero polynomial f with deg f <= d_f
    solving f(x)a(x) = f(x-1)h1(x) + f(x+1)h2(x+1), f monic; None if the
    only solution is zero.

    The images L(x^i) = x^i a - (x-1)^i h1 - (x+1)^i h2(x+1), i = 0..d_f,
    are reduced in order of i: while an image's degree is held, its lead is
    cancelled with the image held there.  A nonzero remainder is held at its
    degree; a zero one is the image of some g = x^i + (lower powers), a
    solution.  The last g found is returned, which is the kernel vector of
    the highest free column in reduced row echelon form, so solutions with
    f.coeff(d_f) != 0 are preferred.  Outside one or two indicial roots the
    images have distinct degrees and are held at once.

    The images are integer vectors, over the lcm of the denominators of a,
    h1 and h2(x+1), and a step is lead(held) image - lead(image) held, on g
    too, each lead divided by their gcd: nonzero multiples of the rational
    vectors, so the monic f is the same.

    The relation is checked exactly, once: EulerTriple divides
    f(x-1)h1 + f(x+1)h2(x+1) by f, and its quotient must be a (an
    AssertionError otherwise).  So a returned triple always satisfies the
    relation, and its ``a`` is the given one.
    """
    h2s = h2.shift(1)
    den = math.lcm(a.denominator, h1.denominator, h2s.denominator)
    # a, P = (x-1)^i h1 and Q = (x+1)^i h2(x+1), times den
    A, P, Q = ([c * (den // p.denominator) for c in p.numerators] for p in (a, h1, h2s))
    # held[degree] = (image, g), each a multiple of (L(g), g)
    held: dict[int, tuple[list, list]] = {}
    f = None
    for i in range(d_f + 1):
        image = [u - v - w for u, v, w in zip_longest([0] * i + A, P, Q, fillvalue=0)]
        g = [0] * i + [1]
        while image and not image[-1]:
            image.pop()
        while image and len(image) - 1 in held:
            him, hg = held[len(image) - 1]
            u, v = him[-1], image[-1]
            k = math.gcd(u, v)
            u, v = u // k, v // k
            image = [u * c - v * e for c, e in zip(image, him)]
            g = [u * c - v * e for c, e in zip_longest(g, hg, fillvalue=0)]
            while image and not image[-1]:
                image.pop()
        if image:
            held[len(image) - 1] = image, g
        else:
            f = g
        P = [u - v for u, v in zip([0] + P, P + [0])]
        Q = [u + v for u, v in zip([0] + Q, Q + [0])]
    if f is None:
        return None
    # g's top entry, at x^i, is the nonzero scale of x^i + (lower powers)
    lead = f[-1]
    f = Poly._make(f if lead > 0 else [-c for c in f], abs(lead))
    # the one exact check: the triple divides f(x-1) h1 + f(x+1) h2(x+1) by f
    try:
        t = EulerTriple(h1, h2, f)
    except NotDivisible:
        t = None
    if t is None or t.a != a:
        raise AssertionError("solver produced a non-solution")
    return t


@dataclass(frozen=True)
class Rejection:
    h1: Poly
    h2: Poly
    reason: str


@dataclass
class IdentifyReport:
    solutions: list[EulerTriple] = field(default_factory=list)
    rejections: list[Rejection] = field(default_factory=list)
    exhaustive: bool = False

    def to_dict(self) -> dict:
        def coeffs(p: Poly) -> list[str]:
            return [str(c) for c in p.coeffs]

        return {
            "solutions": [
                {"h1": coeffs(t.h1), "h2": coeffs(t.h2), "f": coeffs(t.f)}
                for t in self.solutions
            ],
            "rejections": [
                {"h1": coeffs(r.h1), "h2": coeffs(r.h2), "reason": r.reason}
                for r in self.rejections
            ],
            "exhaustive": self.exhaustive,
        }


def _poly_key(p: Poly):
    # ints and Fractions compare by value, so integral Polys skip coeffs
    return (len(p.numerators), p.numerators if p.denominator == 1 else p.coeffs)


def _examine(a: Poly, b: Poly, h1m: Poly, h2m: Poly):
    """Search one monic decomposition; returns (solutions, reason, skipped):
    the triples found, the reason for rejecting the split (None
    when it has a solution) and whether a candidate deg f above
    MAX_F_DEGREE was skipped."""
    sols: list[EulerTriple] = []
    pairs, reason = leading_coeff_split(a, b, (h1m.degree, h2m.degree))
    if reason is not None:
        return sols, reason, False
    reason, skipped = REASON_NO_DEGREE, False
    for c1, c2 in pairs:
        h1 = h1m * c1
        h2 = h2m * c2
        if -(h1 * h2) != b:
            raise AssertionError("leading split does not reassemble b")
        for df in sorted(candidate_degrees(a, h1, h2)):
            if df > MAX_F_DEGREE:
                skipped = True
                continue
            reason = REASON_NO_F
            t = solve_f(a, h1, h2, df)
            if t is None:
                continue
            if build_euler_cf(t) != (a, b):
                raise AssertionError("identified triple fails round trip")
            sols.append(t)
    if sols:
        reason = None
    elif skipped:
        reason = REASON_F_BUDGET
    return sols, reason, skipped


def identify(a: Poly, b: Poly, factored=None) -> IdentifyReport:
    """Search for Euler triples (h1, h2, f) with b = -h1 h2 and
    f a = f(x-1) h1 + f(x+1) h2(x+1).

    ``factored`` optionally pre-factors b as (constant, [(block, mult), ...])
    from :func:`polycf.algebra.parse_factored`.  Without it, -b is factored
    over its rational roots, which polycf.algebra.rational_roots finds by
    p-adic lifting with no integer factoring, and any rootless residual of
    degree >= 2 becomes one block of multiplicity 1.  Each block p^m goes to h1 as p^e and to h2
    as p^(m-e), for every e in 0..m.

    The report lists every verified triple, the rejected decompositions with
    reasons, and whether the enumeration was exhaustive.  It is not when a
    block has degree >= 2, since such a block may factor further into splits
    that were not visited, or when a candidate deg f was above MAX_F_DEGREE.
    Such a degree is not solved at; a decomposition with one and no
    solution gets the rejection "f degree above the search budget".
    """
    if a.is_zero or b.is_zero:
        raise InvalidInput("a and b must be nonzero")
    if b.degree < 1:
        raise InvalidInput("deg b must be at least 1")
    if factored is not None:
        const, blocks = factored
        # degrees first (a zero block's None as 0): they bound the powers built
        degree = sum((p.degree or 0) * m for p, m in blocks)
        if degree != b.degree or assemble_factored(const, blocks) != b:
            raise InvalidInput("factored form does not multiply back to b")
    else:
        _, linear, residual = factor_integer_rooted(-b)
        blocks = list(linear)
        if residual.degree >= 1:
            blocks.append((residual, 1))
    exhaustive = all(p.degree == 1 for p, _ in blocks)

    # one product per exponent vector e, 0 <= e_i <= m_i: prod p_i^e_i is a
    # block times the product for the vector one lower in its last nonzero
    # entry.  In this (mixed-radix) order the complement m - e of vector k
    # is vector N-1-k, so split k is (prods[k], prods[-1-k]); h1m h2m is the
    # same for every split, so h1m alone sorts them.  Blocks that share a
    # factor give equal products, and such a split is examined once
    prods = [Poly.one()]
    for p, mult in blocks:
        prods, prefixes = [], prods
        for q in prefixes:
            prods.append(q)
            for _ in range(mult):
                q = p * q
                prods.append(q)
    keys = [_poly_key(q) for q in prods]
    distinct = {key: k for k, key in enumerate(keys)}

    report = IdentifyReport(exhaustive=exhaustive)
    for k in sorted(distinct.values(), key=keys.__getitem__):
        h1m, h2m = prods[k], prods[-1 - k]
        sols, reason, skipped = _examine(a, b, h1m, h2m)
        report.solutions.extend(sols)
        if reason is not None:
            report.rejections.append(Rejection(h1m, h2m, reason))
        if skipped:
            report.exhaustive = False
    # one triple can come twice only from two candidate degrees of a pair
    report.solutions = sorted(
        dict.fromkeys(report.solutions),
        key=lambda t: (_poly_key(t.h1), _poly_key(t.h2), _poly_key(t.f))
    )
    return report
