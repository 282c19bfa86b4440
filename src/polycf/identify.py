"""Identify Euler triples behind a polynomial CF coefficient pair (a, b).

Given a and b, the task is to find every factorization b = -h1*h2 together
with a polynomial f such that

    f(x) a(x) = f(x-1) h1(x) + f(x+1) h2(x+1).

The search factors -b over the rationals, enumerates how the factor base can
be split between h1 and h2, pins the two leading coefficients from the
leading coefficients of a and b, bounds deg f by a three-term degree
analysis, and then solves for f by reducing the images of the powers of x
under f -> f a - f(x-1) h1 - f(x+1) h2(x+1) by degree (:func:`solve_f`).
These steps read each Poly's stored ints, with no Fraction or Poly per
image.  Everything is exact; every returned triple is re-verified against
(a, b) before it is reported.

The splits are prefix products: each split (h1, h2) of the blocks so far is
extended by (p^e, p^(m-e)) for every e in 0..m and the next block p^m, from
one table of powers of p; the splits are then sorted by (h1, h2).

The candidate degrees of f come from per-case closed formulas
(:func:`candidate_degrees`).  The test suite checks them against an
independent oracle, the generic recurrence analysis in
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
from .errors import InvalidInput
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
    """Candidate deg f values from the per-case closed formulas.

    Dispatches on the degree pattern of (a, h1, h2); coefficients are read
    at the fixed positions d, d-1, d-2 where d = max of the three degrees,
    with missing positions as zero.  The empty set comes back when the x^d
    coefficients of a, h1 and h2 do not balance, when h1 and h2 have equal
    leads but the x^(d-1) coefficients do not balance either, and for
    non-integer or negative formula values.
    """
    if a.is_zero or h1.is_zero or h2.is_zero:
        raise InvalidInput("a, h1, h2 must be nonzero")
    da, d1, d2 = a.degree, h1.degree, h2.degree
    d = max(da, d1, d2)
    # every formula is a ratio of terms linear in the coefficients (the
    # quadratic's roots too), so one common integer scale L leaves it as is
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
    a1, g1, g2 = at(ca, d - 1), at(c1, d - 1), at(c2, d - 1)

    def keep(num: int, den: int) -> set[int]:
        q, r = divmod(num, den)
        return {q} if not r and q >= 0 else set()

    if d1 == d and da == d and d2 < d:
        # h1 carries the lead of a
        return keep(a1 - g1 - g2, -A)
    if d2 == d and da == d and d1 < d:
        # h2 carries the lead of a; the shift in h2(x+1) adds d*A
        return keep(a1 - g1 - g2 - d * A, A)
    if d1 == d and d2 == d and da < d:
        # opposite leads u = -v != 0
        return keep(a1 - g1 - g2 - d * v, v - u)
    # d1 == d2 == da == d: every other pattern fails A == u + v
    if u != v:
        return keep(a1 - g1 - g2 - d * v, v - u)
    # equal leads: the x^(k+d-1) coefficient of the image of x^k is this
    # constant for every k, so when it is nonzero no f exists
    if a1 - g1 - g2 - d * v:
        return set()
    # otherwise the degree obeys a quadratic,
    # const + df*(g1 - g2 - d*v) - C(df,2)*A = 0 with A = 2u
    a2, f1, f2 = at(ca, d - 2), at(c1, d - 2), at(c2, d - 2)
    shift2 = f2 + (d - 1) * g2 + d * (d - 1) // 2 * v
    qa = -u
    qb = (g1 - g2 - d * v) + u
    qc = a2 - f1 - shift2
    sq = _exact_isqrt(qb * qb - 4 * qa * qc)
    if sq is None:
        return set()
    return keep(-qb + sq, 2 * qa) | keep(-qb - sq, 2 * qa)


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


def solve_f(a: Poly, h1: Poly, h2: Poly, d_f: int) -> Poly | None:
    """A nonzero polynomial f with deg f <= d_f solving
    f(x)a(x) = f(x-1)h1(x) + f(x+1)h2(x+1), monic; None if the only
    solution is zero.

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
    too, with the pair's content divided out: nonzero multiples of the
    rational vectors, so the monic f is the same.  The returned polynomial
    always satisfies the relation exactly.
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
            # the content divides g's top entry, the scale of x^i: there is
            # none when that is +-1, and the gcd is cheap started from it
            if abs(g[-1]) != 1:
                k = math.gcd(g[-1], *image, *g)
                if k != 1:
                    image, g = [c // k for c in image], [c // k for c in g]
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
    # exact verification, cheap and non-negotiable
    check = f * a - f.shift(-1) * h1 - f.shift(1) * h2s
    if not check.is_zero:
        raise AssertionError("solver produced a non-solution")
    return f


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
    """Search one monic decomposition; returns (solutions, rejections)."""
    sols: list[EulerTriple] = []
    rejs: list[Rejection] = []
    pairs, reason = leading_coeff_split(a, b, (h1m.degree, h2m.degree))
    if reason is not None:
        rejs.append(Rejection(h1m, h2m, reason))
        return sols, rejs
    found_degree = False
    found_f = False
    over_budget = False
    for c1, c2 in pairs:
        h1 = h1m * c1
        h2 = h2m * c2
        if -(h1 * h2) != b:
            raise AssertionError("leading split does not reassemble b")
        dfs = candidate_degrees(a, h1, h2)
        if not dfs:
            continue
        found_degree = True
        for df in sorted(dfs):
            if df > MAX_F_DEGREE:
                over_budget = True
                continue
            f = solve_f(a, h1, h2, df)
            if f is None:
                continue
            t = EulerTriple(h1, h2, f)
            if build_euler_cf(t) != (a, b):
                raise AssertionError("identified triple fails round trip")
            found_f = True
            sols.append(t)
    if not found_degree:
        rejs.append(Rejection(h1m, h2m, REASON_NO_DEGREE))
    elif over_budget:
        rejs.append(Rejection(h1m, h2m, REASON_F_BUDGET))
    elif not found_f:
        rejs.append(Rejection(h1m, h2m, REASON_NO_F))
    return sols, rejs


def identify(a: Poly, b: Poly, factored=None) -> IdentifyReport:
    """Search for Euler triples (h1, h2, f) with b = -h1 h2 and
    f a = f(x-1) h1 + f(x+1) h2(x+1).

    ``factored`` optionally pre-factors b as (constant, [(block, mult), ...])
    from :func:`polycf.algebra.parse_factored`.  Without it, -b is factored
    over its rational roots and any rootless residual of degree >= 2 becomes
    one block of multiplicity 1.  Each block p^m goes to h1 as p^e and to h2
    as p^(m-e), for every e in 0..m.

    The report lists every verified triple, the rejected decompositions with
    reasons, and whether the enumeration was exhaustive.  It is not when a
    block has degree >= 2, since such a block may factor further into splits
    that were not visited, or when a candidate deg f was above MAX_F_DEGREE:
    a decomposition with a candidate degree above the budget is not solved
    at that degree, and gets the rejection "f degree above the search
    budget".  Factoring the integer coefficients of -b has a budget too
    (see polycf.algebra.factor_int); past it, identify raises InvalidInput.
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

    decomps = [(Poly.one(), Poly.one())]
    for p, mult in blocks:
        powers = [Poly.one()]
        for _ in range(mult):
            powers.append(powers[-1] * p)
        decomps = [
            (h1m * powers[e], h2m * powers[mult - e])
            for h1m, h2m in decomps
            for e in range(mult + 1)
        ]
    decomps.sort(key=lambda pair: (_poly_key(pair[0]), _poly_key(pair[1])))

    report = IdentifyReport(exhaustive=exhaustive)
    seen = set()
    for h1m, h2m in decomps:
        sols, rejs = _examine(a, b, h1m, h2m)
        for t in sols:
            key = (t.h1, t.h2, t.f)
            if key not in seen:
                seen.add(key)
                report.solutions.append(t)
        report.rejections.extend(rejs)
        if any(r.reason == REASON_F_BUDGET for r in rejs):
            report.exhaustive = False
    report.solutions.sort(
        key=lambda t: (_poly_key(t.h1), _poly_key(t.h2), _poly_key(t.f))
    )
    return report
