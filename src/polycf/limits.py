"""Limit extraction: numeric estimates and closed forms.

Three closed-form regimes are implemented next to the generic exact numeric
estimator:

* dominance: when h1/h2 eventually exceeds 1 in ratio, the Euler sum blows
  up and the CF value collapses to -h2(1);
* telescoping: equal degrees, equal leading coefficients, and integer roots
  make the summand s_k a rational function of k whose partial fraction
  expansion sums to a rational combination of zeta values; its poles are
  read off the root lists of h1, h2 and f it is built from;
* degree one: linear h1, h2 give Beta-integral sums with a fully rational
  special case at equal slopes.

No floating point: estimates are Fractions, closed forms are symbolic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    Poly,
    RatFunc,
    factor_integer_rooted,
    is_inf,
    rat,
    rational_roots,
    taylor_div,
)
from .errors import (
    InvalidInput,
    NonTelescoping,
    PoleInFormula,
    PreconditionViolated,
)
from .euler import EulerTriple
from .mobius import CFSpec, _cleared, _scaled_value, convergents


@dataclass(frozen=True)
class LimitEstimate:
    """Result of numeric_limit: the deepest evaluated convergent, the last
    checkpoint-to-checkpoint delta, the depth reached, and a verdict
    ("estimated" when the delta dropped under eps, else "inconclusive")."""

    value: Fraction
    last_delta: Fraction | None
    depth_used: int
    verdict: str

    ESTIMATED = "estimated"
    INCONCLUSIVE = "inconclusive"


def numeric_limit(cf: CFSpec, eps, max_depth: int = 1 << 16) -> LimitEstimate:
    """Estimate the CF limit from exact convergents at doubling checkpoints.

    Checkpoints are depths 8, 16, 32, ...; the run stops at the first
    checkpoint pair with |x(2n) - x(n)| < eps, reporting x(2n).  A CF
    truncated by a zero b(i) has an exact value, returned with delta 0.
    Checkpoints whose convergent is a pole are skipped for comparison, and
    one whose previous convergent x(2n - 1) is a pole (q_prev = 0) never
    ends the run: K n/0, whose convergents alternate between a pole and 0,
    has no limit, though its checkpoints all read 0.

    The stream walked is that of the cleared CF (b L^2, a L; see
    polycf.mobius._cleared), whose states are plain ints for Poly
    coefficients; a checkpoint reads head + p/(L q), one gcd per checkpoint
    in place of one per term.
    """
    eps = rat(eps)
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    L, cleared = _cleared(cf)
    checkpoint = 8
    prev = None
    last_val = None
    last_delta = None
    depth_seen = 0
    for state in convergents(cleared):
        depth = state.n - 1
        if state.truncated:
            v = _scaled_value(state, L)
            value = cf.head + v if not is_inf(v) else v
            return LimitEstimate(value, Fraction(0), depth, LimitEstimate.ESTIMATED)
        if depth == checkpoint:
            v = _scaled_value(state, L)
            if not is_inf(v):
                val = cf.head + v
                if prev is not None:
                    last_delta = abs(val - prev)
                    if last_delta < eps and state.q_prev != 0:
                        return LimitEstimate(val, last_delta, depth, LimitEstimate.ESTIMATED)
                prev = val
                last_val = val
            checkpoint *= 2
        depth_seen = depth
        if depth >= max_depth:
            break
    return LimitEstimate(last_val, last_delta, depth_seen, LimitEstimate.INCONCLUSIVE)


def dominant_limit(t: EulerTriple) -> Fraction | None:
    """Exact CF limit -h2(1) in the dominance regime, else None.

    Applies to trivial-family triples (f = 1).  The regime: deg h1 > deg h2,
    or equal degrees with |lead h1| > |lead h2| (then the underlying sum
    grows without bound and 1/S dies).  Returns None when dominance fails or
    when h1/h2 vanish somewhere on the index range (the CF truncates and the
    regime argument does not apply).
    """
    if t.f != Poly.one():
        raise InvalidInput("dominant_limit needs the trivial family f = 1")
    h1, h2 = t.h1, t.h2
    if _has_integer_root_at_least(h1, 1) or _has_integer_root_at_least(h2, 2):
        return None
    d1, d2 = h1.degree, h2.degree
    if d1 > d2 or (d1 == d2 and abs(h1.lead) > abs(h2.lead)):
        return -h2(Fraction(1))
    return None


def _has_integer_root_at_least(p: Poly, bound: int) -> bool:
    """Whether p has an integer root r >= bound, for a bound >= 1.

    By Descartes' rule of signs, p has no positive root when its nonzero
    coefficients share one sign; only otherwise are its roots searched.
    """
    signs = {c > 0 for c in p.numerators if c}
    if len(signs) < 2:
        return False
    return any(r.denominator == 1 and r >= bound for r in rational_roots(p))


# ---------------------------------------------------------------------------
# telescoping sums of zeta type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaCombo:
    """constant + sum of coeff * zeta(k), all exact rationals, keys k >= 2.

    status is "exact" or "divergent"; a divergent combo carries no zeta
    coefficients, only (when the divergence came from uncancelled depth-one
    poles) the uncancelled residue sum.
    """

    constant: Fraction = Fraction(0)
    zeta: dict = field(default_factory=dict)
    status: str = "exact"
    residue: Fraction | None = None

    EXACT = "exact"
    DIVERGENT = "divergent"

    def __post_init__(self):
        for k in self.zeta:
            if not isinstance(k, int) or k < 2:
                raise ValueError(f"zeta index {k!r} out of range (need int >= 2)")
        if self.status == self.DIVERGENT and self.zeta:
            raise ValueError("a divergent combo cannot carry zeta coefficients")

    def evaluate(self, zeta_values: dict) -> Fraction:
        """Exact evaluation given reference values for each zeta index."""
        if self.status != self.EXACT:
            raise ValueError("cannot evaluate a divergent combo")
        total = self.constant
        for k, coeff in self.zeta.items():
            total += coeff * rat(zeta_values[k])
        return total

    def __str__(self):
        if self.status == self.DIVERGENT:
            tail = "" if self.residue is None else f" (uncancelled residue {self.residue})"
            return "divergent" + tail
        parts = []
        for k in sorted(self.zeta):
            c = self.zeta[k]
            if c == 0:
                continue
            if not parts:
                lead = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{lead}zeta({k})")
            else:
                sign = " + " if c > 0 else " - "
                mag = abs(c)
                parts.append(sign + (f"zeta({k})" if mag == 1 else f"{mag}*zeta({k})"))
        if self.constant != 0 or not parts:
            if not parts:
                parts.append(str(self.constant))
            else:
                parts.append(
                    (" + " if self.constant > 0 else " - ") + str(abs(self.constant))
                )
        return "".join(parts)


def _integer_roots_only(p: Poly, label: str) -> list[int]:
    """Roots of p with multiplicity, as a flat integer list; p must split
    into integer-rooted linear factors."""
    content, factors, residual = factor_integer_rooted(p)
    if residual != Poly.one():
        raise NonTelescoping(f"{label} has a factor without rational roots: {residual}")
    roots: list[int] = []
    for lin, mult in factors:
        r = -lin.coeff(0)
        if r.denominator != 1:
            raise NonTelescoping(f"{label} has a non-integer root {r}")
        roots.extend([int(r)] * mult)
    return sorted(roots)


def _summand_roots(t: EulerTriple) -> tuple[Fraction, Counter, Counter]:
    """The summand of :func:`telescoped_summand` as c prod (k + z) / prod (k + p).

    Returns c and the multisets of the z and of the p, read off the integer
    roots of h1, h2 and f, common entries cancelled.  The checks below force
    every p >= 1, so no pole lies on k >= 0.
    """
    h1, h2, f = t.h1, t.h2, t.f
    if h1.degree != h2.degree:
        raise NonTelescoping("h1 and h2 degrees differ")
    if h1.lead != h2.lead:
        raise NonTelescoping("leading coefficients differ")
    r1 = _integer_roots_only(h1, "h1") if h1.degree else []
    r2 = _integer_roots_only(h2, "h2") if h2.degree else []
    rf = _integer_roots_only(f, "f") if f.degree else []
    if any(r >= 2 for r in r2):
        raise NonTelescoping("h2 vanishes at an index >= 2")
    if any(r >= 0 for r in rf):
        raise NonTelescoping("f vanishes at a nonnegative integer")
    if any(r >= 1 for r in r1):
        raise NonTelescoping("h1 vanishes at a positive index (sum is finite)")
    # f(k) f(k+1) = lead(f)^2 prod (k - r)(k + 1 - r) over the roots r of f
    c = f(Fraction(0)) * f(Fraction(1)) / f.lead**2
    zs, ps = Counter(), Counter([-r for r in rf] + [1 - r for r in rf])
    for r, s in zip(r1, r2):
        # prod_{i<=k} (i+u)/(i+v) = (v!/u!) prod_{j=v+1}^{u} (k+j)
        # / prod_{j=u+1}^{v} (k+j), empty products being 1
        u, v = -r, 1 - s
        c *= Fraction(math.factorial(v), math.factorial(u))
        zs.update(range(v + 1, u + 1))
        ps.update(range(u + 1, v + 1))
    common = zs & ps
    return c, zs - common, ps - common


def _linear_product(roots) -> Poly:
    """prod (x + z)^m over the items (z, m) of roots."""
    out = Poly.one()
    for z, m in roots.items():
        out = out * Poly((z, 1)) ** m
    return out


def telescoped_summand(t: EulerTriple) -> RatFunc:
    """The summand s_k of the Euler sum as an exact rational function of k.

    s_k = (f(0) f(1) / (f(k) f(k+1))) * prod_{i=1}^{k} h1(i)/h2(i+1); the
    product telescopes factor by factor once h1 and h2 have equal degree,
    equal leading coefficient, and integer roots.  Raises NonTelescoping
    outside that regime (including poles of the summand on k >= 0).
    """
    c, zs, ps = _summand_roots(t)
    return RatFunc(c * _linear_product(zs), _linear_product(ps))


def _prefix_power_sum(alpha: int, s: int) -> Fraction:
    return sum((Fraction(1, j**s) for j in range(1, alpha)), Fraction(0))


def telescoping_zeta_sum(t: EulerTriple) -> ZetaCombo:
    """Sum the Euler series of a telescoping triple in closed form.

    The summand (see :func:`telescoped_summand`) is expanded in partial
    fractions over the poles its construction lists (no root finding);
    orders >= 2 contribute zeta values minus finite prefixes, order-1 poles
    must cancel (their residues sum to zero) and contribute a rational
    harmonic correction.  Uncancelled
    order-1 residues, or a nonvanishing polynomial part, mean the series
    diverges and the combo says so.
    """
    scale, zs, ps = _summand_roots(t)
    if sum(zs.values()) >= sum(ps.values()):
        return ZetaCombo(Fraction(0), {}, ZetaCombo.DIVERGENT)
    num = scale * _linear_product(zs)
    terms: dict[tuple[int, int], Fraction] = {}
    for alpha, mult in ps.items():
        # Laurent coefficients at k = -alpha: Taylor expansion of num/rest
        rest = _linear_product({p: m for p, m in ps.items() if p != alpha})
        coeffs = taylor_div(num.shift(-alpha), rest.shift(-alpha), mult)
        for j, cval in enumerate(coeffs):
            if cval != 0:
                terms[(alpha, mult - j)] = cval
    const = Fraction(0)
    zeta: dict[int, Fraction] = {}
    residues = [(alpha, c) for (alpha, order), c in terms.items() if order == 1]
    total_residue = sum((c for _, c in residues), Fraction(0))
    if total_residue != 0:
        return ZetaCombo(Fraction(0), {}, ZetaCombo.DIVERGENT, residue=total_residue)
    for (alpha, order), c in sorted(terms.items()):
        if order > 1:
            zeta[order] = zeta.get(order, 0) + c
        const -= c * _prefix_power_sum(alpha, order)
    zeta = {k: v for k, v in zeta.items() if v != 0}
    return ZetaCombo(const, zeta, ZetaCombo.EXACT)


@dataclass(frozen=True)
class ClosedForm:
    """Symbolic CF limit prefactor * (1/S - 1) with S a ZetaCombo."""

    prefactor: Fraction
    combo: ZetaCombo

    def evaluate(self, zeta_values: dict) -> Fraction:
        s = self.combo.evaluate(zeta_values)
        if s == 0:
            raise ZeroDivisionError("sum evaluates to zero")
        return self.prefactor * (1 / s - 1)

    def divergent_value(self) -> Fraction:
        """Exact limit when the sum diverges to infinity: 1/S dies."""
        if self.combo.status != ZetaCombo.DIVERGENT:
            raise ValueError("combo is not divergent")
        return -self.prefactor

    def __str__(self):
        if self.combo.status == ZetaCombo.DIVERGENT:
            return f"{-self.prefactor} (sum diverges)"
        if self.prefactor == 1:
            return f"1/({self.combo}) - 1"
        return f"{self.prefactor} * (1/({self.combo}) - 1)"


def cf_limit_from_zeta(t: EulerTriple, z: ZetaCombo) -> ClosedForm:
    """Wrap a summed series into the CF limit closed form.

    The CF value is (f(1) h2(1) / f(0)) * (1/S - 1); this keeps S symbolic.
    """
    f0 = t.f(Fraction(0))
    f1 = t.f(Fraction(1))
    if f0 == 0:
        raise PoleInFormula(0, "f")
    if f1 == 0:
        raise PoleInFormula(1, "f")
    return ClosedForm(f1 * t.h2(Fraction(1)) / f0, z)


# ---------------------------------------------------------------------------
# degree-one closed forms (Beta integrals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaForm:
    """Closed form of the Euler sum for linear h1 = a n + b, h2 = c n + d.

    kind "rational": a = c, the sum collapses to (d+a)/(d-b); sum_value and
    cf_value are exact.  kind "integral": a < c, the sum is described by a
    Beta-weighted integral with exponents (b/a, d/c - b/a) and inner ratio
    a/c; the descriptor is symbolic (no numeric integration here).
    """

    kind: str
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    sum_value: Fraction | None = None
    cf_value: Fraction | None = None
    t_exponent: Fraction | None = None
    omt_exponent: Fraction | None = None
    ratio: Fraction | None = None

    RATIONAL = "rational"
    INTEGRAL = "integral"

    def __str__(self):
        if self.kind == self.RATIONAL:
            return f"sum = {self.sum_value}, cf = {self.cf_value}"
        return (
            f"sum = (1/B({1 + self.t_exponent}, {1 + self.omt_exponent})) * "
            f"integral_0^1 t^({self.t_exponent}) (1-t)^({self.omt_exponent}) "
            f"/ (1 - {self.ratio} t) dt"
        )


def beta_degree1(h1: Poly, h2: Poly) -> BetaForm:
    """Beta-integral closed form for the trivial family with linear h1, h2.

    Preconditions (violations raise PreconditionViolated naming the failed
    condition): writing h1 = a n + b and h2 = c n + d, require a > 0,
    a <= c, b >= 0 and 1 + d/c > b/a; the rational branch (a = c)
    additionally requires d > b.
    """
    if h1.is_zero or h1.degree > 1 or h2.is_zero or h2.degree > 1:
        raise PreconditionViolated("h1 and h2 must be nonzero of degree <= 1")
    a, b = h1.coeff(1), h1.coeff(0)
    c, d = h2.coeff(1), h2.coeff(0)
    if not a > 0:
        raise PreconditionViolated("a > 0 fails")
    if not a <= c:
        raise PreconditionViolated("a <= c fails")
    if not b >= 0:
        raise PreconditionViolated("b >= 0 fails")
    if not 1 + d / c > b / a:
        raise PreconditionViolated("1 + d/c > b/a fails")
    if a == c:
        if not d > b:
            raise PreconditionViolated("d > b fails")
        total = (d + a) / (d - b)
        cfv = h2(Fraction(1)) * (1 / total - 1)
        return BetaForm(BetaForm.RATIONAL, a, b, c, d, sum_value=total, cf_value=cfv)
    return BetaForm(
        BetaForm.INTEGRAL,
        a,
        b,
        c,
        d,
        t_exponent=b / a,
        omt_exponent=d / c - b / a,
        ratio=a / c,
    )
