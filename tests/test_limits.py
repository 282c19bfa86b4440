"""Tests for limit machinery: numeric estimation, the dominance shortcut,
telescoping zeta sums, and the degree-one Beta closed forms.

Every closed form asserted exactly is also cross-checked against a second
route (literal products, exact partial sums, or the numeric estimator with
reference constants), so no identity is trusted on one derivation alone.
"""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polycf.limits
import polycf.mobius
from polycf.algebra import rational_roots

from polycf import (
    BetaForm,
    CFSpec,
    ClosedForm,
    EulerTriple,
    InvalidInput,
    LimitEstimate,
    NonTelescoping,
    Poly,
    PoleInFormula,
    PreconditionViolated,
    beta_degree1,
    cf_limit_from_zeta,
    constant_cf_limit,
    convergents,
    dominant_limit,
    euler_partial_value,
    numeric_limit,
    telescoped_summand,
    telescoping_zeta_sum,
    trivial_triple,
    ZetaCombo,
)

from _reference import (
    e_ref,
    outcome,
    python_calls,
    reference_numeric_limit,
    reference_zeta_sum,
    zeta_ref,
)
from _strategies import poly_cfs

X = Poly.x()
ONE = Poly.one()

ZETA = {k: zeta_ref(k) for k in (2, 3, 4, 5)}


def literal_summand(t: EulerTriple, k: int) -> Fraction:
    """Route independent of telescoped_summand: the raw product definition."""
    prod = Fraction(1)
    for i in range(1, k + 1):
        prod *= t.h1(Fraction(i)) / t.h2(Fraction(i + 1))
    f = t.f
    return f(Fraction(0)) * f(Fraction(1)) / (f(Fraction(k)) * f(Fraction(k + 1))) * prod


# ---------------------------------------------------------------------------
# numeric_limit
# ---------------------------------------------------------------------------


def test_numeric_limit_rejects_bad_eps():
    cf = CFSpec(b=ONE, a=ONE)
    with pytest.raises(InvalidInput):
        numeric_limit(cf, 0)
    with pytest.raises(InvalidInput):
        numeric_limit(cf, Fraction(-1, 10))


def test_numeric_limit_golden_section():
    # K(1/1) = (sqrt(5)-1)/2; the classifier supplies the exact root
    cf = CFSpec(b=ONE, a=ONE)
    est = numeric_limit(cf, Fraction(1, 10**12))
    assert est.verdict == LimitEstimate.ESTIMATED
    assert est.last_delta is not None and est.last_delta < Fraction(1, 10**12)
    root = constant_cf_limit(Fraction(1), Fraction(1)).root
    assert abs(est.value - root.approx(30)) < Fraction(1, 10**10)


def test_numeric_limit_of_factorial_series_cf():
    # b(n) = -n, a(n) = n+2 comes from the triple (1, n, 1); its sum is
    # sum 1/(k+1)! = e - 1, so the CF value is (2-e)/(e-1)
    t = trivial_triple(ONE, X)
    est = numeric_limit(CFSpec(b=t.b, a=t.a), Fraction(1, 10**12))
    assert est.verdict == LimitEstimate.ESTIMATED
    assert abs(est.value - (2 - e_ref()) / (e_ref() - 1)) < Fraction(1, 10**10)


def test_numeric_limit_truncated_is_exact():
    # b hits zero at i=3: the CF freezes at its depth-2 value; depth_used
    # counts the consumed terms, including the vanishing one
    cf = CFSpec(b=[2, 3, 0, 5], a=[4, 1, 1, 1])
    est = numeric_limit(cf, Fraction(1, 10**30))
    frozen = Fraction(2, 4 + Fraction(3, 1))
    assert est == LimitEstimate(frozen, Fraction(0), 3, LimitEstimate.ESTIMATED)


def test_numeric_limit_skips_pole_checkpoints():
    """A denominator zero exactly at a checkpoint depth must not abort or
    poison the comparison; the estimator waits for the next checkpoint."""
    den = [Fraction(0), Fraction(1)]  # den_0, den_1 for a = b = 1
    for _ in range(6):
        den.append(den[-1] + den[-2])
    # choose term 8 so den_8 = a8*den_7 + den_6 = 0
    a8 = -den[6] / den[7]
    terms_a = [Fraction(1)] * 7 + [a8] + [Fraction(1)] * 200
    cf = CFSpec(b=[Fraction(1)] * 208, a=terms_a)
    states = list(convergents(cf))
    assert any(state.n - 1 == 8 and state.value is not None for state in states)
    est = numeric_limit(cf, Fraction(1, 1000), max_depth=200)
    assert est.verdict == LimitEstimate.ESTIMATED
    assert est.depth_used >= 32


def test_numeric_limit_inconclusive_when_capped():
    cf = CFSpec(b=ONE, a=ONE)
    est = numeric_limit(cf, Fraction(1, 10**40), max_depth=20)
    assert est.verdict == LimitEstimate.INCONCLUSIVE
    assert est.depth_used == 20
    assert est.last_delta is not None and est.last_delta > 0


def test_numeric_limit_does_not_call_a_cf_without_a_limit_converged():
    # K n/0: the convergents alternate between INF at odd depths and 0 at
    # even ones, so every checkpoint reads 0 next to a pole (q_prev = 0)
    cf = CFSpec(b=X, a=Poly.zero())
    est = numeric_limit(cf, Fraction(1, 10), 64)
    assert est == LimitEstimate(Fraction(0), Fraction(0), 64, LimitEstimate.INCONCLUSIVE)
    assert est == reference_numeric_limit(cf, Fraction(1, 10), 64)
    states = list(itertools.islice(convergents(cf), 65))
    assert [s.q_prev == 0 for s in states[8::8]] == [True] * 8


@settings(max_examples=100, deadline=None)
@given(poly_cfs(), st.sampled_from([Fraction(1, 10), Fraction(1, 1000)]), st.integers(1, 512))
def test_numeric_limit_matches_stream_walk(cf, eps, max_depth):
    assert numeric_limit(cf, eps, max_depth) == reference_numeric_limit(cf, eps, max_depth)


def test_numeric_limit_pole_checkpoints_match_stream_walk():
    # a = n + 1/2, b = -(n + 1/2)(n - 1/2): q = 0 at the checkpoints 8 and 32
    c = X + Fraction(1, 2)
    cf = CFSpec(b=-(c * c.shift(-1)), a=c, head=Fraction(1, 3))
    assert numeric_limit(cf, Fraction(1, 10), 64) == reference_numeric_limit(cf, Fraction(1, 10), 64)


def test_numeric_limit_walks_integer_states(monkeypatch):
    # rational coefficients are cleared before the walk: the stream yields
    # only the checkpoint states, each holds plain ints, and the estimate
    # is unchanged
    seen = []
    stream = polycf.limits.convergents

    def recording(*args, **kwargs):
        for state in stream(*args, **kwargs):
            seen.append(state)
            yield state

    monkeypatch.setattr(polycf.limits, "convergents", recording)
    t = trivial_triple(X, X + Fraction(1, 2))
    cf = CFSpec(b=t.b, a=t.a)
    got = numeric_limit(cf, Fraction(1, 1000), max_depth=256)
    assert [s.n - 1 for s in seen] == [8, 16, 32, 64, 128, 256]
    assert all(type(s.p) is int and type(s.q) is int for s in seen)
    assert got == reference_numeric_limit(cf, Fraction(1, 1000), max_depth=256)


def test_numeric_limit_makes_no_python_call_per_term():
    # the steps between two checkpoints are one block of the product tree
    t = trivial_triple(X, X + Fraction(1, 4))
    run = lambda: numeric_limit(CFSpec(b=t.b, a=t.a), Fraction(1, 1000), 4096)
    run()
    assert python_calls(run) <= 4096 // 2


def test_numeric_limit_never_walks_the_per_term_stream(monkeypatch):
    def per_term(pairs):
        raise AssertionError("numeric_limit walked the per-term stream")

    monkeypatch.setattr(polycf.mobius, "convergents_from_terms", per_term)
    t = trivial_triple(X, X + Fraction(1, 2))
    for cf in (CFSpec(b=t.b, a=t.a), CFSpec(b=[2, 3, 0, 5], a=[4, 1, 1, 1]), CFSpec(b=[1] * 40, a=[1] * 40)):
        assert numeric_limit(cf, Fraction(1, 1000), 256) == reference_numeric_limit(cf, Fraction(1, 1000), 256)


@pytest.mark.parametrize("max_depth", [0, 7, 8, 9, 64, 256, 257])
def test_numeric_limit_at_and_between_checkpoints(max_depth):
    # a max_depth that is itself a checkpoint is read once, as a checkpoint
    for cf in (CFSpec(b=ONE, a=ONE), CFSpec(b=X, a=X + Fraction(1, 3)), CFSpec(b=-X * X, a=2 * X + 1)):
        for eps in (Fraction(1, 10), Fraction(1, 10**40)):
            assert numeric_limit(cf, eps, max_depth) == reference_numeric_limit(cf, eps, max_depth)


@pytest.mark.parametrize(
    "a, b",
    [
        # K -1/1 up to an equivalence transform: period 3
        (X + Fraction(1, 2), -X * X + Fraction(1, 4)),
        (ONE, -ONE),
        # c = -1/3: 1 + 4c < 0, the tail K c/1 has no period at all
        (X + 2, -(X + 1) * (X + 2) / 3),
        (X * X + 1, -2 * (X * X + 1) * (X * X - 2 * X + 2)),
    ],
)
def test_numeric_limit_never_estimates_a_cf_whose_normalized_tail_oscillates(a, b):
    # b = c a(x-1) a(x) with 1 + 4c < 0: the normalized tail is K c/1
    cf = CFSpec(b=b, a=a)
    for eps, max_depth in ((Fraction(1, 10), 64), (Fraction(1, 10**6), 1024)):
        est = numeric_limit(cf, eps, max_depth)
        assert (est.verdict, est.depth_used) == (LimitEstimate.INCONCLUSIVE, max_depth)
        assert est == reference_numeric_limit(cf, eps, max_depth)


@pytest.mark.parametrize(
    "a, b, verdict",
    [
        # c = -1/4: the tail K c/1 converges
        (X + 1, -(X * (X + 1)) / 4, LimitEstimate.ESTIMATED),
        # a(3) = 0: b(3) = 0 truncates the CF, whose value is exact
        (X - 3, -(X - 4) * (X - 3), LimitEstimate.ESTIMATED),
        # a(0) = 0: b(1) = 0, the CF is 0
        (X, -(X - 1) * X, LimitEstimate.ESTIMATED),
        # b is not c a(x-1) a(x)
        (2 * X + 1, -X * X, LimitEstimate.ESTIMATED),
    ],
)
def test_the_oscillation_rule_leaves_other_cfs_alone(a, b, verdict):
    cf = CFSpec(b=b, a=a)
    est = numeric_limit(cf, Fraction(1, 10), 4096)
    assert est.verdict == verdict
    assert est == reference_numeric_limit(cf, Fraction(1, 10), 4096)


# ---------------------------------------------------------------------------
# dominance shortcut
# ---------------------------------------------------------------------------


def test_dominant_limit_requires_trivial_family():
    t = EulerTriple(X + 2, X + 1, X + 2)
    with pytest.raises(InvalidInput):
        dominant_limit(t)


def test_dominant_limit_degree_gap():
    t = trivial_triple(X**2, X + 1)
    assert dominant_limit(t) == -2
    est = numeric_limit(CFSpec(b=t.b, a=t.a), Fraction(1, 10**9))
    assert abs(est.value + 2) < Fraction(1, 10**6)


def test_dominant_limit_lead_gap():
    t = trivial_triple(3 * X + 1, X + 5)
    assert dominant_limit(t) == -6
    est = numeric_limit(CFSpec(b=t.b, a=t.a), Fraction(1, 10**9))
    assert abs(est.value + 6) < Fraction(1, 10**6)


def test_dominant_limit_declines():
    assert dominant_limit(trivial_triple(X, X)) is None  # no dominance
    assert dominant_limit(trivial_triple(X * (X - 3), X + 1)) is None  # h1 root >= 1
    assert dominant_limit(trivial_triple(X**3, X - 2)) is None  # h2 root >= 2


@st.composite
def root_check_polys(draw):
    """Nonzero polynomials of degree <= 4 with small rational coefficients,
    zeros common and leads of either sign, half the time times (n - r) for
    a small integer r, so that integer roots at and around the bounds occur."""
    coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]), max_size=4))
    p = Poly(coeffs + [draw(st.sampled_from([1, -1, 2, -3, Fraction(-1, 2)]))])
    if draw(st.booleans()):
        p = p * (X - draw(st.integers(-2, 4)))
    return p


@settings(max_examples=300, deadline=None)
@given(p=root_check_polys(), bound=st.integers(1, 3))
def test_integer_root_check_matches_the_root_search(p, bound):
    """The sign-change shortcut of the dominance check answers as the full
    rational-root search does."""
    want = p.degree > 0 and any(
        r.denominator == 1 and r >= bound for r in rational_roots(p)
    )
    assert polycf.limits._has_integer_root_at_least(p, bound) == want


# ---------------------------------------------------------------------------
# telescoping zeta sums
# ---------------------------------------------------------------------------

TELESCOPING_CASES = [
    trivial_triple(X**2, X**2),
    trivial_triple(X**3, X**3),
    trivial_triple(X**2 * (X + 2), X**3),
    trivial_triple(X**3 * (X + 2), X**4),
    trivial_triple(X**2, X * (X + 1)),
    trivial_triple(X**3, X**2 * (X + 1)),
    EulerTriple(X * (X + 1), X * (X + 1), X + 1),
    trivial_triple(X**2, (X + 24) ** 2),
]


@pytest.mark.parametrize("t", TELESCOPING_CASES)
def test_summand_matches_literal_product(t):
    s = telescoped_summand(t)
    for k in range(26):
        assert s(Fraction(k)) == literal_summand(t, k)


def test_summand_closed_form_shape():
    s = telescoped_summand(trivial_triple(X**2, X**2))
    # sum over k of 1/(k+1)^2; the factor-by-factor collapse must produce
    # exactly that rational function
    assert s.num * ((X + 1) ** 2) == s.den


def test_pure_zeta_families():
    assert telescoping_zeta_sum(trivial_triple(X**2, X**2)) == ZetaCombo(
        Fraction(0), {2: Fraction(1)}
    )
    assert telescoping_zeta_sum(trivial_triple(X**3, X**3)) == ZetaCombo(
        Fraction(0), {3: Fraction(1)}
    )
    assert telescoping_zeta_sum(trivial_triple(X**4, X**4)) == ZetaCombo(
        Fraction(0), {4: Fraction(1)}
    )


def test_half_sum_family():
    # h1 = x^(d-1)(x+2), h2 = x^d gives (zeta(d-1) + zeta(d-2))/2 for d >= 4
    combo = telescoping_zeta_sum(trivial_triple(X**3 * (X + 2), X**4))
    assert combo == ZetaCombo(Fraction(0), {2: Fraction(1, 2), 3: Fraction(1, 2)})
    # at d = 3 the residues no longer cancel and the series diverges
    combo = telescoping_zeta_sum(trivial_triple(X**2 * (X + 2), X**3))
    assert combo.status == ZetaCombo.DIVERGENT
    assert combo.residue == Fraction(1, 2)
    assert combo.zeta == {}


def test_alternating_zeta_family():
    # h1 = x^d, h2 = x^(d-1)(x+1): alternating zeta tail with constant
    assert telescoping_zeta_sum(trivial_triple(X**2, X * (X + 1))) == ZetaCombo(
        Fraction(-2), {2: Fraction(2)}
    )
    assert telescoping_zeta_sum(trivial_triple(X**3, X**2 * (X + 1))) == ZetaCombo(
        Fraction(2), {2: Fraction(-2), 3: Fraction(2)}
    )
    assert telescoping_zeta_sum(trivial_triple(X**4, X**3 * (X + 1))) == ZetaCombo(
        Fraction(-2), {2: Fraction(2), 3: Fraction(-2), 4: Fraction(2)}
    )


def test_nontrivial_f_telescopes():
    """h1 = h2 = x(x+1) with f = x+1 sums to 8 zeta(2) - 12.

    By hand: the summand collapses to 4/((k+1)^2 (k+2)^2) whose partial
    fractions are 4/(k+1)^2 + 4/(k+2)^2 - 8/(k+1) + 8/(k+2); the order-one
    residues cancel and leave a harmonic constant.
    """
    t = EulerTriple(X * (X + 1), X * (X + 1), X + 1)
    s = telescoped_summand(t)
    assert s(Fraction(3)) == Fraction(4, 16 * 25)
    combo = telescoping_zeta_sum(t)
    assert combo == ZetaCombo(Fraction(-12), {2: Fraction(8)})
    form = cf_limit_from_zeta(t, combo)
    assert form.prefactor == 4
    est = numeric_limit(CFSpec(b=t.b, a=t.a), Fraction(1, 10**10))
    assert abs(est.value - form.evaluate(ZETA)) < Fraction(1, 10**8)


def test_zeta_value_against_numeric_cf():
    # convergence here is only quadratic in depth, so ask for a modest eps
    t = trivial_triple(X**2, X * (X + 1))
    form = cf_limit_from_zeta(t, telescoping_zeta_sum(t))
    est = numeric_limit(CFSpec(b=t.b, a=t.a), Fraction(1, 10**6))
    assert est.verdict == LimitEstimate.ESTIMATED
    assert abs(est.value - form.evaluate(ZETA)) < Fraction(1, 10**4)


def test_constant_summand_diverges_without_residue():
    # h1 = x+1, h2 = x makes every summand 1: polynomial part, no poles
    t = trivial_triple(X + 1, X)
    combo = telescoping_zeta_sum(t)
    assert combo.status == ZetaCombo.DIVERGENT
    assert combo.residue is None
    form = cf_limit_from_zeta(t, combo)
    assert form.divergent_value() == -1
    # the partial values really do sink toward -h2(1)
    assert abs(euler_partial_value(t, 200) + 1) < Fraction(1, 100)


def test_large_root_offset_sums_within_budget():
    """The summand is (25!)^2 / ((k+1)...(k+25))^2: its poles come from the
    roots of h2, not from trying the divisors of its constant."""
    start = time.monotonic()
    combo = telescoping_zeta_sum(trivial_triple(X**2, (X + 24) ** 2))
    elapsed = time.monotonic() - start
    assert combo == ZetaCombo(
        Fraction(-162466550113244405013436638978125, 4900472974260864),
        {2: Fraction(20154752301937500)},
    )
    assert str(combo) == (
        "20154752301937500*zeta(2) - 162466550113244405013436638978125/4900472974260864"
    )
    assert elapsed < 2.0, f"budget 2s exceeded: {elapsed:.1f}s"


@st.composite
def integer_rooted_triples(draw) -> EulerTriple:
    """h1 = g1 f and h2 = g2 f(x-1) with g1, g2, f constants times products
    of (x - r), every r in -6..2: most draws telescope (exactly or divergently), the rest
    fail one of telescoped_summand's checks, and now and then the degrees or
    leads of h1 and h2 differ or both carry an x^2 + 1 / x^2 pair."""
    root = st.integers(-6, 2)
    shape = draw(st.sampled_from(["plain"] * 7 + ["degree", "lead", "residual"]))
    lead = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
    deg = draw(st.integers(0, 3))
    deg2 = deg + 1 if shape == "degree" else deg
    g1 = Poly.const(lead)
    for r in draw(st.lists(root, min_size=deg, max_size=deg)):
        g1 = g1 * (X - r)
    g2 = Poly.const(3 if shape == "lead" else lead)
    for r in draw(st.lists(root, min_size=deg2, max_size=deg2)):
        g2 = g2 * (X - r)
    if shape == "residual":
        g1, g2 = g1 * (X**2 + 1), g2 * X**2
    f = Poly.const(draw(st.sampled_from([1, -2, Fraction(1, 3)])))
    for r in draw(st.lists(root, max_size=2)):
        f = f * (X - r)
    return EulerTriple(g1 * f, g2 * f.shift(-1), f)


@settings(max_examples=300, deadline=None)
@given(t=integer_rooted_triples())
def test_zeta_sum_matches_the_pole_finding_reference(t):
    got = outcome(telescoping_zeta_sum, t)
    assert got == outcome(reference_zeta_sum, t)
    if got[0] is ZetaCombo:
        s = telescoped_summand(t)
        assert all(s(Fraction(k)) == literal_summand(t, k) for k in range(8))


@pytest.mark.parametrize(
    "t, message",
    [
        (trivial_triple(X**2, X), "degrees differ"),
        (trivial_triple(2 * X, X), "leading coefficients differ"),
        (trivial_triple(X, X - 2), "h2 vanishes at an index >= 2"),
        (trivial_triple(X - 1, X), "sum is finite"),
        (EulerTriple(X, X - 1, X), "f vanishes at a nonnegative integer"),
        (trivial_triple(X + Fraction(1, 2), X), "non-integer root"),
        (trivial_triple(X**2 + 1, X**2), "without rational roots"),
    ],
)
def test_non_telescoping_regimes(t, message):
    with pytest.raises(NonTelescoping, match=message):
        telescoped_summand(t)


def test_zeta_combo_validation_and_rendering():
    with pytest.raises(ValueError):
        ZetaCombo(Fraction(0), {1: Fraction(1)})
    with pytest.raises(ValueError):
        ZetaCombo(Fraction(0), {2: Fraction(1)}, ZetaCombo.DIVERGENT)
    with pytest.raises(ValueError):
        ZetaCombo(Fraction(0), {}, ZetaCombo.DIVERGENT).evaluate(ZETA)
    assert str(ZetaCombo(Fraction(0), {2: Fraction(1)})) == "zeta(2)"
    assert str(ZetaCombo(Fraction(-2), {2: Fraction(2)})) == "2*zeta(2) - 2"
    assert (
        str(ZetaCombo(Fraction(2), {2: Fraction(-2), 3: Fraction(2)}))
        == "-2*zeta(2) + 2*zeta(3) + 2"
    )
    assert str(ZetaCombo()) == "0"
    assert str(ZetaCombo(Fraction(0), {}, ZetaCombo.DIVERGENT, Fraction(1, 2))) == (
        "divergent (uncancelled residue 1/2)"
    )


def test_closed_form_rendering_and_guards():
    combo = ZetaCombo(Fraction(0), {3: Fraction(1)})
    form = cf_limit_from_zeta(trivial_triple(X**3, X**3), combo)
    assert form.prefactor == 1
    assert str(form) == "1/(zeta(3)) - 1"
    assert str(ClosedForm(Fraction(4), ZetaCombo(Fraction(-12), {2: Fraction(8)}))) == (
        "4 * (1/(8*zeta(2) - 12) - 1)"
    )
    with pytest.raises(ValueError):
        form.divergent_value()
    with pytest.raises(ZeroDivisionError):
        ClosedForm(Fraction(1), ZetaCombo()).evaluate(ZETA)
    with pytest.raises(PoleInFormula):
        cf_limit_from_zeta(EulerTriple(X, X - 1, X), combo)
    with pytest.raises(PoleInFormula):
        cf_limit_from_zeta(EulerTriple(X, X - 1, X - 1), combo)


# ---------------------------------------------------------------------------
# degree-one Beta forms
# ---------------------------------------------------------------------------


def test_beta_rational_branch():
    form = beta_degree1(X, X + 3)
    assert form.kind == BetaForm.RATIONAL
    assert form.sum_value == Fraction(4, 3)
    assert form.cf_value == -1
    assert str(form) == "sum = 4/3, cf = -1"
    # second route: the actual CF drifts to the same value
    t = trivial_triple(X, X + 3)
    est = numeric_limit(CFSpec(b=t.b, a=t.a), Fraction(1, 10**8))
    assert abs(est.value + 1) < Fraction(1, 10**6)


def test_beta_integral_branch():
    form = beta_degree1(X, 2 * X)
    assert form.kind == BetaForm.INTEGRAL
    assert form.sum_value is None
    assert (form.t_exponent, form.omt_exponent, form.ratio) == (
        Fraction(0),
        Fraction(0),
        Fraction(1, 2),
    )
    assert str(form).startswith("sum = (1/B(1, 1)) * integral_0^1")
    # the described integral is int_0^1 dt/(1 - t/2) = 2 log 2; check the
    # underlying series against an exact log-2 partial sum
    series = sum(
        (literal_summand(trivial_triple(X, 2 * X), k) for k in range(80)),
        Fraction(0),
    )
    log2 = sum((Fraction(1, k * 2**k) for k in range(1, 80)), Fraction(0))
    assert abs(series - 2 * log2) < Fraction(1, 10**20)


def test_beta_preconditions():
    with pytest.raises(PreconditionViolated, match="degree <= 1"):
        beta_degree1(X**2, X)
    with pytest.raises(PreconditionViolated, match="a > 0"):
        beta_degree1(-X + 5, X)
    with pytest.raises(PreconditionViolated, match="a <= c"):
        beta_degree1(2 * X, X)
    with pytest.raises(PreconditionViolated, match="b >= 0"):
        beta_degree1(X - 1, X)
    with pytest.raises(PreconditionViolated, match=r"1 \+ d/c > b/a"):
        beta_degree1(X + 2, X + 1)
    with pytest.raises(PreconditionViolated, match="d > b"):
        beta_degree1(X + 1, X + 1)
