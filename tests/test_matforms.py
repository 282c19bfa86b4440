"""Tests for matrix normal forms: companion (CF) shape via coboundaries,
eigenvector-driven triangularization, and the triangular route to partial
CF values.

Brute-force matrix products over exact rationals serve as the second route
for every structural claim.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycf import (
    CFSpec,
    EigenSeq,
    INF,
    InvalidInput,
    Mat2,
    Poly,
    PoleInFormula,
    PolyMat2,
    RatFunc,
    ZeroCEntry,
    ZeroF,
    cf_form_states,
    cf_value,
    coboundary_check,
    eigen_check,
    euler_cf_matrix,
    euler_left_eigen,
    euler_partial_value,
    rederive_euler_sum,
    to_cf_form,
    to_integral_cf_form,
    triangularize,
    trivial_triple,
)

from _reference import (
    outcome,
    reference_cf_form_states,
    reference_rederive_euler_sum,
)
from _strategies import nonzero_polys, polys, trivial_pairs

X = Poly.x()
ONE = Poly.one()


def column_states(m: PolyMat2, n: int) -> list[tuple[Fraction, Fraction]]:
    """(p_k; q_k) = M(1) ... M(k) (1; 0) by plain matrix products."""
    cur = Mat2(1, 0, 0, 1)
    out = [(Fraction(1), Fraction(0))]
    for i in range(1, n + 1):
        cur = cur * m.eval_at(i)
        out.append((cur.a, cur.c))
    return out


@st.composite
def positive_poly(draw, max_degree=2):
    # positive coefficients and constant term: no zeros at any index >= 0
    deg = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = [draw(st.integers(min_value=1, max_value=4)) for _ in range(deg + 1)]
    return Poly([Fraction(c) for c in coeffs])


@st.composite
def small_poly(draw, max_degree=2):
    deg = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(deg)]
    lead = draw(st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0))
    return Poly([Fraction(c) for c in coeffs] + [Fraction(lead)])


# ---------------------------------------------------------------------------
# PolyMat2 basics
# ---------------------------------------------------------------------------


def test_entry_coercion_and_repr():
    m = PolyMat2(1, Fraction(1, 2), X, RatFunc(X**2 - 1, X - 1))
    assert m.is_poly  # the rational function reduces to the polynomial x + 1
    assert m.entries[3] == X + 1
    assert str(m) == "[1, 1/2; n, n + 1]"
    with pytest.raises(TypeError):
        PolyMat2(1.5, 0, 0, 1)


def test_matrix_algebra_matches_manual():
    m1 = PolyMat2(X, 1, 2, X + 1)
    m2 = PolyMat2(0, X, 1, 3)
    prod = m1 * m2
    assert prod == PolyMat2(1, X**2 + 3, X + 1, 2 * X + 3 * X + 3)
    assert m1.det() == X * (X + 1) - 2
    assert m1.shift(2) == PolyMat2(X + 2, 1, 2, X + 3)
    assert m1.eval_at(3) == Mat2(3, 1, 2, 4)


def test_eval_at_pole():
    m = PolyMat2(RatFunc(ONE, X - 2), 0, 0, 1)
    assert m.eval_at(1) == Mat2(-1, 0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        m.eval_at(2)
    # shifting moves the pole of the rational entry from 2 to 1
    shifted = m.shift(1)
    assert shifted == PolyMat2(RatFunc(ONE, X - 1), 0, 0, 1)
    assert shifted.eval_at(2) == Mat2(1, 0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        shifted.eval_at(1)


def test_equality_across_representations():
    assert PolyMat2(RatFunc(X * (X + 1), X), 0, 0, 1) == PolyMat2(X + 1, 0, 0, 1)
    assert hash(PolyMat2(X, 0, 0, 1)) == hash(PolyMat2(RatFunc(X), 0, 0, 1))


def test_mat2_and_polymat2_product_equality_and_hash():
    m, n = Mat2(1, 2, 3, 4), Mat2(0, Fraction(1, 2), 1, -1)
    assert m * n == Mat2(2, Fraction(-3, 2), 4, Fraction(-5, 2))
    assert Mat2(Fraction(2, 4), 1, 0, 1) == Mat2(Fraction(1, 2), 1, 0, 1)
    assert len({m * n, Mat2(2, Fraction(-3, 2), 4, Fraction(-5, 2)), m}) == 2
    # the entry (x^2 + x)/x reduces to the Poly x + 1
    r = PolyMat2(RatFunc(X * (X + 1), X), 1, 0, X)
    p = PolyMat2(X + 1, 1, 0, X)
    assert isinstance(r.a, Poly) and r == p and hash(r) == hash(p)
    assert r * PolyMat2(1, 0, X, 1) == PolyMat2(2 * X + 1, 1, X**2, X)
    assert len({r, p, r * PolyMat2(1, 0, 0, 1)}) == 1
    # the two classes neither compare equal nor multiply
    assert Mat2(1, 0, 0, 1) != PolyMat2(1, 0, 0, 1)
    assert PolyMat2(1, 0, 0, 1) != Mat2(1, 0, 0, 1)
    with pytest.raises(TypeError):
        Mat2(1, 0, 0, 1) * PolyMat2(1, 0, 0, 1)


# ---------------------------------------------------------------------------
# coboundary and CF form
# ---------------------------------------------------------------------------


def test_cf_form_coboundary_holds():
    m = PolyMat2(X + 1, X + 2, X + 3, X + 4)
    cfm, u, init = to_cf_form(m)
    assert coboundary_check(m, cfm, u)
    assert init == Mat2(1, 2, 0, 4)
    # breaking u must break the identity
    bad = PolyMat2(u.a, u.b + 1, u.c, u.d)
    assert not coboundary_check(m, cfm, bad)


@settings(max_examples=30, deadline=None)
@given(
    a=small_poly(),
    b=small_poly(),
    c=positive_poly(),
    d=small_poly(),
)
def test_cf_form_states_match_brute_force(a, b, c, d):
    """The companion-state columns are exactly the (p_k; q_k) pairs of the
    raw product applied to (1; 0)."""
    m = PolyMat2(a, b, c, d)
    n = 6
    cols = column_states(m, n + 1)
    states = cf_form_states(m, n)
    assert len(states) == n + 1
    for k, s in enumerate(states):
        assert (s.a, s.c) == cols[k]
        assert (s.b, s.d) == cols[k + 1]


@st.composite
def cf_form_matrices(draw) -> PolyMat2:
    """Rational entries of degree <= 2; in the "pole" shape c(n) has a root
    r in 1..10, which puts a pole at r into the CF form unless it cancels."""
    a, b, d = draw(polys(2)), draw(polys(2)), draw(polys(2))
    c = draw(nonzero_polys(2))
    if draw(st.booleans()):
        c = c * (X - draw(st.integers(1, 10)))
    return PolyMat2(a, b, c, d)


def states_or_pole(fn, m, n):
    try:
        return fn(m, n)
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


@settings(max_examples=100, deadline=None)
@given(cf_form_matrices(), st.integers(0, 12))
def test_cf_form_states_match_reference_product(m, n):
    """The states read off the integer running product equal the Fraction
    product of the CF-form matrices, and a pole raises at the same index."""
    assert states_or_pole(cf_form_states, m, n) == states_or_pole(reference_cf_form_states, m, n)


def test_cf_form_states_pole_and_depth_zero():
    m = PolyMat2(X, 1, X - 3, 1)  # c(n+1)/c(n) = (n-2)/(n-3): a pole at 3
    assert cf_form_states(m, 2) == reference_cf_form_states(m, 2)
    with pytest.raises(ZeroDivisionError, match="pole at index 3"):
        cf_form_states(m, 3)
    half = PolyMat2(X / 2, Fraction(1, 3), X + Fraction(1, 2), 1)
    assert cf_form_states(half, 0) == reference_cf_form_states(half, 0) == [
        Mat2(1, Fraction(1, 2), 0, Fraction(3, 2))
    ]


def test_cf_form_states_raise_at_the_first_pole_of_either_entry():
    # c = (n-2)(n-5) and det M = (n-2)(6-n): the CF form's b keeps only the
    # pole at 5, its a has both, so the first pole, at 2, is a's
    m = PolyMat2(X - 2, 1, (X - 2) * (X - 5), 1)
    cfm, _, _ = to_cf_form(m)
    assert [e.den for e in (cfm.b, cfm.d)] == [X - 5, (X - 2) * (X - 5)]
    for n in (1, 2, 6):
        assert states_or_pole(cf_form_states, m, n) == states_or_pole(reference_cf_form_states, m, n)
    with pytest.raises(ZeroDivisionError, match="^matrix entry has a pole at index 2$"):
        cf_form_states(m, 6)


def test_cf_form_rejections():
    with pytest.raises(ZeroCEntry):
        to_cf_form(PolyMat2(X, 1, 0, X))
    with pytest.raises(TypeError):
        to_cf_form(PolyMat2(RatFunc(ONE, X), 0, 1, 1))
    with pytest.raises(ZeroCEntry):
        to_integral_cf_form(PolyMat2(X, 1, 0, X))
    with pytest.raises(TypeError):
        to_integral_cf_form(PolyMat2(RatFunc(ONE, X), 0, 1, 1))
    with pytest.raises(InvalidInput):
        cf_form_states(PolyMat2(X, 1, 1, X), -1)


def test_integral_cf_form_entries():
    m = PolyMat2(X + 1, X + 2, X + 3, X + 4)
    cfm, _, _ = to_cf_form(m)
    icfm = to_integral_cf_form(m)
    assert icfm.is_poly
    c = m.c

    def rf(x):
        return x if isinstance(x, RatFunc) else RatFunc(x)

    # same companion data with denominators cleared row by row
    assert rf(icfm.b) == rf(cfm.b) * rf(c * c.shift(-1))
    assert rf(icfm.d) == rf(cfm.d) * rf(c)
    assert icfm.a == Poly.zero() and icfm.c == ONE


def test_integral_cf_form_states_are_column_rescalings():
    """Seeded with (1, c(0)a(1); 0, c(0)c(1)), the integral-form state k is
    the CF-form state with its columns scaled by prod_{j=0}^{k-1} c(j) and
    prod_{j=0}^{k} c(j); in particular the convergent ratios agree."""
    m = PolyMat2(X + 1, X + 2, X + 3, X + 4)
    n = 5
    states = cf_form_states(m, n)
    icfm = to_integral_cf_form(m)
    c = m.c
    c0 = c(Fraction(0))
    cur = Mat2(1, c0 * m.a(Fraction(1)), 0, c0 * m.c(Fraction(1)))
    scaled = [cur]
    for k in range(1, n + 1):
        cur = cur * icfm.eval_at(k)
        scaled.append(cur)
    s_k = Fraction(1)  # prod_{j=0}^{k-1} c(j)
    for k, (s, z) in enumerate(zip(states, scaled)):
        s_next = s_k * c(Fraction(k))
        assert (z.a, z.c) == (s_k * s.a, s_k * s.c)
        assert (z.b, z.d) == (s_next * s.b, s_next * s.d)
        s_k = s_next


# ---------------------------------------------------------------------------
# eigen structure
# ---------------------------------------------------------------------------


def test_euler_eigen_pairs():
    h1, h2 = X**2 + 1, 2 * X + 3
    m = euler_cf_matrix(h1, h2)
    assert m == PolyMat2(0, -(h1 * h2), 1, h1 + h2.shift(1))
    left = euler_left_eigen(h1, h2)
    assert left == EigenSeq(ONE, h2, h2)
    assert eigen_check(m, left)
    # (h2(i+1); -1) is a right eigenvector with eigenvalue h1:
    # M(i) (h2(i+1); -1) = h1(i) (h2(i); -1)
    assert m * PolyMat2(h2.shift(1), 0, -1, 0) == PolyMat2(h1 * h2, 0, -h1, 0)
    # the two eigenvalues factor the determinant
    assert RatFunc(left.eigenvalue) * RatFunc(h1) == RatFunc(m.det())


def test_eigen_check_rejects():
    h1, h2 = X + 1, X + 2
    m = euler_cf_matrix(h1, h2)
    # h1 is the right eigenvector's eigenvalue, not the left one's
    assert not eigen_check(m, EigenSeq(ONE, h2, h1))
    assert not eigen_check(m, EigenSeq(ONE, h1, h2))


def test_triangularize_euler_family():
    h1, h2 = X**2 + 1, 2 * X + 3
    m = euler_cf_matrix(h1, h2)
    t, alpha = triangularize(m, euler_left_eigen(h1, h2))
    assert alpha == h1
    assert t == PolyMat2(h1, RatFunc(-h1, h2.shift(1)), 0, h2)


def test_triangularize_keeps_already_triangular():
    m = PolyMat2(X, 1, 0, X + 1)
    left = EigenSeq(Poly.zero(), ONE, X + 1)
    t, alpha = triangularize(m, left)
    assert (t, alpha) == (m, X)


def test_triangularize_rejections():
    h1, h2 = X + 1, X + 2
    m = euler_cf_matrix(h1, h2)
    with pytest.raises(InvalidInput):
        triangularize(m, EigenSeq(ONE, h2, h1))
    with pytest.raises(ZeroF):
        triangularize(m, EigenSeq(ONE, Poly.zero(), h2))
    with pytest.raises(InvalidInput):
        triangularize(m, EigenSeq(ONE, h2, h2 + 1))


# ---------------------------------------------------------------------------
# the triangular route re-derives partial CF values
# ---------------------------------------------------------------------------


def test_rederive_base_case():
    assert rederive_euler_sum(X + 1, X + 2, 1) == 0


@settings(max_examples=30, deadline=None)
@given(h1=positive_poly(), h2=positive_poly(), n=st.sampled_from([1, 2, 5, 9]))
def test_rederive_agrees_with_summation_and_convergents(h1, h2, n):
    """Three routes to K_{i=1}^{n-1} b(i)/a(i): the triangular pass, the
    summation formula, and the convergent recurrence."""
    t = trivial_triple(h1, h2)
    via_triangular = rederive_euler_sum(h1, h2, n)
    assert via_triangular == euler_partial_value(t, n - 1)
    assert via_triangular == cf_value(CFSpec(b=t.b, a=t.a), n - 1)


def test_rederive_pole_guard():
    with pytest.raises(PoleInFormula):
        rederive_euler_sum(X + 1, X - 3, 5)
    # shallow depths stay clear of the pole
    assert rederive_euler_sum(X + 1, X - 3, 2) == euler_partial_value(
        trivial_triple(X + 1, X - 3), 1
    )
    with pytest.raises(InvalidInput):
        rederive_euler_sum(X + 1, X + 2, 0)


@settings(max_examples=150, deadline=None)
@given(pair=trivial_pairs(), n=st.integers(1, 301))
def test_rederive_matches_fraction_pass_and_summation(pair, n):
    """The scaled integer steps give the value of the Fraction pass over
    T(i) and of the summation formula, or the same PoleInFormula."""
    h1, h2 = pair
    got = outcome(rederive_euler_sum, h1, h2, n)
    assert got == outcome(reference_rederive_euler_sum, h1, h2, n)
    assert got == outcome(euler_partial_value, trivial_triple(h1, h2), n - 1)


def test_rederive_with_a_root_of_h1():
    # h1(3) = 0 makes the triangular product singular, but z = corner/prod_g
    # is defined: the CF truncates there
    t = trivial_triple(X - 3, X + 1)
    for n in range(1, 12):
        assert rederive_euler_sum(X - 3, X + 1, n) == euler_partial_value(t, n - 1)
    assert rederive_euler_sum(X - 3, X + 1, 4) == 2 == cf_value(CFSpec(b=t.b, a=t.a), 3)


def test_every_route_gives_inf_at_a_pole():
    # h1 = -n-1, h2 = n: K_1^1 = b(1)/a(1) = 2/0
    h1, h2 = -X - 1, X
    t = trivial_triple(h1, h2)
    assert rederive_euler_sum(h1, h2, 2) is INF
    assert euler_partial_value(t, 1) is INF
    assert cf_value(CFSpec(b=t.b, a=t.a), 1) is INF

