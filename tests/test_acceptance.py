"""Acceptance gate.

One test per criterion, each pinning a headline capability end to end:
exact identities over seeded random inputs, the worked identification
cases, closed forms checked against independently computed reference
constants, and a wall-clock budget asserted for every criterion.  The
terminal summary (see conftest) prints one PASS/FAIL line per criterion.
"""

import random
import time
from fractions import Fraction

from polycf import (
    CFSpec,
    EulerTriple,
    LimitEstimate,
    Mat2,
    Poly,
    PolyMat2,
    RatFunc,
    ZetaCombo,
    beta_degree1,
    build_euler_cf,
    cf_form_states,
    cf_limit_from_zeta,
    cf_value,
    constant_cf_limit,
    convergents,
    equivalence_transform,
    euler_partial_value,
    euler_sum,
    euler_sum_to_cf,
    identify,
    is_inf,
    numeric_limit,
    rederive_euler_sum,
    telescoped_summand,
    telescoping_zeta_sum,
    trivial_triple,
)
from polycf.identify import REASON_IRRATIONAL

from _reference import e_ref, pi_ref, zeta_ref

X = Poly.x()
ONE = Poly.one()


def _budget(start: float, seconds: float):
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


def _rational(rng, lo: int, hi: int, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _positive_poly(rng, max_deg: int = 2) -> Poly:
    deg = rng.randint(1, max_deg)
    return Poly(tuple(rng.randint(1, 4) for _ in range(deg + 1)))


def test_criterion_01_euler_sum_identity():
    # sum_{k=0}^n prod_{i<=k} r_i  ==  1/(1 + K_{i<=n} (-r_i)/(1+r_i)), exactly.
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(100):
        n = rng.randint(1, 50)
        r = []
        while len(r) < n:
            v = _rational(rng, -5, 5)
            if v != -1:
                r.append(v)
        s = euler_sum(r, n)
        k = cf_value(euler_sum_to_cf(r), n)
        if s == 0:
            assert is_inf(k)
        else:
            assert k == 1 / s - 1
    _budget(start, 5.0)


def test_criterion_02_equivalence_invariance():
    # Rescaling by nonzero c(i) leaves every convergent fixed up to the
    # front factor 1/c(0), at every depth, exactly.
    start = time.monotonic()
    rng = random.Random(202)
    n = 50
    for _ in range(100):
        b = [_rational(rng, -4, 4, 3) for _ in range(n)]
        a = [_rational(rng, -4, 4, 3) for _ in range(n)]
        c = []
        while len(c) < n + 1:
            v = _rational(rng, -3, 3, 3)
            if v != 0:
                c.append(v)
        b2, a2, front = equivalence_transform(b, a, c, n=n)
        orig = CFSpec(b=b, a=a)
        xform = CFSpec(b=b2, a=a2)
        for k in range(1, n + 1):
            v = cf_value(orig, k)
            w = cf_value(xform, k)
            if is_inf(v) or is_inf(w):
                assert is_inf(v) and is_inf(w)
            else:
                assert v == front * w
    _budget(start, 5.0)


def test_criterion_03_determinant_identity():
    # p_{n-1} q_n - p_n q_{n-1} == prod_{i<=n} (-b_i) along the whole walk.
    start = time.monotonic()
    rng = random.Random(303)
    for _ in range(20):
        sign = rng.choice([1, -1])
        b = _positive_poly(rng) * sign        # no roots at i >= 1
        a = Poly(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))))
        depth = rng.randint(50, 200)
        cf = CFSpec(b=b, a=a)
        stream = convergents(cf)
        assert next(stream).as_matrix().det == 1
        prod = Fraction(1)
        for i, state in zip(range(1, depth + 1), stream):
            prod *= -b(Fraction(i))
            assert state.as_matrix().det == prod
    _budget(start, 5.0)


def test_criterion_04_euler_cf_round_trip():
    # Partial sums of the Euler family equal the convergents of the built
    # CF, exactly, including nontrivial f of degree 1 and 2.
    start = time.monotonic()
    rng = random.Random(404)
    for i in range(100):
        # h1 = g1 f and h2 = g2 f(x-1) keep the family's divisibility
        # constraint satisfied for any f; positive coefficients keep the
        # evaluation guards quiet.
        f = Poly(tuple(rng.randint(1, 4) for _ in range(i % 3 + 1)))
        t = EulerTriple(
            _positive_poly(rng) * f,
            _positive_poly(rng) * f.shift(-1),
            f,
        )
        n = rng.randint(1, 40)
        a, b = build_euler_cf(t)
        assert euler_partial_value(t, n) == cf_value(CFSpec(b=b, a=a), n)
    _budget(start, 10.0)


def test_criterion_05_identify_quadratic_f():
    start = time.monotonic()
    a = Poly((5, 11, 3, 2))
    b = -(X**6)
    report = identify(a, b)
    expected = EulerTriple(X**3, X**3, Poly((Fraction(1, 2), 1, 1)))
    assert expected in report.solutions
    assert build_euler_cf(expected) == (a, b)
    _budget(start, 1.0)


def test_criterion_06_identify_irrational_split():
    start = time.monotonic()
    a = Poly((5, 27, 51, 34))
    report = identify(a, -(X**6))
    assert report.solutions == []
    assert report.exhaustive is True
    cube = [r for r in report.rejections if r.h1 == X**3]
    assert [r.reason for r in cube] == [REASON_IRRATIONAL]
    _budget(start, 1.0)


def _check_cf_numeric(t, combo, zeta, eps, tol):
    a, b = build_euler_cf(t)
    exact = cf_limit_from_zeta(t, combo).evaluate(zeta)
    est = numeric_limit(CFSpec(b=b, a=a), eps)
    assert est.verdict == LimitEstimate.ESTIMATED
    assert abs(est.value - exact) < tol


def test_criterion_07_zeta_closed_forms():
    start = time.monotonic()
    zeta = {d: zeta_ref(d) for d in (2, 3, 4, 5)}
    tol = Fraction(1, 10**6)
    eps = Fraction(2, 10**7)
    fixed_k = 10**5
    scale = 10**18

    # sum 1/k^d
    for d in (2, 3, 4, 5):
        t = trivial_triple(X**d, X**d)
        combo = telescoping_zeta_sum(t)
        assert combo == ZetaCombo(Fraction(0), {d: Fraction(1)})
        if d >= 3:
            _check_cf_numeric(t, combo, zeta, eps, tol)
    # d = 2 converges like 1/n: the 1e-6 walk sits near depth 1e6, outside
    # the exact-arithmetic budget.  Cross-check instead by integer fixed
    # point summation of the summand with hard tail bounds, plus a coarse
    # numeric-limit consistency pass.
    t = trivial_triple(X**2, X**2)
    assert telescoped_summand(t) == RatFunc(ONE, (X + 1) ** 2)
    total = sum(scale // ((k + 1) ** 2) for k in range(fixed_k + 1))
    low = Fraction(total, scale) + Fraction(1, fixed_k + 2)
    high = Fraction(total + fixed_k + 1, scale) + Fraction(1, fixed_k + 1)
    assert high - low < tol
    assert low <= zeta[2] <= high
    _check_cf_numeric(t, ZetaCombo(Fraction(0), {2: Fraction(1)}), zeta,
                      Fraction(1, 10**3), Fraction(1, 10**2))

    # sum (1/2)(1/k^(d-1) + 1/k^(d-2)) from the (x^(d-1))(x+2), x^d pairing
    half = Fraction(1, 2)
    for d in (4, 5):
        t = trivial_triple(X ** (d - 1) * (X + 2), X**d)
        combo = telescoping_zeta_sum(t)
        assert combo == ZetaCombo(Fraction(0), {d - 1: half, d - 2: half})
        if d == 5:
            _check_cf_numeric(t, combo, zeta, eps, tol)
    # d = 4: summand (k+2)/(2(k+1)^3) ~ 1/(2k^2), same 1/n wall; fixed
    # point route with the bracket (k+2)/(k+1) in (1, (K+3)/(K+2)).
    t = trivial_triple(X**3 * (X + 2), X**4)
    assert telescoped_summand(t) == RatFunc(X + 2, ((X + 1) ** 3) * 2)
    total = sum((k + 2) * scale // (2 * (k + 1) ** 3) for k in range(fixed_k + 1))
    low = Fraction(total, scale) + Fraction(1, 2 * (fixed_k + 2))
    high = (Fraction(total + fixed_k + 1, scale)
            + Fraction(fixed_k + 3, fixed_k + 2) * Fraction(1, 2 * (fixed_k + 1)))
    assert high - low < tol
    assert low <= half * (zeta[3] + zeta[2]) <= high
    _check_cf_numeric(t, telescoping_zeta_sum(t), zeta,
                      Fraction(1, 10**3), Fraction(1, 10**2))
    # d = 3 would pair zeta(2) with the harmonic series; the depth-1
    # residue 1/2 does not cancel, the sum diverges, and the CF limit
    # collapses to -prefactor exactly.
    t = trivial_triple(X**2 * (X + 2), X**3)
    combo = telescoping_zeta_sum(t)
    assert combo.status == ZetaCombo.DIVERGENT
    assert combo.residue == half
    assert combo.zeta == {}
    assert cf_limit_from_zeta(t, combo).divergent_value() == -1

    # alternating-style family from the x^d, (x^(d-1))(x+1) pairing
    expected = {
        2: ZetaCombo(Fraction(-2), {2: Fraction(2)}),
        3: ZetaCombo(Fraction(2), {2: Fraction(-2), 3: Fraction(2)}),
        4: ZetaCombo(Fraction(-2), {2: Fraction(2), 3: Fraction(-2), 4: Fraction(2)}),
    }
    for d in (2, 3, 4):
        t = trivial_triple(X**d, X ** (d - 1) * (X + 1))
        combo = telescoping_zeta_sum(t)
        assert combo == expected[d]
        _check_cf_numeric(t, combo, zeta, eps, tol)
    _budget(start, 30.0)


def test_criterion_08_e_family_constants():
    start = time.monotonic()
    e = e_ref()
    tol = Fraction(1, 10**12)
    assert abs(cf_value(CFSpec(b=X, a=X), 60) - 1 / (e - 1)) < tol
    assert abs(cf_value(CFSpec(b=-X, a=X + 2), 60) - (2 - e) / (e - 1)) < tol
    _budget(start, 2.0)


def test_criterion_09_pi_family_constants():
    start = time.monotonic()
    pi = pi_ref()
    v = 3 + cf_value(CFSpec(b=(2 * X - 1) ** 2, a=Poly((6,))), 10**4)
    assert abs(v - pi) < Fraction(1, 10**3)
    w = cf_value(CFSpec(b=-X * (2 * X - 1), a=3 * X + 1), 200)
    assert abs(w - (2 / pi - 1)) < Fraction(1, 10**8)
    _budget(start, 60.0)


def test_criterion_10_linear_rational_closed_form():
    # h1 = an+b, h2 = an+d with d > b: the sum collapses to (d+a)/(d-b).
    # Draws keep (d-b)/a >= 3 so the numeric route reaches 1e-8 within the
    # exact-arithmetic depth budget (slower-converging admissible triples
    # would need depths past 1e5).
    start = time.monotonic()
    rng = random.Random(1010)
    for _ in range(10):
        a = rng.randint(1, 3)
        b = rng.randint(0, 3)
        d = b + a * rng.randint(3, 6)
        h1 = Poly((b, a))
        h2 = Poly((d, a))
        form = beta_degree1(h1, h2)
        assert form.kind == form.RATIONAL
        closed = Fraction(d + a, d - b)
        assert form.sum_value == closed

        ap, bp = build_euler_cf(trivial_triple(h1, h2))
        est = numeric_limit(CFSpec(b=bp, a=ap), Fraction(1, 10**9))
        assert est.verdict == LimitEstimate.ESTIMATED
        prefactor = h2(Fraction(1))
        reciprocal_sum = prefactor / (est.value + prefactor)
        assert abs(reciprocal_sum - closed) < Fraction(1, 10**8)
        assert form.cf_value == prefactor * (1 / closed - 1)
    _budget(start, 10.0)


def test_criterion_11_matrix_form_suite():
    start = time.monotonic()
    rng = random.Random(1111)

    # companion conversion reproduces the matrix-product columns exactly
    for _ in range(12):
        n = rng.randint(2, 30)
        m = PolyMat2(
            Poly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))),
            Poly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))),
            _positive_poly(rng),
            Poly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))),
        )
        cols = [(Fraction(1), Fraction(0))]
        cur = Mat2.identity()
        for i in range(1, n + 2):
            cur = cur * m.eval_at(i)
            cols.append((cur.a, cur.c))
        states = cf_form_states(m, n)
        for k, state in enumerate(states):
            assert (state.a, state.c) == cols[k]
            assert (state.b, state.d) == cols[k + 1]

    # triangular-route rederivation agrees with direct summation
    for _ in range(100):
        h1 = _positive_poly(rng)
        h2 = _positive_poly(rng)
        n = rng.randint(1, 12)
        expected = euler_partial_value(trivial_triple(h1, h2), n - 1)
        assert rederive_euler_sum(h1, h2, n) == expected
    _budget(start, 15.0)


def test_criterion_12_constant_cf_classifier():
    start = time.monotonic()
    rng = random.Random(1212)

    def draw_convergent():
        while True:
            a = _rational(rng, -5, 5, 3)
            b = _rational(rng, -5, 5, 3)
            if a == 0 or b == 0 or a * a + 4 * b <= 0:
                continue
            cf = CFSpec(b=Poly((b,)), a=Poly((a,)))
            x50 = cf_value(cf, 50)
            x100 = cf_value(cf, 100)
            if is_inf(x50) or is_inf(x100):
                continue        # a finite-depth pole, not a limit question
            return a, b, x50, x100

    for _ in range(50):
        a, b, x50, x100 = draw_convergent()
        lim = constant_cf_limit(a, b)
        assert lim.kind == "converges"
        root = lim.root
        assert (root * root + root * a - b).sign() == 0
        # |x100 - root| < |x50 - root|, decided exactly via
        # d50^2 - d100^2 = (x50 - x100)(x50 + x100 - 2 root)
        gap = x50 - x100
        assert gap != 0
        other = root * Fraction(-2) + (x50 + x100)
        gap_sign = 1 if gap > 0 else -1
        assert gap_sign * other.sign() > 0

    for _ in range(10):
        b = Fraction(0)
        while b == 0:
            b = _rational(rng, -5, 5, 3)
        assert constant_cf_limit(Fraction(0), b).kind == "diverges_oscillates"
        a = _rational(rng, -5, 5, 3)
        below = -(a * a) / 4 - Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert constant_cf_limit(a, below).kind == "diverges_oscillates"
    _budget(start, 5.0)
