"""Euler-family construction, Euler's sum identity, equivalence transforms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import e_ref, outcome, reference_euler_partial_value
from _strategies import euler_triples
from polycf import (
    CFSpec,
    DegenerateTerm,
    EulerTriple,
    InvalidInput,
    NotDivisible,
    Poly,
    PoleInFormula,
    ZeroScaler,
    build_euler_cf,
    cf_value,
    convergents,
    equivalence_transform,
    euler_partial_value,
    euler_sum,
    euler_sum_to_cf,
    parse_poly,
    trivial_triple,
)

X = Poly.x()


def random_rationals(rng, n):
    out = []
    while len(out) < n:
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        if q != -1:
            out.append(q)
    return out


def random_triple(rng):
    """Triples built so that divisibility always holds and small indices
    avoid poles: f = prod (x + k_j + 1), h1 = g1 f, h2 = g2 prod (x + k_j)."""
    deg_f = rng.randint(0, 2)
    ks = [rng.randint(1, 4) for _ in range(deg_f)]
    f = Poly.one()
    shifted = Poly.one()
    for k in ks:
        f = f * Poly((k + 1, 1))
        shifted = shifted * Poly((k, 1))
    def small_poly():
        d = rng.randint(0, 2)
        coeffs = [Fraction(rng.randint(1, 5)) for _ in range(d + 1)]
        return Poly(coeffs)
    g1, g2 = small_poly(), small_poly()
    return EulerTriple(g1 * f, g2 * shifted, f)


# --- Euler's identity: sum of products vs continued fraction ---


def test_euler_identity_small_oracle():
    # r = (2, 3): 1 + 2 + 6 = 9 and 1/(1 + K) with K = -2/(3 - 3/4)
    r = [Fraction(2), Fraction(3)]
    assert euler_sum(r, 2) == 9
    cf = euler_sum_to_cf(r)
    assert cf_value(cf, 2) == Fraction(-8, 9)
    assert 1 / (1 + cf_value(cf, 2)) == 9


def test_euler_identity_seeded():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randint(1, 20)
        r = random_rationals(rng, n)
        total = euler_sum(r, n)
        cf = euler_sum_to_cf(r)
        v = cf_value(cf, n)
        assert total == 1 / (1 + v)


def test_degenerate_term_eager():
    with pytest.raises(DegenerateTerm):
        euler_sum_to_cf([Fraction(2), Fraction(-1), Fraction(3)])


# r and the least index i >= 1 with r(i) = -1: past a zero r(2), at 1, the
# lesser of two, and everywhere; then none, with a zero r(2), r(3) or r(1)
# (where r(0) = -1) or none, and in "2n-4" a root 3/2 of r + 1
POLY_RS = [
    ("-1/3n+2/3", 5), ("n-2", 1), ("n^2-5n+5", 2), ("-1", 1),
    ("n^2-4n+4", None), ("-n^2+3n", None), ("n-1", None), ("2n-4", None),
    ("n^2+1/2", None), ("3/2", None),
]


@pytest.mark.parametrize("text, index", POLY_RS)
def test_poly_form_matches_its_list_of_first_values(text, index):
    # a Poly r raises the DegenerateTerm(i) of its list of first values;
    # otherwise its CF has the list's values at every depth
    r = parse_poly(text)
    rs = [r(Fraction(i)) for i in range(1, 21)]
    if index is not None:
        for seq in (r, rs):
            with pytest.raises(DegenerateTerm) as exc:
                euler_sum_to_cf(seq)
            assert exc.value.index == index
        return
    cf = euler_sum_to_cf(r)
    assert cf == CFSpec(b=-r, a=r + 1)
    for n in range(21):
        assert cf_value(cf, n) == cf_value(euler_sum_to_cf(rs), n)
        assert euler_sum(r, n) == euler_sum(rs, n) == 1 / (1 + cf_value(cf, n))


def test_a_callable_is_not_a_coefficient_sequence():
    def r(i):
        return Fraction(1, i)

    cf = CFSpec(b=r, a=Poly.one())
    for call in (
        lambda: cf_value(cf, 3),
        lambda: cf_value(CFSpec(b=Poly.one(), a=r), 3),
        lambda: list(convergents(cf)),
        lambda: euler_sum(r, 3),
        lambda: euler_sum_to_cf(r),
        lambda: equivalence_transform(r, [1, 1], [1, 1, 1], n=2),
        lambda: equivalence_transform([1, 1], r, [1, 1, 1], n=2),
        lambda: equivalence_transform([1, 1], [1, 1], r, n=2),
        lambda: equivalence_transform(r, X, X + 1),
    ):
        with pytest.raises(TypeError):
            call()


def test_eager_form_reads_each_term_once_in_order():
    calls = []

    class Recorded(list):
        def __getitem__(self, pos):
            calls.append(pos + 1)
            return super().__getitem__(pos)

    cf = euler_sum_to_cf(Recorded([Fraction(1, i) for i in range(1, 4)]))
    assert calls == [1, 2, 3]
    assert cf.b == [-1, Fraction(-1, 2), Fraction(-1, 3)]
    assert cf.a == [2, Fraction(3, 2), Fraction(4, 3)]
    calls.clear()
    with pytest.raises(DegenerateTerm) as exc:
        euler_sum_to_cf(Recorded([Fraction(-1) if i == 4 else Fraction(1, i) for i in range(1, 7)]))
    assert calls == [1, 2, 3, 4]
    assert exc.value.index == 4


# --- e oracles ---


def test_e_continued_fractions():
    e = e_ref()
    tol = Fraction(1, 10**14)
    v1 = cf_value(CFSpec(b=X, a=X), 40)
    assert abs(v1 - 1 / (e - 1)) < tol
    v2 = cf_value(CFSpec(b=-X, a=X + 2), 40)
    assert abs(v2 - (2 - e) / (e - 1)) < tol


# --- equivalence transformation ---


def test_equivalence_polynomial_invariance():
    rng = random.Random(55)
    for _ in range(20):
        b = Poly([Fraction(rng.randint(1, 6)) for _ in range(rng.randint(1, 3))])
        a = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        c = Poly((Fraction(rng.randint(1, 5)), Fraction(rng.randint(0, 3))))
        b2, a2, scale = equivalence_transform(b, a, c)
        for depth in range(0, 12):
            try:
                want = cf_value(CFSpec(b=b, a=a), depth)
            except Exception:
                continue
            got = cf_value(CFSpec(b=b2, a=a2), depth)
            if want.__class__ is Fraction and got.__class__ is Fraction:
                assert want == scale * got


def test_equivalence_zero_scaler():
    with pytest.raises(ZeroScaler):
        equivalence_transform(X, X + 1, X)  # c(0) = 0
    with pytest.raises(ZeroScaler, match=r"c\(2\) = 0"):
        equivalence_transform(X, X + 1, 2 - X)  # c(0) = 2, but c(2) = 0
    with pytest.raises(ZeroScaler):
        equivalence_transform([1, 1], [1, 1], [1, 0, 1], n=2)


def test_polynomial_mode_needs_three_polys():
    with pytest.raises(TypeError, match="polynomial mode needs b, a, c as Polys"):
        equivalence_transform([1, 1], X, X + 1)


def test_short_explicit_sequences_are_invalid_input():
    with pytest.raises(InvalidInput, match="r has 2 terms, needed 3"):
        euler_sum([1, 2], 3)
    with pytest.raises(InvalidInput, match="c has 2 terms, needed 3"):
        equivalence_transform([1, 1], [1, 1], [1, 1], n=2)


def test_equivalence_sequence_mode_matches_poly_mode():
    b, a, c = parse_poly("n^2"), parse_poly("2n+1"), parse_poly("n+3")
    b2, a2, scale = equivalence_transform(b, a, c)
    bs, as_, scale_seq = equivalence_transform(b, a, c, n=8)
    assert scale == scale_seq
    assert bs == [b2(Fraction(i)) for i in range(1, 9)]
    assert as_ == [a2(Fraction(i)) for i in range(1, 9)]


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_equivalence_sequence_mode_reads_lists_at_the_shift(shift):
    # the tail from index shift + 1 on, passed shifted in each of the two
    # forms: a Poly and a list
    b, a, c = parse_poly("n^2"), parse_poly("2n+1"), parse_poly("n+3")
    n = 6
    bl = [b(Fraction(i)) for i in range(shift + 1, n + shift + 1)]
    al = [a(Fraction(i)) for i in range(shift + 1, n + shift + 1)]
    want = equivalence_transform(b.shift(shift), a.shift(shift), c, n=n)
    assert want[0] == [c(Fraction(j - 1)) * c(Fraction(j)) * b(Fraction(j + shift)) for j in range(1, n + 1)]
    assert want[1] == [c(Fraction(j)) * a(Fraction(j + shift)) for j in range(1, n + 1)]
    assert equivalence_transform(bl, al, c, n=n) == want
    b2, a2, scale = equivalence_transform(b.shift(shift), a.shift(shift), c)
    assert want == ([b2(Fraction(i)) for i in range(1, n + 1)], [a2(Fraction(i)) for i in range(1, n + 1)], scale)
    with pytest.raises(InvalidInput, match=f"b has {n - 1} terms, needed {n}"):
        equivalence_transform(bl[:-1], al, c, n=n)


def test_equivalence_shift_device_exponential_tail():
    # Scaling the tail (from index 2) of K (-1/i)/(1 + 1/i) with c(j) = j + 1
    # lands on K (-j)/(j+2): the e continued fraction reproduces itself.
    # The tail is passed as lists from position 1 on.
    b_tail = [Fraction(-1, i) for i in range(2, 12)]
    a_tail = [1 + Fraction(1, i) for i in range(2, 12)]
    bs, as_, scale = equivalence_transform(b_tail, a_tail, [j + 1 for j in range(11)], n=10)
    assert scale == 1
    assert bs == [Fraction(-j) for j in range(1, 11)]
    assert as_ == [Fraction(j + 2) for j in range(1, 11)]
    # and the values agree with the original tail at every depth
    tail = CFSpec(b=b_tail, a=a_tail)
    for depth in range(1, 11):
        assert cf_value(tail, depth) == cf_value(CFSpec(b=bs, a=as_), depth)


def test_triple_is_trivial_family_in_disguise():
    # scaling with c = f turns the CF of (h1, h2, f) into the CF of the
    # trivial triple (h1(x) f(x-1), h2(x) f(x))
    rng = random.Random(77)
    for _ in range(15):
        t = random_triple(rng)
        if t.f == Poly.one():
            continue
        b2, a2, scale = equivalence_transform(t.b, t.a, t.f)
        tt = trivial_triple(t.h1 * t.f.shift(-1), t.h2 * t.f)
        assert b2 == tt.b
        assert a2 == tt.a
        assert scale == 1 / t.f(Fraction(0))


# --- partial values against convergents ---


def test_partial_value_round_trip_seeded():
    rng = random.Random(99)
    for _ in range(25):
        t = random_triple(rng)
        cf = CFSpec(b=t.b, a=t.a)
        for n in (0, 1, 2, 5, 9):
            assert euler_partial_value(t, n) == cf_value(cf, n)


def test_partial_value_h2_zero_at_origin_is_fine():
    # h2(0) = 0 is never consulted: indices start at 1
    t = trivial_triple(Poly.one(), X)
    cf = CFSpec(b=t.b, a=t.a)
    for n in range(0, 8):
        assert euler_partial_value(t, n) == cf_value(cf, n)


def test_partial_value_pole_guards():
    t = trivial_triple(X, X - 3)  # h2(3) = 0
    assert euler_partial_value(t, 1) is not None  # needs h2(1), h2(2) only
    with pytest.raises(PoleInFormula):
        euler_partial_value(t, 2)
    # f vanishing inside the evaluation window: f = x - 2 needs f(0..n+1)
    t2 = EulerTriple(2 * (X - 2), 3 * (X - 3), X - 2)
    with pytest.raises(PoleInFormula):
        euler_partial_value(t2, 1)


@settings(max_examples=150, deadline=None)
@given(t=euler_triples(), n=st.integers(0, 300))
def test_partial_value_matches_term_by_term_sum(t, n):
    """The integer product tree gives the value of the Fraction sum, or the
    same PoleInFormula (same k, f checked before h2)."""
    assert outcome(euler_partial_value, t, n) == outcome(reference_euler_partial_value, t, n)


def test_build_euler_cf_trivial():
    a, b = build_euler_cf(trivial_triple(X, X))
    assert a == parse_poly("2n+1")
    assert b == parse_poly("-n^2")


def test_not_divisible():
    with pytest.raises(NotDivisible):
        EulerTriple(X, X, X + 1)


def test_nonuniqueness_two_triples_same_cf():
    # b = -(x+1)(x+2) arises both from (x+1, x+2, 1) and (x+2, x+1, x+2)
    t1 = trivial_triple(X + 1, X + 2)
    t2 = EulerTriple(X + 2, X + 1, X + 2)
    assert t1.a == t2.a == parse_poly("2n+4")
    assert t1.b == t2.b
    cf = CFSpec(b=t1.b, a=t1.a)
    for n in (1, 3, 6):
        assert euler_partial_value(t1, n) == euler_partial_value(t2, n) == cf_value(cf, n)


# --- the scaler recurrence ---


def test_solve_c_recurrence_closed_form():
    # for an Euler triple, c(i) = f(i) / (f(i+1) h2(i+1)) satisfies the
    # unit-row condition c(i) a(i) + c(i-1) c(i) b(i) = 1
    t = EulerTriple(2 * (X + 2), 3 * (X + 1), X + 2)

    def c(i):
        return t.f(i) / (t.f(i + 1) * t.h2(i + 1))

    for i in map(Fraction, range(1, 11)):
        assert c(i) * t.a(i) + c(i - 1) * c(i) * t.b(i) == 1


def test_partial_value_rejects_negative_depth():
    with pytest.raises(InvalidInput, match="n must be nonnegative"):
        euler_partial_value(trivial_triple(X, X + 1), -1)
