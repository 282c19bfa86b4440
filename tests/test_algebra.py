"""Tests for the exact arithmetic layer.

Oracle values were computed by hand (long division, explicit root checks)
and frozen here before the implementation was written.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycf.algebra import (
    INF,
    Poly,
    QuadSurd,
    RatFunc,
    assemble_factored,
    factor_int,
    factor_integer_rooted,
    parse_factored,
    parse_poly,
    poly_gcd,
    rational_roots,
    rational_sqrt,
    sqrt_fraction,
    squarefree_split,
    taylor_div,
)
from polycf.errors import PolyParseError

F = Fraction


# -- frozen oracles ---------------------------------------------------------

def test_parse_cubic_oracle():
    p = parse_poly("34n^3+51n^2+27n+5")
    assert p.coeffs == (F(5), F(27), F(51), F(34))


def test_parse_accepts_x_synonym_and_spaces():
    assert parse_poly(" 2 x^2 - x ") == Poly([0, -1, 2])
    assert parse_poly("1/2*n^2 + n - 3/4") == Poly([F(-3, 4), 1, F(1, 2)])


def test_parse_star_optional():
    assert parse_poly("2n") == parse_poly("2*n")
    assert parse_poly("-n") == Poly([0, -1])
    assert parse_poly("7") == Poly([7])


def test_parse_errors_name_token_and_position():
    with pytest.raises(PolyParseError) as e:
        parse_poly("3n^2 + y")
    assert e.value.token == "y"
    assert e.value.pos == 7
    with pytest.raises(PolyParseError):
        parse_poly("n^")
    with pytest.raises(PolyParseError):
        parse_poly("1//2")
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("2 3")
    with pytest.raises(PolyParseError):
        parse_poly("n^-1")


def test_shift_square_oracle():
    # (x+1)^2 = x^2 + 2x + 1
    assert Poly([0, 0, 1]).shift(1) == Poly([1, 2, 1])
    # shift by a rational
    assert Poly([0, 1]).shift(F(1, 2)) == Poly([F(1, 2), 1])


def test_divmod_oracle():
    # (x^3 - 1) = (x - 1)(x^2 + x + 1)
    q, r = divmod(Poly([-1, 0, 0, 1]), Poly([-1, 1]))
    assert q == Poly([1, 1, 1])
    assert r.is_zero
    q, r = divmod(Poly([1, 0, 1]), Poly([1, 1]))  # x^2+1 = (x+1)(x-1) + 2
    assert q == Poly([-1, 1])
    assert r == Poly([2])


def test_rational_roots_oracle():
    roots = rational_roots(Poly([0, -1, 2]))  # 2x^2 - x
    assert roots == {F(0): 1, F(1, 2): 1}
    # (x-1)^2 (x+3)
    p = Poly([-1, 1]) ** 2 * Poly([3, 1])
    assert rational_roots(p) == {F(-3): 1, F(1): 2}
    assert rational_roots(Poly([1, 0, 1])) == {}  # x^2 + 1
    assert rational_roots(Poly([5])) == {}


def test_factor_integer_rooted_oracle():
    content, factors, residual = factor_integer_rooted(Poly([0, 1, -2]))
    assert content == F(-2)
    assert [(str(f), m) for f, m in factors] == [("n", 1), ("n - 1/2", 1)]
    assert residual == Poly.one()
    # -x^6 splits completely
    content, factors, residual = factor_integer_rooted(-(Poly.x() ** 6))
    assert content == F(-1)
    assert factors == [(Poly.x(), 6)]
    assert residual == Poly.one()
    # irreducible tail stays in the residual
    content, factors, residual = factor_integer_rooted(Poly([2, 0, 2]) * Poly([-1, 1]))
    assert content == F(2)
    assert factors == [(Poly([-1, 1]), 1)]
    assert residual == Poly([1, 0, 1])


def test_zero_polynomial_is_flagged():
    assert Poly.zero().degree is None
    assert Poly([0, 0]).degree is None
    with pytest.raises(ValueError):
        Poly.zero().lead
    with pytest.raises(ValueError):
        rational_roots(Poly.zero())


def test_poly_text_round_trip_oracle():
    p = Poly([F(-3, 4), 0, F(1, 2), -1])
    assert str(p) == "-n^3 + 1/2*n^2 - 3/4"
    assert parse_poly(str(p)) == p


def test_parse_factored_oracle():
    c, blocks = parse_factored("-(n)^3 * (n+1)^2")
    assert c == F(-1)
    assert [(str(b), m) for b, m in blocks] == [("n", 3), ("n + 1", 2)]
    c2, blocks2 = parse_factored("3/2(2n-1)(n^2+1)")
    assert c2 == F(3)
    assert [(str(b), m) for b, m in blocks2] == [("n - 1/2", 1), ("n^2 + 1", 1)]
    with pytest.raises(PolyParseError):
        parse_factored("(n")
    with pytest.raises(PolyParseError):
        parse_factored("")


def test_quad_surd_normalization_oracle():
    assert QuadSurd(2, 3, 4) == QuadSurd(8)          # sqrt(4) = 2
    assert QuadSurd(1, 1, 12) == QuadSurd(1, 2, 3)   # sqrt(12) = 2 sqrt(3)
    assert QuadSurd(5, 0, 7).is_rational
    golden = QuadSurd(F(1, 2), F(1, 2), 5)
    assert golden * golden - golden == QuadSurd(1)
    assert str(golden) == "1/2 + 1/2*sqrt(5)"


def test_quad_surd_sign_oracle():
    assert QuadSurd(0, 1, 2).sign() == 1
    assert QuadSurd(-1, 1, 2).sign() == 1      # sqrt2 > 1
    assert QuadSurd(-2, 1, 2).sign() == -1     # sqrt2 < 2
    assert QuadSurd(F(3, 2), -1, 2).sign() == 1
    assert QuadSurd(1, -1, 2).sign() == -1
    assert QuadSurd(0, 0, 0).sign() == 0


def test_quad_surd_approx_matches_isqrt():
    s = QuadSurd(0, 1, 2).approx(30)
    # 10^-30 accuracy against integer sqrt of 2*10^80
    ref = F(math.isqrt(2 * 10**80), 10**40)
    assert abs(s - ref) < F(1, 10**30)


def test_quad_surd_approx_error_does_not_grow_with_v():
    v = 10**15
    s = QuadSurd(0, v, 2).approx(5)
    # within 1e-5 below v*sqrt(2) = sqrt(2 v^2), checked by squaring
    assert s * s < 2 * v * v < (s + F(1, 10**5)) ** 2
    assert QuadSurd(0, -v, 2).approx(5) == -s


def test_sqrt_fraction_oracle():
    assert sqrt_fraction(F(9, 4)) == QuadSurd(F(3, 2))
    s = sqrt_fraction(F(8, 9))
    assert s == QuadSurd(0, F(2, 3), 2)
    assert rational_sqrt(F(49, 64)) == F(7, 8)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None


def test_squarefree_split_oracle():
    assert squarefree_split(1152) == (24, 2)   # 34^2 - 4
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)
    assert factor_int(1152) == {2: 7, 3: 2}


def test_ratfunc_normalizes():
    f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))     # 2x / 4x^2 = 1/(2x)
    assert f == RatFunc(Poly([F(1, 2)]), Poly([0, 1]))
    assert f(F(3)) == F(1, 6)
    assert f(F(0)) is INF
    g = RatFunc(Poly([1, 1]))
    assert (f * g).num == Poly([F(1, 2), F(1, 2)])
    assert (g - g).num.is_zero
    assert RatFunc(Poly([2, 2]), Poly([1, 1])).as_poly() == Poly([2])


def test_taylor_div_oracle():
    # 1/(1 - x) = 1 + x + x^2 + ...
    assert taylor_div(Poly.one(), Poly([1, -1]), 4) == [1, 1, 1, 1]
    # (1+x)/(1+2x): 1 - x + 2x^2 - 4x^3
    assert taylor_div(Poly([1, 1]), Poly([1, 2]), 4) == [1, -1, 2, -4]


# -- property tests ---------------------------------------------------------

small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(small_rats, min_size=0, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@given(polys, small_rats, small_rats)
@settings(max_examples=60)
def test_shift_composes(p, a, b):
    assert p.shift(a).shift(b) == p.shift(a + b)
    assert p.shift(0) == p


@given(polys, small_rats, small_rats)
@settings(max_examples=60)
def test_shift_commutes_with_eval(p, k, v):
    assert p.shift(k)(v) == p(v + k)


@given(polys, nonzero_polys)
@settings(max_examples=60)
def test_divmod_identity(p, d):
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.is_zero or r.degree < d.degree


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=40)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert (p % g).is_zero and (q % g).is_zero
    assert g.lead == 1


def test_factor_reassembles():
    rng = random.Random(7)
    for _ in range(40):
        roots = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        residual = Poly([rng.randint(1, 5), 0, 1]) if rng.random() < 0.5 else Poly.one()
        content = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        p = Poly.const(content) * residual
        for r in roots:
            p = p * Poly((-r, 1))
        c, facs, res = factor_integer_rooted(p)
        rebuilt = Poly.const(c) * res
        for f, m in facs:
            rebuilt = rebuilt * f**m
        assert rebuilt == p
        # the residual has no rational roots left
        assert rational_roots(res) == {} if not res == Poly.one() else True


def test_parse_round_trip_random():
    rng = random.Random(12)
    for _ in range(50):
        p = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])
        assert parse_poly(p.to_text()) == p
        assert parse_poly(p.to_text("x")) == p


def test_assemble_factored_round_trip():
    rng = random.Random(99)
    for _ in range(30):
        p = Poly([F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))] + [1])
        c, blocks, res = factor_integer_rooted(p)
        full = assemble_factored(c, blocks + [(res, 1)])
        assert full == p
