"""Tests for the exact arithmetic layer.

Oracle values were computed by hand (long division, explicit root checks)
and frozen here before the implementation was written.
"""

import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycf.algebra import (
    INF,
    Poly,
    QuadSurd,
    RatFunc,
    assemble_factored,
    eval_range,
    factor_integer_rooted,
    first_zero,
    horner,
    parse_factored,
    parse_poly,
    poly_gcd,
    rational_roots,
    rat,
    taylor_div,
)
from polycf.algebra import _BATCH, _SQUARE_BOUND, MAX_EXPONENT
from polycf.limits import numeric_limit
from polycf.mobius import CFSpec, Mat2, constant_cf_limit
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


@pytest.mark.parametrize("parse, text, pos", [
    (parse_poly, "²", 0),
    (parse_poly, "n^²", 2),
    (parse_factored, "(n)^²", 4),
])
def test_parse_rejects_a_superscript_digit_at_its_position(parse, text, pos):
    # numbers are runs of decimal digits, the ones int() reads
    with pytest.raises(PolyParseError) as e:
        parse(text)
    assert (e.value.token, e.value.pos) == ("²", pos)


def test_parse_reads_decimal_digits_of_any_script():
    assert parse_poly("١٢n^٣") == parse_poly("12n^3")


@pytest.mark.parametrize("exponent", [MAX_EXPONENT + 1, 10**11])
def test_parse_rejects_an_exponent_above_the_bound_before_allocating(exponent):
    text = f"2n^{exponent} + 1"
    tracemalloc.start()
    try:
        with pytest.raises(PolyParseError) as e:
            parse_poly(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.value.token, e.value.pos) == (str(exponent), 3)
    # n^(MAX_EXPONENT + 1) would hold at least 8 bytes per coefficient
    assert peak < MAX_EXPONENT
    assert parse_poly(f"n^{MAX_EXPONENT}").degree == parse_poly(f"n^00{MAX_EXPONENT}").degree == MAX_EXPONENT


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly([0.1]),
        lambda: Mat2(0.1, 0, 0, 1),
        lambda: QuadSurd(1, 0.5, 2),
        lambda: constant_cf_limit(0.1, 1),
        lambda: numeric_limit(CFSpec(b=Poly([1]), a=Poly([1])), 1e-3),
    ],
)
def test_floats_are_refused(build):
    # 0.1 would enter as 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="float"):
        build()
    assert rat("1e-3") == F(1, 1000)


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


@pytest.mark.parametrize("text, token, pos", [
    ("(0)(n)^2", "(0)", 0),
    ("2*( n - n )^3", "( n - n )", 2),
])
def test_parse_factored_names_a_zero_block_by_its_text(text, token, pos):
    with pytest.raises(PolyParseError) as e:
        parse_factored(text)
    assert (e.value.token, e.value.pos) == (token, pos)


@pytest.mark.parametrize("mult", [MAX_EXPONENT + 1, 10**11])
def test_parse_factored_rejects_a_multiplicity_above_the_bound_before_allocating(mult):
    text = f"(2n)^{mult}"
    tracemalloc.start()
    try:
        with pytest.raises(PolyParseError) as e:
            parse_factored(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (e.value.token, e.value.pos) == (str(mult), 5)
    # 2^(MAX_EXPONENT + 1) alone would take more than 1250 bytes
    assert peak < MAX_EXPONENT
    c, blocks = parse_factored(f"(2n)^{MAX_EXPONENT}")
    assert c == 2**MAX_EXPONENT and [(str(b), m) for b, m in blocks] == [("n", MAX_EXPONENT)]


def test_parse_factored_folds_constant_blocks_into_the_constant():
    assert parse_factored("-(5)*(n)^2*1/5") == parse_factored("-(n)^2") == (F(-1), [(Poly.x(), 2)])
    assert parse_factored("(5)^3(n+1)(1/2)^0") == (F(125), [(Poly([1, 1]), 1)])
    assert parse_factored("(3)^2") == (F(9), [])


def test_quad_surd_normalization_oracle():
    assert QuadSurd(2, 3, 4) == QuadSurd(8)          # sqrt(4) = 2
    assert QuadSurd(1, 1, 12) == QuadSurd(1, 2, 3)   # sqrt(12) = 2 sqrt(3)
    assert repr(QuadSurd(5, 0, 7)) == "QuadSurd(5, 0, 0)"   # v = 0 drops d
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
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(8, 9)) is None
    assert rational_sqrt(F(49, 64)) == F(7, 8)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-1)) is None


def test_squarefree_split_oracle():
    assert QuadSurd(0, 1, 1152) == QuadSurd(0, 24, 2)   # 34^2 - 4 = 24^2 * 2
    assert repr(QuadSurd(0, 1, 1152)) == "QuadSurd(0, 24, 2)"
    assert QuadSurd(1, 1, 49) == QuadSurd(8)
    assert QuadSurd(0, 2, 1) == QuadSurd(2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QuadSurd(1, 1, -2), ValueError, "negative radicand"),
        (lambda: QuadSurd(0, 1, 2) + QuadSurd(0, 1, 3), ValueError, "incompatible radicands"),
        (lambda: QuadSurd(0, 1, 2) * QuadSurd(0, 1, 3), ValueError, "incompatible radicands"),
        (lambda: RatFunc(Poly.one(), Poly.zero()), ZeroDivisionError, "zero denominator"),
        (lambda: RatFunc(Poly.x()) / RatFunc(0), ZeroDivisionError, "division by the zero rational function"),
        (lambda: RatFunc(1, Poly.x()).as_poly(), ValueError, "is a proper rational function"),
        (lambda: Poly.x() ** -1, ValueError, "exponent must be a nonnegative integer"),
        (lambda: Poly.x() / 0, ZeroDivisionError, "division by zero"),
        (lambda: poly_gcd(Poly.zero(), Poly.zero()), ValueError, "gcd of two zero polynomials"),
        (lambda: factor_integer_rooted(Poly.zero()), ValueError, "cannot factor the zero polynomial"),
        (lambda: taylor_div(Poly.one(), Poly.x(), 3), ZeroDivisionError, "denominator vanishes"),
    ],
)
def test_error_paths(call, error, message):
    with pytest.raises(error, match=message):
        call()


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


def test_assemble_factored_round_trip():
    rng = random.Random(99)
    for _ in range(30):
        p = Poly([F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))] + [1])
        c, blocks, res = factor_integer_rooted(p)
        full = assemble_factored(c, blocks + [(res, 1)])
        assert full == p


# -- the integer-coefficient Poly against the Fraction reference ------------

from _reference import RefPoly, rational_sqrt, reference_rational_roots, trial_factor  # noqa: E402
from _strategies import coeff_lists, small_fractions  # noqa: E402

scalars = st.one_of(st.integers(-30, 30), small_fractions)
nonzero_scalars = scalars.filter(lambda c: c != 0)


def same(p, r) -> bool:
    """p (a Poly) and r (a RefPoly) are the same polynomial, down to the
    Fraction coefficients and the text forms; p's stored form is canonical."""
    nums, den = p.numerators, p.denominator
    canonical = den > 0 and math.gcd(den, *nums) == 1 and (not nums or nums[-1] != 0)
    return (
        isinstance(p, Poly)
        and canonical
        and p.coeffs == r.coeffs
        and all(type(c) is F for c in p.coeffs)
        and repr(p) == repr(r)
        and str(p) == str(r)
    )


@given(coeff_lists(4), coeff_lists(4), scalars)
@settings(max_examples=150, deadline=None)
def test_poly_ring_ops_match_reference(a, b, c):
    p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    assert same(p, rp) and same(q, rq)
    assert same(p + q, rp + rq) and same(p - q, rp - rq) and same(p * q, rp * rq)
    assert same(-p, -rp)
    assert same(p + c, rp + c) and same(c + p, c + rp)
    assert same(p - c, rp - c) and same(c - p, c - rp)
    assert same(p * c, rp * c) and same(c * p, c * rp)


@given(coeff_lists(4), coeff_lists(3), st.integers(0, 4), nonzero_scalars)
@settings(max_examples=150, deadline=None)
def test_poly_pow_divmod_div_monic_match_reference(a, b, k, c):
    p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    assert same(p**k, rp**k)
    assert same(p / c, rp / c) and same(p / -c, rp / -c)
    if rq.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
    else:
        (quo, rem), (rquo, rrem) = divmod(p, q), divmod(rp, rq)
        assert same(quo, rquo) and same(rem, rrem)
        assert same(p // q, rp // rq) and same(p % q, rp % rq)
        assert same(divmod(p, c)[0], divmod(rp, c)[0])
    if rp.is_zero:
        with pytest.raises(ValueError):
            p.monic()
    else:
        assert same(p.monic(), rp.monic())


@given(coeff_lists(5), st.integers(-6, 6), small_fractions)
@settings(max_examples=150, deadline=None)
def test_poly_shift_matches_reference(a, k, r):
    p, rp = Poly(a), RefPoly(a)
    assert same(p.shift(k), rp.shift(k))
    assert same(p.shift(r), rp.shift(r))
    assert same(p.shift(-r), rp.shift(-r))


@given(coeff_lists(5), coeff_lists(2), st.integers(-50, 50), small_fractions)
@settings(max_examples=150, deadline=None)
def test_poly_evaluation_matches_reference(a, b, i, v):
    p, rp = Poly(a), RefPoly(a)
    for x in (i, v, F(i)):
        got, want = p(x), rp(x)
        assert type(got) is F and got == want
    got, want = p(Poly(b)), rp(RefPoly(b))
    if isinstance(want, RefPoly):
        assert same(got, want)
    else:
        # the reference composes a constant p to its Fraction coefficient;
        # Poly gives the constant Poly, as at every other degree
        assert same(got, RefPoly([want]))


# -- the range evaluator against horner --------------------------------------

# lengths shorter and longer than the difference table (d + 1 values, at
# most 9) and than a few tables, and on both sides of the first and second
# batch boundary
_RANGE_LENGTHS = [0, 1, 2, 11, 12, 13, 53, 54, 55, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1]


def _range_values(desc, start, stop):
    batches = list(eval_range(desc, start, stop))
    assert all(0 < len(batch) <= _BATCH for batch in batches)
    return [v for batch in batches for v in batch]


@pytest.mark.parametrize("degree", range(9))
def test_eval_range_matches_horner_at_every_index(degree):
    rng = random.Random(degree)
    for start in range(6):
        for desc in ([rng.randint(-99, 99) or 1] + [rng.randint(-99, 99) for _ in range(degree)],
                     [0] * degree + [rng.randint(-99, 99)]):
            for length in _RANGE_LENGTHS:
                got = _range_values(desc, start, start + length)
                assert got == [horner(desc, i) for i in range(start, start + length)]
            # with no end: full batches
            unbounded = eval_range(desc, start)
            for k in range(3):
                want = [horner(desc, i) for i in range(start + k * _BATCH, start + (k + 1) * _BATCH)]
                assert next(unbounded) == want


@given(
    st.lists(st.integers(-10**30, 10**30), max_size=9),
    st.integers(0, 5),
    st.one_of(st.integers(0, 60), st.sampled_from(_RANGE_LENGTHS)),
)
@example([], 0, 2 * _BATCH + 1)
@example([0, 0, 0], 5, _BATCH)
@settings(max_examples=150, deadline=None)
def test_eval_range_and_first_zero_match_horner(desc, start, length):
    want = [horner(desc, i) for i in range(start, start + length)]
    assert _range_values(desc, start, start + length) == want
    zeros = [start + k for k, v in enumerate(want) if v == 0]
    assert first_zero(desc, start, start + length) == (zeros[0] if zeros else None)


def test_first_zero_finds_a_root_on_a_batch_edge():
    for root in (1, 2, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH):
        desc = [1, -root - 1, root]  # (x - 1)(x - root)
        assert first_zero(desc, 2, 3 * _BATCH) == (None if root < 2 else root)
        assert first_zero(desc, 0, root + 1) == 1


@given(coeff_lists(5))
@settings(max_examples=100, deadline=None)
def test_poly_structure_matches_reference(a):
    p, rp = Poly(a), RefPoly(a)
    assert p.coeffs == rp.coeffs and type(p.coeffs) is tuple
    assert p.degree == rp.degree and p.is_zero == rp.is_zero and bool(p) == bool(rp)
    for k in range(-2, len(a) + 3):
        assert p.coeff(k) == rp.coeff(k) and type(p.coeff(k)) is F
    if rp.is_zero:
        with pytest.raises(ValueError):
            p.lead
    else:
        assert p.lead == rp.lead and type(p.lead) is F
    assert str(p) == str(rp) and repr(p) == repr(rp)


@given(coeff_lists(3), coeff_lists(3), scalars)
@settings(max_examples=150, deadline=None)
def test_poly_eq_hash_contract_matches_reference(a, b, c):
    p, q, rp, rq = Poly(a), Poly(b), RefPoly(a), RefPoly(b)
    assert (p == q) == (rp == rq) and (p != q) == (rp != rq)
    if p == q:
        assert hash(p) == hash(q)
    # against int and Fraction constants, from both sides
    assert (p == c) == (rp == c) and (c == p) == (c == rp)
    assert (p != c) == (rp != c)
    # equal polynomials reached by different routes hash equal
    assert p * q == q * p and hash(p * q) == hash(q * p)
    if c:
        assert (p / c) * c == p and hash((p / c) * c) == hash(p)
    assert (p + c) - c == p and hash((p + c) - c) == hash(p)


def test_poly_zero_and_constants_compare_and_hash():
    zero = Poly.zero()
    assert Poly(()) == zero == Poly([0, F(0), 0]) == 0 == F(0)
    assert hash(Poly([0, 0])) == hash(zero) and zero.denominator == 1
    assert Poly.one() - 1 == zero and hash(Poly.one() - 1) == hash(zero)
    assert Poly([F(1, 2)]) * 2 == Poly.one() == 1
    assert hash(Poly([F(1, 2)]) * 2) == hash(Poly.one())
    assert Poly.const(F(-3, 4)) == F(-3, 4) != Poly.x()
    assert (Poly.x() == "x") is False
    assert {Poly([1, 2]): 1}[Poly([F(2, 2), F(4, 2)])] == 1


# psi_12, the least strong pseudoprime to every prime base 2 .. 37
PSI12 = 318665857834031151167461
PSI12_FACTORS = (399165290221, 798330580441)
# a semiprime with two prime factors of 31 and 33 digits
SEMIPRIME = (10**30 + 57) * (10**32 + 49)


def test_rational_roots_with_a_psi12_coefficient():
    p, q = PSI12_FACTORS
    roots = rational_roots(Poly([PSI12, -(p + q), 1]))
    assert roots == {F(p): 1, F(q): 1}


def test_roots_next_to_a_semiprime_constant_term():
    # (x + N)(x + 1)(3x - 7)^2: no integer here is factored
    x = Poly.x()
    p = (x + SEMIPRIME) * (x + 1) * (3 * x - 7) ** 2
    want = {F(-SEMIPRIME): 1, F(-1): 1, F(7, 3): 2}
    assert rational_roots(p) == want
    assert factor_integer_rooted(p) == (F(9), [(x - r, m) for r, m in want.items()], Poly.one())


def test_a_constant_term_with_many_divisors_has_no_root_quickly():
    # 30! has about 2.3 million divisors
    start = time.process_time()
    assert rational_roots(Poly([math.factorial(30), 0, 0, 1])) == {}
    assert time.process_time() - start < 0.1


# monic, with no rational root, and so are their products
ROOTLESS = [Poly([1, 0, 1]), Poly([1, 1, 1]), Poly([-2, 0, 1]), Poly([-2, 0, 0, 1]), Poly([1, 1, 0, 1])]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=-12, max_value=12, max_denominator=5),
            st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
        ),
        max_size=6,
    ),
    st.lists(st.sampled_from(ROOTLESS), max_size=2),
    st.fractions(max_denominator=7).filter(bool),
    st.integers(1, 720720**2),
    st.lists(st.integers(-4, 4), max_size=3),
)
def test_roots_and_residual_match_the_planted_ones(roots, rootless, content, scale, extra):
    """Planted roots (repeats, 0 and large denominators among them) times
    rootless factors times a content with a large integer part: the roots
    come back with their multiplicities and the rootless product as the
    monic residual.  Where the coefficients are small (up to three of the
    small planted roots, the rootless factors and a factor `extra` with
    unknown roots) they match the divisor search of reference_rational_roots."""
    residual = math.prod(rootless, start=Poly.one())
    p = Poly.const(content * scale) * residual
    for r in roots:
        p = p * Poly((-r, 1))
    want = dict(sorted(Counter(roots).items()))
    assert rational_roots(p) == want
    c, factors, res = factor_integer_rooted(p)
    assert (c, factors, res) == (content * scale, [(Poly((-r, 1)), m) for r, m in want.items()], residual)
    small = [Poly((-r, 1)) for r in roots if r.denominator <= 5 and abs(r.numerator) <= 60][:3]
    q = math.prod(small, start=residual * (Poly(extra) or Poly.one()))
    want, residual = reference_rational_roots(q)
    assert rational_roots(q) == want
    assert factor_integer_rooted(q) == (q.lead, [(Poly((-r, 1)), m) for r, m in want.items()], residual)


def test_root_search_stops_at_a_linear_quotient():
    # (x + (19!)^2)(x + 1), and c(x^2 + 1) for a content c with 3645
    # divisors: quick, whatever the divisor counts
    start = time.monotonic()
    big = math.factorial(19) ** 2
    assert rational_roots(Poly([big, big + 1, 1])) == {F(-big): 1, F(-1): 1}
    c = 720720**2
    assert factor_integer_rooted(Poly([c, 0, c])) == (F(c), [], Poly([1, 0, 1]))
    assert time.monotonic() - start < 1.0


def test_root_search_generates_the_leading_divisors_lazily():
    # (N x + 1)(x + 1), N = (19!)^2, whose leading coefficient has 1590435
    # divisors: quick, as no divisor is built
    big = math.factorial(19) ** 2
    start = time.process_time()
    assert rational_roots(Poly([1, big + 1, big])) == {F(-1): 1, F(-1, big): 1}
    assert time.process_time() - start < 0.05


def test_quad_surd_prints_squarefree_radicands_below_the_bound_cubed():
    rng = random.Random(26)
    cases = [rng.randrange(2, _SQUARE_BOUND**3) for _ in range(300)]
    # squares of primes near and above the bound times a radicand whose
    # primes are small: reduced too, whatever their size
    cases += [q * q * d for q in (997, 1009, 1013, 30011) for d in (1, 2, 6, 997, 2 * 3 * 5 * 7 * 11 * 13)]
    for n in cases:
        factors = trial_factor(n).items()
        m, d = math.prod(p ** (e // 2) for p, e in factors), math.prod(p ** (e % 2) for p, e in factors)
        want = str(m) if d == 1 else ("" if m == 1 else f"{m}*") + f"sqrt({d})"
        v = QuadSurd(0, 1, n)
        assert str(v) == want, n
        assert v == QuadSurd(0, m, d) and hash(v) == hash(QuadSurd(0, m, d))


def test_quad_surd_with_an_unreduced_radicand():
    # q^2 r >= P^3 for primes q, r >= P keeps its square factor, yet equals,
    # hashes, adds and multiplies as q sqrt(r)
    q, r = 1009, 1013
    for n, reduced in ((q * q * 2, "1009*sqrt(2)"), (q * q * r, f"sqrt({q * q * r})")):
        big, small = QuadSurd(F(1, 3), 1, n), QuadSurd(F(1, 3), q, n // (q * q))
        assert str(QuadSurd(0, 1, n)) == reduced
        assert big == small and hash(big) == hash(small)
        assert big + small == 2 * small and big - small == 0
        assert big * small == small * small == QuadSurd(F(1, 9) + q * q * (n // (q * q)), F(2, 3) * q, n // (q * q))
        assert (big * big).sign() == 1 and (big - 1).sign() == small.sign()


def test_quad_surd_equal_values_hash_equal():
    rng = random.Random(7)
    for _ in range(200):
        u, v = F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))
        d, k = rng.randint(0, 50), rng.randint(1, 12)
        x, y = QuadSurd(u, v, d), QuadSurd(u, v / k, d * k * k)
        assert x == y and hash(x) == hash(y)
        if x.v == 0:
            assert x == x.u and hash(x) == hash(x.u)


# -- the operators QuadSurd, Poly and RatFunc share ---------------------------

X = Poly.x()


@st.composite
def subtractable_pairs(draw):
    """Two operands with a difference: from Poly, RatFunc, int and Fraction,
    or from QuadSurd (one radicand), int and Fraction."""
    numbers = st.one_of(st.integers(-6, 6), small_fractions)
    if draw(st.booleans()):
        d = draw(st.sampled_from([2, 3, 5]))
        kinds = st.one_of(numbers, st.builds(QuadSurd, numbers, numbers, st.just(d)))
    else:
        polys = coeff_lists(2).map(Poly)
        dens = coeff_lists(1).map(Poly).filter(bool)
        # p r / (q r) reduces to p/q, a Poly when q is constant
        ratfuncs = st.builds(lambda p, q, r: RatFunc(p * r, q * r), polys, dens, dens)
        kinds = st.one_of(numbers, polys, ratfuncs)
    return draw(kinds), draw(kinds)


def equal_forms(x):
    """Values equal to x built another way, in its own type and others."""
    if isinstance(x, QuadSurd):
        # sqrt(9 d) = 3 sqrt(d)
        forms = [QuadSurd(x.u, x.v / 3, 9 * x.d)]
        return forms + [x.u, Poly.const(x.u), RatFunc(x.u)] if x.v == 0 else forms
    if isinstance(x, RatFunc):
        forms = [RatFunc(x.num * (X + 2), x.den * (X + 2))]
        return forms + equal_forms(x.num) if x.is_poly else forms
    if isinstance(x, Poly):
        forms = [RatFunc(x), RatFunc(x * (X - 1), X - 1)]
        if x.degree in (None, 0):
            c = x.coeff(0)
            forms += [c, QuadSurd(c)] + ([c.numerator] if c.denominator == 1 else [])
        return forms
    return [Poly.const(x), RatFunc(x), QuadSurd(x)]


@given(subtractable_pairs())
@example((Poly.const(5), 5))
@example((RatFunc(5), 5))
@example((RatFunc(X), X))
@settings(max_examples=300, deadline=None)
def test_subtraction_equality_and_hash_of_the_exact_types(pair):
    x, k = pair
    assert k - x == -(x - k)
    assert x - k == x + (-k)
    if x == k:
        assert hash(x) == hash(k)
    for y in equal_forms(x):
        assert y == x and x == y and hash(y) == hash(x)


@given(st.lists(small_fractions, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_equality_is_transitive_across_the_exact_types(values):
    """Each value in all five types (int where integral), beside X and an
    irrational QuadSurd: == is an equivalence relation on the lot, and
    equal values hash alike."""
    items = [X, QuadSurd(0, 1, 2)]
    for q in values:
        items += [q, Poly.const(q), RatFunc(q), QuadSurd(q)]
        items += [q.numerator] if q.denominator == 1 else []
    eq = [[x == y for y in items] for x in items]
    for i, x in enumerate(items):
        for j, y in enumerate(items):
            assert eq[i][j] == eq[j][i]
            if eq[i][j]:
                # x and y equal the same items, so == is transitive
                assert eq[i] == eq[j] and hash(x) == hash(y)
    assert len(set(items)) == len(set(values)) + 2
