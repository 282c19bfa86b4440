"""Tests for the (a, b) -> Euler triple search.

Oracle cases are worked by hand from the defining relation

    f(x) a(x) = f(x-1) h1(x) + f(x+1) h2(x+1)

and the search must rediscover them and label every decomposition it gives
up on.
"""

import importlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polycf import (
    EulerTriple,
    InvalidInput,
    Poly,
    build_euler_cf,
    candidate_degrees,
    identify,
    leading_coeff_split,
    parse_factored,
    parse_poly,
    solve_f,
    trivial_triple,
)
from polycf.identify import (
    MAX_F_DEGREE,
    REASON_F_BUDGET,
    REASON_IRRATIONAL,
    REASON_NO_DEGREE,
    REASON_NO_F,
    REASON_PATTERN,
)

from _reference import (
    BetaTriple,
    python_calls,
    reference_solve_f,
    reference_splits,
    split_key,
    three_term_degree_analysis,
)

X = Poly.x()
ONE = Poly.one()


def assert_sound(report, a, b):
    # every reported triple must rebuild the input pair exactly
    for t in report.solutions:
        assert build_euler_cf(t) == (a, b)


# ---------------------------------------------------------------------------
# hand-worked oracles
# ---------------------------------------------------------------------------


def test_cubic_with_quadratic_f():
    """a = 2n^3+3n^2+11n+5, b = -n^6 has the lone triple (n^3, n^3, n^2+n+1/2).

    Worked by hand: the split must be n^3 * n^3 with leading pair (1, 1)
    (double root of t^2 - 2t + 1), and f = n^2 + n + 1/2 satisfies
    f(n)a(n) - f(n-1)n^3 - f(n+1)(n+1)^3 = 0 term by term.
    """
    a = parse_poly("2n^3+3n^2+11n+5")
    b = parse_poly("-n^6")
    report = identify(a, b)
    f = Poly((Fraction(1, 2), 1, 1))
    assert report.solutions == [EulerTriple(X**3, X**3, f)]
    assert report.exhaustive
    assert len(report.rejections) == 6
    assert all(r.reason == REASON_PATTERN for r in report.rejections)
    assert_sound(report, a, b)


def test_irrational_leading_split_yields_no_solutions():
    # same b, but the lead of a forces t^2 - 34t - (-1) whose discriminant
    # 1152 = 2^7 * 3^2 is not a rational square: the balanced split dies,
    # every lopsided split fails the degree pattern, and the report can say
    # so exhaustively.
    a = parse_poly("34n^3+51n^2+27n+5")
    b = parse_poly("-n^6")
    report = identify(a, b)
    assert report.solutions == []
    assert report.exhaustive
    assert len(report.rejections) == 7
    reasons = {(str(r.h1), str(r.h2)): r.reason for r in report.rejections}
    assert reasons[("n^3", "n^3")] == REASON_IRRATIONAL
    others = [v for k, v in reasons.items() if k != ("n^3", "n^3")]
    assert others == [REASON_PATTERN] * 6


def test_linear_pair_one_sided():
    """a = n+2, b = -n: only h2 can carry the degree."""
    report = identify(X + 2, -X)
    assert report.solutions == [EulerTriple(ONE, X, ONE)]
    assert report.exhaustive
    assert [r.reason for r in report.rejections] == [REASON_NO_DEGREE]
    assert (report.rejections[0].h1, report.rejections[0].h2) == (X, ONE)
    assert_sound(report, X + 2, -X)


def test_repeated_root_split():
    # b = -n^2 exposes the multiset choices {0,1,2} for the factor n
    a = 2 * X + 1
    report = identify(a, -(X**2))
    assert report.solutions == [trivial_triple(X, X)]
    assert len(report.rejections) == 2
    assert_sound(report, a, -(X**2))


def test_same_cf_from_three_triples():
    """a = 2n+4, b = -(n+1)(n+2) is reachable three ways.

    Both factor orders admit f = 1, and for the order (n+2, n+1) every monic
    linear f solves the relation; the search reports one representative of
    that pencil alongside the two trivial triples.
    """
    a = 2 * X + 4
    b = -((X + 1) * (X + 2))
    report = identify(a, b)
    assert set(report.solutions) == {
        trivial_triple(X + 1, X + 2),
        trivial_triple(X + 2, X + 1),
        EulerTriple(X + 2, X + 1, X),
    }
    # another member of the same pencil, valid but not the representative
    assert build_euler_cf(EulerTriple(X + 2, X + 1, X + 2)) == (a, b)
    assert report.exhaustive
    assert [r.reason for r in report.rejections] == [REASON_PATTERN] * 2
    assert_sound(report, a, b)


def test_admissible_degree_without_f():
    # the degree analysis admits deg f = 0 for the split (n^2, 1) of
    # a = n^2+3, yet a = h1 + h2(x+1) fails, so only the zero f solves
    a = X**2 + 3
    b = -(X**2)
    assert candidate_degrees(a, X**2, ONE) == {0}
    report = identify(a, b)
    assert report.solutions == []
    reasons = {(str(r.h1), str(r.h2)): r.reason for r in report.rejections}
    assert reasons == {
        ("1", "n^2"): REASON_NO_DEGREE,
        ("n", "n"): REASON_PATTERN,
        ("n^2", "1"): REASON_NO_F,
    }


def test_equal_leads_with_a_nonzero_top_coefficient_admit_no_degree():
    # with equal leads the x^k coefficient of the image of x^k is the
    # constant a1 - g1 - g2 - d*v for every k; when it is nonzero (1 for
    # (n, n+1) and (n+1, n) under a = 2n+3, 4 for (n, n) under 2n+5) the
    # images have distinct degrees and no degree of f is admissible
    a = 2 * X + 3
    b = -(X * (X + 1))
    assert candidate_degrees(a, X, X + 1) == set()
    assert candidate_degrees(a, X + 1, X) == set()
    assert candidate_degrees(2 * X + 5, X, X) == set()
    report = identify(a, b)
    assert report.solutions == []
    reasons = sorted(r.reason for r in report.rejections)
    assert reasons == sorted([REASON_NO_DEGREE, REASON_NO_DEGREE, REASON_PATTERN, REASON_PATTERN])


# ---------------------------------------------------------------------------
# unit behavior of the pieces
# ---------------------------------------------------------------------------


def test_leading_coeff_split_cases():
    a = X + 2
    assert leading_coeff_split(a, -X, (1, 0)) == ([(Fraction(1), Fraction(1))], None)
    assert leading_coeff_split(a, -X, (0, 1)) == ([(Fraction(1), Fraction(1))], None)
    # balanced split with a of lower degree: c1 = -c2, c1^2 = lead b
    pairs, reason = leading_coeff_split(ONE, Poly((0, 0, 4)), (1, 1))
    assert reason is None
    assert set(pairs) == {(Fraction(2), Fraction(-2)), (Fraction(-2), Fraction(2))}
    pairs, reason = leading_coeff_split(ONE, Poly((0, 0, 2)), (1, 1))
    assert pairs == [] and reason == REASON_IRRATIONAL
    pairs, reason = leading_coeff_split(a, -X, (2, 0))
    assert pairs == [] and reason == REASON_PATTERN
    # rational leads, a = -2n/3 + 1
    h = Fraction(3, 2)
    assert leading_coeff_split(ONE, X * X * Fraction(9, 4), (1, 1)) == ([(h, -h), (-h, h)], None)
    assert leading_coeff_split(ONE, X * X / 8, (1, 1)) == ([], REASON_IRRATIONAL)
    a = 1 - 2 * X / 3
    c = Fraction(27, 8)  # -B/A
    assert leading_coeff_split(a, X * X * Fraction(9, 4), (1, 0)) == ([(Fraction(-2, 3), c)], None)
    assert leading_coeff_split(a, X * X * Fraction(9, 4), (0, 1)) == ([(c, Fraction(-2, 3))], None)
    # roots of t^2 + 2t/3 - 1/3 (B = 1/3): 1/3 and -1, both orders; B = 1/12
    # leaves the discriminant 7/9
    r1, r2 = Fraction(1, 3), Fraction(-1)
    assert leading_coeff_split(a, X / 3, (1, 1)) == ([(r1, r2), (r2, r1)], None)
    assert leading_coeff_split(a, X / 12, (1, 1)) == ([], REASON_IRRATIONAL)
    # a double root: B = -A^2/4 = -1/9 gives c1 = c2 = -1/3, listed once
    third = Fraction(-1, 3)
    assert leading_coeff_split(a, -X / 9, (1, 1)) == ([(third, third)], None)


def test_solve_f_known_kernel():
    a = parse_poly("2n^3+3n^2+11n+5")
    assert solve_f(a, X**3, X**3, 2) == EulerTriple(X**3, X**3, Poly((Fraction(1, 2), 1, 1)))
    # cap below the true degree: only the zero solution remains
    assert solve_f(a, X**3, X**3, 1) is None
    assert solve_f(X + 2, X, ONE, 0) is None
    assert solve_f(X + 2, X, ONE, -1) is None


def test_degree_routes_agree_on_quadratic_case():
    a = 2 * X + 4
    h1, h2 = X + 2, X + 1
    expected = {0, 1}
    assert candidate_degrees(a, h1, h2) == expected
    assert three_term_degree_analysis(BetaTriple.from_cf(a, h1, h2)) == expected


# h1 = c1 g1 f and h2 = c2 g2 f(x-1) with rational leads, one triple for
# each degree pattern that the indicial coefficients handle without a case
# of their own: deg h1 = deg a > deg h2, deg h2 = deg a > deg h1, and
# deg h1 = deg h2 > deg a with opposite leads
DEGREE_PATTERN_TRIPLES = {
    "h1_carries_a": EulerTriple(Fraction(3, 2) * X * (X + 1), Fraction(2, 3) * X, X + 1),
    "h2_carries_a": EulerTriple(Fraction(2, 3) * (X + 1), Fraction(3, 2) * (X + 2) * X, X + 1),
    "opposite_leads": EulerTriple(
        Fraction(5, 2) * (X + 1) * (X + 2), Fraction(-5, 2) * X * (X + 1), (X + 1) * (X + 2)
    ),
}


@pytest.mark.parametrize("name", DEGREE_PATTERN_TRIPLES)
def test_degree_routes_agree_on_each_degree_pattern(name):
    """On each pattern with rational leads the indicial coefficients give
    the oracle's degree set: for the triple's a, which admits deg f, and
    for a moved at x^(d-1): by
    v - u, the x^d coefficients of h2 less h1's, the root moves to
    deg f + 1, and by 1/3 off the integers."""
    t = DEGREE_PATTERN_TRIPLES[name]
    a, h1, h2 = t.a, t.h1, t.h2
    d = max(h1.degree, h2.degree)
    u, v = h1.coeff(d), h2.coeff(d)
    patterns = {
        "h1_carries_a": a.degree == h1.degree > h2.degree,
        "h2_carries_a": a.degree == h2.degree > h1.degree,
        "opposite_leads": h1.degree == h2.degree > a.degree and u == -v,
    }
    assert patterns[name]
    assert t.f.degree in candidate_degrees(a, h1, h2)
    assert candidate_degrees(a + (v - u) * X ** (d - 1), h1, h2) == {t.f.degree + 1}
    for moved in (a, a + X ** (d - 1) / 3, a + (v - u) * X ** (d - 1)):
        via_recurrence = three_term_degree_analysis(BetaTriple.from_cf(moved, h1, h2))
        assert candidate_degrees(moved, h1, h2) == via_recurrence


@st.composite
def small_poly(draw, max_degree=3):
    deg = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(deg)]
    lead = draw(st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0))
    return Poly([Fraction(c) for c in coeffs] + [Fraction(lead)])


@st.composite
def degree_inputs(draw):
    """(a, h1, h2), drawn independently a third of the time.  Otherwise h1
    and h2 share degree d, with equal or with opposite leads, and
    a = h1 + h2(x+1) + r with deg r < d.  Equal leads balance the x^d
    coefficients, and when deg r < d - 1 the x^(d-1) ones too, which reaches
    the quadratic in candidate_degrees; opposite leads give deg a < d."""
    mode = draw(st.sampled_from(["independent", "equal", "opposite"]))
    h1 = draw(small_poly())
    if mode == "independent":
        return draw(small_poly()), h1, draw(small_poly())
    d = h1.degree
    coeffs = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(d)]
    lead = h1.lead if mode == "equal" else -h1.lead
    h2 = Poly([Fraction(c) for c in coeffs] + [lead])
    n = draw(st.integers(min_value=0, max_value=d))  # deg r < n
    r = Poly([Fraction(draw(st.integers(min_value=-4, max_value=4))) for _ in range(n)])
    a = h1 + h2.shift(1) + r
    assume(not a.is_zero)
    return a, h1, h2


@settings(max_examples=120, deadline=None)
@given(inputs=degree_inputs())
def test_degree_routes_agree_everywhere(inputs):
    """The indicial coefficients on stored ints and the generic recurrence
    analysis are independent derivations; they must produce identical
    degree sets on arbitrary nonzero inputs, admissible or not."""
    a, h1, h2 = inputs
    via_indicial = candidate_degrees(a, h1, h2)
    via_recurrence = three_term_degree_analysis(BetaTriple.from_cf(a, h1, h2))
    assert via_indicial == via_recurrence


@st.composite
def linear_rooted_triple(draw):
    # h1 = c1 * prod(x+r) * f, h2 = c2 * prod(x+s) * f(x-1); every root is
    # a small nonnegative integer so b splits into linear blocks and the
    # search is exhaustive
    scale = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
    root = st.integers(min_value=0, max_value=3)
    g1 = Poly.const(draw(scale))
    for r in draw(st.lists(root, max_size=2)):
        g1 = g1 * (X + r)
    g2 = Poly.const(draw(scale))
    for r in draw(st.lists(root, max_size=2)):
        g2 = g2 * (X + r)
    f = ONE
    for r in draw(st.lists(root, max_size=2)):
        f = f * (X + r + 1)
    return EulerTriple(g1 * f, g2 * f.shift(-1), f)


@settings(max_examples=40, deadline=None)
@given(t=linear_rooted_triple())
def test_search_recovers_constructed_triples(t):
    a, b = build_euler_cf(t)
    assume(b.degree >= 1)
    report = identify(a, b)
    assert report.exhaustive
    assert (t.h1, t.h2) in {(s.h1, s.h2) for s in report.solutions}
    assert_sound(report, a, b)


@pytest.mark.parametrize(
    "variant", ["linear", "atomic", "factored", "rational", "rational_factored", "shared_factored"]
)
def test_examined_splits_match_reference_enumeration(variant):
    """identify examines exactly the splits of the pick-by-pick reference,
    stored exactly as the reference's Poly products are, and reports its
    rejections in sorted split order.

    b has 1-3 distinct integer roots of multiplicity 1-3; "atomic" adds an
    (n^2+1)^k factor with k = 1 or 2, which identify sees as one rootless
    block (n^2+1)^k of multiplicity 1, and "factored" passes the blocks,
    shuffled, as a hint, so n^2+1 is a block of multiplicity k that splits
    like any other.  The "rational" variants draw the roots among integers
    and fractions, so that blocks such as (2n+1)^m and (3n-1) are stored
    over a denominator, give b a content that is not an integer, and pass
    the blocks as a hint or not.  "shared_factored" adds a hint block
    (n-r)(n-s) of two of the roots (r = s for one), so that several
    exponent vectors give one split, which is examined once.  a comes from
    a random split, so some splits are solved and some rejected.
    """
    rng = random.Random(f"splits-{variant}")
    rational = variant.startswith("rational")
    for _ in range(8):
        if rational:
            values = [-3, 0, 2, Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(-2, 3)]
            roots = rng.sample(values, rng.randint(1, 3))
        else:
            roots = rng.sample(range(-3, 4), rng.randint(1, 3))
        blocks = [(X - r, rng.randint(1, 3)) for r in roots]
        if variant in ("atomic", "factored"):
            k = rng.randint(1, 2)
            blocks.append(((X**2 + 1) ** k, 1) if variant == "atomic" else (X**2 + 1, k))
        if variant == "shared_factored":
            blocks.append(((X - roots[0]) * (X - roots[-1]), rng.randint(1, 2)))
        h1 = h2 = ONE
        for p, m in blocks:
            e = rng.choice(range(m + 1))
            h1, h2 = h1 * p**e, h2 * p ** (m - e)
        h2 = h2 * rng.choice([Fraction(2, 3), -6, Fraction(-5, 4)] if rational else [1, 2])
        a, b = build_euler_cf(trivial_triple(h1, h2))
        factored = None
        if variant.endswith("factored"):
            rng.shuffle(blocks)
            factored = (-h2.lead, blocks)
        report = identify(a, b, factored=factored)

        rejected = [(r.h1, r.h2) for r in report.rejections]
        examined = rejected + list({(t.h1.monic(), t.h2.monic()) for t in report.solutions})
        reference = reference_splits(blocks)
        # each split once, with solutions or with one rejection
        assert sorted(examined, key=split_key) == reference

        def stored(split):
            return tuple((p.numerators, p.denominator) for p in split)

        assert {stored(s) for s in examined} == {stored(s) for s in reference}
        assert rejected == sorted(rejected, key=split_key)
        assert report.exhaustive == (variant not in ("atomic", "factored", "shared_factored"))


# ---------------------------------------------------------------------------
# hints, report shape
# ---------------------------------------------------------------------------


def test_factored_hint_matches_plain_search():
    a = parse_poly("2n^3+3n^2+11n+5")
    b = parse_poly("-n^6")
    plain = identify(a, b)
    hinted = identify(a, b, factored=parse_factored("-(n)^6"))
    assert hinted.to_dict() == plain.to_dict()


def test_factored_hint_must_multiply_back():
    with pytest.raises(InvalidInput):
        identify(X + 2, -(X**6), factored=parse_factored("-(n)^5"))


def test_factored_hint_of_the_wrong_degree_fails_before_multiplying_out():
    with pytest.raises(InvalidInput, match="factored form does not multiply back to b"):
        identify(2 * X + 1, -(X**2), factored=parse_factored("(n+1)^10000"))


def test_atomic_hint_block_narrows_the_search():
    """A quadratic hint block is taken as indivisible: splits through it are
    never tried and the report stops claiming exhaustiveness."""
    a = 2 * X + 4
    b = -((X + 1) * (X + 2))
    hinted = identify(a, b, factored=parse_factored("-(n^2+3n+2)"))
    assert hinted.solutions == []
    assert not hinted.exhaustive
    assert [r.reason for r in hinted.rejections] == [REASON_PATTERN] * 2
    # the same input splits fine when the factoring is left to the search
    assert len(identify(a, b).solutions) >= 3


def test_a_split_of_hint_blocks_sharing_a_factor_is_examined_once(monkeypatch):
    """-(n^2+n)(n)(n+1) gives the split (n^2+n, n^2+n) by two exponent
    vectors; it is solved, or rejected, once."""
    module = importlib.import_module("polycf.identify")
    solve, systems = module.solve_f, []

    def counting_solve(a, h1, h2, d):
        systems.append((h1, h2))
        return solve(a, h1, h2, d)

    monkeypatch.setattr(module, "solve_f", counting_solve)
    b, hint, h = parse_poly("-n^4-2n^3-n^2"), parse_factored("-(n^2+n)*(n)*(n+1)"), X**2 + X
    solved = identify(parse_poly("2n^2+4n+2"), b, factored=hint)
    assert solved.solutions == [trivial_triple(h, h)]
    assert systems.count((h, h)) == 1
    rejected = identify(parse_poly("2n^2+3n+2"), b, factored=hint).rejections
    assert len(rejected) == len({(r.h1, r.h2) for r in rejected}) == 7
    assert [r.reason for r in rejected if r.h1 == h] == [REASON_NO_DEGREE]


def test_quadratic_hint_block_splits_between_h1_and_h2():
    """A hint block of degree 2 takes every exponent, like a linear one: the
    hint (n^2+1)^2 gives the split (n^2+1, n^2+1), which the plain search,
    seeing the rootless residual as one block, does not visit."""
    t = trivial_triple(X**2 + 1, X**2 + 1)
    a, b = build_euler_cf(t)
    hinted = identify(a, b, factored=parse_factored("-(n^2+1)^2"))
    assert hinted.solutions == [t]
    assert not hinted.exhaustive
    assert_sound(hinted, a, b)
    assert identify(a, b).solutions == []


def test_report_dict_shape():
    report = identify(parse_poly("2n^3+3n^2+11n+5"), parse_poly("-n^6"))
    d = report.to_dict()
    assert set(d) == {"solutions", "rejections", "exhaustive"}
    assert d["exhaustive"] is True
    assert d["solutions"] == [
        {
            "h1": ["0", "0", "0", "1"],
            "h2": ["0", "0", "0", "1"],
            "f": ["1/2", "1", "1"],
        }
    ]
    for r in d["rejections"]:
        assert set(r) == {"h1", "h2", "reason"}
    assert json.loads(json.dumps(d)) == d


def test_rejected_inputs():
    with pytest.raises(InvalidInput):
        identify(Poly.zero(), -X)
    with pytest.raises(InvalidInput):
        identify(X + 2, Poly.zero())
    with pytest.raises(InvalidInput):
        identify(X + 2, Poly.const(Fraction(-3)))


@st.composite
def small_rational_poly(draw, max_degree=3):
    """Like small_poly, with each coefficient over 1, 2 or 3."""
    deg = draw(st.integers(min_value=0, max_value=max_degree))
    nums = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(deg)]
    nums.append(draw(st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)))
    return Poly([Fraction(c, draw(st.sampled_from([1, 2, 3]))) for c in nums])


@st.composite
def solve_f_cases(draw):
    """(a, h1, h2, d_f) around a planted triple h1 = g1 f, h2 = g2 f(x-1):
    half the time g1 and g2 share degree and lead, so the degree quadratic
    can admit two roots; a is the planted one or a + 1, and d_f runs up to
    three above the candidate degrees and deg f.  Half the time the
    coefficients are over 2 and 3 as well as 1.  Leads of either sign."""
    poly = small_rational_poly if draw(st.booleans()) else small_poly
    f = draw(poly())
    g1 = draw(poly(max_degree=2))
    if draw(st.booleans()):
        g2 = g1 + Poly(draw(st.lists(st.integers(-4, 4), max_size=g1.degree)))
    else:
        g2 = draw(poly(max_degree=2))
    h1, h2 = g1 * f, g2 * f.shift(-1)
    a = build_euler_cf(EulerTriple(h1, h2, f))[0]
    if draw(st.booleans()):
        a = a + 1
    assume(not a.is_zero)
    top = max(candidate_degrees(a, h1, h2) | {f.degree})
    return a, h1, h2, draw(st.integers(0, top + 3))


@settings(max_examples=200, deadline=None)
@given(solve_f_cases())
# h1 = -(n/2) f, h2 = (2n/3) f(x-1) with f = n^2 - n/3 + 1/2, and a: leads of
# both signs and denominators 2 to 36, cleared by their lcm
@example((
    parse_poly("1/6*n^3 + 53/18*n^2 + 35/36*n + 7/9"),
    parse_poly("-1/2*n^3 + 1/6*n^2 - 1/4*n"),
    parse_poly("2/3*n^3 - 14/9*n^2 + 11/9*n"),
    4,
))
def test_solve_f_matches_the_dense_reference(case):
    """The reduction by degree returns the f of the dense Fraction system:
    the monic kernel vector of its highest free column, or None."""
    got = solve_f(*case)
    want = reference_solve_f(*case)
    if want is None:
        assert got is None
    else:
        a, h1, h2, _ = case
        assert got.f.coeffs == want.coeffs
        assert (got.h1, got.h2, got.a) == (h1, h2, a)


@pytest.mark.parametrize("a, b, h1, h2", [
    # unequal leads: deg f = a1 - d*v = 42 - 2 = 40
    (3 * X + 42, -2 * X**2, X, 2 * X),
    # equal leads, degrees {0, 40}: the image of x^40 cancels through every
    # image held below it
    (2 * X + 41, -(X * (X + 40)), X + 40, X),
])
def test_degree_40_f_matches_the_dense_reference(a, b, h1, h2):
    want = reference_solve_f(a, h1, h2, 40)
    assert want.degree == 40
    found = [t.f for t in identify(a, b).solutions if (t.h1, t.h2) == (h1, h2)]
    assert [f.coeffs for f in found if f.degree == 40] == [want.coeffs]


def test_solve_f_makes_no_poly_call_per_image():
    """The images run on integer vectors: a few Python calls per image of x^i
    and per reduction step.  Poly products and subtractions per image would
    make about 82.  The image of x^200 is the indicial one and cancels
    through all 200 images held below it."""
    a, h1, h2, d = 3 * X + 202, X, 2 * X, 200
    assert solve_f(a, h1, h2, d).f.degree == d
    assert python_calls(lambda: solve_f(a, h1, h2, d)) <= 16 * (d + 1)


README_PAIRS = [
    ("2n^3+3n^2+11n+5", "-n^6"),
    ("34n^3+51n^2+27n+5", "-n^6"),
    ("2n^2+3n+2", "-n^4-n^3"),
]

# the names a per-stage benchmark wraps in polycf.identify
TRACED_NAMES = (
    "factor_integer_rooted",
    "leading_coeff_split",
    "candidate_degrees",
    "solve_f",
    "EulerTriple",
    "build_euler_cf",
)


def _contract_pairs():
    """The README pairs, and planted triples h1 = c1 n(n+2) f,
    h2 = c2 (n+1) f(x-1) with scales 1/2 and 3, each with its a and a + 1."""
    pairs = [(parse_poly(a), parse_poly(b)) for a, b in README_PAIRS]
    half = Fraction(1, 2)
    for c1, c2 in [(half, 3), (3, half), (half, half)]:
        for f in (ONE, X + 1, (X + 1) * (X + 3)):
            a, b = build_euler_cf(EulerTriple(c1 * X * (X + 2) * f, c2 * (X + 1) * f.shift(-1), f))
            pairs += [(a, b), (a + 1, b)]
    return pairs


def test_identify_calls_each_stage_once_per_split_and_system(monkeypatch):
    """identify calls its stages through the module's globals, so a wrapper
    sees every call: factor_integer_rooted once, leading_coeff_split once per
    reported split, candidate_degrees once per leading pair, solve_f once per
    (pair, candidate degree <= MAX_F_DEGREE), with None exactly where the
    dense reference has no f, and EulerTriple and build_euler_cf once per f
    found.  A benchmark reads its split and system counts off these calls."""
    # the module, not the package attribute polycf.identify (the function)
    module = importlib.import_module("polycf.identify")
    original = {name: getattr(module, name) for name in TRACED_NAMES}
    calls = {name: [] for name in TRACED_NAMES}

    def wrap(name):
        def wrapper(*args):
            out = original[name](*args)
            calls[name].append((args, out))
            return out

        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(module, name, wrap(name))
    for a, b in _contract_pairs():
        for log in calls.values():
            log.clear()
        report = identify(a, b)
        splits = {(t.h1.monic(), t.h2.monic()) for t in report.solutions}
        splits |= {(r.h1, r.h2) for r in report.rejections}
        # the systems recounted from the splits, by the unwrapped stages
        systems, pairs = Counter(), 0
        for h1m, h2m in splits:
            leading, _ = original["leading_coeff_split"](a, b, (h1m.degree, h2m.degree))
            for c1, c2 in leading:
                h1, h2 = h1m * c1, h2m * c2
                pairs += 1
                for d in original["candidate_degrees"](a, h1, h2):
                    if d <= MAX_F_DEGREE:
                        systems[h1, h2, d] += 1
        assert len(calls["factor_integer_rooted"]) == 1
        assert len(calls["leading_coeff_split"]) == len(splits)
        assert len(calls["candidate_degrees"]) == pairs
        solved = calls["solve_f"]
        assert Counter((h1, h2, d) for (a_, h1, h2, d), _ in solved) == systems
        for (a_, h1, h2, d), f in solved:
            want = reference_solve_f(a, h1, h2, d)
            assert (f is None) == (want is None)
        found = sum(f is not None for _, f in solved)
        assert len(calls["EulerTriple"]) == len(calls["build_euler_cf"]) == found
        assert len(report.solutions) <= found


def test_identify_checks_each_found_f_once(monkeypatch):
    """On identify's path the relation is checked once per f found: by the
    EulerTriple that solve_f builds, which divides f(x-1)h1 + f(x+1)h2(x+1)
    by f.  The Taylor shifts are that triple's three, f(x-1), f(x+1) and
    h2(x+1), plus the h2(x+1) each system is reduced with."""
    module = importlib.import_module("polycf.identify")
    shift, divide, solve = Poly.shift, Poly.__divmod__, module.solve_f
    counts = Counter()

    def counting_shift(p, k):
        counts["shifts"] += len(p.numerators) > 1 and k != 0
        return shift(p, k)

    def counting_divide(p, q):
        counts["divisions"] += 1
        return divide(p, q)

    def counting_solve(*args):
        t = solve(*args)
        counts["systems"] += 1
        counts["found"] += t is not None
        return t

    monkeypatch.setattr(Poly, "shift", counting_shift)
    monkeypatch.setattr(Poly, "__divmod__", counting_divide)
    monkeypatch.setattr(module, "solve_f", counting_solve)
    found = 0
    for a, b in _contract_pairs():
        counts.clear()
        identify(a, b)
        assert counts["divisions"] == counts["found"]
        assert counts["shifts"] <= 3 * counts["found"] + counts["systems"]
        found += counts["found"]
    assert found > 0


def test_large_roots_are_rejected_without_a_large_system():
    """b = -(n-200)(n-400) with a = 2n+1: both linear splits have equal
    leads and a nonzero top coefficient, so no degree is admissible, and the
    degree-200 system that the quadratic alone would admit has only the
    zero solution."""
    a, b = 2 * X + 1, -((X - 200) * (X - 400))
    report = identify(a, b)
    assert report.to_dict() == {
        "solutions": [],
        "rejections": [
            {"h1": ["1"], "h2": ["80000", "-600", "1"], "reason": REASON_PATTERN},
            {"h1": ["-400", "1"], "h2": ["-200", "1"], "reason": REASON_NO_DEGREE},
            {"h1": ["-200", "1"], "h2": ["-400", "1"], "reason": REASON_NO_DEGREE},
            {"h1": ["80000", "-600", "1"], "h2": ["1"], "reason": REASON_PATTERN},
        ],
        "exhaustive": True,
    }
    assert solve_f(a, X - 200, X - 400, 200) is None


def test_a_candidate_degree_above_the_budget_is_not_solved():
    """a = 3n + 1000002, b = -2n^2: the split (n, 2n) asks for deg f = 10^6,
    which is over MAX_F_DEGREE, so it is rejected unsolved and the report is
    not exhaustive."""
    start = time.monotonic()
    report = identify(3 * X + 1000002, -2 * X**2)
    assert time.monotonic() - start < 1.0
    assert MAX_F_DEGREE < 10**6
    assert report.to_dict() == {
        "solutions": [],
        "rejections": [
            {"h1": ["1"], "h2": ["0", "0", "1"], "reason": REASON_PATTERN},
            {"h1": ["0", "1"], "h2": ["0", "1"], "reason": REASON_F_BUDGET},
            {"h1": ["0", "0", "1"], "h2": ["1"], "reason": REASON_PATTERN},
        ],
        "exhaustive": False,
    }


def test_a_degree_200_f_is_within_the_budget():
    a, b = 3 * X + 202, -2 * X**2
    report = identify(a, b)
    assert [(t.h1, t.h2, t.f.degree) for t in report.solutions] == [(X, 2 * X, 200)]
    assert report.exhaustive is True
    assert_sound(report, a, b)


def test_a_large_integer_root_of_b_ends_with_budget_rejections():
    """h2 = (n + N)(n + 1) with N = (19!)^2: two splits ask for a deg f of
    about N.  They get the budget rejection; the two triples of degree at
    most 1 are still found."""
    N = math.factorial(19) ** 2
    a, b = build_euler_cf(EulerTriple(X**3, (X + N) * (X + 1), ONE))
    start = time.monotonic()
    report = identify(a, b)
    assert time.monotonic() - start < 1.0
    assert report.solutions == [
        EulerTriple(X**3, (X + N) * (X + 1), ONE),
        EulerTriple(X**3 + X**2, X * (X + N), X + 1),
    ]
    assert [(r.h1, r.h2) for r in report.rejections if r.reason == REASON_F_BUDGET] == [
        (X**2 * (X + N), X * (X + 1)),
        (X * (X + N) * (X + 1), X**2),
    ]
    assert report.exhaustive is False
    assert_sound(report, a, b)


def test_a_solved_split_with_a_skipped_degree_is_not_rejected():
    """a = 2n + 1005, b = -(n + 1)(n + 1003): the split (n + 1003, n + 1)
    has the candidate degrees 0 and 1002.  f = 1 solves it at degree 0, so
    it gets no rejection; 1002 is above MAX_F_DEGREE and skipped, so the
    report is not exhaustive."""
    a, b = 2 * X + 1005, -((X + 1) * (X + 1003))
    assert candidate_degrees(a, X + 1003, X + 1) == {0, MAX_F_DEGREE + 2}
    report = identify(a, b)
    assert report.solutions == [EulerTriple(X + 1, X + 1003, ONE), EulerTriple(X + 1003, X + 1, ONE)]
    solved = {(t.h1.monic(), t.h2.monic()) for t in report.solutions}
    rejected = {(r.h1, r.h2) for r in report.rejections}
    assert not solved & rejected
    assert [r.reason for r in report.rejections] == [REASON_PATTERN] * 2
    assert report.exhaustive is False
    assert_sound(report, a, b)


def test_a_large_content_of_b_is_divided_out_before_the_root_search():
    # -b = c(n^2 + 1), c = 720720^2 with 3645 divisors: one atomic block
    c = 720720**2
    start = time.monotonic()
    report = identify(2 * X + 1, -(c * X**2 + c))
    assert time.monotonic() - start < 1.0
    assert report.exhaustive is False
    assert [r.h1 for r in report.rejections] == [ONE, X**2 + 1]


def test_b_with_a_semiprime_root_is_split_over_its_roots():
    # -b = (n + N)(n + 1) for a semiprime N of 63 digits: the root search
    # factors no integer, so the blocks are n + N and n + 1
    N = (10**30 + 57) * (10**32 + 49)
    a, b = 2 * X + 1, -(X + N) * (X + 1)
    start = time.monotonic()
    report = identify(a, b)
    assert time.monotonic() - start < 1.0
    assert report.solutions == [] and report.exhaustive is True
    assert [(r.h1, r.h2) for r in report.rejections] == [
        (ONE, (X + N) * (X + 1)),
        (X + 1, X + N),
        (X + N, X + 1),
        ((X + N) * (X + 1), ONE),
    ]
    assert_sound(report, a, b)


def test_zero_polynomials_are_invalid_input():
    with pytest.raises(InvalidInput, match="a, h1, h2 must be nonzero"):
        candidate_degrees(Poly.zero(), X, X + 1)
    with pytest.raises(InvalidInput, match="a and b must be nonzero"):
        leading_coeff_split(X + 2, Poly.zero(), (1, 1))
