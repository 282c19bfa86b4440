"""Hypothesis strategies shared by the kernel property tests.

coeff_lists draws the raw coefficient lists behind polys, so that the same
list can build both a Poly and the Fraction-coefficient _reference.RefPoly.

poly_cfs draws polynomial CFs with small rational coefficients, the inputs
on which the cleared product tree and the cleared stream are checked against
the plain stream walks of _reference.  Three shapes are mixed in:

* random a and b of degree <= 3, coefficient denominators <= 12;
* b with a factor (n - r), r a positive integer, so that the CF truncates;
* a = c, b = -c(n) c(n-1) for a linear c: the equivalence transform of
  K -1/1, whose q vanishes at every depth k = 2 mod 3, among them the
  numeric_limit checkpoints 8, 32, 128 and 512 (the convergent is INF).

trivial_pairs and euler_triples draw the inputs on which the integer
product trees of euler_partial_value and rederive_euler_sum are checked
against the Fraction passes of _reference:

* trivial pairs (h1, h2) of degree <= 2 with rational coefficients, some
  with a factor (n - m) in h1 (the CF truncates) or in h2 (a pole of the
  formula), m a positive integer;
* non-trivial triples h1 = g1 f, h2 = g2 f(n-1), f a product of (n + r)
  with rational r, some with r = -m for an integer m >= 0, so that f
  vanishes at m.
"""

from fractions import Fraction

from hypothesis import strategies as st

from polycf import CFSpec, EulerTriple, Poly, trivial_triple

X = Poly.x()

small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


def coeff_lists(max_degree: int):
    """Ascending coefficient lists, trailing zeros included."""
    return st.lists(small_fractions, max_size=max_degree + 1)


def polys(max_degree: int):
    return coeff_lists(max_degree).map(Poly)


def nonzero_polys(max_degree: int):
    return polys(max_degree).filter(lambda p: not p.is_zero)


@st.composite
def poly_cfs(draw) -> CFSpec:
    start = draw(st.sampled_from([1, 2, 3]))
    head = draw(small_fractions)
    shape = draw(st.sampled_from(["random", "truncating", "pole"]))
    if shape == "pole":
        c = draw(polys(1).filter(lambda p: not p.is_zero))
        a, b = c, -(c * c.shift(-1))
    elif shape == "truncating":
        a = draw(polys(3))
        r = draw(st.integers(1, 40))
        b = draw(polys(2).filter(lambda p: not p.is_zero)) * (X - r)
    else:
        a, b = draw(polys(3)), draw(polys(3))
    # K_{i>=start}, reindexed to start at 1
    return CFSpec(b=b.shift(start - 1), a=a.shift(start - 1), head=head)


@st.composite
def trivial_pairs(draw) -> tuple:
    h1, h2 = draw(nonzero_polys(2)), draw(nonzero_polys(2))
    shape = draw(st.sampled_from(["random", "h1_root", "h2_root"]))
    if shape == "h1_root":
        h1 = h1 * (X - draw(st.integers(1, 40)))
    elif shape == "h2_root":
        h2 = h2 * (X - draw(st.integers(1, 40)))
    return h1, h2


@st.composite
def euler_triples(draw) -> EulerTriple:
    if draw(st.booleans()):
        return trivial_triple(*draw(trivial_pairs()))
    roots = draw(st.lists(small_fractions, min_size=1, max_size=2))
    if draw(st.booleans()):
        roots.append(Fraction(-draw(st.integers(0, 40))))
    f = Poly.one()
    for r in roots:
        f = f * (X + r)
    g1, g2 = draw(nonzero_polys(2)), draw(nonzero_polys(2))
    return EulerTriple(g1 * f, g2 * f.shift(-1), f)
