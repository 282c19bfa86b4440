"""Hypothesis strategies shared by the kernel property tests.

poly_cfs draws polynomial CFs with small rational coefficients, the inputs
on which the cleared product tree and the cleared stream are checked against
the plain stream walks of _reference.  Three shapes are mixed in:

* random a and b of degree <= 3, coefficient denominators <= 12;
* b with a factor (n - r), r a positive integer, so that the CF truncates;
* a = c, b = -c(n) c(n-1) for a linear c: the equivalence transform of
  K -1/1, whose q vanishes at every depth k = 2 mod 3, among them the
  numeric_limit checkpoints 8, 32, 128 and 512 (the convergent is INF).
"""

from fractions import Fraction

from hypothesis import strategies as st

from polycf import CFSpec, Poly

X = Poly.x()

small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


def polys(max_degree: int):
    return st.lists(small_fractions, max_size=max_degree + 1).map(Poly)


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
    return CFSpec(b=b, a=a, start=start, head=head)
