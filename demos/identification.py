"""From a CF's coefficient polynomials back to its summation form.

Given b = -h1 h2 and a = f-weighted three-term data, the search walks
every factored split of -b, runs the degree analysis, and solves for f
by reducing the images of the powers of x by degree.  Three worked inputs: one with a quadratic f, one
where every split dies (the leading split would need sqrt(1152)), and
one CF that three different triples generate at once.
"""

import json

from polycf import Poly, build_euler_cf, identify, parse_poly

X = Poly.x()


def report(a_text, b_text):
    a, b = parse_poly(a_text), parse_poly(b_text)
    rep = identify(a, b)
    print(f"a = {a_text},  b = {b_text}")
    print(json.dumps(rep.to_dict(), indent=2))
    for t in rep.solutions:
        assert build_euler_cf(t) == (a, b)
        print(f"  solution: h1 = {t.h1}, h2 = {t.h2}, f = {t.f}")
    print()
    return rep


def main():
    # quadratic f with a half-integer constant term
    report("2n^3+3n^2+11n+5", "-n^6")

    # every admissible split needs an irrational leading pair; the report
    # says which split forced it and why the search is still exhaustive
    rep = report("34n^3+51n^2+27n+5", "-n^6")
    assert rep.exhaustive and not rep.solutions

    # one CF, three generating triples (the third from a whole pencil of
    # valid f at the same split; the monic representative is reported)
    rep = report("2n+4", "-n^2-3n-2")
    assert len(rep.solutions) == 3


if __name__ == "__main__":
    main()
