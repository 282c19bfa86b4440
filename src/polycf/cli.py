"""Command line front end.

Subcommands: eval, identify, limit, convert, triangularize.  Polynomials are
written in the text grammar of :mod:`polycf.algebra` (variable n or x).  All
numeric output is exact fraction strings; pass --digits for an additional
decimal rendering computed by integer long division.  Exit codes: 0 success,
1 domain error (the message carries the library error name), 2 parse error.

Only the parser's modules (algebra, errors) load with this one; each
subcommand imports the modules it runs inside its own function, so a short
call does not pay for compiling the rest of the library.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebra import Poly, is_inf, parse_factored, parse_poly
from .errors import NonTelescoping, PolycfError, PolyParseError


def _poly_arg(text: str) -> Poly:
    try:
        return parse_poly(text)
    except PolyParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _factored_arg(text: str):
    try:
        return parse_factored(text)
    except PolyParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rat_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


def _matrix_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("need four comma-separated entries A,B,C,D")
    return tuple(_poly_arg(p) for p in parts)


# Flags whose value is a polynomial or rational and may begin with a minus
# sign; argparse would read such a value as an option, so `--b -n^6` is
# folded into `--b=-n^6` before parsing.
_VALUE_FLAGS = {"--a", "--b", "--head", "--eps", "--b-factored", "--h1", "--h2", "--matrix"}


def _normalize_argv(argv: list) -> list:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def decimal_string(q: Fraction, digits: int) -> str:
    """Decimal rendering of q truncated to `digits` places, no floats."""
    return decimal_pair(q.numerator, q.denominator, digits)


def decimal_pair(num: int, den: int, digits: int) -> str:
    """decimal_string of num/den (den != 0) from the unreduced pair: the
    truncated digits of |num|/|den| do not depend on a common factor, so no
    gcd is taken."""
    sign = "-" if (num < 0) != (den < 0) and num else ""
    n, d = abs(num), abs(den)
    whole, rem = divmod(n, d)
    if digits == 0:
        return f"{sign}{whole}"
    frac = rem * 10**digits // d
    return f"{sign}{whole}.{frac:0{digits}d}"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polycf",
        description="exact polynomial continued fractions: evaluate, identify, solve",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="exact convergent of head + K b(n)/a(n)")
    ev.add_argument("--a", type=_poly_arg, required=True, help="partial denominators a(n)")
    ev.add_argument("--b", type=_poly_arg, required=True, help="partial numerators b(n)")
    ev.add_argument("--head", type=_rat_arg, default=Fraction(0), help="term added in front")
    ev.add_argument("--depth", type=_positive_int, required=True, help="number of terms")
    ev.add_argument("--reduced", action="store_true", help="print the pair in lowest terms")
    ev.add_argument("--digits", type=_positive_int, help="also print a decimal rendering")

    idf = sub.add_parser("identify", help="find Euler-family triples for (a, b)")
    idf.add_argument("--a", type=_poly_arg, required=True)
    idf.add_argument("--b", type=_poly_arg, required=True)
    idf.add_argument(
        "--b-factored",
        type=_factored_arg,
        default=None,
        help='pre-factored form of b, e.g. "-(n)^3*(n+1)^3"',
    )

    lim = sub.add_parser("limit", help="estimate or solve the CF limit")
    lim.add_argument("--a", type=_poly_arg, required=True)
    lim.add_argument("--b", type=_poly_arg, required=True)
    lim.add_argument("--eps", type=_rat_arg, default=Fraction(1, 10**9))
    lim.add_argument("--max-depth", type=_positive_int, default=1 << 16)
    lim.add_argument("--closed-form", action="store_true", help="try exact closed forms")
    lim.add_argument("--digits", type=_positive_int, help="decimal rendering of estimates")

    cv = sub.add_parser("convert", help="companion (CF) form of a 2x2 polynomial family")
    cv.add_argument(
        "--matrix",
        type=_matrix_arg,
        required=True,
        metavar="A,B,C,D",
        help='row-major entries of M(n), e.g. "n+1,n^2,2n+1,3"',
    )

    tr = sub.add_parser("triangularize", help="Euler partial value via the triangular route")
    tr.add_argument("--h1", type=_poly_arg, required=True)
    tr.add_argument("--h2", type=_poly_arg, required=True)
    tr.add_argument("--depth", type=_positive_int, required=True)
    return ap


def _cmd_eval(args) -> list[str]:
    from .mobius import CFSpec, _eval_pair, cf_value

    cf = CFSpec(b=args.b, a=args.a, head=args.head)
    if args.reduced:
        # the reduced pair is unique, so cf_value's stripped product gives it
        v = cf_value(cf, args.depth)
        num, den = (1, 0) if is_inf(v) else (v.numerator, v.denominator)
    else:
        num, den = _eval_pair(cf, args.depth)
    if den == 0:
        return ["inf"]
    lines = [f"{num}/{den}"]
    if args.digits:
        lines.append(decimal_pair(num, den, args.digits))
    return lines


def _cmd_identify(args) -> list[str]:
    import json

    from .identify import identify

    report = identify(args.a, args.b, factored=args.b_factored)
    return [json.dumps(report.to_dict(), indent=2)]


def _render_closed_form(t) -> list[str]:
    """The closed-form lines of `limit --closed-form` for the EulerTriple t."""
    from .limits import beta_degree1, cf_limit_from_zeta, dominant_limit, telescoping_zeta_sum

    lines = [
        f"triple: h1 = {t.h1.to_text()}, h2 = {t.h2.to_text()}, f = {t.f.to_text()}"
    ]
    try:
        combo = telescoping_zeta_sum(t)
        form = cf_limit_from_zeta(t, combo)
        lines.append(f"sum = {combo}")
        if combo.status == combo.DIVERGENT:
            lines.append(f"cf = {form.divergent_value()} (sum diverges)")
        else:
            lines.append(f"cf = {form}")
        return lines
    except NonTelescoping as exc:
        lines.append(f"not telescoping: {exc}")
    if t.f == Poly.one():
        dom = dominant_limit(t)
        if dom is not None:
            lines.append(f"cf = {dom} (dominant growth)")
            return lines
        if t.h1.degree <= 1 and t.h2.degree <= 1:
            try:
                form = beta_degree1(t.h1, t.h2)
                lines.append(str(form))
                return lines
            except PolycfError as exc:
                lines.append(f"no Beta form: {exc.__class__.__name__}: {exc}")
    lines.append("no closed form found")
    return lines


def _cmd_limit(args) -> list[str]:
    from .limits import numeric_limit
    from .mobius import CFLimit, CFSpec, constant_cf_limit

    if args.a.degree in (0, None) and args.b.degree in (0, None):
        res = constant_cf_limit(args.a.coeff(0), args.b.coeff(0))
        lines = [res.kind]
        if res.kind == CFLimit.CONVERGES:
            lines.append(f"root: {res.root}")
            if args.digits:
                lines.append(decimal_string(res.root.approx(args.digits + 5), args.digits))
        return lines
    est = numeric_limit(CFSpec(b=args.b, a=args.a), args.eps, args.max_depth)
    if est.value is None:
        lines = ["estimate: none"]
    elif is_inf(est.value):
        lines = ["estimate: inf"]
    elif args.digits:
        lines = [f"estimate: {decimal_string(est.value, args.digits)}"]
    else:
        lines = [f"estimate: {est.value}"]
    if est.last_delta is None:
        lines.append("delta: none")
    elif args.digits:
        lines.append(f"delta: {decimal_string(est.last_delta, args.digits)}")
    else:
        lines.append(f"delta: {est.last_delta}")
    lines.append(f"depth: {est.depth_used}")
    lines.append(f"verdict: {est.verdict}")
    if args.closed_form and args.b.is_zero:
        lines.append("no closed form found (b = 0, the CF is finite)")
    elif args.closed_form:
        from .identify import identify

        report = identify(args.a, args.b)
        if not report.solutions:
            lines.append("no closed form found (no Euler-family match)")
        else:
            lines.extend(_render_closed_form(report.solutions[0]))
    return lines


def _cmd_convert(args) -> list[str]:
    from .matforms import PolyMat2, to_cf_form, to_integral_cf_form

    m = PolyMat2(*args.matrix)
    cfm, u, init = to_cf_form(m)
    return [
        f"cf form: {cfm}",
        f"coboundary: {u}",
        f"init: [{init.a}, {init.b}; {init.c}, {init.d}]",
        f"integral form: {to_integral_cf_form(m)}",
    ]


def _cmd_triangularize(args) -> list[str]:
    from .euler import euler_partial_value, trivial_triple
    from .matforms import euler_cf_matrix, euler_left_eigen, rederive_euler_sum, triangularize

    h1, h2, n = args.h1, args.h2, args.depth
    t, alpha = triangularize(euler_cf_matrix(h1, h2), euler_left_eigen(h1, h2))
    v1 = rederive_euler_sum(h1, h2, n)
    v2 = euler_partial_value(trivial_triple(h1, h2), n - 1)
    s1 = "inf" if is_inf(v1) else str(v1)
    s2 = "inf" if is_inf(v2) else str(v2)
    return [
        f"T: {t}",
        f"alpha = {alpha}, lambda = {h2.to_text()}",
        f"triangular route K_1^{n - 1} = {s1}",
        f"summation formula K_1^{n - 1} = {s2}",
        f"agree: {str(v1 == v2).lower()}",
    ]


_DISPATCH = {
    "eval": _cmd_eval,
    "identify": _cmd_identify,
    "limit": _cmd_limit,
    "convert": _cmd_convert,
    "triangularize": _cmd_triangularize,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_normalize_argv(list(argv)))
    # deep convergents run past Python's default limit on int-to-str
    # conversion (4300 digits); lift it while the command runs and prints
    max_digits = None
    if hasattr(sys, "get_int_max_str_digits"):  # no limit before 3.10.7
        max_digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if max_digits is not None:
            sys.set_int_max_str_digits(max_digits)


def _run(args) -> int:
    # a command builds its whole report before anything is printed, so a
    # failure part-way leaves stdout empty
    try:
        lines = _DISPATCH[args.command](args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PolycfError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
