"""End-to-end checks of the command line interface.

Every test here shells out to ``python -m polycf`` so the argv
normalization, parsing, formatting, and exit-code paths are exercised
exactly as a user would hit them.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycf import CFSpec, Poly, cf_value, parse_poly
from polycf.cli import _normalize_argv, decimal_pair, decimal_string, main

from _reference import decimal_prefix, e_ref, reference_state_at


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    # the subprocess imports polycf from this checkout, installed or not
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "polycf", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_eval_unit_depth_one():
    r = run_cli("eval", "--a", "1", "--b", "1", "--depth", "1")
    assert r.returncode == 0
    assert r.stdout == "1/1\n"
    assert r.stderr == ""


def test_eval_prints_unreduced_pair():
    # x_2 = 4/(2 + 4/2) = 8/8; the raw convergent pair is kept as is.
    r = run_cli("eval", "--a", "2", "--b", "4", "--depth", "2")
    assert r.returncode == 0
    assert r.stdout == "8/8\n"

    reduced = run_cli("eval", "--a", "2", "--b", "4", "--depth", "2", "--reduced")
    assert reduced.stdout == "1/1\n"


def test_eval_head_is_applied_without_reduction():
    r = run_cli("eval", "--a", "2", "--b", "4", "--depth", "2", "--head", "1/2")
    assert r.returncode == 0
    assert r.stdout == "24/16\n"


def test_eval_rational_coefficients_print_an_integer_pair():
    # p and q are Fractions here; the pair is scaled to integers, not reduced
    r = run_cli("eval", "--a", "n+1/2", "--b", "n", "--depth", "3")
    assert r.returncode == 0
    assert r.stdout == "94/197\n"
    headed = run_cli("eval", "--a", "n+1/2", "--b", "n", "--depth", "3", "--head", "1/3")
    assert headed.stdout == "479/591\n"


def test_eval_pole_prints_inf():
    r = run_cli("eval", "--a", "0", "--b", "1", "--depth", "1")
    assert r.returncode == 0
    assert r.stdout == "inf\n"


def test_eval_e_family_to_twelve_digits():
    r = run_cli("eval", "--a", "n", "--b", "n", "--depth", "30", "--digits", "12")
    assert r.returncode == 0
    frac_line, dec_line = r.stdout.splitlines()
    num, den = map(int, frac_line.split("/"))
    value = Fraction(num, den)
    target = 1 / (e_ref() - 1)
    assert abs(value - target) < Fraction(1, 10**12)
    assert dec_line == decimal_string(target, 12)


def test_eval_rejects_malformed_polynomial():
    r = run_cli("eval", "--a", "y+1", "--b", "1", "--depth", "1")
    assert r.returncode == 2
    assert "unexpected token 'y'" in r.stderr


@pytest.mark.parametrize("exponent", ["10001", "100000000000"])
def test_eval_rejects_an_exponent_above_the_bound(exponent):
    r = run_cli("eval", "--a", f"n^{exponent}", "--b", "n", "--depth", "3")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("usage:")
    assert f"unexpected token '{exponent}' at position 2" in r.stderr


def test_eval_rejects_a_superscript_exponent():
    r = run_cli("eval", "--a", "n^²", "--b", "n", "--depth", "3")
    assert (r.returncode, r.stdout) == (2, "")
    assert "unexpected token '²' at position 2" in r.stderr


def test_eval_requires_positive_depth():
    r = run_cli("eval", "--a", "1", "--b", "1", "--depth", "0")
    assert r.returncode == 2


def test_identify_apery_numerator_json():
    r = run_cli("identify", "--a", "34n^3+51n^2+27n+5", "--b=-n^6")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["solutions"] == []
    assert report["exhaustive"] is True
    assert len(report["rejections"]) == 7
    cube_split = [
        rej for rej in report["rejections"]
        if rej["h1"] == ["0", "0", "0", "1"]
    ]
    assert [rej["reason"] for rej in cube_split] == ["irrational leading split"]


def test_identify_finds_quadratic_f():
    r = run_cli("identify", "--a", "2n^3+3n^2+11n+5", "--b=-n^6")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["solutions"] == [
        {
            "h1": ["0", "0", "0", "1"],
            "h2": ["0", "0", "0", "1"],
            "f": ["1/2", "1", "1"],
        }
    ]
    assert report["exhaustive"] is True


def test_identify_output_is_deterministic():
    argv = ("identify", "--a", "34n^3+51n^2+27n+5", "--b=-n^6")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout


def test_identify_rejects_jobs_flag():
    # identify has no --jobs option, so the flag is a parse error
    r = run_cli("identify", "--a", "2n+1", "--b=-n^2", "--jobs", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments: --jobs 2" in r.stderr


def test_identify_negative_b_as_separate_token():
    # "-n^6" looks like an option; the launcher folds it into --b=-n^6.
    r = run_cli("identify", "--a", "34n^3+51n^2+27n+5", "--b", "-n^6")
    assert r.returncode == 0
    assert json.loads(r.stdout)["exhaustive"] is True


def test_identify_factored_hint_must_match():
    r = run_cli("identify", "--a", "2n+3", "--b=-n^2", "--b-factored=-(n)^3")
    assert r.returncode == 1
    assert r.stderr == "error: InvalidInput: factored form does not multiply back to b\n"


def test_identify_factored_hint_happy_path():
    plain = run_cli("identify", "--a", "2n+1", "--b=-n^2")
    hinted = run_cli("identify", "--a", "2n+1", "--b=-n^2", "--b-factored=-(n)^2")
    assert plain.returncode == hinted.returncode == 0
    assert plain.stdout == hinted.stdout


def test_identify_constant_hint_block_changes_nothing():
    plain = run_cli("identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "-(n)^2")
    const = run_cli("identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "-(5)*(n)^2*1/5")
    assert plain.returncode == const.returncode == 0
    assert const.stdout == plain.stdout
    assert json.loads(const.stdout)["exhaustive"] is True


def test_identify_hint_multiplicity_above_the_bound_is_a_usage_error():
    r = run_cli("identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "(2n)^100000000000")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("usage:")
    assert "unexpected token '100000000000' at position 5" in r.stderr


def test_identify_zero_hint_block_is_named_by_its_text():
    r = run_cli("identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "(0)(n)^2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unexpected token '(0)' at position 0" in r.stderr


def test_identify_quadratic_hint_block_reports_its_triple():
    # trivial_triple(n^2+1, n^2+1): a = h1 + h2(n+1), b = -h1 h2
    r = run_cli("identify", "--a", "2n^2+2n+3", "--b=-n^4-2n^2-1", "--b-factored", "-(n^2+1)^2")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["solutions"] == [{"h1": ["1", "0", "1"], "h2": ["1", "0", "1"], "f": ["1"]}]
    assert report["exhaustive"] is False


def test_identify_hint_blocks_sharing_a_factor_list_each_split_once():
    # (n^2+n, n^2+n) comes from two exponent vectors of the hint
    r = run_cli("identify", "--a", "2n^2+3n+2", "--b", "-n^4-2n^3-n^2", "--b-factored", "-(n^2+n)*(n)*(n+1)")
    assert r.returncode == 0
    splits = [(x["h1"], x["h2"]) for x in json.loads(r.stdout)["rejections"]]
    assert len(splits) == 7
    assert splits.count((["0", "1", "1"], ["0", "1", "1"])) == 1


@pytest.mark.parametrize("argv", [
    # A^2 + 4 = 10^60 + 14*10^30 + 53 for A = 10^30 + 7
    ("limit", "--a", str(10**30 + 7), "--b", "1"),
    # the constant is (10^19 + 51)(10^19 + 1053)
    ("identify", "--a", "2n+1", f"--b=-n^2-{(10**19 + 51) * (10**19 + 1053)}"),
])
def test_factoring_budget_ends_the_call_with_exit_1(argv):
    start = time.monotonic()
    r = run_cli(*argv)
    assert time.monotonic() - start < 15
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: InvalidInput: cannot factor ")


def test_limit_constant_cf_classifier():
    r = run_cli("limit", "--a", "1", "--b", "1")
    assert r.returncode == 0
    assert r.stdout == "converges\nroot: -1/2 + 1/2*sqrt(5)\n"

    osc = run_cli("limit", "--a", "0", "--b", "1")
    assert osc.returncode == 0
    assert osc.stdout == "diverges_oscillates\n"


def test_limit_constant_digits_with_large_coefficients():
    # root = 10^15 (sqrt(5) - 1)/2: the sqrt(5) coefficient is 5*10^14, so an
    # approximation error that grows with it would show in the printed digits
    r = run_cli("limit", "--a", str(10**15), "--b", str(10**30), "--digits", "8")
    assert r.returncode == 0
    assert r.stdout == (
        "converges\n"
        "root: -500000000000000 + 500000000000000*sqrt(5)\n"
        "618033988749894.84820458\n"
    )


def test_limit_estimate_transcript():
    r = run_cli("limit", "--a", "n+2", "--b=-n", "--eps", "1e-8", "--digits", "10")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "estimate: " + decimal_string((2 - e_ref()) / (e_ref() - 1), 10)
    assert lines[1].startswith("delta: 0.0000000")
    assert lines[2] == "depth: 32"
    assert lines[3] == "verdict: estimated"


def test_limit_closed_form_zeta_family():
    r = run_cli(
        "limit", "--a", "2n^2+3n+2", "--b=-n^4-n^3",
        "--eps", "1e-3", "--digits", "8", "--closed-form",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "verdict: estimated" in lines
    assert "triple: h1 = n^2, h2 = n^2 + n, f = 1" in lines
    assert "sum = 2*zeta(2) - 2" in lines
    assert "cf = 2 * (1/(2*zeta(2) - 2) - 1)" in lines


def test_limit_closed_form_dominant_growth():
    r = run_cli(
        "limit", "--a", "n^2+n+2", "--b=-n^3-n^2",
        "--eps", "1e-3", "--digits", "8", "--closed-form",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "triple: h1 = n^2, h2 = n + 1, f = 1" in lines
    assert "not telescoping: h1 and h2 degrees differ" in lines
    assert "cf = -2 (dominant growth)" in lines


def test_limit_closed_form_beta_integral():
    r = run_cli(
        "limit", "--a", "3n+2", "--b=-2n^2",
        "--eps", "1e-3", "--digits", "8", "--closed-form",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "triple: h1 = n, h2 = 2*n, f = 1" in lines
    assert "not telescoping: leading coefficients differ" in lines
    assert "sum = (1/B(1, 1)) * integral_0^1 t^(0) (1-t)^(0) / (1 - 1/2 t) dt" in lines


def test_limit_closed_form_rational_telescope():
    r = run_cli(
        "limit", "--a", "2n+4", "--b=-n^2-3n",
        "--eps", "1e-3", "--digits", "8", "--closed-form",
    )
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "triple: h1 = n, h2 = n + 3, f = 1" in lines
    assert "sum = 4/3" in lines
    assert "cf = 4 * (1/(4/3) - 1)" in lines


def test_limit_closed_form_at_a_large_root_offset():
    # h2 = (n+24)^2: the summand has 25 double poles over a constant of
    # (25!)^2, read off h2's roots in well under the subprocess timeout
    r = run_cli(
        "limit", "--a", "2n^2+50n+625", "--b", "-n^4-48n^3-576n^2",
        "--closed-form", "--max-depth", "64", "--digits", "6",
    )
    combo = "20154752301937500*zeta(2) - 162466550113244405013436638978125/4900472974260864"
    assert r.returncode == 0
    assert r.stderr == ""
    assert r.stdout == (
        "estimate: -0.928307\n"
        "delta: 0.000000\n"
        "depth: 16\n"
        "verdict: estimated\n"
        "triple: h1 = n^2, h2 = n^2 + 48*n + 576, f = 1\n"
        f"sum = {combo}\n"
        f"cf = 625 * (1/({combo}) - 1)\n"
    )


def test_limit_closed_form_with_a_large_integer_root_of_b():
    # h1 = n^3, h2 = (n + N)(n + 1), N = (19!)^2: two splits of b ask for a
    # deg f of about N, which identify skips; the value is -h2(1)
    r = run_cli(
        "limit", "--a", "n^3 + n^2 + 14797530453474819213543604224000003n + 29595060906949638427087208448000002",
        "--b=-n^5 - 14797530453474819213543604224000001n^4 - 14797530453474819213543604224000000n^3",
        "--closed-form", "--max-depth", "64", "--digits", "6",
    )
    assert r.returncode == 0
    assert "cf = -29595060906949638427087208448000002 (dominant growth)" in r.stdout.splitlines()


def test_limit_closed_form_reports_no_match():
    r = run_cli(
        "limit", "--a", "34n^3+51n^2+27n+5", "--b=-n^6",
        "--eps", "1e-3", "--digits", "8", "--closed-form",
    )
    assert r.returncode == 0
    assert r.stdout.splitlines()[-1] == "no closed form found (no Euler-family match)"


def test_convert_transcript():
    r = run_cli("convert", "--matrix", "n+1,n+2,n+3,n+4")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "cf form: [0, (2*n + 8) / (n + 3); 1, (2*n^2 + 13*n + 22) / (n + 3)]",
        "coboundary: [1, n + 1; 0, n + 3]",
        "init: [1, 2; 0, 4]",
        "integral form: [0, 2*n^2 + 12*n + 16; 1, 2*n^2 + 13*n + 22]",
    ]


def test_convert_rejects_zero_lower_left():
    r = run_cli("convert", "--matrix", "n,1,0,n")
    assert r.returncode == 1
    assert r.stderr == "error: ZeroCEntry: lower-left entry is identically zero\n"


def test_triangularize_transcript():
    r = run_cli("triangularize", "--h1", "n+1", "--h2", "n+2", "--depth", "4")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "T: [n + 1, (-n - 1) / (n + 3); 0, n + 2]",
        "alpha = n + 1, lambda = n + 2",
        "triangular route K_1^3 = -3/2",
        "summation formula K_1^3 = -3/2",
        "agree: true",
    ]


def test_triangularize_pole_sets_exit_code():
    r = run_cli("triangularize", "--h1", "n+1", "--h2", "n-3", "--depth", "5")
    assert r.returncode == 1
    assert r.stderr == "error: PoleInFormula: h2 vanishes at k = 3\n"
    # The report is built in full before printing, so nothing partial shows.
    assert r.stdout == ""


def test_triangularize_root_of_h1_truncates():
    # h1(3) = 0 makes the triangular product singular; the CF ends there
    r = run_cli("triangularize", "--h1", "n-3", "--h2", "n+1", "--depth", "10")
    assert r.returncode == 0
    assert r.stderr == ""
    assert r.stdout.splitlines()[2:] == [
        "triangular route K_1^9 = 2",
        "summation formula K_1^9 = 2",
        "agree: true",
    ]


def test_triangularize_zero_h1_is_a_domain_error():
    r = run_cli("triangularize", "--h1", "0", "--h2", "n", "--depth", "3")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: InvalidInput: h1 must be a nonzero polynomial\n"


def _random_poly_text(rng, max_degree=2):
    """A small polynomial with rational coefficients; one in five is 0."""
    if rng.random() < 0.2:
        return "0"
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, max_degree + 1))]
    return Poly(coeffs).to_text()


def _random_argv(rng):
    """One call of a random subcommand; one in twenty has a bad token."""
    poly = lambda d=2: _random_poly_text(rng, d)
    cmd = rng.choice(["eval", "identify", "limit", "convert", "triangularize"])
    if cmd == "eval":
        argv = ["eval", "--a", poly(), "--b", poly(), "--depth", str(rng.randint(1, 40))]
        if rng.random() < 0.5:
            argv += ["--head", str(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))]
        if rng.random() < 0.3:
            argv.append("--reduced")
        if rng.random() < 0.3:
            argv += ["--digits", str(rng.randint(1, 20))]
    elif cmd == "identify":
        argv = ["identify", "--a", poly(3), "--b", poly(4)]
    elif cmd == "limit":
        argv = ["limit", "--a", poly(), "--b", poly(), "--eps", "1/1000"]
        argv += ["--max-depth", str(rng.choice([8, 64, 256]))]
        if rng.random() < 0.5:
            argv.append("--closed-form")
        if rng.random() < 0.3:
            argv += ["--digits", str(rng.randint(1, 12))]
    elif cmd == "convert":
        argv = ["convert", "--matrix", ",".join(poly() for _ in range(4))]
    else:
        argv = ["triangularize", "--h1", poly(), "--h2", poly(), "--depth", str(rng.randint(1, 20))]
    if rng.random() < 0.05:
        argv[rng.randrange(1, len(argv))] = rng.choice(["n+", "", "0", "1/0", "x^"])
    return argv


def test_main_exit_contract_on_random_calls():
    """Every subcommand on seeded random input: main returns 0 or 1 or
    argparse exits with 2, no other exception escapes, and a domain error
    (exit 1) prints its message on stderr and nothing on stdout."""
    rng = random.Random(20231017)
    codes = Counter()
    for _ in range(400):
        argv = _random_argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 1:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: "), argv
        codes[argv[0], code] += 1
    # the draw reaches the success and domain-error exits of every subcommand
    for cmd in ("eval", "identify", "limit", "convert", "triangularize"):
        assert codes[cmd, 0] > 0
    assert all(codes[cmd, 1] > 0 for cmd in ("identify", "limit", "convert", "triangularize"))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit")
def test_eval_prints_past_the_int_string_limit():
    # Apery at depth 2000: p and q have more than 4300 digits
    r = run_cli("eval", "--a", "34n^3+51n^2+27n+5", "--b", "-n^6", "--depth", "2000")
    assert r.returncode == 0
    assert r.stderr == ""
    num, den = r.stdout.strip().split("/")
    assert len(den) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = Fraction(int(num), int(den))
    finally:
        sys.set_int_max_str_digits(limit)
    cf = CFSpec(b=parse_poly("-n^6"), a=parse_poly("34n^3+51n^2+27n+5"))
    assert value == cf_value(cf, 2000)


_APERY_ARGS = ("--a", "34n^3+51n^2+27n+5", "--b", "-n^6", "--depth", "2000")
_RATIONAL_ARGS = ("--a", "3/2n^2+1/5", "--b=-1/7n^4+n", "--depth", "2000", "--head", "-5/3")


@pytest.mark.parametrize(
    "args, stream, digits",
    [
        (_APERY_ARGS, ("-n^6", "34n^3+51n^2+27n+5", 1, 0), None),
        (_APERY_ARGS, ("-n^6", "34n^3+51n^2+27n+5", 1, 0), 60),
        # a and b cleared by L = 70: a' = 70 a, b' = 70^2 b; the K part is p'/(70 q')
        (_RATIONAL_ARGS, ("-700n^4+4900n", "105n^2+14", 70, Fraction(-5, 3)), None),
    ],
    ids=["apery", "apery-digits", "rational-head"],
)
def test_eval_reduced_at_depth_prints_the_reduced_stream_value(args, stream, digits):
    b, a, scale, head = stream
    s = reference_state_at(CFSpec(b=parse_poly(b), a=parse_poly(a)), 2000)
    v = head + Fraction(s.p, scale * s.q)
    r = run_cli("eval", *args, "--reduced", *(["--digits", str(digits)] if digits else []))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        want = f"{v.numerator}/{v.denominator}\n"
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if digits:
        want += decimal_prefix(v, digits) + "\n"
    assert (r.returncode, r.stderr, r.stdout) == (0, "", want)


def test_limit_prints_past_the_int_string_limit():
    r = run_cli("limit", "--a", "n+1/3", "--b", "-n^2-1/4", "--eps", "1e-6", "--max-depth", "1024")
    assert r.returncode == 0
    assert r.stderr == ""
    lines = r.stdout.splitlines()
    assert len(lines[0]) > 4300
    assert lines[2:] == ["depth: 1024", "verdict: inconclusive"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit")
def test_main_restores_the_int_string_limit(capsys):
    before = sys.get_int_max_str_digits()
    assert main(["eval", "--a", "34n^3+51n^2+27n+5", "--b", "-n^6", "--depth", "2000"]) == 0
    assert main(["triangularize", "--h1", "n+1", "--h2", "n-3", "--depth", "5"]) == 1
    assert sys.get_int_max_str_digits() == before
    assert len(capsys.readouterr().out) > 8600


def test_limit_failure_prints_no_partial_report():
    # the estimate succeeds, then identify rejects a = 0
    r = run_cli("limit", "--a", "0", "--b", "n", "--max-depth", "16", "--closed-form")
    assert r.returncode == 1
    assert r.stderr == "error: InvalidInput: a and b must be nonzero\n"
    assert r.stdout == ""


def test_limit_of_a_cf_without_a_limit_is_inconclusive():
    # K n/0 alternates between a pole and 0: equal checkpoints next to a
    # pole do not make an estimate
    r = run_cli("limit", "--a", "0", "--b", "n", "--eps", "1/10", "--max-depth", "64")
    assert r.returncode == 0
    assert r.stderr == ""
    assert r.stdout.splitlines() == ["estimate: 0", "delta: 0", "depth: 64", "verdict: inconclusive"]


def test_limit_closed_form_with_zero_b_is_finite():
    # b = 0 truncates the CF at its first term: the estimate is exact and
    # identify, which needs b != 0, is not asked
    r = run_cli("limit", "--a", "n", "--b", "0", "--closed-form")
    assert r.returncode == 0
    assert r.stderr == ""
    assert r.stdout.splitlines() == [
        "estimate: 0",
        "delta: 0",
        "depth: 1",
        "verdict: estimated",
        "no closed form found (b = 0, the CF is finite)",
    ]


def test_no_subcommand_is_a_usage_error():
    r = run_cli()
    assert r.returncode == 2


def test_normalize_argv_folds_value_flags():
    argv = ["identify", "--a", "2n+1", "--b", "-n^2"]
    assert _normalize_argv(argv) == ["identify", "--a=2n+1", "--b=-n^2"]
    # Already folded forms and non-value flags pass through untouched.
    assert _normalize_argv(["eval", "--a=n", "--reduced"]) == ["eval", "--a=n", "--reduced"]
    assert _normalize_argv(["eval", "--b"]) == ["eval", "--b"]


def test_decimal_string_truncates_toward_zero():
    assert decimal_string(Fraction(1, 3), 4) == "0.3333"
    assert decimal_string(Fraction(-1, 3), 4) == "-0.3333"
    assert decimal_string(Fraction(2, 3), 4) == "0.6666"
    assert decimal_string(Fraction(5, 2), 0) == "2"
    assert decimal_string(Fraction(1), 2) == "1.00"


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(-(10**40), 10**40)),
    st.integers(-(10**40), 10**40).filter(lambda d: d != 0),
    st.integers(0, 30),
    st.one_of(st.just(-1), st.integers(1, 10**30)),
)
def test_decimal_pair_renders_like_the_reduced_fraction(num, den, digits, scale):
    """The unreduced pair, scaled by any common factor (a negative one
    included), prints what decimal_string prints for the reduced value."""
    want = decimal_string(Fraction(num, den), digits)
    assert decimal_pair(num, den, digits) == want
    assert decimal_pair(num * scale, den * scale, digits) == want
    if digits:
        assert want == decimal_prefix(Fraction(num, den), digits)


def test_decimal_pair_on_huge_and_signed_pairs():
    big = 10**5000
    assert decimal_pair(-(3 * big + 3), 7 * big + 7, 20) == decimal_string(Fraction(-3, 7), 20)
    assert decimal_pair(22 * big, -(7 * big), 0) == "-3"
    assert decimal_pair(0, -big, 3) == "0.000"
    assert decimal_pair(-1, 3, 4) == "-0.3333"


def test_eval_digits_take_the_sign_from_the_denominator():
    r = run_cli("eval", "--a", "-1", "--b", "1", "--depth", "1", "--digits", "3")
    assert r.returncode == 0
    assert r.stdout == "1/-1\n-1.000\n"
    assert r.stderr == ""


def test_triangularize_pole_prints_inf_on_both_routes():
    r = run_cli("triangularize", "--h1", "-n-1", "--h2", "n", "--depth", "2")
    assert r.returncode == 0
    assert r.stderr == ""
    assert r.stdout.splitlines()[2:] == [
        "triangular route K_1^1 = inf",
        "summation formula K_1^1 = inf",
        "agree: true",
    ]
