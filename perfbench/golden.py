"""Reference outputs for the benchmark oracles, established by independent routes.

    python3 perfbench/golden.py        # rewrites perfbench/golden.json

Run it from the repository root after changing the full sizes in
workloads.FULL or the fixed inputs.  Each reference is computed by a route
other than the one the benchmark times, or checked against one:

* deep evaluations: a plain integer recurrence written here (Apery, K n/n)
  and euler_partial_value (the zeta(2) triple), stored as exact digests;
* every-state read: a plain integer product of the step matrices;
* numeric_limit: its value and delta are re-derived with euler_partial_value
  at the reported depths, and its verdict from the delta;
* CLI: stdout of the README examples, compared with the text the README
  prints before it is stored.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

from workloads import (
    CLI_CALLS,
    DEEP_CFS,
    FULL,
    LIMIT_TRIPLES,
    STATES_MATRIX,
    digest,
    fraction_digest,
    horner,
)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# The README's command-line examples, verbatim.  identify is abbreviated
# there, so its output is checked structurally instead.
README_STDOUT = {
    "eval": "3025013288941909109703700275299910/5197825365236013708021862604700090\n0.581976706869\n",
    "limit": (
        "estimate: -0.44917649\n"
        "delta: 0.00077337\n"
        "depth: 64\n"
        "verdict: estimated\n"
        "triple: h1 = n^2, h2 = n^2 + n, f = 1\n"
        "sum = 2*zeta(2) - 2\n"
        "cf = 2 * (1/(2*zeta(2) - 2) - 1)\n"
    ),
    "convert": (
        "cf form: [0, (2*n + 8) / (n + 3); 1, (2*n^2 + 13*n + 22) / (n + 3)]\n"
        "coboundary: [1, n + 1; 0, n + 3]\n"
        "init: [1, 2; 0, 4]\n"
        "integral form: [0, 2*n^2 + 12*n + 16; 1, 2*n^2 + 13*n + 22]\n"
    ),
    "triangularize": (
        "T: [n + 1, (-n - 1) / (n + 3); 0, n + 2]\n"
        "alpha = n + 1, lambda = n + 2\n"
        "triangular route K_1^3 = -3/2\n"
        "summation formula K_1^3 = -3/2\n"
        "agree: true\n"
    ),
}


def plain_convergent(a, b, depth: int) -> Fraction:
    """K_{i=1}^{depth} b(i)/a(i) by the three-term recurrence on plain ints."""
    p_prev, p, q_prev, q = 1, 0, 0, 1
    for i in range(1, depth + 1):
        ai, bi = horner(a, i), horner(b, i)
        p_prev, p = p, ai * p + bi * p_prev
        q_prev, q = q, ai * q + bi * q_prev
    g = gcd(p, q)
    return Fraction(p // g, q // g)


def deep_golden(lib, depths) -> dict:
    zeta2 = lib.trivial_triple(lib.Poly.x() ** 2, lib.Poly.x() ** 2)
    a, b = DEEP_CFS["zeta2"]
    if (zeta2.a, zeta2.b) != (lib.Poly(a), lib.Poly(b)):
        raise AssertionError("the zeta(2) input is not the trivial triple h1 = h2 = n^2")
    out = {}
    for name, (a, b) in DEEP_CFS.items():
        for depth in depths:
            if name == "zeta2":
                value = lib.euler_partial_value(zeta2, depth)
            else:
                value = plain_convergent(a, b, depth)
            out[f"{name}@{depth}"] = fraction_digest(value)
    return out


def states_golden(n: int, stride: int) -> dict:
    """Digests of P_k = (p_k, p_{k+1}; q_k, q_{k+1}), (p_j; q_j) = M(1)...M(j)(1; 0)."""
    a, b, c, d = STATES_MATRIX
    cols = [(1, 0)]
    m11, m12, m21, m22 = 1, 0, 0, 1
    for j in range(1, n + 2):
        aj, bj, cj, dj = horner(a, j), horner(b, j), horner(c, j), horner(d, j)
        m11, m12, m21, m22 = m11 * aj + m12 * cj, m11 * bj + m12 * dj, m21 * aj + m22 * cj, m21 * bj + m22 * dj
        cols.append((m11, m21))
    return {
        str(k): digest(cols[k][0], cols[k + 1][0], cols[k][1], cols[k + 1][1])
        for k in range(0, n + 1, stride)
    }


def limit_golden(lib, size: dict) -> dict:
    out = {}
    max_depth = size["max_depth"]
    for h1_text, h2_text in LIMIT_TRIPLES:
        t = lib.trivial_triple(lib.parse_poly(h1_text), lib.parse_poly(h2_text))
        cf = lib.CFSpec(b=t.b, a=t.a)
        for eps_text in size["eps"]:
            eps = Fraction(eps_text)
            est = lib.numeric_limit(cf, eps, max_depth)
            depth = est.depth_used
            if est.value != lib.euler_partial_value(t, depth):
                raise AssertionError(f"{h1_text}, {h2_text}: value is not the depth-{depth} convergent")
            delta = abs(est.value - lib.euler_partial_value(t, depth // 2))
            if est.last_delta != delta:
                raise AssertionError(f"{h1_text}, {h2_text}: delta is not the last checkpoint difference")
            estimated = delta < eps
            if (est.verdict == est.ESTIMATED) != estimated or (not estimated and depth != max_depth):
                raise AssertionError(f"{h1_text}, {h2_text}: verdict {est.verdict} at depth {depth}")
            out[f"({h1_text}, {h2_text}) eps={eps}"] = {
                "verdict": est.verdict,
                "depth": depth,
                "value": fraction_digest(est.value),
                "delta": fraction_digest(est.last_delta),
            }
    return out


def cli_golden(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    for label, args, code, _ in CLI_CALLS:
        if code != 0:
            continue
        proc = subprocess.run(
            [sys.executable, "-m", "polycf", *args],
            cwd=os.path.dirname(src),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise AssertionError(f"cli {label}: exit {proc.returncode}: {proc.stderr}")
        if label == "identify":
            report = json.loads(proc.stdout)
            if report["solutions"] or not report["exhaustive"] or len(report["rejections"]) != 7:
                raise AssertionError("cli identify: Apery pair should give 7 rejections and no solution")
        elif proc.stdout != README_STDOUT[label]:
            raise AssertionError(f"cli {label}: stdout differs from the README")
        out[label] = proc.stdout
    return out


def compute(lib, size: dict, src: str) -> dict:
    deep = size["deep_eval"]
    return {
        "sizes": size,
        "deep": deep_golden(lib, deep["depths"]),
        "states": states_golden(deep["states_depth"], deep["states_stride"]),
        "limit": limit_golden(lib, size["limit_rational"]),
        "cli": cli_golden(src),
    }


def main() -> int:
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    import polycf

    golden = compute(polycf, FULL, src)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
