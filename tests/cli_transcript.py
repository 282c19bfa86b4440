"""The CLI golden transcript: argv -> exit code, stdout and stderr.

    python3 tests/cli_transcript.py

rewrites tests/cli_transcript.json from the source tree next to it.  It
runs every case below in process through polycf.cli.main, the way
test_cli_transcript.py replays them: the README examples, every literal
input of test_cli.py, identify on the pairs the README names, and the
stdout of the four demos.  A change that alters output on purpose
regenerates the file, so its diff lists exactly the outputs that changed.
"""

from __future__ import annotations

import io
import json
import os
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "cli_transcript.json")

APERY = ("--a", "34n^3+51n^2+27n+5", "--b", "-n^6", "--depth", "2000")
RATIONAL = ("--a", "3/2n^2+1/5", "--b=-1/7n^4+n", "--depth", "2000", "--head", "-5/3")
LARGE_ROOT_A = "n^3 + n^2 + 14797530453474819213543604224000003n + 29595060906949638427087208448000002"
LARGE_ROOT_B = "-n^5 - 14797530453474819213543604224000001n^4 - 14797530453474819213543604224000000n^3"

CASES = [
    # README, "Command line"
    ["eval", "--a", "n", "--b", "n", "--depth", "30", "--digits", "12"],
    ["identify", "--a", "34n^3+51n^2+27n+5", "--b", "-n^6"],
    ["limit", "--a", "2n^2+3n+2", "--b", "-n^4-n^3", "--closed-form", "--eps", "1e-3", "--digits", "8"],
    ["convert", "--matrix", "n+1,n+2,n+3,n+4"],
    ["triangularize", "--h1", "n+1", "--h2", "n+2", "--depth", "4"],
    # identify on the other (a, b) pairs the README names
    ["identify", "--a", "2n^3+3n^2+11n+5", "--b", "-n^6"],
    ["identify", "--a", "2n^2+3n+2", "--b", "-n^4-n^3"],
    # tests/test_cli.py
    ["eval", "--a", "1", "--b", "1", "--depth", "1"],
    ["eval", "--a", "2", "--b", "4", "--depth", "2"],
    ["eval", "--a", "2", "--b", "4", "--depth", "2", "--reduced"],
    ["eval", "--a", "2", "--b", "4", "--depth", "2", "--head", "1/2"],
    ["eval", "--a", "n+1/2", "--b", "n", "--depth", "3"],
    ["eval", "--a", "n+1/2", "--b", "n", "--depth", "3", "--head", "1/3"],
    ["eval", "--a", "0", "--b", "1", "--depth", "1"],
    ["eval", "--a", "y+1", "--b", "1", "--depth", "1"],
    ["eval", "--a", "n^10001", "--b", "n", "--depth", "3"],
    ["eval", "--a", "n^100000000000", "--b", "n", "--depth", "3"],
    ["eval", "--a", "n^²", "--b", "n", "--depth", "3"],
    ["eval", "--a", "1", "--b", "1", "--depth", "0"],
    ["eval", "--a", "-1", "--b", "1", "--depth", "1", "--digits", "3"],
    ["eval", *APERY],
    ["eval", *APERY, "--reduced"],
    ["eval", *APERY, "--reduced", "--digits", "60"],
    ["eval", *RATIONAL, "--reduced"],
    ["identify", "--a", "34n^3+51n^2+27n+5", "--b=-n^6"],
    ["identify", "--a", "2n^3+3n^2+11n+5", "--b=-n^6"],
    ["identify", "--a", "2n+1", "--b=-n^2", "--jobs", "2"],
    ["identify", "--a", "2n+3", "--b=-n^2", "--b-factored=-(n)^3"],
    ["identify", "--a", "2n+1", "--b=-n^2"],
    ["identify", "--a", "2n+1", "--b=-n^2", "--b-factored=-(n)^2"],
    ["identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "-(n)^2"],
    ["identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "-(5)*(n)^2*1/5"],
    ["identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "(2n)^100000000000"],
    ["identify", "--a", "2n+1", "--b=-n^2", "--b-factored", "(0)(n)^2"],
    ["identify", "--a", "2n^2+2n+3", "--b=-n^4-2n^2-1", "--b-factored", "-(n^2+1)^2"],
    ["identify", "--a", "2n^2+3n+2", "--b", "-n^4-2n^3-n^2", "--b-factored", "-(n^2+n)*(n)*(n+1)"],
    ["limit", "--a", str(10**30 + 7), "--b", "1"],
    ["identify", "--a", "2n+1", f"--b=-n^2-{(10**19 + 51) * (10**19 + 1053)}"],
    ["limit", "--a", "1", "--b", "1"],
    ["limit", "--a", "0", "--b", "1"],
    ["limit", "--a", str(10**15), "--b", str(10**30), "--digits", "8"],
    ["limit", "--a", "n+2", "--b=-n", "--eps", "1e-8", "--digits", "10"],
    ["limit", "--a", "2n^2+3n+2", "--b=-n^4-n^3", "--eps", "1e-3", "--digits", "8", "--closed-form"],
    ["limit", "--a", "n^2+n+2", "--b=-n^3-n^2", "--eps", "1e-3", "--digits", "8", "--closed-form"],
    ["limit", "--a", "3n+2", "--b=-2n^2", "--eps", "1e-3", "--digits", "8", "--closed-form"],
    ["limit", "--a", "2n+4", "--b=-n^2-3n", "--eps", "1e-3", "--digits", "8", "--closed-form"],
    ["limit", "--a", "2n^2+50n+625", "--b", "-n^4-48n^3-576n^2",
     "--closed-form", "--max-depth", "64", "--digits", "6"],
    ["limit", "--a", LARGE_ROOT_A, f"--b={LARGE_ROOT_B}", "--closed-form", "--max-depth", "64", "--digits", "6"],
    ["limit", "--a", "34n^3+51n^2+27n+5", "--b=-n^6", "--eps", "1e-3", "--digits", "8", "--closed-form"],
    ["limit", "--a", "n+1/3", "--b", "-n^2-1/4", "--eps", "1e-6", "--max-depth", "1024"],
    ["limit", "--a", "0", "--b", "n", "--max-depth", "16", "--closed-form"],
    ["limit", "--a", "0", "--b", "n", "--eps", "1/10", "--max-depth", "64"],
    ["limit", "--a", "n+1/2", "--b", "-n^2+1/4", "--eps", "1/10", "--max-depth", "64"],
    ["limit", "--a", "n", "--b", "0", "--closed-form"],
    ["convert", "--matrix", "n,1,0,n"],
    ["triangularize", "--h1", "n+1", "--h2", "n-3", "--depth", "5"],
    ["triangularize", "--h1", "n-3", "--h2", "n+1", "--depth", "10"],
    ["triangularize", "--h1", "0", "--h2", "n", "--depth", "3"],
    ["triangularize", "--h1", "-n-1", "--h2", "n", "--depth", "2"],
    [],
]

DEMOS = ["constants.py", "identification.py", "matrix_forms.py", "zeta_sums.py"]


def run_argv(argv: list) -> dict:
    """Exit code, stdout and stderr of polycf.cli.main(argv); argparse's
    exit on a usage error counts as its code."""
    from polycf.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_demo(name: str) -> dict:
    """The stdout of demos/<name> run as a script."""
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(os.path.join(ROOT, "demos", name), run_name="__main__")
    return {"demo": name, "stdout": out.getvalue()}


def transcript() -> dict:
    return {"cli": [run_argv(argv) for argv in CASES], "demos": [run_demo(name) for name in DEMOS]}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(transcript(), fh, indent=1, ensure_ascii=False)
        fh.write("\n")
