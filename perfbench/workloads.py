"""The benchmark workloads: inputs from a seed, operations, exact oracles.

Every workload is a fixed list of operations (one "pass") built from the
seed; the runner repeats passes closed-loop, one operation at a time.  Each
operation returns its output, and the workload's oracle for it raises
Mismatch when the output is wrong.  When tracing is on, operations open a
span around each direct call into polycf (the span name is the per-layer
metric it feeds), and the workload names the module attributes the runner
wraps so that calls made inside polycf are timed too.

Nothing here imports polycf at module level: the runner imports it during
set-up, so that import time is part of the measured set-up.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from tracing import call_counter

# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------

# Full sizes are what BENCHMARK.json measures; tiny sizes keep the smoke
# tests fast while running the same code paths.
FULL = {
    "deep_eval": {"depths": (4096, 16384), "digits": 1000, "states_depth": 4000, "states_stride": 500},
    "limit_rational": {"eps": ("1/100", "1/1000"), "max_depth": 4096},
    "limit_routes": {"depth": 2048},
    "recognize": {"items": 200, "check_depth": 32},
    "cli": {},
}
TINY = {
    "deep_eval": {"depths": (16, 64), "digits": 30, "states_depth": 40, "states_stride": 10},
    "limit_rational": {"eps": ("1/100", "1/1000"), "max_depth": 64},
    "limit_routes": {"depth": 32},
    "recognize": {"items": 20, "check_depth": 8},
    "cli": {},
}

# ---------------------------------------------------------------------------
# fixed inputs
# ---------------------------------------------------------------------------

# (a, b) coefficients in ascending powers of n, integers only, so the oracle
# can evaluate them with plain int arithmetic.
DEEP_CFS = {
    "apery": ((5, 27, 51, 34), (0, 0, 0, 0, 0, 0, -1)),  # a = 34n^3+51n^2+27n+5, b = -n^6
    "e": ((0, 1), (0, 1)),  # K n/n = 1/(e-1)
    "zeta2": ((1, 2, 2), (0, 0, 0, 0, -1)),  # trivial triple h1 = h2 = n^2
}
# PolyMat2(n+1, n^2, 2n+1, 3), entries in ascending powers
STATES_MATRIX = ((1, 1), (0, 0, 1), (1, 2), (3,))

# Rational-coefficient trivial triples (h1, h2); all are in the rational
# branch of beta_degree1, so each has an exact reference limit.
LIMIT_TRIPLES = (
    ("n", "n+1/2"),
    ("n", "n+1/4"),
    ("n", "n+3/4"),
    ("n", "n+3/2"),
    ("n", "n+3"),
    ("2n+1", "2n+5/2"),
    ("n+1/3", "n+5/6"),
)

# (a, b, expected solutions as (h1, h2, f) texts, expected splits examined)
NAMED_PAIRS = (
    ("2n^3+3n^2+11n+5", "-n^6", (("n^3", "n^3", "n^2+n+1/2"),), 7),
    ("34n^3+51n^2+27n+5", "-n^6", (), 7),
    ("2n^2+3n+2", "-n^4-n^3", (("n^2", "n^2+n", "1"), ("n^2+n", "n^2", "n+1")), 8),
)

# Fraction arithmetic on big numbers (numeric_limit, the three routes) is
# gcd-bound, and a loaded core slows it far less than the reference of
# speed.py.  Timing one such operation and the reference alternately on a
# 2-vCPU Intel Xeon (178 and 277 pairs), log(operation time) against
# log(reference time) had slope 0.34 (numeric_limit) and 0.43 (routes);
# scaled at slope 1, their times spread more than unscaled ones.
BIG_FRACTION_SPEED_EXPONENT = 0.4

# Shares of the recognize corpus; the rest are NAMED_PAIRS in turn.
PLANTED_SHARE, NO_MATCH_SHARE, ATOMIC_SHARE = 0.55, 0.25, 0.15


def _root_patterns(count: int = 256) -> tuple:
    """Fixed root patterns (g1 roots, g2 roots, f roots), each root in 0..3,
    drawn once like linear_rooted_triple with its own fixed seed.  The
    benchmark seed permutes the root values and picks the scales, so every
    seed asks for nearly the same mix of degrees and coincident roots."""
    rng = random.Random("recognize-root-patterns")
    patterns = []
    while len(patterns) < count:
        pattern = tuple(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 2))) for _ in range(3))
        if any(pattern):
            patterns.append(pattern)
    return tuple(patterns)


ROOT_PATTERNS = _root_patterns()
SCALES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))

# (label, arguments, exit code, stderr prefix for the error cases)
CLI_CALLS = (
    ("eval", ("eval", "--a", "n", "--b", "n", "--depth", "30", "--digits", "12"), 0, None),
    ("identify", ("identify", "--a", "34n^3+51n^2+27n+5", "--b", "-n^6"), 0, None),
    (
        "limit",
        ("limit", "--a", "2n^2+3n+2", "--b", "-n^4-n^3", "--closed-form", "--eps", "1e-3", "--digits", "8"),
        0,
        None,
    ),
    ("convert", ("convert", "--matrix", "n+1,n+2,n+3,n+4"), 0, None),
    ("triangularize", ("triangularize", "--h1", "n+1", "--h2", "n+2", "--depth", "4"), 0, None),
    # stdout is not checked: the report printed before the failure is meant to go
    ("domain_error", ("triangularize", "--h1", "n", "--h2", "n-2", "--depth", "4"), 1, "error: PoleInFormula: "),
    ("parse_error", ("eval", "--a", "n^^2", "--b", "n", "--depth", "3"), 2, "usage: polycf eval"),
)

REJECTION_KEYS = {
    "degree pattern inadmissible": "pattern_inadmissible",
    "irrational leading split": "irrational_split",
    "no admissible f degree": "no_f_degree",
    "no f solution at admissible degrees": "no_f_solution",
}
CLOSED_FORM_KINDS = ("zeta", "zeta_divergent", "dominant", "beta_rational", "beta_integral", "beta_precondition", "none")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


class Mismatch(Exception):
    """An operation's output disagrees with its exact oracle."""


@dataclass
class Op:
    """One closed-loop operation: run(tracer) -> output, check(output) raises Mismatch."""

    phase: str
    label: str
    run: Callable
    check: Callable


def digest(*nums: int) -> str:
    """Exact fingerprint of a tuple of integers (no decimal conversion)."""
    h = hashlib.sha256()
    for n in nums:
        raw = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
        h.update(len(raw).to_bytes(8, "big"))
        h.update(raw)
    return h.hexdigest()[:32]


def fraction_digest(v: Fraction) -> str:
    return digest(v.numerator, v.denominator)


def horner(coeffs, i: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * i + c
    return acc


def product_tree(values: list[int]) -> int:
    """Product of many ints as a balanced tree, so the oracle stays cheap."""
    if not values:
        return 1
    while len(values) > 1:
        values = [values[i] * values[i + 1] if i + 1 < len(values) else values[i] for i in range(0, len(values), 2)]
    return values[0]


def render_decimal(v: Fraction, digits: int) -> str:
    """Truncated decimal rendering, written independently of polycf.cli."""
    scaled = abs(v.numerator) * 10**digits // v.denominator
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if v < 0 else ""
    return f"{sign}{whole}.{frac:0{digits}d}"


def _expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _poly(lib, coeffs):
    return lib.Poly([Fraction(c) for c in coeffs])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs and operations of one workload, built from a seed."""

    name = ""
    # span names that must record at least one span in a traced pass
    required_spans: tuple = ()
    # may speed readings (speed.py) interrupt a long operation?
    read_inside_ops = True
    # how strongly the operations follow the reference's speed (speed.py)
    speed_exponent = 1.0

    def __init__(self, lib, seed: int, size: dict, golden: dict):
        self.lib = lib
        self.size = size
        self.golden = golden
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []

    def wrappers(self) -> list[tuple]:
        """(module, attribute, span, kind) specs installed for traced passes."""
        return []

    def warm_up(self):
        pass

    def probe(self, tracer):
        """Extra timed calls after a traced pass; not operations."""

    def traced_metrics(self, tracer) -> dict:
        """Per-layer figures of one traced pass beyond span self times."""
        return {}

    def retain(self, output):
        """The part of an output kept after its check, for counters and summary."""
        return output

    def counters(self, outputs: list, tracer) -> dict:
        """Deterministic per-pass counters from a traced pass."""
        return {}

    def summary(self, passes: list) -> dict:
        """The workload's own end-to-end figures over untraced passes."""
        return {}

    def _shuffled(self, ops: list[Op]) -> list[Op]:
        self.rng.shuffle(ops)
        return ops


@dataclass
class DeepResult:
    value: Fraction
    text: str
    state: object = None  # unreduced last ConvergentState, traced passes only


class DeepEval(Workload):
    """Exact deep evaluation: step product, gcd and rendering dominate.

    One more operation reads every state of a deep product through
    cf_form_states: a kernel that speeds up only the last state may slow
    down per-state consumers.
    """

    name = "deep_eval"
    required_spans = (
        "algebra.coeff_eval_s",
        "mobius.step_s",
        "mobius.normalize_s",
        "cli.render_s",
        "matforms.states_s",
    )

    def __init__(self, lib, seed, size, golden):
        super().__init__(lib, seed, size, golden)
        self.decimal_string = sys.modules["polycf.cli"].decimal_string
        ops = []
        for name, (a, b) in DEEP_CFS.items():
            cf = lib.CFSpec(b=_poly(lib, b), a=_poly(lib, a))
            for depth in size["depths"]:
                ops.append(self._eval_op(name, cf, b, depth))
        ops.append(self._states_op())
        self.ops = self._shuffled(ops)

    def _eval_op(self, name, cf, b_coeffs, depth) -> Op:
        lib, digits = self.lib, self.size["digits"]
        key = f"{name}@{depth}"
        want = self.golden["deep"][key]

        def run(tr):
            if tr.enabled:
                with tr.span("algebra.coeff_eval_s"):
                    terms = list(itertools.islice(cf.terms(), depth))
                with tr.span("mobius.step_s"):
                    state = collections.deque(lib.convergents_from_terms(terms), maxlen=1)[0]
                with tr.span("mobius.normalize_s"):
                    value = state.value
            else:
                state = None
                value = lib.cf_value(cf, depth)
            with tr.span("cli.render_s"):
                text = self.decimal_string(value, digits)
            return DeepResult(value, text, state)

        def check(out: DeepResult):
            _expect(isinstance(out.value, Fraction), f"{key}: value is not a Fraction")
            _expect(fraction_digest(out.value) == want, f"{key}: reduced fraction digest differs")
            _expect(out.text == render_decimal(out.value, digits), f"{key}: decimal rendering differs")
            if out.state is not None:
                s = out.state
                _expect(s.n == depth + 1, f"{key}: last state has index {s.n}")
                det = s.p_prev * s.q - s.p * s.q_prev
                dets = [-horner(b_coeffs, i) for i in range(1, depth + 1)]
                _expect(det == product_tree(dets), f"{key}: determinant identity fails")
                v = out.value
                _expect(s.p * v.denominator == s.q * v.numerator, f"{key}: reduction changed the value")

        return Op("eval", key, run, check)

    def _states_op(self) -> Op:
        lib = self.lib
        n, stride = self.size["states_depth"], self.size["states_stride"]
        m = lib.PolyMat2(*(_poly(lib, e) for e in STATES_MATRIX))
        want = self.golden["states"]
        a, b, c, d = STATES_MATRIX

        def run(tr):
            with tr.span("matforms.states_s"):
                return lib.cf_form_states(m, n)

        def check(states):
            _expect(len(states) == n + 1, f"states: {len(states)} states, expected {n + 1}")
            for k in range(0, n + 1, stride):
                got = states[k]
                entries = (got.a, got.b, got.c, got.d)
                _expect(all(e.denominator == 1 for e in entries), f"states: state {k} is not integral")
                _expect(digest(*(int(e) for e in entries)) == want[str(k)], f"states: state {k} differs")
            last = states[n]
            det_m = [horner(a, j) * horner(d, j) - horner(b, j) * horner(c, j) for j in range(1, n + 1)]
            det = last.a * last.d - last.b * last.c
            _expect(det == horner(c, n + 1) * product_tree(det_m), "states: determinant identity fails")

        return Op("states", f"states@{n}", run, check)

    def warm_up(self):
        lib = self.lib
        for a, b in DEEP_CFS.values():
            v = lib.cf_value(lib.CFSpec(b=_poly(lib, b), a=_poly(lib, a)), 64)
            self.decimal_string(v, 50)
        lib.cf_form_states(lib.PolyMat2(*(_poly(lib, e) for e in STATES_MATRIX)), 16)

    def retain(self, output):
        # the state list is dropped, so peak memory holds one pass's states
        return output if isinstance(output, DeepResult) else None

    def counters(self, outputs, tracer):
        steps = q_bits = raw_bits = reduced_bits = 0
        for out in outputs:
            if not isinstance(out, DeepResult):
                continue
            s, v = out.state, out.value
            steps += s.n - 1
            q_bits += abs(s.q).bit_length()
            raw_bits += abs(s.p).bit_length() + abs(s.q).bit_length()
            reduced_bits += abs(v.numerator).bit_length() + v.denominator.bit_length()
        return {
            "mobius.steps": steps,
            "mobius.q_bits": q_bits,
            "mobius.common_bits_share": 1 - reduced_bits / raw_bits if raw_bits else 0.0,
            # computed, not counted: four big-integer products per step
            "mobius.mults": 4 * steps,
        }

    def summary(self, passes):
        return {"eval_s": median_phase(passes, "eval"), "states_s": median_phase(passes, "states")}


@dataclass
class LimitResult:
    key: str
    eps: Fraction
    estimate: object  # LimitEstimate


def limit_triples(lib):
    """(key, h1, h2, trivial triple, its CF) for each of LIMIT_TRIPLES."""
    for h1_text, h2_text in LIMIT_TRIPLES:
        h1, h2 = lib.parse_poly(h1_text), lib.parse_poly(h2_text)
        t = lib.trivial_triple(h1, h2)
        yield f"({h1_text}, {h2_text})", h1, h2, t, lib.CFSpec(b=t.b, a=t.a)


class LimitRational(Workload):
    """numeric_limit on rational-coefficient triples, checked against golden results."""

    name = "limit_rational"
    required_spans = ("limits.checkpoint_s", "mobius.stream_s")
    speed_exponent = BIG_FRACTION_SPEED_EXPONENT

    def __init__(self, lib, seed, size, golden):
        super().__init__(lib, seed, size, golden)
        self.reference = {}
        ops = []
        for key, h1, h2, _, cf in limit_triples(lib):
            self.reference[key] = lib.beta_degree1(h1, h2).cf_value
            for eps_text in size["eps"]:
                ops.append(self._limit_op(key, cf, Fraction(eps_text)))
        self.ops = self._shuffled(ops)

    def _limit_op(self, key, cf, eps) -> Op:
        lib, max_depth = self.lib, self.size["max_depth"]
        label = f"{key} eps={eps}"
        want = self.golden["limit"][label]

        def run(tr):
            with tr.span("limits.checkpoint_s"):
                return LimitResult(key, eps, lib.numeric_limit(cf, eps, max_depth))

        def check(out: LimitResult):
            est = out.estimate
            got = {
                "verdict": est.verdict,
                "depth": est.depth_used,
                "value": fraction_digest(est.value),
                "delta": None if est.last_delta is None else fraction_digest(est.last_delta),
            }
            _expect(got == want, f"{label}: {got} != {want}")

        return Op("limit", label, run, check)

    def wrappers(self):
        limits = sys.modules["polycf.limits"]
        return [(limits, "convergents", "mobius.stream_s", "stream")]

    def warm_up(self):
        lib = self.lib
        t = lib.trivial_triple(lib.parse_poly("n"), lib.parse_poly("n+1/2"))
        lib.numeric_limit(lib.CFSpec(b=t.b, a=t.a), Fraction(1, 10), 64)

    def overclaim(self, outputs) -> tuple[int, int]:
        """(estimated verdicts, estimated verdicts whose exact error exceeds eps)."""
        estimated = over = 0
        for out in outputs:
            if out.estimate.verdict == out.estimate.ESTIMATED:
                estimated += 1
                over += abs(out.estimate.value - self.reference[out.key]) > out.eps
        return estimated, over

    def counters(self, outputs, tracer):
        ests = [out.estimate for out in outputs]
        n_est, n_over = self.overclaim(outputs)
        return {
            # computed, not counted: assumes checkpoints at depths 8, 16, 32, ...
            "limits.checkpoints": sum(max(0, e.depth_used.bit_length() - 3) for e in ests),
            "limits.depth_reached": sum(e.depth_used for e in ests),
            "limits.verdict.estimated": sum(e.verdict == e.ESTIMATED for e in ests),
            "limits.verdict.inconclusive": sum(e.verdict == e.INCONCLUSIVE for e in ests),
            "limits.overclaim_share": n_over / n_est if n_est else 0.0,
        }

    def summary(self, passes):
        n_est, n_over = self.overclaim(passes[0].outputs)
        return {
            "limit_s": median_phase(passes, "limit"),
            "limit_overclaim_share": n_over / n_est if n_est else 0.0,
            "limit_overclaimed": f"{n_over}/{n_est}",
        }


class LimitRoutes(Workload):
    """Three exact routes to the same convergent must agree.

    cf_value, euler_partial_value and rederive_euler_sum on the triples of
    limit_rational, apart from it so that the separate product loops are
    gated on their own.
    """

    name = "limit_routes"
    required_spans = ("mobius.cf_value_s", "euler.partial_value_s", "matforms.triangular_s")
    speed_exponent = BIG_FRACTION_SPEED_EXPONENT

    def __init__(self, lib, seed, size, golden):
        super().__init__(lib, seed, size, golden)
        self.ops = self._shuffled([self._routes_op(*triple) for triple in limit_triples(lib)])

    def _routes_op(self, key, h1, h2, t, cf) -> Op:
        lib, depth = self.lib, self.size["depth"]

        def run(tr):
            with tr.span("mobius.cf_value_s"):
                v1 = lib.cf_value(cf, depth)
            with tr.span("euler.partial_value_s"):
                v2 = lib.euler_partial_value(t, depth)
            with tr.span("matforms.triangular_s"):
                v3 = lib.rederive_euler_sum(h1, h2, depth + 1)
            return (v1, v2, v3)

        def check(out):
            v1, v2, v3 = out
            _expect(all(isinstance(v, Fraction) for v in out), f"routes {key}: a route gave a non-Fraction")
            _expect(v1 == v2 == v3, f"routes {key}: cf_value, euler_partial_value, rederive_euler_sum differ")

        return Op("routes", f"routes {key}@{depth}", run, check)

    def warm_up(self):
        lib = self.lib
        t = lib.trivial_triple(lib.parse_poly("n"), lib.parse_poly("n+1/2"))
        lib.cf_value(lib.CFSpec(b=t.b, a=t.a), 16)
        lib.euler_partial_value(t, 16)
        lib.rederive_euler_sum(t.h1, t.h2, 17)

    def summary(self, passes):
        return {"routes_s": median_phase(passes, "routes")}


@dataclass
class Item:
    kind: str  # planted, no_match, atomic, named
    a: object
    b: object
    splits: int  # decompositions identify must examine
    planted: object = None  # the EulerTriple a planted item was built from
    expected: tuple = ()  # named items: expected solutions (h1, h2, f)


@dataclass
class RecognizeResult:
    report: object
    closed_form: str = "none"
    check_values: tuple = ()
    pole: bool = False  # euler_partial_value has a pole within the check depth


class Recognize(Workload):
    """identify, a closed form and a shallow exact check on a seeded corpus."""

    name = "recognize"
    required_spans = (
        "identify.enumerate_s",
        "algebra.factor_s",
        "identify.degree_s",
        "identify.solve_s",
        "identify.verify_s",
        "limits.closed_form_s",
    )

    def __init__(self, lib, seed, size, golden):
        super().__init__(lib, seed, size, golden)
        self.items = self.corpus()
        self.ops = [self._item_op(i, item) for i, item in enumerate(self.items)]

    def corpus(self) -> list[Item]:
        """About 55% planted triples, 25% the same with a+1 (no match, every
        split examined), 15% with an atomic n^2+1 block in b (search not
        exhaustive), and the rest the named README pairs.

        The seed picks the order, the scales and a permutation of the root
        values; the root patterns come from ROOT_PATTERNS in a fixed order.
        """
        lib, rng, n = self.lib, self.rng, self.size["items"]
        counts = {
            "planted": round(n * PLANTED_SHARE),
            "no_match": round(n * NO_MATCH_SHARE),
            "atomic": round(n * ATOMIC_SHARE),
        }
        counts["named"] = n - sum(counts.values())
        kinds = [k for k, c in counts.items() for _ in range(c)]
        rng.shuffle(kinds)
        x = lib.Poly.x()
        items, named = [], itertools.cycle(NAMED_PAIRS)
        patterns = {kind: itertools.cycle(ROOT_PATTERNS) for kind in counts}
        for kind in kinds:
            if kind == "named":
                a_text, b_text, sols, splits = next(named)
                expected = tuple(tuple(lib.parse_poly(s) for s in sol) for sol in sols)
                items.append(Item(kind, lib.parse_poly(a_text), lib.parse_poly(b_text), splits, expected=expected))
                continue
            t, roots = self._planted_triple(x, next(patterns[kind]))
            splits = 1
            for mult in collections.Counter(roots).values():
                splits *= mult + 1
            if kind == "planted":
                items.append(Item(kind, t.a, t.b, splits, planted=t))
            elif kind == "no_match":
                items.append(Item(kind, t.a + 1, t.b, splits))
            else:
                items.append(Item(kind, t.a, t.b * (x**2 + 1), 2 * splits))
        return items

    def _planted_triple(self, x, pattern):
        """Built like linear_rooted_triple in tests/test_identify.py:
        h1 = g1 f, h2 = g2 f(x-1), f a product of (x+r+1).  Returns the triple
        and the roots of -b = h1 h2 with multiplicity."""
        lib, rng = self.lib, self.rng
        value = rng.sample(range(4), 4)
        r1, r2, rf = ([value[r] for r in roots] for roots in pattern)
        g1 = lib.Poly.const(rng.choice(SCALES))
        g2 = lib.Poly.const(rng.choice(SCALES))
        f = lib.Poly.one()
        for r in r1:
            g1 = g1 * (x + r)
        for r in r2:
            g2 = g2 * (x + r)
        for r in rf:
            f = f * (x + r + 1)
        return lib.EulerTriple(g1 * f, g2 * f.shift(-1), f), r1 + r2 + [r + 1 for r in rf] + rf

    def closed_form(self, t) -> str:
        """Kind of the closed form found for t, in the CLI's order of attempts."""
        lib = self.lib
        errors = sys.modules["polycf.errors"]
        try:
            combo = lib.telescoping_zeta_sum(t)
            lib.cf_limit_from_zeta(t, combo)
            return "zeta" if combo.status == combo.EXACT else "zeta_divergent"
        except errors.NonTelescoping:
            pass
        if t.f == lib.Poly.one():
            if lib.dominant_limit(t) is not None:
                return "dominant"
            if t.h1.degree <= 1 and t.h2.degree <= 1:
                try:
                    return "beta_" + lib.beta_degree1(t.h1, t.h2).kind
                except errors.PolycfError:
                    return "beta_precondition"
        return "none"

    def _item_op(self, index, item: Item) -> Op:
        lib, depth = self.lib, self.size["check_depth"]
        errors = sys.modules["polycf.errors"]

        def run(tr):
            with tr.span("identify.enumerate_s"):
                report = lib.identify(item.a, item.b)
            out = RecognizeResult(report)
            if report.solutions:
                t = report.solutions[0]
                with tr.span("limits.closed_form_s"):
                    out.closed_form = self.closed_form(t)
                with tr.span("mobius.cf_value_s"):
                    v1 = lib.cf_value(lib.CFSpec(b=t.b, a=t.a), depth)
                try:
                    with tr.span("euler.partial_value_s"):
                        v2 = lib.euler_partial_value(t, depth)
                    out.check_values = (v1, v2)
                except errors.PoleInFormula:
                    out.pole = True
            return out

        def check(out: RecognizeResult):
            where = f"item {index} ({item.kind})"
            rep = out.report
            for s in rep.solutions:
                rel = s.f * item.a - s.f.shift(-1) * s.h1 - s.f.shift(1) * s.h2.shift(1)
                _expect(rel.is_zero and -(s.h1 * s.h2) == item.b, f"{where}: a reported triple does not solve (a, b)")
            # every monic split of -b is either solved or rejected, never both
            solved = {(s.h1.monic(), s.h2.monic()) for s in rep.solutions}
            rejected = {(r.h1, r.h2) for r in rep.rejections}
            _expect(len(rejected) == len(rep.rejections) and not solved & rejected,
                    f"{where}: a split is rejected twice or both solved and rejected")
            splits = len(solved) + len(rejected)
            _expect(splits == item.splits, f"{where}: {splits} splits examined, expected {item.splits}")
            _expect(rep.exhaustive == (item.kind != "atomic"), f"{where}: exhaustive flag is {rep.exhaustive}")
            if item.kind == "planted":
                _expect((item.planted.h1, item.planted.h2) in {(s.h1, s.h2) for s in rep.solutions},
                        f"{where}: planted triple not recovered")
            if item.kind == "named":
                got = tuple((s.h1, s.h2, s.f) for s in rep.solutions)
                _expect(got == item.expected, f"{where}: solutions differ from the known ones")
            _expect(out.closed_form in CLOSED_FORM_KINDS, f"{where}: unknown closed form {out.closed_form!r}")
            if rep.solutions and not out.pole:
                v1, v2 = out.check_values
                _expect(v1 == v2, f"{where}: cf_value and euler_partial_value differ at depth {depth}")

        return Op("item", f"item {index}", run, check)

    def wrappers(self):
        ident = sys.modules["polycf.identify"]
        limits = sys.modules["polycf.limits"]
        return [
            (ident, "factor_integer_rooted", "algebra.factor_s", "call"),
            (limits, "factor_integer_rooted", "algebra.factor_s", "call"),
            (ident, "leading_coeff_split", "identify.degree_s", "call"),
            (ident, "candidate_degrees", "identify.degree_s", "call"),
            (ident, "solve_f", "identify.solve_s", "call"),
            (ident, "EulerTriple", "identify.verify_s", "call"),
            (ident, "build_euler_cf", "identify.verify_s", "call"),
        ]

    def warm_up(self):
        lib = self.lib
        for a_text, b_text, _, _ in NAMED_PAIRS:
            report = lib.identify(lib.parse_poly(a_text), lib.parse_poly(b_text))
            for t in report.solutions:
                self.closed_form(t)

    def counters(self, outputs, tracer):
        ident = sys.modules["polycf.identify"]
        calls = tracer.counts
        splits = calls[call_counter(ident, "leading_coeff_split")]
        systems = calls[call_counter(ident, "solve_f")]
        rejected = collections.Counter()
        kinds = collections.Counter()
        solutions = 0
        for out in outputs:
            if isinstance(out, RecognizeResult):
                solutions += len(out.report.solutions)
                rejected.update(REJECTION_KEYS[r.reason] for r in out.report.rejections)
                if out.report.solutions:
                    kinds[out.closed_form] += 1
        out = {
            "identify.splits": splits,
            "identify.systems": systems,
            "identify.systems_empty": calls[call_counter(ident, "solve_f") + ":none"],
            "identify.solutions": solutions,
            "identify.useful_share": (splits - sum(rejected.values())) / splits if splits else 0.0,
        }
        out.update({f"identify.rejected.{k}": rejected[k] for k in REJECTION_KEYS.values()})
        out.update({f"limits.closed_forms.{k}": kinds[k] for k in CLOSED_FORM_KINDS})
        return out

    def summary(self, passes):
        lat = [t for p in passes for t in p.latencies]
        return {
            "recognize_per_s": len(self.ops) / median([p.op_seconds for p in passes]),
            "recognize_ms_p50": 1000 * median(lat),
            "recognize_ms_p95": 1000 * quantile(lat, 0.95),
            "recognize_samples": len(lat),
            # first solutions whose euler_partial_value has a pole: not checked
            "check_poles": sum(1 for o in passes[0].outputs if isinstance(o, RecognizeResult) and o.pole),
        }


class Cli(Workload):
    """python -m polycf as a subprocess, one call at a time."""

    name = "cli"
    required_spans = ("cli.command", "cli.python", "cli.import")
    # a reading taken while the child runs would compete with it for the core
    read_inside_ops = False

    def __init__(self, lib, seed, size, golden):
        super().__init__(lib, seed, size, golden)
        self.src = os.path.dirname(os.path.dirname(os.path.abspath(lib.__file__)))
        self.root = os.path.dirname(self.src)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.ops = self._shuffled([self._call_op(*call) for call in CLI_CALLS])

    def _call(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )

    def _call_op(self, label, args, code, stderr_prefix) -> Op:
        want = self.golden["cli"].get(label)

        def run(tr):
            with tr.span("cli.command"):
                return self._call(("-m", "polycf", *args))

        def check(proc):
            _expect(proc.returncode == code, f"cli {label}: exit {proc.returncode}, expected {code}")
            if code == 0:
                _expect(proc.stdout == want, f"cli {label}: stdout differs from the golden output")
                _expect(proc.stderr == "", f"cli {label}: unexpected stderr")
            else:
                _expect(proc.stderr.startswith(stderr_prefix), f"cli {label}: stderr {proc.stderr[:60]!r}")

        return Op("call", label, run, check)

    def probe(self, tr):
        """Bare interpreter and bare import, timed as spans, for the layer split."""
        for _ in range(3):
            with tr.span("cli.python"):
                self._call(("-c", "pass"))
            with tr.span("cli.import"):
                self._call(("-c", "import polycf.cli"))

    def warm_up(self):
        proc = self._call(("-m", "polycf", *CLI_CALLS[3][1]))
        if proc.returncode != 0:
            raise RuntimeError(f"cli warm-up failed: {proc.stderr}")

    def traced_metrics(self, tracer):
        def seconds(span_name):
            return [end - start for name, start, end, *_ in tracer.spans if name == span_name]

        python = median(seconds("cli.python"))
        imported = median(seconds("cli.import"))
        calls = seconds("cli.command")
        return {
            "cli.python_ms": 1000 * python,
            "cli.import_ms": 1000 * (imported - python),
            # per call, minus interpreter start-up and import
            "cli.command_ms": 1000 * (sum(calls) / len(calls) - imported),
        }

    def summary(self, passes):
        lat = [t for p in passes for t in p.latencies]
        return {
            "cli_ms_p50": 1000 * median(lat),
            "cli_ms_p95": 1000 * quantile(lat, 0.95),
            "cli_samples": len(lat),
        }


WORKLOADS = {w.name: w for w in (DeepEval, LimitRational, LimitRoutes, Recognize, Cli)}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return quantile(values, 0.5)


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the inclusive method)."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median_phase(passes, phase: str) -> float:
    return median([p.phase_seconds.get(phase, 0.0) for p in passes])
