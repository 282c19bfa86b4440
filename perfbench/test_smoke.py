"""Smoke tests for the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

They show that each workload runs clean, that every oracle rejects a
corrupted output, that the traced run fails loudly when a layer cannot be
traced, and that deterministic counters repeat for the same seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import golden  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Mismatch  # noqa: E402


@pytest.fixture(scope="module")
def tiny_golden():
    return golden.compute(run.import_polycf(), workloads.TINY, SRC)


@pytest.fixture
def make(tiny_golden):
    """Build a tiny workload on a fresh import, so wrappers and workload agree."""

    def build(name, seed=1):
        lib = run.import_polycf()
        return workloads.WORKLOADS[name](lib, seed, workloads.TINY[name], tiny_golden)

    return build


def first(wl, phase):
    return next(op for op in wl.ops if op.phase == phase)


def rejects(op, out):
    with pytest.raises(Mismatch):
        op.check(out)


# ---------------------------------------------------------------------------
# the whole command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_clean(name, trace, tiny_golden, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    monkeypatch.setattr(run, "load_golden", lambda: tiny_golden)
    monkeypatch.setattr(run, "SETUPS", 2)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads(lines[-2])["record"]
    assert record["seed"] == 3 and record["python"] and record["nproc"] >= 1
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def traced_pass(wl):
    tracer = tracing.Tracer()
    with tracing.Wrapped(tracer, wl.wrappers()):
        result = run.run_pass(wl, tracer)
    return result, tracer


@pytest.mark.parametrize("name", ["deep_eval", "limit_rational", "recognize"])
def test_counters_repeat_for_the_same_seed(make, name):
    counters = []
    for _ in range(2):
        wl = make(name, seed=5)
        result, tracer = traced_pass(wl)
        assert not result.failures
        counters.append(wl.counters(result.outputs, tracer))
    assert counters[0] == counters[1]
    assert any(counters[0].values())


def test_same_seed_same_corpus_other_seed_other_corpus(make):
    def corpus(seed):
        return [(str(i.a), str(i.b), i.kind) for i in make("recognize", seed).items]

    assert corpus(7) == corpus(7)
    assert corpus(7) != corpus(8)


def test_missing_wrapped_name_fails_loudly(make, monkeypatch):
    wl = make("recognize")
    monkeypatch.delattr(sys.modules["polycf.identify"], "solve_f")
    with pytest.raises(tracing.TraceError, match="solve_f"):
        traced_pass(wl)


def test_layer_with_no_calls_fails_loudly(make, monkeypatch):
    wl = make("recognize")
    monkeypatch.setattr(wl, "wrappers", lambda: [])  # as if identify stopped looking the names up
    result, tracer = traced_pass(wl)
    with pytest.raises(tracing.TraceError, match="identify.solve_s"):
        run.per_layer(wl, [result], [(result, tracer)])


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    times = tracer.self_times()
    (_, o0, o1, _, _), (_, i0, i1, _, _) = tracer.spans
    assert times["inner"] == pytest.approx(i1 - i0)
    assert times["outer"] == pytest.approx((o1 - o0) - (i1 - i0))


# ---------------------------------------------------------------------------
# scaling to reference speed
# ---------------------------------------------------------------------------


def test_gauge_scales_each_piece_by_the_readings_around_it(monkeypatch):
    readings = iter(r * speed.REFERENCE_S for r in (2, 2, 4))
    monkeypatch.setattr(speed, "reference_seconds", lambda: next(readings))
    monkeypatch.setattr(speed, "SEGMENT_S", 0.05)
    gauge = speed.Gauge()
    with gauge.op(read_inside=False):
        time.sleep(0.02)
    with gauge.op(read_inside=False):
        time.sleep(0.04)  # closes the first segment: readings 2x and 2x
    with gauge.op(read_inside=False):
        time.sleep(0.01)  # closed by collect(): readings 2x and 4x
    wall, scaled = gauge.collect()
    assert wall[0] >= 0.02 and wall[1] >= 0.04 and wall[2] >= 0.01
    assert scaled == pytest.approx([wall[0] / 2, wall[1] / 2, wall[2] / 3])
    assert gauge.readings == [r * speed.REFERENCE_S for r in (2, 2, 4)]


def test_readings_inside_a_long_operation_are_left_out_of_its_time(monkeypatch):
    monkeypatch.setattr(speed, "SEGMENT_S", 0.05)
    gauge = speed.Gauge()
    t0 = time.perf_counter()
    with gauge.op():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    elapsed = time.perf_counter() - t0
    (wall,), (scaled,) = gauge.collect()
    assert len(gauge.readings) >= 4  # the first, several inside, one by collect()
    inside = len(gauge.readings) - 2
    assert 0.1 < wall < elapsed - 0.5 * inside * min(gauge.readings)
    assert scaled > 0


def test_every_operation_gets_a_scaled_time(make):
    wl = make("recognize")
    result = run.run_pass(wl, tracing.NullTracer())
    assert len(result.scaled) == len(result.latencies) == len(wl.ops)
    assert all(t > 0 for t in result.scaled)


# ---------------------------------------------------------------------------
# every oracle rejects a corrupted output
# ---------------------------------------------------------------------------


def test_deep_eval_oracles(make):
    wl = make("deep_eval")
    op = first(wl, "eval")
    out = op.run(tracing.NullTracer())
    op.check(out)
    v = out.value
    rejects(op, dataclasses.replace(out, value=v + Fraction(1, v.denominator * 7)))
    rejects(op, dataclasses.replace(out, text=out.text[:-1] + str((int(out.text[-1]) + 1) % 10)))
    result, _ = traced_pass(wl)
    assert not result.failures
    traced = result.outputs[wl.ops.index(op)]
    s = traced.state
    rejects(op, dataclasses.replace(traced, state=dataclasses.replace(s, p_prev=s.p_prev + 1)))


def test_states_oracle(make):
    wl = make("deep_eval")
    op = first(wl, "states")
    states = op.run(tracing.NullTracer())
    op.check(states)
    lib = wl.lib
    rejects(op, states[:-1])
    bumped = list(states)
    s = bumped[10]
    bumped[10] = lib.Mat2(s.a + 1, s.b, s.c, s.d)
    rejects(op, bumped)
    last = list(states)
    s = last[-1]
    last[-1] = lib.Mat2(s.a, s.b, s.c, s.d + 1)
    rejects(op, last)


def test_limit_oracles(make):
    wl = make("limit_rational")
    op = first(wl, "limit")
    out = op.run(tracing.NullTracer())
    op.check(out)
    est = out.estimate
    for change in (
        {"verdict": "inconclusive" if est.verdict == "estimated" else "estimated"},
        {"depth_used": est.depth_used * 2},
        {"value": est.value + Fraction(1, 10**9)},
    ):
        rejects(op, dataclasses.replace(out, estimate=dataclasses.replace(est, **change)))
    routes = first(make("limit_routes"), "routes")
    v1, v2, v3 = routes.run(tracing.NullTracer())
    routes.check((v1, v2, v3))
    rejects(routes, (v1, v2, v3 + Fraction(1, 10**12)))
    rejects(routes, (v1, v2 - Fraction(1, 10**12), v3))


def test_recognize_oracles(make):
    wl = make("recognize")
    ops = {item.kind: op for item, op in zip(wl.items, wl.ops)}
    assert set(ops) == {"planted", "no_match", "atomic", "named"}
    lib = wl.lib

    planted = ops["planted"]
    out = planted.run(tracing.NullTracer())
    planted.check(out)
    rep = out.report
    rejects(planted, dataclasses.replace(out, report=dataclasses.replace(rep, solutions=[])))
    rejects(planted, dataclasses.replace(out, report=dataclasses.replace(rep, exhaustive=False)))
    rejects(planted, dataclasses.replace(out, report=dataclasses.replace(rep, rejections=rep.rejections[1:])))
    v1, v2 = out.check_values
    rejects(planted, dataclasses.replace(out, check_values=(v1, v2 + 1)))

    named = ops["named"]
    out = named.run(tracing.NullTracer())
    named.check(out)
    rep = out.report
    t = lib.trivial_triple(lib.Poly.x(), lib.Poly.x() + 1)
    rejects(named, dataclasses.replace(out, report=dataclasses.replace(rep, solutions=[*rep.solutions, t])))

    for kind in ("no_match", "atomic"):
        op = ops[kind]
        out = op.run(tracing.NullTracer())
        op.check(out)
        rep = out.report
        extra = dataclasses.replace(rep.rejections[0])
        rejects(op, dataclasses.replace(out, report=dataclasses.replace(rep, rejections=[*rep.rejections, extra])))
        rejects(op, dataclasses.replace(out, report=dataclasses.replace(rep, exhaustive=not rep.exhaustive)))


def test_cli_oracles(make):
    wl = make("cli")
    by_label = {op.label: op for op in wl.ops}
    ok = by_label["convert"]
    proc = ok.run(tracing.NullTracer())
    ok.check(proc)
    rejects(ok, subprocess.CompletedProcess(proc.args, 0, proc.stdout + "x", ""))
    rejects(ok, subprocess.CompletedProcess(proc.args, 1, proc.stdout, ""))
    err = by_label["domain_error"]
    proc = err.run(tracing.NullTracer())
    err.check(proc)
    rejects(err, subprocess.CompletedProcess(proc.args, 2, proc.stdout, proc.stderr))
    rejects(err, subprocess.CompletedProcess(proc.args, 1, proc.stdout, "error: InvalidInput: x"))
    parse = by_label["parse_error"]
    proc = parse.run(tracing.NullTracer())
    parse.check(proc)
    rejects(parse, subprocess.CompletedProcess(proc.args, 1, proc.stdout, proc.stderr))
