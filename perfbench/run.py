"""The polycf benchmark.

    python3 perfbench/run.py --workload deep_eval --seed 1 --seconds 24 --trace 0

Run from the repository root.  The benchmark imports polycf from ./src (it
refuses to run against any other copy), sets the workload up several times,
then runs passes over the workload's fixed operation list closed-loop, one
operation at a time in this single process, until --seconds have gone.
Every output is checked against an exact oracle; a mismatch or an error
counts the operation as failed and the run goes on.

The gated times (setup_s, pass_s) are wall times scaled to a reference
machine speed that is measured between and inside operations (see
speed.py), because the shared host's speed drifts by up to 2x; the record
line holds the wall times as well.

With --trace 0 the last line of stdout is the end-to-end result, measured
with tracing off.  With --trace 1 untraced and traced passes alternate and
the last line holds the per-layer metrics from the traced passes, plus the
tracing overhead (traced minus untraced operation time).  The line before
it is a record of the run: interpreter, machine load, commit, seed, and the
workload's own figures (eval_s, limit_s, recognize_ms_p95, ...).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field

import golden
import speed
import workloads
from tracing import NullTracer, TraceError, Tracer, Wrapped
from workloads import Mismatch, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-ups per run; setup_s is their median
SETUPS = 7

# metric name -> unit, as BENCHMARK.json declares them
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no source tree, wrong polycf)."""


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)  # wall seconds per operation
    scaled: list = field(default_factory=list)  # the same at reference speed
    phase_seconds: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def op_seconds(self) -> float:
        return sum(self.latencies)


def import_polycf():
    """Import polycf and polycf.cli afresh from ./src and return the package."""
    for name in [m for m in sys.modules if m == "polycf" or m.startswith("polycf.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("polycf")
    importlib.import_module("polycf.cli")
    where = os.path.dirname(os.path.abspath(lib.__file__))
    if where != os.path.join(SRC, "polycf"):
        raise SetupError(f"imported polycf from {where}, not from {SRC}")
    return lib


def run_pass(wl, tracer, gauge: speed.Gauge | None = None, keep: bool = True) -> PassResult:
    """One pass over wl.ops; outputs are kept (as wl.retain gives them) if keep.

    The gauge reads the machine's speed between operations, and inside
    long ones unless the pass is traced (a reading would land inside the
    spans) or the workload forbids it; a new gauge is made if none is given.
    """
    gauge = gauge or speed.Gauge()
    read_inside = wl.read_inside_ops and not tracer.enabled
    res = PassResult()
    for i, op in enumerate(wl.ops):
        tracer.op = i
        error = out = None
        with gauge.op(read_inside):
            try:
                out = op.run(tracer)
            except Exception as exc:  # a failed operation is counted, the run goes on
                error = f"{op.label}: {type(exc).__name__}: {exc}"
        if error is None:
            try:
                op.check(out)
            except Mismatch as exc:
                error = f"{op.label}: {exc}"
            except Exception as exc:
                error = f"{op.label}: oracle raised {type(exc).__name__}: {exc}"
        if keep:
            res.outputs.append(wl.retain(out))
        if error is not None:
            res.failures.append(error)
    res.latencies, res.scaled = gauge.collect()
    for op, dt in zip(wl.ops, res.latencies):
        res.phase_seconds[op.phase] = res.phase_seconds.get(op.phase, 0.0) + dt
    return res


def measure(wl, seconds: float, trace: bool, gauge: speed.Gauge):
    """Passes until `seconds` have gone (the last pass ends nearest to it).

    Returns (untraced passes, [(traced pass, tracer)]).  With tracing, every
    cycle is one untraced pass and one traced pass, so both see the same
    machine conditions.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        gc.collect()
        # outputs are kept from the first pass only, so memory does not grow with passes
        untraced.append(run_pass(wl, NullTracer(), gauge, keep=not untraced))
        if trace:
            tracer = Tracer()
            with Wrapped(tracer, wl.wrappers()):
                result = run_pass(wl, tracer, gauge)
            wl.probe(tracer)
            traced.append((result, tracer))
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return untraced, traced


def end_to_end(untraced: list, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_s": pass_seconds(untraced),
    }


def pass_seconds(passes: list, times: str = "scaled") -> float:
    """Seconds of one pass: each operation's median over the passes, summed.

    times is "scaled" (at reference speed) or "latencies" (wall).
    """
    return sum(median(op) for op in zip(*(getattr(p, times) for p in passes)))


def per_layer(wl, untraced: list, traced: list) -> dict:
    """Layer self times, counters and tracing overhead from the traced passes.

    Layer times are seconds per traced pass.  Raises TraceError when a layer
    the workload needs recorded no span, or when two traced passes disagree
    on a deterministic counter.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    counters = None
    for result, tracer in traced:
        seen = tracer.span_counts()
        missing = [name for name in wl.required_spans if not seen[name]]
        if missing:
            raise TraceError(f"{wl.name}: no calls recorded for {', '.join(missing)}")
        layers = tracer.self_times()
        layers.update(wl.traced_metrics(tracer))
        for name, t in layers.items():
            if name in PER_LAYER:
                out[name] += t / len(traced)
        out["trace.spans"] += len(tracer.spans) / len(traced)
        pass_counters = wl.counters(result.outputs, tracer)
        if counters is None:
            counters = pass_counters
        elif pass_counters != counters:
            raise TraceError(f"{wl.name}: deterministic counters differ between passes")
    out.update(counters or {})
    # wall times, like the spans
    plain = pass_seconds(untraced, "latencies")
    with_spans = pass_seconds([r for r, _ in traced], "latencies")
    out["trace.pass_s"] = with_spans
    out["trace.overhead_s"] = with_spans - plain
    out["trace.overhead_share"] = (with_spans - plain) / plain
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "polycf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def load_average() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def load_golden() -> dict:
    with open(golden.GOLDEN_PATH) as fh:
        data = json.load(fh)
    if data["sizes"] != json.loads(json.dumps(workloads.FULL)):
        raise SetupError("golden.json was made for other sizes; rerun perfbench/golden.py")
    return data


def parse_args(argv):
    ap = argparse.ArgumentParser(description="polycf benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polycf", "__init__.py")):
        print(f"error: no polycf source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # one core for the operations, the speed readings and the subprocesses
    # alike, so a reading is taken on the core it scales
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        reference = load_golden()
        gauge = speed.Gauge()
        for _ in range(SETUPS):
            with gauge.op(read_inside=False):
                lib = import_polycf()
                wl = workloads.WORKLOADS[args.workload](lib, args.seed, workloads.FULL[args.workload], reference)
                wl.warm_up()
            gauge.flush()
        setups, setups_scaled = gauge.collect()
        gauge.exponent = wl.speed_exponent
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    untraced, traced = measure(wl, args.seconds, bool(args.trace), gauge)
    passes = untraced + [r for r, _ in traced]
    failures = [f for p in passes for f in p.failures]
    if args.trace:
        metrics = per_layer(wl, untraced, traced)
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, median(setups_scaled))
        units = END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": load_average(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "setup_runs_s": setups,
        "setup_wall_s": median(setups),
        "passes": len(untraced),
        "pass_op_s": [p.op_seconds for p in untraced],
        "pass_wall_s": pass_seconds(untraced, "latencies"),
        "reference_ms": {
            "scale": 1000 * speed.REFERENCE_S,
            "median": 1000 * median(gauge.readings),
            "min": 1000 * min(gauge.readings),
            "max": 1000 * max(gauge.readings),
            "readings": len(gauge.readings),
        },
        "traced_passes": len(traced),
        "ops_per_pass": len(wl.ops),
        "workload_metrics": wl.summary(untraced),
        "failures": failures[:20],
    }
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(len(p.latencies) for p in passes),
                "failed": len(failures),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
