"""Set-up, timed and traced measurement of one workload inside the worker.

Set-up time is the import of `catledger` and `catledger.cli` (timed by
`worker.py`) plus building and validating the inputs of the first
MIN_CALLS calls.  `timed` runs the closed loop with tracing off for at least
`--seconds` seconds and MIN_CALLS calls, or exactly `--calls` calls.  Set-up
and call times are reported both raw and rescaled to the reference host by
`reference.py`.
`traced` alternates an untraced and a traced pass over the same first
TRACE_CALLS inputs until `--seconds` have passed, or makes one pair of
passes over `--calls` inputs.  Every call is checked outside its timing.
The result is one JSON object on the last line of standard output; the exit
code is 0 whenever the measurement completed, whatever the checks found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import reference
import spans
import workloads

MIN_CALLS = 100  # p90 then has at least ten samples beyond it
SETUP_REFS = 9  # reference passes that scale the set-up time
TRACE_CALLS = 8  # inputs per traced pass
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"


def _call(workload, inputs):
    """One timed call: (ns, outcome, error)."""
    start = time.perf_counter_ns()
    try:
        outcome = workload.call(inputs)
    except Exception as exc:  # an untyped exception fails only this call
        return time.perf_counter_ns() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, outcome, None


class Loop:
    """Inputs on demand plus the tallies every mode reports."""

    def __init__(self, workload, stream, prefetched):
        self.workload = workload
        self.stream = stream
        self.inputs = prefetched
        self.attempted = self.failed = self.rejected = self.periods = 0
        self.errors: list[str] = []

    def get(self, index):
        while index >= len(self.inputs):
            self.inputs.append(next(self.stream))
        return self.inputs[index]

    def check(self, inputs, outcome, error):
        """Tally one call; returns its `Checked`, or None when it failed."""
        self.attempted += 1
        if error is None:
            try:
                checked = self.workload.check(inputs, outcome)
            except Exception as exc:  # a malformed output fails only this call
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.fail(error)
            return None
        self.periods += checked.periods
        self.rejected += checked.rejected
        return checked

    def fail(self, reason):
        self.failed += 1
        self.errors.append(reason)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _percentiles(samples) -> tuple[float, float]:
    """(p50, p90) of the samples."""
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]
    return statistics.median(samples), p90


def run_timed(loop: Loop, args) -> dict:
    samples, refs = [], []
    pin, pinned_calls = hashlib.sha256(), 0
    start = time.perf_counter()
    while True:
        index = len(samples)
        inputs = loop.get(index)
        ns, outcome, error = _call(loop.workload, inputs)
        samples.append(ns)
        refs.append(reference.work_ns())
        checked = loop.check(inputs, outcome, error)
        if index < workloads.PIN_CALLS and checked is not None:
            pin.update(checked.pin)
            pinned_calls += 1
        if args.calls is not None:
            if len(samples) >= args.calls:
                break
        elif len(samples) >= MIN_CALLS and time.perf_counter() - start >= args.seconds:
            break

    digest = None
    if pinned_calls == workloads.PIN_CALLS and args.workload in workloads.PINNED_WORKLOADS:
        digest = pin.hexdigest()
    pinned = workloads.PINNED.get((args.workload, args.seed))
    if digest and pinned and digest != pinned:
        loop.fail(f"pinned digest mismatch: {digest} != {pinned}")
    if args.workload == "sim-categorical":
        tracer = spans.Tracer()
        with tracer.installed():
            _, _, error = _call(loop.workload, loop.get(0))
        loop.attempted += 1
        reason = error or spans.law_guard(tracer)
        if reason:
            loop.fail(reason)

    scaled = reference.scale(samples, refs)
    raw_p50, raw_p90 = _percentiles(samples)
    p50, p90 = _percentiles(scaled)
    return {
        "calls": len(samples),
        "timed_s": sum(samples) / 1e9,
        "periods_per_s": loop.periods / (sum(scaled) / 1e9),
        "call_ms_p50": p50 / 1e6,
        "call_ms_p90": p90 / 1e6,
        "peak_rss_mb": _peak_rss_mb(),
        "raw_periods_per_s": loop.periods / (sum(samples) / 1e9),
        "raw_call_ms_p50": raw_p50 / 1e6,
        "raw_call_ms_p90": raw_p90 / 1e6,
        "ref_ms_p50": statistics.median(refs) / 1e6,
        "digest": digest,
    }


def run_traced(loop: Loop, args) -> dict:
    size = args.calls or TRACE_CALLS
    plain_walls, traced_walls, passes = [], [], []
    start = time.perf_counter()
    while not passes or (args.calls is None and time.perf_counter() - start < args.seconds):
        wall = 0
        for index in range(size):
            inputs = loop.get(index)
            ns, outcome, error = _call(loop.workload, inputs)
            wall += ns
            loop.check(inputs, outcome, error)
        plain_walls.append(wall)

        tracer = spans.Tracer()
        wall = 0
        for index in range(size):
            inputs = loop.get(index)
            with tracer.installed():
                ns, outcome, error = _call(loop.workload, inputs)
            wall += ns
            loop.check(inputs, outcome, error)
        traced_walls.append(wall)
        passes.append(spans.layer_metrics(tracer, size))
        if args.workload == "sim-categorical":
            reason = spans.law_guard(tracer)
            if reason:
                loop.fail(reason)

    for name in sorted(spans.EXACT_METRICS):
        if len({p[name] for p in passes}) != 1:
            loop.fail(f"{name} differs between traced passes of the same inputs")
    layers = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    # each traced pass against the untraced pass just before it, so that a
    # change in host speed between passes cancels out
    ratios = [traced / plain for traced, plain in zip(traced_walls, plain_walls)]
    layers["trace.overhead_frac"] = statistics.median(ratios) - 1
    if args.spans:
        tracer.write(args.spans)
    return {"passes": len(passes), "pass_calls": size, "layers": layers}


def main(imported_s: float, argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Measure one catledger workload.")
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--calls", type=int, help="make exactly this many calls per pass")
    parser.add_argument("--spans", help="write the last traced pass's spans here as JSON lines")
    args = parser.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        workload = workloads.make(args.workload, workdir)
        start = time.perf_counter()
        stream = workload.inputs(args.seed)
        prefetched = [next(stream) for _ in range(MIN_CALLS)]
        raw_setup_s = imported_s + time.perf_counter() - start
        ref_ns = statistics.median(reference.work_ns() for _ in range(SETUP_REFS))
        result = {
            "setup_s": raw_setup_s * reference.REF_MS * 1e6 / ref_ns,
            "raw_setup_s": raw_setup_s,
        }
        if args.mode != "setup":
            loop = Loop(workload, stream, prefetched)
            result.update((run_timed if args.mode == "timed" else run_traced)(loop, args))
            result.update(
                attempted=loop.attempted,
                failed=loop.failed,
                rejected=loop.rejected,
                periods=loop.periods,
            )
            for error in loop.errors[:5]:
                print(f"{args.workload}: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another worker still uses it
    print(json.dumps(result))
    return 0
