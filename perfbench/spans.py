"""Layer spans for the traced run, recorded from outside the program.

A `Tracer` wraps the public functions of each catledger module and, while
installed, rebinds every module attribute through which a caller looks the
function up (for example both `catledger.ledger.post_booking` and
`catledger.evolution.post_booking`).  Each wrapped call records one span:
name, start, end and parent, stacked per thread.  Spans stay in memory;
`summary()` folds them into per-layer calls and self times, where a span's
self time is its duration minus the time covered by its child spans.

Nothing is rebound while the tracer is not installed, so untraced calls run
the program exactly as shipped.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import threading
import time
from contextlib import contextmanager

# span name -> (defining module, function name)
LAYERS: dict[str, tuple[str, str]] = {
    "ledger.validate_booking": ("catledger.ledger", "validate_booking"),
    "ledger.leg_statuses": ("catledger.ledger", "leg_statuses"),
    "ledger.conservation_status": ("catledger.ledger", "conservation_status"),
    "ledger.post_booking": ("catledger.ledger", "post_booking"),
    "ledger.invariances": ("catledger.ledger", "invariances"),
    **{
        f"decisions.{fn}": ("catledger.decisions", fn)
        for fn in (
            "memory_due",
            "consumption",
            "demand_plan",
            "production",
            "good_price",
            "investment_sigmoid",
            "allocate_investment",
            "dividend_decision",
            "memory_push",
        )
    },
    "evolution.run": ("catledger.evolution", "run"),
    "evolution.period_step": ("catledger.evolution", "period_step"),
    "evolution.build_economy_category": ("catledger.evolution", "build_economy_category"),
    "evolution.validate_via_pullback": ("catledger.evolution", "validate_via_pullback"),
    "evolution.booking_to_morphisms": ("catledger.evolution", "booking_to_morphisms"),
    "evolution.apply_via_pushout": ("catledger.evolution", "apply_via_pushout"),
    "evolution.build_time_step": ("catledger.evolution", "build_time_step"),
    "evolution.verify_time_step": ("catledger.evolution", "verify_time_step"),
    "evolution.stability_report": ("catledger.evolution", "stability_report"),
    "catcore.finset_pullback": ("catledger.catcore", "finset_pullback"),
    "catcore.finset_pushout": ("catledger.catcore", "finset_pushout"),
    "catcore.check_functor_laws": ("catledger.catcore", "check_functor_laws"),
    "catcore.check_naturality": ("catledger.catcore", "check_naturality"),
    "cli.main": ("catledger.cli", "main"),
    "cli.trace_table": ("catledger.cli", "trace_table"),
    "cli.write_trace_csv": ("catledger.cli", "write_trace_csv"),
    "cli.write_trace_json": ("catledger.cli", "write_trace_json"),
    "cli.read_trace_csv": ("catledger.cli", "read_trace_csv"),
    "cli.cmd_sweep": ("catledger.cli", "cmd_sweep"),
    "cli._sweep_one": ("catledger.cli", "_sweep_one"),
}


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def _time_step_size(args, result):
    flows, eta = args[0], args[1]
    return len(eta.F.target.morphisms), sum(1 for _ in flows.composable_pairs())


def _sweep_row_ok(args, result):
    return result.get("status") == "ok"


# span name -> probe(args, result) run after a successful call; its time is
# kept out of every span's self time
PROBES = {
    "cli.write_trace_csv": _file_bytes,
    "cli.write_trace_json": _file_bytes,
    "evolution.verify_time_step": _time_step_size,
    "cli._sweep_one": _sweep_row_ok,
}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Span:
    __slots__ = ("id", "name", "thread", "start", "end", "parent", "child_ns", "failed", "value")

    def __init__(self, span_id: int, name: str, thread: int, parent: "Span | None"):
        self.id = span_id
        self.name = name
        self.thread = thread
        self.start = self.end = 0
        self.parent = parent
        self.child_ns = 0
        self.failed = False
        self.value = None


class Tracer:
    """Records spans around catledger's public functions while installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        self.spans: list[Span] = []
        self.cpu: list[tuple[float, float]] = []  # (cpu s, wall s) per cmd_sweep
        self._bindings: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}
        for name, (module, attr) in LAYERS.items():
            original = getattr(sys.modules[module], attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for module_name, module in list(sys.modules.items()):
            if module_name != "catledger" and not module_name.startswith("catledger."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value, hit[1]))

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        probe = PROBES.get(name)
        with_cpu = name == "cli.cmd_sweep"

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = Span(next(self._ids), name, threading.get_ident(), parent)
            self.spans.append(span)  # one list.append: atomic across sweep threads
            stack.append(span)
            cpu0 = _cpu_seconds() if with_cpu else 0.0
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
            if with_cpu:
                self.cpu.append((_cpu_seconds() - cpu0, (span.end - span.start) / 1e9))
            if probe is not None:
                span.value = probe(args, result)
                if parent is not None:
                    parent.child_ns += clock() - span.end
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every alias of the layer functions to its wrapper."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, self time in ns and probe values."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "failed": 0, "self_ns": 0, "values": []})
            entry["calls"] += 1
            entry["failed"] += span.failed
            entry["self_ns"] += (span.end - span.start) - span.child_ns
            if span.value is not None:
                entry["values"].append(span.value)
        return out

    def sweep_waits_ms(self) -> list[float]:
        """Per sweep worker: time from its cmd_sweep's start to the worker's start."""
        waits = []
        sweeps = sorted(s.start for s in self.spans if s.name == "cli.cmd_sweep")
        for span in self.spans:
            if span.name != "cli._sweep_one":
                continue
            opened = [start for start in sweeps if start <= span.start]
            if opened:
                waits.append((span.start - opened[-1]) / 1e6)
        return waits

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "name": span.name,
                    "thread": span.thread,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": None if span.parent is None else span.parent.id,
                    "failed": span.failed,
                }
                handle.write(json.dumps(record) + "\n")


# Per-layer metrics of the traced run, as (name, unit).  Calls, bytes and
# self times are per workload call; `*_per_period` per categorical period.
_TIMED_LAYERS = (
    "ledger.validate_booking",
    "ledger.leg_statuses",
    "ledger.conservation_status",
    "ledger.post_booking",
    "ledger.invariances",
    "evolution.run",
    "evolution.period_step",
    "evolution.build_economy_category",
    "evolution.validate_via_pullback",
    "evolution.booking_to_morphisms",
    "evolution.apply_via_pushout",
    "evolution.build_time_step",
    "evolution.verify_time_step",
    "evolution.stability_report",
    "catcore.finset_pullback",
    "catcore.finset_pushout",
    "catcore.check_functor_laws",
    "catcore.check_naturality",
    "cli.main",
    "cli.trace_table",
    "cli.write_trace_csv",
    "cli.write_trace_json",
    "cli.read_trace_csv",
)

LAYER_METRICS: tuple[tuple[str, str], ...] = (
    *(
        (f"{layer}.{kind}", unit)
        for layer in _TIMED_LAYERS
        for kind, unit in (("calls", "count"), ("self_ms", "ms"))
    ),
    ("ledger.bookings.posted_over_attempted", "ratio"),
    ("decisions.calls", "count"),
    ("decisions.self_ms", "ms"),
    ("decisions.memory_due.self_ms", "ms"),
    ("catcore.morphisms_per_period", "count"),
    ("catcore.pairs_per_period", "count"),
    ("cli.write_trace_csv.bytes", "bytes"),
    ("cli.write_trace_json.bytes", "bytes"),
    ("cli.sweep.wait_ms", "ms"),
    ("cli.sweep.cpu_util", "ratio"),
    ("cli.sweep.accepted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# metrics that must repeat exactly on every traced pass of the same inputs
EXACT_METRICS = frozenset(
    name for name, unit in LAYER_METRICS if unit in ("count", "bytes")
) | {"ledger.bookings.posted_over_attempted", "cli.sweep.accepted_frac"}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, workload_calls: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass except `trace.overhead_frac`."""
    stats = tracer.summary()
    empty = {"calls": 0, "failed": 0, "self_ns": 0, "values": []}

    def get(name: str) -> dict:
        return stats.get(name, empty)

    out: dict[str, float] = {}
    for layer in _TIMED_LAYERS:
        out[f"{layer}.calls"] = get(layer)["calls"] / workload_calls
        out[f"{layer}.self_ms"] = get(layer)["self_ns"] / 1e6 / workload_calls
    decisions = [entry for name, entry in stats.items() if name.startswith("decisions.")]
    out["decisions.calls"] = sum(e["calls"] for e in decisions) / workload_calls
    out["decisions.self_ms"] = sum(e["self_ns"] for e in decisions) / 1e6 / workload_calls
    memory_due = get("decisions.memory_due")
    out["decisions.memory_due.self_ms"] = memory_due["self_ns"] / 1e6 / workload_calls

    post, gate = get("ledger.post_booking"), get("evolution.validate_via_pullback")
    attempted = post["calls"] + gate["calls"]
    posted = post["calls"] - post["failed"] + get("evolution.apply_via_pushout")["calls"]
    out["ledger.bookings.posted_over_attempted"] = posted / attempted if attempted else 0.0

    sizes = get("evolution.verify_time_step")["values"]
    out["catcore.morphisms_per_period"] = _mean(m for m, _ in sizes)
    out["catcore.pairs_per_period"] = _mean(p for _, p in sizes)
    for kind in ("csv", "json"):
        written = get(f"cli.write_trace_{kind}")["values"]
        out[f"cli.write_trace_{kind}.bytes"] = sum(written) / workload_calls

    out["cli.sweep.wait_ms"] = _mean(tracer.sweep_waits_ms())
    wall = sum(w for _, w in tracer.cpu)
    out["cli.sweep.cpu_util"] = sum(c for c, _ in tracer.cpu) / wall if wall else 0.0
    out["cli.sweep.accepted_frac"] = _mean(get("cli._sweep_one")["values"])
    return out


def law_guard(tracer: Tracer) -> str | None:
    """None when every categorical period checked its laws, else the reason.

    Each categorical period must run the functor laws twice (F_t and
    F_t+1) and naturality once.
    """
    stats = tracer.summary()
    steps = stats.get("evolution.period_step", {}).get("calls", 0)
    functor = stats.get("catcore.check_functor_laws", {}).get("calls", 0)
    naturality = stats.get("catcore.check_naturality", {}).get("calls", 0)
    if steps == 0 or functor != 2 * steps or naturality != steps:
        return (
            f"law checks per period broken: {steps} periods, {functor} functor-law "
            f"checks, {naturality} naturality checks"
        )
    return None
