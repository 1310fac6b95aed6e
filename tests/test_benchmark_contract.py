"""The names the benchmark wraps and the names the package exports resolve.

`perfbench/spans.py` looks up every function in its `LAYERS` table when a
tracer is created, so deleting or renaming one breaks the benchmark; these
tests fail first.  Its law guard counts `period_step` calls and the law
checks run in each, so a run that steps around `period_step` fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import catledger
from catledger import catcore, evolution
from catledger.decisions import Parameters
from catledger.evolution import EngineKind, initial_state, period_step, run

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _spans().LAYERS
    assert layers
    missing = [
        f"{module}.{function}"
        for module, function in layers.values()
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


def test_the_benchmark_smoke_run_holds_its_pinned_digests():
    # `--smoke` runs every workload a few calls with every check on, among
    # them the digests the benchmark pins; a moved digest fails here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok"}


def test_every_exported_name_resolves():
    assert [name for name in catledger.__all__ if not hasattr(catledger, name)] == []


@pytest.mark.parametrize("engine", list(EngineKind))
def test_run_steps_each_period_through_period_step(monkeypatch, engine):
    counts = dict.fromkeys(("period_step", "check_functor_laws", "check_naturality"), 0)

    def counting(name):
        original = getattr(evolution, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(evolution, name, counting(name))
    rows = len(run(Parameters(horizon=12), engine=engine).column("period"))
    assert rows == 13
    assert counts["period_step"] == rows
    if engine is EngineKind.CATEGORICAL:
        # what the benchmark's law guard requires of every categorical period
        assert counts["check_functor_laws"] == 2 * rows
        assert counts["check_naturality"] == rows


def test_the_traced_categorical_run_passes_the_law_guard():
    # what `perfbench/run.py` records of a categorical run, per period
    importlib.import_module("catledger.cli")  # the tracer wraps its functions too
    spans = _spans()
    tracer = spans.Tracer()
    with tracer.installed():
        evolution.run(Parameters(horizon=3), engine="categorical")
    assert spans.law_guard(tracer) is None
    steps = [span for span in tracer.spans if span.name == "evolution.period_step"]
    assert len(steps) == 4
    for step in steps:
        children = [span.name for span in tracer.spans if span.parent is step]
        # both engines post through `post_booking`; no period gates or folds apart
        assert children.count("ledger.post_booking") == 8
        assert "evolution.validate_via_pullback" not in children
        assert "evolution.apply_via_pushout" not in children
    assert spans.layer_metrics(tracer, 1)["ledger.bookings.posted_over_attempted"] == 1.0
    sizes = tracer.summary()["evolution.verify_time_step"]["values"]
    assert sizes == [(66, 40)] * len(steps)


def test_the_traced_recursive_run_counts_every_posting():
    # a recursive period posts through `post_booking`, so the benchmark's
    # posting counts see every booking of a recursive run
    importlib.import_module("catledger.cli")
    spans = _spans()
    tracer = spans.Tracer()
    with tracer.installed():
        evolution.run(Parameters(horizon=3))
    steps = [span for span in tracer.spans if span.name == "evolution.period_step"]
    assert len(steps) == 4
    for step in steps:
        children = [span.name for span in tracer.spans if span.parent is step]
        assert children.count("ledger.post_booking") == 8
    assert spans.layer_metrics(tracer, 1)["ledger.bookings.posted_over_attempted"] == 1.0

    rejecting = spans.Tracer()
    with rejecting.installed(), pytest.raises(catledger.ValidationFailure):
        evolution.run(Parameters(tau=1, horizon=3))
    posts = [span for span in rejecting.spans if span.name == "ledger.post_booking"]
    assert [span.failed for span in posts].count(True) == 1
    assert posts[-1].failed


def test_a_categorical_period_builds_no_record_and_validates_no_labeled_map(monkeypatch):
    # the period runs on columns and positional maps: catcore has no record
    # type to build, and no labeled `FinSetMap` is validated
    assert not hasattr(catcore, "Morphism") and not hasattr(catcore, "CatObject")
    built: dict[str, int] = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            built[name] = built.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    params = Parameters()
    state = initial_state(params)
    monkeypatch.setattr(
        catcore.FinSetMap, "__init__", counting("FinSetMap", catcore.FinSetMap.__init__)
    )
    for period in range(3):
        state, _ = period_step(state, params, period, engine=EngineKind.CATEGORICAL)
    assert built == {}
    # the counter does see a labeled map
    catcore.FinSetMap(("a",), ("t",), {"a": "t"})
    assert built == {"FinSetMap": 1}


def test_a_period_is_one_state_vector_with_the_same_layer_calls():
    # the state is one list of doubles: no state or memory record is left
    # to build, and a recursive period still makes the 10 formula calls and
    # posts its 8 bookings through `post_booking`
    from catledger import decisions

    assert not hasattr(evolution, "SimulationState") and not hasattr(decisions, "ContractMemory")
    importlib.import_module("catledger.cli")
    spans = _spans()
    tracer = spans.Tracer()
    with tracer.installed():
        evolution.run(Parameters(horizon=2))
    steps = [span for span in tracer.spans if span.name == "evolution.period_step"]
    assert len(steps) == 3
    for step in steps:
        children = [span.name for span in tracer.spans if span.parent is step]
        assert sum(name.startswith("decisions.") for name in children) == 10
        assert children.count("decisions.memory_due") == 1
        assert children.count("decisions.memory_push") == 2
        assert children.count("ledger.post_booking") == 8


@pytest.mark.parametrize("workload", ["sim-recursive", "sim-categorical"])
def test_the_traced_benchmark_run_builds_its_tracer_and_passes(workload):
    # `--trace 1` resolves every layer when it builds its tracer, and fails a
    # categorical call whose periods skip a law check
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--trace", "1", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    metrics = {name: metric["value"] for name, metric in line["metrics"].items()}
    assert metrics["ledger.bookings.posted_over_attempted"] == 1.0
    if workload == "sim-recursive":  # 101 periods a call
        assert metrics["decisions.calls"] == 10 * 101
        assert metrics["ledger.post_booking.calls"] == 8 * 101
    else:
        assert metrics["catcore.check_functor_laws.calls"] > 0


def test_the_time_step_holds_lists_of_ids_that_the_probe_reads(monkeypatch):
    # functors and the transformation are columns of target ids, not dicts;
    # the benchmark's probe of `verify_time_step` still reads a real period
    built, verified = [], []
    build, verify = evolution.build_time_step, evolution.verify_time_step

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    def recording_verify(*args):
        verified.append(args)
        return verify(*args)

    monkeypatch.setattr(evolution, "build_time_step", recording_build)
    monkeypatch.setattr(evolution, "verify_time_step", recording_verify)
    params = Parameters()
    period_step(initial_state(params), params, 0, engine=EngineKind.CATEGORICAL)
    [(_, f_t, f_t1, eta)], [args] = built, verified
    assert eta.F is f_t and eta.G is f_t1 and args[1] is eta
    for functor in (f_t, f_t1):
        assert type(functor.object_images) is list and len(functor.object_images) == 20
        assert type(functor.morphism_images) is list and len(functor.morphism_images) == 23
    assert type(eta.components) is list and len(eta.components) == 20
    assert _spans().PROBES["evolution.verify_time_step"](args, None) == (66, 40)
