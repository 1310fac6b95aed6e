"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_smoke_passes_every_check_quickly():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok"}
    assert time.perf_counter() - start < 10


def test_benchmark_json_matches_the_metrics_printed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "sim-categorical", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    import catledger.cli  # noqa: F401  (the tracer resolves the layer functions)

    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer._wrap("inner", inner)
    tracer._wrap("outer", outer)()
    stats = tracer.summary()
    assert stats["outer"]["calls"] == stats["inner"]["calls"] == 1
    assert stats["outer"]["self_ns"] >= 10_000_000
    assert stats["inner"]["self_ns"] >= 20_000_000
    assert stats["outer"]["self_ns"] < stats["inner"]["self_ns"]


def test_rescaling_cancels_a_change_in_host_speed():
    samples = [10_000_000, 12_000_000, 11_000_000, 30_000_000]
    refs = [2_000_000, 2_500_000, 2_000_000, 2_000_000]
    slow = [2 * ns for ns in samples], [2 * ns for ns in refs]
    assert reference.scale(*slow) == reference.scale(samples, refs)
    at_ref = reference.scale(samples, [reference.REF_MS * 1e6] * len(samples))
    assert at_ref == [float(ns) for ns in samples]
