"""catledger benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload sim-recursive --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 25 --trace 1 [--spans FILE]
    python3 perfbench/run.py --smoke

With `--trace 0` the last line of standard output holds the end-to-end
metrics, measured with tracing off; with `--trace 1` it holds the per-layer
metrics of a separate traced run.  The line before it records provenance,
the raw wall-clock figures behind the rescaled end-to-end ones among it.
Each measurement runs in fresh worker interpreters (`worker.py`), so this
process stays out of the measured memory and set-up time.  `--smoke` runs
every workload for a few calls with every check on.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-recursive", "sim-categorical", "cli-export", "sweep-mixed")
DEFAULT_SEED = 0
SETUP_PROBES = 10  # fresh interpreters per run, half before and half after the timed one
SMOKE_CALLS = 4  # covers the pinned digests
WORKER_TIMEOUT_S = 170

# wall-clock figures of the timed worker, recorded in the provenance
RAW_FIGURES = ("raw_periods_per_s", "raw_call_ms_p50", "raw_call_ms_p90", "ref_ms_p50")

E2E_UNITS = {
    "setup_s": "s",
    "periods_per_s": "periods/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}


class WorkerFailed(RuntimeError):
    pass


def worker(*args: str) -> dict:
    """Run one worker interpreter to completion and return its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(args, result: dict) -> dict:
    src = ROOT / "src" / "catledger"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": f"{platform.system()} {platform.machine()}, {_cpu_model()}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")),
        **result,
    }


def measure(args) -> tuple[dict, dict]:
    """(final result line, provenance) of one benchmark run."""
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        extra = ["--spans", args.spans] if args.spans else []
        result = worker("--mode", "traced", *common, *extra)
        metrics = result["layers"]
        units = dict(spans.LAYER_METRICS)
        record = {"passes": result["passes"], "pass_calls": result["pass_calls"]}
    else:
        worker("--mode", "setup", *common)  # warm-up: byte-compiles a fresh checkout
        setups = [worker("--mode", "setup", *common) for _ in range(SETUP_PROBES // 2)]
        result = worker("--mode", "timed", *common)
        setups.append(result)
        setups += [worker("--mode", "setup", *common) for _ in range(SETUP_PROBES // 2)]
        metrics = {
            "setup_s": statistics.median(probe["setup_s"] for probe in setups),
            "periods_per_s": result["periods_per_s"],
            "call_ms_p50": result["call_ms_p50"],
            "call_ms_p90": result["call_ms_p90"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = E2E_UNITS
        record = {
            "latency_samples": result["calls"],
            "setup_samples": len(setups),
            "timed_s": result["timed_s"],
            "raw_setup_s": statistics.median(probe["raw_setup_s"] for probe in setups),
            **{key: result[key] for key in RAW_FIGURES},
            "periods": result["periods"],
            "digest": result["digest"],
        }
    record.update(rejected=result["rejected"])
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return line, provenance(args, record)


def smoke(seed: int) -> int:
    ok = True
    for name in WORKLOADS:
        start = time.perf_counter()
        common = ["--workload", name, "--seed", str(seed), "--calls", str(SMOKE_CALLS)]
        timed = worker("--mode", "timed", *common)
        traced = worker("--mode", "traced", *common)
        failed = timed["failed"] + traced["failed"]
        ok = ok and failed == 0
        calls = timed["attempted"] + traced["attempted"]
        print(
            f"{name}: {'ok' if failed == 0 else 'FAILED'}, {calls} calls, {failed} failed, "
            f"digest {timed['digest']}, {time.perf_counter() - start:.2f} s"
        )
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="catledger benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1: write the last traced pass's spans here")
    parser.add_argument("--smoke", action="store_true", help="a few checked calls per workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catledger").is_dir():
        print(f"no catledger sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(args.seed)
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        line, record = measure(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": record}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
