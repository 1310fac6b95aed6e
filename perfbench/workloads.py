"""The four seeded workloads: generated inputs, the timed call, the check.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned and been checked.  Inputs come only from the
seed; the program receives them as `Parameters` values, `--set` strings,
horizons and file paths.

A call is correct when it returns what its check expects.  A scenario that
ends in a typed rejection (`ValidationFailure`, or `ConfigError`/`ValueError`
from the CLI) is a correct outcome whenever an untimed direct `run()` of the
same scenario rejects it too; it adds no periods.  Anything else a call
raises, and any output its check refuses, is a failed call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import catledger
import catledger.cli

# sha256 over the first PIN_CALLS calls of seed 0, the default seed: every
# trace cell (sim-recursive, sim-categorical) or the CSV bytes (cli-export).  A change that
# moves one bit of a pinned output fails the benchmark.
PIN_CALLS = 4
PINNED = {
    ("sim-recursive", 0): "5323de7425ceaa07a4fef3807ab423c8dd9d9f8777a2b566ff04110ef2dca5c6",
    ("sim-categorical", 0): "56b64763ffb8e448b239d78c090ac570309238f9abf8a59243bce6e7cb13f05a",
    ("cli-export", 0): "7bb35e40d6b6e0ef7c0969d682cdb9d7fff9a47f7bc53a6b55f563092a13f57d",
}
PINNED_WORKLOADS = frozenset(name for name, _ in PINNED)

# Scenario region in which every draw completes: tau sets the contract
# memory length.  omega starts at 0.1 because omega < 0.05 with mu < 0.2 and
# tau >= 10 is cash-infeasible.
TAU_RANGE = (7, 15)
OMEGA_RANGE = (0.1, 1.0)
MU_RANGE = (0.1, 0.9)
# sim-categorical spreads its horizons evenly around 30.  Calls of one
# fixed length would all take about the same time, and on a host that
# switches between a fast and a slow state their median would jump between
# the two; over a spread of lengths it moves in proportion to the time spent
# in each.  A golden-ratio sequence from a seeded start covers the range
# evenly on every seed, so the seed does not move the latency percentiles.
CATEGORICAL_HORIZONS = (6, 54)
GOLDEN = (5**0.5 - 1) / 2

# sweep-mixed draws taus from the whole range; 1-3 are always rejected and
# 4-6 for high markups, about a third of all draws.
SWEEP_TAUS = range(1, 16)
SWEEP_SIZE = 4
SWEEP_HORIZON = 50
SWEEP_JOBS = 2

TYPED_REJECTIONS = (catledger.ValidationFailure, catledger.cli.ConfigError, ValueError)


class CheckFailed(Exception):
    """A call's output disagrees with what the workload's check expects."""


@dataclass
class Checked:
    periods: int  # simulated periods of completed scenarios
    rejected: int  # scenarios that ended in a typed rejection
    pin: bytes = b""  # the bytes the pinned digest covers


def _scenarios(seed: int) -> Iterator[tuple[dict, float]]:
    """Seeded scenarios, each with a point in [0, 1) that places a horizon."""
    rng = random.Random(seed)
    point = rng.random()
    while True:
        scenario = {
            "tau": rng.randint(*TAU_RANGE),
            "omega": rng.uniform(*OMEGA_RANGE),
            "mu": rng.uniform(*MU_RANGE),
        }
        yield scenario, point
        point = (point + GOLDEN) % 1.0


def _params(horizon: int, **scenario) -> catledger.Parameters:
    params = catledger.Parameters(horizon=horizon, **scenario)
    params.validate()
    return params


def _cells(trace: catledger.Trace) -> bytes:
    return array("d", trace.flat_values()).tobytes()


def _direct(params: catledger.Parameters):
    """The untimed reference on the recursive engine: a trace, or the typed rejection."""
    try:
        return catledger.run(params)
    except TYPED_REJECTIONS as exc:
        return exc


def _check_sound(trace: catledger.Trace) -> None:
    for row in trace.rows:
        if any(value != 0.0 for value in row.invariances.as_tuple()):
            raise CheckFailed(f"period {row.period}: invariance not exactly zero")
    cells = list(trace.flat_values())
    if len(cells) != len(catledger.cli.TRACE_COLUMNS) * len(trace.rows):
        raise CheckFailed("trace rows have missing cells")
    if not all(map(math.isfinite, cells)):
        raise CheckFailed("trace holds a non-finite cell")


class SimRecursive:
    """`catledger.run(params, horizon=100, engine=RECURSIVE)` on one seeded scenario per call."""

    horizon = 100

    def inputs(self, seed: int) -> Iterator[catledger.Parameters]:
        for scenario, _ in _scenarios(seed):
            yield _params(self.horizon, **scenario)

    def call(self, params: catledger.Parameters):
        return catledger.run(params, horizon=self.horizon, engine=catledger.EngineKind.RECURSIVE)

    def check(self, params: catledger.Parameters, trace) -> Checked:
        """Every invariance exactly zero, every cell finite, every period there."""
        if trace.engine is not catledger.EngineKind.RECURSIVE:
            raise CheckFailed(f"trace from the {trace.engine} engine")
        if len(trace.rows) != self.horizon + 1:
            raise CheckFailed(f"{len(trace.rows)} rows for horizon {self.horizon}")
        _check_sound(trace)
        return Checked(len(trace.rows), 0, _cells(trace))


class SimCategorical:
    """`catledger.run(params, horizon, engine=CATEGORICAL)` on one seeded scenario per call."""

    def inputs(self, seed: int) -> Iterator[catledger.Parameters]:
        low, high = CATEGORICAL_HORIZONS
        for scenario, point in _scenarios(seed):
            yield _params(low + int(point * (high - low + 1)), **scenario)

    def call(self, params: catledger.Parameters):
        try:
            return catledger.run(
                params, horizon=params.horizon, engine=catledger.EngineKind.CATEGORICAL
            )
        except catledger.ValidationFailure as exc:
            return exc

    def check(self, params: catledger.Parameters, trace) -> Checked:
        """Bit-identical to the recursive engine on the same scenario."""
        reference = _direct(params)
        if isinstance(trace, catledger.ValidationFailure) or isinstance(reference, Exception):
            if type(trace) is not type(reference) or str(trace) != str(reference):
                raise CheckFailed(f"engines end differently: {trace!r} vs {reference!r}")
            return Checked(0, 1, str(trace).encode())
        cells = _cells(trace)
        if trace.engine is not catledger.EngineKind.CATEGORICAL or cells != _cells(reference):
            raise CheckFailed("categorical trace is not bit-identical to the recursive one")
        _check_sound(trace)
        return Checked(len(trace.rows), 0, cells)


class CliExport:
    """`catledger run --out CSV --json JSON` in process, then `read_trace_csv`."""

    horizon = 100

    def __init__(self, workdir: Path) -> None:
        self.csv_path = workdir / "trace.csv"
        self.json_path = workdir / "trace.json"

    def inputs(self, seed: int) -> Iterator[tuple]:
        for scenario, _ in _scenarios(seed):
            argv = ["run"]
            for key, value in scenario.items():
                argv += ["--set", f"{key}={value!r}"]
            argv += ["--set", f"horizon={self.horizon}"]
            argv += ["--out", str(self.csv_path), "--json", str(self.json_path)]
            yield _params(self.horizon, **scenario), argv

    def call(self, inputs: tuple):
        _, argv = inputs
        with contextlib.redirect_stdout(io.StringIO()):
            code = catledger.cli.main(argv)
        if code != catledger.cli.EXIT_OK:
            return code, None
        _, rows = catledger.cli.read_trace_csv(self.csv_path)
        return code, rows

    def check(self, inputs: tuple, outcome) -> Checked:
        params, _ = inputs
        code, rows = outcome
        reference = _direct(params)
        if isinstance(reference, Exception):
            if code != catledger.cli.EXIT_CONFIG:
                raise CheckFailed(f"exit code {code} for a rejected scenario")
            return Checked(0, 1)
        if code != catledger.cli.EXIT_OK:
            raise CheckFailed(f"exit code {code}")
        columns = catledger.cli.TRACE_COLUMNS
        expected = list(reference.flat_values())
        if [row[col] for row in rows for col in columns] != expected:
            raise CheckFailed("CSV does not re-read to the trace's exact doubles")
        payload = json.loads(self.json_path.read_text(encoding="utf-8"))
        cells = [cell for row in payload["rows"] for cell in row]
        if tuple(payload["columns"]) != columns or cells != expected:
            raise CheckFailed("JSON rows differ from the trace")
        return Checked(len(reference.rows), 0, self.csv_path.read_bytes())


class SweepMixed:
    """`catledger sweep --param tau --jobs 2` over seeded taus, some infeasible."""

    def inputs(self, seed: int) -> Iterator[tuple]:
        rng = random.Random(seed)
        while True:
            taus = rng.sample(SWEEP_TAUS, SWEEP_SIZE)
            omega = rng.uniform(*OMEGA_RANGE)
            mu = rng.uniform(*MU_RANGE)
            argv = [
                "sweep", "--param", "tau", "--values", ",".join(map(str, taus)),
                "--horizon", str(SWEEP_HORIZON), "--jobs", str(SWEEP_JOBS),
                "--set", f"omega={omega!r}", "--set", f"mu={mu!r}",
            ]
            scenarios = [_params(SWEEP_HORIZON, tau=t, omega=omega, mu=mu) for t in taus]
            yield scenarios, argv

    def call(self, inputs: tuple):
        _, argv = inputs
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = catledger.cli.main(argv)
        return code, out.getvalue()

    def check(self, inputs: tuple, outcome) -> Checked:
        scenarios, _ = inputs
        code, text = outcome
        if code != catledger.cli.EXIT_OK:
            raise CheckFailed(f"exit code {code}")
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(scenarios):
            raise CheckFailed(f"{len(rows)} sweep rows for {len(scenarios)} values")
        periods = rejected = 0
        for row, params in zip(rows, scenarios):
            if row["value"] != str(params.tau):
                raise CheckFailed(f"row for tau={row['value']} where tau={params.tau} was due")
            reference = _direct(params)
            if isinstance(reference, Exception):
                if not row["status"].startswith("error"):
                    raise CheckFailed(f"tau={params.tau}: {row['status']!r}, expected a rejection")
                rejected += 1
                continue
            if row["status"] != "ok":
                raise CheckFailed(f"tau={params.tau}: {row['status']!r}, expected ok")
            if row["bounded"] != "True" or float(row["max_invariance"]) != 0.0:
                raise CheckFailed(f"tau={params.tau}: unbounded or non-zero invariance")
            if row["final_good_price"] != repr(reference.rows[-1].metrics.good_price):
                raise CheckFailed(f"tau={params.tau}: final price differs from a direct run")
            periods += len(reference.rows)
        return Checked(periods, rejected)


def make(name: str, workdir: Path):
    """The workload called `name`; `workdir` takes the files it writes."""
    if name == "sim-recursive":
        return SimRecursive()
    if name == "sim-categorical":
        return SimCategorical()
    if name == "cli-export":
        return CliExport(workdir)
    if name == "sweep-mixed":
        return SweepMixed()
    raise ValueError(f"unknown workload {name!r}")

