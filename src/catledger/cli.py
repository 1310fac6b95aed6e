"""Batch command-line interface: run, compare, sweep, plot, check-laws.

The canonical trace format is CSV with a fixed column order (period, the
17 period metrics, the 20 accounts, the 6 invariance values).  Every run
echoes its fully resolved parameter set as leading `#` comment lines so a
trace file is reproducible on its own.  JSON output adds the per-booking
ledger log for audits.

Exit codes: 0 success, 1 configuration or validation error, 2 invariance
breach, 3 engine divergence or a failed law check.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from array import array
from functools import cache
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TextIO

from .catcore import (
    FinSetMap,
    FiniteCategory,
    Functor,
    check_functor_laws,
    finset_pullback,
    finset_pushout,
    verify_pullback_universal,
    verify_pushout_universal,
)
from .decisions import METRIC_COLUMNS, Parameters, PeriodMetrics
from .evolution import (
    _FIXED,
    _SPEC_CONE,
    INVARIANCE_COLUMNS,
    TRACE_COLUMNS,
    EngineConsistencyError,
    EngineKind,
    Trace,
    _first_non_finite,
    period_amounts,
    run,
    stability_report,
)
from .ledger import ACCOUNT_NAMES, BOOKINGS, SPEC_BY_NAME, LedgerError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANCE = 2
EXIT_DIVERGENCE = 3

# config-file key -> Parameters field, in field order; `lam` is keyed `lambda`
PARAM_KEYS: dict[str, str] = {
    "lambda" if name == "lam" else name: name for name in Parameters._fields
}
_KEY_OF = {name: key for key, name in PARAM_KEYS.items()}

_INT_FIELDS = {"tau", "horizon"}


class ConfigError(ValueError):
    pass


class RunConfig(NamedTuple):
    params: Parameters = Parameters()
    engine: EngineKind = EngineKind.RECURSIVE


def _check_key(key: str) -> str:
    """`key`, if it is `engine` or a key of PARAM_KEYS; else ConfigError."""
    if key != "engine" and key not in PARAM_KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    return key


def _keyed(message: str) -> str:
    """`message` with the field it starts with, if any, said as the key that sets it."""
    name, space, rest = message.partition(" ")
    return _KEY_OF.get(name, name) + space + rest


def apply_setting(config: RunConfig, key: str, raw: str) -> RunConfig:
    """`config` with the setting of `key` parsed from `raw`."""
    key, raw = _check_key(key.strip()), raw.strip()
    if key == "engine":
        return config._replace(engine=EngineKind(raw))
    name = PARAM_KEYS[key]
    try:
        value = int(raw) if name in _INT_FIELDS else float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None
    return config._replace(params=config.params._replace(**{name: value}))


def load_config(path: str | Path | None, overrides: Sequence[str] = ()) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus --set overrides."""
    config = RunConfig()
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            config = apply_setting(config, key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        config = apply_setting(config, key, raw)
    try:
        config.params.validate()
    except ValueError as exc:
        raise ConfigError(_keyed(str(exc))) from None
    return config


def config_echo(params: Parameters, engine: EngineKind) -> list[str]:
    """The fully resolved settings, one 'key = value' line per entry."""
    lines = [f"{key} = {getattr(params, name)!r}" for key, name in PARAM_KEYS.items()]
    return lines + [f"engine = {engine.value}"]


# ---------------------------------------------------------------------------
# Trace serialization.
# ---------------------------------------------------------------------------


def trace_table(trace: Trace) -> list[dict[str, float]]:
    """The trace as one dict per row, keyed by TRACE_COLUMNS, the period as an int."""
    cells, width = trace.cells.tolist(), len(TRACE_COLUMNS)
    rows = ([int(cells[i]), *cells[i + 1 : i + width]] for i in range(0, len(cells), width))
    return [dict(zip(TRACE_COLUMNS, row)) for row in rows]


def _cell_texts(trace: Trace) -> list[str]:
    """The repr of every trace cell, in cell order: the one formatting of each double."""
    return list(map(repr, trace.cells))


def _csv_texts(texts: Iterable[str]) -> list[str]:
    """Each cell repr for the CSV: "N.0" with at most 15 digits as N, and -0.0 as 0.

    A repr ends in ".0" only for an integral double below 1e16, so this is every integral
    value below 1e15; 1e15 keeps its 16 digits.
    """
    return [
        text if text[-2:] != ".0" or len(text) - (text[0] == "-") > 17
        else "0" if text == "-0.0" else text[:-2]
        for text in texts
    ]


def write_trace_csv(trace: Trace, path: str | Path, texts: list[str] | None = None) -> None:
    """The `#` echo of the trace's settings, the header and one line per row, CRLF-terminated.

    A failed write removes the file.  `texts` are the trace's `_cell_texts`, when the
    caller already holds them.
    """
    cells, width = _csv_texts(_cell_texts(trace) if texts is None else texts), len(TRACE_COLUMNS)
    handle = open(path, "w", newline="", encoding="utf-8")
    try:
        with handle:
            for line in config_echo(trace.params, trace.engine):
                handle.write(f"# {line}\n")
            handle.write(",".join(TRACE_COLUMNS) + "\r\n")
            for start in range(0, len(cells), width):
                handle.write(",".join(cells[start : start + width]) + "\r\n")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def read_trace_csv(path: str | Path) -> tuple[dict[str, str], list[dict[str, float]]]:
    """Parse a trace CSV into (echoed config, rows); name the line of a short row or a bad cell."""
    meta: dict[str, str] = {}
    rows: list[dict[str, float]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        data_lines, line_numbers = [], []
        for number, line in enumerate(handle, start=1):
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, raw = body.split("=", 1)
                    meta[key.strip()] = raw.strip()
                continue
            data_lines.append(line)
            line_numbers.append(number)
    if not data_lines:
        raise ConfigError(f"trace file {path} holds no table")
    reader = csv.reader(data_lines)
    header = next(reader)
    if tuple(header) != TRACE_COLUMNS:
        raise ConfigError(f"trace file {path} has an unexpected header")
    for parts in reader:
        if not parts:
            continue
        if len(parts) != len(header):
            raise ConfigError(
                f"trace file {path}, line {line_numbers[reader.line_num - 1]}: "
                f"{len(parts)} cells where the header has {len(header)}"
            )
        values: list[float] = []
        try:
            values.extend(map(float, parts))  # `values` keeps the cells before a bad one
            bad, problem = _first_non_finite(values), "{!r} is not finite"
        except ValueError:
            bad, problem = len(values), "cannot parse {!r}"
        if bad is not None:  # a cell that does not parse, or the first inf or nan
            raise ConfigError(
                f"trace file {path}, line {line_numbers[reader.line_num - 1]}, "
                f"column {header[bad]}: {problem.format(parts[bad])}"
            ) from None
        rows.append(dict(zip(header, values)))
    if not rows:
        raise ConfigError(f"trace file {path} holds no rows")
    return meta, rows


# Without `indent` json uses its C encoder (an indent forces the pure-Python
# one); allow_nan=False makes every piece strict JSON.
_encode_json = json.JSONEncoder(allow_nan=False).encode


def _write_json_lines(handle: TextIO, texts: Iterable[str]) -> None:
    """The elements of a JSON array, given as JSON text, one per line."""
    separator = "\n"
    for text in texts:
        handle.write(separator + text)
        separator = ",\n"
    handle.write("\n")


def _not_json(period: float, where: str, value: float) -> ValueError:
    """The JSON encoder's error for an inf or nan, naming the period and where it lies."""
    label = "%d" % period if math.isfinite(period) else repr(period)
    problem = f"period {label}, {where} is {value!r}"
    return ValueError(f"Out of range float values are not JSON compliant: {problem}")


def _period_text() -> tuple[str, itemgetter, list[int | None]]:
    """A period's bookings as one JSON array with `%s` for each leg's amount, in leg order.

    Also the getter of the legs' amounts from the period's amounts, and each amount's metric
    column.  Fed distinct float objects, `period_amounts` hands some back as they are: those
    amounts are metric cells.  The others (None) are quotients; only they get a new repr.
    """
    metrics = PeriodMetrics._make(map(float, range(1, 1 + len(METRIC_COLUMNS))))
    records, slots, amounts = [], [], []
    for booking_id, pair in period_amounts(metrics, Parameters()):
        description, legs, _ = BOOKINGS[booking_id]
        slots += [len(amounts) + slot for _, _, slot in legs]
        amounts += pair
        legs_json = [
            dict(account=a, direction=w.value, amount=None, unit=SPEC_BY_NAME[a].unit.value)
            for a, w, _ in legs
        ]
        records.append({"id": booking_id, "description": description, "legs": legs_json})
    cells = [next((i for i, m in enumerate(metrics) if m is amount), None) for amount in amounts]
    # inside a JSON string the quotes of `"amount": null` would be escaped
    text = _encode_json(records).replace("%", "%%").replace('"amount": null', '"amount": %s')
    return text, itemgetter(*slots), cells


_PERIOD_TEXT, _PERIOD_SLOTS, _AMOUNT_CELLS = _period_text()


def _period_booking_lines(trace: Trace, texts: list[str]) -> Iterable[str]:
    """Each period's bookings as one JSON array; a metric amount's text is its cell's."""
    cells, width, count = trace.cells, len(TRACE_COLUMNS), len(METRIC_COLUMNS)
    for start in range(1, len(cells), width):
        metrics = PeriodMetrics._make(cells[start : start + count])
        try:
            bookings = period_amounts(metrics, trace.params)
        except ZeroDivisionError:
            problem = "period %d: a booking amount divides by a zero price" % cells[start - 1]
            raise ValueError(problem) from None
        amounts = [amount for _, pair in bookings for amount in pair]
        bad = _first_non_finite(amounts)
        if bad is not None:
            booking_id = [b for b, pair in bookings for _ in pair][bad]
            raise _not_json(cells[start - 1], f"an amount of booking {booking_id}", amounts[bad])
        yield _PERIOD_TEXT % _PERIOD_SLOTS(
            [repr(a) if c is None else texts[start + c] for a, c in zip(amounts, _AMOUNT_CELLS)]
        )


def write_trace_json(trace: Trace, path: str | Path, texts: list[str] | None = None) -> None:
    """Stream the trace as one strict JSON document.

    The object holds `config` (the trace's settings), `columns`, `rows` (one list of
    cells per trace row) and `bookings` (one list of bookings per period, each with its
    legs).  It is written piece by piece: the header on the first line, then one row per
    line, then one period's bookings per line.  A failed write removes the file.  A
    ValueError names the first period whose booking amount divides by a zero price,
    the first inf or nan cell by period and column, and the first inf or nan booking
    amount by period and booking.
    `texts` are the trace's `_cell_texts`, when the caller already holds them.
    """
    texts = _cell_texts(trace) if texts is None else texts
    cells, width = trace.cells, len(TRACE_COLUMNS)
    rows = (
        "[%d, %s]" % (cells[i], ", ".join(texts[i + 1 : i + width]))
        for i in range(0, len(cells), width)
    )
    echo = dict(line.split(" = ", 1) for line in config_echo(trace.params, trace.engine))
    handle = open(path, "w", encoding="utf-8")
    try:
        with handle:
            bad = _first_non_finite(cells)
            if bad is not None:
                column = TRACE_COLUMNS[bad % width]
                raise _not_json(cells[bad - bad % width], f"column {column}", cells[bad])
            header = f'"config": {_encode_json(echo)}, "columns": {_encode_json(TRACE_COLUMNS)}'
            handle.write(f'{{{header},\n"rows": [')
            _write_json_lines(handle, rows)
            handle.write('],\n"bookings": [')
            _write_json_lines(handle, _period_booking_lines(trace, texts))
            handle.write("]}\n")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _details(exc: Exception) -> list[str]:
    """A rejection's diagnostics, or the failures of a law check."""
    return getattr(exc, "diagnostics", None) or getattr(exc, "failures", [])


def _report_failure(command: str, exc: LedgerError | EngineConsistencyError) -> int:
    """Print a failed run's message, its period if known, and every detail; its exit code.

    A rejected run exits 1, a run whose laws failed exits 3.
    """
    period = getattr(exc, "period", None)
    where = "" if period is None else f"period {period}, "
    print(f"{command} failed: {where}{exc}", file=sys.stderr)
    for detail in _details(exc):
        print(f"  {detail}", file=sys.stderr)
    return EXIT_DIVERGENCE if isinstance(exc, EngineConsistencyError) else EXIT_CONFIG


def _invariance_peaks(trace: Trace) -> list[float]:
    """The largest magnitude of each invariance column, in INVARIANCE_COLUMNS order."""
    return [max(map(abs, trace.column(column))) for column in INVARIANCE_COLUMNS]


def cmd_run(config: RunConfig, out: str | None, json_out: str | None) -> int:
    try:
        trace = run(config.params, engine=config.engine)
    except (LedgerError, EngineConsistencyError) as exc:
        return _report_failure("run", exc)
    texts = _cell_texts(trace) if out or json_out else None  # one repr per cell, for both files
    if out:
        write_trace_csv(trace, out, texts)
    try:
        if json_out:
            write_trace_json(trace, json_out, texts)
    except BaseException:  # the CSV of a failed run goes with it
        if out:
            Path(out).unlink(missing_ok=True)
        raise
    print(f"rows: {len(trace.column('period'))}")
    peaks = _invariance_peaks(trace)
    for column, peak in zip(INVARIANCE_COLUMNS, peaks):
        print(f"max |{column}|: {peak:.3e}")
    if any(peaks):  # the guarantee is exactly 0.0
        print("invariance breach", file=sys.stderr)
        return EXIT_INVARIANCE
    return EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    try:
        recursive = run(config.params, engine=EngineKind.RECURSIVE)
        categorical = run(config.params, engine=EngineKind.CATEGORICAL)
    except (LedgerError, EngineConsistencyError) as exc:
        return _report_failure("compare", exc)
    cells, other = recursive.cells, categorical.cells
    if len(cells) != len(other):
        print(f"cell counts differ: {len(cells)} recursive, {len(other)} categorical")
    elif cells.tobytes() != other.tobytes():
        # the engines must agree bit for bit: -0.0 against 0.0 is a divergence
        bits, other_bits = array("q", cells.tobytes()), array("q", other.tobytes())
        index = next(i for i, (a, b) in enumerate(zip(bits, other_bits)) if a != b)
        period, column = divmod(index, len(TRACE_COLUMNS))
        print(
            f"first difference: period {period}, column {TRACE_COLUMNS[column]}: "
            f"{cells[index]!r} recursive, {other[index]!r} categorical"
        )
    else:
        print("max divergence: 0.000e+00")
        return EXIT_OK
    print("engines diverge", file=sys.stderr)
    return EXIT_DIVERGENCE


def _sweep_one(config: RunConfig, key: str, raw: str) -> dict[str, str]:
    summary = {"param": key, "value": raw}
    try:
        local = apply_setting(config, key, raw)
        trace = run(local.params, engine=local.engine)
        report = stability_report(trace)
        summary.update(
            status="ok",
            bounded=str(report.bounded),
            good_price_drift=repr(report.drift["GoodPrice"]),
            final_good_price=repr(trace.column("GoodPrice")[-1]),
            max_invariance=repr(max(_invariance_peaks(trace))),
        )
    # a rejected value only marks its own row; anything else is a bug and propagates
    except (LedgerError, ValueError, EngineConsistencyError) as exc:
        summary.update(status=_error_status(exc))
    return summary


def _error_status(exc: Exception) -> str:
    """A failed sweep row's status: the failed period, the message, every detail.

    A refused field is named by its key, as in `load_config`.  The period and
    a rejection's diagnostics are joined without a comma, so that its CSV
    field needs no quotes; a law check's failures hold spaces and may hold
    commas, so they are joined with '; '.
    """
    period = getattr(exc, "period", None)
    where = "" if period is None else f"period {period}: "
    details = _details(exc)
    separator = "; " if isinstance(exc, EngineConsistencyError) else " "
    detail = f" [{separator.join(details)}]" if details else ""
    return f"error: {where}{_keyed(str(exc))}{detail}"


SWEEP_COLUMNS = (
    "param", "value", "status", "bounded", "good_price_drift", "final_good_price", "max_invariance"
)


def cmd_sweep(config: RunConfig, key: str, values: Iterable[str]) -> int:
    _check_key(key)
    # one run per value, in order; a programming error propagates before any row is written
    summaries = [_sweep_one(config, key, raw) for raw in values]
    writer = csv.DictWriter(sys.stdout, fieldnames=SWEEP_COLUMNS, restval="")
    writer.writeheader()
    writer.writerows(summaries)
    return EXIT_OK


_PLOT_PANELS: dict[str, tuple[str, ...]] = {
    "accounts": ACCOUNT_NAMES,
    "invariances": INVARIANCE_COLUMNS,
    "price": ("GoodPrice",),
    "investment": ("Investment",),
}

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
# Renders the panel data files written next to this script (not run by the
# trace tool itself; requires matplotlib).
import matplotlib.pyplot as plt
from pathlib import Path

here = Path(__file__).parent
fig, axes = plt.subplots(2, 2, figsize=(12, 8))
for ax, name in zip(axes.flat, ("accounts", "invariances", "price", "investment")):
    header, *lines = (here / f"{name}.dat").read_text().splitlines()
    columns = header.lstrip("#").split()
    data = [list(map(float, line.split())) for line in lines]
    for idx, label in enumerate(columns[1:], start=1):
        ax.plot([r[0] for r in data], [r[idx] for r in data], label=label)
    ax.set_title(name)
    ax.set_xlabel(columns[0])
    if len(columns) <= 8:
        ax.legend(fontsize="x-small")
fig.tight_layout()
fig.savefig(here / "panels.png", dpi=150)
print(here / "panels.png")
"""


def cmd_plot(trace_path: str, outdir: str) -> int:
    try:
        _, rows = read_trace_csv(trace_path)
    except (OSError, ValueError) as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    directory = Path(outdir)
    directory.mkdir(parents=True, exist_ok=True)
    periods = _csv_texts([repr(record["period"]) for record in rows])
    for panel, columns in _PLOT_PANELS.items():
        lines = ["# period " + " ".join(columns)]
        for period, record in zip(periods, rows):
            lines.append(" ".join([period] + [repr(record[c]) for c in columns]))
        (directory / f"{panel}.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / "plot.py").write_text(_PLOT_SCRIPT, encoding="utf-8")
    print(f"wrote {len(_PLOT_PANELS)} panel files + plot.py to {directory}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Law fixtures for `check-laws`.
# ---------------------------------------------------------------------------


def run_law_fixtures() -> list[tuple[str, bool]]:
    """Self-contained law suite; returns (name, passed) pairs."""
    results: list[tuple[str, bool]] = []

    cat = FiniteCategory.from_columns(
        "triangle", ("X", "Y", "Z"), (1, 2, 1), (2, 3, 3), (0.0,) * 3, ("a", "b", "c")
    )
    identity = Functor.identity(cat)
    results.append(("identity functor passes", check_functor_laws(identity).ok))

    corrupted = Functor.identity(cat)
    corrupted.morphism_images[0] = 2  # a: X->Y now maps to b: Y->Z
    results.append(("corrupted functor fails", not check_functor_laws(corrupted).ok))

    f = FinSetMap(("a", "b"), ("t", "f"), {"a": "t", "b": "f"})
    g = FinSetMap(("x", "y", "z"), ("t", "f"), {"x": "t", "y": "t", "z": "f"})
    apex, p_a, p_b = finset_pullback(f, g)
    results.append(("pullback apex", apex == (("a", "x"), ("a", "y"), ("b", "z"))))
    results.append(
        ("pullback universal property", verify_pullback_universal(f, g, apex, p_a, p_b))
    )

    fc = FinSetMap(("t",), ("a", "b"), {"t": "a"})
    gc = FinSetMap(("t",), ("x", "y"), {"t": "x"})
    classes, i_a, i_b = finset_pushout(fc, gc)
    results.append(("pushout class count", len(classes) == 3))
    results.append(
        ("pushout universal property", verify_pushout_universal(fc, gc, classes, i_a, i_b))
    )

    # the engine's own shapes: the dividend booking's 8 legs onto 6 accounts,
    # two touched twice, and its gate with every leg ok
    to_account, to_slot, *_ = _FIXED[6]
    fixed = (to_account, to_slot, *finset_pushout(to_account, to_slot))
    results.append(("dividend pushout universal property", verify_pushout_universal(*fixed)))
    legs_ok = FinSetMap(to_slot.domain, _SPEC_CONE.codomain, dict.fromkeys(to_slot.domain, "ok"))
    gate = (legs_ok, _SPEC_CONE, *finset_pullback(legs_ok, _SPEC_CONE))
    results.append(("dividend gate universal property", verify_pullback_universal(*gate)))

    # the categorical engine must accept its own period constructions; any
    # other exception is a programming error and propagates
    try:
        trace = run(Parameters(horizon=5), engine=EngineKind.CATEGORICAL)
        results.append(("engine periods law-check", len(trace.column("period")) == 6))
    except (LedgerError, EngineConsistencyError):
        results.append(("engine periods law-check", False))
    return results


def cmd_check_laws() -> int:
    results = run_law_fixtures()
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return EXIT_OK if all(passed for _, passed in results) else EXIT_CONFIG


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one setting (repeatable)",
    )
    parser.add_argument("--horizon", type=int, help="number of periods to simulate")
    parser.add_argument(
        "--engine", choices=[e.value for e in EngineKind], help="engine to run"
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = list(args.overrides)
    if getattr(args, "horizon", None) is not None:
        overrides.append(f"horizon={args.horizon}")
    if getattr(args, "engine", None):
        overrides.append(f"engine={args.engine}")
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catledger",
        description="Five-sector monetary economy simulator with a ledger and a categorical engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and write the trace")
    _add_config_arguments(p_run)
    p_run.add_argument("--out", help="trace CSV path")
    p_run.add_argument("--json", dest="json_out", help="trace JSON path (with booking log)")

    p_cmp = sub.add_parser("compare", help="run both engines and compare traces")
    _add_config_arguments(p_cmp)

    p_sweep = sub.add_parser("sweep", help="stability summaries over parameter values")
    _add_config_arguments(p_sweep)
    p_sweep.add_argument("--param", required=True, help="configuration key to vary")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list of values (may be empty)"
    )
    p_sweep.add_argument("--jobs", type=int, help="ignored: the values run one after another")

    p_plot = sub.add_parser("plot", help="emit panel data files and a plot script")
    p_plot.add_argument("trace", help="trace CSV produced by `run`")
    p_plot.add_argument("--outdir", default="plots", help="output directory")

    sub.add_parser("check-laws", help="run the categorical law fixtures")
    return parser


_parser = cache(build_parser)  # built on the first call; `parse_args` leaves it as it was


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is an invariance breach
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args), args.out, args.json_out)
        if args.command == "compare":
            return cmd_compare(_config_from_args(args))
        if args.command == "sweep":
            values = [v for v in args.values.split(",") if v != ""]
            return cmd_sweep(_config_from_args(args), args.param, values)
        if args.command == "plot":
            return cmd_plot(args.trace, args.outdir)
        if args.command == "check-laws":
            return cmd_check_laws()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
