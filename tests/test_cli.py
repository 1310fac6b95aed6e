"""Command-line interface: config handling, exit codes, trace round-trips."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import threading
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from catledger import cli
from catledger.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_INVARIANCE,
    EXIT_OK,
    PARAM_KEYS,
    TRACE_COLUMNS,
    ConfigError,
    config_echo,
    load_config,
    main,
    read_trace_csv,
    trace_table,
    write_trace_csv,
    write_trace_json,
)
from catledger.decisions import METRIC_COLUMNS, Parameters, PeriodMetrics
from catledger.evolution import EngineConsistencyError, EngineKind, Trace, period_amounts, run
from catledger.ledger import BOOKINGS, SPEC_BY_NAME, Invariances, ValidationFailure
from tests.test_ledger import oracle_booking

_oracle_encode = json.JSONEncoder(allow_nan=False).encode


def oracle_json_text(trace: Trace) -> str:
    """The JSON document as a writer that encodes every booking's record whole would write it."""
    cells, width = trace.cells.tolist(), len(TRACE_COLUMNS)
    rows = [[int(cells[i]), *cells[i + 1 : i + width]] for i in range(0, len(cells), width)]
    bookings = [
        [
            {
                "id": booking_id,
                "description": BOOKINGS[booking_id][0],
                "legs": [
                    {
                        "account": account,
                        "direction": way.value,
                        "amount": amounts[slot],
                        "unit": SPEC_BY_NAME[account].unit.value,
                    }
                    for account, way, slot in BOOKINGS[booking_id][1]
                ],
            }
            for booking_id, amounts in period_amounts(
                PeriodMetrics._make(row[1 : 1 + len(METRIC_COLUMNS)]), trace.params
            )
        ]
        for row in rows
    ]
    echo = dict(line.split(" = ", 1) for line in config_echo(trace.params, trace.engine))
    header = f'"config": {_oracle_encode(echo)}, "columns": {_oracle_encode(TRACE_COLUMNS)}'
    return (
        f'{{{header},\n"rows": [\n'
        + ",\n".join(map(_oracle_encode, rows))
        + '\n],\n"bookings": [\n'
        + ",\n".join(map(_oracle_encode, bookings))
        + "\n]}\n"
    )


def oracle_csv_cell(value: float) -> str:
    """A cell as the CSV holds it, decided on the value: an integral value below 1e15 as N."""
    if value.is_integer() and -1e15 < value < 1e15:
        return "0" if value == 0.0 else repr(value)[:-2]
    return repr(value)


def oracle_csv_text(trace: Trace) -> str:
    """The CSV document as a writer that formats every cell by its value would write it."""
    cells, width = [oracle_csv_cell(value) for value in trace.cells], len(TRACE_COLUMNS)
    echo = "".join(f"# {line}\n" for line in config_echo(trace.params, trace.engine))
    rows = [",".join(cells[i : i + width]) + "\r\n" for i in range(0, len(cells), width)]
    return echo + ",".join(TRACE_COLUMNS) + "\r\n" + "".join(rows)


def hand_built_trace(values: list[float], rows: int = 2) -> Trace:
    """A default trace of `rows` rows whose cells are `values`, repeated to fill them."""
    trace = run(Parameters(), horizon=rows - 1)
    cells = array("d", (values[i % len(values)] for i in range(len(trace.cells))))
    return trace._replace(cells=cells)


def count_calls(monkeypatch, name: str, function) -> list[tuple]:
    """Make `cli.<name>` call `function` and record each call's arguments in the returned list."""
    calls: list[tuple] = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(cli, name, counted, raising=False)
    return calls


# the edges of the CSV's integral rule, and what it writes for each (a list: -0.0 == 0.0)
EDGE_CELLS = [
    (0.0, "0"),
    (-0.0, "0"),
    (1.0, "1"),
    (-1.0, "-1"),
    (999999999999999.0, "999999999999999"),
    (-999999999999999.0, "-999999999999999"),
    (1e15, "1000000000000000.0"),
    (-1e15, "-1000000000000000.0"),
    (1e16, "1e+16"),
    (-1e16, "-1e+16"),
    (1e22, "1e+22"),
    (5e-324, "5e-324"),
    (0.1, "0.1"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (math.nan, "nan"),
]

# settings under which every loan is finite, but with `nu_r=1e12` their sum on
# AccComLoan would overflow in period 11
OVERFLOWING_LOANS = [
    arg
    for setting in ("tau=20", "sig_a=2e307", "sig_b=1", "lambda=0", "p_r=1e300")
    for arg in ("--set", setting)
]


class TestConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.params == Parameters()
        assert config.engine is EngineKind.RECURSIVE

    def test_overrides(self):
        config = load_config(None, ["lambda=0.3", "tau=5", "engine=categorical"])
        assert config.params.lam == 0.3
        assert config.params.tau == 5
        assert config.engine is EngineKind.CATEGORICAL

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["speed=9"])

    def test_a_setting_makes_a_new_config(self):
        base = load_config(None)
        changed = cli.apply_setting(base, " lambda ", " 0.3 ")
        assert changed == (base.params._replace(lam=0.3), EngineKind.RECURSIVE)
        assert base == load_config(None)
        assert cli.apply_setting(base, "engine", "categorical").engine is EngineKind.CATEGORICAL

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            load_config(None, ["rho_l=1.5"])

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("lambda=2", "lambda must lie in [0, 1], got 2.0"),
            ("rho_l=1.5", "rho_l must lie in [0, 1], got 1.5"),
            ("tau=0", "tau must be an integer >= 1"),
            ("sig_c=0", "sig_c must be positive"),
        ],
    )
    def test_an_out_of_range_value_is_named_by_its_key(self, tmp_path, capsys, setting, message):
        # `lambda` sets the field `lam`; the user typed `lambda`, so the error says so
        path = tmp_path / "scenario.cfg"
        path.write_text(setting.replace("=", " = ") + "\n")
        for source, overrides in ((path, ()), (None, [setting])):
            with pytest.raises(ConfigError) as err:
                load_config(source, overrides)
            assert str(err.value) == message
        for options in (["--config", str(path)], ["--set", setting]):
            assert main(["run", "--horizon", "20", *options]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_unknown_engine_gets_the_library_message(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("engine = fast\n")
        message = "unknown engine 'fast': expected 'recursive' or 'categorical'"
        for source, overrides in ((path, ()), (None, ["engine=fast"])):
            with pytest.raises(ValueError) as err:
                load_config(source, overrides)
            assert str(err.value) == message
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# comment line\nmu = 0.4\nhorizon = 7\n\nengine = categorical\n")
        config = load_config(path)
        assert config.params.mu == 0.4
        assert config.params.horizon == 7
        assert config.engine is EngineKind.CATEGORICAL

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "override, message",
        [
            ("tau=abc", "cannot parse value 'abc' for key 'tau'"),
            ("mu", "--set expects key=value, got 'mu'"),
        ],
    )
    def test_a_malformed_override_is_refused_by_name(self, override, message):
        with pytest.raises(ConfigError) as err:
            load_config(None, [override])
        assert str(err.value) == message


class TestCmdRun:
    def test_default_run_writes_101_rows(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["run", "--out", str(out)]) == EXIT_OK
        meta, rows = read_trace_csv(out)
        assert len(rows) == 101
        assert meta["tau"] == "10"
        assert meta["engine"] == "recursive"

    def test_invalid_fraction_exits_1(self, capsys):
        assert main(["run", "--set", "rho_l=1.5"]) == EXIT_CONFIG
        assert "rho_l" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--horizon", "abc"], "argument --horizon: invalid int value: 'abc'"),
            ([], "the following arguments are required: command"),
            (
                ["sweep", "--param", "tau", "--values", "7", "--jobs", "abc"],
                "argument --jobs: invalid int value: 'abc'",
            ),
        ],
    )
    def test_a_usage_error_exits_1_with_the_parser_message(self, capsys, argv, message):
        # 2 is kept for an invariance breach
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: catledger") and f"error: {message}\n" in err

    def test_successive_calls_share_no_overrides(self, tmp_path, monkeypatch):
        # `main` builds its parser once per process, not once per call
        monkeypatch.setattr(cli, "build_parser", None)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["run", "--set", "mu=0.3", "--horizon", "1", "--out", str(first)]) == EXIT_OK
        assert main(["run", "--horizon", "1", "--out", str(second)]) == EXIT_OK
        assert read_trace_csv(first)[0]["mu"] == "0.3"
        assert read_trace_csv(second)[0]["mu"] == repr(Parameters().mu) != "0.3"

    def test_help_exits_0(self, capsys):
        assert main(["run", "--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: catledger run")

    def test_three_period_goldens_via_csv(self, tmp_path):
        out = tmp_path / "short.csv"
        assert main(["run", "--horizon", "2", "--out", str(out)]) == EXIT_OK
        _, rows = read_trace_csv(out)
        assert len(rows) == 3
        assert rows[1]["AccResBank"] == pytest.approx(208.0)
        assert rows[1]["Investment"] == pytest.approx(289.49, abs=0.01)
        assert rows[2]["AccComLoan"] == pytest.approx(523.49, abs=0.01)
        assert rows[2]["GoodPrice"] == pytest.approx(89.94, abs=0.05)

    @pytest.mark.parametrize("breach", [1e-6, 1e-12, -5e-324])
    def test_invariance_breach_exits_2(self, monkeypatch, capsys, breach):
        # the guarantee is exactly 0.0: any other value is a breach
        real_run = run

        def tampered(params, horizon=None, engine=EngineKind.RECURSIVE):
            trace = real_run(params, horizon=horizon, engine=engine)
            cells = array("d", trace.cells)
            checks = Invariances(breach, 0, 0, 0, 0, breach)
            cells[-len(Invariances._fields) :] = array("d", checks)
            return trace._replace(cells=cells)

        monkeypatch.setattr(cli, "run", tampered)
        assert main(["run", "--horizon", "3"]) == EXIT_INVARIANCE
        assert "invariance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--json"])
    @pytest.mark.parametrize(
        "setting, where",
        [
            ("nu_l=1e308", "period 1, balance of 'AccLabLab'"),
            ("nu_r=1e308", "period 1, balance of 'AccResRes'"),
        ],
    )
    def test_non_finite_cell_exits_1_and_writes_nothing(
        self, tmp_path, capsys, flag, setting, where
    ):
        path = tmp_path / "trace.out"
        assert main(["run", "--set", setting, "--horizon", "3", flag, str(path)]) == EXIT_CONFIG
        assert f"run failed: {where} would become non-finite (inf)" in capsys.readouterr().err
        assert not path.exists()

    def test_a_failed_json_write_takes_the_csv_with_it(self, tmp_path, capsys):
        csv_path = tmp_path / "a.csv"
        json_path = tmp_path / "missing" / "y.json"
        argv = ["run", "--horizon", "3", "--out", str(csv_path), "--json", str(json_path)]
        assert main(argv) == EXIT_CONFIG
        assert "error: [Errno 2]" in capsys.readouterr().err
        assert not csv_path.exists() and not json_path.exists()

    def test_a_failed_csv_write_removes_the_file(self, tmp_path, monkeypatch):
        def failing(params, engine):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "config_echo", failing)  # read after the file is opened
        path = tmp_path / "a.csv"
        with pytest.raises(OSError, match="disk full"):
            write_trace_csv(run(Parameters(), horizon=3), path)
        assert not path.exists()

    def test_an_overflowing_memory_due_is_refused_without_a_traceback(self, capsys):
        settings = ["sig_a=1e308", "sig_b=7e307", "lambda=1", "tau=4", "p_l=1e300", "nu_l=1e12"]
        argv = ["run", *(arg for setting in settings for arg in ("--set", setting))]
        assert main([*argv, "--horizon", "10"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("run failed: period ")
        assert "Traceback" not in err

    # 2 * tau + 1 exceeds the largest list: refused before anything is allocated
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_a_tau_whose_state_cannot_be_allocated_exits_1_naming_tau(self, capsys, command):
        assert main([command, "--horizon", "5", "--set", f"tau={2**62}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: tau={2**62}: a state of {2**63 + 21} doubles cannot be allocated\n"

    @pytest.mark.parametrize("engine", ["recursive", "categorical"])
    def test_rejection_names_period_booking_and_legs(self, capsys, engine):
        assert main(["run", "--set", "tau=1", "--engine", engine]) == EXIT_CONFIG
        lines = [line.strip() for line in capsys.readouterr().err.splitlines()]
        assert lines[0].startswith("run failed: period 1, booking 7 ")
        assert "insufficient-balance:AccComBank" in lines
        assert "insufficient-balance:AccBankComBank" in lines

    @pytest.mark.parametrize("engine", ["recursive", "categorical"])
    def test_a_loan_that_overflows_its_balances_exits_1_naming_booking_5(self, capsys, engine):
        argv = ["run", "--horizon", "20", "--engine", engine, *OVERFLOWING_LOANS]
        assert main([*argv, "--set", "nu_r=1e12"]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "run failed: period 11, booking 5 (Com gets Loan from Bank) rejected",
            "  non-finite-balance:AccComLoan",
            "  non-finite-balance:AccBankComLoan",
        ]


# A `--set` value: a number, non-finite or unparsable text; a tau stays at most
# 50 or reaches 2**62, whose state is refused before anything is allocated.
_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity"]),
    st.text(alphabet="xyz,;# ", max_size=4),
)
_TAUS = st.one_of(st.integers(max_value=50), st.integers(min_value=2**62)).map(str)
_ENGINES = st.sampled_from(["recursive", "categorical", "quantum", ""])
_SETTINGS = st.sampled_from(sorted([*PARAM_KEYS, "engine"])).flatmap(
    lambda key: st.tuples(
        st.just(key),
        _ENGINES if key == "engine" else st.one_of(_TAUS, _NUMBERS) if key == "tau" else _NUMBERS,
    )
)


class TestSetOnAWholeRun:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_SETTINGS)
    @example(("tau", str(2**62))).via("a state too large to allocate")
    @example(("tau", "1")).via("a rejected booking")
    @example(("nu_l", "1e308")).via("a balance that overflows")
    @example(("lambda", "2")).via("a key that is not its field's name")
    def test_a_setting_completes_or_exits_1_with_a_named_error(self, setting):
        key, value = setting
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--horizon", "20", "--set", f"{key}={value}"])
        err = err.getvalue()
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert (code == EXIT_OK) == (err == "")
        if err.startswith("error: "):
            # the key the user typed, `lambda` too, which sets the field `lam`
            assert key in err, err
        else:
            assert err == "" or err.startswith("run failed: period "), err


class TestCmdCompare:
    def test_engines_agree(self, capsys):
        assert main(["compare", "--horizon", "20"]) == EXIT_OK
        assert capsys.readouterr().out == "max divergence: 0.000e+00\n"

    def test_injected_divergence_exits_3(self, monkeypatch, capsys):
        real_run = run

        def skewed(params, horizon=None, engine=EngineKind.RECURSIVE):
            trace = real_run(params, horizon=horizon, engine=EngineKind.RECURSIVE)
            if engine is EngineKind.CATEGORICAL:
                cells = array("d", trace.cells)
                cells[TRACE_COLUMNS.index("Investment") - len(TRACE_COLUMNS)] += 1.0
                trace = trace._replace(cells=cells)
            return trace

        monkeypatch.setattr(cli, "run", skewed)
        assert main(["compare", "--horizon", "3"]) == EXIT_DIVERGENCE
        assert "diverge" in capsys.readouterr().err

    def test_horizon_one(self):
        assert main(["compare", "--horizon", "1"]) == EXIT_OK

    def test_shorter_trace_exits_3(self, monkeypatch, capsys):
        real_run = run

        def truncated(params, horizon=None, engine=EngineKind.RECURSIVE):
            trace = real_run(params, horizon=horizon, engine=engine)
            if engine is EngineKind.CATEGORICAL:
                trace = trace._replace(cells=trace.cells[: -len(TRACE_COLUMNS)])
            return trace

        monkeypatch.setattr(cli, "run", truncated)
        assert main(["compare", "--horizon", "3"]) == EXIT_DIVERGENCE
        assert "diverge" in capsys.readouterr().err

    def test_negative_zero_cell_exits_3_naming_it(self, monkeypatch, capsys):
        # the engines must agree bit for bit: -0.0 == 0.0, but its bits differ
        real_run = run

        def signed(params, horizon=None, engine=EngineKind.RECURSIVE):
            trace = real_run(params, horizon=horizon, engine=EngineKind.RECURSIVE)
            if engine is EngineKind.CATEGORICAL:
                cells = array("d", trace.cells)
                assert cells[-1] == 0.0
                cells[-1] = -0.0
                trace = trace._replace(cells=cells)
            return trace

        monkeypatch.setattr(cli, "run", signed)
        assert main(["compare", "--horizon", "3"]) == EXIT_DIVERGENCE
        captured = capsys.readouterr()
        assert "period 3, column I_Mac: 0.0 recursive, -0.0 categorical" in captured.out
        assert "max divergence" not in captured.out
        assert "diverge" in captured.err

    @pytest.mark.parametrize("engine", ["recursive", "categorical"])
    def test_zero_good_price_is_a_rejection(self, capsys, engine):
        # a least-subnormal sig_b prices period 1's goods at 0.0
        argv = ["--set", "sig_a=0", "--set", "sig_b=5e-324", "--horizon", "5"]
        assert main(["run", *argv, "--engine", engine]) == EXIT_CONFIG
        lines = [line.strip() for line in capsys.readouterr().err.splitlines()]
        assert lines == [
            "run failed: period 1, good price is zero: the goods sales cannot be priced",
            "GoodPrice=0.0",
        ]
        assert main(["compare", *argv]) == EXIT_CONFIG
        assert "compare failed: period 1, good price is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["recursive", "categorical"])
    def test_an_output_of_inf_is_refused_at_its_write(self, capsys, engine):
        argv = ["run", "--set", "alpha=1e308", "--horizon", "5", "--engine", engine]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "run failed: period 0, balance of 'AccComGood' would become non-finite (inf)\n"
        )

    def test_non_finite_cell_exits_1(self, capsys):
        # period 1's second endowment would make AccResRes inf on both engines
        assert main(["compare", "--set", "nu_r=1e308", "--horizon", "3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (
            "compare failed: period 1, balance of 'AccResRes' would become non-finite (inf)"
            in captured.err
        )
        assert "max divergence" not in captured.out

    def test_rejection_names_period_booking_and_legs(self, capsys):
        assert main(["compare", "--set", "tau=1"]) == EXIT_CONFIG
        lines = [line.strip() for line in capsys.readouterr().err.splitlines()]
        assert lines[0].startswith("compare failed: period 1, booking 7 ")
        assert "insufficient-balance:AccComBank" in lines
        assert "insufficient-balance:AccBankComBank" in lines


class TestALawFailure:
    """A categorical period whose law check fails is reported, never a traceback."""

    @staticmethod
    def fault_at_period_2(monkeypatch):
        # the third close of a run checks its laws against a closing AccComBank one higher
        from catledger import evolution
        from catledger.ledger import ACCOUNT_INDEX

        real, closes = evolution.verify_time_step, []

        def faulty(flows, eta, old, new):
            closes.append(None)
            if len(closes) == 3:
                new = list(new)
                new[ACCOUNT_INDEX["AccComBank"]] += 1.0
            return real(flows, eta, old, new)

        monkeypatch.setattr(evolution, "verify_time_step", faulty)
        return closes

    def failure(self, monkeypatch, params: Parameters) -> str:
        """The one failure the fault makes, as `run` reports it."""
        self.fault_at_period_2(monkeypatch)
        with pytest.raises(EngineConsistencyError) as err:
            run(params, engine=EngineKind.CATEGORICAL)
        assert (str(err.value), err.value.period) == ("period law check failed", 2)
        [failure] = err.value.failures
        assert failure.startswith("component weight for AccComBank: ")
        return failure

    @pytest.mark.parametrize(
        "argv", [["run", "--engine", "categorical"], ["compare"]], ids=["run", "compare"]
    )
    def test_run_and_compare_exit_3_naming_the_period_and_failures(
        self, monkeypatch, capsys, argv
    ):
        failure = self.failure(monkeypatch, Parameters(horizon=5))
        closes = self.fault_at_period_2(monkeypatch)
        assert main([*argv, "--horizon", "5"]) == EXIT_DIVERGENCE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{argv[0]} failed: period 2, period law check failed",
            f"  {failure}",
        ]
        assert captured.out == "" and len(closes) == 3

    def test_a_sweep_row_names_the_period_and_failures(self, monkeypatch, capsys):
        failure = self.failure(monkeypatch, Parameters(tau=3, horizon=25))
        self.fault_at_period_2(monkeypatch)
        argv = ["sweep", "--engine", "categorical", "--param", "tau", "--values", "3"]
        assert main([*argv, "--horizon", "25"]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["status"] for row in rows] == [
            f"error: period 2: period law check failed [{failure}]"
        ]

    @staticmethod
    def no_component_at_period_2(monkeypatch):
        # the third time step of a run has no evolution component for AccComBank
        from catledger import evolution
        from catledger.ledger import ACCOUNT_INDEX

        real, builds = evolution.build_time_step, []

        def faulty(flows, old, new):
            step = real(flows, old, new)
            builds.append(None)
            if len(builds) == 3:
                step[3].components[ACCOUNT_INDEX["AccComBank"]] = None
            return step

        monkeypatch.setattr(evolution, "build_time_step", faulty)

    def test_a_sweep_row_keeps_each_of_several_failures_apart(self, monkeypatch, capsys):
        self.no_component_at_period_2(monkeypatch)
        with pytest.raises(EngineConsistencyError) as err:
            run(Parameters(tau=3, horizon=25), engine=EngineKind.CATEGORICAL)
        failures = err.value.failures
        assert err.value.period == 2 and len(failures) > 1
        assert all(" " in failure for failure in failures)
        self.no_component_at_period_2(monkeypatch)
        argv = ["sweep", "--engine", "categorical", "--param", "tau", "--values", "3"]
        assert main([*argv, "--horizon", "25"]) == EXIT_OK
        [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
        head, bracket, field = row["status"].partition(" [")
        assert (head, bracket) == ("error: period 2: period law check failed", " [")
        assert field.endswith("]")
        assert field[:-1].split("; ") == failures


class TestCmdSweep:
    def test_three_omega_values(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--param",
                    "omega",
                    "--values",
                    "0.0,0.5,1.0",
                    "--horizon",
                    "25",
                ]
            )
            == EXIT_OK
        )
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
        assert len(lines) == 4  # header + 3 rows
        default_row = next(l for l in lines if l.startswith("omega,0.5"))
        # the default value reproduces the baseline run
        baseline = run(Parameters(horizon=25))
        from catledger.evolution import stability_report

        report = stability_report(baseline)
        assert repr(report.drift["GoodPrice"]) in default_row

    def test_empty_value_list(self, capsys):
        assert main(["sweep", "--param", "omega", "--values", ""]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1  # header only

    def test_tau_sweep_isolates_the_insolvent_value(self, capsys):
        # tau=1 makes the whole loan fall due next period, which the
        # company's cash cannot cover: the run aborts (reject, don't clamp)
        # and the sweep reports it as an isolated error row
        assert (
            main(["sweep", "--param", "tau", "--values", "1,5,10", "--horizon", "25"])
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "tau,1,error" in out
        assert "tau,5,ok" in out
        assert "tau,10,ok" in out

    def test_rejection_row_names_period_and_diagnostics(self, capsys):
        assert main(["sweep", "--param", "tau", "--values", "1", "--horizon", "25"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith(
            "tau,1,error: period 1: booking 7 (Com repays Loan to Bank) rejected "
            "[insufficient-balance:AccComBank insufficient-balance:AccBankComBank],"
        )

    def test_a_tau_whose_state_cannot_be_allocated_marks_only_its_row(self, capsys):
        argv = ["sweep", "--param", "tau", "--values", f"10,{2**62}", "--horizon", "25"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("tau,10,ok,")
        message = f"tau={2**62}: a state of {2**63 + 21} doubles cannot be allocated"
        assert lines[2] == f"tau,{2**62},error: {message},,,,"

    def test_zero_good_price_marks_only_its_row(self, capsys):
        argv = ["sweep", "--param", "alpha", "--values", "0.42,1e308", "--horizon", "25"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("alpha,0.42,ok,")
        assert lines[2].startswith(
            "alpha,1e308,error: period 0: balance of 'AccComGood' would become non-finite (inf),"
        )
        argv = ["sweep", "--param", "sig_b", "--values", "480,5e-324", "--horizon", "25"]
        assert main([*argv, "--set", "sig_a=0"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("sig_b,480,ok,")
        assert lines[2].startswith(
            "sig_b,5e-324,error: period 1: good price is zero: the goods sales cannot be "
            "priced [GoodPrice=0.0],"
        )

    @pytest.mark.parametrize(
        "param, values, where",
        [
            ("nu_r", "1e308,100", "period 1: balance of 'AccResRes'"),
            ("nu_l", "1e308", "period 1: balance of 'AccLabLab'"),
        ],
    )
    def test_non_finite_cell_marks_its_row_an_error(self, capsys, param, values, where):
        argv = ["sweep", "--param", param, "--values", values, "--horizon", "25"]
        assert main(argv) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["value"] for row in rows] == values.split(",")
        assert rows[0]["status"] == f"error: {where} would become non-finite (inf)"
        assert rows[0]["bounded"] == ""
        assert [row["status"] for row in rows[1:]] == ["ok"] * (len(rows) - 1)

    def test_a_loan_that_overflows_its_balances_marks_its_row(self, capsys):
        argv = ["sweep", "--param", "nu_r", "--values", "1e12", "--horizon", "20"]
        assert main([*argv, *OVERFLOWING_LOANS]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1]
        assert row == (
            "nu_r,1e12,error: period 11: booking 5 (Com gets Loan from Bank) rejected "
            "[non-finite-balance:AccComLoan non-finite-balance:AccBankComLoan],,,,"
        )

    def test_unknown_parameter(self, capsys):
        assert main(["sweep", "--param", "nope", "--values", "1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: unknown configuration key 'nope'\n")

    def test_a_refused_lambda_row_names_the_key(self, capsys):
        # `lambda` sets the field `lam`; the row says the key, as `load_config` does
        assert main(["sweep", "--param", "lambda", "--values", "2", "--horizon", "25"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1]
        assert row == 'lambda,2,"error: lambda must lie in [0, 1], got 2.0",,,,'

    def test_bad_value_is_isolated(self, capsys):
        assert (
            main(["sweep", "--param", "rho_r", "--values", "0.8,7.0", "--horizon", "25"])
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert "rho_r,0.8,ok" in out
        bad_row = next(l for l in out.splitlines() if l.startswith("rho_r,7.0"))
        assert "error" in bad_row

    @pytest.fixture
    def validations(self, monkeypatch) -> list[Parameters]:
        """The parameters of every `Parameters.validate` call, in call order."""
        calls: list[Parameters] = []
        validate = Parameters.validate
        monkeypatch.setattr(Parameters, "validate", lambda p: calls.append(p) or validate(p))
        return calls

    @pytest.mark.parametrize(
        "param, value, row",
        [
            ("rho_r", "7.0", 'rho_r,7.0,"error: rho_r must lie in [0, 1], got 7.0",,,,'),
            ("tau", "0", "tau,0,error: tau must be an integer >= 1,,,,"),
            ("sig_b", "0", "sig_b,0,error: sig_b must be positive,,,,"),
            ("omega", "nan", 'omega,nan,"error: omega must be a number, got nan",,,,'),
        ],
    )
    def test_a_refused_value_is_validated_once_and_its_row_pinned(
        self, capsys, validations, param, value, row
    ):
        # `load_config` validates the base parameters, then `run` the swept
        # ones, which it refuses with the error the row shows
        argv = ["sweep", "--param", param, "--values", value, "--horizon", "25"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == row
        assert len(validations) == 2

    def test_an_accepted_value_is_validated_once(self, capsys, validations):
        argv = ["sweep", "--param", "rho_r", "--values", "0.7", "--horizon", "25"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].startswith("rho_r,0.7,ok,")
        assert [p.rho_r for p in validations] == [0.8, 0.7]  # the base, then the swept value

    def test_stdout_is_pinned_and_jobs_is_ignored(self, capsys):
        argv = ["sweep", "--param", "tau", "--values", "1,3,7,12", "--horizon", "50"]
        argv += ["--set", "omega=0.4", "--set", "mu=0.5"]
        outputs = []
        for jobs in ([], ["--jobs", "0"], ["--jobs", "1"], ["--jobs", "2"], ["--jobs", "10000"]):
            assert main(argv + jobs) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert (
            hashlib.sha256(outputs[0].encode("utf-8")).hexdigest()
            == "3ac10b7ade758b8b7262197709ddd19fa194639b6784bcde901a963de5af7b98"
        )
        assert outputs == outputs[:1] * 5

    def test_no_sweep_starts_a_thread(self, monkeypatch, capsys):
        def refuse(thread):
            raise AssertionError(f"the sweep started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        argv = ["sweep", "--param", "omega", "--values", "0.3,0.5,0.7", "--horizon", "20"]
        assert main(argv + ["--jobs", "4"]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(row["value"], row["status"]) for row in rows] == [
            ("0.3", "ok"),
            ("0.5", "ok"),
            ("0.7", "ok"),
        ]

    def test_programming_error_is_not_a_row(self, monkeypatch, capsys):
        def broken(trace):
            raise TypeError("broken report")

        monkeypatch.setattr(cli, "stability_report", broken)
        with pytest.raises(TypeError, match="broken report"):
            main(["sweep", "--param", "omega", "--values", "0.5", "--horizon", "25"])
        assert capsys.readouterr().out == ""


class TestCmdPlot:
    def test_panels_from_default_trace(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        main(["run", "--horizon", "30", "--out", str(trace_path)])
        outdir = tmp_path / "panels"
        assert main(["plot", str(trace_path), "--outdir", str(outdir)]) == EXIT_OK
        invariance_lines = (outdir / "invariances.dat").read_text().splitlines()
        assert len(invariance_lines) == 32  # header + 31 rows
        for line in invariance_lines[1:]:
            assert all(float(cell) == 0.0 for cell in line.split()[1:])
        assert (outdir / "plot.py").exists()
        assert (outdir / "price.dat").exists()

    def test_default_panel_bytes_are_pinned(self, tmp_path):
        # the period column's integral rule and every repr in the panels are fixed byte for byte
        trace_path = tmp_path / "trace.csv"
        assert main(["run", "--horizon", "100", "--out", str(trace_path)]) == EXIT_OK
        outdir = tmp_path / "panels"
        assert main(["plot", str(trace_path), "--outdir", str(outdir)]) == EXIT_OK
        digests = {
            name: hashlib.sha256((outdir / f"{name}.dat").read_bytes()).hexdigest()
            for name in ("accounts", "invariances", "price", "investment")
        }
        assert digests == {
            "accounts": "4af4ab370368b9b8af1881641a4b6ec97774266f3e632f4b7d36836d5ac9f93a",
            "invariances": "17548f7b84624c9a51b582699850177f0e78a598fbb020834aed1a98a2c67174",
            "price": "6e8b3f77a0fbbca621150fb6af126067374f32e49346ab6d78259b05303e0e97",
            "investment": "5371a27e41a101e5d3be89471aa9df4758d900f90acb64bd90a28ab102547c64",
        }

    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["plot", str(empty)]) == EXIT_CONFIG
        assert "parse" in capsys.readouterr().err

    def test_short_row_is_refused_by_its_line(self, tmp_path, capsys):
        trace_path = tmp_path / "short.csv"
        main(["run", "--horizon", "3", "--out", str(trace_path)])
        lines = trace_path.read_bytes().split(b"\r\n")
        lines[-2] = lines[-2].rsplit(b",", 1)[0]  # drop the last row's I_Mac
        trace_path.write_bytes(b"\r\n".join(lines))
        number = trace_path.read_bytes().count(b"\n")  # the last row's line is the file's last
        assert main(["plot", str(trace_path), "--outdir", str(tmp_path / "panels")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("cannot parse trace: ")
        assert f"line {number}: 43 cells where the header has 44" in err
        assert not (tmp_path / "panels").exists()

    @pytest.mark.parametrize(
        "edits, column, problem",
        [
            ({"GoodPrice": b"abc"}, "GoodPrice", "cannot parse 'abc'"),
            ({"I_Mac": b"nan"}, "I_Mac", "'nan' is not finite"),
            ({"period": b"-inf"}, "period", "'-inf' is not finite"),
            # the first of two non-finite cells is named
            (
                {"AccComBank": b"Infinity", "I_Mac": b"nan"},
                "AccComBank",
                "'Infinity' is not finite",
            ),
        ],
        ids=["abc", "nan", "-inf", "first-of-two"],
    )
    def test_a_bad_cell_is_refused_by_its_line_and_column(
        self, tmp_path, capsys, edits, column, problem
    ):
        trace_path = tmp_path / "bad.csv"
        main(["run", "--horizon", "3", "--out", str(trace_path)])
        lines = trace_path.read_bytes().split(b"\r\n")
        cells = lines[-2].split(b",")
        for name, cell in edits.items():
            cells[TRACE_COLUMNS.index(name)] = cell
        lines[-2] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        number = trace_path.read_bytes().count(b"\n")  # the last row's line is the file's last
        where = f"trace file {trace_path}, line {number}, column {column}"
        with pytest.raises(ConfigError) as err:
            read_trace_csv(trace_path)
        assert str(err.value) == f"{where}: {problem}"
        assert main(["plot", str(trace_path), "--outdir", str(tmp_path / "panels")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"cannot parse trace: {where}: {problem}\n"
        assert not (tmp_path / "panels").exists()

    def test_finite_cells_whose_sum_overflows_parse(self, tmp_path):
        trace_path = tmp_path / "large.csv"
        main(["run", "--horizon", "3", "--out", str(trace_path)])
        lines = trace_path.read_bytes().split(b"\r\n")
        cells = lines[-2].split(b",")
        for name in ("AccLabLab", "AccResRes"):  # each cell is finite, their sum is inf
            cells[TRACE_COLUMNS.index(name)] = b"1e+308"
        lines[-2] = b",".join(cells)
        trace_path.write_bytes(b"\r\n".join(lines))
        _, rows = read_trace_csv(trace_path)
        assert rows[-1]["AccLabLab"] == rows[-1]["AccResRes"] == 1e308
        assert [row["period"] for row in rows] == [0.0, 1.0, 2.0, 3.0]

    def test_an_unexpected_header_is_refused(self, tmp_path):
        trace_path = tmp_path / "renamed.csv"
        main(["run", "--horizon", "2", "--out", str(trace_path)])
        trace_path.write_bytes(trace_path.read_bytes().replace(b",GoodPrice,", b",Price,"))
        with pytest.raises(ConfigError) as err:
            read_trace_csv(trace_path)
        assert str(err.value) == f"trace file {trace_path} has an unexpected header"

    def test_a_header_without_rows_is_refused(self, tmp_path):
        trace_path = tmp_path / "header_only.csv"
        main(["run", "--horizon", "2", "--out", str(trace_path)])
        header_end = trace_path.read_bytes().index(b"\r\n") + 2
        trace_path.write_bytes(trace_path.read_bytes()[:header_end])
        with pytest.raises(ConfigError) as err:
            read_trace_csv(trace_path)
        assert str(err.value) == f"trace file {trace_path} holds no rows"

    def test_a_blank_line_between_rows_is_skipped(self, tmp_path):
        trace_path = tmp_path / "spaced.csv"
        main(["run", "--horizon", "2", "--out", str(trace_path)])
        expected = read_trace_csv(trace_path)
        lines = trace_path.read_bytes().split(b"\r\n")
        lines.insert(-2, b"")  # between the last two rows
        trace_path.write_bytes(b"\r\n".join(lines))
        assert read_trace_csv(trace_path) == expected

    def test_two_period_trace_gives_three_points(self, tmp_path):
        trace_path = tmp_path / "short.csv"
        main(["run", "--horizon", "2", "--out", str(trace_path)])
        outdir = tmp_path / "short_panels"
        main(["plot", str(trace_path), "--outdir", str(outdir)])
        for panel in ("accounts", "invariances", "price", "investment"):
            lines = (outdir / f"{panel}.dat").read_text().splitlines()
            assert len(lines) == 4  # header + 3 points


class TestTraceSerialization:
    def test_column_order(self):
        assert TRACE_COLUMNS[0] == "period"
        assert TRACE_COLUMNS[1] == "WagesPayment"
        assert TRACE_COLUMNS[18] == "AccLabBank"
        assert TRACE_COLUMNS[-1] == "I_Mac"
        assert len(TRACE_COLUMNS) == 1 + 17 + 20 + 6

    def test_round_trip_is_exact(self, tmp_path):
        trace = run(Parameters(), horizon=12)
        path = tmp_path / "roundtrip.csv"
        write_trace_csv(trace, path)
        _, rows = read_trace_csv(path)
        original = trace_table(trace)
        assert len(rows) == len(original)
        for parsed, source in zip(rows, original):
            for column in TRACE_COLUMNS:
                assert parsed[column] == source[column], column

    def test_the_echo_reruns_the_trace_bit_for_bit(self, tmp_path):
        # the echo is the trace's own settings, horizon and engine included
        trace = run(Parameters(mu=0.3), horizon=12, engine=EngineKind.CATEGORICAL)
        path = tmp_path / "echo.csv"
        write_trace_csv(trace, path)
        meta, _ = read_trace_csv(path)
        assert (meta["horizon"], meta["engine"]) == ("12", "categorical")
        config = load_config(None, [f"{k}={v}" for k, v in meta.items()])
        rerun = run(config.params, engine=config.engine)
        assert rerun.params == trace.params
        assert rerun.cells.tobytes() == trace.cells.tobytes()

    def test_json_has_booking_log(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["run", "--horizon", "2", "--json", str(path)]) == EXIT_OK
        payload = json.loads(path.read_text())
        assert payload["columns"] == list(TRACE_COLUMNS)
        assert len(payload["rows"]) == 3
        assert len(payload["bookings"]) == 3
        first_period = payload["bookings"][0]
        assert sorted(b["id"] for b in first_period) == [1, 2, 3, 4, 5, 6, 7, 8]
        loan = next(b for b in first_period if b["id"] == 5)
        assert any(
            leg["account"] == "AccComLoan" and leg["amount"] == 260.0
            for leg in loan["legs"]
        )

    @pytest.mark.parametrize(
        "engine, horizon", [(EngineKind.RECURSIVE, 12), (EngineKind.CATEGORICAL, 6)]
    )
    def test_streamed_json_parses_to_the_full_payload(self, tmp_path, engine, horizon):
        params = Parameters(horizon=horizon)
        trace = run(params, engine=engine)
        path = tmp_path / "trace.json"
        write_trace_json(trace, path)

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        parsed = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
        reference = {
            "config": {
                line.split(" = ")[0]: line.split(" = ")[1]
                for line in config_echo(params, engine)
            },
            "columns": list(TRACE_COLUMNS),
            "rows": [[record[col] for col in TRACE_COLUMNS] for record in trace_table(trace)],
            "bookings": [
                [
                    {
                        "id": booking.id,
                        "description": booking.description,
                        "legs": [
                            {
                                "account": leg.account,
                                "direction": leg.direction.value,
                                "amount": leg.amount,
                                "unit": leg.unit.value,
                            }
                            for leg in booking.legs
                        ],
                    }
                    for booking in (
                        oracle_booking(booking_id, amounts)
                        for booking_id, amounts in period_amounts(row.metrics, trace.params)
                    )
                ]
                for row in trace.rows
            ],
        }
        assert parsed == reference
        assert len(parsed["rows"]) == horizon + 1

    def test_default_csv_bytes_are_pinned(self, tmp_path):
        # the CSV format is fixed byte for byte: any change to cell formatting,
        # column order or the config echo breaks this digest
        path = tmp_path / "trace.csv"
        assert main(["run", "--horizon", "100", "--out", str(path)]) == EXIT_OK
        assert (
            hashlib.sha256(path.read_bytes()).hexdigest()
            == "e00f94fe0eb12240a4381b62a7298044c3f21f24ace2a12d8cbb60b5d9c6c670"
        )

    def test_default_json_bytes_are_pinned(self, tmp_path):
        # the streamed JSON layout and every number in it are fixed byte for byte
        path = tmp_path / "trace.json"
        assert main(["run", "--horizon", "100", "--json", str(path)]) == EXIT_OK
        assert (
            hashlib.sha256(path.read_bytes()).hexdigest()
            == "3d1538af9f1aa57312c969bf5838b3b0f15e08f4c9394f8af975e3dc618bb266"
        )

    def test_the_oracle_writes_the_pinned_bytes(self):
        trace = run(Parameters(), horizon=100)
        text = oracle_json_text(trace)
        assert (
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            == "3d1538af9f1aa57312c969bf5838b3b0f15e08f4c9394f8af975e3dc618bb266"
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", [1, 7, 100])
    @pytest.mark.parametrize("engine", list(EngineKind))
    def test_json_bytes_match_the_oracle(self, tmp_path, engine, horizon, seed):
        # the benchmark's scenario region
        rng = random.Random(seed)
        tau, omega, mu = rng.randint(7, 15), rng.uniform(0.1, 1.0), rng.uniform(0.1, 0.9)
        trace = run(Parameters(tau=tau, omega=omega, mu=mu, horizon=horizon), engine=engine)
        path = tmp_path / "trace.json"
        write_trace_json(trace, path)
        assert path.read_bytes() == oracle_json_text(trace).encode("utf-8")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("horizon", [1, 7, 100])
    @pytest.mark.parametrize("engine", list(EngineKind))
    def test_csv_bytes_match_the_oracle(self, tmp_path, engine, horizon, seed):
        # the benchmark's scenario region
        rng = random.Random(seed)
        tau, omega, mu = rng.randint(7, 15), rng.uniform(0.1, 1.0), rng.uniform(0.1, 0.9)
        trace = run(Parameters(tau=tau, omega=omega, mu=mu, horizon=horizon), engine=engine)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv_text(trace).encode("utf-8")

    def test_csv_writes_the_edges_of_the_integral_rule(self, tmp_path):
        values = [value for value, _ in EDGE_CELLS]
        trace = hand_built_trace(values)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        text = path.read_bytes().decode("utf-8")
        assert text == oracle_csv_text(trace)
        first_row = text.splitlines()[-2].split(",")
        assert first_row == [EDGE_CELLS[i % len(values)][1] for i in range(len(first_row))]

    def test_csv_matches_the_oracle_on_random_doubles(self, tmp_path):
        # random bit patterns, and integral values of every magnitude up to 1e17
        rng = random.Random(21)
        values = [
            *array("d", rng.randbytes(8 * 4000)),
            *(float(rng.randrange(-(10 ** rng.randint(1, 17)), 10**17)) for _ in range(2000)),
        ]
        trace = hand_built_trace(values, rows=len(values) // len(TRACE_COLUMNS))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == oracle_csv_text(trace).encode("utf-8")

    def test_run_formats_each_cell_once_for_both_files(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "_cell_texts", cli._cell_texts)
        reprs = count_calls(monkeypatch, "repr", repr)  # shadows the builtin inside cli
        csv_path, json_path = tmp_path / "trace.csv", tmp_path / "trace.json"
        argv = ["run", "--horizon", "100", "--out", str(csv_path), "--json", str(json_path)]
        assert main(argv) == EXIT_OK
        assert len(calls) == 1
        # one repr per cell, then one per quotient: 5 of a period's 14 booking amounts
        assert len(reprs) == 101 * len(TRACE_COLUMNS) + 101 * 5
        trace = run(Parameters(), horizon=100)
        assert csv_path.read_bytes() == oracle_csv_text(trace).encode("utf-8")
        assert json_path.read_bytes() == oracle_json_text(trace).encode("utf-8")

    @pytest.mark.parametrize("writer", [write_trace_csv, write_trace_json])
    def test_each_writer_alone_formats_each_cell_once(self, tmp_path, monkeypatch, writer):
        calls = count_calls(monkeypatch, "_cell_texts", cli._cell_texts)
        writer(run(Parameters(), horizon=3), tmp_path / "trace")
        assert len(calls) == 1

    @pytest.mark.parametrize("column", ["DividendDecision", "DividendPayment", "Investment"])
    def test_a_negative_zero_metric_keeps_its_sign_in_row_and_leg(self, tmp_path, column):
        trace = run(Parameters(), horizon=3)
        cells = array("d", trace.cells)
        cells[len(TRACE_COLUMNS) + TRACE_COLUMNS.index(column)] = -0.0  # row 1
        tampered = trace._replace(cells=cells)
        path = tmp_path / "trace.json"
        write_trace_json(tampered, path)
        assert path.read_bytes() == oracle_json_text(tampered).encode("utf-8")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert math.copysign(1.0, payload["rows"][1][TRACE_COLUMNS.index(column)]) == -1.0
        legs = [leg for booking in payload["bookings"][1] for leg in booking["legs"]]
        amounts = [leg["amount"] for leg in legs]
        assert any(amount == 0.0 and math.copysign(1.0, amount) == -1.0 for amount in amounts)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("GoodPrice", 5e-324),  # finite, but a booking's goods amount is spend / price = inf
            ("AccLabBank", math.nan),
        ],
    )
    def test_json_refuses_a_non_finite_value(self, tmp_path, column, value):
        trace = run(Parameters(), horizon=3)
        cells = array("d", trace.cells)
        cells[len(TRACE_COLUMNS) + TRACE_COLUMNS.index(column)] = value  # row 1
        tampered = trace._replace(cells=cells)
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            write_trace_json(tampered, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "row, column, value, place",
        [
            (2, "AccLabBank", math.inf, "period 2, column AccLabBank is inf"),
            # booking 2 spends 0 in period 1, so its goods amount stays 0
            (1, "GoodPrice", 5e-324, "period 1, an amount of booking 4 is inf"),
        ],
    )
    def test_json_names_the_period_and_place_it_refuses(self, tmp_path, row, column, value, place):
        trace = run(Parameters(), horizon=3)
        cells = array("d", trace.cells)
        cells[row * len(TRACE_COLUMNS) + TRACE_COLUMNS.index(column)] = value
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError) as err:
            write_trace_json(trace._replace(cells=cells), path)
        assert str(err.value) == f"Out of range float values are not JSON compliant: {place}"
        assert not path.exists()

    @pytest.mark.parametrize("zero_price, period", [("GoodPrice", 1), ("p_r", 0)])
    def test_json_refuses_a_zero_price_naming_the_period(self, tmp_path, zero_price, period):
        trace = run(Parameters(), horizon=3)
        if zero_price == "p_r":
            tampered = trace._replace(params=trace.params._replace(p_r=0.0))
        else:
            cells = array("d", trace.cells)
            cells[len(TRACE_COLUMNS) + TRACE_COLUMNS.index(zero_price)] = 0.0  # row 1
            tampered = trace._replace(cells=cells)
        write_trace_csv(tampered, tmp_path / "trace.csv")  # the CSV holds no quotient
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError) as err:
            write_trace_json(tampered, path)
        assert str(err.value) == f"period {period}: a booking amount divides by a zero price"
        assert err.value.__cause__ is None and err.value.__suppress_context__
        assert not path.exists()

    def test_config_echo_in_header(self, tmp_path):
        path = tmp_path / "echo.csv"
        main(["run", "--horizon", "1", "--set", "mu=0.25", "--out", str(path)])
        meta, _ = read_trace_csv(path)
        assert meta["mu"] == "0.25"
        assert set(meta) >= {"tau", "lambda", "sig_a", "engine", "horizon"}


class TestCheckLaws:
    def test_exit_zero_and_all_pass(self, capsys):
        assert main(["check-laws"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 7

    def test_the_engine_shaped_fixtures_pass(self, capsys):
        # booking 6's pushout inputs (8 legs onto 6 accounts) and its all-ok gate
        assert main(["check-laws"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "PASS  dividend pushout universal property" in lines
        assert "PASS  dividend gate universal property" in lines

    @pytest.mark.parametrize(
        "error",
        [EngineConsistencyError("period 0: law broken"), ValidationFailure("rejected")],
        ids=["law", "rejection"],
    )
    def test_a_failing_engine_run_reads_as_fail(self, monkeypatch, capsys, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run", failing)
        assert main(["check-laws"]) == EXIT_CONFIG
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "FAIL  engine periods law-check"
        assert [line[:4] for line in lines[:-1]] == ["PASS"] * 8

    def test_programming_error_propagates(self, monkeypatch):
        # only a ledger rejection or a law failure of the engine reads as FAIL
        def broken(*args, **kwargs):
            raise TypeError("broken engine")

        monkeypatch.setattr(cli, "run", broken)
        with pytest.raises(TypeError, match="broken engine"):
            main(["check-laws"])

    def test_nan_parameter_is_named_not_booked(self, capsys):
        assert main(["run", "--set", "com_lab_0=nan", "--horizon", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "com_lab_0 must be non-negative" in err
        assert "rejected" not in err

    def test_nan_markup_is_named_not_booked(self, capsys):
        # was a rejection of booking 2 with real-imbalance:G:nan
        assert main(["run", "--set", "mu=nan", "--horizon", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "mu must be a number" in err
        assert "rejected" not in err

    def test_negative_sigmoid_floor_is_named_not_booked(self, capsys):
        # was a rejection of booking 5 with four negative-amount diagnostics
        assert main(["run", "--set", "sig_a=-500", "--horizon", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sig_a must be non-negative" in err
        assert "booking 5" not in err

    def test_infinite_sigmoid_range_is_named_not_booked(self, capsys):
        # was a rejection of booking 3 with eu-imbalance:nan!=nan
        assert main(["run", "--set", "sig_b=inf", "--horizon", "3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sig_b must be finite" in err
        assert "rejected" not in err
