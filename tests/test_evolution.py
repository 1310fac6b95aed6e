"""Period cycle, engine equivalence, invariances, stability."""

from __future__ import annotations

import gc
import hashlib
import math
import struct
from array import array
from enum import Enum

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from catledger.catcore import (
    CategoryError,
    DanglingEndpointError,
    FiniteCategory,
    FinSetMap,
    Functor,
    NaturalTransformation,
    finset_pushout,
)

from catledger.decisions import METRIC_COLUMNS, Parameters, PeriodMetrics
from catledger.evolution import (
    INVARIANCE_COLUMNS,
    TRACE_COLUMNS,
    EngineConsistencyError,
    EngineKind,
    TraceRow,
    apply_via_pushout,
    booking_to_morphisms,
    build_economy_category,
    build_time_step,
    initial_state,
    period_amounts,
    period_step,
    run,
    stability_report,
    validate_via_pullback,
    verify_time_step,
)
from catledger.ledger import (
    ACCOUNT_INDEX,
    ACCOUNT_NAMES,
    ACCOUNT_SPECS,
    BOOKINGS,
    Invariances,
    Unit,
    ValidationFailure,
    _COMPILED,
    compile_booking_table,
    conservation_status,
    init_ledger,
    invariances,
    leg_statuses,
    post_booking,
    post_compiled,
    validate_booking,
)
from tests.test_ledger import post_by_the_gate_and_fold

ENGINES = [EngineKind.RECURSIVE, EngineKind.CATEGORICAL]
WIDTH = len(TRACE_COLUMNS)


@pytest.fixture(scope="module")
def default_run() -> Trace:
    return run(Parameters(), horizon=100, engine=EngineKind.RECURSIVE)


class TestFirstPeriod:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_metrics_from_initial_state(self, engine):
        params = Parameters()
        _, metrics = period_step(initial_state(params), params, 0, engine=engine)
        bookings = period_amounts(metrics, params)
        assert metrics.investment == pytest.approx(260.0, abs=1e-9)
        assert metrics.good_production == pytest.approx(31.17, abs=0.01)
        assert metrics.good_price == pytest.approx(30.0, abs=1e-9)
        assert metrics.dividend_decision == pytest.approx(7.8, abs=1e-9)
        assert metrics.diff == pytest.approx(52.0, abs=1e-9)
        assert len(bookings) == 8

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ledger_after_first_period(self, engine):
        params = Parameters()
        led, _ = period_step(initial_state(params), params, 0, engine=engine)
        assert led[ACCOUNT_INDEX["AccComLoan"]] == pytest.approx(260.0, abs=1e-9)
        assert led[ACCOUNT_INDEX["AccResBank"]] == pytest.approx(208.0, abs=1e-9)
        assert led[ACCOUNT_INDEX["AccComBank"]] == pytest.approx(52.0, abs=1e-9)
        assert led[ACCOUNT_INDEX["AccComGood"]] == pytest.approx(31.17, abs=0.01)
        assert led[ACCOUNT_INDEX["AccResRes"]] == pytest.approx(91.68, abs=0.01)
        assert led[ACCOUNT_INDEX["AccLabLab"]] == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_second_period(self, engine):
        params = Parameters()
        state, _ = period_step(initial_state(params), params, 0, engine=engine)
        led, metrics = period_step(state, params, 1, engine=engine)
        assert metrics.investment == pytest.approx(289.49, abs=0.01)
        assert metrics.good_price == pytest.approx(141.7, abs=1e-6)
        assert metrics.diff == pytest.approx(138.50, abs=0.01)
        assert led[ACCOUNT_INDEX["AccComBank"]] == pytest.approx(190.50, abs=0.01)
        assert led[ACCOUNT_INDEX["AccResBank"]] == pytest.approx(273.19, abs=0.01)
        assert led[ACCOUNT_INDEX["AccLabBank"]] == pytest.approx(52.0, abs=1e-9)
        assert led[ACCOUNT_INDEX["AccComLoan"]] == pytest.approx(523.49, abs=0.01)


class TestDegenerateStates:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bare_state_aborts_on_undeliverable_resources(self, engine):
        # nothing real anywhere: the resource seller cannot deliver what the
        # investment pays for, so the period must reject, not clamp
        params = Parameters(nu_l=0.0, nu_r=0.0, com_lab_0=0.0, com_res_0=0.0)
        state = initial_state(params)
        before = state[:]
        with pytest.raises(ValidationFailure) as err:
            period_step(state, params, 0, engine=engine)
        assert any("AccResRes" in d for d in err.value.diagnostics)
        assert state == before  # untouched
        assert err.value.period is None  # only `run` records the period

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bare_state_with_full_labor_share_runs(self, engine):
        # with the whole investment going to (deferred) labor there is no
        # resource purchase, and the bare state steps cleanly: only the loan
        # moves value, everything else is a zero flow
        params = Parameters(lam=1.0, nu_l=0.0, nu_r=0.0, com_lab_0=0.0, com_res_0=0.0)
        state, metrics = period_step(initial_state(params), params, 0, engine=engine)
        assert metrics.demand == 0.0
        assert metrics.good_production == 1.0
        assert metrics.wages_payment == 0.0
        assert metrics.repays_payment == 0.0
        assert metrics.dividend_payment == 0.0
        assert metrics.investment_res == 0.0
        assert metrics.investment == pytest.approx(260.0)
        assert state[ACCOUNT_INDEX["AccComBank"]] == pytest.approx(260.0)
        assert state[ACCOUNT_INDEX["AccResBank"]] == 0.0
        assert invariant_tuple(state) == (0.0,) * 6

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_records_the_rejecting_period(self, engine):
        # tau=1: the whole first loan falls due in period 1, which the
        # company's cash cannot cover
        with pytest.raises(ValidationFailure) as err:
            run(Parameters(tau=1, horizon=5), engine=engine)
        assert err.value.period == 1
        assert str(err.value) == "booking 7 (Com repays Loan to Bank) rejected"


def reachable(root) -> list:
    """Every object reachable from `root` through gc referents, types and enum members aside."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, Enum)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def invariant_tuple(state):
    return invariances(state[:20]).as_tuple()


class TestTraceShape:
    def test_horizon_one_gives_two_rows(self):
        for engine in ENGINES:
            trace = run(Parameters(), horizon=1, engine=engine)
            assert len(trace.rows) == 2

    def test_default_horizon(self, default_run):
        assert len(default_run.rows) == 101

    @pytest.mark.parametrize("horizon", [0, -1, 2.5, "10", True])
    def test_horizon_must_be_positive(self, horizon):
        with pytest.raises(ValueError) as err:
            run(Parameters(), horizon=horizon)
        assert str(err.value) == "horizon must be an integer >= 1"

    def test_the_horizon_argument_replaces_the_parameters_horizon(self):
        # horizon=0 alone is refused, but this run is of 5 periods
        for engine in ENGINES:
            trace = run(Parameters(horizon=0), horizon=5, engine=engine)
            assert len(trace.rows) == 6
            assert trace.params.horizon == 5

    def test_the_params_that_run_are_validated_once(self, monkeypatch):
        calls: list[Parameters] = []
        validate = Parameters.validate
        monkeypatch.setattr(Parameters, "validate", lambda p: calls.append(p) or validate(p))
        trace = run(Parameters(horizon=0), horizon=3)
        assert calls == [trace.params]

    @pytest.mark.parametrize("name", ["tau", "horizon"])
    def test_a_bool_count_in_the_parameters_is_refused(self, name):
        # True is an int to isinstance, and would run one period
        with pytest.raises(ValueError) as err:
            run(Parameters(**{name: True}))
        assert str(err.value) == f"{name} must be an integer >= 1"

    def test_first_row_is_the_initial_snapshot(self, default_run):
        first = default_run.rows[0]
        assert first.accounts["AccComLab"] == 110.0
        assert first.accounts["AccComRes"] == 20.0
        assert first.metrics.investment == pytest.approx(260.0)


class TestEngineArgument:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_value_string_runs_that_engine(self, engine):
        by_value = run(Parameters(horizon=3), engine=engine.value)
        by_kind = run(Parameters(horizon=3), engine=engine)
        assert by_value.engine is engine
        assert array("d", by_value.flat_values()) == array("d", by_kind.flat_values())

    def test_unknown_engine_is_named(self):
        with pytest.raises(ValueError, match="'fast'.*'recursive' or 'categorical'"):
            run(Parameters(horizon=3), engine="fast")
        with pytest.raises(ValueError, match="'fast'.*'recursive' or 'categorical'"):
            period_step(initial_state(Parameters()), Parameters(), 0, engine="fast")


class TestFiniteTrace:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("field, account", [("nu_l", "AccLabLab"), ("nu_r", "AccResRes")])
    def test_a_non_finite_write_is_refused_by_its_period_and_account(
        self, engine, horizon, field, account
    ):
        # period 1 adds a second 1e308 endowment: the write makes the stock
        # inf; at horizon 1 that is the last period, whose close is no row
        with pytest.raises(ValidationFailure) as err:
            run(Parameters(**{field: 1e308}), horizon=horizon, engine=engine)
        assert str(err.value) == f"balance of {account!r} would become non-finite (inf)"
        assert err.value.period == 1
        assert err.value.diagnostics == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_finite_cells_whose_sum_overflows_pass(self, engine):
        trace = run(Parameters(com_lab_0=1e308, com_res_0=1e308), horizon=1, engine=engine)
        row = dict(zip(TRACE_COLUMNS, trace.cells[:WIDTH]))
        assert row["AccComLab"] == row["AccComRes"] == 1e308
        assert sum(trace.cells) == math.inf
        assert all(map(math.isfinite, trace.cells))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_posting_that_overflows_a_balance_is_refused_at_its_booking(self, engine):
        # every loan amount is finite, but their running sum on AccComLoan is
        # not: the loan's legs that would make it inf name the booking
        params = Parameters(tau=20, sig_a=2e307, sig_b=1.0, lam=0.0, p_r=1e300, nu_r=1e12)
        with pytest.raises(ValidationFailure) as err:
            run(params, horizon=20, engine=engine)
        assert str(err.value) == "booking 5 (Com gets Loan from Bank) rejected"
        assert err.value.period == 11
        assert err.value.diagnostics == [
            "non-finite-balance:AccComLoan", "non-finite-balance:AccBankComLoan"
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_refused_run_steps_no_period_past_the_refusal(self, monkeypatch, engine):
        from catledger import evolution

        steps = []
        real_step = evolution.period_step

        def counting(state, params, period, engine):
            steps.append(period)
            return real_step(state, params, period, engine)

        monkeypatch.setattr(evolution, "period_step", counting)
        with pytest.raises(ValidationFailure) as err:
            run(Parameters(nu_l=1e308), horizon=50, engine=engine)
        assert err.value.period == 1
        assert steps == [0, 1]


# Valid parameters, each field its default or a draw over its whole valid
# range, whose ends (0, the least subnormal, the largest double) are drawn often.
_FINITE = {"allow_nan": False, "allow_infinity": False}
_FRACTION = st.floats(0.0, 1.0)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, **_FINITE)
_NON_NEGATIVE = st.floats(min_value=0.0, **_FINITE)
_DRAWS = {
    "tau": st.integers(1, 30),
    **dict.fromkeys(("lam", "rho_r", "rho_l", "rho_c", "delta_c", "delta_b"), _FRACTION),
    **dict.fromkeys(("gamma", "beta_l", "beta_r", "beta_c"), _FRACTION),
    **dict.fromkeys(("sig_b", "sig_c", "p_r", "p_l", "p_0", "alpha"), _POSITIVE),
    **dict.fromkeys(("sig_a", "nu_l", "nu_r", "com_lab_0", "com_res_0"), _NON_NEGATIVE),
    **dict.fromkeys(("mu", "omega"), st.floats(**_FINITE)),
    "horizon": st.integers(1, 50),
}
VALID_PARAMETERS = (
    st.fixed_dictionaries(
        {name: st.one_of(st.just(Parameters._field_defaults[name]), draw)
         for name, draw in _DRAWS.items()}
    )
    .map(lambda fields: Parameters(**fields))
    .filter(lambda p: math.isfinite(p.sig_a + p.sig_b))
)


def run_outcome(params: Parameters, engine: EngineKind) -> tuple:
    """("ok", trace) for a run that completes, else the refusal's text, diagnostics and period."""
    try:
        return "ok", run(params, engine=engine)
    except ValidationFailure as exc:
        return "refused", str(exc), exc.diagnostics, exc.period


def names_its_cause(message: str, diagnostics: list[str]) -> bool:
    """Whether a refusal names an account, a metric column, the good price or a failed check."""
    return (
        any(message.startswith(f"balance of {name!r} would become ") for name in ACCOUNT_NAMES)
        or any(message == f"column {column} is not finite" for column in METRIC_COLUMNS)
        or message.startswith("good price is zero: ")
        or (message.startswith("booking ") and len(diagnostics) > 0)
    )


class TestWholeRun:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(VALID_PARAMETERS)
    @example(Parameters(horizon=50)).via("the defaults complete")
    @example(Parameters(tau=1, horizon=50)).via("the first loan falls due whole: refused")
    @example(
        Parameters(sig_a=1e308, sig_b=7e307, lam=1.0, tau=4, p_l=1e300, nu_l=1e12, horizon=10)
    ).via("the wage dues overflow math.fsum")
    def test_a_run_completes_clean_or_is_refused_where_it_fails(self, params):
        params.validate()
        outcome = run_outcome(params, EngineKind.RECURSIVE)
        other = run_outcome(params, EngineKind.CATEGORICAL)
        if outcome[0] == "refused":
            assert other == outcome
            _, message, diagnostics, period = outcome
            assert period is not None and 0 <= period <= params.horizon
            assert names_its_cause(message, diagnostics), outcome
            return
        trace = outcome[1]
        assert other[0] == "ok" and other[1].cells.tobytes() == trace.cells.tobytes()
        assert all(map(math.isfinite, trace.cells))
        for column in INVARIANCE_COLUMNS:
            assert all(value == 0.0 for value in trace.column(column))


class TestDeterminismAndEquivalence:
    def test_bit_identical_reruns(self):
        a = run(Parameters(), horizon=40)
        b = run(Parameters(), horizon=40)
        assert list(a.flat_values()) == list(b.flat_values())

    def test_engines_agree_over_100_periods(self, default_run):
        categorical = run(Parameters(), horizon=100, engine=EngineKind.CATEGORICAL)
        divergence = max(
            abs(x - y)
            for x, y in zip(default_run.flat_values(), categorical.flat_values())
        )
        assert divergence <= 1e-12

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mu": 0.3, "rho_r": 0.6, "tau": 5, "omega": 0.9},
            {"gamma": 0.5, "alpha": 0.6, "p_l": 15.0, "p_r": 20.0},
            {"delta_c": 0.05, "delta_b": 0.2, "sig_c": 120.0},
            {"nu_l": 60.0, "nu_r": 140.0, "beta_r": 0.9},
        ],
    )
    def test_engines_agree_on_perturbed_parameters(self, overrides):
        params = Parameters(horizon=30, **overrides)
        a = run(params, engine=EngineKind.RECURSIVE)
        b = run(params, engine=EngineKind.CATEGORICAL)
        assert list(a.flat_values()) == list(b.flat_values())

    def test_long_run_regression_pin(self):
        # frozen values of the default 100-period run; a drift here means the
        # period cycle changed behavior, not just an implementation detail
        trace = run(Parameters(), horizon=100)
        last = trace.rows[-1]
        expected = {
            "AccComBank": 228.71531599858588,
            "AccComLoan": 875.4880931490998,
            "AccLabLab": 7412.898884602039,
            "AccResRes": 9475.260966862823,
        }
        for name, value in expected.items():
            assert last.accounts[name] == pytest.approx(value, rel=1e-9)
        assert last.metrics.good_price == pytest.approx(85.5210371205483, rel=1e-9)
        assert last.metrics.investment == pytest.approx(159.17876831716092, rel=1e-9)

    def test_thousand_period_trace_is_bit_identical(self):
        # sha256 of every cell of the default H=1000 recursive trace, as
        # doubles: any change to the cycle's float operations moves it
        cells = array("d", run(Parameters(horizon=1000)).flat_values())
        assert (
            hashlib.sha256(cells.tobytes()).hexdigest()
            == "07c2c4c705568f89ad9d44e44cc10089396cb6f97dbf6dc59310c54cf1342859"
        )

    def test_thousand_period_categorical_trace_hashes_to_the_recursive_pin(self):
        # the categorical engine on its own, with no recursive run to compare against
        trace = run(Parameters(horizon=1000), engine=EngineKind.CATEGORICAL)
        assert trace.engine is EngineKind.CATEGORICAL
        assert (
            hashlib.sha256(trace.cells.tobytes()).hexdigest()
            == "07c2c4c705568f89ad9d44e44cc10089396cb6f97dbf6dc59310c54cf1342859"
        )


class TestInvariancesAndMirrors:
    def test_all_zero_each_period(self, default_run):
        for row in default_run.rows:
            assert max(map(abs, row.invariances)) <= 1e-9

    def test_mirror_accounts_equal_each_period(self, default_run):
        mirrors = [
            ("AccLabBank", "AccBankLabBank"),
            ("AccResBank", "AccBankResBank"),
            ("AccCapBank", "AccBankCapBank"),
            ("AccComBank", "AccBankComBank"),
            ("AccComLoan", "AccBankComLoan"),
        ]
        for row in default_run.rows:
            for agent_side, bank_side in mirrors:
                assert row.accounts[agent_side] == row.accounts[bank_side]

    def test_the_cycle_s_own_writes_touch_no_bank_side_or_mirror_account(self, monkeypatch):
        # only bookings write the Bank's five accounts and the mirror pairs:
        # an agent-side account mirrors the bank-side account whose legs it
        # shares, booking by booking, as (direction, slot)
        from catledger import evolution
        from catledger.ledger import ACCOUNT_SPECS, Agent

        def legs_of(account):
            return [
                [(way, slot) for name, way, slot in legs if name == account]
                for _, legs, _ in BOOKINGS.values()
            ]

        bank_side = {spec.name for spec in ACCOUNT_SPECS if spec.agent is Agent.BANK}
        agent_side = [spec.name for spec in ACCOUNT_SPECS if spec.agent is not Agent.BANK]
        mirrors = {
            name: [other for other in agent_side if legs_of(other) == legs_of(name)]
            for name in bank_side
        }
        assert all(len(mirror) == 1 for mirror in mirrors.values())
        mirror_accounts = bank_side.union(*mirrors.values())
        assert len(bank_side) == 5 and len(mirror_accounts) == 10

        class Writes(list):
            def __setitem__(self, i, value):
                self.written.add(i)
                super().__setitem__(i, value)

        params = Parameters()
        state = initial_state(params)
        values = Writes(state[: len(ACCOUNT_NAMES)])
        values.written = set()
        # no booking posts: only the cycle writes
        monkeypatch.setattr(evolution, "post_booking", lambda values, booking_id, amounts: None)
        evolution._period_cycle(state, values, params, 0, None)
        cycle = (*evolution._CARRIED, evolution._COM_LAB, evolution._COM_RES, evolution._COM_GOOD)
        assert values.written == set(cycle)
        written = {ACCOUNT_NAMES[i] for i in cycle}
        assert not written & bank_side and not written & mirror_accounts

    def test_balances_stay_non_negative(self, default_run):
        for row in default_run.rows:
            for name in ACCOUNT_NAMES:
                assert row.accounts[name] >= 0.0


class TestMetricInvariants:
    def test_ranges_over_default_run(self, default_run):
        params = Parameters()
        for row in default_run.rows:
            metrics = row.metrics
            assert metrics.good_production >= 1.0
            assert metrics.good_price > 0.0
            assert params.sig_a < metrics.investment < params.sig_a + params.sig_b


class TestCategoricalInternals:
    def test_economy_category_has_all_accounts(self):
        cat = build_economy_category()
        assert len(cat.names) == 20
        assert cat.names == list(ACCOUNT_NAMES)
        assert init_ledger()[ACCOUNT_INDEX["AccComLab"]] == 110.0

    def test_the_flows_shape_checks_the_account_names_once_and_no_period_again(self, monkeypatch):
        # `build_economy_category` checks the names through `from_columns`;
        # a run builds the flows shape once, then its periods reuse it
        from catledger import evolution

        checked = FiniteCategory.from_columns("economy", ACCOUNT_NAMES, (), (), (), ())
        first, second = build_economy_category(), build_economy_category()
        for column in ("names", "src", "dst", "weight", "label"):
            assert getattr(first, column) == getattr(checked, column)
            assert getattr(first, column) is not getattr(second, column)

        real_from_columns, names_checked = FiniteCategory.from_columns, []

        def record(name, names, *columns):
            names_checked.append((name, tuple(names)))
            return real_from_columns(name, names, *columns)

        def refuse(*args):
            raise AssertionError("a period checked the account names again")

        evolution._flows_shape.cache_clear()
        monkeypatch.setattr(FiniteCategory, "from_columns", record)
        assert len(run(Parameters(), horizon=3, engine=EngineKind.CATEGORICAL).rows) == 4
        assert names_checked == [("economy", ACCOUNT_NAMES)]
        monkeypatch.setattr(FiniteCategory, "from_columns", refuse)
        assert len(run(Parameters(), horizon=3, engine=EngineKind.CATEGORICAL).rows) == 4

    def test_booking_to_morphisms_refuses_a_category_without_the_accounts(self):
        cat = FiniteCategory.from_columns("tiny", ("A", "B"), (), (), (), ())
        with pytest.raises(DanglingEndpointError) as err:
            booking_to_morphisms(cat, 1, (3.0, 4.0))
        assert str(err.value) == "morphism endpoint 10 does not exist in 'tiny'"
        assert (cat.src, cat.dst, cat.weight, cat.label) == ([], [], [], [])

    def test_pullback_gate_accepts_funded_loan(self):
        balances = init_ledger()
        ok, diagnostics = validate_via_pullback(balances, 5, (260.0,))
        assert ok and diagnostics == []

    def test_pullback_gate_rejects_overdraft(self):
        balances = init_ledger()
        ok, diagnostics = validate_via_pullback(balances, 7, (1.0,))
        assert not ok
        assert any("insufficient-balance" in d for d in diagnostics)

    def test_pushout_classes_one_per_touched_account(self):
        from catledger.evolution import _FIXED

        to_account, to_slot, *_ = _FIXED[5]
        classes, _, _ = finset_pushout(to_account, to_slot)
        assert len(classes) == 4  # the loan touches four accounts
        ledger = init_ledger()
        apply_via_pushout(ledger, 5, (100.0,))
        assert ledger[ACCOUNT_INDEX["AccComBank"]] == 100.0

    def test_first_period_net_flow_components(self):
        # the evolution morphism of each account carries its realised net flow
        params = Parameters()
        trace = run(params, horizon=1, engine=EngineKind.CATEGORICAL)
        old, new = list(trace.rows[0].accounts.values()), list(trace.rows[1].accounts.values())
        cat = build_economy_category()
        step, _, _, eta = build_time_step(cat, old, new)
        res_edge = eta.components[ACCOUNT_INDEX["AccResBank"]]  # object i + 1 at i
        assert step.weight[res_edge - 1] == pytest.approx(208.0)
        lab_edge = eta.components[ACCOUNT_INDEX["AccLabBank"]]
        assert step.weight[lab_edge - 1] == 0.0
        verify_time_step(cat, eta, old, new)

    def test_identity_period_passes_the_laws(self):
        cat = build_economy_category()
        balances = init_ledger()
        step, _, _, eta = build_time_step(cat, balances, list(balances))
        verify_time_step(cat, eta, balances, list(balances))
        assert all(step.weight[component - 1] == 0.0 for component in eta.components)

    def test_corrupted_component_weight_is_caught(self):
        ledger = init_ledger()
        cat = build_economy_category()
        old = ledger[:]
        apply_via_pushout(ledger, 5, (100.0,))
        new = ledger[:]
        step, f_t, f_t1, eta = build_time_step(cat, old, new)
        verify_time_step(cat, eta, old, new)  # sane construction passes
        victim = eta.components[ACCOUNT_INDEX["AccComBank"]]
        step.weight[victim - 1] += 1.0  # the weight column, indexed by id - 1
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(cat, eta, old, new)
        assert any("AccComBank" in f for f in err.value.failures)
        step.weight[victim - 1] = float("nan")
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(cat, eta, old, new)
        assert any("AccComBank" in f for f in err.value.failures)

    def test_nan_net_flow_fails_the_laws(self):
        # an account at inf in both snapshots has the net flow inf - inf = nan
        cat = build_economy_category()
        old = init_ledger()
        old[ACCOUNT_NAMES.index("AccComGood")] = float("inf")
        new = list(old)
        _, _, _, eta = build_time_step(cat, old, new)
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(cat, eta, old, new)
        assert err.value.failures == ["component weight for AccComGood: nan != net flow nan"]

    def test_mistyped_component_is_caught(self):
        cat = build_economy_category()
        old = init_ledger()
        new = list(old)
        _, _, _, eta = build_time_step(cat, old, new)
        a, b = ACCOUNT_INDEX["AccLabBank"], ACCOUNT_INDEX["AccResBank"]
        eta.components[a], eta.components[b] = eta.components[b], eta.components[a]
        with pytest.raises(EngineConsistencyError):
            verify_time_step(cat, eta, old, new)


# the weight rule's grid: each weight with an opening and a closing balance
# whose difference it is; -0.0 equals 0.0, one ulp apart does not match, and
# a NaN matches no weight, not even a NaN
NET_FLOWS = [
    (0.0, 0.0, 0.0),
    (-0.0, 0.0, -0.0),
    (1.0, 0.0, 1.0),
    (math.nextafter(1.0, math.inf), 0.0, math.nextafter(1.0, math.inf)),
    (math.nan, math.inf, math.inf),
    (math.inf, 0.0, math.inf),
]


@pytest.mark.parametrize("w", [weight for weight, _, _ in NET_FLOWS])
@pytest.mark.parametrize("e, opening, closing", NET_FLOWS)
def test_the_weight_rule_accepts_exactly_equal(w, e, opening, closing):
    assert repr(closing - opening) == repr(e)
    flows = build_economy_category()
    flows.extend((1,), (2,), (e,), ("flow",))
    old = [opening, *init_ledger()[1:]]  # AccLabBank is account 1
    new = [closing, *old[1:]]
    step, f_t, f_t1, eta = build_time_step(flows, old, new)
    if math.isnan(e):
        with pytest.raises(EngineConsistencyError):
            verify_time_step(flows, eta, old, new)
    else:
        verify_time_step(flows, eta, old, new)
    images = (f_t.morphism_images[0], f_t1.morphism_images[0])
    component = eta.components[ACCOUNT_INDEX["AccLabBank"]]
    # weight the flow's two images w, then only the account's component
    for weighted, named in ((images, "F_t: morphism 1 "), ((component,), "component weight")):
        for j in (*images, component):
            step.weight[j - 1] = w if j in weighted else e
        if w == e:
            verify_time_step(flows, eta, old, new)
        else:
            with pytest.raises(EngineConsistencyError) as err:
                verify_time_step(flows, eta, old, new)
            assert any(f.startswith(named) for f in err.value.failures)


# each function that takes a booking id, called on a ledger
BY_BOOKING_ID = {
    "post_booking": lambda ledger, i: post_booking(ledger, i, (1.0,)),
    "validate_booking": lambda ledger, i: validate_booking(ledger, i, (1.0,)),
    "leg_statuses": lambda ledger, i: leg_statuses(ledger, i, (1.0,)),
    "conservation_status": lambda _, i: conservation_status(i, (1.0,)),
    "post_compiled": lambda ledger, i: post_compiled(ledger, i, (1.0,)),
    "validate_via_pullback": lambda ledger, i: validate_via_pullback(ledger, i, (1.0,)),
    "booking_to_morphisms": lambda _, i: booking_to_morphisms(build_economy_category(), i, (1.0,)),
    "apply_via_pushout": lambda ledger, i: apply_via_pushout(ledger, i, (1.0,)),
}


@pytest.mark.parametrize("booking_id", [0, 9, 99])
@pytest.mark.parametrize("function", sorted(BY_BOOKING_ID))
def test_an_unknown_booking_is_named(function, booking_id):
    # a ValueError that names the id, not a bare KeyError
    ledger = init_ledger()
    before = list(ledger)
    with pytest.raises(ValueError) as err:
        BY_BOOKING_ID[function](ledger, booking_id)
    assert str(err.value) == f"unknown booking {booking_id}"
    assert ledger == before


def test_a_ledger_is_one_list_of_20_floats_everywhere():
    import catledger
    from catledger import ledger as ledger_module
    from catledger.evolution import _close_time_step

    # the package exports no ledger type: only these names come from the ledger module
    assert {name for name in catledger.__all__ if hasattr(ledger_module, name)} == {
        "ACCOUNT_NAMES", "AccountKind", "Agent", "Direction", "Invariances", "Unit",
        "ValidationFailure", "init_ledger", "invariances", "post_booking", "validate_booking",
    }
    ledger = init_ledger()
    assert type(ledger) is list and len(ledger) == len(ACCOUNT_NAMES)
    assert invariances(ledger).as_tuple() == (0.0,) * 6
    assert validate_booking(ledger, 5, (260.0,)) == (True, [])
    assert leg_statuses(ledger, 5, (260.0,)) == ["ok"] * 4
    assert validate_via_pullback(ledger, 5, (260.0,)) == (True, [])
    for post in (post_booking, post_by_the_gate_and_fold):
        closing = post(ledger[:], 5, (260.0,))
        assert type(closing) is list and closing is not ledger
        assert closing[ACCOUNT_INDEX["AccComBank"]] == 260.0
        _close_time_step(ledger, closing, ((5, (260.0,)),))  # the categorical laws hold
    assert ledger == init_ledger()  # each posted onto its own copy
    assert post_booking(ledger, 5, (260.0,)) is ledger
    assert ledger[ACCOUNT_INDEX["AccComBank"]] == 260.0
    for engine in ENGINES:
        params = Parameters()
        state = initial_state(params)
        opening = state[:]
        closing = period_step(state, params, 0, engine=engine)[0][: len(ACCOUNT_NAMES)]
        assert type(closing) is list and all(type(v) is float for v in closing)
        assert state == opening


class TestStability:
    def test_default_run_bounded_with_small_drift(self, default_run):
        report = stability_report(default_run)
        assert report.bounded
        assert report.drift["GoodPrice"] < 0.01

    def test_needs_twenty_rows(self):
        short = run(Parameters(), horizon=5)
        with pytest.raises(ValueError):
            stability_report(short)

    def test_constant_trace_has_zero_drift(self, default_run):
        frozen_row = default_run.cells[-WIDTH:]
        cells = array("d")
        for i in range(25):
            cells.append(i)
            cells.extend(frozen_row[1:])
        constant = default_run._replace(cells=cells)
        report = stability_report(constant)
        assert max(report.drift.values()) == 0.0

    def test_doubling_series_is_unbounded(self, default_run):
        rows = len(default_run.cells) // WIDTH
        cells = array("d")
        for i in range(25):
            start = min(i, rows - 1) * WIDTH
            row = default_run.cells[start : start + WIDTH]
            row[0] = i
            row[TRACE_COLUMNS.index("GoodPrice")] = float(2.0 ** (i + 10))
            row[TRACE_COLUMNS.index("AccComBank")] = float(2.0 ** (i + 40))
            row[-len(Invariances._fields) :] = array("d", Invariances(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
            cells.extend(row)
        diverging = default_run._replace(cells=cells)
        report = stability_report(diverging)
        assert not report.bounded
        assert report.drift["GoodPrice"] > 0.1


class TestBookingLog:
    def test_eight_bookings_every_period(self, default_run):
        for row in default_run.rows:
            posted = period_amounts(row.metrics, default_run.params)
            assert sorted(booking_id for booking_id, _ in posted) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_a_run_keeps_no_booking_alive(self):
        trace = run(Parameters(), horizon=100)
        kinds = {type(obj) for obj in reachable(trace)}
        assert array in kinds
        assert not kinds & {TraceRow, PeriodMetrics, Invariances}
        assert len(period_amounts(trace.rows[100].metrics, trace.params)) == 8

    def test_a_trace_holds_no_object_per_period(self):
        # each trace's params hold its horizon; 10 would be the same int object as tau
        short, long = (run(Parameters(), horizon=horizon) for horizon in (20, 100))
        assert len(reachable(short)) == len(reachable(long))

    def test_input_state_is_never_mutated(self):
        params = Parameters()
        state = initial_state(params)
        before = state[:]
        period_step(state, params, 0)
        assert state == before
        assert state[20:30] == [0.0] * 10  # the wage dues

    @pytest.mark.parametrize("engine", ENGINES)
    def test_input_balances_are_bit_identical_and_unshared(self, engine):
        params = Parameters()
        state = initial_state(params)
        for period in range(3):
            state, _ = period_step(state, params, period, engine=engine)
        before = array("d", state).tobytes()
        new_state, _ = period_step(state, params, 3, engine=engine)
        assert array("d", state).tobytes() == before
        assert new_state is not state
        new_state[:] = [1.0] * len(new_state)
        assert array("d", state).tobytes() == before


def step_by_hand(params: Parameters, engine: EngineKind) -> tuple:
    """A run's cells, or its rejection, from `period_step` called period by period."""
    state, cells, tau = initial_state(params), array("d"), params.tau
    for period in range(params.horizon + 1):
        opening = array("d", state).tobytes()
        try:
            new_state, metrics = period_step(state, params, period, engine=engine)
        except ValidationFailure as exc:
            return "rejected", str(exc), exc.diagnostics, period
        assert array("d", state).tobytes() == opening  # the input vector is untouched
        assert type(new_state) is list and new_state is not state
        assert len(new_state) == 21 + 2 * tau
        cells.extend((period, *metrics, *state[:20], *invariances(state[:20])))
        state = new_state
    return "ok", cells.tobytes()


class TestStateVector:
    """`period_step` maps one list of 21 + 2 tau doubles to the next."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("tau", [1, 2, 5, 17])
    def test_stepping_by_hand_reproduces_run(self, engine, tau):
        params = Parameters(tau=tau, horizon=60)
        try:
            expected = "ok", run(params, engine=engine).cells.tobytes()
        except ValidationFailure as exc:
            expected = "rejected", str(exc), exc.diagnostics, exc.period
        assert step_by_hand(params, engine) == expected
        if tau == 1:  # the first loan falls due whole in period 1
            assert expected[0] == "rejected" and expected[3] == 1
        if tau in (5, 17):
            assert expected[0] == "ok"

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("late", [False, True])
    def test_a_negative_balance_write_is_refused_by_name(self, monkeypatch, engine, late):
        # valid parameters cannot reach this refusal: production is patched to
        # return a negative output, in period 0 or from period 2 on
        from catledger import evolution

        real, calls = evolution.production, []

        def production(*args):
            calls.append(args)
            return real(*args) if late and len(calls) <= 2 else -1e6

        monkeypatch.setattr(evolution, "production", production)
        with pytest.raises(ValidationFailure) as err:
            run(Parameters(horizon=5), engine=engine)
        value = "-999969.0059796221" if late else "-1000000.0"
        assert str(err.value) == f"balance of 'AccComGood' would become negative ({value})"
        assert err.value.period == (2 if late else 0)
        assert err.value.diagnostics == []

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "account, stock, written", [("AccCapGood", -1.0, "-0.6"), ("AccResRes", -200.5, "-100.5")]
    )
    def test_a_negative_carried_balance_is_refused(self, engine, account, stock, written):
        # a state handed in with a negative stock: the decay and endowment
        # writes refuse it by name, as they would refuse any negative balance
        params = Parameters()
        state = initial_state(params)
        state[ACCOUNT_INDEX[account]] = stock
        with pytest.raises(ValidationFailure) as err:
            period_step(state, params, 0, engine=engine)
        assert str(err.value) == f"balance of {account!r} would become negative ({written})"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_nan_balance_write_is_refused_by_name(self, engine):
        params = Parameters()
        state = initial_state(params)
        state[ACCOUNT_INDEX["AccLabLab"]] = math.nan
        with pytest.raises(ValidationFailure) as err:
            period_step(state, params, 0, engine=engine)
        assert str(err.value) == "balance of 'AccLabLab' would become non-finite (nan)"

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_balance_no_write_touches_is_refused_before_the_laws(
        self, engine, value
    ):
        # the dividend's legs meet the balance before the categorical law
        # checks, so both engines refuse its booking, not a NaN net flow
        params = Parameters()
        state = initial_state(params)
        state[ACCOUNT_INDEX["AccCapDiv"]] = value
        with pytest.raises(ValidationFailure) as err:
            period_step(state, params, 0, engine=engine)
        assert str(err.value) == "booking 6 (Com pays Div to Cap) rejected"
        assert err.value.diagnostics == ["non-finite-balance:AccCapDiv"] * 2

    def test_every_account_is_a_leg_of_a_booking_every_period_posts(self):
        # what lets a period close without scanning its balances: a leg
        # posts only into [0, inf), and every balance is some leg's
        accounts = {account for _, legs, _ in BOOKINGS.values() for account, _, _ in legs}
        assert accounts == set(ACCOUNT_NAMES)
        metrics = PeriodMetrics(*(1.0,) * len(METRIC_COLUMNS))
        posted = [booking_id for booking_id, _ in period_amounts(metrics, Parameters())]
        assert sorted(posted) == sorted(BOOKINGS)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("account", ACCOUNT_NAMES)
    def test_any_non_finite_opening_balance_is_refused_before_the_laws(
        self, monkeypatch, engine, value, account
    ):
        counts = counting_calls(monkeypatch, ("check_functor_laws", "check_naturality"))
        params = Parameters()
        state = initial_state(params)
        state[ACCOUNT_INDEX[account]] = value
        with pytest.raises(ValidationFailure):
            period_step(state, params, 0, engine=engine)
        assert counts == {"check_functor_laws": 0, "check_naturality": 0}

    def test_a_state_of_another_length_is_refused(self):
        params = Parameters(tau=3)
        for state in (initial_state(Parameters(tau=4)), initial_state(params)[:-1]):
            with pytest.raises(ValueError, match=r"^a state for tau=3 holds 27 doubles, got "):
                period_step(state, params, 0)


def counting_scans(monkeypatch) -> list[int]:
    """The booking id of every scan the ledger runs from now on."""
    from catledger import ledger

    calls = []
    real_scan = ledger._scan_legs

    def counting(values, booking_id, amounts):
        calls.append(booking_id)
        return real_scan(values, booking_id, amounts)

    monkeypatch.setattr(ledger, "_scan_legs", counting)
    return calls


class TestCompiledPostings:
    def test_default_run_posts_every_booking_without_the_scan(self, monkeypatch):
        calls = counting_scans(monkeypatch)
        trace = run(Parameters(), horizon=100, engine=EngineKind.RECURSIVE)
        assert len(trace.rows) == 101
        assert calls == []
        # the counter does see the scan: a rejection goes through it once
        with pytest.raises(ValidationFailure) as err:
            run(Parameters(tau=1, horizon=5), engine=EngineKind.RECURSIVE)
        assert calls == [7]
        assert err.value.diagnostics == [
            "insufficient-balance:AccComBank",
            "insufficient-balance:AccBankComBank",
        ]

    def test_a_categorical_run_scans_only_the_rejected_booking(self, monkeypatch):
        calls = counting_scans(monkeypatch)
        trace = run(Parameters(), horizon=30, engine=EngineKind.CATEGORICAL)
        assert len(trace.column("period")) == 31
        assert calls == []
        # post_booking's fallback scans the rejected repayment once, for its
        # leg statuses and its conservation verdict
        with pytest.raises(ValidationFailure) as err:
            run(Parameters(tau=1, horizon=5), engine=EngineKind.CATEGORICAL)
        assert calls == [7]
        assert err.value.diagnostics == [
            "insufficient-balance:AccComBank",
            "insufficient-balance:AccBankComBank",
        ]


def real_period(monkeypatch, params: Parameters, periods: int = 3):
    """The flows category, transformation and balances of a categorical period."""
    from catledger import evolution

    captured = {}
    original = evolution.build_time_step

    def record(flows, old, new):
        built = original(flows, old, new)
        captured.update(flows=flows, eta=built[3], old=old, new=new)
        return built

    monkeypatch.setattr(evolution, "build_time_step", record)
    state = initial_state(params)
    for period in range(periods):
        state, _ = period_step(state, params, period, engine=EngineKind.CATEGORICAL)
    return captured["flows"], captured["eta"], captured["old"], captured["new"]


def counting_calls(monkeypatch, names) -> dict[str, int]:
    """Each of `names` in `evolution` counted when called; the counts start at 0."""
    from catledger import evolution

    counts = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(evolution, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(evolution, name, counting(name))
    return counts


def posting_outcomes(monkeypatch) -> list[bool]:
    """One entry per `post_booking` call a period makes, True when it posted."""
    from catledger import evolution

    outcomes, real_post = [], evolution.post_booking

    def post(values, booking_id, amounts):
        try:
            posted = real_post(values, booking_id, amounts)
        except ValidationFailure:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return posted

    monkeypatch.setattr(evolution, "post_booking", post)
    return outcomes


# a pushout whose second account is sent to the first account's class
def glued(real_pushout):
    def pushout(f, g):
        classes, i_a, i_b = real_pushout(f, g)
        first, second, *_ = i_a.domain
        return classes, FinSetMap(i_a.domain, classes, {**i_a.mapping, second: i_a(first)}), i_b

    return pushout


# a pushout whose first leg's class is replaced by another account's class
def moved(real_pushout):
    def pushout(f, g):
        classes, i_a, i_b = real_pushout(f, g)
        first = i_b.domain[0]
        other = next(c for c in i_a.mapping.values() if c != i_b(first))
        return classes, i_a, FinSetMap(i_b.domain, classes, {**i_b.mapping, first: other})

    return pushout


class TestPeriodLawGuard:
    CONSTRUCTIONS = (
        "check_functor_laws",
        "check_naturality",
        "finset_pullback",
        "finset_pushout",
        "post_booking",
    )

    def test_every_period_runs_each_construction_and_law_check(self, monkeypatch):
        # each period posts through `post_booking` and law-checks afresh; the
        # pushouts and the all-ok pullbacks are the table's, proved once at import
        counts = counting_calls(monkeypatch, self.CONSTRUCTIONS)
        params = Parameters()
        state = initial_state(params)
        for period in range(12):
            counts.update(dict.fromkeys(counts, 0))
            state, metrics = period_step(state, params, period, engine=EngineKind.CATEGORICAL)
            assert len(period_amounts(metrics, params)) == 8
            assert counts == {
                "check_functor_laws": 2,
                "check_naturality": 1,
                "finset_pullback": 0,
                "finset_pushout": 0,
                "post_booking": 8,
            }

    def test_a_rejected_booking_takes_no_pullback(self, monkeypatch):
        # a booking whose compiled legs cannot post is refused with the
        # ledger's own verdict: the recursive engine's message and diagnostics
        counts = counting_calls(monkeypatch, self.CONSTRUCTIONS)
        posted = posting_outcomes(monkeypatch)
        params = Parameters(tau=1)
        state = initial_state(params)
        with pytest.raises(ValidationFailure) as err:
            for period in range(6):
                counts.update(dict.fromkeys(counts, 0))
                posted.clear()
                opening = state
                state, _ = period_step(state, params, period, engine=EngineKind.CATEGORICAL)
        assert str(err.value) == "booking 7 (Com repays Loan to Bank) rejected"
        # the repayment is the seventh booking: six posted before it, no close
        assert counts == {
            "check_functor_laws": 0,
            "check_naturality": 0,
            "finset_pullback": 0,
            "finset_pushout": 0,
            "post_booking": 7,
        }
        assert posted == [True] * 6 + [False]
        with pytest.raises(ValidationFailure) as recursive:
            period_step(opening, params, period, engine=EngineKind.RECURSIVE)
        assert (str(err.value), err.value.diagnostics) == (
            str(recursive.value), recursive.value.diagnostics
        )

    def test_the_table_proof_takes_each_booking_s_pushout_and_pullback_once(self, monkeypatch):
        from catledger import evolution

        counts = counting_calls(monkeypatch, ("finset_pullback", "finset_pushout"))
        proved = evolution.prove_booking_table(_COMPILED)
        assert counts == {"finset_pullback": len(BOOKINGS), "finset_pushout": len(BOOKINGS)}
        # the constants a period reads are the ones the proof returns
        assert dict(evolution._FIXED) == proved

    def test_fixed_inputs_equal_maps_built_from_the_booking(self, monkeypatch):
        # the maps the proof hands to its pullback and pushout are the ones
        # each booking's own legs give, and no caller can change them
        from catledger import evolution

        handed: dict[str, list[tuple[FinSetMap, FinSetMap]]] = {"pullback": [], "pushout": []}

        def recording(kind, original):
            def wrapper(f, g):
                handed[kind].append((f, g))
                return original(f, g)

            return wrapper

        for kind in handed:
            name = f"finset_{kind}"
            monkeypatch.setattr(evolution, name, recording(kind, getattr(evolution, name)))
        proved = evolution.prove_booking_table(_COMPILED)
        assert len(handed["pullback"]) == len(handed["pushout"]) == len(BOOKINGS)
        for booking_id, (leg_check, spec_cone), (to_account, to_slot) in zip(
            BOOKINGS, handed["pullback"], handed["pushout"]
        ):
            legs = BOOKINGS[booking_id][1]
            tokens = tuple(range(len(legs)))
            accounts = tuple(dict.fromkeys(account for account, _, _ in legs))
            assert to_account == FinSetMap(
                tokens, accounts, {i: account for i, (account, _, _) in enumerate(legs)}
            )
            assert to_slot == FinSetMap(tokens, tokens, dict(zip(tokens, tokens)))
            assert leg_check == FinSetMap(tokens, ("ok",), dict.fromkeys(tokens, "ok"))
            assert spec_cone == FinSetMap(("all",), ("ok",), {"all": "ok"})
            assert proved[booking_id][:2] == (to_account, to_slot)
            for fixed in (to_account, to_slot, leg_check, spec_cone):
                key = next(iter(fixed.mapping))
                with pytest.raises(TypeError):
                    fixed.mapping[key] = "elsewhere"

    def test_a_compiled_leg_off_its_account_is_refused_by_booking(self):
        # the fold a period applies is the compiled legs: a leg whose position
        # is not its account's is refused before any period runs
        from catledger import evolution

        description, arity, legs, sides, channels = _COMPILED[3]
        (_, inflow, slot), *rest = legs
        moved = ((ACCOUNT_INDEX["AccLabBank"], inflow, slot), *rest)
        table = {**_COMPILED, 3: (description, arity, moved, sides, channels)}
        with pytest.raises(EngineConsistencyError) as err:
            evolution.prove_booking_table(table)
        assert str(err.value) == "booking 3: the pushout's fold leaves the compiled legs"
        # the table a period folds is the one the proof covered
        assert evolution._COMPILED is _COMPILED

    @staticmethod
    def refusal(monkeypatch, corruption) -> str:
        """The proof's refusal of the booking table under a corrupted pushout."""
        from catledger import evolution

        monkeypatch.setattr(evolution, "finset_pushout", corruption(evolution.finset_pushout))
        with pytest.raises(EngineConsistencyError) as err:
            evolution.prove_booking_table(_COMPILED)
        return str(err.value)

    # the glued class and the moved leg that `apply_via_pushout` refused every
    # period are refused by the table proof, by booking, before any period runs
    def test_pushout_gluing_two_accounts_is_caught(self, monkeypatch):
        assert self.refusal(monkeypatch, glued) == (
            "booking 1: pushout glued 2 accounts into one class"
        )

    def test_pushout_leg_moved_to_another_account_is_caught(self, monkeypatch):
        assert self.refusal(monkeypatch, moved) == (
            "booking 1: pushout square does not commute: a leg left its account"
        )

    def test_an_all_ok_cone_that_misses_a_leg_is_refused_by_booking(self, monkeypatch):
        from catledger import evolution

        real_pullback = evolution.finset_pullback

        def missing(f, g):
            # the last leg of a four-leg booking dropped from the apex
            apex, p_a, p_b = real_pullback(f, g)
            if len(f.domain) != 4:
                return apex, p_a, p_b
            short = apex[:-1]
            p_a = FinSetMap(short, f.domain, {p: p[0] for p in short})
            return short, p_a, FinSetMap(short, g.domain, {p: p[1] for p in short})

        monkeypatch.setattr(evolution, "finset_pullback", missing)
        with pytest.raises(EngineConsistencyError) as err:
            evolution.prove_booking_table(_COMPILED)
        assert str(err.value) == "booking 5: the all-ok pullback covers legs [0, 1, 2] of 4"

    def test_a_flow_endpoint_out_of_range_is_refused_by_booking(self, monkeypatch):
        # an account placed past the ledger's 20: only booking 8 delivers to Cap's goods;
        # the table is compiled under the same placement
        from catledger import evolution

        monkeypatch.setitem(ACCOUNT_INDEX, "AccCapGood", len(ACCOUNT_NAMES))
        with pytest.raises(EngineConsistencyError) as err:
            evolution.prove_booking_table(compile_booking_table(BOOKINGS))
        assert str(err.value) == "booking 8: morphism endpoint 21 does not exist in 'economy'"

    def test_the_columns_built_unchecked_pass_the_checks(self, monkeypatch):
        # a period copies its flows from the shape `extend` checked once and
        # builds its time step without `from_columns`' checks: both accept what it built
        flows, eta, _, _ = real_period(monkeypatch, Parameters(), periods=4)
        step = eta.F.target
        assert build_economy_category().extend(flows.src, flows.dst, flows.weight, flows.label) == (
            flows.morphisms
        )
        columns = (step.names, step.src, step.dst, step.weight, step.label)
        rebuilt = FiniteCategory.from_columns(step.name, *columns)
        assert (rebuilt.names, rebuilt.src, rebuilt.dst, rebuilt.weight, rebuilt.label) == columns

    @pytest.mark.parametrize(
        "booking_id, corrupt, message",
        [
            (3, lambda legs, ch: (legs, ((0, 1, "payment"), (2, 9, "x"), (4, 5, "y"))),
             "booking 3: the channels do not join each leg exactly once"),
            (6, lambda legs, ch: ((("AccNowhere", legs[0][1], 0), *legs[1:]), ch),
             "booking 6: unknown account 'AccNowhere'"),
        ],
    )
    def test_a_table_the_ledger_cannot_prove_is_refused_by_booking(
        self, booking_id, corrupt, message
    ):
        from catledger import evolution

        description, legs, channels = BOOKINGS[booking_id]
        table = {**BOOKINGS, booking_id: (description, *corrupt(legs, channels))}
        with pytest.raises(ValueError) as err:
            evolution.prove_booking_table(compile_booking_table(table))
        assert str(err.value) == message

    def test_missing_component_names_the_account(self, monkeypatch):
        flows, eta, old, new = real_period(monkeypatch, Parameters())
        verify_time_step(flows, eta, old, new)
        eta.components[ACCOUNT_INDEX["AccComBank"]] = None
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(flows, eta, old, new)
        assert any(
            "AccComBank" in failure and "component weight" in failure
            for failure in err.value.failures
        )
        # a list one short: zip would stop before the last account
        eta.components[ACCOUNT_INDEX["AccComBank"]] = ACCOUNT_INDEX["AccComBank"] + 1
        del eta.components[-1]
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(flows, eta, old, new)
        assert "naturality: object 'AccBankCapBank' has no component" in err.value.failures
        assert err.value.failures[-1] == (
            "component weight for AccBankCapBank: no evolution component"
        )

    @pytest.mark.parametrize("bad", [float, repr])
    @pytest.mark.parametrize("where", ["component", "image"])
    def test_an_id_that_is_not_an_int_is_refused_when_built(self, monkeypatch, where, bad):
        flows, eta, old, new = real_period(monkeypatch, Parameters())
        column, at = (
            (eta.components, ACCOUNT_INDEX["AccComBank"])
            if where == "component"
            else (eta.F.morphism_images, 0)
        )
        good = column[at]
        column[at] = 999
        with pytest.raises(EngineConsistencyError) as missing:
            verify_time_step(flows, eta, old, new)
        assert any("999" in f for f in missing.value.failures)
        column[at] = bad(good)
        name = "components" if where == "component" else "morphism_images"
        with pytest.raises(CategoryError) as err:
            if where == "component":
                NaturalTransformation(eta.F, eta.G, column)
            else:
                Functor(flows, eta.F.target, eta.F.object_images, column)
        assert str(err.value) == (
            f"{name}: source id {at + 1} maps to {bad(good)!r}, not an int id or None"
        )
        column[at] = good
        verify_time_step(flows, eta, old, new)

    def test_every_swapped_component_pair_is_caught(self, monkeypatch):
        flows, eta, old, new = real_period(monkeypatch, Parameters())
        components = eta.components
        original = list(components)
        swaps = 0
        for a in range(len(original)):
            for b in range(a + 1, len(original)):
                components[a], components[b] = original[b], original[a]
                with pytest.raises(EngineConsistencyError):
                    verify_time_step(flows, eta, old, new)
                components[:] = original
                swaps += 1
        verify_time_step(flows, eta, old, new)
        assert swaps == 190

    def test_every_redirected_image_is_caught(self, monkeypatch):
        # F_t(m) redirected onto any other generator of the time step, the
        # two parallel dividend channels ComDiv -> CapDiv included: the law
        # checks see only endpoints, the label and weight test sees the rest
        flows, eta, old, new = real_period(monkeypatch, Parameters())
        step = eta.F.target
        images = eta.F.morphism_images
        redirects = 0
        for position, image in enumerate(list(images)):
            for other in step.morphisms:
                if other == image:
                    continue
                images[position] = other
                with pytest.raises(EngineConsistencyError):
                    verify_time_step(flows, eta, old, new)
                redirects += 1
            images[position] = image
        verify_time_step(flows, eta, old, new)
        assert redirects == 1495

    def test_a_redirect_onto_an_equally_weighted_parallel_flow_is_caught(self):
        # only the label tells the two flows apart
        flows = build_economy_category()
        flows.extend((1, 1), (2, 2), (5.0, 5.0), ("first", "second"))
        balances = init_ledger()
        _, f_t, _, eta = build_time_step(flows, balances, list(balances))
        verify_time_step(flows, eta, balances, list(balances))
        f_t.morphism_images[0] = f_t.morphism_images[1]
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(flows, eta, balances, list(balances))
        assert err.value.failures == [
            "F_t: morphism 1 (first) maps to 'second' weighted 5.0, not 5.0"
        ]

    @pytest.mark.parametrize("snapshot, tag", [("F", "F_t"), ("G", "F_t+1")])
    def test_parallel_redirect_and_changed_weight_are_caught(self, monkeypatch, snapshot, tag):
        flows, eta, old, new = real_period(monkeypatch, Parameters())
        functor = getattr(eta, snapshot)
        step = functor.target
        by_label = dict(zip(flows.label, flows.morphisms))
        settled = by_label["b6:dividend settled"]
        declared = by_label["b6:dividend declared"]
        images = functor.morphism_images
        true_image = images[settled - 1]

        images[settled - 1] = images[declared - 1]
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(flows, eta, old, new)
        assert any(f.startswith(f"{tag}: morphism {settled} ") for f in err.value.failures)
        images[settled - 1] = true_image

        step.weight[true_image - 1] += 1.0
        with pytest.raises(EngineConsistencyError) as err:
            verify_time_step(flows, eta, old, new)
        assert any(f.startswith(f"{tag}: morphism {settled} ") for f in err.value.failures)


def same_functor(built: Functor, checked: Functor) -> bool:
    return (built.source, built.target, built.object_images, built.morphism_images) == (
        checked.source, checked.target, checked.object_images, checked.morphism_images
    )


class TestFlowsAtClose:
    """A categorical period keeps its amounts and records its flows once, at close."""

    COUNTED = (
        "booking_to_morphisms",
        "build_economy_category",
        "post_booking",
        "check_functor_laws",
        "check_naturality",
    )

    @staticmethod
    def counting(monkeypatch) -> dict[str, int]:
        """`COUNTED` in `evolution` and `catcore._ids`, counted when called."""
        from catledger import catcore

        counts = counting_calls(monkeypatch, TestFlowsAtClose.COUNTED)
        counts["_ids"] = 0
        real_ids = catcore._ids

        def ids(entries, column):
            counts["_ids"] += 1
            return real_ids(entries, column)

        monkeypatch.setattr(catcore, "_ids", ids)
        return counts

    @pytest.mark.parametrize("tau", [5, 10, 17])
    def test_every_period_s_flows_and_time_step_equal_the_checked_build(self, monkeypatch, tau):
        # the flows built at close are the ones each booking recorded in turn
        # used to build, weights bit for bit; the time step's id lists are
        # the ones the checked constructors accept
        from catledger import evolution

        built = []
        original = evolution.build_time_step

        def record(flows, old, new):
            built.append((flows, original(flows, old, new)))
            return built[-1][1]

        monkeypatch.setattr(evolution, "build_time_step", record)
        params = Parameters(tau=tau, horizon=200)
        state = initial_state(params)
        for period in range(params.horizon + 1):
            state, metrics = period_step(state, params, period, engine=EngineKind.CATEGORICAL)
            [(flows, (step, f_t, f_t1, eta))] = built
            built.clear()
            expected = build_economy_category()
            for booking_id, amounts in period_amounts(metrics, params):
                booking_to_morphisms(expected, booking_id, amounts)
            for column in ("name", "names", "src", "dst", "label"):
                assert getattr(flows, column) == getattr(expected, column)
            assert bits(flows.weight) == bits(expected.weight)
            m = len(expected.src)
            checked_t = Functor(flows, step, list(range(1, 21)), list(range(21, 21 + m)))
            checked_t1 = Functor(flows, step, list(range(21, 41)), list(range(21 + m, 21 + 2 * m)))
            assert same_functor(f_t, checked_t) and same_functor(f_t1, checked_t1)
            checked_eta = NaturalTransformation(f_t, f_t1, list(range(1, 21)))
            assert (eta.F, eta.G, eta.components) == (f_t, f_t1, checked_eta.components)
        assert m == 23

    def test_a_period_records_its_flows_without_a_call_per_booking(self, monkeypatch):
        params = Parameters()
        state, _ = period_step(initial_state(params), params, 0, engine=EngineKind.CATEGORICAL)
        counts = self.counting(monkeypatch)  # the shape exists from here on
        for period in range(1, 12):
            counts.update(dict.fromkeys(counts, 0))
            state, _ = period_step(state, params, period, engine=EngineKind.CATEGORICAL)
            assert counts == {
                "booking_to_morphisms": 0,
                "build_economy_category": 0,
                "post_booking": 8,
                "check_functor_laws": 2,
                "check_naturality": 1,
                "_ids": 0,
            }

    def test_a_rejected_period_records_and_checks_nothing(self, monkeypatch):
        counts = self.counting(monkeypatch)
        posted = posting_outcomes(monkeypatch)
        params = Parameters(tau=1)
        state = initial_state(params)
        with pytest.raises(ValidationFailure):
            for period in range(6):
                counts.update(dict.fromkeys(counts, 0))
                posted.clear()
                state, _ = period_step(state, params, period, engine=EngineKind.CATEGORICAL)
        assert period == 1
        assert counts == {
            "booking_to_morphisms": 0,
            "build_economy_category": 0,
            "post_booking": 7,
            "check_functor_laws": 0,
            "check_naturality": 0,
            "_ids": 0,
        }
        assert posted == [True] * 6 + [False]

    def test_a_captured_period_cannot_reach_the_cached_shape(self, monkeypatch):
        from catledger import evolution

        evolution._flows_shape.cache_clear()
        params = Parameters()
        trace = run(params, engine=EngineKind.CATEGORICAL)
        assert evolution._flows_shape.cache_info().currsize == 1
        flows, eta, old, new = real_period(monkeypatch, params)
        columns = [list(getattr(flows, c)) for c in ("names", "src", "dst", "weight", "label")]
        # corrupt every list the captured period holds, as the redirect and swap tests do
        flows.names[0], flows.weight[0] = "AccNowhere", -1.0
        flows.src.reverse()
        flows.dst[0] = flows.src[0]
        flows.label[:2] = flows.label[1::-1]
        eta.components[:2] = eta.components[1::-1]
        eta.F.morphism_images[0] = eta.F.morphism_images[1]
        eta.F.object_images[0] = eta.G.object_images[0]
        with pytest.raises(EngineConsistencyError):
            verify_time_step(flows, eta, old, new)
        # the next periods still pass their laws, on the flows the shape gives
        again, _, _, _ = real_period(monkeypatch, params)
        assert [getattr(again, c) for c in ("names", "src", "dst", "weight", "label")] == columns
        assert run(params, engine=EngineKind.CATEGORICAL).cells == trace.cells
        assert evolution._flows_shape.cache_info().currsize == 1


# balances: plausible ones, or among them some that no run reaches
plausible_balance = st.floats(min_value=0.0, max_value=1e3)
balances_20 = st.one_of(
    st.lists(plausible_balance, min_size=20, max_size=20),
    st.lists(st.one_of(plausible_balance, st.floats()), min_size=20, max_size=20),
)


@st.composite
def near_canonical_amounts(draw, booking_id: int, balances: list[float]) -> tuple[float, ...]:
    """Amounts for each slot of a booking: small ones, that most balances
    allow, or one that the compiled post must refuse or only just allow:
    -0.0, negative, nan, +-inf, an outflow leg's exact balance, one ulp either
    side of it, or an overdraft."""
    legs = BOOKINGS[booking_id][1]
    amounts = []
    for slot in range(1 + max(slot for _, _, slot in legs)):
        outflows = [
            balances[ACCOUNT_NAMES.index(account)]
            for account, direction, leg_slot in legs
            if leg_slot == slot and direction.value == "out"
        ]
        exact = draw(st.sampled_from(outflows)) if outflows else draw(plausible_balance)
        fitting = st.floats(min_value=0.0, max_value=50.0)
        amounts.append(
            draw(
                st.one_of(
                    fitting,
                    fitting,
                    fitting,
                    st.sampled_from([-0.0, -1.0, math.nan, math.inf, -math.inf]),
                    st.sampled_from(
                        [exact, math.nextafter(exact, math.inf), math.nextafter(exact, 0.0)]
                    ),
                    st.floats(min_value=1e3, max_value=1e9).map(lambda over: exact + over),
                    st.floats(),
                )
            )
        )
    return tuple(amounts)


@st.composite
def fitting_amounts(draw, booking_id: int, balances: list[float]) -> tuple[float, ...]:
    """Finite amounts for each slot, none above the balance of an outflow leg
    of its slot (its exact balance among them), so that the compiled post
    accepts them on any balances that are finite and non-negative."""
    legs = BOOKINGS[booking_id][1]
    amounts = []
    for slot in range(1 + max(slot for _, _, slot in legs)):
        room = min(
            (
                balances[ACCOUNT_NAMES.index(account)]
                for account, direction, leg_slot in legs
                if leg_slot == slot and direction.value == "out"
            ),
            default=1e3,
        )
        # abs: a balance of -0.0 leaves room for 0.0
        amounts.append(draw(st.floats(0.0, abs(room) if 0.0 <= room < math.inf else 1e3)))
    return tuple(amounts)


def bits(values) -> list[bytes]:
    return [struct.pack("d", value) for value in values]


class TestCompiledCategoricalPost:
    @pytest.mark.parametrize("booking_id", sorted(BOOKINGS))
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rejects_and_posts_like_post_booking(self, booking_id, data):
        # the categorical reference gates on the all-ok pullback and folds
        # through the pushout; the outcome is post_booking's
        balances = data.draw(balances_20)
        amounts = data.draw(near_canonical_amounts(booking_id, balances))
        reference, folded = list(balances), list(balances)
        try:
            post_booking(reference, booking_id, amounts)
        except ValidationFailure as exc:
            with pytest.raises(ValidationFailure) as err:
                post_by_the_gate_and_fold(folded, booking_id, amounts)
            assert str(err.value) == str(exc)
            assert err.value.diagnostics == exc.diagnostics
            assert bits(folded) == bits(balances)
        else:
            post_by_the_gate_and_fold(folded, booking_id, amounts)
            assert bits(folded) == bits(reference)

    @pytest.mark.parametrize("booking_id", sorted(BOOKINGS))
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pushout_fold_equals_the_compiled_post(self, booking_id, data):
        # the pushout fold and the compiled post, onto one ledger: bit for bit
        balances = data.draw(balances_20)
        amounts = data.draw(fitting_amounts(booking_id, balances))
        posted = list(balances)
        assume(post_compiled(posted, booking_id, amounts))
        assert all(map(math.isfinite, amounts))
        folded = list(balances)
        apply_via_pushout(folded, booking_id, amounts)
        assert bits(folded) == bits(posted)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("tau", [5, 10, 17])
    def test_every_posting_of_a_run_passes_the_gate_and_folds_alike(self, monkeypatch, engine, tau):
        # both engines post through `post_booking`, so comparing them no longer
        # tests the kernel: each posting a run makes is held to the gate and
        # the pushout fold, written apart from the kernel
        from catledger import evolution

        postings, real_post = [], evolution.post_booking

        def record(values, booking_id, amounts):
            opening = values[:]
            real_post(values, booking_id, amounts)
            postings.append((opening, booking_id, amounts, values[:]))
            return values

        monkeypatch.setattr(evolution, "post_booking", record)
        run(Parameters(tau=tau, horizon=200), engine=engine)
        assert len(postings) == 8 * 201
        for opening, booking_id, amounts, posted in postings:
            assert validate_via_pullback(opening, booking_id, amounts) == (True, [])
            folded = opening[:]
            apply_via_pushout(folded, booking_id, amounts)
            assert bits(folded) == bits(posted)


# The EU exponent of every trace column: 1 for an amount of EU or a price in
# EU per unit, 0 for the period and a quantity of goods, hours or kg.
EU_EXPONENTS = {
    "period": 0,
    "WagesPayment": 1, "RepaysPayment": 1, "ConsumLab": 1, "ConsumRes": 1, "ConsumCap": 1,
    "Demand": 1, "DemandPlan": 1, "DemandSurplus": 1, "GoodProduction": 0, "GoodPrice": 1,
    "Investment": 1, "InvestmentRes": 1, "InvestmentLab": 1, "Repayment": 1, "Diff": 1,
    "DividendDecision": 1, "DividendPayment": 1,
    **{spec.name: int(spec.unit is Unit.EU) for spec in ACCOUNT_SPECS},
    **dict.fromkeys(INVARIANCE_COLUMNS, 1),
}
# the EU-valued parameters: the three prices in EU per unit, and the
# investment sigmoid's floor, range and surplus scale in EU
EU_PARAMETERS = ("p_r", "p_l", "p_0", "sig_a", "sig_b", "sig_c")


class TestUnitContract:
    """The EU is a unit of account: scaling it by a power of two scales
    every EU cell of a trace by exactly that factor and leaves every other
    cell bit-identical, since such a factor commutes with every rounding
    the cycle makes while no cell leaves the normal range."""

    def test_every_column_has_an_eu_exponent(self):
        assert tuple(EU_EXPONENTS) == TRACE_COLUMNS

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("tau", [5, 10, 17])
    def test_scaling_the_eu_scales_exactly_the_eu_cells(self, engine, tau):
        params = Parameters(tau=tau, horizon=1000)
        cells = run(params, engine=engine).cells
        scales = [EU_EXPONENTS[name] == 1 for name in TRACE_COLUMNS] * (len(cells) // WIDTH)
        for k in (2.0**-20, 0.5, 2.0, 2.0**10):
            scaled = params._replace(**{name: getattr(params, name) * k for name in EU_PARAMETERS})
            expected = array("d", [c * k if s else c for c, s in zip(cells, scales)])
            got = run(scaled, engine=engine).cells
            if got.tobytes() != expected.tobytes():
                at = next(i for i, (a, b) in enumerate(zip(bits(got), bits(expected))) if a != b)
                row, column = divmod(at, WIDTH)
                cell = f"row {row}, {TRACE_COLUMNS[column]}"
                pytest.fail(f"k={k}: {cell} is {got[at]!r}, not {expected[at]!r}")
