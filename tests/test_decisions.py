"""Worked values and algebraic properties of the behavioral formulas."""

from __future__ import annotations

import math
import sys
from array import array

import pytest
from hypothesis import given, strategies as st

from catledger.decisions import (
    Parameters,
    allocate_investment,
    consumption,
    demand_plan,
    dividend_decision,
    good_price,
    investment_sigmoid,
    memory_due,
    memory_push,
    production,
)
from catledger import decisions, evolution
from catledger.evolution import initial_state
from catledger.ledger import init_ledger

finite = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestParameters:
    def test_defaults(self):
        p = Parameters()
        assert (p.tau, p.lam, p.sig_a, p.sig_b, p.sig_c) == (10, 0.2, 20.0, 480.0, 200.0)
        assert (p.rho_r, p.rho_l, p.rho_c) == (0.8, 0.95, 0.6)
        assert (p.mu, p.omega, p.delta_c, p.delta_b) == (0.5, 0.5, 0.15, 0.4)
        assert (p.p_r, p.p_l, p.p_0) == (25.0, 12.0, 30.0)
        assert (p.gamma, p.alpha) == (0.75, 0.42)
        assert (p.beta_l, p.beta_r, p.beta_c) == (0.95, 0.7, 0.6)
        assert (p.nu_l, p.nu_r) == (100.0, 100.0)
        assert (p.com_lab_0, p.com_res_0) == (110.0, 20.0)
        Parameters().validate()

    @pytest.mark.parametrize(
        "override",
        [
            {"rho_l": 1.5},
            {"tau": 0},
            {"gamma": -0.1},
            {"sig_c": 0.0},
            {"nu_l": -1.0},
            {"tau": True},  # a bool is not a count
            {"horizon": True},
        ],
    )
    def test_out_of_range_rejected(self, override):
        with pytest.raises(ValueError):
            Parameters(**override).validate()

    @pytest.mark.parametrize("sig_a", [-500.0, -1e-300, -math.inf])
    def test_negative_sigmoid_floor_rejected(self, sig_a):
        # the sigmoid's infimum is sig_a: below 0 some surplus asks a negative loan
        with pytest.raises(ValueError, match="^sig_a must be non-negative"):
            Parameters(sig_a=sig_a).validate()

    def test_zero_sigmoid_floor_accepted(self):
        Parameters(sig_a=0.0).validate()
        Parameters(sig_a=-0.0).validate()

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"sig_b": math.inf}, "sig_b must be finite, got inf"),
            ({"sig_a": math.inf}, "sig_a must be finite, got inf"),
            ({"sig_a": 1e308, "sig_b": 1e308}, "sig_a + sig_b must be finite, got inf"),
        ],
    )
    def test_infinite_investment_bound_rejected_naming_the_fields(self, override, message):
        # sig_a + sig_b is the sigmoid's supremum: an infinite one books a loan
        # of inf, which conserves (inf == inf) and breaks the next booking
        with pytest.raises(ValueError) as err:
            Parameters(**override).validate()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "override, message",
        [
            *(
                ({name: math.inf}, f"{name} must be finite, got inf")
                for name in (
                    "sig_c", "p_r", "p_l", "p_0", "alpha", "nu_l", "nu_r", "com_lab_0",
                    "com_res_0", "mu", "omega",
                )
            ),
            ({"mu": -math.inf}, "mu must be finite, got -inf"),
            ({"omega": -math.inf}, "omega must be finite, got -inf"),
            # the range tests still come first
            ({"p_0": -math.inf}, "p_0 must be positive"),
            ({"nu_r": -math.inf}, "nu_r must be non-negative"),
            ({"rho_l": math.inf}, "rho_l must lie in [0, 1], got inf"),
            ({"mu": math.nan, "p_0": math.inf}, "mu must be a number, got nan"),
        ],
    )
    def test_infinite_parameter_rejected_naming_the_field(self, override, message):
        # p_0=inf was a trace with GoodPrice = inf, omega, mu or alpha=inf a
        # rejection with real-imbalance:G:nan; sig_c or p_r=inf ran to the end
        with pytest.raises(ValueError) as err:
            Parameters(**override).validate()
        assert str(err.value) == message

    def test_largest_finite_investment_bound_accepted(self):
        Parameters(sig_a=0.0, sig_b=sys.float_info.max).validate()
        Parameters(sig_a=sys.float_info.max / 2, sig_b=sys.float_info.max / 2).validate()

    @pytest.mark.parametrize(
        "name",
        [
            "sig_b",
            "sig_c",
            "p_r",
            "p_l",
            "p_0",
            "alpha",
            "nu_l",
            "nu_r",
            "com_lab_0",
            "com_res_0",
            "sig_a",
            "mu",
            "omega",
        ],
    )
    def test_nan_rejected_naming_the_field(self, name):
        # NaN fails every comparison, so a range test written as `x <= 0.0`
        # would let it through to the first booking
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Parameters(**{name: math.nan}).validate()

    @pytest.mark.parametrize("value", ["0.2", None, 1 + 0j, True, False, b"1"], ids=repr)
    def test_a_value_that_is_not_a_number_is_refused_naming_the_field(self, value):
        # refused before any comparison could raise a bare TypeError; a bool
        # is not a number here, as it is not a count for tau
        for name in decisions._RANGES:
            with pytest.raises(ValueError) as err:
                Parameters(**{name: value}).validate()
            assert str(err.value) == f"{name} must be a number, got {value!r}"

    def test_a_run_with_a_string_parameter_is_refused_naming_it(self):
        with pytest.raises(ValueError) as err:
            evolution.run(Parameters(lam="0.2"), horizon=3)
        assert type(err.value) is ValueError
        assert str(err.value) == "lam must be a number, got '0.2'"

    @pytest.mark.parametrize("name", ["lam", "mu", "p_0", "nu_r"])
    def test_an_int_is_a_number(self, name):
        Parameters(**{name: 1}).validate()


# `Parameters.validate` as it was before the rule table: seven loops, kept here
# as the reference every single-field verdict and message must match
_REFERENCE_FRACTIONS = (
    "lam", "rho_r", "rho_l", "rho_c", "delta_c", "delta_b", "gamma", "beta_l", "beta_r", "beta_c"
)
_REFERENCE_FLOATS = tuple(
    name for name, value in Parameters._field_defaults.items() if type(value) is float
)


def _reference_count(name, value):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1")


def reference_validate(p: Parameters) -> None:
    _reference_count("tau", p.tau)
    _reference_count("horizon", p.horizon)
    for name in _REFERENCE_FRACTIONS:
        value = getattr(p, name)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    for name in ("sig_b", "sig_c", "p_r", "p_l", "p_0", "alpha"):
        if not getattr(p, name) > 0.0:
            raise ValueError(f"{name} must be positive")
    for name in ("sig_a", "nu_l", "nu_r", "com_lab_0", "com_res_0"):
        if not getattr(p, name) >= 0.0:
            raise ValueError(f"{name} must be non-negative")
    sup = p.sig_a + p.sig_b
    for name, value in (("sig_a", p.sig_a), ("sig_b", p.sig_b), ("sig_a + sig_b", sup)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name in ("mu", "omega"):
        if not getattr(p, name) >= -math.inf:
            raise ValueError(f"{name} must be a number, got nan")
    for name in _REFERENCE_FLOATS:
        value = getattr(p, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _verdict(validate, params: Parameters) -> str | None:
    """None if `validate` accepts `params`, else its message."""
    try:
        validate(params)
    except ValueError as exc:
        return str(exc)
    return None


_PROBES = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 2.0, 1e308)


class TestValidateAgainstTheReference:
    @pytest.mark.parametrize("value", _PROBES, ids=repr)
    @pytest.mark.parametrize("name", _REFERENCE_FLOATS)
    def test_a_float_field_gets_the_reference_verdict(self, name, value):
        params = Parameters(**{name: value})
        assert _verdict(Parameters.validate, params) == _verdict(reference_validate, params)

    @pytest.mark.parametrize("value", [0, 1, True, 2.5, "10"], ids=repr)
    @pytest.mark.parametrize("name", ["tau", "horizon"])
    def test_a_count_gets_the_reference_verdict(self, name, value):
        params = Parameters(**{name: value})
        assert _verdict(Parameters.validate, params) == _verdict(reference_validate, params)

    def test_an_infinite_investment_bound_gets_the_reference_verdict(self):
        params = Parameters(sig_a=1e308, sig_b=1e308)
        message = "sig_a + sig_b must be finite, got inf"
        assert _verdict(Parameters.validate, params) == _verdict(reference_validate, params)
        assert _verdict(Parameters.validate, params) == message

    @pytest.mark.parametrize(
        "override, message, reference",
        [
            ({"rho_l": 2.0, "sig_b": math.inf}, "sig_b must be finite, got inf", "rho_l"),
            ({"lam": 2.0, "horizon": 0}, "lam must lie in [0, 1], got 2.0", "horizon"),
            ({"sig_a": -1.0, "sig_b": 0.0}, "sig_a must be non-negative", "sig_b"),
            ({"rho_l": 2.0, "tau": 0}, "tau must be an integer >= 1", "tau"),
        ],
    )
    def test_of_two_bad_fields_the_earlier_in_field_order_is_named(
        self, override, message, reference
    ):
        # the reference named the first rule broken in its own loop order:
        # the counts, fractions, positives, non-negatives, then finiteness
        params = Parameters(**override)
        assert _verdict(Parameters.validate, params) == message
        assert _verdict(reference_validate, params).startswith(f"{reference} must")

    def test_every_float_field_has_one_rule_in_field_order(self):
        # a float field added later without a rule would go unchecked
        assert tuple(decisions._RANGES) == _REFERENCE_FLOATS


class TestMemory:
    def test_due_single_entry(self):
        assert memory_due((52.0,) + (0.0,) * 9, (0.0,) * 10) == (52.0, 0.0)

    def test_due_two_entries(self):
        wages, _ = memory_due((57.90, 52.0) + (0.0,) * 8, (0.0,) * 10)
        assert wages == pytest.approx(109.90, abs=1e-9)

    def test_due_all_zero(self):
        assert memory_due((0.0,) * 10, (0.0,) * 10) == (0.0, 0.0)

    def test_due_that_overflows_is_inf(self):
        # math.fsum raises OverflowError here; the entries are non-negative,
        # so inf is the correctly rounded total
        assert memory_due([1.7e308, 1.7e308], [0.0]) == (math.inf, 0.0)

    def test_push_onto_zeros(self):
        assert memory_push((0.0,) * 10, 52.0) == (52.0,) + (0.0,) * 9

    def test_push_second(self):
        hist = memory_push((0.0,) * 10, 52.0)
        assert memory_push(hist, 57.90) == (57.90, 52.0) + (0.0,) * 8

    def test_push_drops_the_oldest(self):
        hist = tuple(float(i) for i in range(1, 11))
        pushed = memory_push(hist, 0.0)
        assert len(pushed) == 10
        assert 10.0 not in pushed

    def test_push_rejects_negative(self):
        with pytest.raises(ValueError):
            memory_push((0.0,) * 10, -1.0)

    @given(st.floats(min_value=0.001, max_value=1e6), st.integers(min_value=1, max_value=12))
    def test_each_push_is_counted_tau_times(self, value, tau):
        # a pushed obligation is visible for exactly tau dues, then forgotten
        hist = memory_push((0.0,) * tau, value)
        appearances = 0
        for _ in range(tau + 5):
            if value in hist:
                appearances += 1
            hist = memory_push(hist, 0.0)
        assert appearances == tau
        assert math.fsum(hist) == 0.0


class TestConsumption:
    def test_resource_only(self):
        c_lab, c_res, c_cap, demand = consumption((0.0, 208.0, 0.0), 0.95, 0.8, 0.6)
        assert c_res == pytest.approx(166.4, abs=1e-9)
        assert demand == pytest.approx(166.4, abs=1e-9)
        assert c_lab == 0.0 and c_cap == 0.0

    def test_all_three(self):
        c_lab, c_res, c_cap, demand = consumption((52.0, 273.19, 7.8), 0.95, 0.8, 0.6)
        assert c_lab == pytest.approx(49.4, abs=0.01)
        assert c_res == pytest.approx(218.55, abs=0.01)
        assert c_cap == pytest.approx(4.68, abs=0.01)
        assert demand == pytest.approx(272.63, abs=0.01)

    def test_zero_balances(self):
        assert consumption((0.0, 0.0, 0.0), 0.95, 0.8, 0.6) == (0.0, 0.0, 0.0, 0.0)


class TestDemandPlan:
    def test_first_period(self):
        assert demand_plan(52.0, 26.0, 0.5) == pytest.approx(117.0, abs=1e-9)

    def test_second_period(self):
        assert demand_plan(109.90, 54.95, 0.5) == pytest.approx(247.27, abs=0.01)

    def test_zero_costs(self):
        assert demand_plan(0.0, 0.0, 0.5) == 0.0


class TestProduction:
    def test_initial_stocks(self):
        assert production(110.0, 20.0, 0.42, 0.75) == pytest.approx(31.17, abs=0.01)

    def test_zero_labor_collapses_to_constant(self):
        assert production(0.0, 8.32, 0.42, 0.75) == 1.0

    def test_small_stocks(self):
        assert production(4.33, 9.26, 0.42, 0.75) == pytest.approx(3.20, abs=0.01)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            production(-1.0, 1.0, 0.42, 0.75)

    @given(finite, finite)
    def test_zero_either_factor_gives_one(self, labor, resources):
        assert production(0.0, resources, 0.42, 0.75) == 1.0
        assert production(labor, 0.0, 0.42, 0.75) == 1.0

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.1, max_value=1e4),
    )
    def test_symmetric_only_at_half_gamma(self, labor, resources):
        symmetric = production(labor, resources, 0.42, 0.5)
        assert symmetric == pytest.approx(production(resources, labor, 0.42, 0.5), rel=1e-12)
        if abs(labor - resources) > 1e-6:
            skew = production(labor, resources, 0.42, 0.75)
            assert skew != pytest.approx(production(resources, labor, 0.42, 0.75), rel=1e-12)


class TestGoodPrice:
    def test_initial_period_uses_anchor(self):
        assert good_price(0.0, 31.17, 0.0, 0.5, 0, 30.0) == pytest.approx(30.0, abs=1e-9)

    def test_windfall_period(self):
        assert good_price(117.0, 1.0, 49.4, 0.5, 1, 30.0) == pytest.approx(141.7, abs=1e-9)

    def test_third_period(self):
        assert good_price(247.27, 3.20, 25.36, 0.5, 2, 30.0) == pytest.approx(89.94, abs=0.05)

    def test_negative_surplus_has_no_windfall(self):
        assert good_price(100.0, 2.0, -30.0, 0.5, 3, 30.0) == 50.0

    @given(st.floats(min_value=-1e-6, max_value=1e-6))
    def test_continuous_at_zero_surplus(self, surplus):
        base = good_price(100.0, 2.0, 0.0, 0.5, 5, 30.0)
        near = good_price(100.0, 2.0, surplus, 0.5, 5, 30.0)
        assert abs(near - base) <= 0.5 * abs(surplus) + 1e-12


class TestInvestmentSigmoid:
    def test_balanced_market(self):
        assert investment_sigmoid(0.0, 20.0, 480.0, 200.0) == pytest.approx(260.0, abs=1e-9)

    def test_surplus_49_4(self):
        assert investment_sigmoid(49.4, 20.0, 480.0, 200.0) == pytest.approx(289.49, abs=0.01)

    def test_surplus_25_36(self):
        assert investment_sigmoid(25.36, 20.0, 480.0, 200.0) == pytest.approx(275.20, abs=0.01)

    @given(st.floats(min_value=-7000.0, max_value=7000.0))
    def test_strictly_bounded_before_saturation(self, surplus):
        # beyond |surplus| ~ 36*sig_c the logistic saturates in floats and
        # the bounds close up
        value = investment_sigmoid(surplus, 20.0, 480.0, 200.0)
        assert 20.0 < value < 500.0

    @given(st.floats(min_value=-1e308, max_value=1e308))
    def test_saturates_without_overflow(self, surplus):
        value = investment_sigmoid(surplus, 20.0, 480.0, 200.0)
        assert 20.0 <= value <= 500.0

    @given(
        st.floats(min_value=-1e5, max_value=1e5),
        st.floats(min_value=0.001, max_value=1e5),
    )
    def test_monotone(self, surplus, gap):
        low = investment_sigmoid(surplus, 20.0, 480.0, 200.0)
        high = investment_sigmoid(surplus + gap, 20.0, 480.0, 200.0)
        assert high >= low


class TestAllocateInvestment:
    def test_first_period(self):
        assert allocate_investment(260.0, 0.2, 10) == (208.0, 52.0, 26.0)

    def test_second_period(self):
        res, lab, installment = allocate_investment(289.49, 0.2, 10)
        assert res == pytest.approx(231.59, abs=0.01)
        assert lab == pytest.approx(57.90, abs=0.01)
        assert installment == pytest.approx(28.95, abs=0.01)

    def test_zero_labor_share(self):
        assert allocate_investment(200.0, 0.0, 10) == (200.0, 0.0, 20.0)

    @given(st.floats(min_value=1e-3, max_value=1e9), fractions)
    def test_shares_reassemble_within_one_ulp(self, investment, lam):
        # exactness is unattainable at round-to-even tie boundaries; one ulp
        # is the tightest float-valid bound for arbitrary inputs
        res, lab, _ = allocate_investment(investment, lam, 10)
        assert abs((res + lab) - investment) <= math.ulp(investment)

    def test_shares_reassemble_exactly_on_reference_values(self):
        for investment in (260.0, 289.4902, 275.1975, 159.17876831716092):
            res, lab, _ = allocate_investment(investment, 0.2, 10)
            assert res + lab == investment


class TestDividendDecision:
    def test_first_period(self):
        assert dividend_decision(52.0, 0.0, 0.15, 0.4) == pytest.approx(7.8, abs=1e-9)

    def test_second_period(self):
        value = dividend_decision(138.5, 52.0, 0.15, 0.4)
        assert value == pytest.approx(41.575, abs=1e-9)
        assert value == pytest.approx(41.57, abs=0.01)

    def test_third_period(self):
        assert dividend_decision(121.3, 190.5, 0.15, 0.4) == pytest.approx(94.4, abs=0.01)

    def test_loss_is_clamped(self):
        assert dividend_decision(-10.0, 0.0, 0.15, 0.4) == 0.0

    @given(st.floats(min_value=-1e8, max_value=1e8), finite)
    def test_never_negative(self, diff, balance):
        assert dividend_decision(diff, balance, 0.15, 0.4) >= 0.0

    def test_piecewise_linear_kink_at_zero_diff(self):
        eps = 1e-9
        below = dividend_decision(-eps, 100.0, 0.15, 0.4)
        at = dividend_decision(0.0, 100.0, 0.15, 0.4)
        above = dividend_decision(eps, 100.0, 0.15, 0.4)
        assert below == at == pytest.approx(40.0, abs=1e-12)
        assert above == pytest.approx(40.0, abs=1e-8)


class TestMemoryBlock:
    """The state vector's 2 tau memory entries: wage dues, then repayments."""

    @pytest.mark.parametrize("tau", [1, 2, 10, 17])
    def test_initial_state_holds_the_ledger_then_zeros(self, tau):
        state = initial_state(Parameters(tau=tau))
        assert len(state) == 21 + 2 * tau
        assert state[:20] == init_ledger()
        assert all(entry == 0.0 and math.copysign(1.0, entry) == 1.0 for entry in state[20:])

    def test_a_state_too_large_to_allocate_is_a_value_error_naming_tau(self):
        # 2 * tau + 1 exceeds the largest list, so nothing is allocated
        with pytest.raises(ValueError) as err:
            initial_state(Parameters(tau=2**62))
        assert str(err.value) == f"tau={2**62}: a state of {2**63 + 21} doubles cannot be allocated"
        assert err.value.__cause__ is None and err.value.__suppress_context__

    @pytest.mark.parametrize("tau", [1, 3, 10])
    def test_a_negative_pushed_entry_is_refused(self, tau):
        state = initial_state(Parameters(tau=tau))
        with pytest.raises(ValueError, match="^memory entries must be non-negative$"):
            memory_push(state[20 : 20 + tau], -1.0)
        with pytest.raises(ValueError, match="^memory entries must be non-negative$"):
            memory_push(state[20 + tau : -1], -0.5)

    @pytest.mark.parametrize("engine", ["recursive", "categorical"])
    def test_a_period_refuses_a_negative_labor_share(self, monkeypatch, engine):
        params = Parameters(tau=4)
        state = initial_state(params)
        opening = array("d", state).tobytes()
        def negative_labor(invest, lam, tau):
            return invest, -1.0, invest / tau

        monkeypatch.setattr(evolution, "allocate_investment", negative_labor)
        with pytest.raises(ValueError, match="^memory entries must be non-negative$"):
            evolution.period_step(state, params, 0, engine=engine)
        assert array("d", state).tobytes() == opening

    @given(st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=20))
    def test_due_is_the_exact_sum_of_each_slice(self, entries):
        tau = len(entries)
        state = [0.0] * 20 + entries + entries[::-1] + [0.0]
        wages, repays = state[20 : 20 + tau], state[20 + tau : -1]
        expected = array("d", (math.fsum(wages), math.fsum(repays)))
        assert array("d", memory_due(wages, repays)).tobytes() == expected.tobytes()
        # a push keeps the block's length: the two stacks stay equal by construction
        assert len(memory_push(wages, 1.0)) == len(memory_push(repays, 0.0)) == tau

    def test_parameters_frozen(self):
        params = Parameters()
        with pytest.raises(AttributeError):
            params.tau = 3
        assert params.tau == 10
