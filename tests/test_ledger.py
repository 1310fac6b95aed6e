"""Account structure, booking application, conservation and invariances."""

from __future__ import annotations

import math
import random
import struct
from functools import partial
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from catledger.evolution import validate_via_pullback
from catledger.ledger import (
    ACCOUNT_NAMES,
    ACCOUNT_SPECS,
    BOOKINGS,
    SPEC_BY_NAME,
    Agent,
    AccountKind,
    Booking,
    BookingLeg,
    Channel,
    Direction,
    LedgerState,
    Unit,
    ValidationFailure,
    compile_booking_table,
    conservation_status,
    init_ledger,
    invariances,
    is_debit,
    leg_statuses,
    make_booking,
    post_amounts,
    post_booking,
    post_compiled,
    validate_booking,
)


class TestAccountTable:
    def test_twenty_accounts(self):
        assert len(ACCOUNT_SPECS) == 20

    def test_asset_liability_split(self):
        assets = [s for s in ACCOUNT_SPECS if s.kind is AccountKind.ASSET]
        liabilities = [s for s in ACCOUNT_SPECS if s.kind is AccountKind.LIABILITY]
        assert len(assets) == 14
        assert len(liabilities) == 6

    def test_five_agents_each_present(self):
        agents = {s.agent for s in ACCOUNT_SPECS}
        assert agents == set(Agent)

    def test_units(self):
        state = init_ledger()
        assert state.account("AccLabBank").unit is Unit.EU
        assert state.account("AccComLab").unit is Unit.HOURS
        assert state.account("AccComRes").unit is Unit.KG
        assert state.account("AccCapGood").unit is Unit.GOOD


class TestInitLedger:
    def test_default_endowments(self):
        state = init_ledger()
        assert state.balance("AccComLab") == 110.0
        assert state.balance("AccComRes") == 20.0
        assert state.balance("AccLabBank") == 0.0

    def test_zero_endowments(self):
        state = init_ledger(0.0, 0.0)
        assert all(state.balance(name) == 0.0 for name in ACCOUNT_NAMES)

    def test_negative_endowment_rejected(self):
        with pytest.raises(ValueError):
            init_ledger(-1.0, 20.0)


class TestPostBooking:
    def test_loan_260(self):
        state = init_ledger()
        post_booking(state, make_booking(5, 260.0))
        assert state.balance("AccComLoan") == 260.0
        assert state.balance("AccComBank") == 260.0
        assert state.balance("AccBankComLoan") == 260.0
        assert state.balance("AccBankComBank") == 260.0

    def test_all_zero_booking_is_identity(self):
        state = init_ledger()
        before = state.balances()
        post_booking(state, make_booking(1, 0.0, 0.0))
        assert state.balances() == before

    def test_overdraft_rejected(self):
        state = init_ledger()
        state.set_balance("AccComBank", 5.0)
        state.set_balance("AccBankComBank", 5.0)
        booking = make_booking(1, 10.0, 10.0 / 12.0)
        with pytest.raises(ValidationFailure) as err:
            post_booking(state, booking)
        assert any("insufficient-balance" in d for d in err.value.diagnostics)

    def test_rejection_is_atomic(self):
        state = init_ledger()
        state.set_balance("AccComBank", 5.0)
        state.set_balance("AccBankComBank", 5.0)
        before = state.balances()
        with pytest.raises(ValidationFailure):
            post_booking(state, make_booking(1, 10.0, 1.0))
        assert state.balances() == before


class TestValidateBooking:
    def test_wage_52_with_funds(self):
        state = init_ledger()
        post_booking(state, make_booking(5, 260.0))
        state.set_balance("AccLabLab", 10.0)
        ok, diagnostics = validate_booking(state, make_booking(1, 52.0, 52.0 / 12.0))
        assert ok and diagnostics == []

    def test_unit_mismatch(self):
        state = init_ledger()
        booking = Booking(
            1,
            "kg into an EU account",
            (
                BookingLeg("AccComRes", Direction.OUTFLOW, 1.0, Unit.KG),
                BookingLeg("AccLabBank", Direction.INFLOW, 1.0, Unit.KG),
            ),
        )
        ok, diagnostics = validate_booking(state, booking)
        assert not ok
        assert any("unit-mismatch" in d for d in diagnostics)

    def test_drain_below_zero(self):
        state = init_ledger()
        ok, diagnostics = validate_booking(state, make_booking(7, 1.0))
        assert not ok
        assert any("insufficient-balance" in d for d in diagnostics)


class TestInvariances:
    def test_fresh_ledger_all_zero(self):
        assert invariances(init_ledger()).as_tuple() == (0.0,) * 6

    def test_first_period_style_state_all_zero(self):
        state = init_ledger()
        post_booking(state, make_booking(5, 260.0))
        state.set_balance("AccResRes", 100.0)
        post_booking(state, make_booking(3, 208.0, 8.32))
        checks = invariances(state)
        assert checks.as_tuple() == (0.0,) * 6
        assert state.balance("AccResBank") == 208.0
        assert state.balance("AccBankResBank") == 208.0

    def test_corrupting_a_mirror_shows_up(self):
        state = init_ledger()
        state.set_balance("AccBankResBank", 1.0)
        checks = invariances(state)
        assert checks.res_bank == -1.0
        assert checks.macro == -1.0
        assert checks.lab_bank == 0.0


class TestBookingTable:
    def test_the_canonical_table_passes(self):
        assert sorted(BOOKINGS) == list(range(1, 9))
        compile_booking_table(BOOKINGS)

    @pytest.mark.parametrize(
        "booking_id, leg, channels, problem",
        [
            # an EU leg with its direction flipped: the loan's bank inflow
            (5, (0, ("AccComBank", Direction.OUTFLOW, 0)), None, "EU debit slots"),
            # a channel joining legs of two slots: wages paid in hours
            (
                1,
                None,
                ((0, 5, "wages"), (2, 3, "deposit transfer"), (4, 1, "labor delivery")),
                "a channel joins legs of two slots",
            ),
            # a real unit with two inflow legs: kilograms delivered from nowhere
            (3, (4, ("AccResRes", Direction.INFLOW, 1)), None, "kg inflow slots [1, 1]"),
        ],
    )
    def test_a_corrupted_entry_is_refused_naming_its_id(self, booking_id, leg, channels, problem):
        description, legs, canonical_channels = BOOKINGS[booking_id]
        if leg is not None:
            index, replacement = leg
            legs = legs[:index] + (replacement,) + legs[index + 1 :]
        table = {**BOOKINGS, booking_id: (description, legs, channels or canonical_channels)}
        with pytest.raises(ValueError, match=rf"^booking {booking_id}: ") as err:
            compile_booking_table(table)
        assert problem in str(err.value)

    def test_make_booking_refuses_an_unknown_id_or_the_wrong_amounts(self):
        with pytest.raises(ValueError, match="unknown booking 9"):
            make_booking(9, 1.0)
        with pytest.raises(TypeError, match="booking 5 takes 1 amounts, got 2"):
            make_booking(5, 1.0, 2.0)


class TestPostCompiled:
    @pytest.mark.parametrize("amount", [math.inf, math.nan])
    def test_a_non_finite_amount_is_refused_and_posts_nothing(self, amount):
        # every leg of the loan is an inflow, so no balance can refuse an inf:
        # only the bound `0.0 <= a < inf` on the amount does
        values = init_ledger().values
        before = [struct.pack("d", value) for value in values]
        assert post_compiled(values, 5, (amount,)) is False
        assert [struct.pack("d", value) for value in values] == before


class TestQuadrupleEntry:
    def test_agents_spanned_by_each_booking(self):
        two_agent = {5: make_booking(5, 1.0), 7: make_booking(7, 0.0)}
        three_agent = {
            1: make_booking(1, 1.0, 0.1),
            2: make_booking(2, 1.0, 0.1),
            3: make_booking(3, 1.0, 0.1),
            4: make_booking(4, 1.0, 0.1),
            6: make_booking(6, 1.0, 2.0),
            8: make_booking(8, 1.0, 0.1),
        }
        for booking_id, booking in two_agent.items():
            assert booking.id == booking_id
            assert len(booking.agents()) == 2
        for booking_id, booking in three_agent.items():
            assert booking.id == booking_id
            assert len(booking.agents()) == 3


def eu_debits_and_credits(booking: Booking) -> tuple[float, float]:
    """Independent fold over the legs, straight from the debit/credit rule."""
    debits = credits = 0.0
    for leg in booking.legs:
        if leg.unit is not Unit.EU:
            continue
        spec = next(s for s in ACCOUNT_SPECS if s.name == leg.account)
        if is_debit(spec.kind, leg.direction):
            debits += leg.amount
        else:
            credits += leg.amount
    return debits, credits


def random_state(rng: random.Random) -> LedgerState:
    state = LedgerState()
    for name in ACCOUNT_NAMES:
        state.account(name).balance = rng.uniform(0.0, 1000.0)
    return state


def random_valid_booking(rng: random.Random, state: LedgerState) -> Booking:
    shape = rng.randint(1, 8)
    bal = state.balance
    if shape == 1:
        wages = rng.uniform(0, min(bal("AccComBank"), bal("AccBankComBank")))
        hours = rng.uniform(0, bal("AccLabLab"))
        return make_booking(1, wages, hours)
    if shape in (2, 4, 8):
        bank = {2: "AccLabBank", 4: "AccResBank", 8: "AccCapBank"}[shape]
        mirror = {2: "AccBankLabBank", 4: "AccBankResBank", 8: "AccBankCapBank"}[shape]
        spend = rng.uniform(0, min(bal(bank), bal(mirror)))
        quantity = rng.uniform(0, bal("AccComGood"))
        return make_booking(shape, spend, quantity)
    if shape == 3:
        spend = rng.uniform(0, min(bal("AccComBank"), bal("AccBankComBank")))
        kilograms = rng.uniform(0, bal("AccResRes"))
        return make_booking(3, spend, kilograms)
    if shape == 5:
        return make_booking(5, rng.uniform(0, 500.0))
    if shape == 7:
        ceiling = min(
            bal("AccComBank"), bal("AccComLoan"), bal("AccBankComLoan"), bal("AccBankComBank")
        )
        return make_booking(7, rng.uniform(0, ceiling))
    paid = rng.uniform(
        0, min(bal("AccComBank"), bal("AccBankComBank"), bal("AccCapDiv"), bal("AccComDiv"))
    )
    return make_booking(6, paid, rng.uniform(0, 100.0))


class TestConservationProperty:
    def test_thousand_randomized_valid_bookings(self):
        rng = random.Random(424242)
        posted = 0
        while posted < 1000:
            state = random_state(rng)
            booking = random_valid_booking(rng, state)
            debits, credits = eu_debits_and_credits(booking)
            assert debits == credits, booking
            post_booking(state, booking)
            assert all(state.balance(name) >= 0.0 for name in ACCOUNT_NAMES)
            posted += 1

    def test_reject_dont_clamp_path(self):
        rng = random.Random(911)
        rejected = 0
        for _ in range(300):
            state = random_state(rng)
            # ask for more than any balance can cover
            booking = make_booking(7, 2000.0)
            before = state.balances()
            with pytest.raises(ValidationFailure):
                post_booking(state, booking)
            assert state.balances() == before
            rejected += 1
        assert rejected == 300

    def test_imbalanced_booking_caught(self):
        state = init_ledger()
        state.set_balance("AccComBank", 100.0)
        crooked = Booking(
            5,
            "one-sided loan",
            (
                BookingLeg("AccComBank", Direction.INFLOW, 50.0, Unit.EU),
                BookingLeg("AccComLoan", Direction.INFLOW, 40.0, Unit.EU),
            ),
        )
        ok, diagnostics = validate_booking(state, crooked)
        assert not ok
        assert any("eu-imbalance" in d for d in diagnostics)

    def test_real_leg_imbalance_caught(self):
        state = init_ledger()
        crooked = Booking(
            3,
            "leaky delivery",
            (
                BookingLeg("AccComRes", Direction.INFLOW, 2.0, Unit.KG),
                BookingLeg("AccResRes", Direction.OUTFLOW, 1.0, Unit.KG),
            ),
        )
        state.set_balance("AccResRes", 5.0)
        ok, diagnostics = validate_booking(state, crooked)
        assert not ok
        assert any("real-imbalance" in d for d in diagnostics)


class TestCopySemantics:
    def test_copy_is_independent(self):
        state = init_ledger()
        clone = state.copy()
        clone.set_balance("AccComLab", 1.0)
        assert state.balance("AccComLab") == 110.0

    def test_math_is_plain_float(self):
        state = init_ledger()
        state.set_balance("AccComBank", 0.1)
        assert math.isclose(state.balance("AccComBank"), 0.1)


class TestValueTypes:
    @pytest.mark.parametrize(
        "value, field",
        [
            (BookingLeg("AccComBank", Direction.INFLOW, 1.0, Unit.EU), "amount"),
            (Channel("AccComLoan", "AccComBank", 1.0, Unit.EU), "label"),
            (Booking(5, "loan", ()), "channels"),
        ],
    )
    def test_attribute_assignment_is_refused(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)

    def test_positional_and_keyword_construction(self):
        leg = BookingLeg("AccComBank", Direction.INFLOW, 2.0, Unit.EU)
        assert (leg.account, leg.direction, leg.amount, leg.unit) == (
            "AccComBank",
            Direction.INFLOW,
            2.0,
            Unit.EU,
        )
        assert leg == BookingLeg(
            account="AccComBank", direction=Direction.INFLOW, amount=2.0, unit=Unit.EU
        )
        channel = Channel("AccComLoan", "AccComBank", 2.0, Unit.EU)
        assert channel.label == ""
        assert channel == Channel(
            src="AccComLoan", dst="AccComBank", amount=2.0, unit=Unit.EU, label=""
        )
        booking = Booking(5, "loan", (leg,))
        assert (booking.id, booking.description, booking.legs) == (5, "loan", (leg,))
        assert booking.channels == ()
        assert booking == Booking(id=5, description="loan", legs=(leg,), channels=())
        assert booking.agents() == {Agent.COM}


# ---------------------------------------------------------------------------
# Reference ledger: the original leg checks and posting, kept verbatim so the
# table-driven versions can be held to exactly the same outcomes.
# ---------------------------------------------------------------------------


def oracle_leg_statuses(balances: Mapping[str, float], booking: Booking) -> list[str]:
    scratch = dict(balances)
    statuses: list[str] = []
    for leg in booking.legs:
        spec = SPEC_BY_NAME.get(leg.account)
        if spec is None:
            statuses.append(f"unknown-account:{leg.account}")
            continue
        if leg.unit is not spec.unit:
            statuses.append(f"unit-mismatch:{leg.account}:{leg.unit.value}!={spec.unit.value}")
            continue
        if leg.amount < 0.0:
            statuses.append(f"negative-amount:{leg.account}")
            continue
        delta = leg.amount if leg.direction is Direction.INFLOW else -leg.amount
        new = scratch[leg.account] + delta
        if new < 0.0:
            statuses.append(f"insufficient-balance:{leg.account}")
            continue
        scratch[leg.account] = new
        statuses.append("ok")
    return statuses


def oracle_conservation_status(booking: Booking) -> str:
    debits = 0.0
    credits = 0.0
    real_net: dict[Unit, float] = {}
    for leg in booking.legs:
        spec = SPEC_BY_NAME.get(leg.account)
        if spec is None or leg.unit is not spec.unit:
            return "untypable"
        if leg.unit is Unit.EU:
            if is_debit(spec.kind, leg.direction):
                debits += leg.amount
            else:
                credits += leg.amount
        else:
            sign = 1.0 if leg.direction is Direction.INFLOW else -1.0
            real_net[leg.unit] = real_net.get(leg.unit, 0.0) + sign * leg.amount
    if debits != credits:
        return f"eu-imbalance:{debits}!={credits}"
    for unit, net in real_net.items():
        if net != 0.0:
            return f"real-imbalance:{unit.value}:{net}"
    return "ok"


def oracle_validate_booking(state: LedgerState, booking: Booking) -> tuple[bool, list[str]]:
    diagnostics = [s for s in oracle_leg_statuses(state.balances(), booking) if s != "ok"]
    cons = oracle_conservation_status(booking)
    if cons != "ok":
        diagnostics.append(cons)
    return not diagnostics, diagnostics


def oracle_post_booking(state: LedgerState, booking: Booking) -> LedgerState:
    ok, diagnostics = oracle_validate_booking(state, booking)
    if not ok:
        raise ValidationFailure(
            f"booking {booking.id} ({booking.description}) rejected", diagnostics
        )
    for leg in booking.legs:
        acct = state.account(leg.account)
        if leg.direction is Direction.INFLOW:
            acct.balance = acct.balance + leg.amount
        else:
            acct.balance = acct.balance - leg.amount
    return state


# The builders as they were before they called `tuple.__new__` directly,
# kept verbatim: each value goes through the NamedTuples' own constructors.
_ORACLE_GOODS_SALES = {
    Agent.LAB: (2, "Lab buys Good from Com", "AccLabBank", "AccLabGood", "AccBankLabBank"),
    Agent.RES: (4, "Res buys Good from Com", "AccResBank", "AccResGood", "AccBankResBank"),
    Agent.CAP: (8, "Cap buys Good from Com", "AccCapBank", "AccCapGood", "AccBankCapBank"),
}


def oracle_make_goods_sale(consumer: Agent, spend: float, quantity: float) -> Booking:
    booking_id, description, bank_acct, good_acct, mirror = _ORACLE_GOODS_SALES[consumer]
    legs = (
        BookingLeg(bank_acct, Direction.OUTFLOW, spend, Unit.EU),
        BookingLeg("AccComBank", Direction.INFLOW, spend, Unit.EU),
        BookingLeg(mirror, Direction.OUTFLOW, spend, Unit.EU),
        BookingLeg("AccBankComBank", Direction.INFLOW, spend, Unit.EU),
        BookingLeg("AccComGood", Direction.OUTFLOW, quantity, Unit.GOOD),
        BookingLeg(good_acct, Direction.INFLOW, quantity, Unit.GOOD),
    )
    channels = (
        Channel(bank_acct, "AccComBank", spend, Unit.EU, "payment"),
        Channel(mirror, "AccBankComBank", spend, Unit.EU, "deposit transfer"),
        Channel("AccComGood", good_acct, quantity, Unit.GOOD, "delivery"),
    )
    return Booking(booking_id, description, legs, channels)


def oracle_make_wage_payment(wages: float, hours: float) -> Booking:
    legs = (
        BookingLeg("AccComBank", Direction.OUTFLOW, wages, Unit.EU),
        BookingLeg("AccLabBank", Direction.INFLOW, wages, Unit.EU),
        BookingLeg("AccBankComBank", Direction.OUTFLOW, wages, Unit.EU),
        BookingLeg("AccBankLabBank", Direction.INFLOW, wages, Unit.EU),
        BookingLeg("AccLabLab", Direction.OUTFLOW, hours, Unit.HOURS),
        BookingLeg("AccComLab", Direction.INFLOW, hours, Unit.HOURS),
    )
    channels = (
        Channel("AccComBank", "AccLabBank", wages, Unit.EU, "wages"),
        Channel("AccBankComBank", "AccBankLabBank", wages, Unit.EU, "deposit transfer"),
        Channel("AccLabLab", "AccComLab", hours, Unit.HOURS, "labor delivery"),
    )
    return Booking(1, "Lab sells Lab to Com", legs, channels)


def oracle_make_resource_purchase(spend: float, kilograms: float) -> Booking:
    legs = (
        BookingLeg("AccComBank", Direction.OUTFLOW, spend, Unit.EU),
        BookingLeg("AccResBank", Direction.INFLOW, spend, Unit.EU),
        BookingLeg("AccBankComBank", Direction.OUTFLOW, spend, Unit.EU),
        BookingLeg("AccBankResBank", Direction.INFLOW, spend, Unit.EU),
        BookingLeg("AccResRes", Direction.OUTFLOW, kilograms, Unit.KG),
        BookingLeg("AccComRes", Direction.INFLOW, kilograms, Unit.KG),
    )
    channels = (
        Channel("AccComBank", "AccResBank", spend, Unit.EU, "payment"),
        Channel("AccBankComBank", "AccBankResBank", spend, Unit.EU, "deposit transfer"),
        Channel("AccResRes", "AccComRes", kilograms, Unit.KG, "resource delivery"),
    )
    return Booking(3, "Res sells Res to Com", legs, channels)


def oracle_make_loan(amount: float) -> Booking:
    legs = (
        BookingLeg("AccComBank", Direction.INFLOW, amount, Unit.EU),
        BookingLeg("AccComLoan", Direction.INFLOW, amount, Unit.EU),
        BookingLeg("AccBankComLoan", Direction.INFLOW, amount, Unit.EU),
        BookingLeg("AccBankComBank", Direction.INFLOW, amount, Unit.EU),
    )
    channels = (
        Channel("AccComLoan", "AccComBank", amount, Unit.EU, "loan draw"),
        Channel("AccBankComBank", "AccBankComLoan", amount, Unit.EU, "loan creation"),
    )
    return Booking(5, "Com gets Loan from Bank", legs, channels)


def oracle_make_repayment(amount: float) -> Booking:
    legs = (
        BookingLeg("AccComBank", Direction.OUTFLOW, amount, Unit.EU),
        BookingLeg("AccComLoan", Direction.OUTFLOW, amount, Unit.EU),
        BookingLeg("AccBankComLoan", Direction.OUTFLOW, amount, Unit.EU),
        BookingLeg("AccBankComBank", Direction.OUTFLOW, amount, Unit.EU),
    )
    channels = (
        Channel("AccComBank", "AccComLoan", amount, Unit.EU, "repayment"),
        Channel("AccBankComLoan", "AccBankComBank", amount, Unit.EU, "loan deletion"),
    )
    return Booking(7, "Com repays Loan to Bank", legs, channels)


def oracle_make_dividend(paid: float, declared: float) -> Booking:
    legs = (
        BookingLeg("AccComBank", Direction.OUTFLOW, paid, Unit.EU),
        BookingLeg("AccCapBank", Direction.INFLOW, paid, Unit.EU),
        BookingLeg("AccBankComBank", Direction.OUTFLOW, paid, Unit.EU),
        BookingLeg("AccBankCapBank", Direction.INFLOW, paid, Unit.EU),
        BookingLeg("AccCapDiv", Direction.OUTFLOW, paid, Unit.EU),
        BookingLeg("AccComDiv", Direction.OUTFLOW, paid, Unit.EU),
        BookingLeg("AccComDiv", Direction.INFLOW, declared, Unit.EU),
        BookingLeg("AccCapDiv", Direction.INFLOW, declared, Unit.EU),
    )
    channels = (
        Channel("AccComBank", "AccCapBank", paid, Unit.EU, "dividend payment"),
        Channel("AccBankComBank", "AccBankCapBank", paid, Unit.EU, "deposit transfer"),
        Channel("AccComDiv", "AccCapDiv", paid, Unit.EU, "dividend settled"),
        Channel("AccComDiv", "AccCapDiv", declared, Unit.EU, "dividend declared"),
    )
    return Booking(6, "Com pays Div to Cap", legs, channels)


# (builder, its reference, number of amounts it takes)
BUILDER_PAIRS = {
    "goods_sale_lab": (partial(make_booking, 2), partial(oracle_make_goods_sale, Agent.LAB), 2),
    "goods_sale_res": (partial(make_booking, 4), partial(oracle_make_goods_sale, Agent.RES), 2),
    "goods_sale_cap": (partial(make_booking, 8), partial(oracle_make_goods_sale, Agent.CAP), 2),
    "wage_payment": (partial(make_booking, 1), oracle_make_wage_payment, 2),
    "resource_purchase": (partial(make_booking, 3), oracle_make_resource_purchase, 2),
    "loan": (partial(make_booking, 5), oracle_make_loan, 1),
    "repayment": (partial(make_booking, 7), oracle_make_repayment, 1),
    "dividend": (partial(make_booking, 6), oracle_make_dividend, 2),
}


def value_bits(value: tuple) -> tuple:
    """A value's type and fields, each float as its IEEE 754 bits."""
    return (type(value),) + tuple(
        struct.pack("d", field) if isinstance(field, float) else field for field in value
    )


def booking_bits(booking: Booking) -> tuple:
    return (
        type(booking),
        booking.id,
        booking.description,
        type(booking.legs),
        [value_bits(leg) for leg in booking.legs],
        type(booking.channels),
        [value_bits(channel) for channel in booking.channels],
    )


# amounts and balances: plausible ones, so that many bookings post, and any
# float at all: negative, nan, inf, or so large that the booking overdraws
plausible = st.floats(min_value=0.0, max_value=1e3)
amounts = st.one_of(plausible, st.floats())
balance_lists = st.one_of(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=20, max_size=20),
    st.lists(amounts, min_size=20, max_size=20),
)


def canonical_bookings(amount: st.SearchStrategy[float]) -> st.SearchStrategy[Booking]:
    return st.one_of(
        st.builds(make_booking, st.sampled_from([2, 4, 8]), amount, amount),
        st.builds(make_booking, st.just(1), amount, amount),
        st.builds(make_booking, st.just(3), amount, amount),
        st.builds(make_booking, st.just(5), amount),
        st.builds(make_booking, st.just(7), amount),
        st.builds(make_booking, st.just(6), amount, amount),
    )


# a few accounts drawn often, so legs repeat accounts; two names no table knows
leg_accounts = st.one_of(
    st.sampled_from(("AccComBank", "AccComGood", "AccComDiv")),
    st.sampled_from(ACCOUNT_NAMES + ("AccNowhere", "")),
)
arbitrary_legs = st.builds(
    BookingLeg, leg_accounts, st.sampled_from(Direction), amounts, st.sampled_from(Unit)
)
arbitrary_bookings = st.builds(
    Booking,
    st.integers(min_value=0, max_value=9),
    st.text(max_size=4),
    st.lists(arbitrary_legs, max_size=8).map(tuple),
)

bookings = st.one_of(
    canonical_bookings(plausible), canonical_bookings(amounts), arbitrary_bookings
)


def state_of(balances: list[float]) -> LedgerState:
    state = LedgerState()
    for name, value in zip(ACCOUNT_NAMES, balances):
        state.account(name).balance = value
    return state


def balance_bits(state: LedgerState) -> list[bytes]:
    return [struct.pack("d", state.balance(name)) for name in ACCOUNT_NAMES]


def assert_posts_like_the_reference(
    balances: list[float], booking: Booking, post=post_booking
) -> None:
    """`post(state, booking)` accepts or rejects as the reference does, with
    the same message and diagnostics, and leaves bit-identical balances."""
    ours, reference = state_of(balances), state_of(balances)
    untouched = balance_bits(ours)
    try:
        oracle_post_booking(reference, booking)
    except ValidationFailure as exc:
        with pytest.raises(ValidationFailure) as err:
            post(ours, booking)
        assert str(err.value) == str(exc)
        assert err.value.diagnostics == exc.diagnostics
        assert balance_bits(ours) == untouched
    else:
        post(ours, booking)
    assert balance_bits(ours) == balance_bits(reference)


def post_by_amounts(state: LedgerState, booking: Booking) -> LedgerState:
    """Post a canonical booking through `post_amounts`, by its id and slot amounts."""
    slots = {slot: leg.amount for (_, _, slot), leg in zip(BOOKINGS[booking.id][1], booking.legs)}
    return post_amounts(state, booking.id, tuple(slots[slot] for slot in sorted(slots)))


def canonical_amounts(booking: Booking) -> tuple[float, ...] | None:
    """The slot amounts from which `make_booking` builds `booking`, or None if it builds no such."""
    if booking.id not in BOOKINGS:
        return None
    slots = {slot: leg.amount for (_, _, slot), leg in zip(BOOKINGS[booking.id][1], booking.legs)}
    amounts = tuple(slots[slot] for slot in sorted(slots))
    try:
        built = make_booking(booking.id, *amounts)
    except TypeError:
        return None
    return amounts if booking_bits(built) == booking_bits(booking) else None


def single_leg_changes(legs: tuple[BookingLeg, ...]) -> list[tuple[BookingLeg, ...]]:
    """Every leg tuple that differs from `legs` in one leg's direction, unit or
    account, in the order of two legs, or by one leg dropped or repeated."""
    changes = []
    for i, leg in enumerate(legs):
        flipped = Direction.OUTFLOW if leg.direction is Direction.INFLOW else Direction.INFLOW
        variants = [leg._replace(direction=flipped)]
        variants += [leg._replace(unit=unit) for unit in Unit if unit is not leg.unit]
        variants += [
            leg._replace(account=name) for name in ACCOUNT_NAMES if name != leg.account
        ]
        changes += [legs[:i] + (variant,) + legs[i + 1 :] for variant in variants]
        changes.append(legs[:i] + legs[i + 1 :])
        changes.append(legs[: i + 1] + legs[i:])
        for j in range(i + 1, len(legs)):
            swapped = list(legs)
            swapped[i], swapped[j] = legs[j], legs[i]
            changes.append(tuple(swapped))
    return changes


@st.composite
def near_canonical_bookings(draw) -> Booking:
    """A canonical booking with one thing changed, keeping the canonical id: a
    leg's amount, the order of two legs, a leg's unit, account or direction,
    or one leg dropped or repeated."""
    booking = draw(canonical_bookings(plausible))
    legs = list(booking.legs)
    i = draw(st.integers(min_value=0, max_value=len(legs) - 1))
    change = draw(
        st.sampled_from(("amount", "order", "unit", "account", "direction", "drop", "repeat"))
    )
    if change == "amount":
        amount = legs[i].amount
        legs[i] = legs[i]._replace(
            amount=draw(st.one_of(st.just(math.nextafter(amount, math.inf)), amounts))
        )
    elif change == "order":
        j = draw(st.integers(min_value=0, max_value=len(legs) - 1))
        legs[i], legs[j] = legs[j], legs[i]
    elif change == "unit":
        legs[i] = legs[i]._replace(unit=draw(st.sampled_from(Unit)))
    elif change == "account":
        legs[i] = legs[i]._replace(account=draw(leg_accounts))
    elif change == "direction":
        flipped = Direction.OUTFLOW if legs[i].direction is Direction.INFLOW else Direction.INFLOW
        legs[i] = legs[i]._replace(direction=flipped)
    elif change == "drop":
        del legs[i]
    else:
        legs.append(legs[i])
    return booking._replace(legs=tuple(legs))


class TestReferenceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(balance_lists, bookings)
    def test_validate_booking_matches_the_reference(self, balances, booking):
        state = state_of(balances)
        assert validate_booking(state, booking) == oracle_validate_booking(state, booking)

    @settings(max_examples=200, deadline=None)
    @given(balance_lists, bookings)
    def test_leg_checks_match_the_reference(self, balances, booking):
        # also the categorical gate, which reaches them through the same scan
        # (the gate takes a booking by its id and amounts, so only a booking
        # that `make_booking` builds can reach it)
        opening = dict(zip(ACCOUNT_NAMES, balances))
        untouched = [struct.pack("d", value) for value in opening.values()]
        assert leg_statuses(opening, booking) == oracle_leg_statuses(opening, booking)
        assert conservation_status(booking) == oracle_conservation_status(booking)
        slot_amounts = canonical_amounts(booking)
        if slot_amounts is not None:
            assert validate_via_pullback(balances, booking.id, slot_amounts) == (
                oracle_validate_booking(state_of(balances), booking)
            )
        assert [struct.pack("d", value) for value in opening.values()] == untouched
        assert [struct.pack("d", value) for value in balances] == untouched

    @pytest.mark.parametrize("name", sorted(BUILDER_PAIRS))
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(), min_size=2, max_size=2))
    def test_builder_matches_the_reference(self, name, amounts):
        # st.floats() draws nan, both infinities, negatives and -0.0 as well
        ours, reference, arity = BUILDER_PAIRS[name]
        built, expected = ours(*amounts[:arity]), reference(*amounts[:arity])
        assert booking_bits(built) == booking_bits(expected)
        assert built == expected

    @settings(max_examples=200, deadline=None)
    @given(balance_lists, bookings)
    def test_post_booking_matches_the_reference(self, balances, booking):
        assert_posts_like_the_reference(balances, booking)

    @pytest.mark.parametrize("name", sorted(BUILDER_PAIRS))
    @settings(max_examples=100, deadline=None)
    @given(balance_lists, st.lists(amounts, min_size=2, max_size=2))
    def test_post_amounts_matches_the_reference(self, name, balances, drawn):
        # straight from the shape while every amount and balance allows it,
        # else through the built booking's scan, restoring the list first
        _, reference, arity = BUILDER_PAIRS[name]
        booking = reference(*drawn[:arity])
        assert_posts_like_the_reference(balances, booking, post=post_by_amounts)

    @settings(max_examples=400, deadline=None)
    @given(balance_lists, near_canonical_bookings())
    def test_near_canonical_bookings_post_like_the_reference(self, balances, booking):
        # each draw breaks one condition of the compiled path, which must then
        # fall back to the full scan with its verdict and diagnostics
        assert_posts_like_the_reference(balances, booking)

    @pytest.mark.parametrize("name", sorted(BUILDER_PAIRS))
    @pytest.mark.parametrize(
        "amounts",
        [(3.0, 5.0), (4.0, 4.0), (-0.0, 5.0), (-3.0, 5.0), (3.0, -0.5), (math.inf, 5.0),
         (3.0, math.nan)],
    )
    def test_every_single_leg_change_posts_like_the_reference(self, name, amounts):
        # exhaustive over the legs of each shape, on balances every canonical
        # booking with finite non-negative amounts fits, so that only the
        # change or the amount can send it off the compiled path
        builder, _, arity = BUILDER_PAIRS[name]
        booking = builder(*amounts[:arity])
        balances = [1e3] * len(ACCOUNT_NAMES)
        assert_posts_like_the_reference(balances, booking)
        for changed in single_leg_changes(booking.legs):
            assert_posts_like_the_reference(balances, booking._replace(legs=changed))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dividend_outflow_overdrawing_before_its_inflow(self, data):
        # AccComDiv pays out `paid` before the fresh declaration books
        # `declared` into it: a later inflow never excuses the overdraft
        com_div = data.draw(plausible)
        paid = data.draw(st.floats(min_value=com_div, max_value=2e3, exclude_min=True))
        declared = data.draw(st.floats(min_value=paid - com_div, max_value=1e4))
        balances = [1e6] * len(ACCOUNT_NAMES)
        balances[ACCOUNT_NAMES.index("AccComDiv")] = com_div
        booking = make_booking(6, paid, declared)
        assert_posts_like_the_reference(balances, booking)
        assert_posts_like_the_reference(balances, booking, post=post_by_amounts)
        with pytest.raises(ValidationFailure) as err:
            post_booking(state_of(balances), booking)
        assert err.value.diagnostics == ["insufficient-balance:AccComDiv"]

