"""Account structure, booking application, conservation and invariances."""

from __future__ import annotations

import math
import random
import struct
import sys
import traceback
from functools import partial
from typing import Mapping, NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from catledger import ledger as ledger_module
from catledger.evolution import apply_via_pushout, validate_via_pullback
from catledger.ledger import (
    _COMPILED,
    _INF,
    _KERNELS,
    _LEDGER_LENGTH,
    ACCOUNT_INDEX,
    ACCOUNT_NAMES,
    ACCOUNT_SPECS,
    BOOKINGS,
    SPEC_BY_NAME,
    Agent,
    AccountKind,
    Direction,
    Unit,
    ValidationFailure,
    _posting_kernel,
    booking_entry,
    compile_booking_table,
    conservation_status,
    init_ledger,
    invariances,
    is_debit,
    leg_statuses,
    post_booking,
    post_compiled,
    refuse_balance,
    rejection,
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
        assert SPEC_BY_NAME["AccLabBank"].unit is Unit.EU
        assert SPEC_BY_NAME["AccComLab"].unit is Unit.HOURS
        assert SPEC_BY_NAME["AccComRes"].unit is Unit.KG
        assert SPEC_BY_NAME["AccCapGood"].unit is Unit.GOOD


class TestInitLedger:
    def test_default_endowments(self):
        ledger = init_ledger()
        assert ledger[ACCOUNT_INDEX["AccComLab"]] == 110.0
        assert ledger[ACCOUNT_INDEX["AccComRes"]] == 20.0
        assert ledger[ACCOUNT_INDEX["AccLabBank"]] == 0.0

    def test_zero_endowments(self):
        assert init_ledger(0.0, 0.0) == [0.0] * len(ACCOUNT_NAMES)

    def test_negative_endowment_rejected(self):
        with pytest.raises(ValueError):
            init_ledger(-1.0, 20.0)

    @pytest.mark.parametrize(
        "endowments, named",
        [((math.nan,), "nan and 20.0"), ((110.0, math.inf), "110.0 and inf"), ((-0.5,), "-0.5")],
    )
    def test_an_endowment_outside_zero_to_inf_is_refused_by_value(self, endowments, named):
        with pytest.raises(ValueError, match=rf"^endowments must lie in \[0, inf\), got {named}"):
            init_ledger(*endowments)


class TestPostBooking:
    def test_loan_260(self):
        ledger = init_ledger()
        post_booking(ledger, 5, (260.0,))
        assert ledger[ACCOUNT_INDEX["AccComLoan"]] == 260.0
        assert ledger[ACCOUNT_INDEX["AccComBank"]] == 260.0
        assert ledger[ACCOUNT_INDEX["AccBankComLoan"]] == 260.0
        assert ledger[ACCOUNT_INDEX["AccBankComBank"]] == 260.0

    def test_all_zero_booking_is_identity(self):
        ledger = init_ledger()
        before = ledger[:]
        post_booking(ledger, 1, (0.0, 0.0))
        assert ledger == before

    def test_overdraft_rejected(self):
        ledger = init_ledger()
        ledger[ACCOUNT_INDEX["AccComBank"]] = 5.0
        ledger[ACCOUNT_INDEX["AccBankComBank"]] = 5.0
        with pytest.raises(ValidationFailure) as err:
            post_booking(ledger, 1, (10.0, 10.0 / 12.0))
        assert any("insufficient-balance" in d for d in err.value.diagnostics)

    def test_rejection_is_atomic(self):
        ledger = init_ledger()
        ledger[ACCOUNT_INDEX["AccComBank"]] = 5.0
        ledger[ACCOUNT_INDEX["AccBankComBank"]] = 5.0
        before = ledger[:]
        with pytest.raises(ValidationFailure):
            post_booking(ledger, 1, (10.0, 1.0))
        assert ledger == before


# each function that reads a ledger, called on a list of the wrong length
BY_LEDGER = {
    "post_booking": lambda ledger: post_booking(ledger, 5, (1.0,)),
    "validate_via_pullback": lambda ledger: validate_via_pullback(ledger, 5, (1.0,)),
    "validate_booking": lambda ledger: validate_booking(ledger, 5, (1.0,)),
    "invariances": invariances,
    # a refused repayment: the scan reads the whole list
    "post_booking refused": lambda ledger: post_booking(ledger, 7, (1e9,)),
    "validate_via_pullback refused": lambda ledger: validate_via_pullback(ledger, 7, (1e9,)),
}


class TestLedgerLength:
    @pytest.mark.parametrize("size", [0, 12])
    @pytest.mark.parametrize("function", sorted(BY_LEDGER))
    def test_a_short_ledger_is_refused_by_its_length_and_left_unchanged(self, function, size):
        # the loan's legs sit at positions 9, 10, 15 and 16: a list of 12
        # takes the first two before the third falls off its end
        ledger = [float(i) for i in range(size)]
        before = ledger[:]
        with pytest.raises(ValueError) as err:
            BY_LEDGER[function](ledger)
        assert str(err.value) == f"a ledger holds 20 balances, got {size}"
        assert ledger == before

    @pytest.mark.parametrize("size", [19, 21])
    @pytest.mark.parametrize("function", sorted(BY_LEDGER))
    def test_a_ledger_read_whole_is_refused_by_its_length(self, function, size):
        # every leg of the loan fits a list of 19 or 21, but a booking the
        # compiled path would accept is refused by the length all the same
        ledger = [0.0] * size
        with pytest.raises(ValueError) as err:
            BY_LEDGER[function](ledger)
        assert str(err.value) == f"a ledger holds 20 balances, got {size}"
        assert ledger == [0.0] * size


class TestValidateBooking:
    def test_wage_52_with_funds(self):
        ledger = init_ledger()
        post_booking(ledger, 5, (260.0,))
        ledger[ACCOUNT_INDEX["AccLabLab"]] = 10.0
        ok, diagnostics = validate_booking(ledger, 1, (52.0, 52.0 / 12.0))
        assert ok and diagnostics == []

    def test_drain_below_zero(self):
        ok, diagnostics = validate_booking(init_ledger(), 7, (1.0,))
        assert not ok
        assert any("insufficient-balance" in d for d in diagnostics)


class TestInvariances:
    def test_fresh_ledger_all_zero(self):
        assert invariances(init_ledger()).as_tuple() == (0.0,) * 6

    def test_first_period_style_state_all_zero(self):
        ledger = init_ledger()
        post_booking(ledger, 5, (260.0,))
        ledger[ACCOUNT_INDEX["AccResRes"]] = 100.0
        post_booking(ledger, 3, (208.0, 8.32))
        checks = invariances(ledger)
        assert checks.as_tuple() == (0.0,) * 6
        assert ledger[ACCOUNT_INDEX["AccResBank"]] == 208.0
        assert ledger[ACCOUNT_INDEX["AccBankResBank"]] == 208.0

    def test_corrupting_a_mirror_shows_up(self):
        ledger = init_ledger()
        ledger[ACCOUNT_INDEX["AccBankResBank"]] = 1.0
        checks = invariances(ledger)
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

    def test_an_unknown_id_or_the_wrong_amounts_is_refused(self):
        ledger = init_ledger()
        checks = (
            partial(post_booking, ledger),
            partial(validate_booking, ledger),
            partial(leg_statuses, ledger),
            conservation_status,
        )
        for check in checks:
            with pytest.raises(ValueError, match="unknown booking 9"):
                check(9, (1.0,))
            with pytest.raises(TypeError, match="booking 5 takes 1 amounts, got 2"):
                check(5, (1.0, 2.0))
        assert ledger == init_ledger()


class TestPostCompiled:
    @pytest.mark.parametrize("amount", [math.inf, math.nan])
    def test_a_non_finite_amount_is_refused_and_posts_nothing(self, amount):
        # every leg of the loan is an inflow: the balance an inf or nan
        # amount would make is refused at the first leg
        values = init_ledger()
        before = [struct.pack("d", value) for value in values]
        assert post_compiled(values, 5, (amount,)) is False
        assert [struct.pack("d", value) for value in values] == before


class TestQuadrupleEntry:
    def test_agents_spanned_by_each_booking(self):
        agents = {
            booking_id: {SPEC_BY_NAME[account].agent for account, _, _ in legs}
            for booking_id, (_, legs, _) in BOOKINGS.items()
        }
        assert {booking_id: len(spanned) for booking_id, spanned in agents.items()} == {
            1: 3, 2: 3, 3: 3, 4: 3, 5: 2, 6: 3, 7: 2, 8: 3
        }
        for booking_id, spanned in agents.items():
            assert oracle_booking(booking_id, (1.0,) * arity(booking_id)).agents() == spanned


def eu_debits_and_credits(booking_id: int, amounts: tuple[float, ...]) -> tuple[float, float]:
    """Independent fold over the reference booking's legs, straight from the debit/credit rule."""
    debits = credits = 0.0
    for leg in oracle_booking(booking_id, amounts).legs:
        if leg.unit is not Unit.EU:
            continue
        spec = next(s for s in ACCOUNT_SPECS if s.name == leg.account)
        if is_debit(spec.kind, leg.direction):
            debits += leg.amount
        else:
            credits += leg.amount
    return debits, credits


def random_ledger(rng: random.Random) -> list[float]:
    return [rng.uniform(0.0, 1000.0) for _ in ACCOUNT_NAMES]


def random_valid_booking(rng: random.Random, ledger: list[float]) -> tuple[int, tuple[float, ...]]:
    """A booking's id and amounts that the balances of `ledger` cover."""
    shape = rng.randint(1, 8)

    def bal(name: str) -> float:
        return ledger[ACCOUNT_INDEX[name]]
    if shape == 1:
        wages = rng.uniform(0, min(bal("AccComBank"), bal("AccBankComBank")))
        hours = rng.uniform(0, bal("AccLabLab"))
        return 1, (wages, hours)
    if shape in (2, 4, 8):
        bank = {2: "AccLabBank", 4: "AccResBank", 8: "AccCapBank"}[shape]
        mirror = {2: "AccBankLabBank", 4: "AccBankResBank", 8: "AccBankCapBank"}[shape]
        spend = rng.uniform(0, min(bal(bank), bal(mirror)))
        quantity = rng.uniform(0, bal("AccComGood"))
        return shape, (spend, quantity)
    if shape == 3:
        spend = rng.uniform(0, min(bal("AccComBank"), bal("AccBankComBank")))
        kilograms = rng.uniform(0, bal("AccResRes"))
        return 3, (spend, kilograms)
    if shape == 5:
        return 5, (rng.uniform(0, 500.0),)
    if shape == 7:
        ceiling = min(
            bal("AccComBank"), bal("AccComLoan"), bal("AccBankComLoan"), bal("AccBankComBank")
        )
        return 7, (rng.uniform(0, ceiling),)
    paid = rng.uniform(
        0, min(bal("AccComBank"), bal("AccBankComBank"), bal("AccCapDiv"), bal("AccComDiv"))
    )
    return 6, (paid, rng.uniform(0, 100.0))


class TestConservationProperty:
    def test_thousand_randomized_valid_bookings(self):
        rng = random.Random(424242)
        posted = 0
        while posted < 1000:
            ledger = random_ledger(rng)
            booking_id, amounts = random_valid_booking(rng, ledger)
            debits, credits = eu_debits_and_credits(booking_id, amounts)
            assert debits == credits, (booking_id, amounts)
            post_booking(ledger, booking_id, amounts)
            assert all(balance >= 0.0 for balance in ledger)
            posted += 1

    def test_reject_dont_clamp_path(self):
        rng = random.Random(911)
        rejected = 0
        for _ in range(300):
            ledger = random_ledger(rng)
            # ask for more than any balance can cover
            before = ledger[:]
            with pytest.raises(ValidationFailure):
                post_booking(ledger, 7, (2000.0,))
            assert ledger == before
            rejected += 1
        assert rejected == 300

    def test_imbalanced_booking_caught(self):
        # the table conserves every finite amount; a NaN loan makes every
        # balance it posts to nan, and fails nan == nan
        ledger = init_ledger()
        ledger[ACCOUNT_INDEX["AccComBank"]] = 100.0
        ok, diagnostics = validate_booking(ledger, 5, (math.nan,))
        assert not ok
        assert diagnostics == [
            "non-finite-balance:AccComBank",
            "non-finite-balance:AccComLoan",
            "non-finite-balance:AccBankComLoan",
            "non-finite-balance:AccBankComBank",
            "eu-imbalance:nan!=nan",
        ]
        assert (ok, diagnostics) == oracle_validate_booking(ledger, oracle_make_loan(math.nan))

    def test_real_leg_imbalance_caught(self):
        # kilograms of inf delivered net to -inf + inf, which is nan; the
        # delivery would make the company's stock inf
        ledger = init_ledger()
        ledger[ACCOUNT_INDEX["AccResRes"]] = 5.0
        ok, diagnostics = validate_booking(ledger, 3, (0.0, math.inf))
        assert not ok
        assert diagnostics == [
            "insufficient-balance:AccResRes",
            "non-finite-balance:AccComRes",
            "real-imbalance:kg:nan",
        ]
        reference = oracle_make_resource_purchase(0.0, math.inf)
        assert (ok, diagnostics) == oracle_validate_booking(ledger, reference)


class TestRefuseBalance:
    def test_the_first_negative_position_is_named(self):
        values = init_ledger()
        values[ACCOUNT_INDEX["AccLabBank"]] = -5.0
        values[ACCOUNT_INDEX["AccComBank"]] = -1.0
        opening = list(values)
        positions = [ACCOUNT_INDEX[name] for name in ("AccComGood", "AccLabBank", "AccComBank")]
        with pytest.raises(ValidationFailure) as err:
            refuse_balance(values, positions)
        assert str(err.value) == "balance of 'AccLabBank' would become negative (-5.0)"
        assert err.value.diagnostics == [] and err.value.period is None
        assert values == opening  # a check only: nothing is written

    @pytest.mark.parametrize("value, written", [(math.nan, "nan"), (math.inf, "inf")])
    def test_zero_passes_nan_and_inf_are_refused_and_other_positions_are_not_read(
        self, value, written
    ):
        values = init_ledger()
        values[ACCOUNT_INDEX["AccComBank"]] = 0.1
        values[ACCOUNT_INDEX["AccComGood"]] = value
        values[ACCOUNT_INDEX["AccLabBank"]] = -5.0
        passing = [ACCOUNT_INDEX["AccComBank"], ACCOUNT_INDEX["AccLabGood"]]
        assert refuse_balance(values, passing) is None
        assert refuse_balance(values, ()) is None
        with pytest.raises(ValidationFailure) as err:
            refuse_balance(values, passing + [ACCOUNT_INDEX["AccComGood"]])
        assert str(err.value) == f"balance of 'AccComGood' would become non-finite ({written})"
        assert err.value.diagnostics == [] and err.value.period is None


# ---------------------------------------------------------------------------
# Reference ledger: the original booking values, leg checks and posting, so
# the table-driven versions can be held to exactly the same outcomes.  It is
# kept as it was but for one branch: a leg whose running balance would be inf
# or nan is `non-finite-balance`, the rule the table-driven posting follows,
# under which no accepted booking leaves a non-finite balance.
# ---------------------------------------------------------------------------


class BookingLeg(NamedTuple):
    account: str
    direction: Direction
    amount: float
    unit: Unit


class Channel(NamedTuple):
    """One directed value transfer of a booking, for the flow graph."""

    src: str
    dst: str
    amount: float
    unit: Unit
    label: str = ""


class Booking(NamedTuple):
    """One of the 8 yearly macro bookings, as double-entry legs plus channels."""

    id: int
    description: str
    legs: tuple[BookingLeg, ...]
    channels: tuple[Channel, ...] = ()

    def agents(self) -> set[Agent]:
        return {SPEC_BY_NAME[leg.account].agent for leg in self.legs}


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
        if not math.isfinite(new):
            statuses.append(f"non-finite-balance:{leg.account}")
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


def oracle_validate_booking(ledger: list[float], booking: Booking) -> tuple[bool, list[str]]:
    balances = dict(zip(ACCOUNT_NAMES, ledger))
    diagnostics = [s for s in oracle_leg_statuses(balances, booking) if s != "ok"]
    cons = oracle_conservation_status(booking)
    if cons != "ok":
        diagnostics.append(cons)
    return not diagnostics, diagnostics


def oracle_checked_balance(name: str, value: float) -> float:
    if value < 0.0:
        raise ValidationFailure(f"balance of {name!r} would become negative ({value})")
    return value


def oracle_post_booking(ledger: list[float], booking: Booking) -> list[float]:
    ok, diagnostics = oracle_validate_booking(ledger, booking)
    if not ok:
        raise ValidationFailure(
            f"booking {booking.id} ({booking.description}) rejected", diagnostics
        )
    for leg in booking.legs:
        index = ACCOUNT_INDEX[leg.account]
        if leg.direction is Direction.INFLOW:
            ledger[index] = oracle_checked_balance(leg.account, ledger[index] + leg.amount)
        else:
            ledger[index] = oracle_checked_balance(leg.account, ledger[index] - leg.amount)
    return ledger


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


# (booking id, its reference builder, number of amounts it takes)
BUILDER_PAIRS = {
    "goods_sale_lab": (2, partial(oracle_make_goods_sale, Agent.LAB), 2),
    "goods_sale_res": (4, partial(oracle_make_goods_sale, Agent.RES), 2),
    "goods_sale_cap": (8, partial(oracle_make_goods_sale, Agent.CAP), 2),
    "wage_payment": (1, oracle_make_wage_payment, 2),
    "resource_purchase": (3, oracle_make_resource_purchase, 2),
    "loan": (5, oracle_make_loan, 1),
    "repayment": (7, oracle_make_repayment, 1),
    "dividend": (6, oracle_make_dividend, 2),
}
_ORACLE_BUILDERS = {booking_id: builder for booking_id, builder, _ in BUILDER_PAIRS.values()}


def oracle_booking(booking_id: int, amounts: tuple[float, ...]) -> Booking:
    """The reference builder's booking for `booking_id` and its amounts."""
    return _ORACLE_BUILDERS[booking_id](*amounts)


def arity(booking_id: int) -> int:
    return 1 + max(slot for _, _, slot in BOOKINGS[booking_id][1])


def table_booking(booking_id: int, amounts: tuple[float, ...]) -> Booking:
    """Booking `booking_id` as `BOOKINGS` declares it, slot i carrying amounts[i]."""
    description, legs, channels = BOOKINGS[booking_id]
    built = tuple(
        BookingLeg(account, direction, amounts[slot], SPEC_BY_NAME[account].unit)
        for account, direction, slot in legs
    )
    flows = tuple(
        Channel(built[src].account, built[dst].account, built[src].amount, built[src].unit, label)
        for src, dst, label in channels
    )
    return Booking(booking_id, description, built, flows)


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


def canonical_bookings(amount: st.SearchStrategy[float]) -> st.SearchStrategy[tuple]:
    """A booking's id and amounts, each amount drawn from `amount`."""
    return st.one_of(
        st.tuples(st.sampled_from([1, 2, 3, 4, 6, 8]), st.tuples(amount, amount)),
        st.tuples(st.sampled_from([5, 7]), st.tuples(amount)),
    )


bookings = st.one_of(canonical_bookings(plausible), canonical_bookings(amounts))


@st.composite
def boundary_bookings(draw) -> tuple[list[float], int, tuple[float, ...]]:
    """Balances, and a booking's id and amounts, each amount at the balance
    of an outflow leg of its slot, one ulp either side of it, or any float."""
    balances = draw(balance_lists)
    booking_id = draw(st.sampled_from(sorted(BOOKINGS)))
    legs = BOOKINGS[booking_id][1]
    drawn = []
    for slot in range(arity(booking_id)):
        outflows = [
            balances[ACCOUNT_NAMES.index(account)]
            for account, direction, leg_slot in legs
            if leg_slot == slot and direction is Direction.OUTFLOW
        ]
        exact = draw(st.sampled_from(outflows)) if outflows else draw(plausible)
        near = [exact, math.nextafter(exact, math.inf), math.nextafter(exact, 0.0)]
        drawn.append(draw(st.one_of(st.sampled_from(near), amounts)))
    return balances, booking_id, tuple(drawn)


def balance_bits(ledger: list[float]) -> list[bytes]:
    return [struct.pack("d", balance) for balance in ledger]


def assert_posts_like_the_reference(
    balances: list[float], booking_id: int, amounts: tuple[float, ...], post=post_booking
) -> None:
    """`post(ledger, booking_id, amounts)` accepts or rejects as the reference
    does, with the same message and diagnostics, and leaves bit-identical
    balances."""
    ours, reference = list(balances), list(balances)
    untouched = balance_bits(ours)
    try:
        oracle_post_booking(reference, oracle_booking(booking_id, amounts))
    except ValidationFailure as exc:
        with pytest.raises(ValidationFailure) as err:
            post(ours, booking_id, amounts)
        assert str(err.value) == str(exc)
        assert err.value.diagnostics == exc.diagnostics
        assert balance_bits(ours) == untouched
    else:
        post(ours, booking_id, amounts)
    assert balance_bits(ours) == balance_bits(reference)


def post_by_the_gate_and_fold(
    ledger: list[float], booking_id: int, amounts: tuple[float, ...]
) -> list[float]:
    """Post through the categorical reference: the all-'ok' pullback gate, then
    the pushout fold, a loop over the compiled legs apart from the kernel."""
    ok, diagnostics = validate_via_pullback(ledger, booking_id, amounts)
    if not ok:
        raise rejection(booking_id, diagnostics)
    apply_via_pushout(ledger, booking_id, amounts)
    return ledger


class TestReferenceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(balance_lists, bookings)
    def test_validate_booking_matches_the_reference(self, balances, booking):
        booking_id, drawn = booking
        reference = oracle_validate_booking(list(balances), oracle_booking(booking_id, drawn))
        assert validate_booking(balances, booking_id, drawn) == reference

    @settings(max_examples=200, deadline=None)
    @given(balance_lists, bookings)
    def test_leg_checks_match_the_reference(self, balances, booking):
        # also the categorical gate, which reaches them through the same scan
        booking_id, drawn = booking
        reference = oracle_booking(booking_id, drawn)
        untouched = [struct.pack("d", value) for value in balances]
        opening = dict(zip(ACCOUNT_NAMES, balances))
        assert leg_statuses(balances, booking_id, drawn) == oracle_leg_statuses(opening, reference)
        assert conservation_status(booking_id, drawn) == oracle_conservation_status(reference)
        assert validate_via_pullback(balances, booking_id, drawn) == (
            oracle_validate_booking(list(balances), reference)
        )
        assert [struct.pack("d", value) for value in balances] == untouched

    @pytest.mark.parametrize("name", sorted(BUILDER_PAIRS))
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(), min_size=2, max_size=2))
    def test_table_matches_the_reference_builder(self, name, drawn):
        # st.floats() draws nan, both infinities, negatives and -0.0 as well
        booking_id, reference, size = BUILDER_PAIRS[name]
        built, expected = table_booking(booking_id, drawn[:size]), reference(*drawn[:size])
        assert booking_bits(built) == booking_bits(expected)
        assert built == expected

    @settings(max_examples=200, deadline=None)
    @given(balance_lists, bookings)
    def test_post_booking_matches_the_reference(self, balances, booking):
        assert_posts_like_the_reference(balances, *booking)

    @pytest.mark.parametrize("name", sorted(BUILDER_PAIRS))
    @settings(max_examples=100, deadline=None)
    @given(balance_lists, st.lists(amounts, min_size=2, max_size=2))
    def test_each_booking_posts_like_the_reference(self, name, balances, drawn):
        # straight from the table while every amount and balance allows it,
        # else through the scan, restoring the list first
        booking_id, _, size = BUILDER_PAIRS[name]
        assert_posts_like_the_reference(balances, booking_id, tuple(drawn[:size]))

    @settings(max_examples=400, deadline=None)
    @given(boundary_bookings())
    def test_amounts_at_a_balance_post_like_the_reference(self, drawn):
        # an amount at an outflow's balance posts, one ulp over it must fall
        # back to the scan with its verdict and diagnostics
        assert_posts_like_the_reference(*drawn)

    @pytest.mark.parametrize("name", sorted(BUILDER_PAIRS))
    @pytest.mark.parametrize(
        "drawn",
        [(3.0, 5.0), (4.0, 4.0), (-0.0, 5.0), (-3.0, 5.0), (3.0, -0.5), (math.inf, 5.0),
         (3.0, math.nan)],
    )
    def test_listed_amounts_post_like_the_reference(self, name, drawn):
        # on balances every canonical booking with finite non-negative
        # amounts fits, so that only the amount can send it off the table
        booking_id, _, size = BUILDER_PAIRS[name]
        balances = [1e3] * len(ACCOUNT_NAMES)
        assert_posts_like_the_reference(balances, booking_id, drawn[:size])

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
        assert_posts_like_the_reference(balances, 6, (paid, declared))
        assert_posts_like_the_reference(balances, 6, (paid, declared), post_by_the_gate_and_fold)
        with pytest.raises(ValidationFailure) as err:
            post_booking(list(balances), 6, (paid, declared))
        assert err.value.diagnostics == ["insufficient-balance:AccComDiv"]


class TestOneVerdict:
    @settings(max_examples=300, deadline=None)
    @given(balance_lists, bookings)
    @example([10.0] * len(ACCOUNT_NAMES), (5, (math.inf,)))
    @example([10.0] * len(ACCOUNT_NAMES), (6, (1.0, math.inf)))
    @example([math.nan] * len(ACCOUNT_NAMES), (5, (1.0,)))
    def test_every_check_gives_the_posting_loop_s_verdict(self, balances, booking):
        # the scan, the posting loop, the atomic post and the categorical gate
        # follow one rule, and a booking that posts leaves its accounts finite
        booking_id, drawn = booking
        verdict = validate_booking(balances, booking_id, drawn)[0]
        assert post_compiled(balances[:], booking_id, drawn) is verdict
        assert validate_via_pullback(balances, booking_id, drawn)[0] is verdict
        posted = list(balances)
        try:
            post_booking(posted, booking_id, drawn)
        except ValidationFailure:
            assert not verdict
            assert balance_bits(posted) == balance_bits(balances)
        else:
            assert verdict
            accounts = {ACCOUNT_INDEX[account] for account, _, _ in BOOKINGS[booking_id][1]}
            assert all(0.0 <= posted[i] < math.inf for i in accounts)


# every way an amount is refused: more than any balance holds, nan, +inf and
# a negative amount, in every slot of the booking
REFUSED = {"overdraft": 1e6, "nan": math.nan, "inf": math.inf, "negative": -1.0}


class TestRejectionMessages:
    @pytest.mark.parametrize("kind", sorted(REFUSED))
    @pytest.mark.parametrize("booking_id", sorted(BOOKINGS))
    def test_every_path_rejects_as_the_reference_does(self, booking_id, kind):
        balances = [10.0] * len(ACCOUNT_NAMES)
        drawn = (REFUSED[kind],) * arity(booking_id)
        reference = oracle_booking(booking_id, drawn)
        verdict = oracle_validate_booking(list(balances), reference)
        # a loan only adds to accounts: only an amount that is finite and
        # not negative posts it, and an inf loan's balances would be inf
        assert verdict[0] is (booking_id == 5 and kind == "overdraft")
        for post in (post_booking, post_by_the_gate_and_fold):
            assert_posts_like_the_reference(balances, booking_id, drawn, post)
        assert validate_booking(balances, booking_id, drawn) == verdict
        assert validate_via_pullback(balances, booking_id, drawn) == verdict
        assert balances == [10.0] * len(ACCOUNT_NAMES)


# ---------------------------------------------------------------------------
# The posting kernels against the leg loop they replace.
# ---------------------------------------------------------------------------


def oracle_post_compiled(values: list[float], booking_id: int, amounts: tuple[float, ...]) -> bool:
    """The leg loop that posted compiled bookings before the kernels: False at the
    first leg that cannot, with the legs before it posted."""
    _, arity, legs, _, _ = booking_entry(_COMPILED, booking_id)
    if len(values) != _LEDGER_LENGTH or len(amounts) != arity:
        return False
    for index, inflow, slot in legs:
        amount = amounts[slot]
        if amount < 0.0:
            return False
        new = values[index] + amount if inflow else values[index] - amount
        if not 0.0 <= new < _INF:
            return False
        values[index] = new
    return True


# the floats at the edges of the posting rule: signed zeros, the smallest
# subnormal, values near the largest float, the infinities and nan
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1.0, 1.7e308, sys.float_info.max, -1.7e308,
    math.inf, -math.inf, math.nan,
]
edge_floats = st.one_of(st.sampled_from(EDGE_FLOATS), plausible, st.floats())
# what balances and amounts are drawn from: mostly posting, mostly refused,
# and balances up to the largest float, which plausible amounts still post onto
KERNEL_DRAWS = [
    (plausible, plausible),
    (edge_floats, edge_floats),
    (st.floats(min_value=1e3, max_value=sys.float_info.max), plausible),
]


class TestKernelDifferential:
    @pytest.mark.parametrize("booking_id", sorted(BOOKINGS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_kernel_posts_as_the_leg_loop_did(self, booking_id, data):
        # on True every balance matches the loop's bit for bit; on False the
        # loop may have posted some legs, the kernel none
        balance, amount = data.draw(st.sampled_from(KERNEL_DRAWS))
        balances = data.draw(st.lists(balance, min_size=20, max_size=20))
        size = arity(booking_id)
        drawn = tuple(data.draw(st.lists(amount, min_size=size, max_size=size)))
        ours, loop = list(balances), list(balances)
        verdict = oracle_post_compiled(loop, booking_id, drawn)
        assert post_compiled(ours, booking_id, drawn) is verdict
        assert balance_bits(ours) == balance_bits(loop if verdict else balances)

    @pytest.mark.parametrize("booking_id", sorted(BOOKINGS))
    def test_a_list_or_amounts_of_the_wrong_length_post_nothing(self, booking_id):
        size = arity(booking_id)
        cases = [([1e3] * 19, (1.0,) * size), ([1e3] * 21, (1.0,) * size)]
        cases += [([1e3] * 20, (1.0,) * (size - 1)), ([1e3] * 20, (1.0,) * (size + 1))]
        for balances, drawn in cases:
            ours = list(balances)
            assert oracle_post_compiled(list(balances), booking_id, drawn) is False
            assert post_compiled(ours, booking_id, drawn) is False
            assert ours == balances


def leg_failures() -> list[tuple[int, int, str, list[float], tuple[float, ...], str]]:
    """Each way found to make a leg the first of its booking that fails: an
    overdraft, a nan balance, or an overflow to inf.

    Every other amount is 1.0 and every other balance 1e3, or 1e301 where
    the leg's slot carries 1e300 to overflow it, so that no other leg fails
    first.  An (id, leg, kind) that still fails elsewhere first is left out:
    an inflow cannot overdraw, nor an outflow overflow, an account that a
    leg before it left in range.
    """
    found = []
    for booking_id, (_, legs, _) in sorted(BOOKINGS.items()):
        for leg, (account, direction, slot) in enumerate(legs):
            for kind in ("overdraft", "nan", "overflow"):
                balances = [1e301 if kind == "overflow" else 1e3] * len(ACCOUNT_NAMES)
                drawn = [1.0] * arity(booking_id)
                at = ACCOUNT_INDEX[account]
                if kind == "overdraft":
                    balances[at] = 0.5 if direction is Direction.OUTFLOW else -2.0
                elif kind == "nan":
                    balances[at] = math.nan
                else:
                    balances[at], drawn[slot] = sys.float_info.max, 1e300
                statuses = leg_statuses(balances, booking_id, tuple(drawn))
                status = ("insufficient" if kind == "overdraft" else "non-finite") + "-balance"
                if statuses[:leg] == ["ok"] * leg and statuses[leg] == f"{status}:{account}":
                    found.append((booking_id, leg, kind, balances, tuple(drawn), status))
    return found


LEG_FAILURES = leg_failures()


class TestAtomicWithoutACopy:
    def test_every_leg_of_every_booking_can_fail_first(self):
        covered = {(booking_id, leg) for booking_id, leg, *_ in LEG_FAILURES}
        legs = {(b, leg) for b, (_, entry, _) in BOOKINGS.items() for leg in range(len(entry))}
        assert covered == legs
        kinds = {kind for _, _, kind, *_ in LEG_FAILURES}
        assert kinds == {"overdraft", "nan", "overflow"}

    @pytest.mark.parametrize(
        "case", LEG_FAILURES, ids=[f"b{b}-leg{leg}-{kind}" for b, leg, kind, *_ in LEG_FAILURES]
    )
    def test_a_leg_failing_first_raises_as_before_and_writes_nothing(self, case):
        booking_id, leg, kind, balances, drawn, _ = case
        ours, untouched = list(balances), balance_bits(balances)
        expected = rejection(booking_id, validate_booking(balances, booking_id, drawn)[1])
        with pytest.raises(ValidationFailure) as err:
            post_booking(ours, booking_id, drawn)
        assert str(err.value) == str(expected)
        assert err.value.diagnostics == expected.diagnostics
        assert err.value.diagnostics[0] == leg_statuses(balances, booking_id, drawn)[leg]
        assert balance_bits(ours) == untouched
        # the loop would have posted the legs before the failing one (an
        # amount of 1.0 leaves a balance of 1e301 as it was)
        loop = list(balances)
        assert oracle_post_compiled(loop, booking_id, drawn) is False
        if kind != "overflow":
            assert (balance_bits(loop) == untouched) is (leg == 0)
        assert_posts_like_the_reference(balances, booking_id, drawn)


class TestKernelSource:
    def test_a_leg_of_another_type_is_refused_before_any_source_compiles(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(ledger_module, "compile", compiled.append, raising=False)
        description, size, legs, sides, channels = _COMPILED[1]
        for leg in [("0); import os #", True, 0), (9, 1, 0), (True, False, 0), (9, False, 0.0)]:
            entry = (description, size, (leg, *legs[1:]), sides, channels)
            with pytest.raises(ValueError, match=r"^booking 1: cannot compile a kernel from "):
                _posting_kernel(1, entry)
        with pytest.raises(ValueError, match=r"^booking 1: cannot compile a kernel from '2'$"):
            _posting_kernel(1, (description, "2", legs, sides, channels))
        assert compiled == []

    def test_a_traceback_names_the_booking_s_kernel(self):
        values = init_ledger()
        values[ACCOUNT_INDEX["AccComBank"]] = "not a balance"
        with pytest.raises(TypeError) as err:
            post_compiled(values, 5, (1.0,))
        assert traceback.extract_tb(err.tb)[-1].filename == "<booking 5 kernel>"
        assert _KERNELS[5].__code__.co_filename == "<booking 5 kernel>"
