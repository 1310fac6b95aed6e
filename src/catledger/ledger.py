"""The 20 typed T-accounts of the five sectors, bookings and invariances.

Five sectors interact through yearly bookings: a labor owner (Lab), a
resource owner (Res), a producing company (Com), a dividend owner (Cap)
and the Bank.  Each sector keeps a double-entry system of T-accounts;
every balance is a non-negative magnitude in one fixed unit (EU for
nominal accounts, hours / kg / goods for the real ones).  An outflow on a
liability account means the liability shrinks, so no account ever needs a
signed balance.

A macro booking posts the same amount into at least two sectors'
double-entry systems at once.  Posting rejects rather than clamps: a leg
that would drive a balance negative is a hard validation error and the
state is left untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

DEFAULT_CREDIT_LIMIT = math.inf


class Agent(Enum):
    LAB = "Lab"
    RES = "Res"
    COM = "Com"
    CAP = "Cap"
    BANK = "Bank"


class Unit(Enum):
    EU = "EU"
    HOURS = "h"
    KG = "kg"
    GOOD = "G"


class AccountKind(Enum):
    ASSET = "Asset"
    LIABILITY = "Liability"


class Direction(Enum):
    INFLOW = "in"
    OUTFLOW = "out"


@dataclass(frozen=True)
class AccountSpec:
    name: str
    agent: Agent
    kind: AccountKind
    unit: Unit


# Canonical account table, in trace column order.
ACCOUNT_SPECS: tuple[AccountSpec, ...] = (
    AccountSpec("AccLabBank", Agent.LAB, AccountKind.ASSET, Unit.EU),
    AccountSpec("AccLabLab", Agent.LAB, AccountKind.ASSET, Unit.HOURS),
    AccountSpec("AccLabGood", Agent.LAB, AccountKind.ASSET, Unit.GOOD),
    AccountSpec("AccResBank", Agent.RES, AccountKind.ASSET, Unit.EU),
    AccountSpec("AccResRes", Agent.RES, AccountKind.ASSET, Unit.KG),
    AccountSpec("AccResGood", Agent.RES, AccountKind.ASSET, Unit.GOOD),
    AccountSpec("AccCapBank", Agent.CAP, AccountKind.ASSET, Unit.EU),
    AccountSpec("AccCapDiv", Agent.CAP, AccountKind.ASSET, Unit.EU),
    AccountSpec("AccCapGood", Agent.CAP, AccountKind.ASSET, Unit.GOOD),
    AccountSpec("AccComBank", Agent.COM, AccountKind.ASSET, Unit.EU),
    AccountSpec("AccComLoan", Agent.COM, AccountKind.LIABILITY, Unit.EU),
    AccountSpec("AccComDiv", Agent.COM, AccountKind.LIABILITY, Unit.EU),
    AccountSpec("AccComRes", Agent.COM, AccountKind.ASSET, Unit.KG),
    AccountSpec("AccComLab", Agent.COM, AccountKind.ASSET, Unit.HOURS),
    AccountSpec("AccComGood", Agent.COM, AccountKind.ASSET, Unit.GOOD),
    AccountSpec("AccBankComLoan", Agent.BANK, AccountKind.ASSET, Unit.EU),
    AccountSpec("AccBankComBank", Agent.BANK, AccountKind.LIABILITY, Unit.EU),
    AccountSpec("AccBankLabBank", Agent.BANK, AccountKind.LIABILITY, Unit.EU),
    AccountSpec("AccBankResBank", Agent.BANK, AccountKind.LIABILITY, Unit.EU),
    AccountSpec("AccBankCapBank", Agent.BANK, AccountKind.LIABILITY, Unit.EU),
)

ACCOUNT_NAMES: tuple[str, ...] = tuple(spec.name for spec in ACCOUNT_SPECS)
SPEC_BY_NAME: dict[str, AccountSpec] = {spec.name: spec for spec in ACCOUNT_SPECS}

assert sum(1 for s in ACCOUNT_SPECS if s.kind is AccountKind.ASSET) == 14
assert sum(1 for s in ACCOUNT_SPECS if s.kind is AccountKind.LIABILITY) == 6


class LedgerError(Exception):
    pass


class UnknownAccountError(LedgerError):
    pass


class ValidationFailure(LedgerError):
    """A booking was rejected; `diagnostics` lists every failed check.

    `period` is the simulated period the rejection happened in, recorded by
    `evolution.run`; it stays None when the failure arose outside a run.
    """

    def __init__(self, message: str, diagnostics: list[str] | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or []
        self.period: int | None = None


@dataclass
class Account:
    agent: Agent
    name: str
    kind: AccountKind
    unit: Unit
    balance: float = 0.0


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


def is_debit(kind: AccountKind, direction: Direction) -> bool:
    """Debit = asset inflow or liability outflow; credit is the mirror."""
    if kind is AccountKind.ASSET:
        return direction is Direction.INFLOW
    return direction is Direction.OUTFLOW


# What the leg checks read of an account: its unit, the direction that debits
# it and the unit's string.  The string keys the per-unit sums, because an
# Enum member hashes through Python code.
_LEG_SPECS: dict[str, tuple[Unit, Direction, str]] = {
    spec.name: (
        spec.unit,
        Direction.INFLOW if is_debit(spec.kind, Direction.INFLOW) else Direction.OUTFLOW,
        spec.unit.value,
    )
    for spec in ACCOUNT_SPECS
}


class LedgerState:
    """Balances of the 20 accounts; value-semantic via `copy()`."""

    def __init__(self) -> None:
        self._accounts: dict[str, Account] = {
            spec.name: Account(spec.agent, spec.name, spec.kind, spec.unit)
            for spec in ACCOUNT_SPECS
        }

    def copy(self) -> "LedgerState":
        clone = LedgerState.__new__(LedgerState)
        clone._accounts = {
            name: Account(acct.agent, name, acct.kind, acct.unit, acct.balance)
            for name, acct in self._accounts.items()
        }
        return clone

    def account(self, name: str) -> Account:
        try:
            return self._accounts[name]
        except KeyError:
            raise UnknownAccountError(f"unknown account {name!r}") from None

    def balance(self, name: str) -> float:
        return self.account(name).balance

    def set_balance(self, name: str, value: float) -> None:
        if value < 0.0:
            raise ValidationFailure(f"balance of {name!r} would become negative ({value})")
        self.account(name).balance = value

    def balances(self) -> dict[str, float]:
        return {name: acct.balance for name, acct in self._accounts.items()}

    def __iter__(self) -> Iterable[Account]:
        return iter(self._accounts.values())


def init_ledger(com_lab_0: float = 110.0, com_res_0: float = 20.0) -> LedgerState:
    """Fresh ledger: everything zero except the company's input stocks."""
    if com_lab_0 < 0.0 or com_res_0 < 0.0:
        raise ValueError("endowments must be non-negative")
    state = LedgerState()
    state.set_balance("AccComLab", float(com_lab_0))
    state.set_balance("AccComRes", float(com_res_0))
    return state


def leg_statuses(balances: Mapping[str, float], booking: Booking) -> list[str]:
    """Per-leg status strings: 'ok' or the reason the leg fails.

    Feasibility is checked sequentially in leg order on a scratch copy, so
    a later inflow cannot excuse an earlier overdraft.
    """
    scratch = dict(balances)
    statuses: list[str] = []
    for leg in booking.legs:
        spec = _LEG_SPECS.get(leg.account)
        if spec is None:
            statuses.append(f"unknown-account:{leg.account}")
            continue
        if leg.unit is not spec[0]:
            statuses.append(f"unit-mismatch:{leg.account}:{leg.unit.value}!={spec[2]}")
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


def conservation_status(booking: Booking) -> str:
    """'ok' when EU debits equal EU credits exactly and every real unit nets out.

    Amounts are copied between legs, never recomputed, so the comparison is
    exact with no tolerance.
    """
    debits = 0.0
    credits = 0.0
    real_net: dict[str, float] = {}
    for leg in booking.legs:
        spec = _LEG_SPECS.get(leg.account)
        if spec is None or leg.unit is not spec[0]:
            return "untypable"
        if leg.unit is Unit.EU:
            if leg.direction is spec[1]:
                debits += leg.amount
            else:
                credits += leg.amount
        else:
            sign = 1.0 if leg.direction is Direction.INFLOW else -1.0
            unit = spec[2]
            real_net[unit] = real_net.get(unit, 0.0) + sign * leg.amount
    if debits != credits:
        return f"eu-imbalance:{debits}!={credits}"
    for unit, net in real_net.items():
        if net != 0.0:
            return f"real-imbalance:{unit}:{net}"
    return "ok"


def validate_booking(state: LedgerState, booking: Booking) -> tuple[bool, list[str]]:
    """True plus diagnostics iff every leg types, fits, and value is conserved."""
    accounts = state._accounts
    touched = {
        leg.account: accounts[leg.account].balance
        for leg in booking.legs
        if leg.account in accounts
    }
    diagnostics = [s for s in leg_statuses(touched, booking) if s != "ok"]
    cons = conservation_status(booking)
    if cons != "ok":
        diagnostics.append(cons)
    return not diagnostics, diagnostics


def post_booking(state: LedgerState, booking: Booking) -> LedgerState:
    """Apply a booking in place after full validation; atomic on failure."""
    ok, diagnostics = validate_booking(state, booking)
    if not ok:
        raise ValidationFailure(
            f"booking {booking.id} ({booking.description}) rejected", diagnostics
        )
    accounts = state._accounts
    for leg in booking.legs:
        acct = accounts[leg.account]
        if leg.direction is Direction.INFLOW:
            acct.balance = acct.balance + leg.amount
        else:
            acct.balance = acct.balance - leg.amount
    return state


@dataclass(frozen=True)
class Invariances:
    """The six cross-system equalities that a consistent state keeps at zero."""

    lab_bank: float
    res_bank: float
    cap_bank: float
    com_bank: float
    com_loan: float
    macro: float

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (
            self.lab_bank,
            self.res_bank,
            self.cap_bank,
            self.com_bank,
            self.com_loan,
            self.macro,
        )

    def max_abs(self) -> float:
        return max(abs(v) for v in self.as_tuple())


def invariances(state: LedgerState) -> Invariances:
    """Differences between each agent-side account and its bank-side mirror.

    The macro value sums the five: the Bank balances exactly when every
    deposit and the loan agree across the two systems keeping them.
    """
    lab = state.balance("AccLabBank") - state.balance("AccBankLabBank")
    res = state.balance("AccResBank") - state.balance("AccBankResBank")
    cap = state.balance("AccCapBank") - state.balance("AccBankCapBank")
    com = state.balance("AccComBank") - state.balance("AccBankComBank")
    loan = state.balance("AccBankComLoan") - state.balance("AccComLoan")
    return Invariances(lab, res, cap, com, loan, lab + res + cap + com + loan)


def investment_validation(
    investment: float, capacity: float, credit_limit: float = DEFAULT_CREDIT_LIMIT
) -> int:
    """1 iff the requested investment fits the company's capacity plus credit."""
    return 1 if investment <= capacity + credit_limit else 0


# ---------------------------------------------------------------------------
# Builders for the 8 canonical bookings.  Leg order inside each booking is
# fixed; both engines rely on it for bit-identical balance arithmetic.
# ---------------------------------------------------------------------------

# consumer -> (booking id, description, bank account, goods account, bank mirror)
_GOODS_SALES = {
    Agent.LAB: (2, "Lab buys Good from Com", "AccLabBank", "AccLabGood", "AccBankLabBank"),
    Agent.RES: (4, "Res buys Good from Com", "AccResBank", "AccResGood", "AccBankResBank"),
    Agent.CAP: (8, "Cap buys Good from Com", "AccCapBank", "AccCapGood", "AccBankCapBank"),
}


def make_goods_sale(consumer: Agent, spend: float, quantity: float) -> Booking:
    """Bookings 2/4/8: a consumer pays `spend` EU via bank for `quantity` goods."""
    booking_id, description, bank_acct, good_acct, mirror = _GOODS_SALES[consumer]
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


def make_wage_payment(wages: float, hours: float) -> Booking:
    """Booking 1: Com pays due wages, Lab delivers the contracted hours."""
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


def make_resource_purchase(spend: float, kilograms: float) -> Booking:
    """Booking 3: Com pays for resources, delivered immediately."""
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


def make_loan(amount: float) -> Booking:
    """Booking 5: loan creation; every leg grows, funded by the new debt."""
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


def make_repayment(amount: float) -> Booking:
    """Booking 7: loan repayment; both systems shrink by the installments."""
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


def make_dividend(paid: float, declared: float) -> Booking:
    """Booking 6: pay out last period's declared dividend, then declare anew.

    Settlement clears both dividend accounts by the paid amount; the fresh
    declaration books the newly decided amount into them, so after posting
    they hold exactly the declared-but-unpaid dividend.
    """
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
