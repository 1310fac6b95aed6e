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
from typing import Mapping, NamedTuple

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
# position of each account in a ledger's list of balances
ACCOUNT_INDEX: dict[str, int] = {name: index for index, name in enumerate(ACCOUNT_NAMES)}

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


def checked_balance(name: str, value: float) -> float:
    """`value`, refused as the balance of account `name` if negative (a NaN passes)."""
    if value < 0.0:
        raise ValidationFailure(f"balance of {name!r} would become negative ({value})")
    return value


class Account:
    """One account of a ledger: its spec, and a view of its balance in the ledger's list."""

    __slots__ = ("_values", "_index", "agent", "name", "kind", "unit")

    def __init__(self, values: list[float], index: int) -> None:
        spec = ACCOUNT_SPECS[index]
        self._values, self._index = values, index
        self.agent, self.name, self.kind, self.unit = spec.agent, spec.name, spec.kind, spec.unit

    @property
    def balance(self) -> float:
        return self._values[self._index]

    @balance.setter
    def balance(self, value: float) -> None:
        self._values[self._index] = value


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


# Enum members bound to module names: a global read is cheaper than the
# attribute read on the enum class, in the leg checks and the builders.
_IN, _OUT = Direction.INFLOW, Direction.OUTFLOW
_EU, _HOURS, _KG, _GOOD = Unit.EU, Unit.HOURS, Unit.KG, Unit.GOOD


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
    """Balances of the 20 accounts, one float each in ACCOUNT_SPECS order.

    `values` is that list; it is never rebound, so an `Account` view stays
    live.  Value-semantic via `copy()`.
    """

    __slots__ = ("values",)

    def __init__(self, values: list[float] | None = None) -> None:
        self.values = [0.0] * len(ACCOUNT_SPECS) if values is None else values

    def copy(self) -> "LedgerState":
        return LedgerState(self.values[:])

    def account(self, name: str) -> Account:
        return Account(self.values, _index(name))

    def balance(self, name: str) -> float:
        return self.values[_index(name)]

    def set_balance(self, name: str, value: float) -> None:
        self.values[_index(name)] = checked_balance(name, value)

    def balances(self) -> dict[str, float]:
        return dict(zip(ACCOUNT_NAMES, self.values))


def _index(name: str) -> int:
    try:
        return ACCOUNT_INDEX[name]
    except KeyError:
        raise UnknownAccountError(f"unknown account {name!r}") from None


def init_ledger(com_lab_0: float = 110.0, com_res_0: float = 20.0) -> LedgerState:
    """Fresh ledger: everything zero except the company's input stocks."""
    if com_lab_0 < 0.0 or com_res_0 < 0.0:
        raise ValueError("endowments must be non-negative")
    state = LedgerState()
    state.set_balance("AccComLab", float(com_lab_0))
    state.set_balance("AccComRes", float(com_res_0))
    return state


def scan_booking(
    balances: Mapping[str, float], booking: Booking
) -> tuple[list[str], str, dict[str, float]]:
    """Check every leg of a booking and its conservation in one pass.

    Returns the per-leg statuses ('ok' or the reason the leg fails), the
    conservation verdict ('ok' or the first imbalance) and the balances
    after each leg that passes.  `balances` must hold the opening balance
    of every account a typable leg touches; it is copied, never changed.
    Feasibility is checked sequentially in leg order on the copy, so a later
    inflow cannot excuse an earlier overdraft; when every status and the
    verdict are 'ok', the copy holds the booking's closing balances.

    Conservation holds when EU debits equal EU credits exactly and every
    real unit nets out.  Amounts are copied between legs, never recomputed,
    so the comparison is exact with no tolerance.  A leg with an unknown
    account or the wrong unit makes the booking 'untypable'.
    """
    scratch = dict(balances)
    statuses: list[str] = []
    typable = True
    debits = 0.0
    credits = 0.0
    real_net: dict[str, float] = {}
    for account, direction, amount, unit in booking.legs:
        spec = _LEG_SPECS.get(account)
        if spec is None:
            statuses.append(f"unknown-account:{account}")
            typable = False
            continue
        if unit is not spec[0]:
            statuses.append(f"unit-mismatch:{account}:{unit.value}!={spec[2]}")
            typable = False
            continue
        inflow = direction is _IN
        if unit is _EU:
            if direction is spec[1]:
                debits += amount
            else:
                credits += amount
        elif inflow:
            real_net[spec[2]] = real_net.get(spec[2], 0.0) + amount
        else:
            real_net[spec[2]] = real_net.get(spec[2], 0.0) - amount
        if amount < 0.0:
            statuses.append(f"negative-amount:{account}")
            continue
        new = scratch[account] + amount if inflow else scratch[account] - amount
        if new < 0.0:
            statuses.append(f"insufficient-balance:{account}")
            continue
        scratch[account] = new
        statuses.append("ok")

    verdict = "ok"
    if not typable:
        verdict = "untypable"
    elif debits != credits:
        verdict = f"eu-imbalance:{debits}!={credits}"
    else:
        for unit_name, net in real_net.items():
            if net != 0.0:
                verdict = f"real-imbalance:{unit_name}:{net}"
                break
    return statuses, verdict, scratch


# zero opening balances, for a conservation verdict that needs no state
_NO_BALANCES: dict[str, float] = dict.fromkeys(ACCOUNT_NAMES, 0.0)


def leg_statuses(balances: Mapping[str, float], booking: Booking) -> list[str]:
    """Per-leg status strings: 'ok' or the reason the leg fails (see `scan_booking`)."""
    return scan_booking(balances, booking)[0]


def conservation_status(booking: Booking) -> str:
    """'ok' when value is conserved, else the imbalance (see `scan_booking`)."""
    return scan_booking(_NO_BALANCES, booking)[1]


def booking_diagnostics(statuses: list[str], verdict: str) -> list[str]:
    """Every failed leg status in leg order, then a failed conservation verdict."""
    diagnostics = [s for s in statuses if s != "ok"]
    if verdict != "ok":
        diagnostics.append(verdict)
    return diagnostics


def _opening_balances(state: LedgerState, booking: Booking) -> dict[str, float]:
    """The balance of every known account the booking touches."""
    values = state.values
    return {
        leg.account: values[ACCOUNT_INDEX[leg.account]]
        for leg in booking.legs
        if leg.account in ACCOUNT_INDEX
    }


def validate_booking(state: LedgerState, booking: Booking) -> tuple[bool, list[str]]:
    """True plus diagnostics iff every leg types, fits, and value is conserved."""
    statuses, verdict, _ = scan_booking(_opening_balances(state, booking), booking)
    diagnostics = booking_diagnostics(statuses, verdict)
    return not diagnostics, diagnostics


def post_booking(state: LedgerState, booking: Booking) -> LedgerState:
    """Apply a booking in place after full validation; atomic on failure.

    A booking of a compiled shape (see `_compile_shape`) posts straight onto
    the list while each leg matches the shape, carries its slot's amount `a`
    with `0.0 <= a < inf` and leaves its balance `>= 0`: `scan_booking`
    would pass it with the same `+` and `-`.  Any other booking, or one
    whose leg breaks a condition (the list is then restored), goes through
    `scan_booking`, which names every failed check.
    """
    booking_id, _, legs, _ = booking
    shape = _SHAPES.get(booking_id)
    values = state.values
    if shape is not None and len(legs) == len(shape):
        opening = values[:]
        for (account, direction, amount, unit), (
            shape_account, shape_direction, shape_unit, index, inflow, slot
        ) in zip(legs, shape):
            if (
                account != shape_account
                or direction is not shape_direction
                or unit is not shape_unit
                or not 0.0 <= amount < _INF
                or amount != legs[slot][2]
            ):
                break
            new = values[index] + amount if inflow else values[index] - amount
            if not new >= 0.0:
                break
            values[index] = new
        else:
            return state
        values[:] = opening

    statuses, verdict, closing = scan_booking(_opening_balances(state, booking), booking)
    if verdict != "ok" or statuses.count("ok") != len(statuses):
        raise ValidationFailure(
            f"booking {booking.id} ({booking.description}) rejected",
            booking_diagnostics(statuses, verdict),
        )
    for name, value in closing.items():
        values[ACCOUNT_INDEX[name]] = value
    return state


class Invariances(NamedTuple):
    """The six cross-system equalities that a consistent state keeps at zero."""

    lab_bank: float
    res_bank: float
    cap_bank: float
    com_bank: float
    com_loan: float
    macro: float

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return tuple(self)

    def max_abs(self) -> float:
        return max(map(abs, self))


def invariances(state: LedgerState) -> Invariances:
    """Differences between each agent-side account and its bank-side mirror.

    The macro value sums the five: the Bank balances exactly when every
    deposit and the loan agree across the two systems keeping them.
    """
    (  # the 20 balances, in ACCOUNT_SPECS order
        lab_bank, _, _, res_bank, _, _, cap_bank, _, _, com_bank, com_loan, _, _, _, _,
        bank_com_loan, bank_com_bank, bank_lab_bank, bank_res_bank, bank_cap_bank,
    ) = state.values
    lab = lab_bank - bank_lab_bank
    res = res_bank - bank_res_bank
    cap = cap_bank - bank_cap_bank
    com = com_bank - bank_com_bank
    loan = bank_com_loan - com_loan
    return Invariances(lab, res, cap, com, loan, lab + res + cap + com + loan)


# ---------------------------------------------------------------------------
# Builders for the 8 canonical bookings.  Leg order inside each booking is
# fixed; both engines rely on it for bit-identical balance arithmetic.
# ---------------------------------------------------------------------------

# The builders make their tuples with `tuple.__new__`, which is all the
# NamedTuples' generated `__new__` does; calling it directly saves a Python
# frame per value.
_new = tuple.__new__

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
        _new(BookingLeg, (bank_acct, _OUT, spend, _EU)),
        _new(BookingLeg, ("AccComBank", _IN, spend, _EU)),
        _new(BookingLeg, (mirror, _OUT, spend, _EU)),
        _new(BookingLeg, ("AccBankComBank", _IN, spend, _EU)),
        _new(BookingLeg, ("AccComGood", _OUT, quantity, _GOOD)),
        _new(BookingLeg, (good_acct, _IN, quantity, _GOOD)),
    )
    channels = (
        _new(Channel, (bank_acct, "AccComBank", spend, _EU, "payment")),
        _new(Channel, (mirror, "AccBankComBank", spend, _EU, "deposit transfer")),
        _new(Channel, ("AccComGood", good_acct, quantity, _GOOD, "delivery")),
    )
    return _new(Booking, (booking_id, description, legs, channels))


def make_wage_payment(wages: float, hours: float) -> Booking:
    """Booking 1: Com pays due wages, Lab delivers the contracted hours."""
    legs = (
        _new(BookingLeg, ("AccComBank", _OUT, wages, _EU)),
        _new(BookingLeg, ("AccLabBank", _IN, wages, _EU)),
        _new(BookingLeg, ("AccBankComBank", _OUT, wages, _EU)),
        _new(BookingLeg, ("AccBankLabBank", _IN, wages, _EU)),
        _new(BookingLeg, ("AccLabLab", _OUT, hours, _HOURS)),
        _new(BookingLeg, ("AccComLab", _IN, hours, _HOURS)),
    )
    channels = (
        _new(Channel, ("AccComBank", "AccLabBank", wages, _EU, "wages")),
        _new(Channel, ("AccBankComBank", "AccBankLabBank", wages, _EU, "deposit transfer")),
        _new(Channel, ("AccLabLab", "AccComLab", hours, _HOURS, "labor delivery")),
    )
    return _new(Booking, (1, "Lab sells Lab to Com", legs, channels))


def make_resource_purchase(spend: float, kilograms: float) -> Booking:
    """Booking 3: Com pays for resources, delivered immediately."""
    legs = (
        _new(BookingLeg, ("AccComBank", _OUT, spend, _EU)),
        _new(BookingLeg, ("AccResBank", _IN, spend, _EU)),
        _new(BookingLeg, ("AccBankComBank", _OUT, spend, _EU)),
        _new(BookingLeg, ("AccBankResBank", _IN, spend, _EU)),
        _new(BookingLeg, ("AccResRes", _OUT, kilograms, _KG)),
        _new(BookingLeg, ("AccComRes", _IN, kilograms, _KG)),
    )
    channels = (
        _new(Channel, ("AccComBank", "AccResBank", spend, _EU, "payment")),
        _new(Channel, ("AccBankComBank", "AccBankResBank", spend, _EU, "deposit transfer")),
        _new(Channel, ("AccResRes", "AccComRes", kilograms, _KG, "resource delivery")),
    )
    return _new(Booking, (3, "Res sells Res to Com", legs, channels))


def make_loan(amount: float) -> Booking:
    """Booking 5: loan creation; every leg grows, funded by the new debt."""
    legs = (
        _new(BookingLeg, ("AccComBank", _IN, amount, _EU)),
        _new(BookingLeg, ("AccComLoan", _IN, amount, _EU)),
        _new(BookingLeg, ("AccBankComLoan", _IN, amount, _EU)),
        _new(BookingLeg, ("AccBankComBank", _IN, amount, _EU)),
    )
    channels = (
        _new(Channel, ("AccComLoan", "AccComBank", amount, _EU, "loan draw")),
        _new(Channel, ("AccBankComBank", "AccBankComLoan", amount, _EU, "loan creation")),
    )
    return _new(Booking, (5, "Com gets Loan from Bank", legs, channels))


def make_repayment(amount: float) -> Booking:
    """Booking 7: loan repayment; both systems shrink by the installments."""
    legs = (
        _new(BookingLeg, ("AccComBank", _OUT, amount, _EU)),
        _new(BookingLeg, ("AccComLoan", _OUT, amount, _EU)),
        _new(BookingLeg, ("AccBankComLoan", _OUT, amount, _EU)),
        _new(BookingLeg, ("AccBankComBank", _OUT, amount, _EU)),
    )
    channels = (
        _new(Channel, ("AccComBank", "AccComLoan", amount, _EU, "repayment")),
        _new(Channel, ("AccBankComLoan", "AccBankComBank", amount, _EU, "loan deletion")),
    )
    return _new(Booking, (7, "Com repays Loan to Bank", legs, channels))


def make_dividend(paid: float, declared: float) -> Booking:
    """Booking 6: pay out last period's declared dividend, then declare anew.

    Settlement clears both dividend accounts by the paid amount; the fresh
    declaration books the newly decided amount into them, so after posting
    they hold exactly the declared-but-unpaid dividend.
    """
    legs = (
        _new(BookingLeg, ("AccComBank", _OUT, paid, _EU)),
        _new(BookingLeg, ("AccCapBank", _IN, paid, _EU)),
        _new(BookingLeg, ("AccBankComBank", _OUT, paid, _EU)),
        _new(BookingLeg, ("AccBankCapBank", _IN, paid, _EU)),
        _new(BookingLeg, ("AccCapDiv", _OUT, paid, _EU)),
        _new(BookingLeg, ("AccComDiv", _OUT, paid, _EU)),
        _new(BookingLeg, ("AccComDiv", _IN, declared, _EU)),
        _new(BookingLeg, ("AccCapDiv", _IN, declared, _EU)),
    )
    channels = (
        _new(Channel, ("AccComBank", "AccCapBank", paid, _EU, "dividend payment")),
        _new(Channel, ("AccBankComBank", "AccBankCapBank", paid, _EU, "deposit transfer")),
        _new(Channel, ("AccComDiv", "AccCapDiv", paid, _EU, "dividend settled")),
        _new(Channel, ("AccComDiv", "AccCapDiv", declared, _EU, "dividend declared")),
    )
    return _new(Booking, (6, "Com pays Div to Cap", legs, channels))


# ---------------------------------------------------------------------------
# The eight canonical shapes, compiled once from the builders above, so that
# leg order has one source of truth.
# ---------------------------------------------------------------------------

_INF = math.inf
_SENTINELS = (1.0, 2.0)  # distinct builder arguments: a leg's amount names its slot
# per leg: account, direction, unit, list index, is-inflow, amount slot
_Shape = tuple[tuple[str, Direction, Unit, int, bool, int], ...]


def _compile_shape(booking: Booking) -> _Shape:
    """A canonical booking's legs, each slot named by the first leg carrying it.

    Conservation is proved here once per shape (Ellerman, "The Mathematics
    of Double Entry Bookkeeping", 1985) for amounts `0.0 <= a < inf` equal
    within each slot: the EU debit legs' slots equal the credit legs' slots
    in leg order, so `scan_booking` adds equal values in the same order on
    both sides; and each real unit has one inflow and one outflow leg of one
    slot, so it nets to `q - q` or `-q + q`, exactly 0.0.
    """
    slots = [_SENTINELS.index(leg.amount) for leg in booking.legs]
    first = [slots.index(slot) for slot in slots]
    debits: list[int] = []
    credits: list[int] = []
    real: dict[Unit, tuple[list[int], list[int]]] = {}
    for (account, direction, _, unit), slot in zip(booking.legs, first):
        spec_unit, debit_direction, _ = _LEG_SPECS[account]
        assert unit is spec_unit
        if unit is _EU:
            (debits if direction is debit_direction else credits).append(slot)
        else:
            inflows, outflows = real.setdefault(unit, ([], []))
            (inflows if direction is _IN else outflows).append(slot)
    assert debits == credits, booking.id
    assert all(len(ins) == 1 and ins == outs for ins, outs in real.values()), booking.id
    return tuple(
        (account, direction, unit, ACCOUNT_INDEX[account], direction is _IN, slot)
        for (account, direction, _, unit), slot in zip(booking.legs, first)
    )


_SHAPES: dict[int, _Shape] = {
    booking.id: _compile_shape(booking)
    for booking in (
        make_wage_payment(*_SENTINELS),
        *(make_goods_sale(agent, *_SENTINELS) for agent in _GOODS_SALES),
        make_resource_purchase(*_SENTINELS),
        make_loan(_SENTINELS[0]),
        make_dividend(*_SENTINELS),
        make_repayment(_SENTINELS[0]),
    )
}
assert sorted(_SHAPES) == list(range(1, 9))
