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
# attribute read on the enum class, in the leg checks.
_IN, _OUT, _EU = Direction.INFLOW, Direction.OUTFLOW, Unit.EU


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

    `scan_booking` checks every leg and the conservation; a rejection
    names every failed check and leaves the ledger untouched.
    """
    statuses, verdict, closing = scan_booking(_opening_balances(state, booking), booking)
    if verdict != "ok" or statuses.count("ok") != len(statuses):
        raise ValidationFailure(
            f"booking {booking.id} ({booking.description}) rejected",
            booking_diagnostics(statuses, verdict),
        )
    values = state.values
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
# The eight canonical bookings.  Leg order inside each booking is fixed; both
# engines rely on it for bit-identical balance arithmetic.
# ---------------------------------------------------------------------------

# A booking's description, its legs in posting order as (account, direction,
# amount slot), and its value channels as (source leg, target leg, label).  A
# leg's unit is its account's; a channel carries the amount and unit of the
# legs it joins.  `make_booking(id, *amounts)` fills slot i with amounts[i].
BookingEntry = tuple[str, tuple[tuple[str, Direction, int], ...], tuple[tuple[int, int, str], ...]]

BOOKINGS: dict[int, BookingEntry] = {
    # slots: wages, hours
    1: ("Lab sells Lab to Com", (
        ("AccComBank", _OUT, 0), ("AccLabBank", _IN, 0),
        ("AccBankComBank", _OUT, 0), ("AccBankLabBank", _IN, 0),
        ("AccLabLab", _OUT, 1), ("AccComLab", _IN, 1),
    ), ((0, 1, "wages"), (2, 3, "deposit transfer"), (4, 5, "labor delivery"))),
    # slots: spend, quantity of goods
    2: ("Lab buys Good from Com", (
        ("AccLabBank", _OUT, 0), ("AccComBank", _IN, 0),
        ("AccBankLabBank", _OUT, 0), ("AccBankComBank", _IN, 0),
        ("AccComGood", _OUT, 1), ("AccLabGood", _IN, 1),
    ), ((0, 1, "payment"), (2, 3, "deposit transfer"), (4, 5, "delivery"))),
    # slots: spend, kilograms (delivered immediately)
    3: ("Res sells Res to Com", (
        ("AccComBank", _OUT, 0), ("AccResBank", _IN, 0),
        ("AccBankComBank", _OUT, 0), ("AccBankResBank", _IN, 0),
        ("AccResRes", _OUT, 1), ("AccComRes", _IN, 1),
    ), ((0, 1, "payment"), (2, 3, "deposit transfer"), (4, 5, "resource delivery"))),
    # slots: spend, quantity of goods
    4: ("Res buys Good from Com", (
        ("AccResBank", _OUT, 0), ("AccComBank", _IN, 0),
        ("AccBankResBank", _OUT, 0), ("AccBankComBank", _IN, 0),
        ("AccComGood", _OUT, 1), ("AccResGood", _IN, 1),
    ), ((0, 1, "payment"), (2, 3, "deposit transfer"), (4, 5, "delivery"))),
    # slot: the new loan; every leg grows, funded by the new debt
    5: ("Com gets Loan from Bank", (
        ("AccComBank", _IN, 0), ("AccComLoan", _IN, 0),
        ("AccBankComLoan", _IN, 0), ("AccBankComBank", _IN, 0),
    ), ((1, 0, "loan draw"), (3, 2, "loan creation"))),
    # slots: the dividend paid (last period's declaration) and the one declared
    # now; after posting both dividend accounts hold the declared-but-unpaid one
    6: ("Com pays Div to Cap", (
        ("AccComBank", _OUT, 0), ("AccCapBank", _IN, 0),
        ("AccBankComBank", _OUT, 0), ("AccBankCapBank", _IN, 0),
        ("AccCapDiv", _OUT, 0), ("AccComDiv", _OUT, 0),
        ("AccComDiv", _IN, 1), ("AccCapDiv", _IN, 1),
    ), ((0, 1, "dividend payment"), (2, 3, "deposit transfer"),
        (5, 4, "dividend settled"), (6, 7, "dividend declared"))),
    # slot: the installments due; both systems shrink by them
    7: ("Com repays Loan to Bank", (
        ("AccComBank", _OUT, 0), ("AccComLoan", _OUT, 0),
        ("AccBankComLoan", _OUT, 0), ("AccBankComBank", _OUT, 0),
    ), ((0, 1, "repayment"), (2, 3, "loan deletion"))),
    # slots: spend, quantity of goods
    8: ("Cap buys Good from Com", (
        ("AccCapBank", _OUT, 0), ("AccComBank", _IN, 0),
        ("AccBankCapBank", _OUT, 0), ("AccBankComBank", _IN, 0),
        ("AccComGood", _OUT, 1), ("AccCapGood", _IN, 1),
    ), ((0, 1, "payment"), (2, 3, "deposit transfer"), (4, 5, "delivery"))),
}


def _unproved(legs: tuple[tuple[str, Direction, int], ...], channels: tuple) -> str | None:
    """Why the conservation proof does not cover a booking, or None when it does."""
    debits: list[int] = []
    credits: list[int] = []
    real: dict[str, tuple[list[int], list[int]]] = {}  # unit -> inflow slots, outflow slots
    for account, direction, slot in legs:
        spec = SPEC_BY_NAME.get(account)
        if spec is None:
            return f"unknown account {account!r}"
        if spec.unit is _EU:
            (debits if is_debit(spec.kind, direction) else credits).append(slot)
        else:
            real.setdefault(spec.unit.value, ([], []))[direction is _OUT].append(slot)
    if debits != credits:
        return f"EU debit slots {debits} != credit slots {credits}"
    for unit, (inflows, outflows) in real.items():
        if len(inflows) != 1 or inflows != outflows:
            return f"{unit} inflow slots {inflows}, outflow slots {outflows}"
    if sorted(end for src, dst, _ in channels for end in (src, dst)) != list(range(len(legs))):
        return "the channels do not join each leg exactly once"
    if any(legs[src][2] != legs[dst][2] for src, dst, _ in channels):
        return "a channel joins legs of two slots"
    return None


def compile_booking_table(table: Mapping[int, BookingEntry]) -> dict[int, tuple]:
    """Each booking of `table` compiled, once the table proves it conserves value.

    Raises ValueError naming the first booking the proof does not cover.
    Conservation is proved once per booking (Ellerman, "The Mathematics of
    Double Entry Bookkeeping", 1985) for amounts `0.0 <= a < inf`: the EU
    debit legs' slots equal the credit legs' slots in leg order, so
    `scan_booking` adds equal values in the same order on both sides; and
    each real unit has one inflow and one outflow leg of one slot, so it
    nets to `q - q` or `-q + q`, exactly 0.0.  Each channel must join two
    legs of one slot, and the channels must join every leg exactly once.

    A booking compiles to its description, its number of slots, its legs and
    channels with their units for `make_booking`, and per leg the list
    index, whether it is an inflow, and the slot, for `post_amounts`.
    """
    compiled = {}
    for booking_id, (description, legs, channels) in table.items():
        problem = _unproved(legs, channels)
        if problem is not None:
            raise ValueError(f"booking {booking_id}: {problem}")
        units = [SPEC_BY_NAME[account].unit for account, _, _ in legs]
        compiled[booking_id] = (
            description,
            1 + max((slot for _, _, slot in legs), default=-1),
            tuple((*leg, unit) for leg, unit in zip(legs, units)),
            tuple(
                (legs[src][0], legs[dst][0], legs[src][2], units[src], label)
                for src, dst, label in channels
            ),
            tuple((ACCOUNT_INDEX[account], way is _IN, slot) for account, way, slot in legs),
        )
    return compiled


_COMPILED = compile_booking_table(BOOKINGS)


def booking_entry(table: Mapping[int, tuple], booking_id: int) -> tuple:
    """`table[booking_id]`, or the ValueError naming an unknown booking."""
    try:
        return table[booking_id]
    except KeyError:
        raise ValueError(f"unknown booking {booking_id!r}") from None


# `make_booking` makes its tuples with `tuple.__new__`, which is all the
# NamedTuples' generated `__new__` does; calling it directly saves a Python
# frame per value.
_new = tuple.__new__
_INF = math.inf


def make_booking(booking_id: int, *amounts: float) -> Booking:
    """Booking `booking_id` of `BOOKINGS`, slot i of its legs and channels carrying amounts[i]."""
    description, arity, legs, channels, _ = booking_entry(_COMPILED, booking_id)
    if len(amounts) != arity:
        raise TypeError(f"booking {booking_id} takes {arity} amounts, got {len(amounts)}")
    legs = tuple([_new(BookingLeg, (acct, way, amounts[s], unit)) for acct, way, s, unit in legs])
    channels = tuple(
        [_new(Channel, (src, dst, amounts[s], u, label)) for src, dst, s, u, label in channels]
    )
    return _new(Booking, (booking_id, description, legs, channels))


def post_compiled(values: list[float], booking_id: int, amounts: tuple[float, ...]) -> bool:
    """Post the booking's compiled legs onto `values`; False at the first leg that cannot.

    A leg cannot post when its amount `a` fails `0.0 <= a < inf` or it
    leaves a running balance below 0 (`values` then holds the legs before
    it).  True means `scan_booking` passes the built booking with the same
    `+` and `-`, as `compile_booking_table` proved.
    """
    _, arity, _, _, legs = booking_entry(_COMPILED, booking_id)
    if len(amounts) != arity:
        return False
    for index, inflow, slot in legs:
        amount = amounts[slot]
        if not 0.0 <= amount < _INF:
            return False
        new = values[index] + amount if inflow else values[index] - amount
        if not new >= 0.0:
            return False
        values[index] = new
    return True


def post_amounts(state: LedgerState, booking_id: int, amounts: tuple[float, ...]) -> LedgerState:
    """Post `make_booking(booking_id, *amounts)` in place; atomic on failure.

    The legs post straight from the compiled table when `post_compiled`
    can; otherwise the list is restored and the built booking goes through
    `post_booking`, which names every failed check.
    """
    values, opening = state.values, state.values[:]
    if post_compiled(values, booking_id, amounts):
        return state
    values[:] = opening
    return post_booking(state, make_booking(booking_id, *amounts))
