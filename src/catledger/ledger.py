"""The 20 typed T-accounts of the five sectors, bookings and invariances.

Five sectors interact through yearly bookings: a labor owner (Lab), a
resource owner (Res), a producing company (Com), a dividend owner (Cap)
and the Bank.  Each sector keeps a double-entry system of T-accounts;
every balance is a non-negative magnitude in one fixed unit (EU for
nominal accounts, hours / kg / goods for the real ones).  An outflow on a
liability account means the liability shrinks, so no account ever needs a
signed balance.  A ledger is the list of the 20 balances, one float per
account in ACCOUNT_NAMES order.

A macro booking posts the same amount into at least two sectors'
double-entry systems at once.  Posting rejects rather than clamps: a leg
that would drive a balance negative, or to inf or nan, is a hard
validation error and the state is left untouched.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

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


class AccountSpec(NamedTuple):
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
# the length of a ledger, and the refusal of a list of another length, given that length
_LEDGER_LENGTH = len(ACCOUNT_NAMES)
_WRONG_LENGTH = f"a ledger holds {_LEDGER_LENGTH} balances, got %d"
_INF = math.inf

assert sum(1 for s in ACCOUNT_SPECS if s.kind is AccountKind.ASSET) == 14
assert sum(1 for s in ACCOUNT_SPECS if s.kind is AccountKind.LIABILITY) == 6


class LedgerError(Exception):
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


def refuse_balance(values: Sequence[float], positions: Sequence[int]) -> None:
    """Refuse the first balance of `values` at `positions` that fails `0.0 <= v < inf`."""
    for i in positions:
        if not 0.0 <= values[i] < _INF:
            problem = "negative" if values[i] < 0.0 else "non-finite"
            raise ValidationFailure(
                f"balance of {ACCOUNT_NAMES[i]!r} would become {problem} ({values[i]})"
            )


def is_debit(kind: AccountKind, direction: Direction) -> bool:
    """Debit = asset inflow or liability outflow; credit is the mirror."""
    if kind is AccountKind.ASSET:
        return direction is Direction.INFLOW
    return direction is Direction.OUTFLOW


# Enum members bound to module names: a global read is cheaper than the
# attribute read on the enum class.
_IN, _OUT, _EU = Direction.INFLOW, Direction.OUTFLOW, Unit.EU


def init_ledger(com_lab_0: float = 110.0, com_res_0: float = 20.0) -> list[float]:
    """Fresh ledger: everything zero except the company's input stocks, each in `[0, inf)`."""
    if not (0.0 <= com_lab_0 < _INF and 0.0 <= com_res_0 < _INF):
        raise ValueError(f"endowments must lie in [0, inf), got {com_lab_0!r} and {com_res_0!r}")
    values = [0.0] * len(ACCOUNT_NAMES)
    values[ACCOUNT_INDEX["AccComLab"]] = float(com_lab_0)
    values[ACCOUNT_INDEX["AccComRes"]] = float(com_res_0)
    return values


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


def invariances(values: Sequence[float]) -> Invariances:
    """Differences between each agent-side account and its bank-side mirror.

    The macro value sums the five: the Bank balances exactly when every
    deposit and the loan agree across the two systems keeping them.
    """
    if len(values) != _LEDGER_LENGTH:
        raise ValueError(_WRONG_LENGTH % len(values))
    (  # the 20 balances, in ACCOUNT_SPECS order
        lab_bank, _, _, res_bank, _, _, cap_bank, _, _, com_bank, com_loan, _, _, _, _,
        bank_com_loan, bank_com_bank, bank_lab_bank, bank_res_bank, bank_cap_bank,
    ) = values
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
# legs it joins.  A booking is posted by its id and its amounts: slot i of
# every leg and channel carries amounts[i].
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


def _side(account: str, direction: Direction) -> str:
    """The side of the conservation check a leg adds to: 'debit', 'credit' or its real unit."""
    spec = SPEC_BY_NAME[account]
    if spec.unit is not _EU:
        return spec.unit.value
    return "debit" if is_debit(spec.kind, direction) else "credit"


def compile_booking_table(table: Mapping[int, BookingEntry]) -> dict[int, tuple]:
    """Each booking of `table` compiled, once the table proves it conserves value.

    Raises ValueError naming the first booking the proof does not cover.
    Conservation is proved once per booking (Ellerman, "The Mathematics of
    Double Entry Bookkeeping", 1985) for amounts `0.0 <= a < inf`: the EU
    debit legs' slots equal the credit legs' slots in leg order, so
    `_scan_legs` adds equal values in the same order on both sides; and
    each real unit has one inflow and one outflow leg of one slot, so it
    nets to `q - q` or `-q + q`, exactly 0.0.  Each channel must join two
    legs of one slot, and the channels must join every leg exactly once.

    A booking compiles to its description, its number of slots, per leg the
    list index, whether it is an inflow, and the slot, for `post_compiled`,
    per leg the account and its conservation side, for `_scan_legs`, and its
    channels, for `evolution.prove_booking_table`.
    """
    compiled = {}
    for booking_id, (description, legs, channels) in table.items():
        problem = _unproved(legs, channels)
        if problem is not None:
            raise ValueError(f"booking {booking_id}: {problem}")
        compiled[booking_id] = (
            description,
            1 + max((slot for _, _, slot in legs), default=-1),
            tuple((ACCOUNT_INDEX[account], way is _IN, slot) for account, way, slot in legs),
            tuple((account, _side(account, way)) for account, way, _ in legs),
            channels,
        )
    return compiled


_COMPILED = compile_booking_table(BOOKINGS)


def booking_entry(table: Mapping[int, tuple], booking_id: int) -> tuple:
    """`table[booking_id]`, or the ValueError naming an unknown booking."""
    try:
        return table[booking_id]
    except KeyError:
        raise ValueError(f"unknown booking {booking_id!r}") from None


def post_compiled(values: list[float], booking_id: int, amounts: tuple[float, ...]) -> bool:
    """Post the booking's compiled legs onto `values`; False at the first leg that cannot.

    The one posting rule: a leg posts when its amount is not negative and
    its running balance stays in `[0, inf)`; at a leg that cannot, `values`
    holds the legs before it.  Nothing posts onto a list that is not 20
    balances long, or with the wrong number of amounts.  True means every
    amount was finite, where `compile_booking_table` proved value conserved.
    """
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


def _scan_legs(
    values: Sequence[float], booking_id: int, amounts: tuple[float, ...]
) -> tuple[list[str], str]:
    """Explain a booking: each leg under `post_compiled`'s rule, and conservation.

    Returns the per-leg statuses ('ok' or the reason the leg fails) and
    the conservation verdict ('ok' or the first imbalance).  Legs are
    checked in order on a copy of the 20 opening balances `values`, so a
    later inflow cannot excuse an earlier overdraft.  EU debits must equal
    EU credits exactly and every real unit must net out: amounts are
    copied between legs, never recomputed, so no tolerance is needed.
    Raises ValueError for an unknown booking or a list of the wrong
    length, and TypeError for the wrong number of amounts.
    """
    _, arity, legs, sides, _ = booking_entry(_COMPILED, booking_id)
    if len(amounts) != arity:
        raise TypeError(f"booking {booking_id} takes {arity} amounts, got {len(amounts)}")
    scratch = list(values)
    if len(scratch) != _LEDGER_LENGTH:
        raise ValueError(_WRONG_LENGTH % len(scratch))
    statuses: list[str] = []
    debits = credits = 0.0
    real_net: dict[str, float] = {}
    for (index, inflow, slot), (account, side) in zip(legs, sides):
        amount = amounts[slot]
        if side == "debit":
            debits += amount
        elif side == "credit":
            credits += amount
        elif inflow:
            real_net[side] = real_net.get(side, 0.0) + amount
        else:
            real_net[side] = real_net.get(side, 0.0) - amount
        if amount < 0.0:
            statuses.append(f"negative-amount:{account}")
            continue
        new = scratch[index] + amount if inflow else scratch[index] - amount
        if new < 0.0:
            statuses.append(f"insufficient-balance:{account}")
            continue
        if not new < _INF:
            statuses.append(f"non-finite-balance:{account}")
            continue
        scratch[index] = new
        statuses.append("ok")

    verdict = "ok"
    if debits != credits:
        verdict = f"eu-imbalance:{debits}!={credits}"
    else:
        for unit, net in real_net.items():
            if net != 0.0:
                verdict = f"real-imbalance:{unit}:{net}"
                break
    return statuses, verdict


# zero opening balances, for a conservation verdict that needs no state
_NO_BALANCES = (0.0,) * len(ACCOUNT_NAMES)


def leg_statuses(values: Sequence[float], booking_id: int, amounts: tuple[float, ...]) -> list[str]:
    """Per-leg status strings: 'ok' or the reason the leg fails (see `_scan_legs`)."""
    return _scan_legs(values, booking_id, amounts)[0]


def conservation_status(booking_id: int, amounts: tuple[float, ...]) -> str:
    """'ok' when value is conserved, else the imbalance (see `_scan_legs`)."""
    return _scan_legs(_NO_BALANCES, booking_id, amounts)[1]


def rejection(booking_id: int, diagnostics: list[str]) -> ValidationFailure:
    """The failure that rejects booking `booking_id` with these diagnostics."""
    description = BOOKINGS[booking_id][0]
    return ValidationFailure(f"booking {booking_id} ({description}) rejected", diagnostics)


def validate_booking(
    values: Sequence[float], booking_id: int, amounts: tuple[float, ...]
) -> tuple[bool, list[str]]:
    """(ok, diagnostics): each failed leg status in order, then a failed conservation verdict."""
    statuses, verdict = _scan_legs(values, booking_id, amounts)
    diagnostics = [s for s in statuses if s != "ok"]
    if verdict != "ok":
        diagnostics.append(verdict)
    return not diagnostics, diagnostics


def post_booking(values: list[float], booking_id: int, amounts: tuple[float, ...]) -> list[float]:
    """Post booking `booking_id` with `amounts` onto `values` in place; atomic on failure.

    The legs post through `post_compiled`.  When a leg cannot, the list is
    restored and the `ValidationFailure` names every failed check that
    `validate_booking` finds, leaving the ledger untouched.
    """
    opening = values[:]
    if post_compiled(values, booking_id, amounts):
        return values
    values[:] = opening
    raise rejection(booking_id, validate_booking(opening, booking_id, amounts)[1])
