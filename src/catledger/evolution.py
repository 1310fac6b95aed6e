"""Period evolution: two interchangeable engines over one yearly cycle.

The state of a run is one list of 21 + 2 tau doubles: the 20 balances in
ACCOUNT_NAMES order, the tau wage dues, the tau repayments, and the
declared dividend.  `period_step` maps it to the next one.
`_period_cycle` is the only copy of the cycle and the only posting path:
it writes a fresh copy of the 20 opening balances by position and posts
each of the period's eight bookings onto it through `post_booking`, on
both engines.  The engines differ only in how a period is closed.  The
recursive engine has no close.  The categorical close,
`_close_time_step`, records the period's flows in one category of the
accounts and checks the laws of the period's time step.  What the
categorical constructions say of each booking, that its pushout folds
exactly the compiled legs its kernel posts and that its all-'ok' pullback
covers it exactly when those legs post, is proved once, at import, of the
ledger's compiled table `_COMPILED` by `prove_booking_table`.  Both
engines run the one cycle with identical float operations, so their
traces agree bit for bit.

Canonical order inside period t:
 1. carried consumer goods decay (Lab/Res/Cap goods stocks scale by beta)
 2. fresh endowments arrive (Lab hours, Res kg)
 3. contractual dues are read from memory (wages, repayments)
 4. consumption budgets from current bank balances; total demand
 5. demand plan and demand surplus
 6. production consumes the company's entire input stocks
 7. the good price forms (p_0 enters only at t = 0)
 8. goods sales: bookings 2, 4, 8
 9. investment decision and allocation
10. booking 5 (loan)
11. booking 3 (resource purchase, immediate delivery)
12. booking 1 (wage payment, contracted hours delivered)
13. booking 7 (loan repayment)
14. booking 6 (dividend payout and fresh declaration)
15. memory push (labor share and installment of the new investment)

A trace row t holds the account snapshot at the START of period t together
with the metrics decided during period t, so a run over horizon H yields
H + 1 rows.  A trace stores them as one array of doubles, row after row,
each row's cells in `TRACE_COLUMNS` order.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections.abc import Callable, Mapping, Sequence
from enum import Enum
from operator import sub
from types import MappingProxyType
from typing import Iterator, NamedTuple, NoReturn

from .catcore import (
    CategoryError,
    FiniteCategory,
    FinSetMap,
    Functor,
    NaturalTransformation,
    _fit,
    check_functor_laws,
    check_naturality,
    finset_pullback,
    finset_pushout,
)
from .decisions import (
    METRIC_COLUMNS,
    Parameters,
    PeriodMetrics,
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
from .ledger import (
    ACCOUNT_INDEX,
    ACCOUNT_NAMES,
    _COMPILED,
    Invariances,
    ValidationFailure,
    booking_entry,
    init_ledger,
    invariances,
    post_booking,
    post_compiled,
    refuse_balance,
    validate_booking,
)


class EngineKind(Enum):
    RECURSIVE = "recursive"
    CATEGORICAL = "categorical"

    @classmethod
    def _missing_(cls, value: object) -> NoReturn:
        raise ValueError(f"unknown engine {value!r}: expected 'recursive' or 'categorical'")


class EngineConsistencyError(RuntimeError):
    """The categorical engine violated one of its own structural laws.

    `period` is the simulated period whose laws failed, recorded by `run`;
    it stays None when the failure arose outside a run.
    """

    def __init__(self, message: str, failures: list[str] | None = None) -> None:
        super().__init__(message)
        self.failures = failures or []
        self.period: int | None = None


# A state's wage dues start after its balances; the positions of the
# balances the cycle reads and writes.
_WAGES_AT = len(ACCOUNT_NAMES)
(
    _LAB_BANK, _LAB_LAB, _LAB_GOOD, _RES_BANK, _RES_RES, _RES_GOOD,
    _CAP_BANK, _CAP_GOOD, _COM_BANK, _COM_RES, _COM_LAB, _COM_GOOD,
) = map(ACCOUNT_INDEX.__getitem__, (
    "AccLabBank", "AccLabLab", "AccLabGood", "AccResBank", "AccResRes", "AccResGood",
    "AccCapBank", "AccCapGood", "AccComBank", "AccComRes", "AccComLab", "AccComGood",
))
# the balances steps 1 and 2 write, in the order they are written
_CARRIED = (_LAB_GOOD, _RES_GOOD, _CAP_GOOD, _LAB_LAB, _RES_RES)


def initial_state(params: Parameters) -> list[float]:
    """The opening state: the fresh ledger, no dues, no declared dividend.

    ValueError names `tau` when the state's doubles cannot be allocated.
    """
    try:
        return init_ledger(params.com_lab_0, params.com_res_0) + [0.0] * (2 * params.tau + 1)
    except (MemoryError, OverflowError):
        n = _WAGES_AT + 2 * params.tau + 1
        raise ValueError(f"tau={params.tau}: a state of {n} doubles cannot be allocated") from None


def period_amounts(m: PeriodMetrics, p: Parameters) -> tuple[tuple[int, tuple[float, ...]], ...]:
    """The eight bookings of a period as (booking id, amounts), in posting order."""
    return (
        (2, (m.consum_lab, m.consum_lab / m.good_price)),
        (4, (m.consum_res, m.consum_res / m.good_price)),
        (8, (m.consum_cap, m.consum_cap / m.good_price)),
        (5, (m.investment,)),
        (3, (m.investment_res, m.investment_res / p.p_r)),
        (1, (m.wages_payment, m.wages_payment / p.p_l)),
        (7, (m.repays_payment,)),
        (6, (m.dividend_payment, m.dividend_decision)),
    )


INVARIANCE_COLUMNS = ("I_Lab_B", "I_Res_B", "I_Cap_B", "I_Com_B", "I_Com_L", "I_Mac")

# The cells of a trace row: the period, the metrics decided in it, the
# opening balances and their invariances.
TRACE_COLUMNS: tuple[str, ...] = ("period",) + METRIC_COLUMNS + ACCOUNT_NAMES + INVARIANCE_COLUMNS
_WIDTH = len(TRACE_COLUMNS)
_COLUMN_INDEX = {name: index for index, name in enumerate(TRACE_COLUMNS)}
_ACCOUNTS_AT = 1 + len(METRIC_COLUMNS)
_INVARIANCES_AT = _ACCOUNTS_AT + len(ACCOUNT_NAMES)


def _first_non_finite(values: Sequence[float]) -> int | None:
    """The position of the first inf or nan in `values`, or None if there is none."""
    if math.isfinite(sum(values)):  # only a sum of finite cells can be finite
        return None
    return next((i for i, value in enumerate(values) if not math.isfinite(value)), None)


class TraceRow(NamedTuple):
    """One row of a trace, built from its cells when read."""

    period: int
    metrics: PeriodMetrics
    accounts: dict[str, float]
    invariances: Invariances


class Trace(NamedTuple):
    """A run's rows as one array of doubles, `TRACE_COLUMNS` cells per row.

    Nothing is stored per period: `column`, `rows` and `flat_values` read
    the cells in place or build their views when read.
    """

    params: Parameters
    engine: EngineKind
    cells: array

    def column(self, name: str) -> array:
        """The cells of column `name`, one per row."""
        return self.cells[_COLUMN_INDEX[name] :: _WIDTH]

    @property
    def rows(self) -> tuple[TraceRow, ...]:
        """One `TraceRow` per row, built from the cells when read."""
        cells = self.cells
        return tuple(
            TraceRow(
                int(cells[start]),
                PeriodMetrics._make(cells[start + 1 : start + _ACCOUNTS_AT]),
                dict(zip(ACCOUNT_NAMES, cells[start + _ACCOUNTS_AT : start + _INVARIANCES_AT])),
                Invariances._make(cells[start + _INVARIANCES_AT : start + _WIDTH]),
            )
            for start in range(0, len(cells), _WIDTH)
        )

    def flat_values(self) -> Iterator[float]:
        """Every cell of the trace, row after row."""
        return iter(self.cells)


# ---------------------------------------------------------------------------
# The period cycle, shared by both engines.
# ---------------------------------------------------------------------------


def _period_cycle(
    state: list[float], values: list[float], p: Parameters, period: int, close: Callable | None
) -> tuple[list[float], PeriodMetrics]:
    """One period in the canonical order of the module docstring, written onto `values`.

    `values` is a copy of `state`'s 20 balances.  Steps 9 and 14 read no
    balance a booking moves, so they are decided first and `period_amounts`
    gives all eight bookings, posted onto `values` through `post_booking` in
    order.  The period refuses a balance it writes unless `0.0 <= v < inf`,
    and a metric that is not finite.  Every account is a leg, and a leg
    posts only into `[0, inf)`, so no closing balance needs a check.  A
    `close` then takes the opening balances, `values` and the bookings.  The
    next state is `values`, then the pushed memory and the new declaration.
    """
    repays_at, length = _WAGES_AT + p.tau, _WAGES_AT + 2 * p.tau + 1
    if len(state) != length:
        raise ValueError(f"a state for tau={p.tau} holds {length} doubles, got {len(state)}")
    wages, repays = state[_WAGES_AT:repays_at], state[repays_at:-1]
    start_com_bank = values[_COM_BANK]

    # 1. decay of carried consumer goods (producer inventory carries in full)
    values[_LAB_GOOD] *= p.beta_l
    values[_RES_GOOD] *= p.beta_r
    values[_CAP_GOOD] *= p.beta_c

    # 2. fresh endowments
    values[_LAB_LAB] += p.nu_l
    values[_RES_RES] += p.nu_r
    refuse_balance(values, _CARRIED)

    # 3. contractual dues
    wages_due, repays_due = memory_due(wages, repays)

    # 4. consumption budgets
    c_lab, c_res, c_cap, demand = consumption(
        (values[_LAB_BANK], values[_RES_BANK], values[_CAP_BANK]), p.rho_l, p.rho_r, p.rho_c
    )

    # 5. plan and surplus
    plan = demand_plan(wages_due, repays_due, p.mu)
    surplus = demand - plan

    # 6. production uses up the entire input stocks
    output = production(values[_COM_LAB], values[_COM_RES], p.alpha, p.gamma)
    values[_COM_LAB] = values[_COM_RES] = 0.0
    values[_COM_GOOD] += output
    refuse_balance(values, (_COM_GOOD,))

    # 7. price formation; the goods sales divide by the price
    price = good_price(plan, output, surplus, p.omega, period, p.p_0)
    if price == 0.0:
        raise ValidationFailure(
            "good price is zero: the goods sales cannot be priced", [f"GoodPrice={price!r}"]
        )

    # 9. investment decision
    invest = investment_sigmoid(surplus, p.sig_a, p.sig_b, p.sig_c)
    invest_res, invest_lab, installment = allocate_investment(invest, p.lam, p.tau)

    # 14. dividend: pay out last period's declaration, then declare anew,
    # from the net EU flow through the company's bank account
    paid = state[-1]
    diff = (c_lab + c_res + c_cap + invest) - (invest_res + wages_due + repays_due + paid)
    declared = dividend_decision(diff, start_com_bank, p.delta_c, p.delta_b)

    metrics = PeriodMetrics(  # in field order: positional arguments are the cheaper call
        wages_due, repays_due, c_lab, c_res, c_cap, demand, plan, surplus, output, price,
        invest, invest_res, invest_lab, installment, diff, declared, paid,
    )
    if not math.isfinite(sum(metrics)):
        bad = _first_non_finite(metrics)
        if bad is not None:
            raise ValidationFailure(f"column {METRIC_COLUMNS[bad]} is not finite")

    # 8. goods sales; 10. loan creation; 11-14. factor purchases, repayment, dividend
    bookings = period_amounts(metrics, p)
    for booking_id, amounts in bookings:
        post_booking(values, booking_id, amounts)
    if close is not None:
        close(state[:_WAGES_AT], values, bookings)

    # 15. remember the new obligations after the closing balances
    new_state = values
    new_state += memory_push(wages, invest_lab)
    new_state += memory_push(repays, installment)
    new_state.append(declared)
    return new_state, metrics


# ---------------------------------------------------------------------------
# Categorical engine: the proved booking table and the law-checked time step.
# ---------------------------------------------------------------------------


# Account i is object i of an economy category and of level t of the time
# step, and object i + 20 of level t+1; the time step's names, and the
# components' labels in account order.
_SHIFT = len(ACCOUNT_NAMES)
_AT_T, _AT_T1 = list(range(1, _SHIFT + 1)), list(range(_SHIFT + 1, 2 * _SHIFT + 1))
_STEP_NAMES = (*(f"{n}@t" for n in ACCOUNT_NAMES), *(f"{n}@t+1" for n in ACCOUNT_NAMES))
_EVOLVE = [f"evolve:{name}" for name in ACCOUNT_NAMES]


def build_economy_category() -> FiniteCategory:
    """The account category: object i + 1 is account ACCOUNT_NAMES[i], no flows yet."""
    return FiniteCategory.from_columns("economy", ACCOUNT_NAMES, (), (), (), ())


# The gate's cone: the one point 'all', sent to 'ok'.
_SPEC_CONE = FinSetMap(("all",), ("ok",), {"all": "ok"})


def prove_booking_table(compiled: Mapping[int, tuple]) -> dict[int, tuple]:
    """Each booking's constants, once what a period relies on is proved of them.

    `compiled` is `compile_booking_table`'s result.  EngineConsistencyError names
    the first booking whose pushout of (leg -> account) against (leg -> leg)
    glues two accounts, does not commute or folds a leg off its compiled
    position, whose all-'ok' legs pulled back against `_SPEC_CONE` miss one,
    or whose flows `extend` refuses.  The constants: the pushout's two maps
    and the flows' src, dst, slot and label columns.
    """
    flows_of_all = build_economy_category()
    proved = {}
    for booking_id, (_, _, legs, sides, channels) in compiled.items():
        tokens = tuple(range(len(legs)))
        accounts = tuple(dict.fromkeys(account for account, _ in sides))
        to_account = FinSetMap(tokens, accounts, {i: side[0] for i, side in zip(tokens, sides)})
        to_slot = FinSetMap(tokens, tokens, dict(zip(tokens, tokens)))
        _, by_account, by_leg = finset_pushout(to_account, to_slot)
        i_a, i_b = list(by_account.mapping.values()), list(by_leg.mapping.values())
        owners = dict(zip(i_a, map(ACCOUNT_INDEX.__getitem__, accounts)))
        all_ok = FinSetMap(tokens, _SPEC_CONE.codomain, dict.fromkeys(tokens, "ok"))
        covered = [leg for leg, _ in finset_pullback(all_ok, _SPEC_CONE)[0]]
        ids = [ACCOUNT_INDEX[account] + 1 for account, _ in sides]
        flows = [(ids[s], ids[d], legs[s][2], f"b{booking_id}:{name}") for s, d, name in channels]
        problem = None
        if len(owners) != len(i_a):
            problem = f"pushout glued {max(map(i_a.count, i_a))} accounts into one class"
        elif i_b != list(map(by_account, to_account.mapping.values())):
            problem = "pushout square does not commute: a leg left its account"
        elif [owners[c] for c in i_b] != [index for index, _, _ in legs]:
            problem = "the pushout's fold leaves the compiled legs"
        elif covered != list(tokens):
            problem = f"the all-ok pullback covers legs {covered} of {len(legs)}"
        else:
            try:  # the slots stand in for the weights, which `extend` does not check
                flows_of_all.extend(*zip(*flows))
            except CategoryError as exc:
                problem = str(exc)
        if problem is not None:
            raise EngineConsistencyError(f"booking {booking_id}: {problem}")
        proved[booking_id] = (to_account, to_slot, tuple(zip(*flows)))
    return proved


_FIXED = MappingProxyType(prove_booking_table(_COMPILED))


def booking_to_morphisms(cat: FiniteCategory, booking_id: int, amounts: tuple) -> range:
    """Record a booking's proved channels as morphisms of `cat` through `extend`; their ids."""
    src, dst, slots, labels = booking_entry(_FIXED, booking_id)[2]
    return cat.extend(src, dst, [amounts[slot] for slot in slots], labels)


def validate_via_pullback(
    balances: list[float], booking_id: int, amounts: tuple[float, ...]
) -> tuple[bool, list[str]]:
    """Gate a booking against the all-'ok' pullback `prove_booking_table` proved.

    `balances` are the 20 opening balances in ACCOUNT_NAMES order.  A booking
    whose compiled legs post onto a copy of them has every leg 'ok', which the
    proved apex covers.  A leg that cannot post is not 'ok', so no apex covers
    it: the booking is refused with `validate_booking`'s verdict, as
    `post_booking` refuses it.  No period calls it: with `apply_via_pushout`
    it is the reference gate and fold the tests hold `post_booking` to.
    """
    if post_compiled(balances[:], booking_id, amounts):
        return True, []
    return validate_booking(balances, booking_id, amounts)


def apply_via_pushout(values: list[float], booking_id: int, amounts: tuple[float, ...]) -> None:
    """Apply a validated booking by folding its legs through the pushout's injections.

    The pushout of (leg -> account) against (leg -> leg) sends each leg to the
    class of exactly one account.  `prove_booking_table` proved that account's
    position is the compiled leg's, so each of `_COMPILED`'s legs is added
    there or subtracted, in leg order.  No period calls it: it is the
    reference fold, written apart from the posting kernels.
    """
    for i, inflow, slot in booking_entry(_COMPILED, booking_id)[2]:
        values[i] = values[i] + amounts[slot] if inflow else values[i] - amounts[slot]


def build_time_step(
    flows: FiniteCategory, old: Sequence[float], new: Sequence[float]
) -> tuple[FiniteCategory, Functor, Functor, NaturalTransformation]:
    """The period as a natural transformation between two snapshot functors.

    `old` and `new` are the 20 opening and closing balances in
    ACCOUNT_NAMES order.  F_t and F_t1 embed `flows`, the account category
    with the period's flows, at the two levels of the target: account i at
    i and at i + 20.  Each component is one account's evolution edge,
    weighted by its net flow.  The target's columns hold the components,
    then the flows' images at t, then at t+1: well formed, so the id lists are `proved`.
    """
    src, dst, m = flows.src, flows.dst, len(flows.src)
    step = FiniteCategory(
        "time-step",
        list(_STEP_NAMES),
        _AT_T + src + [i + _SHIFT for i in src],
        _AT_T1 + dst + [i + _SHIFT for i in dst],
        [*map(sub, new, old), *flows.weight, *flows.weight],
        _EVOLVE + flows.label * 2,
    )
    f_t = Functor.proved(flows, step, _AT_T[:], list(range(_SHIFT + 1, _SHIFT + m + 1)))
    f_t1 = Functor.proved(flows, step, _AT_T1[:], list(range(_SHIFT + m + 1, _SHIFT + 2 * m + 1)))
    return step, f_t, f_t1, NaturalTransformation.proved(f_t, f_t1, _AT_T[:])


def verify_time_step(
    flows: FiniteCategory, eta: NaturalTransformation, old: Sequence[float], new: Sequence[float]
) -> None:
    """Raise EngineConsistencyError unless the period's laws all hold.

    Checks the two snapshot functors, that each of them sends every flow
    to a morphism with the flow's label and weight, the naturality of the
    evolution transformation, and that every component's weight equals the
    account's realised net flow.  The functor laws compare endpoints only,
    so without the label test an image moved onto a parallel flow (the two
    dividend channels share their endpoints) would pass.
    """
    failures: list[str] = []
    for functor, tag in ((eta.F, "F_t"), (eta.G, "F_t+1")):
        failures.extend(f"{tag}: {msg}" for msg in check_functor_laws(functor).failures)
        target = functor.target
        labels, weights, bound = target.label, target.weight, len(target.src)
        images = zip(itertools.count(1), flows.label, flows.weight, functor.morphism_images)
        for mor_id, label, weight, mapped in images:
            if mapped is None or not 1 <= mapped <= bound:
                continue  # reported by the law check, a missing image too
            image_label, image_weight = labels[mapped - 1], weights[mapped - 1]
            if image_label != label or image_weight != weight:
                failures.append(
                    f"{tag}: morphism {mor_id} ({label}) maps to "
                    f"{image_label!r} weighted {image_weight}, not {weight}"
                )
    failures.extend(f"naturality: {msg}" for msg in check_naturality(eta).failures)
    weights, bound = eta.F.target.weight, len(eta.F.target.src)
    for name, net, comp_id in zip(flows.names, map(sub, new, old), _fit(eta.components, len(old))):
        if comp_id is None or not 1 <= comp_id <= bound:
            failures.append(f"component weight for {name}: no evolution component")
        elif weights[comp_id - 1] != net:
            failures.append(
                f"component weight for {name}: {weights[comp_id - 1]} != net flow {net}"
            )
    if failures:
        raise EngineConsistencyError("period law check failed", failures)


@functools.cache
def _flows_shape(posted: tuple[int, ...]) -> tuple[str, list, list, list, list, list]:
    """The columns of bookings `posted`'s flows, weighted by their amounts' positions in turn."""
    shape, at = build_economy_category(), 0
    for booking_id in posted:
        width = booking_entry(_COMPILED, booking_id)[1]
        booking_to_morphisms(shape, booking_id, range(at, at + width))
        at += width
    return shape.name, shape.names, shape.src, shape.dst, shape.weight, shape.label


def _close_time_step(opening: list[float], closing: list[float], bookings: tuple) -> None:
    """The categorical close: the law checks on the period's realised time step.

    Its flows are copies of `_flows_shape`'s columns for the posted
    `bookings`' ids, weighted by their amounts.
    """
    posted, pairs = zip(*bookings)
    name, names, src, dst, at, label = _flows_shape(posted)
    amounts = [amount for pair in pairs for amount in pair]
    weights = list(map(amounts.__getitem__, at))
    flows = FiniteCategory(name, names[:], src[:], dst[:], weights, label[:])
    *_, eta = build_time_step(flows, opening, closing)
    verify_time_step(flows, eta, opening, closing)


# each engine's close; the recursive engine has none
_CLOSES = {EngineKind.RECURSIVE: None, EngineKind.CATEGORICAL: _close_time_step}


def period_step(
    state: list[float],
    params: Parameters,
    period: int,
    engine: EngineKind | str = EngineKind.RECURSIVE,
) -> tuple[list[float], PeriodMetrics]:
    """Execute period `period` of `state` under `params`; the input state is never touched.

    Returns a fresh next state and the period's metrics; `period_amounts(metrics,
    params)` gives the bookings it posted.
    """
    if engine not in _CLOSES:
        engine = EngineKind(engine)
    return _period_cycle(state, state[:_WAGES_AT], params, period, _CLOSES[engine])


def run(
    params: Parameters,
    horizon: int | None = None,
    engine: EngineKind | str = EngineKind.RECURSIVE,
) -> Trace:
    """Deterministic trace of `horizon` periods (rows 0..horizon inclusive).

    `engine` is an `EngineKind` or its value, 'recursive' or 'categorical'.
    A `horizon` given replaces `params.horizon` before the one `validate`,
    and the trace's `params` carry the horizon that ran.  A period that refuses
    a booking or a value it makes ends the run with a `ValidationFailure`
    whose `period` names that period, so every cell of a trace is finite; a
    period whose laws fail ends it with an `EngineConsistencyError` naming it.
    """
    engine = EngineKind(engine)
    if horizon is not None:
        params = params._replace(horizon=horizon)
    params.validate()
    state = initial_state(params)
    cells: list[float] = []  # one array is built at the end: a list extends at half the cost
    for period in range(params.horizon + 1):
        opening = state[:_WAGES_AT]
        checks = invariances(opening)
        try:
            state, metrics = period_step(state, params, period, engine)
        except (ValidationFailure, EngineConsistencyError) as exc:
            exc.period = period
            raise
        cells.extend((period, *metrics, *opening, *checks))
    return Trace(params, engine, array("d", cells))


# ---------------------------------------------------------------------------
# Stability reporting.
# ---------------------------------------------------------------------------

STABILITY_SERIES: tuple[str, ...] = (
    "GoodPrice",
    "Investment",
    "AccLabBank",
    "AccResBank",
    "AccCapBank",
    "AccComBank",
    "AccBankComBank",
    "AccBankLabBank",
    "AccBankResBank",
    "AccBankCapBank",
)

BOUNDED_LIMIT = 1e9
DRIFT_WINDOW = 10


class StabilityReport(NamedTuple):
    bounded: bool
    drift: dict[str, float]


def stability_report(trace: Trace) -> StabilityReport:
    """Boundedness plus last-window relative drift of the key series.

    Drift of a series is max over the final DRIFT_WINDOW steps of
    |x_t - x_{t-1}| / max(1, |x_t|); bounded means every trace cell is
    finite and below BOUNDED_LIMIT in magnitude.
    """
    if len(trace.column("period")) < 20:
        raise ValueError("stability report needs a trace of at least 20 rows")
    bounded = all(abs(v) <= BOUNDED_LIMIT for v in trace.cells)  # False for nan and inf
    drift: dict[str, float] = {}
    for key in STABILITY_SERIES:
        window = trace.column(key)[-(DRIFT_WINDOW + 1) :]
        drift[key] = max(
            abs(b - a) / max(1.0, abs(b)) for a, b in zip(window, window[1:])
        )
    return StabilityReport(bounded=bounded, drift=drift)
