"""Behavioral formulas of the five-sector economy, plus the contract memory's due and push.

All functions are pure; the simulation engines call them in a fixed order
each period.  Parameter defaults are the reference scenario the golden
tests are frozen against.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence


class Parameters(NamedTuple):
    """The 22 behavioral constants plus initial endowments and the horizon."""

    tau: int = 10  # payment contracts run for tau periods
    lam: float = 0.2  # labor share of each investment
    sig_a: float = 20.0  # investment sigmoid floor
    sig_b: float = 480.0  # investment sigmoid range
    sig_c: float = 200.0  # investment sigmoid surplus scale
    rho_r: float = 0.8  # resource owner's propensity to consume
    rho_l: float = 0.95  # labor owner's propensity to consume
    rho_c: float = 0.6  # dividend owner's propensity to consume
    mu: float = 0.5  # markup on contractual costs
    omega: float = 0.5  # windfall price response to excess demand
    delta_c: float = 0.15  # dividend rate on the period surplus
    delta_b: float = 0.4  # dividend rate on the cash position
    p_r: float = 25.0  # resource price
    p_l: float = 12.0  # labor price
    p_0: float = 30.0  # initial good price
    gamma: float = 0.75  # output elasticity of labor
    alpha: float = 0.42  # productivity factor
    beta_l: float = 0.95  # carry-over factor for Lab's goods
    beta_r: float = 0.7  # carry-over factor for Res's goods
    beta_c: float = 0.6  # carry-over factor for Cap's goods
    nu_l: float = 100.0  # new labor hours per period
    nu_r: float = 100.0  # new resource kg per period
    com_lab_0: float = 110.0  # company's initial labor stock
    com_res_0: float = 20.0  # company's initial resource stock
    horizon: int = 100

    def validate(self) -> None:
        """Raise ValueError naming the first field, in field order, that breaks its rule."""
        for name, value in zip(self._fields, self):
            rule = _RANGES.get(name)
            if rule is None:  # tau and horizon: a bool is not a count
                if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                    raise ValueError(f"{name} must be an integer >= 1")
            elif isinstance(value, bool) or not isinstance(value, (float, int)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            elif not rule[0] <= value <= rule[1]:
                raise ValueError(f"{name} {rule[2].format(value)}")
            elif not math.isfinite(value):  # an infinity inside its range, refused by name
                raise ValueError(f"{name} must be finite, got {value}")
        # sig_a + sig_b is the sigmoid's supremum and rounding is monotone, so
        # a finite sum bounds every investment: no loan of inf is booked
        sup = self.sig_a + self.sig_b
        if not math.isfinite(sup):
            raise ValueError(f"sig_a + sig_b must be finite, got {sup}")


# A rule is (low, high, refusal): a value is refused unless low <= value <= high,
# so NaN, which fails every comparison, is refused by each rule.
_FRACTION = (0.0, 1.0, "must lie in [0, 1], got {}")
_NON_NEGATIVE = (0.0, math.inf, "must be non-negative")
_POSITIVE = (math.ulp(0.0), math.inf, "must be positive")
_NUMBER = (-math.inf, math.inf, "must be a number, got {}")

# each float field's one rule, in field order
_RANGES = {
    "lam": _FRACTION,
    "sig_a": _NON_NEGATIVE,  # the sigmoid's infimum: a non-negative loan at every surplus
    "sig_b": _POSITIVE, "sig_c": _POSITIVE,
    "rho_r": _FRACTION, "rho_l": _FRACTION, "rho_c": _FRACTION,
    "mu": _NUMBER, "omega": _NUMBER,  # no range is fixed for these, but NaN is not a value
    "delta_c": _FRACTION, "delta_b": _FRACTION,
    "p_r": _POSITIVE, "p_l": _POSITIVE, "p_0": _POSITIVE,
    "gamma": _FRACTION, "alpha": _POSITIVE,
    "beta_l": _FRACTION, "beta_r": _FRACTION, "beta_c": _FRACTION,
    "nu_l": _NON_NEGATIVE, "nu_r": _NON_NEGATIVE,
    "com_lab_0": _NON_NEGATIVE, "com_res_0": _NON_NEGATIVE,
}


def _total(entries: Sequence[float]) -> float:
    """The correctly rounded sum of non-negative `entries`: inf where `math.fsum` overflows."""
    try:
        return math.fsum(entries)
    except OverflowError:
        return math.inf


def memory_due(wages: Sequence[float], repays: Sequence[float]) -> tuple[float, float]:
    """Total wage and repayment obligations falling due this period."""
    try:
        return math.fsum(wages), math.fsum(repays)
    except OverflowError:  # total each apart, so that only the one past the largest double is inf
        return _total(wages), _total(repays)


def memory_push(history: Sequence[float], value: float) -> tuple[float, ...]:
    """Prepend `value`, forgetting the oldest entry; length is preserved."""
    if value < 0.0:
        raise ValueError("memory entries must be non-negative")
    return (value, *history[:-1])


class PeriodMetrics(NamedTuple):
    """The derived variables of one period, in trace column order."""

    wages_payment: float
    repays_payment: float
    consum_lab: float
    consum_res: float
    consum_cap: float
    demand: float
    demand_plan: float
    demand_surplus: float
    good_production: float
    good_price: float
    investment: float
    investment_res: float
    investment_lab: float
    repayment: float
    diff: float
    dividend_decision: float
    dividend_payment: float


# Each field's trace column is its name in CamelCase: `wages_payment` is
# `WagesPayment`, ..., `dividend_payment` is `DividendPayment`.
METRIC_COLUMNS: tuple[str, ...] = tuple(
    name.title().replace("_", "") for name in PeriodMetrics._fields
)


def consumption(
    balances: tuple[float, float, float], rho_l: float, rho_r: float, rho_c: float
) -> tuple[float, float, float, float]:
    """Consumption budgets as fixed fractions of (Lab, Res, Cap) bank balances."""
    lab, res, cap = balances
    c_lab = rho_l * lab
    c_res = rho_r * res
    c_cap = rho_c * cap
    return c_lab, c_res, c_cap, c_lab + c_res + c_cap


def demand_plan(wages_payment: float, repays_payment: float, mu: float) -> float:
    """Revenue the company plans for: contractual costs plus markup."""
    return (wages_payment + repays_payment) * (1.0 + mu)


def production(labor: float, resources: float, alpha: float, gamma: float) -> float:
    """Cobb-Douglas output 1 + alpha * L^gamma * R^(1-gamma); 0^gamma is 0."""
    if labor < 0.0 or resources < 0.0:
        raise ValueError("production inputs must be non-negative")
    return 1.0 + alpha * labor**gamma * resources ** (1.0 - gamma)


def good_price(
    plan: float,
    output: float,
    surplus: float,
    omega: float,
    period: int,
    p_0: float,
) -> float:
    """Unit price: planned revenue per unit, plus a windfall on excess demand.

    The initial price p_0 enters only in the very first period, before any
    plan exists to anchor the ratio.
    """
    price = plan / output + omega * max(0.0, surplus)
    if period == 0:
        price += p_0
    return price


def investment_sigmoid(surplus: float, sig_a: float, sig_b: float, sig_c: float) -> float:
    """Sigmoid response of investment to the demand surplus.

    Strictly increasing, bounded in (sig_a, sig_a + sig_b), and exactly
    sig_a + sig_b/2 at zero surplus.  The negative branch uses the
    overflow-free form of the logistic.
    """
    z = surplus / sig_c
    if z >= 0.0:
        return sig_a + sig_b / (1.0 + math.exp(-z))
    scaled = math.exp(z)
    return sig_a + sig_b * scaled / (1.0 + scaled)


def allocate_investment(investment: float, lam: float, tau: int) -> tuple[float, float, float]:
    """Split an investment into resource and labor shares plus the installment.

    The resource share is the exact complement of the labor share, so the
    two always reassemble to the full investment.
    """
    investment_lab = investment * lam
    investment_res = investment - investment_lab
    repayment = investment / tau
    return investment_res, investment_lab, repayment


def dividend_decision(
    diff: float, start_com_bank: float, delta_c: float, delta_b: float
) -> float:
    """Dividend declared from the period surplus and the opening cash position."""
    declared = max(0.0, diff * delta_c)
    if start_com_bank > 0.0:
        declared += start_com_bank * delta_b
    return declared
