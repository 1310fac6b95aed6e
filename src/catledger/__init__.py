"""Five-sector monetary economy: typed macro ledger plus a categorical engine.

The package simulates a closed economy of labor and resource owners, one
producing company, one dividend owner and one bank, interacting through
eight yearly bookings over 20 typed double-entry T-accounts.  The same
period cycle runs on two interchangeable engines -- a plain recursive one
and a categorical one built from finite categories, functors, natural
transformations, pullback validation and pushout computation -- and both
keep six cross-system accounting invariances at exactly zero.
"""

from types import ModuleType as _ModuleType

from .catcore import (
    FiniteCategory,
    FinSetMap,
    Functor,
    LawReport,
    NaturalTransformation,
    check_functor_laws,
    check_naturality,
    finset_pullback,
    finset_pushout,
    verify_pullback_universal,
    verify_pushout_universal,
)
from .decisions import (
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
from .evolution import (
    EngineConsistencyError,
    EngineKind,
    StabilityReport,
    Trace,
    initial_state,
    period_step,
    run,
    stability_report,
)
from .ledger import (
    ACCOUNT_NAMES,
    Agent,
    AccountKind,
    Direction,
    Invariances,
    Unit,
    ValidationFailure,
    init_ledger,
    invariances,
    post_booking,
    validate_booking,
)

__version__ = "0.1.0"

# every name imported above, the submodules left out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
