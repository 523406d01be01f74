"""Fair cake division with unequal entitlements, in exact rational arithmetic.

Divide a one-dimensional cake among agents whose entitlements are arbitrary
positive rationals summing to one.  Protocols include a recursive
consensus-halving divider (at most 2n*log2(nhat) - 2*nhat + 2 cuts), agent
cloning (at most D-1 cuts over the common denominator D), three-agent
special cases (at most 4 cuts), and a near-equal pattern (at most 2n-2
cuts).  A brute-force oracle decides, for small instances, the minimal
number of cuts any proportional allocation needs; the bundled lower-bound
family makes 2n-2 cuts necessary.
"""

from .bounds import (
    CutBudgetCertificate,
    feasible_with_k_cuts,
    gen_lower_bound_instance,
    min_cuts,
)
from .errors import (
    BudgetExceeded,
    EmptySubcake,
    EntitledCutsError,
    InternalCheckFailed,
    NoSplitFound,
    NotFoundWithin,
    PreconditionViolated,
    TargetExceedsRemainder,
)
from .feasibility import check_feasible, solve_feasibility
from .generate import random_instance
from .model import (
    Allocation,
    Instance,
    Interval,
    Region,
    Valuation,
    boundary_points,
    format_rational,
    measure_of,
    parse_rational,
)
from .protocols import (
    AlgorithmReport,
    auto_solve,
    clone_divide,
    cut_and_choose,
    near_equal_divide,
    recursive_divide,
    special3_equal_pair,
    special3_half,
    upper_bound_cuts,
)
from .split import exact_split, pie_arc_count
from .verifier import VerificationReport, verify_allocation

__all__ = [
    "Allocation",
    "AlgorithmReport",
    "BudgetExceeded",
    "CutBudgetCertificate",
    "EmptySubcake",
    "EntitledCutsError",
    "Instance",
    "InternalCheckFailed",
    "Interval",
    "NoSplitFound",
    "NotFoundWithin",
    "PreconditionViolated",
    "Region",
    "TargetExceedsRemainder",
    "Valuation",
    "VerificationReport",
    "auto_solve",
    "boundary_points",
    "check_feasible",
    "clone_divide",
    "cut_and_choose",
    "exact_split",
    "feasible_with_k_cuts",
    "format_rational",
    "gen_lower_bound_instance",
    "measure_of",
    "min_cuts",
    "near_equal_divide",
    "parse_rational",
    "pie_arc_count",
    "random_instance",
    "recursive_divide",
    "solve_feasibility",
    "special3_equal_pair",
    "special3_half",
    "upper_bound_cuts",
    "verify_allocation",
]

__version__ = "0.1.0"
