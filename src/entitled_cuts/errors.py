"""Exception taxonomy shared across the package."""


class EntitledCutsError(Exception):
    """Base class for all errors raised by this package."""


class TargetExceedsRemainder(EntitledCutsError, ValueError):
    """A mark was requested for a running value above the valuation's total."""


class EmptySubcake(EntitledCutsError, ValueError):
    """An operation that needs a nonempty sub-cake received an empty region."""


class PreconditionViolated(EntitledCutsError, ValueError):
    """A special-case protocol was invoked on an instance it does not cover."""


class InternalCheckFailed(EntitledCutsError, RuntimeError):
    """An internal post-condition did not hold: a bug, never bad input.

    Raised in place of ``assert`` so that the check also runs under
    ``python -O``.
    """


class NoSplitFound(InternalCheckFailed):
    """The consensus-split enumeration exhausted without a feasible system.

    Existence is guaranteed for the full enumeration, so this is surfaced as
    an implementation bug rather than swallowed: a failed internal check.
    """


class BudgetExceeded(EntitledCutsError, RuntimeError):
    """A search, the splitter's or the oracle's, has done more work than its
    budget allows (``cells.Work``): for the splitter cut-cell prefixes kept
    plus LP calls, for the oracle owner states kept plus systems built."""


class NotFoundWithin(EntitledCutsError):
    """No allocation within the cut budget explored by min_cuts."""

    def __init__(self, k_max: int):
        self.k_max = k_max
        super().__init__(f"no feasible allocation found with at most {k_max} cuts")
