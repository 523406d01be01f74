"""Constructive consensus splitter for piecewise-constant measures.

Given a sub-cake and n agents, find a region that every agent values at
exactly `ratio` times their value of the sub-cake, using at most n-1 arcs
when the sub-cake is treated as a pie (endpoints identified).

The search enumerates candidate arc structures by increasing arc count m;
for each structure it assigns the 2m arc endpoints to cells of the common
breakpoint refinement and asks the exact feasibility solver for the n value
equations plus ordering and cell-box constraints.  The first feasible
system in the canonical order (m ascending, then origin-outside before
origin-inside, then lexicographic cell assignments, then the lex-minimal
witness) wins, so results are fully deterministic.  The refinement tables,
the integer rows of the interval prefilter and the integer rows of each
system, in cell coordinates, come from ``cells``, which the cut oracle
shares.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cells import CellTable, tuple_count
from .errors import BudgetExceeded, EmptySubcake, InternalCheckFailed, NoSplitFound
from .feasibility import EQ, check_feasible, solve_feasibility
from .model import (
    ONE,
    ZERO,
    Interval,
    Region,
    Valuation,
    as_rational,
    measure_of,
)

DEFAULT_SPLIT_BUDGET = 10**7


@dataclass(frozen=True)
class SplitRequest:
    valuations: tuple[Valuation, ...]
    subcake: Region
    ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "valuations", tuple(self.valuations))
        object.__setattr__(self, "ratio", as_rational(self.ratio))
        if not self.valuations:
            raise ValueError("need at least one valuation")
        if self.subcake.is_empty:
            raise EmptySubcake("split requested on an empty sub-cake")
        if not (ZERO < self.ratio < ONE):
            raise ValueError(f"ratio must lie strictly between 0 and 1, got {self.ratio}")
        for v in self.valuations:
            if measure_of(v, self.subcake) <= ZERO:
                raise ValueError("every agent must value the sub-cake positively")


@dataclass(frozen=True)
class SplitResult:
    part: Region
    complement: Region


@dataclass(frozen=True)
class FlatMap:
    """Coordinate bookkeeping for a sub-cake concatenated onto [0, L].

    Component i of the original sub-cake occupies
    [offsets[i], offsets[i] + components[i].length] on the flat cake, in
    order and without rescaling.
    """

    components: tuple[Interval, ...]
    offsets: tuple[Fraction, ...]

    @property
    def length(self) -> Fraction:
        last = self.components[-1]
        return self.offsets[-1] + last.length

    def to_original(self, x: Fraction) -> Fraction:
        """Map a flat coordinate back; component boundaries map left."""
        if not (ZERO <= x <= self.length):
            raise ValueError(f"flat coordinate {x} outside [0, {self.length}]")
        i = bisect_right(self.offsets, x) - 1
        if i > 0 and x == self.offsets[i]:
            i -= 1  # boundary point belongs to the earlier component
        comp = self.components[i]
        return min(comp.lo + (x - self.offsets[i]), comp.hi)

    def lift_region(self, flat: Region) -> Region:
        """Map a flat region back, splitting at component boundaries."""
        out = []
        for iv in flat.intervals:
            for comp, off in zip(self.components, self.offsets):
                lo = max(iv.lo, off)
                hi = min(iv.hi, off + comp.length)
                if lo < hi:
                    out.append(Interval(comp.lo + (lo - off), comp.lo + (hi - off)))
        return Region(out)


def flatten(subcake: Region, valuations: Sequence[Valuation]):
    """Concatenate a sub-cake's components onto [0, L] without rescaling.

    Returns (L, translated valuations, FlatMap).  Densities are carried over
    cell by cell, so all measures agree with the originals exactly.
    """
    if subcake.is_empty:
        raise EmptySubcake("cannot flatten an empty region")
    offsets = []
    acc = ZERO
    for comp in subcake.intervals:
        offsets.append(acc)
        acc += comp.length
    fmap = FlatMap(subcake.intervals, tuple(offsets))
    flat_vals = [_restrict_to_flat(v, subcake.intervals, offsets) for v in valuations]
    return acc, flat_vals, fmap


def _restrict_to_flat(v: Valuation, components, offsets) -> Valuation:
    bps = [ZERO]
    dens = []
    for comp, off in zip(components, offsets):
        start = bisect_right(v.breakpoints, comp.lo) - 1
        x = comp.lo
        for cell in range(start, len(v.densities)):
            hi = min(v.breakpoints[cell + 1], comp.hi)
            if hi <= x:
                continue
            dens.append(v.densities[cell])
            bps.append(off + (hi - comp.lo))
            x = hi
            if hi == comp.hi:
                break
    return Valuation(tuple(bps), tuple(dens))


def _arc_signs(count: int, origin_inside: bool):
    # Part value is sum of s_j * F(x_j) plus (total if origin_inside).
    # Outside: part = [x1,x2] u [x3,x4] u ...          -> signs -,+,-,+,...
    # Inside:  part = [0,x1] u [x2,x3] u ... u [x2m,L] -> signs +,-,+,-,...
    first = 1 if origin_inside else -1
    return [first if j % 2 == 0 else -first for j in range(count)]


def _part_intervals(xs: Sequence[Fraction], origin_inside: bool, length: Fraction):
    if origin_inside:
        # part = [0, x1] u [x2, x3] u ... u [x_{2m}, L]
        pairs = [(ZERO, xs[0])]
        pairs += [(xs[2 * i - 1], xs[2 * i]) for i in range(1, len(xs) // 2)]
        pairs.append((xs[-1], length))
    else:
        # part = [x1, x2] u [x3, x4] u ...
        pairs = [(xs[2 * i], xs[2 * i + 1]) for i in range(len(xs) // 2)]
    return [Interval(lo, hi) for lo, hi in pairs if lo < hi]


def pie_arc_count(part: Region, length: Fraction = ONE) -> int:
    """Number of arcs a region occupies on a pie of circumference `length`
    (the two endpoints are identified, so touching both merges two runs)."""
    ivs = part.intervals
    if len(ivs) >= 2 and ivs[0].lo == ZERO and ivs[-1].hi == length:
        return len(ivs) - 1
    return len(ivs)


def enumeration_size(cells: int, n_agents: int) -> int:
    """Linear systems the full enumeration would visit (the budget guard)."""
    m_max = max(1, n_agents - 1)
    return sum(2 * tuple_count(cells, 2 * m) for m in range(1, m_max + 1))


def exact_split(req: SplitRequest, budget: int = DEFAULT_SPLIT_BUDGET) -> SplitResult:
    """Split the sub-cake so every agent values the part at exactly
    ratio * (their value of the sub-cake).

    Deterministic: the first feasible arc structure in canonical order is
    returned with its lex-minimal endpoint witness.  Raises BudgetExceeded
    if the enumeration space is larger than ``budget`` systems, and
    NoSplitFound if the enumeration is exhausted (an implementation bug:
    existence is guaranteed at n-1 arcs).
    """
    n = len(req.valuations)
    length, flat_vals, fmap = flatten(req.subcake, req.valuations)
    table = CellTable(flat_vals, [req.ratio] * n)
    # a projected count, checked up front: without a prefix walk the
    # splitter screens every tuple it counts, so the count is its work
    if enumeration_size(table.cells, n) > budget:
        raise BudgetExceeded(
            f"split enumeration would visit more than {budget} systems"
        )
    totals, targets = table.totals, table.thresholds
    int_totals = [row[-1] for row in table.int_prefix]

    m_max = max(1, n - 1)
    for m in range(1, m_max + 1):
        k = 2 * m
        for origin_inside in (False, True):
            signs = _arc_signs(k, origin_inside)
            base = int_totals if origin_inside else [0] * n
            for cells in table.tuples(k):
                if not _within_reach(table, cells, signs, base):
                    continue
                constraints = []
                for i, target in enumerate(table.int_thresholds):
                    coeffs, const = table.value_row(i, cells, signs, base[i])
                    constraints.append((coeffs, EQ, target - const))
                constraints += table.placement_rows(cells)
                if check_feasible(k, constraints):
                    t = solve_feasibility(k, constraints).witness
                    witness = table.to_cuts(cells, t)
                    flat_part = Region(_part_intervals(witness, origin_inside, length))
                    if pie_arc_count(flat_part, length) > m:
                        raise InternalCheckFailed(f"split part uses more than {m} arcs")
                    part = fmap.lift_region(flat_part)
                    complement = req.subcake.difference(part)
                    for v, target, total in zip(req.valuations, targets, totals):
                        if (measure_of(v, part) != target
                                or measure_of(v, complement) != total - target):
                            raise InternalCheckFailed("split part is not exact for every agent")
                    return SplitResult(part, complement)
    raise NoSplitFound(
        "consensus-split enumeration exhausted; this indicates a bug because "
        "existence is guaranteed"
    )


def _within_reach(table: CellTable, cells, signs, base) -> bool:
    """Interval prefilter on the integer-scaled prefix rows.

    With the cuts anywhere in their cells (ordering ignored, so this is a
    relaxation), each agent's part value ranges over [lo, lo + width]: a
    cut with sign + adds at least F(left edge), one with sign - at least
    -F(right edge), and each cut widens the range by its cell's value.
    """
    for row, target, lo in zip(table.int_prefix, table.int_thresholds, base):
        width = 0
        for s, c in zip(signs, cells):
            lo += row[c] if s > 0 else -row[c + 1]
            width += row[c + 1] - row[c]
        if not (lo <= target <= lo + width):
            return False
    return True
