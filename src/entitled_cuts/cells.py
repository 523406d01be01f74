"""Cut points in the cells of a common breakpoint refinement.

The consensus splitter and the cut oracle search the same space: k cut
points, weakly increasing along a region of the cake, each placed in a cell
of the refinement of all agents' breakpoints.  The oracle's region is the
whole cake; the splitter's is a sub-cake, whose components are read in
order as one pie.  Both walk the placements cut by cut, drop a prefix once
interval arithmetic shows no completion passes, and hand the rest to the
exact solver.  This module owns what the two share: the refinement, each
agent's running value over its cells and its threshold, both scaled to
integers, the walk, the work budget, and the integer rows of the linear
system over the cuts.

Each component of the region is cut at the breakpoints strictly inside it,
and the cells are the pieces, in order along the cake.  The rows are
written in cell coordinates.  A cut in cell c, which spans [lo, hi], is

    x = lo + (hi - lo) * t,   0 <= t <= 1,

and an agent's density is constant in the cell, so with P the agent's
integer running-value row (its value of the region's cells before c is
P[c]) its scaled value of the region up to the cut is

    P[c] + (P[c+1] - P[c]) * t.

Once each cut's cell is fixed, any signed sum of these values at the cuts
is an integer row over the t's.  The unit box of the t's is the solver's
domain, so of the placement only the order of cuts sharing a cell needs
rows (``ordering_rows``).  The map from t to x is increasing in each
coordinate, so it keeps the feasible set's lexicographic order, and
``to_cuts`` turns the solver's lex-minimal t into the lex-minimal cuts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .errors import BudgetExceeded
from .feasibility import LE
from .model import ZERO, Region, Valuation

DEFAULT_BUDGET = 10**7


def tuple_count(cells: int, k: int) -> int:
    """Weakly increasing tuples of k cut cells out of ``cells``."""
    return comb(cells + k - 1, k)


def tuple_rank(cells: int, tup: Sequence[int]) -> int:
    """Position of a weakly increasing tuple in lexicographic order.

    The tuples before it whose first j entries agree with it and whose
    next entry is smaller are those of length k - j from cells >= tup[j-1]
    less those from cells >= tup[j]: a difference of two tuple counts per
    position (the combinatorial number system, shifted to allow repeats).
    """
    k = len(tup)
    rank, low = 0, 0
    for j, c in enumerate(tup):
        rank += tuple_count(cells - low, k - j) - tuple_count(cells - c, k - j)
        low = c
    return rank


def walk(cells: int, k: int, root, extend, spend):
    """Depth first over the weakly increasing tuples of k cells out of
    ``cells``, lexicographically: yields (tuple, state) for each full tuple
    whose every prefix survived.  A state lists the partial systems a
    prefix keeps, from ``root``.  ``extend(state, lo, c, depth)`` places
    cut ``depth`` in cell c >= lo, the cell of the cut before (0 for the
    first), and returns the child's state, falsy if it dies, and what of
    ``state`` may extend at a later cell, falsy once nothing can.  Each
    child kept costs ``spend(len(child), tup, depth + 1)``, its cells in tup.
    """
    tup = [0] * k

    def descend(depth: int, lo: int, state):
        if depth == k:
            yield tuple(tup), state
            return
        for c in range(lo, cells):
            child, state = extend(state, lo, c, depth)
            if child:
                tup[depth] = c
                spend(len(child), tup, depth + 1)
                yield from descend(depth + 1, c, child)
            if not state:
                break

    return descend(0, 0, root)


class Work:
    """The work of one split or one oracle decision, checked against
    ``budget`` as it grows; the BudgetExceeded text names the search, where
    it was (``at``), the work done, its units and the cut-cell tuple reached."""

    def __init__(self, budget: int, cells: int, search: str, units: str, at: str):
        self.budget, self.cells, self.search, self.units, self.at = budget, cells, search, units, at
        self.done = 0

    def spend(self, units: int, tup: Sequence[int], placed: int) -> None:
        self.done += units
        if self.done > self.budget:
            k = len(tup)  # the reached prefix ranks as its first completion
            padded = [*tup[:placed], *[tup[placed - 1] if placed else 0] * (k - placed)]
            raise BudgetExceeded(
                f"{self.search} budget of {self.budget} exceeded at {self.at}: {self.done} units "
                f"of work done ({self.units}), at cut-cell tuple "
                f"{tuple_rank(self.cells, padded)} of {tuple_count(self.cells, k)}"
            )


class CellTable:
    """The refinement of ``valuations`` over the region ``cake`` and, per
    agent, a threshold of ``shares[i]`` times the agent's value of it.

    ``spans[c]`` is cell c's (lo, hi) and ``cells`` the cell count.
    ``totals[i]`` and ``thresholds[i]`` are agent i's value of ``cake`` and
    its threshold.  ``int_prefix[i][c]`` and ``int_thresholds[i]`` are agent
    i's value of the cells before c and its threshold times the lcm of their
    denominators: a positive factor, so comparing sums of prefix
    differences with the threshold gives the same outcome on either scale.
    """

    def __init__(self, valuations: Sequence[Valuation], shares: Sequence[Fraction],
                 cake: Region):
        points = sorted({b for v in valuations for b in v.breakpoints})
        self.spans = []
        rows = [[ZERO] for _ in valuations]
        for comp in cake.intervals:
            inner = points[bisect_right(points, comp.lo):bisect_left(points, comp.hi)]
            edges = [comp.lo, *inner, comp.hi]
            self.spans += zip(edges, edges[1:])
            for v, row in zip(valuations, rows):
                start, *values = v.cumulatives(edges)
                # shift is minus the agent's value of the gaps so far: zero
                # on the whole cake, which then skips a Fraction add per edge
                shift = row[-1] - start
                row += (shift + x for x in values) if shift else values
        self.cells = len(self.spans)
        self.totals, self.thresholds = [], []
        self.int_prefix, self.int_thresholds = [], []
        for row, share in zip(rows, shares):
            t = share * row[-1]
            scale = lcm(t.denominator, *(p.denominator for p in row))
            self.totals.append(row[-1])
            self.thresholds.append(t)
            self.int_prefix.append([p.numerator * (scale // p.denominator) for p in row])
            self.int_thresholds.append(t.numerator * (scale // t.denominator))

    def value_row(self, i: int, cells: Sequence[int], signs: Sequence[int], const: int):
        """Agent i's scaled value  const + sum_j signs[j] * P(cut j)  with
        cut j in cell cells[j], as (integer coefficients over the t's,
        integer constant)."""
        row = self.int_prefix[i]
        coeffs = []
        for s, c in zip(signs, cells):
            if s:
                coeffs.append(s * (row[c + 1] - row[c]))
                const += s * row[c]
            else:
                coeffs.append(0)
        return coeffs, const

    def ordering_rows(self, cells: Sequence[int]) -> list:
        """Cuts sharing a cell in order.  That each cut lies inside its
        cell, 0 <= t_j <= 1, is the LP's domain and needs no row."""
        k = len(cells)
        rows = []
        for j in range(k - 1):
            if cells[j] == cells[j + 1]:
                row = [0] * k
                row[j] = 1
                row[j + 1] = -1
                rows.append((row, LE, 0))
        return rows

    def to_cuts(self, cells: Sequence[int], t: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The cut positions of cell coordinates ``t``."""
        spans = self.spans
        return tuple(spans[c][0] + (spans[c][1] - spans[c][0]) * tc for c, tc in zip(cells, t))
