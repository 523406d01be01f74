"""Cut points in the cells of a common breakpoint refinement.

The consensus splitter and the cut oracle search the same space: k cut
points, weakly increasing along the cake, each placed in a cell of the
refinement of all agents' breakpoints.  Both screen each placement with
interval arithmetic and hand the placements that pass to the exact solver.
This module owns what the two share: the refinement, each agent's prefix
values at its edges and its threshold, both scaled to integers, and the
integer rows of the linear system over the cuts.

The rows are written in cell coordinates.  A cut in cell c is

    x = edges[c] + w_c * t,   w_c = edges[c+1] - edges[c],   0 <= t <= 1,

and an agent's density is constant in the cell, so with P the agent's
integer prefix row its scaled prefix value at the cut is

    P[c] + (P[c+1] - P[c]) * t.

Once each cut's cell is fixed, any signed sum of prefix values at the cuts
is an integer row over the t's.  The map from t to x is increasing in each
coordinate, so it keeps the feasible set's lexicographic order, and
``to_cuts`` turns the solver's lex-minimal t into the lex-minimal cuts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Sequence

from .feasibility import GE, LE
from .model import Valuation


def tuple_count(cells: int, k: int) -> int:
    """Weakly increasing tuples of k cut cells out of ``cells``."""
    return comb(cells + k - 1, k)


def tuple_rank(cells: int, tup: Sequence[int]) -> int:
    """Position of a weakly increasing tuple in ``CellTable.tuples`` order.

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


class CellTable:
    """The refinement of ``valuations`` and, per agent, a threshold of
    ``shares[i]`` times the agent's total.

    ``edges`` are the refinement's sorted edges and ``cells`` its cell
    count.  ``totals[i]`` and ``thresholds[i]`` are agent i's total and
    threshold.  ``int_prefix[i][e]`` and ``int_thresholds[i]`` are agent
    i's value of [0, edges[e]] and its threshold times the lcm of their
    denominators: a positive factor, so comparing sums of prefix
    differences with the threshold gives the same outcome on either scale.
    """

    def __init__(self, valuations: Sequence[Valuation], shares: Sequence[Fraction]):
        edges = sorted({b for v in valuations for b in v.breakpoints})
        self.edges = edges
        self.cells = len(edges) - 1
        self.totals, self.thresholds = [], []
        self.int_prefix, self.int_thresholds = [], []
        for v, share in zip(valuations, shares):
            row = [v.cumulative(e) for e in edges]
            t = share * row[-1]
            scale = lcm(t.denominator, *(p.denominator for p in row))
            self.totals.append(row[-1])
            self.thresholds.append(t)
            self.int_prefix.append([p.numerator * (scale // p.denominator) for p in row])
            self.int_thresholds.append(t.numerator * (scale // t.denominator))

    def tuples(self, k: int):
        """Weakly increasing cut-cell tuples of length k, lexicographically."""
        return combinations_with_replacement(range(self.cells), k)

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

    def placement_rows(self, cells: Sequence[int]) -> list:
        """Each cut inside its cell (0 <= t_j <= 1), and cuts sharing a cell
        in order."""
        k = len(cells)
        rows = []
        for j in range(k):
            unit = [0] * k
            unit[j] = 1
            rows.append((unit, GE, 0))
            rows.append((unit, LE, 1))
        for j in range(k - 1):
            if cells[j] == cells[j + 1]:
                row = [0] * k
                row[j] = 1
                row[j + 1] = -1
                rows.append((row, LE, 0))
        return rows

    def to_cuts(self, cells: Sequence[int], t: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The cut positions of cell coordinates ``t``."""
        edges = self.edges
        return tuple(edges[c] + (edges[c + 1] - edges[c]) * tc for c, tc in zip(cells, t))
