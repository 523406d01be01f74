"""Cut points in the cells of a common breakpoint refinement.

The consensus splitter and the cut oracle search the same space: k cut
points, weakly increasing along the cake, each placed in a cell of the
refinement of all agents' breakpoints.  Both screen each placement with
interval arithmetic and hand the placements that pass to the exact solver.
This module owns what the two share: the refinement, each agent's prefix
values at its edges and density in its cells, the same prefix rows and the
agents' thresholds scaled to integers for the screen, and the rows of the
linear system over the cut positions.

A cut at x in cell c (edges[c] <= x <= edges[c+1]) enters agent i's prefix
value through the affine term

    F_i(x) = d * x + (F_i(edges[c]) - d * edges[c]),   d = density of i in c,

so once each cut's cell is fixed, any signed sum of prefix values at the
cuts is linear in the cut positions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Sequence

from .feasibility import GE, LE
from .model import ONE, ZERO, Valuation


def tuple_count(cells: int, k: int) -> int:
    """Weakly increasing tuples of k cut cells out of ``cells``."""
    return comb(cells + k - 1, k)


class CellTable:
    """The refinement of ``valuations`` and, per agent, a threshold of
    ``shares[i]`` times the agent's total.

    ``edges`` are the refinement's sorted edges and ``cells`` its cell
    count.  ``prefix[i][e]`` is agent i's value of [0, edges[e]],
    ``terms[i][c]`` the (slope, offset) of agent i's prefix value for a cut
    in cell c.  ``int_prefix[i]`` and ``int_thresholds[i]`` are agent i's
    prefix row and threshold times the lcm of their denominators: a positive
    factor, so comparing sums of prefix differences with the threshold gives
    the same outcome on either scale.
    """

    def __init__(self, valuations: Sequence[Valuation], shares: Sequence[Fraction]):
        edges = sorted({b for v in valuations for b in v.breakpoints})
        self.edges = edges
        self.cells = len(edges) - 1
        self.prefix = [[v.cumulative(e) for e in edges] for v in valuations]
        self.thresholds = [s * row[-1] for s, row in zip(shares, self.prefix)]
        self.terms = []
        self.int_prefix, self.int_thresholds = [], []
        for v, row, t in zip(valuations, self.prefix, self.thresholds):
            densities = [v.density_at(e) for e in edges[:-1]]
            self.terms.append([(d, p - d * e) for d, p, e in zip(densities, row, edges)])
            scale = lcm(t.denominator, *(p.denominator for p in row))
            self.int_prefix.append([p.numerator * (scale // p.denominator) for p in row])
            self.int_thresholds.append(t.numerator * (scale // t.denominator))

    def tuples(self, k: int):
        """Weakly increasing cut-cell tuples of length k, lexicographically."""
        return combinations_with_replacement(range(self.cells), k)

    def value_row(self, i: int, cells: Sequence[int], signs: Sequence, const: Fraction):
        """Agent i's value  const + sum_j signs[j] * F_i(x_j)  with cut j in
        cell cells[j], as (coefficients over the cuts, constant)."""
        terms = self.terms[i]
        coeffs = []
        for s, c in zip(signs, cells):
            if s:
                d, offset = terms[c]
                coeffs.append(s * d)
                const += s * offset
            else:
                coeffs.append(ZERO)
        return coeffs, const

    def placement_rows(self, cells: Sequence[int]) -> list:
        """Each cut inside its cell's box, and cuts sharing a cell in order."""
        k = len(cells)
        edges = self.edges
        rows = []
        for j, c in enumerate(cells):
            unit = [ZERO] * k
            unit[j] = ONE
            rows.append((unit, GE, edges[c]))
            rows.append((unit, LE, edges[c + 1]))
        for j in range(k - 1):
            if cells[j] == cells[j + 1]:
                row = [ZERO] * k
                row[j] = ONE
                row[j + 1] = -ONE
                rows.append((row, LE, ZERO))
        return rows
