"""Constructive consensus splitter for piecewise-constant measures.

Given a sub-cake and n agents, find a region that every agent values at
exactly `ratio` times their value of the sub-cake, using at most n-1 arcs
on the sub-cake's pie: its components end to end, with its two ends
identified.

The search enumerates candidate arc structures by increasing arc count m.
Every structure is one region [x1, x2] u [x3, x4] u ... of m arcs that
misses the origin, the pie's joined ends.  A part that holds the origin is
the complement of such a region, one worth each agent's total less its
target, and uses the same cuts; so for each m a second walk searches those
regions and returns their complements.  A walk assigns the 2m arc
endpoints to cells of the common breakpoint refinement of the sub-cake, in
the cake's own coordinates, endpoint by endpoint, and asks the exact
feasibility solver for the n value equations plus ordering constraints,
over its unit box of cell coordinates.  The walk tests the value equations
alone as it goes: each prefix keeps the left null space of their columns
so far, and a full tuple whose equations contradict each other never
reaches the solver.
The first feasible system in the canonical order (m ascending, then parts
that miss the origin before parts that hold it, then lexicographic cell
assignments, then the lex-minimal witness) wins, so results are fully
deterministic.  The refinement tables, the walk, the work budget and the
integer rows of each system, in cell coordinates, come from ``cells``,
which the cut oracle shares.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .cells import DEFAULT_BUDGET, CellTable, Work, walk
from .errors import EmptySubcake, InternalCheckFailed, NoSplitFound
from .feasibility import _RHS, EQ, _eliminate, check_feasible, solve_feasibility
from .model import FULL_CAKE, ONE, ZERO, Interval, Region, Valuation, as_rational, measure_of


def pie_arc_count(part: Region, cake: Region = FULL_CAKE) -> int:
    """Number of arcs a region occupies on the pie of ``cake``: its
    components end to end, with the two ends identified.  Runs of the part
    that meet across a gap between components, or across the ends, are one
    arc."""
    ivs, comps = part.intervals, cake.intervals
    gaps = set(zip((c.hi for c in comps), (c.lo for c in comps[1:])))
    runs = len(ivs) - sum((a.hi, b.lo) in gaps for a, b in zip(ivs, ivs[1:]))
    if runs >= 2 and ivs[0].lo == comps[0].lo and ivs[-1].hi == comps[-1].hi:
        return runs - 1
    return runs


def exact_split(valuations: Sequence[Valuation], subcake: Region, ratio: Fraction,
                budget: int = DEFAULT_BUDGET) -> tuple[Region, Region]:
    """Split the sub-cake so every agent values the part at exactly
    ratio * (their value of the sub-cake).

    Each arc count m is searched twice, for a region of m arcs that misses
    the origin: one worth the targets, which is the part, then one worth
    the rest, whose complement is the part.  Deterministic: the first
    feasible arc structure in canonical order is returned with its
    lex-minimal endpoint witness.  Raises BudgetExceeded once its work,
    cut-cell prefixes kept plus LP calls, passes ``budget``, and
    NoSplitFound if the enumeration is exhausted (an implementation bug:
    existence is guaranteed at n-1 arcs).  Returns (part, complement).
    """
    valuations, ratio = tuple(valuations), as_rational(ratio)
    if not valuations:
        raise ValueError("need at least one valuation")
    if not subcake.intervals:
        raise EmptySubcake("split requested on an empty sub-cake")
    if not (ZERO < ratio < ONE):
        raise ValueError(f"ratio must lie strictly between 0 and 1, got {ratio}")
    n = len(valuations)
    table = CellTable(valuations, [ratio] * n, subcake)
    totals, targets = table.totals, table.thresholds
    if min(totals) <= ZERO:
        raise ValueError("every agent must value the sub-cake positively")
    rests = [row[-1] - t for row, t in zip(table.int_prefix, table.int_thresholds)]
    work = Work(budget, table.cells, "split", "cut-cell prefixes kept plus LP calls", "m=1")

    for m in range(1, max(1, n - 1) + 1):
        k = 2 * m
        signs = [-1, 1] * m  # a region's value is  sum_j signs[j] * F(x_j)
        work.at = f"m={m}"
        for holds_origin, goals in ((False, table.int_thresholds), (True, rests)):
            root, extend = _reach(table, signs, goals)
            for cells, ((_, null),) in walk(table.cells, k, root, extend, work.spend):
                if not _consistent(null):
                    continue
                work.spend(1, cells, k)
                constraints = []
                for i, goal in enumerate(goals):
                    coeffs, const = table.value_row(i, cells, signs, 0)
                    constraints.append((coeffs, EQ, goal - const))
                constraints += table.ordering_rows(cells)
                if check_feasible(k, constraints):
                    t = solve_feasibility(k, constraints)
                    xs = table.to_cuts(cells, t)
                    # [x1, x2] u [x3, x4] u ..., whose gaps drop out
                    part = subcake.intersect(Region(map(Interval, xs[::2], xs[1::2])))
                    complement = subcake.difference(part)
                    if holds_origin:
                        part, complement = complement, part
                    if pie_arc_count(part, subcake) > m:
                        raise InternalCheckFailed(f"split part uses more than {m} arcs")
                    for v, target, total in zip(valuations, targets, totals):
                        if (measure_of(v, part) != target
                                or measure_of(v, complement) != total - target):
                            raise InternalCheckFailed("split part is not exact for every agent")
                    return part, complement
    raise NoSplitFound(
        "consensus-split enumeration exhausted; this indicates a bug because "
        "existence is guaranteed"
    )


def _reach(table: CellTable, signs, goals):
    """The root and the ``extend`` of the walk over one arc structure's
    endpoint cells, for regions worth ``goals``.  A state holds one partial
    system: each agent's range [low, high] of region values, from 0, and
    the left null space of the value equations' columns so far (see
    ``_restrict``).  An endpoint with sign + in cell c adds between F(c)
    and F(c + 1), one with sign - the negatives (ordering ignored: a
    relaxation), and one still to come, in a cell >= c, between F(c) and
    F(end) or the negatives.  A prefix dies once a goal is out of reach; at
    a full tuple this is the interval prefilter of a plain scan.  For a cut
    of sign + the low end's bound only grows with c, for one of sign - the
    high end's only falls, so failing there ends the loop over c.  A full
    tuple whose null space leaves a right-hand side (``_consistent``) has
    value equations that contradict each other, and the caller skips it
    without an LP call."""
    later = [(signs[d + 1:].count(1), signs[d + 1:].count(-1)) for d in range(len(signs))]

    def extend(state, lo, c, depth):
        s, (plus, minus) = signs[depth], later[depth]
        (ranges, null), = state
        reach, column, const = [], [], []
        for (low, high), row, goal in zip(ranges, table.int_prefix, goals):
            left, right, end = row[c], row[c + 1], row[-1]
            low, high = (low + left, high + right) if s > 0 else (low - right, high - left)
            if low + plus * left - minus * end > goal:
                return None, s < 0 and state
            if high + plus * end - minus * left < goal:
                return None, s > 0 and state
            reach.append((low, high))
            column.append(s * (right - left))
            const.append(s * left)
        return [(reach, _restrict(null, column, const))], state  # one partial system per prefix

    return [([(0, 0)] * len(goals), _null_space([-g for g in goals]))], extend


# where a null-space vector holds its product with the column being added
_COL = -2


def _null_space(offsets):
    """The left null space of n value equations over no cuts yet: one unit
    vector per agent i, as a sparse dict, holding agent i's offset (its
    constant minus its target) under ``_RHS`` when that is non-zero."""
    return [{i: 1, _RHS: r} if r else {i: 1} for i, r in enumerate(offsets)]


def _restrict(null, column, const):
    """The value equations  sum_j column_j[i] * t_j = -offset[i]  are
    consistent exactly when every vector y of the left null space of their
    columns also has  y . offset = 0  (Rouche-Capelli).  Each vector keeps
    y . offset under ``_RHS``.  Adding a cut adds ``column`` and adds
    ``const`` to the offsets: the first vector with  y . column != 0  is the
    pivot and is dropped, and every other one is made orthogonal to the
    column by ``_eliminate``, the LP's own row update.  The space shrinks
    by at most one vector per cut.  Returns new vectors; ``null`` is kept."""
    out, pivot = [], None
    for y in null:
        alpha = beta = 0
        for i, v in y.items():
            if i != _RHS:
                alpha += v * column[i]
                beta += v * const[i]
        if not (alpha or beta):
            out.append(y)
            continue
        y = dict(y)
        rhs = y.get(_RHS, 0) + beta
        if rhs:
            y[_RHS] = rhs
        else:
            y.pop(_RHS, None)
        if not alpha:
            out.append(y)
        elif pivot is None:
            pivot, pivot_alpha = y, alpha
        else:
            y[_COL] = alpha
            _eliminate(y, _COL, pivot, pivot_alpha, 0)
            out.append(y)
    return out


def _consistent(null) -> bool:
    """Whether the value equations with left null space ``null`` (from
    ``_restrict``) have a solution, bounds aside."""
    return not any(_RHS in y for y in null)
