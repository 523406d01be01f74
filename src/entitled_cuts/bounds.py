"""Lower-bound instance family and the exhaustive minimal-cut oracle.

The oracle decides, for a concrete instance and cut budget k, whether any
proportional allocation with at most k cuts exists.  It enumerates weakly
increasing assignments of the k cut points to cells of the common
breakpoint refinement, then piece-to-agent maps, and asks the exact
feasibility solver per combination.  Decisions are exact and deterministic;
an answer for a sampled instance says nothing about other instances.

Before the solver, an interval prefilter bounds what each agent can get
from its pieces given the cells the cuts lie in.  It runs on each agent's
prefix table scaled to integers, and walks the lexicographically sorted
maps owner by owner: as soon as the owners chosen so far leave some agent
unable to reach its threshold even with every remaining piece, the whole
block of maps sharing that prefix is counted as examined and skipped.
The maps that reach the solver, their order, and ``systems_examined`` are
those of a plain scan that runs the prefilter on every map.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, lcm
from operator import sub
from typing import Optional, Sequence

from .errors import BudgetExceeded, NotFoundWithin
from .feasibility import GE, LE, check_feasible, solve_feasibility
from .model import (
    ONE,
    ZERO,
    Allocation,
    Instance,
    Interval,
    Region,
    Valuation,
)

DEFAULT_ORACLE_BUDGET = 10**7


def gen_lower_bound_instance(n: int) -> Instance:
    """Instance family needing 2n-2 cuts.

    The cake splits into 2n-1 equal cells.  Agent 1 spreads its value
    uniformly over the n odd cells; agent k >= 2 concentrates on cell
    2(k-1).  Agent 1's entitlement is (n - 9/10)/n and each other agent
    gets 9/(10n(n-1)), so agent 1 needs a bite of every one of its cells
    while each other agent still needs a bite of its own.
    """
    if n < 2:
        raise ValueError("the family is defined for n >= 2")
    cells = 2 * n - 1
    edges = tuple(Fraction(i, cells) for i in range(cells + 1))
    spread = Fraction(cells, n)  # normalizes agent 1's total value to 1
    valuations = [
        Valuation(edges, tuple(spread if i % 2 == 0 else ZERO for i in range(cells)))
    ]
    for k in range(2, n + 1):
        own_cell = 2 * (k - 1) - 1  # 0-indexed
        valuations.append(
            Valuation(edges, tuple(Fraction(cells) if i == own_cell else ZERO for i in range(cells)))
        )
    entitlements = [Fraction(10 * n - 9, 10 * n)]
    entitlements += [Fraction(9, 10 * n * (n - 1))] * (n - 1)
    return Instance("interval", tuple(valuations), tuple(entitlements))


def instance_digest(instance: Instance) -> str:
    """Stable short digest of an instance's exact content."""
    parts = [instance.topology]
    for v, t in zip(instance.valuations, instance.entitlements):
        parts.append(",".join(str(b) for b in v.breakpoints))
        parts.append(",".join(str(d) for d in v.densities))
        parts.append(str(t))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CutBudgetCertificate:
    instance_digest: str
    k: int
    feasible: bool
    allocation: Optional[Allocation]
    systems_examined: int


def _agent_maps(n: int, pieces: int, prune_adjacent: bool) -> list[tuple[int, ...]]:
    """Piece-to-agent maps in lexicographic order.

    Maps leaving some agent empty-handed are dropped (every entitlement is
    positive, so such a map cannot be proportional).  With pruning on and
    n >= 2, maps giving adjacent pieces to the same agent are dropped too:
    an allocation with at most k real cuts always has an alternating-owner
    representation (park unused cut points at 1 and alternate the empty
    pieces), so the decision is unchanged.
    """
    out = []
    for assign in product(range(n), repeat=pieces):
        if len(set(assign)) != n:
            continue
        if prune_adjacent and n >= 2 and any(a == b for a, b in zip(assign, assign[1:])):
            continue
        out.append(assign)
    return out


def feasible_with_k_cuts(
    instance: Instance,
    k: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
    prune_adjacent: bool = True,
) -> CutBudgetCertificate:
    """Decide whether a proportional allocation with at most k cuts exists.

    Cut points may coincide (empty pieces are allowed), which makes
    feasibility monotone in k by construction.  The first feasible
    combination in canonical order (cut-cell assignments ascending, then
    piece maps ascending) yields the witness allocation via the
    lex-minimal cut positions.  Raises BudgetExceeded, before examining
    any system, when the full enumeration would exceed ``budget`` systems,
    rather than ever returning an undecided status.
    """
    if k < 0:
        raise ValueError("cut budget must be nonnegative")
    n = instance.n
    digest = instance_digest(instance)
    maps = _agent_maps(n, k + 1, prune_adjacent)

    if k == 0:
        examined = 0
        for assign in maps:  # at most one map: everything to one agent
            examined += 1
            owner = assign[0]
            if all(
                (instance.valuations[i].total if i == owner else ZERO)
                >= instance.entitlements[i] * instance.valuations[i].total
                for i in range(n)
            ):
                return CutBudgetCertificate(
                    digest, k, True, _allocation_from_cuts(n, (), assign), examined
                )
        return CutBudgetCertificate(digest, k, False, None, examined)

    edges = sorted({b for v in instance.valuations for b in v.breakpoints})
    n_cells = len(edges) - 1
    projected = comb(n_cells + k - 1, k) * len(maps)
    if projected > budget:
        raise BudgetExceeded(f"oracle would examine {projected} systems (cap {budget})")

    prefix = [[v.cumulative(e) for e in edges] for v in instance.valuations]
    cell_density = [
        [v.density_at(edges[c]) for c in range(n_cells)] for v in instance.valuations
    ]
    thresholds = [t * v.total for t, v in zip(instance.entitlements, instance.valuations)]
    int_prefix, int_thresholds = _integer_tables(prefix, thresholds)
    lcp, skip = _prefix_blocks(maps)

    examined = 0
    for cells in combinations_with_replacement(range(n_cells), k):
        # cut j ranges over edge indices [lo_idx[j], hi_idx[j]]; the pinned
        # boundary points 0 and 1 sit at both ends
        lo_idx = (0,) + tuple(cells) + (n_cells,)
        hi_idx = (0,) + tuple(c + 1 for c in cells) + (n_cells,)
        for m in _prefiltered_maps(maps, lcp, skip, lo_idx, hi_idx, int_prefix, int_thresholds):
            assign = maps[m]
            constraints = _oracle_system(
                n, k, cells, assign, edges, prefix, cell_density, thresholds
            )
            if check_feasible(k, constraints):
                witness = solve_feasibility(k, constraints).witness
                allocation = _allocation_from_cuts(n, witness, assign)
                return CutBudgetCertificate(digest, k, True, allocation, examined + m + 1)
        examined += len(maps)
    return CutBudgetCertificate(digest, k, False, None, examined)


def _integer_tables(prefix, thresholds):
    """Scale each agent's prefix row and threshold to integers.

    Agent i's row and threshold are multiplied by the lcm of their
    denominators, a positive factor, so every comparison of the prefilter
    between sums of prefix differences and the threshold keeps its
    outcome.
    """
    int_prefix, int_thresholds = [], []
    for row, t in zip(prefix, thresholds):
        scale = lcm(t.denominator, *(p.denominator for p in row))
        int_prefix.append([p.numerator * (scale // p.denominator) for p in row])
        int_thresholds.append(t.numerator * (scale // t.denominator))
    return int_prefix, int_thresholds


def _prefix_blocks(maps):
    """Shared-prefix structure of the lexicographically sorted maps.

    lcp[m] is the length of the common prefix of maps[m-1] and maps[m]
    (0 for m = 0).  skip[d][m] is the index just past the contiguous block
    of maps that agree with maps[m] on their first d+1 owners.
    """
    count = len(maps)
    pieces = len(maps[0]) if maps else 0
    lcp = [0] * count
    for m in range(1, count):
        a, b = maps[m - 1], maps[m]
        d = 0
        while a[d] == b[d]:
            d += 1
        lcp[m] = d
    skip = [[count] * count for _ in range(pieces)]
    for d in range(pieces):
        row = skip[d]
        for m in range(count - 2, -1, -1):
            row[m] = row[m + 1] if lcp[m + 1] > d else m + 1
    return lcp, skip


def _prefiltered_maps(maps, lcp, skip, lo_idx, hi_idx, int_prefix, int_thresholds):
    """Indices, ascending, of the maps that pass the interval prefilter.

    Piece j spans at most edge indices [lo_idx[j], hi_idx[j+1]], so its
    gain F_i(hi) - F_i(lo) bounds what agent i can get from it.  Gains
    need no clipping at 0: hi_idx[j+1] > lo_idx[j] and prefix rows never
    fall.  A map passes when every agent's gains over its own pieces
    reach the agent's threshold.  The walk keeps each agent's slack: gains
    of the pieces it owns so far plus all gains still to come, minus its
    threshold.  Slack only falls, so once some agent's slack is negative
    after the first d+1 owners, every map sharing that prefix fails and
    the whole block is skipped.
    """
    n = len(int_thresholds)
    pieces = len(lo_idx) - 1
    gains = [
        [int_prefix[i][hi_idx[j + 1]] - int_prefix[i][lo_idx[j]] for i in range(n)]
        for j in range(pieces)
    ]
    slack = [sum(column) - t for column, t in zip(zip(*gains), int_thresholds)]
    if min(slack) < 0:
        return
    # losses[j][owner]: what each agent's slack drops by when piece j goes
    # to owner; the owner keeps the gain, every other agent loses it
    losses = [
        [tuple(0 if i == owner else g[i] for i in range(n)) for owner in range(n)]
        for g in gains
    ]
    slacks = [tuple(slack)] + [()] * pieces
    m, count = 0, len(maps)
    while m < count:
        assign = maps[m]
        for d in range(lcp[m], pieces):
            s = tuple(map(sub, slacks[d], losses[d][assign[d]]))
            if min(s) < 0:
                m = skip[d][m]
                break
            slacks[d + 1] = s
        else:
            yield m
            m += 1


def _oracle_system(n, k, cells, assign, edges, prefix, cell_density, thresholds):
    """Linear constraints over the k cut variables for one combination."""
    constraints = []
    for i in range(n):
        coeffs = [ZERO] * k
        const = ZERO
        for j, owner in enumerate(assign):
            if owner != i:
                continue
            # piece j's value is F_i(y_{j+1}) - F_i(y_j); y_0 = 0, y_{k+1} = 1
            for endpoint, sign in ((j + 1, ONE), (j, -ONE)):
                if endpoint == 0:
                    continue
                if endpoint == k + 1:
                    const += sign * prefix[i][-1]
                    continue
                c = cells[endpoint - 1]
                d = cell_density[i][c]
                coeffs[endpoint - 1] += sign * d
                const += sign * (prefix[i][c] - d * edges[c])
        constraints.append((coeffs, GE, thresholds[i] - const))
    for j, c in enumerate(cells):
        row_lo = [ZERO] * k
        row_lo[j] = ONE
        constraints.append((row_lo, GE, edges[c]))
        row_hi = [ZERO] * k
        row_hi[j] = ONE
        constraints.append((row_hi, LE, edges[c + 1]))
    for j in range(k - 1):
        if cells[j] == cells[j + 1]:
            row = [ZERO] * k
            row[j] = ONE
            row[j + 1] = -ONE
            constraints.append((row, LE, ZERO))
    return constraints


def _allocation_from_cuts(n: int, cuts: Sequence[Fraction], assign: Sequence[int]) -> Allocation:
    points = [ZERO] + list(cuts) + [ONE]
    pieces: dict[int, Region] = {}
    for j, owner in enumerate(assign):
        lo, hi = points[j], points[j + 1]
        if lo < hi:
            pieces[owner] = pieces.get(owner, Region()).union(Region([Interval(lo, hi)]))
    return Allocation(tuple(pieces.get(i, Region()) for i in range(n)))


def min_cuts(
    instance: Instance,
    k_max: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
    prune_adjacent: bool = True,
) -> int:
    """Smallest k <= k_max admitting a proportional allocation with k cuts.

    Raises NotFoundWithin(k_max) when every budget up to k_max is infeasible.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    for k in range(k_max + 1):
        if feasible_with_k_cuts(instance, k, budget, prune_adjacent).feasible:
            return k
    raise NotFoundWithin(k_max)
