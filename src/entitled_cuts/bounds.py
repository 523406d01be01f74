"""Lower-bound instance family and the exhaustive minimal-cut oracle.

The oracle decides, for a concrete instance and cut budget k, whether any
proportional allocation with at most k cuts exists.  Its combinations are
a weakly increasing assignment of the k cut points to cells of the common
breakpoint refinement, then a piece-to-agent map, and it asks the exact
feasibility solver about them in canonical order: cut-cell tuples
lexicographically, then maps lexicographically.  Decisions are exact and
deterministic; an answer for a sampled instance says nothing about other
instances.

The oracle never lists the combinations.  It walks cut-cell prefixes
depth first (``cells.walk``), and for each it keeps the owner prefixes of
the pieces the placed cuts fix that could still end in a feasible system,
judged by each agent's prefix table scaled to integers.  Owner prefixes
of equal state share one node, and a state is dropped once an equal one,
with as many cuts placed and the last in the same cell, has reached no
full tuple (see ``_first_feasible``).  At a full tuple a map must pass
the interval prefilter of a plain scan, and then the ordered-chain bound:
each agent's row maximised over the solver's own domain, with the cuts
that share a cell kept in order (``_ordered_reach``).  Both only drop
infeasible systems, so the systems that reach the solver are, in order,
a subsequence of the plain scan's, and the first feasible one is the
same.  ``systems_examined`` is the position of that combination in
canonical order, or the number of all combinations, computed by counting
and ranking tuples and maps rather than by visiting them.  The budget
bounds the work actually done: owner states kept plus systems built at
full tuples, whether the bound refutes them or the solver decides them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import sub
from typing import Iterator, Optional, Sequence

from .cells import DEFAULT_BUDGET, CellTable, Work, tuple_count, tuple_rank, walk
from .errors import NotFoundWithin
from .feasibility import GE, check_feasible, solve_feasibility
from .model import (
    FULL_CAKE,
    ONE,
    ZERO,
    Allocation,
    Instance,
    Interval,
    Region,
    Valuation,
)


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
    return Instance(tuple(valuations), tuple(entitlements))


@dataclass(frozen=True)
class CutBudgetCertificate:
    k: int
    feasible: bool
    allocation: Optional[Allocation]
    systems_examined: int


def _completions(n: int, unused: int, left: int) -> int:
    """Owner sequences for the ``left`` pieces after a nonempty owner
    prefix that leaves ``unused`` agents out: each piece's owner differs
    from the previous piece's, and every unused agent appears.  By
    inclusion-exclusion over the unused agents a sequence avoids, each
    term counting the (n - 1 - t)^left sequences over the other owners.
    With one agent there is one sequence: it owns every piece."""
    if n == 1:
        return 1
    return sum((-1) ** t * comb(unused, t) * (n - 1 - t) ** left for t in range(unused + 1))


def _map_count(n: int, pieces: int) -> int:
    """Piece-to-agent maps the oracle ranges over: for n >= 2, those that
    give every agent a piece and never give adjacent pieces to one agent.

    Dropping the other maps keeps every decision: every entitlement is
    positive, and an allocation with at most k real cuts always has an
    alternating-owner representation (park unused cut points at 1 and
    alternate the empty pieces).
    """
    return n * _completions(n, n - 1, pieces - 1)


def _map_rank(n: int, assign: Sequence[int]) -> int:
    """Position of ``assign`` among the maps of its length, which run in
    lexicographic order."""
    rank, used, previous = 0, 0, -1
    for j, owner in enumerate(assign):
        left = len(assign) - j - 1
        for a in range(owner):
            if a != previous:
                rank += _completions(n, n - (used | 1 << a).bit_count(), left)
        used |= 1 << owner
        previous = owner
    return rank


def feasible_with_k_cuts(
    instance: Instance,
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> CutBudgetCertificate:
    """Decide whether a proportional allocation with at most k cuts exists.

    Cut points may coincide (empty pieces are allowed), which makes
    feasibility monotone in k by construction.  The first feasible
    combination in canonical order (cut-cell assignments ascending, then
    piece maps ascending) yields the witness allocation via the
    lex-minimal cut positions.  ``systems_examined`` is that combination's
    position in canonical order, counting from 1, or the number of all
    combinations when none is feasible.  Raises BudgetExceeded as soon as
    the work done, owner states kept plus systems built at full tuples,
    exceeds ``budget``, rather than ever returning an undecided status.
    """
    if k < 0:
        raise ValueError("cut budget must be nonnegative")
    if not _map_count(instance.n, k + 1):  # no map to rank, so no table to build
        return CutBudgetCertificate(k, False, None, 0)
    table = CellTable(instance.valuations, instance.entitlements, FULL_CAKE)
    return _certificate(table, k, budget)


def certificates(
    instance: Instance,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[CutBudgetCertificate]:
    """The certificates of ``feasible_with_k_cuts`` for k = 0, 1, ..., k_max,
    up to and including the first feasible one, all decided over one
    ``CellTable`` of the instance.  ``k_max`` is checked at the call; each
    certificate is yielded as soon as it is decided."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    table = CellTable(instance.valuations, instance.entitlements, FULL_CAKE)
    return _certificates(table, k_max, budget)


def _certificates(table: CellTable, k_max: int, budget: int):
    for k in range(k_max + 1):
        cert = _certificate(table, k, budget)
        yield cert
        if cert.feasible:
            return


def _certificate(table: CellTable, k: int, budget: int) -> CutBudgetCertificate:
    n = len(table.totals)
    maps = _map_count(n, k + 1)
    if not maps:  # fewer pieces than agents
        return CutBudgetCertificate(k, False, None, 0)
    found = _first_feasible(table, k, budget)
    if found is None:
        return CutBudgetCertificate(k, False, None, tuple_count(table.cells, k) * maps)
    cells, assign, cuts = found
    examined = tuple_rank(table.cells, cells) * maps + _map_rank(n, assign) + 1
    return CutBudgetCertificate(k, True, _allocation_from_cuts(n, cuts, assign), examined)


def _first_feasible(table: CellTable, k: int, budget: int):
    """The first combination in canonical order whose system is feasible,
    as (cut cells, owners, cut positions), or None.

    A depth-first walk over cut-cell prefixes; edges[e] is the left end
    of cell e, or 1 for e = cells.  Once cuts 1..j lie in
    cells c_1 <= ... <= c_j, pieces 0..j-1 are fixed: piece p spans at most
    edge indices [c_p, c_{p+1} + 1] (c_0 = 0), so its gain
    F_i(edges[c_{p+1} + 1]) - F_i(edges[c_p]) bounds what agent i can get
    from it.  Each cell prefix keeps the frontier of owner prefixes for its
    fixed pieces, each with every agent's slack: the gains of
    the pieces it owns, plus F_i(1) - F_i(edges[c_j]), minus its threshold.
    The pieces still to come lie in [edges[c_j], 1], so the second term
    bounds what the agent can own of them, and an owner prefix with a
    negative slack has no feasible completion.  Neither has one that
    repeats an owner on adjacent pieces (for n >= 2).

    An agent is needy in an owner prefix while the gains of the pieces it
    owns are below its threshold, that is while its slack is below its
    remaining term F_i(1) - F_i(edges[c_j]).  Every threshold is positive,
    so an agent that owns no piece yet is needy.  A needy agent must own
    one of the pieces still to come, so an owner prefix with more needy
    agents than pieces left has no feasible completion, and neither has
    one whose last owner is needy when one piece is left (for n >= 2,
    where that owner may not own the next piece).  Gains only grow, so
    only the owner of the new piece can stop being needy.  An owner prefix
    with two agents short at cell c, or with one that may not own the next
    piece, stays so at every later cell, since the remaining term only
    falls as c grows: the later cells do without it, and once no owner
    prefix is left they are skipped.

    At a full tuple the last piece gains exactly the remaining term, so a
    map passes exactly when the gains of every agent's pieces reach its
    threshold: the interval prefilter of a plain scan.  A map that passes
    leaves no agent needy, so every owner prefix of it passes each test
    above: the gains of a prefix's pieces are those of the full tuple's
    pieces, and a needy agent of a prefix must own a later piece.  Each
    map that passes costs one unit of work, and its system must then pass
    the ordered-chain bound (``_ordered_reach``), which credits an agent
    with a cell's mass once for cuts that share the cell, before it goes
    to the exact LP, in canonical order.  The bound is the maximum of each
    agent's row over the LP's own domain, so it drops only infeasible
    systems.  The walk drops no system the prefilter passes, so the
    systems it sends are, in order, a subsequence of the plain scan's, and
    the first feasible one is the plain scan's.

    Whether a test keeps an owner prefix, and the slack, last owner and
    needy agents of each child it makes, depend on the cells and on three
    things only: the prefix's slack, its last owner and its needy agents,
    its state.  So owner prefixes of equal state have the same
    descendants, and each cell prefix keeps one node per state, with a
    link (parent, owner) for every owner prefix that reached it: the nodes
    of a frontier-based search (Knuth, TAOCP 4A, section 7.1.4).  Each
    state is tested and extended once, and every decision is the one each
    of its owner prefixes would get on its own.  At a full tuple the maps
    are read back along the links and sorted: they are the maps that pass
    the prefilter, in canonical order, so the LP sees the same systems in
    the same order, and the work counts states, not owner prefixes.

    The same three things and the cells decide a state's whole subtree:
    a state with d cuts placed, the last in cell c, is extended over the
    cells from c on, and each child's fate again depends only on its own
    state.  So whether a state reaches a full-tuple leaf depends only on
    (d, c, state), and states of equal key come back under many cell
    prefixes.  Once the walk has left a state's subtree, the state is
    recorded dead if no leaf's owner prefixes were read back through it,
    and a later state of a dead key is dropped when it is made.  Its
    subtree holds no map that passes the prefilter, so dropping it sends
    the LP the same systems in the same order, every decision stands, and
    only the work falls.
    """
    n = len(table.int_thresholds)
    pieces = k + 1
    ncells = table.cells
    # at[e][i]: agent i's scaled value of [0, edges[e]].  The last piece
    # ends at a cut in cell ncells, whose two edges are both the cake's end.
    at = [tuple(row[e] for row in table.int_prefix) for e in range(ncells + 1)]
    at.append(at[-1])
    # owners allowed after owner `last`; index n stands before the first piece
    allowed = [
        tuple(a for a in range(n) if a != last or n == 1) for last in range(n)
    ] + [tuple(range(n))]
    work = Work(budget, ncells, "oracle", "owner states kept plus systems built", f"k={k}")
    # dead[depth, c]: the keys of the states made with cut ``depth`` in
    # cell c that reached no full-tuple leaf
    dead = defaultdict(set)
    # (depth, c, states made) of the calls whose states' subtrees the walk
    # has not yet left, deepest last
    pending = []

    def extend(frontier, lo: int, c: int, depth: int) -> tuple:
        """The owner states that extend ``frontier`` with an owner of
        piece ``depth``, which spans edges [lo, c + 1], and the part of
        ``frontier`` that may still extend at a later cell.  An owner state
        is (slack, last owner, needy agents as a bitmask, links, owner
        prefixes); the prefixes are listed only when ``_owner_maps`` reads
        them, so a state whose prefixes are listed has reached a leaf."""
        # the walk is depth first, so every state an earlier call made at
        # this depth or deeper has had its whole subtree walked
        while pending and pending[-1][0] >= depth:
            d, cell, made = pending.pop()
            dead[d, cell].update(key for key, state in made.items() if not state[4])
        gone = dead[depth, c]
        drop = list(map(sub, at[c], at[lo]))  # what the remaining term loses
        gain = list(map(sub, at[c + 1], at[lo]))
        rest = list(map(sub, at[-1], at[c]))  # the child's remaining term
        left = pieces - depth - 1  # pieces after this one
        barred = left == 1 and n > 1  # this piece's owner may not own the last
        made, alive = {}, []
        for node in frontier:
            slack, last, needy, _, _ = node
            base = list(map(sub, slack, drop))
            low = min(base)
            if low < 0:
                # only the one agent short can own the piece, which makes
                # up its shortfall: gain - drop is cell c's mass
                a = base.index(low)
                base[a] = 0
                if min(base) < 0 or a not in allowed[last]:
                    continue  # drop only grows with c
                base[a] = low
                owners = (a,)
            else:
                owners = allowed[last]
            alive.append(node)
            for a in owners:
                value = base[a] + gain[a]
                still = needy & ~(1 << a) if value >= rest[a] else needy
                if still.bit_count() <= left and not (barred and still >> a & 1):
                    child = base[:]
                    child[a] = value
                    key = (*child, a, still)
                    state = made.get(key)
                    if state is None:
                        if key not in gone:
                            made[key] = (child, a, still, [(node, a)], [])
                    else:
                        state[3].append((node, a))
        if depth < k:  # a leaf is reached by definition
            pending.append((depth, c, made))
        return list(made.values()), alive

    # every threshold is positive, so every agent starts needy
    root = (list(map(sub, at[-1], table.int_thresholds)), n, (1 << n) - 1, [], [()])
    for cells, frontier in walk(ncells, k, [root], extend, work.spend):
        # the last piece gains the whole remaining term, so its owner's
        # slack stands and every other agent's falls by the term
        leaves = extend(frontier, cells[-1] if k else 0, ncells, k)[0]
        for assign in sorted(m for leaf in leaves for m in _owner_maps(leaf)):
            if k == 0:  # no cut variables: the bound is the exact value
                return (), assign, ()
            work.spend(1, cells, k)
            constraints = _oracle_system(table, cells, assign)
            if _ordered_reach(cells, constraints) and check_feasible(k, constraints):
                t = solve_feasibility(k, constraints)
                return cells, assign, table.to_cuts(cells, t)
    return None


def _owner_maps(state) -> list:
    """The owner prefixes of ``state``: those of each link's (parent,
    owner) followed by that owner.  They are listed on first use and kept
    on the state while the walk keeps it, so an ancestor shared by many
    states, or by the states of many tuples, lists its prefixes once."""
    maps = state[4]
    if not maps:
        maps += [p + (a,) for parent, a in state[3] for p in _owner_maps(parent)]
    return maps


def _oracle_system(table, cells, assign):
    """Integer constraints over the k cuts' cell coordinates for one
    combination.

    Piece j runs from cut j-1 to cut j, with the cake's ends 0 and 1 closing
    the first and the last piece, so cut j enters the value of piece j's
    owner with sign + and that of piece j+1's owner with sign -.  The end 1
    adds the last owner's total; the end 0 adds nothing.
    """
    k = len(cells)
    constraints = []
    for i, threshold in enumerate(table.int_thresholds):
        signs = [(assign[j] == i) - (assign[j + 1] == i) for j in range(k)]
        total = table.int_prefix[i][-1] if assign[k] == i else 0
        coeffs, const = table.value_row(i, cells, signs, total)
        constraints.append((coeffs, GE, threshold - const))
    return constraints + table.ordering_rows(cells)


def _ordered_reach(cells, constraints) -> bool:
    """Whether every ``>=`` row of an oracle system reaches its right-hand
    side somewhere on the LP's domain: the unit box of the t's and the
    ordering rows, which keep each chain of cuts in one cell in order,
    t_a <= ... <= t_b.  The vertices of a chain's domain set a suffix of
    it to 1 and the rest to 0, and chains in different cells do not
    constrain each other, so a row's maximum is the sum over the chains
    of each chain's largest suffix sum of coefficients, 0 included."""
    k = len(cells)
    for coeffs, relation, rhs in constraints:
        if relation != GE:
            continue
        reach = top = run = 0
        for j in range(k - 1, -1, -1):
            run += coeffs[j]
            top = max(top, run)
            if j == 0 or cells[j - 1] != cells[j]:  # the chain starts at cut j
                reach += top
                top = run = 0
        if reach < rhs:
            return False
    return True


def _allocation_from_cuts(n: int, cuts: Sequence[Fraction], assign: Sequence[int]) -> Allocation:
    points = [ZERO, *cuts, ONE]
    pieces = [[] for _ in range(n)]
    for j, owner in enumerate(assign):
        pieces[owner].append(Interval(points[j], points[j + 1]))
    return Allocation(tuple(map(Region, pieces)))


def min_cuts(
    instance: Instance,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Smallest k <= k_max admitting a proportional allocation with k cuts.

    Raises NotFoundWithin(k_max) when every budget up to k_max is infeasible.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    for k in range(k_max + 1):
        if feasible_with_k_cuts(instance, k, budget).feasible:
            return k
    raise NotFoundWithin(k_max)
