"""Division protocols for agents with unequal entitlements.

All protocols return an AlgorithmReport with the allocation, its cut set,
and the cut bound that applies to the algorithm on that instance:

- recursive_divide: consensus-halving recursion, at most
  2n*log2(nhat) - 2*nhat + 2 cuts, every agent exactly proportional.
- clone_divide: replicate agent i into numerator-many unit clones over the
  common denominator D and divide equally; at most D-1 cuts.  With every
  entitlement 1/n this is Even-Paz: one interval per agent, n-1 cuts.
- special3_half, special3_equal_pair: 3-agent protocols with at most 4 cuts
  when one entitlement is 1/2 or two entitlements are equal.
- near_equal_divide: cloning when n-1 entitlements equal 1/D, so each light
  agent holds one clone: at most 2(n-1) cuts.
- auto_solve: dispatches among the above.

Tie-breaking is everywhere by smallest agent index / leftmost coordinate,
so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import inf, lcm
from typing import Optional, Sequence

from .errors import InternalCheckFailed, PreconditionViolated
from .model import (
    FULL_CAKE,
    ONE,
    ZERO,
    Allocation,
    Instance,
    Interval,
    Region,
    Valuation,
    boundary_points,
    measure_of,
)
from .split import DEFAULT_BUDGET, exact_split


@dataclass(frozen=True)
class AlgorithmReport:
    allocation: Allocation
    cuts: tuple[Fraction, ...]
    algorithm: str
    bound: int

    def __post_init__(self):
        if len(self.cuts) > self.bound:
            raise InternalCheckFailed(
                f"{self.algorithm}: {len(self.cuts)} cuts exceed the bound {self.bound}")


def _report(instance: Instance, pieces_by_agent: dict, algorithm: str, bound: int) -> AlgorithmReport:
    pieces = tuple(pieces_by_agent.get(i, Region()) for i in range(instance.n))
    allocation = Allocation(pieces)
    return AlgorithmReport(allocation, boundary_points(allocation), algorithm, bound)


def upper_bound_cuts(n: int) -> int:
    """Worst-case cuts of the recursive protocol: 2n*log2(nhat) - 2*nhat + 2
    with nhat = n rounded up to the nearest power of two; 0 for one agent."""
    if n < 1:
        raise ValueError("need at least one agent")
    nhat = 1 << (n - 1).bit_length()
    log2 = nhat.bit_length() - 1
    return 2 * n * log2 - 2 * nhat + 2


def _recursive(instance: Instance, budget: int, limit: float) -> Optional[AlgorithmReport]:
    """The recursive report, or None once it provably has more than
    ``limit`` cuts.

    Each split gives the first floor(n/2) agents of its group (by index) a
    region worth exactly their share of the group's entitlement to everyone,
    then recurses on both sides.  Every endpoint of a split's part inside
    (0, 1) is a cut of the final allocation: one side goes to the part's
    group, the other to the complement's group or lies outside the sub-cake,
    whose ends are earlier cuts.  Each split adds these endpoints to
    ``cuts``; once ``cuts`` holds more than ``limit`` points, the recursion
    stops."""
    entitlements, valuations = instance.entitlements, instance.valuations
    pieces: dict[int, Region] = {}
    cuts: set[Fraction] = set()

    def split(agents: range, subcake: Region) -> bool:
        if len(agents) == 1:
            pieces[agents[0]] = subcake
            return True
        first, rest = agents[:len(agents) // 2], agents[len(agents) // 2:]
        ratio = sum(entitlements[i] for i in first) / sum(entitlements[i] for i in agents)
        group_vals = tuple(valuations[i] for i in agents)
        part, complement = exact_split(group_vals, subcake, ratio, budget=budget)
        cuts.update(x for iv in part.intervals for x in (iv.lo, iv.hi) if ZERO < x < ONE)
        return len(cuts) <= limit and split(first, part) and split(rest, complement)

    if not split(range(instance.n), FULL_CAKE):
        return None
    return _report(instance, pieces, "recursive", upper_bound_cuts(instance.n))


def recursive_divide(instance: Instance, budget: int = DEFAULT_BUDGET) -> AlgorithmReport:
    """Recursive consensus halving.  Every agent's final value is exactly
    entitlement * own total, because each level splits exactly."""
    return _recursive(instance, budget, inf)


def _even_split(groups, lo, hi, valuations):
    """Even-Paz divide and conquer (Even and Paz 1984) of [lo, hi] over
    clone groups, as {agent: [Interval]}.  ``groups`` holds one (agent,
    clone count) pair per agent, n clones in all.  Each sub-cake on the
    work list is divided once: every group marks where its agent values
    [lo, mark] at floor(n/2)/n of [lo, hi], reading the running values at
    lo and hi with one ``cumulatives`` call and the mark with one
    ``marks`` call; a group that values [lo, hi] at 0 marks lo.  The first
    floor(n/2) clones, in (mark, agent) order, go left, so only the group
    straddling the split point is divided.  Each clone gets one interval
    worth at least 1/n of the sub-cake to its agent, at most n-1 cuts are
    made, and a sub-cake held by a single group goes whole to its agent."""
    pieces, work = {i: [] for i, _ in groups}, [(groups, lo, hi)]
    while work:
        groups, lo, hi = work.pop()
        if len(groups) == 1:
            pieces[groups[0][0]].append(Interval(lo, hi))
            continue
        n = sum(count for _, count in groups)
        n_left = n // 2
        marks = []
        for i, count in groups:
            v = valuations[i]
            at_lo, at_hi = v.cumulatives((lo, hi))
            if at_lo == at_hi:
                mark = lo
            else:
                (mark,) = v.marks((at_lo + (at_hi - at_lo) * n_left / n,))
            marks.append((mark, i, count))
        marks.sort()
        left, right = [], []
        short = n_left  # clones the left side still lacks
        for mark, i, count in marks:
            take = min(count, short)
            if take:
                left.append((i, take))
                short -= take
                if not short:
                    split_at = mark
            if count > take:
                right.append((i, count - take))
        work += ((left, lo, split_at), (right, split_at, hi))
    return pieces


def clone_divide(instance: Instance) -> AlgorithmReport:
    """Replicate each agent by its entitlement numerator over the common
    denominator D, divide equally among the D clones, and make each agent's
    region from its clone pieces.  Uses at most D-1 cuts.  The clones are
    counts, so the work grows with n*log(D) for any denominator D."""
    denominator = lcm(*(t.denominator for t in instance.entitlements))
    copies = [int(t * denominator) for t in instance.entitlements]
    split = _even_split(list(enumerate(copies)), ZERO, ONE, instance.valuations)
    pieces = {i: Region(intervals) for i, intervals in split.items()}
    return _report(instance, pieces, "clone", denominator - 1)


def cut_and_choose(owner: Valuation, chooser: Valuation, piece: Region):
    """Two-agent split of a piece, connected or not, with a single cut.

    The owner finds the point where the piece's running value (by the
    owner's measure) reaches exactly half: one ``cumulatives`` call reads
    the owner's running values at the piece's endpoints, and one ``marks``
    call places the point in the interval where half is reached.  The
    chooser takes the weakly better of piece-left-of-point /
    piece-right-of-point (ties -> left).
    Costs one new cut point regardless of how many intervals the piece has,
    which is what keeps the three-agent protocol within its cut budget.
    Returns (owner part, chooser part).
    """
    total = measure_of(owner, piece)
    if total <= ZERO:
        raise ValueError("owner must value the piece positively")
    half = total / 2
    ends = owner.cumulatives(x for iv in piece.intervals for x in (iv.lo, iv.hi))
    acc = ZERO
    mid = None
    for at_lo, at_hi in zip(ends[::2], ends[1::2]):
        value = at_hi - at_lo
        if acc + value >= half:
            (mid,) = owner.marks((at_lo + half - acc,))
            break
        acc += value
    if mid is None:
        raise InternalCheckFailed("running value of the piece never reaches half its measure")
    left = piece.intersect(Region([Interval(ZERO, mid)]))
    right = piece.difference(left)
    if measure_of(chooser, left) >= measure_of(chooser, right):
        return right, left
    return left, right


def special3_half(instance: Instance, budget: int = DEFAULT_BUDGET) -> AlgorithmReport:
    """Three agents, one entitled to exactly 1/2: at most 4 cuts.

    The other two agents split the whole cake between themselves with their
    entitlements doubled (2 cuts), then each shares their piece with the
    half-entitled agent by cut-and-choose over the piece as a whole (one
    cut each)."""
    if instance.n != 3:
        raise PreconditionViolated("protocol needs exactly three agents")
    half_idx = next((i for i, t in enumerate(instance.entitlements) if t == Fraction(1, 2)), None)
    if half_idx is None:
        raise PreconditionViolated("no entitlement equals 1/2")
    chooser = instance.valuations[half_idx]
    first, second = (i for i in range(3) if i != half_idx)
    part, complement = exact_split(
        (instance.valuations[first], instance.valuations[second]), FULL_CAKE,
        2 * instance.entitlements[first], budget=budget,
    )
    pieces, taken = {}, []
    for i, stage in ((first, part), (second, complement)):
        pieces[i], half_part = cut_and_choose(instance.valuations[i], chooser, stage)
        taken += half_part.intervals
    pieces[half_idx] = Region(taken)
    return _report(instance, pieces, "special3-half", 4)


def _window_region(edges: Sequence[Fraction], start: int, width: int) -> Region:
    """Region of ``width`` consecutive parts of the partition given by
    ``edges`` (0 = e_0 < ... < e_D = 1), wrapping past the end."""
    d = len(edges) - 1
    end = start + width
    if end <= d:
        return Region([Interval(edges[start], edges[end])])
    return Region([Interval(edges[start], ONE), Interval(ZERO, edges[end - d])])


def special3_equal_pair(instance: Instance, budget: int = DEFAULT_BUDGET) -> AlgorithmReport:
    """Three agents, two with equal (rational) entitlements B/D: at most 4 cuts.

    Treat the cake as a pie by identifying the endpoints.  The first agent
    of the equal pair marks D parts of equal own value; the odd agent picks
    the B-consecutive-part window worth least to them (wrapping allowed,
    ties to the smallest start index), which the pigeonhole principle makes
    worth at most B/D of their total.  Whichever pair agent can afford to
    give the window up takes it; the remaining two agents split the rest
    exactly in ratios B/(D-B), (D-2B)/(D-B).

    The work grows linearly with D: the marker places D-1 marks and the odd
    agent prices D windows, so D = 10^5 takes seconds where cloning
    handles D = 10^9 in milliseconds.
    """
    if instance.n != 3:
        raise PreconditionViolated("protocol needs exactly three agents")
    pair = next(
        ((i, j) for i in range(3) for j in range(i + 1, 3)
         if instance.entitlements[i] == instance.entitlements[j]),
        None,
    )
    if pair is None:
        raise PreconditionViolated("no two entitlements are equal")
    first, second = pair
    odd = next(i for i in range(3) if i not in pair)
    share = instance.entitlements[first]
    b, d = share.numerator, share.denominator
    if d <= 2 * b:
        raise PreconditionViolated("equal pair must leave the third agent a positive share")

    marker = instance.valuations[first]
    edges = [ZERO] + marker.marks(marker.total * p / d for p in range(1, d)) + [ONE]
    odd_val = instance.valuations[odd]
    # the odd agent's value of [0, e_s]; a window that wraps past 1 is
    # worth the end of the cake plus the start
    cum = odd_val.cumulatives(edges)
    total = cum[d]
    _, start = min(
        (cum[s + b] - cum[s] if s + b <= d else cum[s + b - d] + total - cum[s], s)
        for s in range(d)
    )
    window = _window_region(edges, start, b)
    if measure_of(odd_val, window) * d > b * odd_val.total:
        raise InternalCheckFailed("cheapest window exceeds the pigeonhole bound")

    second_val = instance.valuations[second]
    if measure_of(second_val, window) * d <= b * second_val.total:
        taker, partner = first, second
    else:
        taker, partner = second, first
    part, complement = exact_split(
        (instance.valuations[partner], odd_val), FULL_CAKE.difference(window),
        Fraction(b, d - b), budget=budget,
    )
    pieces = {taker: window, partner: part, odd: complement}
    return _report(instance, pieces, "special3-equal-pair", 4)


def _near_equal(instance: Instance) -> bool:
    """Whether at least n-1 of n >= 2 entitlements equal one 1/D."""
    shares = instance.entitlements
    return instance.n >= 2 and any(
        t.numerator == 1 and shares.count(t) >= instance.n - 1 for t in shares
    )


def near_equal_divide(instance: Instance) -> AlgorithmReport:
    """n-1 agents entitled to exactly 1/D each: at most 2(n-1) cuts.

    This is cloning: the common denominator is D, so each light agent
    holds one clone and the heavy agent the other D-n+1.  Every light agent
    keeps a single interval, and the heavy agent's pieces merge, so only
    the light pieces' endpoints are cuts."""
    if not _near_equal(instance):
        raise PreconditionViolated("need at least n-1 entitlements equal to 1/D")
    return replace(clone_divide(instance), algorithm="near-equal", bound=2 * (instance.n - 1))


DEFAULT_CLONE_CAP = 64


def auto_solve(instance: Instance, budget: int = DEFAULT_BUDGET) -> AlgorithmReport:
    """Pick a protocol: the near-equal pattern first, then the three-agent
    special cases, otherwise the better (fewer cuts) of cloning (when the
    common denominator is at most ``DEFAULT_CLONE_CAP``) and the recursive
    divider, preferring the recursive result on ties.

    Cloning runs first, and the recursion stops as soon as its splits have
    made more cuts than cloning's result, which then wins (branch and
    bound).  The chosen report is the one the full comparison would pick.
    A later split that would have failed, for example with
    ``BudgetExceeded``, is never run once cloning has won, so that
    instance returns cloning's report instead of raising."""
    if _near_equal(instance):
        return near_equal_divide(instance)
    if instance.n == 3:
        if any(t == Fraction(1, 2) for t in instance.entitlements):
            return special3_half(instance, budget)
        if len(set(instance.entitlements)) < 3:
            return special3_equal_pair(instance, budget)
    denominator = lcm(*(t.denominator for t in instance.entitlements))
    if denominator > DEFAULT_CLONE_CAP:
        return recursive_divide(instance, budget)
    clone = clone_divide(instance)
    recursive = _recursive(instance, budget, len(clone.cuts))
    if recursive is None:
        return clone
    return min((recursive, clone), key=lambda rep: len(rep.cuts))
