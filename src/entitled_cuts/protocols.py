"""Division protocols for agents with unequal entitlements.

All protocols return an AlgorithmReport with the allocation, its cut set,
and the cut bound that applies to the algorithm on that instance:

- recursive_divide: consensus-halving recursion, at most
  2n*log2(nhat) - 2*nhat + 2 cuts, every agent exactly proportional.
- clone_divide: replicate agent i into numerator-many unit clones over the
  common denominator D and divide equally; at most D-1 cuts.
- special3_half, special3_equal_pair: 3-agent protocols with at most 4 cuts
  when one entitlement is 1/2 or two entitlements are equal.
- near_equal_divide: at most 2(n-1) cuts when n-1 entitlements equal 1/D.
- auto_solve: dispatches among the above.

Tie-breaking is everywhere by smallest agent index / leftmost coordinate,
so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import InternalCheckFailed, PieceNotConnected, PreconditionViolated
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
    equal_marks,
    mark_right,
    measure_of,
)
from .split import DEFAULT_SPLIT_BUDGET, SplitRequest, exact_split


@dataclass(frozen=True)
class AlgorithmReport:
    allocation: Allocation
    cuts: tuple[Fraction, ...]
    algorithm: str
    bound: int


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


def _split_two_ways(agents: Sequence[int], weights: Sequence[Fraction], subcake: Region,
                    valuations: Sequence[Valuation], out: dict, budget: int) -> None:
    """Consensus-split recursion: first floor(n/2) agents (by position) get a
    region worth exactly their weight share to everyone, then recurse."""
    if len(agents) == 1:
        out[agents[0]] = subcake
        return
    n_a = len(agents) // 2
    ratio = sum(weights[:n_a], ZERO) / sum(weights, ZERO)
    group_vals = tuple(valuations[i] for i in agents)
    result = exact_split(SplitRequest(group_vals, subcake, ratio), budget=budget)
    _split_two_ways(agents[:n_a], weights[:n_a], result.part, valuations, out, budget)
    _split_two_ways(agents[n_a:], weights[n_a:], result.complement, valuations, out, budget)


def recursive_divide(instance: Instance, budget: int = DEFAULT_SPLIT_BUDGET) -> AlgorithmReport:
    """Recursive consensus halving.  Every agent's final value is exactly
    entitlement * own total, because each level splits exactly."""
    pieces: dict[int, Region] = {}
    _split_two_ways(
        list(range(instance.n)), list(instance.entitlements), FULL_CAKE,
        instance.valuations, pieces, budget,
    )
    return _report(instance, pieces, "recursive", upper_bound_cuts(instance.n))


def connected_proportional(valuations: Sequence[Valuation], subcake: Interval) -> Allocation:
    """Divide-and-conquer proportional division with connected pieces.

    Each agent marks the point splitting the sub-cake in value ratio
    floor(n/2) : ceil(n/2) by their own measure; the cake is cut at the
    floor(n/2)-th smallest mark (ties by agent index) and the two groups
    recurse.  Every agent receives one interval worth at least 1/n of their
    value of the sub-cake, with exactly n-1 cuts on nondegenerate inputs.
    """
    n = len(valuations)
    if n < 1:
        raise ValueError("need at least one agent")
    for v in valuations:
        if v.value_between(subcake.lo, subcake.hi) <= ZERO:
            raise ValueError("every agent must value the sub-cake positively")
    assigned: dict[int, Interval] = {}
    _even_split(list(range(n)), subcake.lo, subcake.hi, valuations, assigned)
    return Allocation(tuple(Region([assigned[i]]) for i in range(n)))


def _even_split(agents, lo, hi, valuations, assigned):
    if len(agents) == 1:
        assigned[agents[0]] = Interval(lo, hi)
        return
    n = len(agents)
    n_left = n // 2
    marks = []
    for i in agents:
        v = valuations[i]
        target = v.value_between(lo, hi) * n_left / n
        marks.append((mark_right(v, lo, target), i))
    marks.sort()
    split_at = marks[n_left - 1][0]
    left_ids = sorted(i for _, i in marks[:n_left])
    right_ids = sorted(i for _, i in marks[n_left:])
    _even_split(left_ids, lo, split_at, valuations, assigned)
    _even_split(right_ids, split_at, hi, valuations, assigned)


def clone_divide(instance: Instance) -> AlgorithmReport:
    """Replicate each agent by its entitlement numerator over the common
    denominator D, divide equally among the D clones, then merge each
    agent's clone pieces.  Uses at most D-1 cuts."""
    denominator = lcm(*(t.denominator for t in instance.entitlements))
    owners: list[int] = []
    for i, t in enumerate(instance.entitlements):
        owners.extend([i] * int(t * denominator))
    clone_vals = [instance.valuations[i] for i in owners]
    clone_alloc = connected_proportional(clone_vals, Interval(ZERO, ONE))
    merged: dict[int, Region] = {}
    for owner, piece in zip(owners, clone_alloc.pieces):
        merged[owner] = merged.get(owner, Region()).union(piece)
    return _report(instance, merged, "clone", denominator - 1)


def cut_and_choose(owner: Valuation, chooser: Valuation, piece: Region):
    """Two-agent split of a connected piece with one cut.

    The owner marks the point halving the piece by their own measure; the
    chooser takes whichever side they value weakly more (ties give the
    chooser the left side).  Returns (owner part, chooser part).
    """
    if len(piece.intervals) != 1:
        raise PieceNotConnected("cut-and-choose needs a single-interval piece")
    iv = piece.intervals[0]
    own_value = owner.value_between(iv.lo, iv.hi)
    if own_value <= ZERO:
        raise ValueError("owner must value the piece positively")
    mid = mark_right(owner, iv.lo, own_value / 2)
    left = Region([Interval(iv.lo, mid)])
    right = Region([Interval(mid, iv.hi)])
    if measure_of(chooser, left) >= measure_of(chooser, right):
        return right, left
    return left, right


def _halve_region_with_choice(owner: Valuation, chooser: Valuation, piece: Region):
    """Cut-and-choose over a possibly disconnected piece with a single cut.

    The owner finds the point where the piece's running value (by the
    owner's measure) reaches exactly half; the chooser takes the weakly
    better of piece-left-of-point / piece-right-of-point (ties -> left).
    Costs one new cut point regardless of how many intervals the piece has,
    which is what keeps the three-agent protocol within its cut budget.
    """
    total = measure_of(owner, piece)
    if total <= ZERO:
        raise ValueError("owner must value the piece positively")
    half = total / 2
    acc = ZERO
    mid = None
    for iv in piece.intervals:
        value = owner.value_between(iv.lo, iv.hi)
        if acc + value >= half:
            mid = mark_right(owner, iv.lo, half - acc)
            break
        acc += value
    if mid is None:
        raise InternalCheckFailed("running value of the piece never reaches half its measure")
    left = piece.intersect(Region([Interval(ZERO, mid)]))
    right = piece.difference(left)
    if measure_of(chooser, left) >= measure_of(chooser, right):
        return right, left
    return left, right


def special3_half(instance: Instance, budget: int = DEFAULT_SPLIT_BUDGET) -> AlgorithmReport:
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
    others = [i for i in range(3) if i != half_idx]
    stage: dict[int, Region] = {}
    _split_two_ways(
        others, [instance.entitlements[i] for i in others], FULL_CAKE,
        instance.valuations, stage, budget,
    )
    pieces: dict[int, Region] = {half_idx: Region()}
    for i in others:
        kept, taken = _halve_region_with_choice(instance.valuations[i], chooser, stage[i])
        pieces[i] = kept
        pieces[half_idx] = pieces[half_idx].union(taken)
    return _report(instance, pieces, "special3-half", 4)


def _window_region(edges: Sequence[Fraction], start: int, width: int) -> Region:
    """Region of ``width`` consecutive parts of the partition given by
    ``edges`` (0 = e_0 < ... < e_D = 1), wrapping past the end."""
    d = len(edges) - 1
    end = start + width
    if end <= d:
        return Region([Interval(edges[start], edges[end])])
    return Region([Interval(edges[start], ONE), Interval(ZERO, edges[end - d])])


def special3_equal_pair(instance: Instance, budget: int = DEFAULT_SPLIT_BUDGET) -> AlgorithmReport:
    """Three agents, two with equal (rational) entitlements B/D: at most 4 cuts.

    Treat the cake as a pie by identifying the endpoints.  The first agent
    of the equal pair marks D parts of equal own value; the odd agent picks
    the B-consecutive-part window worth least to them (wrapping allowed,
    ties to the smallest start index), which the pigeonhole principle makes
    worth at most B/D of their total.  Whichever pair agent can afford to
    give the window up takes it; the remaining two agents split the rest
    exactly in ratios B/(D-B), (D-2B)/(D-B).
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
    edges = [ZERO] + equal_marks(marker, d) + [ONE]
    odd_val = instance.valuations[odd]
    windows = [(measure_of(odd_val, _window_region(edges, s, b)), s) for s in range(d)]
    _, start = min(windows)
    window = _window_region(edges, start, b)
    if measure_of(odd_val, window) * d > b * odd_val.total:
        raise InternalCheckFailed("cheapest window exceeds the pigeonhole bound")

    second_val = instance.valuations[second]
    if measure_of(second_val, window) * d <= b * second_val.total:
        taker, partner = first, second
    else:
        taker, partner = second, first
    remainder = FULL_CAKE.difference(window)
    rest: dict[int, Region] = {}
    _split_two_ways(
        [partner, odd], [Fraction(b, d - b), Fraction(d - 2 * b, d - b)],
        remainder, instance.valuations, rest, budget,
    )
    pieces = {taker: window, partner: rest[partner], odd: rest[odd]}
    return _report(instance, pieces, "special3-equal-pair", 4)


def _near_equal_pattern(instance: Instance) -> Optional[tuple[int, int]]:
    """(heavy agent index, D) when at least n-1 entitlements equal 1/D."""
    if instance.n < 2:
        return None
    n = instance.n
    for value in sorted(set(instance.entitlements)):
        if value.numerator != 1:
            continue
        holders = [i for i, t in enumerate(instance.entitlements) if t == value]
        if len(holders) >= n - 1:
            heavy = next((i for i in range(n) if i not in holders), n - 1)
            return heavy, value.denominator
    return None


def near_equal_divide(instance: Instance) -> AlgorithmReport:
    """n-1 agents entitled to exactly 1/D each: at most 2(n-1) cuts.

    The remaining (heavy) agent is replicated D-n+1 times and a connected
    proportional division runs among the D participants; every light agent
    keeps a single interval, and the heavy agent's pieces merge.  Only the
    light pieces' endpoints survive as cuts."""
    pattern = _near_equal_pattern(instance)
    if pattern is None:
        raise PreconditionViolated("need at least n-1 entitlements equal to 1/D")
    heavy, denominator = pattern
    owners: list[int] = []
    for i in range(instance.n):
        owners.extend([i] * (denominator - instance.n + 1 if i == heavy else 1))
    clone_vals = [instance.valuations[i] for i in owners]
    clone_alloc = connected_proportional(clone_vals, Interval(ZERO, ONE))
    merged: dict[int, Region] = {}
    for owner, piece in zip(owners, clone_alloc.pieces):
        merged[owner] = merged.get(owner, Region()).union(piece)
    return _report(instance, merged, "near-equal", 2 * (instance.n - 1))


DEFAULT_CLONE_CAP = 64


def auto_solve(instance: Instance, budget: int = DEFAULT_SPLIT_BUDGET,
               clone_cap: int = DEFAULT_CLONE_CAP) -> AlgorithmReport:
    """Pick a protocol: the near-equal pattern first, then the three-agent
    special cases, otherwise the better (fewer cuts) of cloning (when the
    common denominator is at most ``clone_cap``) and the recursive divider,
    preferring the recursive result on ties."""
    if instance.n == 1:
        return recursive_divide(instance, budget)
    if _near_equal_pattern(instance) is not None:
        return near_equal_divide(instance)
    if instance.n == 3:
        if any(t == Fraction(1, 2) for t in instance.entitlements):
            return special3_half(instance, budget)
        if len(set(instance.entitlements)) < 3:
            return special3_equal_pair(instance, budget)
    candidates = [recursive_divide(instance, budget)]
    denominator = lcm(*(t.denominator for t in instance.entitlements))
    if denominator <= clone_cap:
        candidates.append(clone_divide(instance))
    return min(candidates, key=lambda rep: len(rep.cuts))
