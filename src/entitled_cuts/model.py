"""Exact building blocks: rationals, intervals, regions, piecewise-constant
measures, division instances, and allocations.

Every quantity is an arbitrary-precision rational; no floats appear anywhere.
All types are immutable values, so they are safe to share across threads.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import InternalCheckFailed, TargetExceedsRemainder

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_rational(value) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep the core exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or an integer string: an optional minus sign, decimal
    digits, then optionally '/' and decimal digits.  Nothing else is read,
    not even surrounding spaces."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational {text!r}: expected p/q or an integer")
    num, den = match.groups()
    try:
        if den is None:
            return Fraction(int(num))
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Canonical 'p/q' (or bare integer) form; inverse of parse_rational."""
    return str(value)


@dataclass(frozen=True, order=True)
class Interval:
    """Closed cake interval [lo, hi] with 0 <= lo <= hi <= 1."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if not (ZERO <= self.lo <= self.hi <= ONE):
            raise ValueError(f"interval needs 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True, init=False)
class Region:
    """Canonical union of disjoint intervals.

    Construction sorts the intervals, drops zero-length ones, and merges any
    that touch or overlap, so equal point-sets always compare equal.
    """

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()):
        merged: list[Interval] = []
        for iv in sorted(intervals):
            if iv.lo == iv.hi:
                continue
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        object.__setattr__(self, "intervals", tuple(merged))

    def intersect(self, other: "Region") -> "Region":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
                if lo < hi:
                    out.append(Interval(lo, hi))
        return Region(out)

    def difference(self, other: "Region") -> "Region":
        out = []
        for a in self.intervals:
            cursor = a.lo
            for b in other.intervals:
                if b.hi <= cursor:
                    continue
                if b.lo >= a.hi:
                    break
                if b.lo > cursor:
                    out.append(Interval(cursor, b.lo))
                cursor = max(cursor, b.hi)
                if cursor >= a.hi:
                    break
            if cursor < a.hi:
                out.append(Interval(cursor, a.hi))
        return Region(out)


FULL_CAKE = Region((Interval(ZERO, ONE),))


@dataclass(frozen=True)
class Valuation:
    """Nonatomic measure given by a piecewise-constant density.

    ``breakpoints`` are strictly increasing, start at 0 and end at 1;
    ``densities[j]`` is the (nonnegative) value per unit length on cell
    [breakpoints[j], breakpoints[j+1]].  The total value must be positive.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]
    _prefix: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bps = tuple(as_rational(b) for b in self.breakpoints)
        dens = tuple(as_rational(d) for d in self.densities)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "densities", dens)
        if len(bps) != len(dens) + 1:
            raise ValueError("need exactly one more breakpoint than densities")
        if len(dens) == 0:
            raise ValueError("valuation needs at least one cell")
        if bps[0] != ZERO:
            raise ValueError("first breakpoint must be 0")
        if bps[-1] != ONE:
            raise ValueError("last breakpoint must be 1")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(d < ZERO for d in dens):
            raise ValueError("densities must be nonnegative")
        acc = ZERO
        prefix = [ZERO]
        for (b, c), d in zip(zip(bps, bps[1:]), dens):
            acc += d * (c - b)
            prefix.append(acc)
        if acc <= ZERO:
            raise ValueError("total value must be positive")
        object.__setattr__(self, "_prefix", tuple(prefix))
        # one int row per breakpoint b = bn/bd, with prefix P and the density
        # d of the cell on its right: P + d(x - b) at x = p/q is
        # (head q + slope (p bd - bn q)) / (scale q).  The row at 1 has no
        # cell, so its slope is 0.
        rows = [(b.numerator, b.denominator, P.numerator * d.denominator * b.denominator,
                 P.denominator * d.numerator, P.denominator * d.denominator * b.denominator)
                for b, P, d in zip(bps, prefix, dens)]
        object.__setattr__(self, "_rows", (*rows, (1, 1, 0, 0, 1)))

    @property
    def total(self) -> Fraction:
        return self._prefix[-1]

    def cumulatives(self, xs: Iterable[Fraction]) -> list[Fraction]:
        """The exact value of [0, x] at each of the ascending points ``xs``.

        Each point is read as ints p/q, and one pointer into the breakpoints
        only advances, by cross-multiplication.  A point on a breakpoint, or
        in a cell of density 0, takes the prefix table's value as it is;
        any other point builds one ``Fraction``."""
        rows, prefix = self._rows, self._prefix
        last = len(rows) - 1  # j may reach it only at x = 1, a breakpoint
        out, j, pp, pq = [], 0, 0, 1
        for x in xs:
            try:
                p, q = x.numerator, x.denominator
            except AttributeError:
                raise TypeError(f"expected an exact rational, got {type(x).__name__}") from None
            if not (pp * q <= p * pq and p <= q):
                raise ValueError(f"coordinate {x} outside [0, 1] or below an earlier point")
            while j < last and rows[j + 1][0] * q <= p * rows[j + 1][1]:
                j += 1
            bn, bd, head, slope, scale = rows[j]
            t = p * bd - bn * q
            out.append(Fraction(head * q + slope * t, scale * q) if t and slope else prefix[j])
            pp, pq = p, q
        return out

    def marks(self, goals: Iterable[Fraction]) -> list[Fraction]:
        """The leftmost x with value exactly g on [0, x], for each of the
        ascending running values ``goals`` in (0, total]; the inverse of
        ``cumulatives``.

        Well defined because the running value is continuous and
        nondecreasing.  Each goal is found by bisecting the prefix table
        from the previous goal's cell: the first cell whose right end
        reaches the goal holds positive value, so the mark is that cell's
        left edge plus the shortfall over its density, the leftmost point
        even across zero-density plateaus."""
        bps, dens, prefix = self.breakpoints, self.densities, self._prefix
        total = prefix[-1]
        out, j, previous = [], 0, ZERO
        for goal in goals:
            goal = as_rational(goal)
            if not (ZERO < goal and previous <= goal):
                raise ValueError(f"goal {goal} not positive or below an earlier goal")
            if goal > total:
                raise TargetExceedsRemainder(f"goal {goal} exceeds the total value {total}")
            j = bisect_left(prefix, goal, j) - 1
            mark = bps[j] + (goal - prefix[j]) / dens[j]
            if not (bps[j] < mark <= bps[j + 1]):
                raise InternalCheckFailed(
                    f"unreachable: mark {mark} outside ({bps[j]}, {bps[j + 1]}]")
            out.append(mark)
            previous = goal
        return out


def measure_of(valuation: Valuation, region: Region) -> Fraction:
    """Exact measure of a region; additive over disjoint regions, 0 on empty.
    A canonical region's endpoints ascend, so one ``cumulatives`` call reads
    them all: the sum at the intervals' right ends less that at their left."""
    ends = valuation.cumulatives(x for iv in region.intervals for x in (iv.lo, iv.hi))
    return sum(ends[1::2], ZERO) - sum(ends[::2], ZERO)


@dataclass(frozen=True)
class Instance:
    """A division of the cake [0, 1]: one valuation per agent, and
    positive entitlements summing to exactly 1."""

    valuations: tuple[Valuation, ...]
    entitlements: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "valuations", tuple(self.valuations))
        object.__setattr__(self, "entitlements", tuple(as_rational(t) for t in self.entitlements))
        if len(self.valuations) < 1:
            raise ValueError("need at least one agent")
        if len(self.valuations) != len(self.entitlements):
            raise ValueError("one entitlement per valuation required")
        if any(t <= ZERO for t in self.entitlements):
            raise ValueError("entitlements must be positive")
        if sum(self.entitlements) != ONE:
            raise ValueError(f"entitlements must sum to 1, got {sum(self.entitlements)}")

    @property
    def n(self) -> int:
        return len(self.valuations)


@dataclass(frozen=True)
class Allocation:
    """One region per agent (indexed by position).

    Deliberately permissive: malformed allocations can be represented so the
    verifier can report on them instead of rejecting them at construction.
    """

    pieces: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))


def boundary_points(allocation: Allocation) -> tuple[Fraction, ...]:
    """Distinct interior endpoints of the pieces' maximal intervals; the
    cake's ends 0 and 1 never count."""
    points = set()
    for region in allocation.pieces:
        for iv in region.intervals:
            points.add(iv.lo)
            points.add(iv.hi)
    points.discard(ZERO)
    points.discard(ONE)
    return tuple(sorted(points))
