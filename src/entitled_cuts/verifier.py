"""Independent validation of allocations.

This module never trusts the algorithm that produced an allocation, nor
the measure code the protocols use: it shares only the data types and
``boundary_points`` with the library.  It values every piece with its own
arithmetic, density times overlap length over the valuation's cells, and
checks the partition structure in one sorted sweep.  Malformed allocations
are reported, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import ONE, ZERO, Allocation, Instance, Interval, Valuation, boundary_points


@dataclass(frozen=True)
class AgentCheck:
    agent: int
    value: Fraction
    threshold: Fraction
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    agents: tuple[AgentCheck, ...]
    structure_ok: bool
    disjoint_ok: bool
    cover_ok: bool
    cuts: tuple[Fraction, ...]
    passed: bool
    messages: tuple[str, ...]


_CAKE = (Interval(ZERO, ONE),)


def _value(valuation: Valuation, intervals: tuple[Interval, ...]) -> Fraction:
    """The value of ascending disjoint intervals: each cell's density times
    its overlap with them, walking intervals and cells together."""
    bps, dens = valuation.breakpoints, valuation.densities
    value, j = ZERO, 0
    for iv in intervals:
        while bps[j + 1] <= iv.lo:
            j += 1
        while bps[j] < iv.hi:
            if dens[j]:
                value += dens[j] * (min(iv.hi, bps[j + 1]) - max(iv.lo, bps[j]))
            j += 1
        j -= 1  # the last cell met may hold the next interval's start
    return value


def verify_allocation(instance: Instance, allocation: Allocation) -> VerificationReport:
    """Check proportionality, pairwise interior-disjointness, and exact
    cover of [0, 1].  Zero-length gaps and overlaps cannot occur in
    canonical regions, so the pieces cover the cake exactly when their
    intervals, sorted, start at 0, leave no gap past the running reach,
    and reach 1."""
    messages = []
    structure_ok = len(allocation.pieces) == instance.n
    if not structure_ok:
        messages.append(
            f"allocation has {len(allocation.pieces)} pieces for {instance.n} agents"
        )

    agents = []
    for i in range(min(instance.n, len(allocation.pieces))):
        valuation = instance.valuations[i]
        value = _value(valuation, allocation.pieces[i].intervals)
        threshold = instance.entitlements[i] * _value(valuation, _CAKE)
        ok = value >= threshold
        if not ok:
            messages.append(f"agent {i + 1} got {value}, needs {threshold}")
        agents.append(AgentCheck(i, value, threshold, ok))

    tagged = sorted(
        (iv, i)
        for i, region in enumerate(allocation.pieces)
        for iv in region.intervals
    )
    disjoint_ok = True
    reach, gap = ZERO, False
    # every later interval that starts before a ends overlaps it, so a long
    # interval is reported against each piece it covers, not only the next
    for x, (a, i) in enumerate(tagged):
        gap = gap or a.lo > reach
        reach = max(reach, a.hi)
        y = x + 1
        while y < len(tagged) and tagged[y][0].lo < a.hi:
            b, j = tagged[y]
            y += 1
            disjoint_ok = False
            messages.append(
                f"pieces of agents {i + 1} and {j + 1} overlap on [{b.lo}, {min(a.hi, b.hi)}]"
            )

    cover_ok = not gap and reach == ONE
    if not cover_ok:
        messages.append("pieces do not cover [0, 1] exactly")

    cuts = boundary_points(allocation)
    passed = structure_ok and disjoint_ok and cover_ok and bool(agents) and all(
        a.ok for a in agents
    )
    return VerificationReport(
        tuple(agents), structure_ok, disjoint_ok, cover_ok, cuts, passed,
        tuple(messages),
    )
