"""Independent validation of allocations.

This module never trusts the algorithm that produced an allocation: it
re-evaluates every agent's value from the core measure machinery and checks
the partition structure from scratch.  Malformed allocations are reported,
not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    FULL_CAKE,
    Allocation,
    Instance,
    boundary_points,
    measure_of,
)


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


def verify_allocation(instance: Instance, allocation: Allocation) -> VerificationReport:
    """Check proportionality, pairwise interior-disjointness, and exact
    cover of [0, 1].  Zero-length gaps and overlaps cannot occur in
    canonical regions, so the cover check is a plain region comparison."""
    messages = []
    structure_ok = len(allocation.pieces) == instance.n
    if not structure_ok:
        messages.append(
            f"allocation has {len(allocation.pieces)} pieces for {instance.n} agents"
        )

    agents = []
    for i in range(min(instance.n, len(allocation.pieces))):
        value = measure_of(instance.valuations[i], allocation.pieces[i])
        threshold = instance.entitlements[i] * instance.valuations[i].total
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
    # every later interval that starts before a ends overlaps it, so a long
    # interval is reported against each piece it covers, not only the next
    for x, (a, i) in enumerate(tagged):
        y = x + 1
        while y < len(tagged) and tagged[y][0].lo < a.hi:
            b, j = tagged[y]
            y += 1
            disjoint_ok = False
            messages.append(
                f"pieces of agents {i + 1} and {j + 1} overlap on [{b.lo}, {min(a.hi, b.hi)}]"
            )

    covered = None
    for region in allocation.pieces:
        covered = region if covered is None else covered.union(region)
    cover_ok = covered is not None and covered == FULL_CAKE
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
