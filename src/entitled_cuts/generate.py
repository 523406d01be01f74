"""Seeded random instance generation.

Identical parameters reproduce identical instances bit for bit: draws come
from a Mersenne-Twister stream seeded explicitly, and every drawn value is
an exact rational with bounded denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import ONE, ZERO, Instance, Valuation


def random_valuation(rng: random.Random, max_cells: int, denom_bound: int) -> Valuation:
    """Piecewise-constant valuation with at most ``max_cells`` cells,
    breakpoints and densities with denominators at most ``denom_bound``."""
    while True:
        cells = rng.randint(1, max_cells)
        points: set[Fraction] = set()
        attempts = 0
        while len(points) < cells - 1 and attempts < 64:
            q = rng.randint(2, denom_bound)
            points.add(Fraction(rng.randint(1, q - 1), q))
            attempts += 1
        breakpoints = (ZERO,) + tuple(sorted(points)) + (ONE,)
        densities = tuple(
            Fraction(rng.randint(0, 5), rng.randint(1, denom_bound))
            for _ in range(len(breakpoints) - 1)
        )
        try:
            return Valuation(breakpoints, densities)
        except ValueError:  # all-zero density draw; redraw
            continue


def random_entitlements(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_instance(n: int, seed: int, max_cells: int = 3, denom_bound: int = 8) -> Instance:
    """Deterministic random instance: n valuations, then the entitlements,
    drawn from one stream seeded with ``seed``."""
    if n < 1:
        raise ValueError("need at least one agent")
    if max_cells < 1:
        raise ValueError("max_cells must be at least 1")
    if denom_bound < 2:
        raise ValueError(
            "denom_bound must be at least 2 (no interior breakpoints exist otherwise)"
        )
    rng = random.Random(seed)
    valuations = tuple(random_valuation(rng, max_cells, denom_bound) for _ in range(n))
    return Instance(valuations, random_entitlements(rng, n))
