import os
import subprocess
import sys
import textwrap
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

import entitled_cuts
from entitled_cuts.model import Instance, Valuation


def pw(breakpoints: str, densities: str) -> Valuation:
    """Compact piecewise-constant valuation builder for tests:
    pw("0 1/2 1", "2 0") is density 2 on [0,1/2] and 0 on [1/2,1]."""
    return Valuation(
        tuple(Fraction(tok) for tok in breakpoints.split()),
        tuple(Fraction(tok) for tok in densities.split()),
    )


def make_instance(valuations, entitlements) -> Instance:
    return Instance(
        tuple(valuations),
        tuple(Fraction(t) for t in entitlements),
    )


def reference_cumulative(valuation: Valuation, x: Fraction) -> Fraction:
    """The value of [0, x] by a linear scan: each cell's density times the
    length of its part left of x.  It reads no prefix table and makes no
    search, unlike ``Valuation.cumulatives``."""
    bps, dens = valuation.breakpoints, valuation.densities
    acc = Fraction(0)
    for a, b, d in zip(bps, bps[1:], dens):
        if x <= a:
            break
        acc += d * (min(b, x) - a)
    return acc


def reference_mark(valuation: Valuation, start: Fraction, target: Fraction) -> Fraction:
    """The leftmost x >= start with value exactly ``target`` on [start, x],
    by a linear scan: walk the cells from start's cell, summing their
    values, until the target is reached.  It shares no search with
    ``Valuation.marks``, which bisects the prefix table."""
    if target == 0:
        return start
    bps, dens = valuation.breakpoints, valuation.densities
    j = min(bisect_right(bps, start) - 1, len(dens) - 1)
    acc = Fraction(0)
    for cell in range(j, len(dens)):
        a = max(bps[cell], start)
        b = bps[cell + 1]
        d = dens[cell]
        if d == 0 or b <= a:
            continue
        cell_value = d * (b - a)
        if acc + cell_value >= target:
            return a + (target - acc) / d
        acc += cell_value
    raise AssertionError("the reference scan ran out")


@pytest.fixture
def uniform() -> Valuation:
    return Valuation((Fraction(0), Fraction(1)), (Fraction(1),))


def child_env() -> dict:
    """Environment for a child interpreter that imports the package under
    test, wherever its current directory is."""
    package_root = Path(entitled_cuts.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return env


def run_optimized(script: str, cwd) -> list[str]:
    """Run ``script`` in a child interpreter under ``python -O``, which
    strips every assert, and return the words it printed."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        capture_output=True, text=True, cwd=cwd, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()
