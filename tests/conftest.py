import os
import subprocess
import sys
import textwrap
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


def make_instance(valuations, entitlements, topology="interval") -> Instance:
    return Instance(
        topology,
        tuple(valuations),
        tuple(Fraction(t) for t in entitlements),
    )


@pytest.fixture
def uniform() -> Valuation:
    return Valuation.uniform()


def run_optimized(script: str, cwd) -> list[str]:
    """Run ``script`` in a child interpreter under ``python -O``, which
    strips every assert, and return the words it printed.  The child
    imports the package under test, wherever the current directory is."""
    package_root = Path(entitled_cuts.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()
