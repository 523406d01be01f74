"""Command-line interface.

Subcommands:
  gen       write a lower-bound family instance or a seeded random one
  solve     run a division protocol, verify the result, write the allocation
  verify    check an allocation file against an instance file
  min-cuts  exhaustive minimal-cut search up to a budget
  bench     CSV comparison of the general protocols over seeded instances

Exit codes: 0 success, 1 invalid input, 2 internal verification failure
(an allocation from solve, or a min-cuts witness, that fails the verifier
or has too many cuts; nothing is written) or a failed internal
post-condition, 3 work budget exceeded, 4 verification reported a failure.
The environment variable ENTITLED_CUTS_BUDGET (positive integer) overrides
the work budget of each split and each oracle decision (see cells.Work).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import bounds, protocols
from .errors import BudgetExceeded, EntitledCutsError, InternalCheckFailed
from .generate import random_instance
from .model import Instance, format_rational
from .serialize import (
    FormatError,
    allocation_to_document,
    certificate_to_document,
    dumps,
    instance_to_document,
    loads,
    parse_allocation_document,
    parse_instance_document,
)
from .verifier import verify_allocation

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INTERNAL_VERIFY = 2
EXIT_BUDGET = 3
EXIT_VERIFY_FAIL = 4

ALGORITHMS = {
    "auto": protocols.auto_solve,
    "recursive": protocols.recursive_divide,
    "clone": lambda inst, budget: protocols.clone_divide(inst),
    "special3a": protocols.special3_half,
    "special3b": protocols.special3_equal_pair,
    "near-equal": lambda inst, budget: protocols.near_equal_divide(inst),
}


def _env_budget() -> int:
    raw = os.environ.get("ENTITLED_CUTS_BUDGET")
    if raw is None:
        return bounds.DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise FormatError(f"ENTITLED_CUTS_BUDGET must be a positive integer, got {raw!r}")
    return value


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}")


def _load_instance(path: str) -> Instance:
    return parse_instance_document(loads(_read(path)))


def _write(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}")


def cmd_gen(args) -> int:
    if args.lower_bound is not None:
        instance = bounds.gen_lower_bound_instance(args.lower_bound)
    else:
        instance = random_instance(
            args.random, args.seed, args.max_cells, args.denom_bound
        )
    _write(dumps(instance_to_document(instance)), args.output)
    return EXIT_OK


def _verify_own(instance: Instance, allocation, max_cuts: int):
    """The verifier's report on an allocation this program made, or None
    after printing to stderr why it fails or has more than ``max_cuts``
    cuts."""
    verification = verify_allocation(instance, allocation)
    messages = list(verification.messages)
    if len(verification.cuts) > max_cuts:
        messages.append(f"{len(verification.cuts)} cuts exceed the bound {max_cuts}")
    if verification.passed and not messages:
        return verification
    print("internal verification failed:", file=sys.stderr)
    for msg in messages:
        print(f"  {msg}", file=sys.stderr)
    return None


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    budget = _env_budget()
    report = ALGORITHMS[args.algorithm](instance, budget)
    verification = _verify_own(instance, report.allocation, report.bound)
    if verification is None:
        return EXIT_INTERNAL_VERIFY
    out_path = args.output or str(Path(args.instance).with_suffix(".allocation.json"))
    _write(dumps(allocation_to_document(report.allocation, report.algorithm)), out_path)
    print(f"algorithm: {report.algorithm}")
    for check in verification.agents:
        print(
            f"agent {check.agent + 1}: value {format_rational(check.value)}"
            f" >= {format_rational(check.threshold)} required"
        )
    cuts = ", ".join(format_rational(c) for c in report.cuts) or "(none)"
    print(f"cuts ({len(report.cuts)} of bound {report.bound}): {cuts}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    allocation, algorithm = parse_allocation_document(loads(_read(args.allocation)))
    report = verify_allocation(instance, allocation)
    for check in report.agents:
        status = "ok" if check.ok else "FAIL"
        print(
            f"agent {check.agent + 1}: value {format_rational(check.value)}"
            f" / required {format_rational(check.threshold)} [{status}]"
        )
    print(f"disjoint: {'ok' if report.disjoint_ok else 'FAIL'}")
    print(f"covers cake: {'ok' if report.cover_ok else 'FAIL'}")
    print(f"cuts: {len(report.cuts)}")
    for msg in report.messages:
        print(f"note: {msg}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_min_cuts(args) -> int:
    if args.k_max < 0:
        raise FormatError(f"--k-max must be nonnegative, got {args.k_max}")
    instance = _load_instance(args.instance)
    budget = _env_budget()
    for cert in bounds.certificates(instance, args.k_max, budget):
        # systems_examined is a canonical rank, counted, not a tally of visits
        if cert.feasible:
            print(f"k={cert.k}: feasible (witness at combination"
                  f" {cert.systems_examined} in canonical order)")
        else:
            print(f"k={cert.k}: infeasible (all {cert.systems_examined} combinations ruled out)")
    if cert.feasible:
        if _verify_own(instance, cert.allocation, cert.k) is None:
            return EXIT_INTERNAL_VERIFY
        print(f"min cuts = {cert.k}")
    else:
        print(f"min cuts: not found within k-max {args.k_max}")
    print("scope: instance evidence only (this decision covers exactly this instance)")
    out_path = args.output or str(Path(args.instance).with_suffix(".certificate.json"))
    _write(dumps(certificate_to_document(cert)), out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise FormatError(f"range must look like 'a..b', got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise FormatError(f"range must look like 'a..b', got {text!r}")
    return range(lo_i, hi_i + 1)


def cmd_bench(args) -> int:
    budget = _env_budget()
    # every argument is checked before the header, so a failed run writes no CSV
    ns = _parse_range(args.n_range)
    if ns and ns[0] < 1:
        raise FormatError("bench needs n >= 1")
    if args.seeds < 0:
        raise FormatError(f"--seeds must be nonnegative, got {args.seeds}")
    if args.max_cells < 1:
        raise FormatError(f"--max-cells must be at least 1, got {args.max_cells}")
    if args.denom_bound < 2:
        raise FormatError(f"--denom-bound must be at least 2, got {args.denom_bound}")
    print("n,seed,algorithm,cuts,paper_bound,proportional,runtime_ms")
    for n in ns:
        for seed in range(args.seeds):
            instance = random_instance(n, seed, args.max_cells, args.denom_bound)
            for name in ("recursive", "clone"):
                start = time.perf_counter()
                report = ALGORITHMS[name](instance, budget)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                passed = verify_allocation(instance, report.allocation).passed
                print(
                    f"{n},{seed},{name},{len(report.cuts)},{report.bound},"
                    f"{1 if passed else 0},{elapsed_ms:.3f}"
                )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entitled-cuts",
        description="Cake division with unequal entitlements, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    group = p_gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--lower-bound", type=int, metavar="N",
                       help="the 2n-1 cell family needing 2n-2 cuts")
    group.add_argument("--random", type=int, metavar="N", help="seeded random instance")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-cells", type=int, default=3)
    p_gen.add_argument("--denom-bound", type=int, default=8)
    p_gen.add_argument("-o", "--output", help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="divide the cake and verify the result")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="auto")
    p_solve.add_argument("-o", "--output", help="allocation path (default: derived)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check an allocation against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("allocation")
    p_verify.set_defaults(func=cmd_verify)

    p_min = sub.add_parser("min-cuts", help="exhaustive minimal-cut search")
    p_min.add_argument("instance")
    p_min.add_argument("--k-max", type=int, required=True)
    p_min.add_argument("-o", "--output", help="certificate path (default: derived)")
    p_min.set_defaults(func=cmd_min_cuts)

    p_bench = sub.add_parser("bench", help="CSV benchmark of the general protocols")
    p_bench.add_argument("--n-range", required=True, metavar="A..B")
    p_bench.add_argument("--seeds", type=int, required=True)
    p_bench.add_argument("--max-cells", type=int, default=3)
    p_bench.add_argument("--denom-bound", type=int, default=8)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckFailed as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_VERIFY
    except (FormatError, ValueError, EntitledCutsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
