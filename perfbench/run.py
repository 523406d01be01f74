"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload divide --seed 1 --seconds 38 --trace 0

The library is imported from ``src/`` of the checkout that holds this file;
without it the run fails before printing a result.  A run repeats passes
over the workload's fixed request list (see ``workloads.py``) for about
``--seconds`` seconds, one request at a time, and checks every output.

``--trace 0`` reports the end-to-end metrics with tracing off.  Set-up time
is the median over several fresh processes that each import the package
and build the inputs; ``peak_rss_mb`` is this process's high-water mark,
so it belongs to this one workload.

``--trace 1`` adds one traced pass after the untraced ones and reports the
per-layer metrics of ``tracing.py``; the spans go to
``perfbench/out/<workload>-seed<seed>.spans.csv.gz``.

Lines before the last are for people.  The last line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import clock
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15


def import_library() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    package = ROOT / "src" / "entitled_cuts"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: library source not found at {package}")
    sys.path.insert(0, str(package.parent))
    import entitled_cuts

    if Path(entitled_cuts.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported entitled_cuts from {entitled_cuts.__file__}")


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Pass:
    wall_s: float  # elapsed
    latencies: list[float]  # per request, seconds at reference speed
    outputs: list  # bytes, or the exception text of a request that raised
    work_s: float = 0.0  # elapsed minus the reference runs inside the pass
    speed: float = 1.0  # median reference duration over REF_SECONDS


def run_pass(requests, tracer=None) -> Pass:
    """One pass over the requests.  Untraced passes run under the reference
    clock; the traced pass does not, so its spans hold library work only."""
    gc.collect()
    bounds, outputs = [], []
    ref = clock.ReferenceClock() if tracer is None else None
    with ref or contextlib.nullcontext():
        start = perf_counter()
        for req in requests:
            t = perf_counter()
            try:
                if tracer is None:
                    out = req.run()
                else:
                    with tracer.request(req.label):
                        out = req.run()
            except Exception as exc:  # counted as a failed request, never fatal
                out = f"{type(exc).__name__}: {exc}"
            bounds.append((t, perf_counter()))
            outputs.append(out)
        wall_s = perf_counter() - start
    if ref is None:
        latencies = [end - begin for begin, end in bounds]
        return Pass(wall_s, latencies, outputs, wall_s)
    latencies = [ref.work(begin, end) for begin, end in bounds]
    speed = statistics.median(ref.durations) / clock.REF_SECONDS
    # the first reference run happens before the pass starts
    return Pass(wall_s, latencies, outputs, wall_s - sum(ref.durations[1:]), speed)


@dataclass
class Checker:
    """Checks outputs, once per distinct output of each request."""

    requests: list
    attempted: int = 0
    failed: int = 0
    digests: set = field(default_factory=set)
    errors: list = field(default_factory=list)
    _seen: dict = field(default_factory=dict)

    def check(self, p: Pass) -> None:
        h = hashlib.sha256()
        for i, (req, out) in enumerate(zip(self.requests, p.outputs)):
            self.attempted += 1
            key = (i, out)
            if key not in self._seen:
                self._seen[key] = self._verdict(req, out)
            error = self._seen[key]
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{req.label}: {error}")
            h.update(out if isinstance(out, bytes) else b"raised: " + out.encode())
        self.digests.add(h.hexdigest())

    @staticmethod
    def _verdict(req, out):
        if not isinstance(out, bytes):
            return out
        try:
            return req.check(out)
        except Exception as exc:  # unreadable output fails the request
            return f"check raised {type(exc).__name__}: {exc}"


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, q in (0, 1).

    It weights every order statistic by a beta density centred on rank
    q * n, rather than reading one or two of them, so one request whose time
    crosses a gap in the distribution moves the estimate by a fraction of
    the gap.  Reading single order statistics, the 90th percentile of
    ``certify`` jumped by 20% between runs of identical inputs.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16  # Simpson's rule per order statistic; the weights are renormalized
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(h / 3 * (density(lo) + inner + density(lo + steps * h)))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def measure(requests, checker: Checker, seconds: float) -> list[Pass]:
    """Untraced passes until the next one would end after ``seconds``."""
    passes = []
    deadline = perf_counter() + seconds
    while True:
        p = run_pass(requests)
        checker.check(p)
        passes.append(p)
        typical = statistics.median(q.wall_s for q in passes)
        if perf_counter() + typical > deadline:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    requests = workloads.build(args.workload, args.seed)
    checker = Checker(requests)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = measure(requests, checker, budget)
    # per request: the median over passes of its time at reference speed
    best = [statistics.median(p.latencies[i] for p in passes) for i in range(len(requests))]
    pass_work_s = statistics.median(p.work_s for p in passes)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(requests)} requests, closed loop, one client; median pass "
          f"{pass_work_s:.3f} s elapsed, reference loop at "
          f"{statistics.median(p.speed for p in passes):.2f}x its idle duration")
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(requests, tracer)
        finally:
            tracer.uninstall()
        checker.check(traced)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced.wall_s - pass_work_s, "s")
        spans_path = HERE / "out" / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        tracer.write_spans(spans_path)
        print(f"traced pass: {traced.wall_s:.3f} s, {len(tracer.spans)} spans "
              f"written to {spans_path.relative_to(ROOT)}")
    else:
        setup = measure_setup(args.workload, args.seed)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(best), "s"),
            "latency_p50_ms": (percentile(best, 0.5) * 1000, "ms"),
            "latency_p90_ms": (percentile(best, 0.9) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

        print(f"latency samples: {len(best)} requests, each the median of "
              f"{len(passes)}; set-up samples: "
              + ", ".join(f"{s:.4f}" for s in setup))

    correct = checker.failed == 0 and len(checker.digests) == 1
    print(f"failed_ratio {checker.failed / checker.attempted:.6f} "
          f"({checker.failed} of {checker.attempted} requests)")
    print(f"output digest {' '.join(sorted(checker.digests))}")
    for error in checker.errors:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
