"""Seeded inputs, requests and output checks for the three workloads.

Each workload is a closed loop: one client in one process sends the next
request only after the previous one has returned.  The inputs are made here,
never taken from the library's tests; the library only sees the generated
documents.

- ``divide``: what ``entitled-cuts solve --algorithm auto`` does, in
  process, on random instances with n in 2..6, drawn as ``entitled-cuts
  gen --random`` draws them.  It is the only workload
  that reaches ``split``, ``model``, ``protocols`` and ``serialize``;
  ``feasibility`` is reached only through equality elimination and
  ``bounds`` is never called.
- ``certify``: every protocol family on small instances (n <= 3, at most
  5 refinement cells), each result cross-checked by the oracle.  Most of
  its time is the dense two-phase simplex in ``feasibility``.
- ``lower_bound``: the oracle proves that the n=4 member of the
  lower-bound family needs 2n-2 = 6 cuts.  Almost all of its time is
  ``bounds`` enumeration and the interval prefilter.

The ``divide`` and ``certify`` pools are fixed; the seed rescales each
agent's density (see ``_rescaled``).  A request returns the bytes it would
write; its ``check`` re-parses and re-verifies them outside the timed region
and returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from entitled_cuts import bounds, protocols, serialize, verifier

WORKLOADS = ("divide", "certify", "lower_bound")

DIVIDE_PER_N = 40
DIVIDE_AGENTS = (2, 3, 4, 5, 6)
CERTIFY_PER_FAMILY = 25
CERTIFY_MAX_CELLS = 5
LOWER_BOUND_N = 4


@dataclass(frozen=True)
class Request:
    """One unit of client work: ``run()`` returns the output bytes."""

    label: str
    run: Callable[[], bytes]
    check: Callable[[bytes], Optional[str]]


# --- seeded instance documents --------------------------------------------


def _valuation_doc(rng: random.Random, max_cells: int) -> dict:
    """Piecewise-constant density with at most ``max_cells`` cells and
    rationals of denominator at most 8, as rational strings."""
    while True:
        cells = rng.randint(1, max_cells)
        points: set[Fraction] = set()
        while len(points) < cells - 1:
            q = rng.randint(2, 8)
            points.add(Fraction(rng.randint(1, q - 1), q))
        breakpoints = [Fraction(0)] + sorted(points) + [Fraction(1)]
        densities = [
            Fraction(rng.randint(0, 5), rng.randint(1, 8))
            for _ in range(len(breakpoints) - 1)
        ]
        if any(densities):
            return {
                "breakpoints": [str(b) for b in breakpoints],
                "densities": [str(d) for d in densities],
            }


def _instance_doc(valuations: list[dict], entitlements) -> dict:
    assert sum(entitlements) == 1
    return {
        "topology": "interval",
        "agents": [
            {"name": f"agent{i + 1}", **v, "entitlement": str(t)}
            for i, (v, t) in enumerate(zip(valuations, entitlements))
        ],
    }


def _refinement_cells(doc: dict) -> int:
    return len({b for agent in doc["agents"] for b in agent["breakpoints"]}) - 1


def _weights(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(1, 9) for _ in range(n)]
    return [Fraction(w, sum(weights)) for w in weights]


def _rescaled(doc: dict, rng: random.Random) -> dict:
    """The same instance with each agent's density multiplied by its own
    random factor in 1..4.  Proportionality compares each agent's value
    with a share of that agent's own total, so every protocol and oracle
    decision, and every output byte, is unchanged.  Small integer factors
    keep the numbers, and so the cost of exact arithmetic on them, close to
    the pool's: with factors p/q up to 9/9 the 90th-percentile latency of
    ``certify`` moved by 20% from seed to seed."""
    agents = []
    for agent in doc["agents"]:
        factor = rng.randint(1, 4)
        densities = [str(Fraction(d) * factor) for d in agent["densities"]]
        agents.append({**agent, "densities": densities})
    return {**doc, "agents": agents}


def divide_documents(seed: int) -> list[str]:
    """Instance files, DIVIDE_PER_N for each agent count in DIVIDE_AGENTS,
    drawn as ``entitled-cuts gen --random n --denom-bound 8`` draws them:
    every agent has at most 3 cells.

    As for ``certify_documents``, the pool is fixed and the seed rescales
    each agent's density: drawn from the seed, the few slowest instances
    set the pass cost, and ``wall_s`` had a quartile spread of 25% over
    five seeds.
    """
    pool_rng = random.Random("divide-pool")
    rng = random.Random(f"divide:{seed}")
    return [
        serialize.dumps(_rescaled(
            _instance_doc([_valuation_doc(pool_rng, 3) for _ in range(n)], _weights(pool_rng, n)),
            rng,
        ))
        for n in DIVIDE_AGENTS
        for _ in range(DIVIDE_PER_N)
    ]


def _certify_family_docs(rng: random.Random, family: str) -> dict:
    """One instance of a protocol family, in the shapes of the acceptance
    pools; the caller redraws until it has few refinement cells."""
    F = Fraction
    if family in ("recursive2", "recursive3"):
        n = int(family[-1])
        return _instance_doc([_valuation_doc(rng, 3) for _ in range(n)], _weights(rng, n))
    vals3 = [_valuation_doc(rng, 2) for _ in range(3)]
    if family == "special3_half":
        q = rng.randint(3, 9)
        p = rng.randint(1, q - 1)
        return _instance_doc(vals3, (F(1, 2), F(p, 2 * q), F(q - p, 2 * q)))
    if family == "special3_equal_pair":
        d = rng.randint(3, 9)
        b = rng.randint(1, (d - 1) // 2)
        return _instance_doc(vals3, (F(b, d), F(b, d), 1 - 2 * F(b, d)))
    if family in ("near_equal2", "near_equal3"):
        n = int(family[-1])
        d = rng.randint(n, 9)
        ents = (F(1, d),) * (n - 1) + (F(d - n + 1, d),)
        return _instance_doc([_valuation_doc(rng, 2) for _ in range(n)], ents)
    if family in ("clone2", "clone3"):
        n = int(family[-1])
        while True:
            weights = [rng.randint(1, 9) for _ in range(n)]
            if sum(weights) <= 24:
                break
        ents = [F(w, sum(weights)) for w in weights]
        return _instance_doc([_valuation_doc(rng, 2) for _ in range(n)], ents)
    raise ValueError(f"unknown family {family!r}")


# Protocols are looked up by name when a request runs, so that a traced run
# sees the wrapped binding.
CERTIFY_FAMILIES = {
    "recursive2": "recursive_divide",
    "recursive3": "recursive_divide",
    "special3_half": "special3_half",
    "special3_equal_pair": "special3_equal_pair",
    "near_equal2": "near_equal_divide",
    "near_equal3": "near_equal_divide",
    "clone2": "clone_divide",
    "clone3": "clone_divide",
}


def certify_documents(seed: int) -> list[tuple[str, str]]:
    """(family, instance file) pairs, CERTIFY_PER_FAMILY per family.

    The pool is fixed, like the acceptance pools it is shaped after, and the
    seed only rescales each agent's density.  Drawing the pool from the
    seed as well made one pass cost anywhere from 2.5 s to 10.6 s: a few
    instances whose oracle search runs long dominate it, so runs with
    different seeds could not be compared.
    """
    pool_rng = random.Random("certify-pool")
    rng = random.Random(f"certify:{seed}")
    out = []
    for family in CERTIFY_FAMILIES:
        for _ in range(CERTIFY_PER_FAMILY):
            while True:
                doc = _certify_family_docs(pool_rng, family)
                if _refinement_cells(doc) <= CERTIFY_MAX_CELLS:
                    break
            out.append((family, serialize.dumps(_rescaled(doc, rng))))
    return out


# --- requests and checks ----------------------------------------------------


def _verify_failure(instance, allocation) -> Optional[str]:
    report = verifier.verify_allocation(instance, allocation)
    if report.passed:
        return None
    return "; ".join(report.messages) or "verification failed"


def divide_request(text: str) -> bytes:
    """In-process ``entitled-cuts solve --algorithm auto``."""
    instance = serialize.parse_instance_document(serialize.loads(text))
    report = protocols.auto_solve(instance)
    if not verifier.verify_allocation(instance, report.allocation).passed:
        raise RuntimeError("internal verification failed")
    doc = serialize.allocation_to_document(report.allocation, report.algorithm)
    return serialize.dumps(doc).encode()


def check_divide(text: str, output: bytes) -> Optional[str]:
    instance = serialize.parse_instance_document(serialize.loads(text))
    allocation, _ = serialize.parse_allocation_document(serialize.loads(output.decode()))
    return _verify_failure(instance, allocation)


def certify_request(instance, protocol: str) -> bytes:
    """Run a protocol, then ask the oracle to confirm its cut count."""
    report = getattr(protocols, protocol)(instance)
    achieved = len(report.cuts)
    cert = bounds.feasible_with_k_cuts(instance, achieved)
    minimum = bounds.min_cuts(instance, achieved)
    return json.dumps(
        {
            "achieved": achieved,
            "allocation": serialize.allocation_to_document(report.allocation, report.algorithm),
            "certificate": serialize.certificate_to_document(cert),
            "min_cuts": minimum,
        },
        indent=2,
    ).encode()


def check_certify(instance, output: bytes) -> Optional[str]:
    doc = serialize.loads(output.decode())
    achieved = doc["achieved"]
    allocation, _ = serialize.parse_allocation_document(doc["allocation"])
    failure = _verify_failure(instance, allocation)
    if failure:
        return f"protocol allocation: {failure}"
    if len(doc["allocation"]["cuts"]) != achieved:
        return "achieved cut count does not match the allocation"
    cert = doc["certificate"]
    if cert["status"] != "feasible" or cert["allocation"] is None:
        return f"oracle found no allocation with {achieved} cuts"
    witness, _ = serialize.parse_allocation_document(cert["allocation"])
    failure = _verify_failure(instance, witness)
    if failure:
        return f"oracle witness: {failure}"
    if len(cert["allocation"]["cuts"]) > achieved:
        return "oracle witness uses more cuts than allowed"
    if not doc["min_cuts"] <= achieved:
        return f"min_cuts {doc['min_cuts']} exceeds achieved {achieved}"
    return None


def lower_bound_request(instance, k_max: int) -> bytes:
    """In-process ``entitled-cuts min-cuts --k-max k_max``: decide k = 0, 1,
    ... until the first feasible budget and write that certificate."""
    for k in range(k_max + 1):
        cert = bounds.feasible_with_k_cuts(instance, k)
        if cert.feasible:
            break
    return serialize.dumps(serialize.certificate_to_document(cert)).encode()


def check_lower_bound(instance, expected: int, output: bytes) -> Optional[str]:
    cert = serialize.loads(output.decode())
    if cert["status"] != "feasible" or cert["k"] != expected:
        return f"minimum is not {expected}: k={cert['k']} {cert['status']}"
    witness, _ = serialize.parse_allocation_document(cert["allocation"])
    failure = _verify_failure(instance, witness)
    if failure:
        return f"oracle witness: {failure}"
    if len(cert["allocation"]["cuts"]) != expected:
        return f"witness uses {len(cert['allocation']['cuts'])} cuts, expected {expected}"
    return None


def build(workload: str, seed: int) -> list[Request]:
    """The fixed request list one pass of ``workload`` sends, made from
    ``seed``.  The lower-bound family has one member per n, so that
    workload's input does not depend on the seed."""
    if workload == "divide":
        return [
            Request(
                f"divide[{i}]",
                lambda t=text: divide_request(t),
                lambda out, t=text: check_divide(t, out),
            )
            for i, text in enumerate(divide_documents(seed))
        ]
    if workload == "certify":
        requests = []
        for i, (family, text) in enumerate(certify_documents(seed)):
            instance = serialize.parse_instance_document(serialize.loads(text))
            protocol = CERTIFY_FAMILIES[family]
            requests.append(
                Request(
                    f"certify[{i}]:{family}",
                    lambda inst=instance, p=protocol: certify_request(inst, p),
                    lambda out, inst=instance: check_certify(inst, out),
                )
            )
        return requests
    if workload == "lower_bound":
        instance = bounds.gen_lower_bound_instance(LOWER_BOUND_N)
        expected = 2 * LOWER_BOUND_N - 2
        return [
            Request(
                f"lower_bound[n={LOWER_BOUND_N}]",
                lambda: lower_bound_request(instance, expected),
                lambda out: check_lower_bound(instance, expected, out),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
