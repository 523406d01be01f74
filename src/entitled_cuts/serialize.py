"""JSON wire formats for instances, allocations, and oracle certificates.

All numeric values travel as rational strings ("p/q" or a bare integer);
floats are rejected on parse so no binary rounding can leak in.  Output is
canonically ordered (agents ascending, intervals ascending) and formatted
deterministically, which makes golden-file and byte-identity testing
possible.
"""

from __future__ import annotations

import json

from .bounds import CutBudgetCertificate
from .errors import EntitledCutsError
from .model import (
    Allocation,
    Instance,
    Interval,
    Region,
    Valuation,
    boundary_points,
    format_rational,
    parse_rational,
)


class FormatError(EntitledCutsError, ValueError):
    """A document does not match the expected schema."""


def _rational(value, label):
    """The rational a document's string holds; errors name ``label``."""
    if not isinstance(value, str):
        raise FormatError(f"{label} must be a rational string, got {value!r}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise FormatError(f"{label}: {exc}") from None


def _rational_list(values, label):
    if not isinstance(values, list):
        raise FormatError(f"{label} must be a list of rational strings")
    entry = f"{label} entry"
    return [_rational(v, entry) for v in values]


def instance_to_document(instance: Instance) -> dict:
    return {
        "topology": "interval",
        "agents": [
            {
                "name": f"agent{i}",
                "breakpoints": [format_rational(b) for b in v.breakpoints],
                "densities": [format_rational(d) for d in v.densities],
                "entitlement": format_rational(t),
            }
            for i, (v, t) in enumerate(zip(instance.valuations, instance.entitlements), 1)
        ],
    }


def parse_instance_document(doc) -> Instance:
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise FormatError("'agents' must be a non-empty list")
    valuations = []
    entitlements = []
    for agent in agents:
        if not isinstance(agent, dict):
            raise FormatError("each agent must be a JSON object")
        bps = _rational_list(agent.get("breakpoints"), "breakpoints")
        dens = _rational_list(agent.get("densities"), "densities")
        try:
            valuations.append(Valuation(tuple(bps), tuple(dens)))
        except ValueError as exc:
            raise FormatError(f"invalid valuation: {exc}") from None
        entitlements.append(_rational(agent.get("entitlement"), "'entitlement'"))
    # the cake is the interval [0, 1]: no protocol, cut count or oracle
    # treats it as a circle, so a "pie" would be counted as an interval
    topology = doc.get("topology")
    if topology != "interval":
        raise FormatError(f"invalid instance: topology must be 'interval', got {topology!r}")
    try:
        return Instance(tuple(valuations), tuple(entitlements))
    except ValueError as exc:
        raise FormatError(f"invalid instance: {exc}") from None


def allocation_to_document(allocation: Allocation, algorithm: str) -> dict:
    return {
        "pieces": [
            [
                i,
                [[format_rational(iv.lo), format_rational(iv.hi)] for iv in region.intervals],
            ]
            for i, region in enumerate(allocation.pieces)
        ],
        "cuts": [format_rational(c) for c in boundary_points(allocation)],
        "algorithm": algorithm,
    }


def parse_allocation_document(doc) -> tuple[Allocation, str]:
    if not isinstance(doc, dict):
        raise FormatError("allocation document must be a JSON object")
    pieces_doc = doc.get("pieces")
    if not isinstance(pieces_doc, list):
        raise FormatError("'pieces' must be a list")
    by_agent: dict[int, Region] = {}
    for entry in pieces_doc:
        if not (isinstance(entry, list) and len(entry) == 2 and type(entry[0]) is int):
            raise FormatError("each piece entry must be [agent-index, intervals]")
        idx, ivs = entry
        if not isinstance(ivs, list):
            raise FormatError("intervals must be a list")
        intervals = []
        for pair in ivs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise FormatError("each interval must be a [lo, hi] pair")
            lo, hi = (_rational(x, "interval endpoint") for x in pair)
            try:
                intervals.append(Interval(lo, hi))
            except ValueError as exc:
                raise FormatError(str(exc)) from None
        if idx in by_agent:
            raise FormatError(f"duplicate agent index {idx}")
        by_agent[idx] = Region(intervals)
    if by_agent and sorted(by_agent) != list(range(len(by_agent))):
        raise FormatError("agent indices must be 0..n-1")
    allocation = Allocation(tuple(by_agent[i] for i in sorted(by_agent)))
    algorithm = doc.get("algorithm", "")
    if not isinstance(algorithm, str):
        raise FormatError("'algorithm' must be a string")
    return allocation, algorithm


def certificate_to_document(cert: CutBudgetCertificate) -> dict:
    return {
        "k": cert.k,
        "status": "feasible" if cert.feasible else "infeasible",
        "allocation": (
            allocation_to_document(cert.allocation, "oracle") if cert.allocation else None
        ),
        "systems_examined": cert.systems_examined,
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text, parse_float=_reject_float, parse_int=int)
    except FormatError:
        raise
    except ValueError as exc:  # a syntax error, or an int past the digit limit
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


def _reject_float(text):
    raise FormatError(f"float literal {text!r} is not allowed; use rational strings")
