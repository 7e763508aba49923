"""Correctness checks on CLI envelopes; every error found counts a request as failed.

``check_request`` looks at one request's exit code and payload on its own.
``check_pass`` compares requests of one pass with each other (the two
cyclodiv engines, the catalog at different job counts or with balanced
pruning). ``kernel_check_witnesses`` re-derives catalog witnesses with the
kernel route, outside any timed window.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from workloads import DEGREE8_NUT_ORDERS

_ELAPSED = re.compile(rb'"elapsed_ms": -?\d+,? ?')


def normalized(stdout: bytes) -> bytes:
    """Envelope bytes with elapsed_ms removed: identical for identical invocations."""
    return _ELAPSED.sub(b"", stdout)


def parse_envelope(stdout: bytes) -> dict | None:
    try:
        envelope = json.loads(stdout)
    except ValueError:
        return None
    return envelope if isinstance(envelope, dict) else None


def check_request(req: dict, rc: int, envelope: dict | None, golden_dir: Path) -> list[str]:
    """Errors in one request's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    if envelope is None:
        return ["stdout is not a JSON envelope"]
    if envelope.get("status") != "ok":
        return [f"status {envelope.get('status')!r}: {envelope.get('payload')}"]
    payload = envelope["payload"]
    errors = []
    if payload.get("agree", True) is not True:
        errors.append("routes disagree")
    check = req["check"]
    kind = check["kind"]
    if kind == "family":
        for route, verdict in payload["checks"].items():
            if not (verdict and verdict["is_nut"]):
                errors.append(f"family member is not a nut by the {route} route")
    elif kind == "spectral-nut":
        if not payload["results"]["spectral"]["is_nut"]:
            errors.append("family member is not a nut by the spectral route")
    elif kind == "tables":
        expected = read_golden(golden_dir / f"{check['poly']}_{check['modulus']}.txt")
        actual = [(r["residue"], r["reduced"], r["remainder"]) for r in payload["rows"]]
        if actual != expected:
            errors.append("table rows differ from the golden file")
    elif kind == "catalog":
        entries = payload["entries"]
        if any(e["skipped"] for e in entries):
            errors.append("catalog skipped an order")
        if payload["degree"] == 8:
            found = tuple(e["n"] for e in entries if e["exists"] and e["n"] <= 28)
            if found != DEGREE8_NUT_ORDERS:
                errors.append(f"degree-8 nut orders <= 28 are {found}, expected {DEGREE8_NUT_ORDERS}")
    elif kind == "cyclodiv":
        divisors = payload["divisors"]
        if check.get("exact") is not None and divisors != check["exact"]:
            errors.append(f"divisors {divisors}, expected {check['exact']}")
        if check.get("family") in ("u", "w") and not set(divisors) <= {1, 2, 4, 8}:
            errors.append(f"divisors {divisors} not within {{1, 2, 4, 8}}")
        if "planted" in check and check["planted"] not in divisors:
            errors.append(f"planted Phi_{check['planted']} missing from {divisors}")
    return errors


def check_pass(reqs: list[dict], envelopes: list[dict | None]) -> dict[str, list[str]]:
    """Errors from comparing the requests of one pass, keyed by request id."""
    by_id = {req["id"]: env for req, env in zip(reqs, envelopes)}
    errors: dict[str, list[str]] = {}

    def payload(rid):
        env = by_id.get(rid)
        return env.get("payload") if env and env.get("status") == "ok" else None

    for req in reqs:
        check, rid = req["check"], req["id"]
        mine = payload(rid)
        if mine is None:
            continue
        if "same_payload_as" in check:
            other = payload(check["same_payload_as"])
            if other is not None and other != mine:
                errors.setdefault(rid, []).append(f"payload differs from {check['same_payload_as']}")
        if "same_verdicts_as" in check:
            other = payload(check["same_verdicts_as"])
            if other is not None and _verdicts(other) != _verdicts(mine):
                errors.setdefault(rid, []).append(f"verdicts differ from {check['same_verdicts_as']}")
        if check["kind"] == "cyclodiv" and rid.endswith("-fast"):
            other = payload(rid[: -len("-fast")] + "-oracle")
            if other is not None and other["divisors"] != mine["divisors"]:
                errors.setdefault(rid, []).append(
                    f"fast divisors {mine['divisors']} differ from oracle {other['divisors']}"
                )
    return errors


def _verdicts(payload: dict) -> list[tuple]:
    # Balanced pruning changes how many sets are enumerated, never which
    # orders have a nut graph, the witness, or how many sets pass.
    return [(e["n"], e["exists"], e["witness"], e["sets_passing"]) for e in payload["entries"]]


def catalog_witnesses(payload: dict) -> list[tuple[int, tuple[int, ...]]]:
    return [(e["n"], tuple(e["witness"])) for e in payload["entries"] if e["witness"]]


def kernel_check_witnesses(witnesses: list[tuple[int, tuple[int, ...]]], src: Path) -> list[str]:
    """Errors for catalog witnesses that are not nut graphs by the kernel route."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from nutcirc.circulant import GeneratorSet, is_nut_kernel

    return [
        f"witness Circ({n}, {list(elements)}) fails is_nut_kernel"
        for n, elements in sorted(set(witnesses))
        if not is_nut_kernel(GeneratorSet(n, elements)).is_nut
    ]


def read_golden(path: Path) -> list[tuple[int, str, str]]:
    """Rows ``residue reduced remainder`` of a shipped residue-table file."""
    rows = []
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            rows.append((int(parts[0]), parts[1], parts[2]))
    return rows
