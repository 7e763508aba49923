"""Command-line entry point: verify, family, tables, search, cyclodiv.

Every invocation emits an envelope {command, status, payload, elapsed_ms};
with --json the envelope is printed as JSON with sorted keys, otherwise a
human-readable rendering of the payload is shown. Payloads contain no
timestamps, so identical invocations produce identical payload bytes.
Polynomial coefficients and kernel-vector entries are serialized as decimal
strings because they can exceed 64-bit range.

Exit codes: 0 for a completed command (a "not a nut graph" verdict is a
completed command), 1 for domain errors (capacity, missing data, an unwritable
--out file), 2 for usage errors (bad flags or arguments violating
preconditions). With --json, usage errors that argparse detects also leave
through the envelope; without it they keep argparse's usage text on stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Any, Optional

from . import families, search
from .circulant import (
    NutVerdict,
    is_nut_kernel,
    is_nut_spectral,
    parse_generator_set,
)
from .cyclotomy import cyclo_divisors_accelerated, cyclo_divisors_oracle
from .errors import CapacityError, ConfigurationError, ParameterError
from .polyalg import sparse_from_text, sparse_to_text

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


# --- domain-type serialization ----------------------------------------------


def verdict_to_json(verdict: NutVerdict) -> dict[str, Any]:
    payload: dict[str, Any] = {"is_nut": verdict.is_nut, "reason": verdict.reason}
    if verdict.witness is None:
        payload["witness"] = None
    elif isinstance(verdict.witness, int):
        payload["witness"] = {"divisor": verdict.witness}
    else:
        payload["witness"] = {"kernel_vector": [str(v) for v in verdict.witness]}
    return payload


def entry_to_json(entry: search.CatalogEntry) -> dict[str, Any]:
    return {
        "n": entry.n,
        "exists": entry.exists,
        "witness": list(entry.witness.elements) if entry.witness else None,
        "sets_enumerated": entry.sets_enumerated,
        "sets_passing": entry.sets_passing,
        "skipped": entry.skipped,
    }


# --- subcommand implementations ----------------------------------------------


def _cmd_verify(args) -> dict[str, Any]:
    g = parse_generator_set(args.n, args.set)
    results: dict[str, Any] = {}
    if args.method in ("spectral", "both"):
        results["spectral"] = verdict_to_json(is_nut_spectral(g))
    if args.method in ("kernel", "both"):
        results["kernel"] = verdict_to_json(is_nut_kernel(g))
    payload: dict[str, Any] = {
        "n": g.n,
        "set": list(g.elements),
        "degree": g.degree,
        "method": args.method,
        "results": results,
    }
    if args.method == "both":
        payload["agree"] = results["spectral"]["is_nut"] == results["kernel"]["is_nut"]
    return payload


def _cmd_family(args) -> dict[str, Any]:
    fid = families.FamilyId(args.variant, args.t, args.n)
    g = families.build_family(fid)
    payload: dict[str, Any] = {
        "variant": args.variant,
        "t": args.t,
        "n": args.n,
        "set": list(g.elements),
        "degree": g.degree,
    }
    if args.check:
        checks = {
            "spectral": verdict_to_json(is_nut_spectral(g)),
            "kernel": verdict_to_json(is_nut_kernel(g)),
        }
        if args.variant in (families.VARIANT_DPRIME, families.VARIANT_DDPRIME):
            checks["family"] = verdict_to_json(families.family_nut_check(fid))
        else:
            checks["family"] = None
        decided = [c["is_nut"] for c in checks.values() if c is not None]
        payload["checks"] = checks
        payload["agree"] = len(set(decided)) == 1
    return payload


def _cmd_tables(args) -> dict[str, Any]:
    rows = families.generate_table(args.kind, args.modulus)
    return {
        "kind": args.kind,
        "modulus": args.modulus,
        "format": args.format,
        "rows": [
            {
                "residue": row.residue,
                "reduced": sparse_to_text(row.reduced),
                "remainder": sparse_to_text(row.remainder.to_sparse()),
            }
            for row in rows
        ],
    }


def _cmd_search(args) -> dict[str, Any]:
    entries = search.catalog(
        args.degree,
        args.n_min,
        args.n_max,
        jobs=args.jobs,
        balanced_only=args.balanced,
    )
    payload = {
        "degree": args.degree,
        "entries": [entry_to_json(e) for e in entries],
    }
    if args.out:
        document = (
            _search_csv(payload)
            if args.format == "csv"
            else json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        try:
            with open(args.out, "w") as fh:
                fh.write(document)
        except OSError as exc:
            raise ConfigurationError(f"cannot write --out file: {exc}") from None
    return payload


def _cmd_cyclodiv(args) -> dict[str, Any]:
    poly = sparse_from_text(args.poly)
    if poly.is_zero():
        raise ParameterError("the zero polynomial is divisible by every cyclotomic polynomial")
    if args.engine == "oracle":
        report = cyclo_divisors_oracle(poly)
    else:
        report = cyclo_divisors_accelerated(poly)
    return {
        "divisors": list(report.divisors),
        "degree": poly.degree,
        "engine": args.engine,
    }


# --- human rendering ----------------------------------------------------------


def _render_verdict(name: str, data: dict[str, Any]) -> str:
    tail = ""
    witness = data["witness"]
    if witness and "divisor" in witness:
        tail = f" (failing divisor b={witness['divisor']})"
    return f"{name}: {'NUT' if data['is_nut'] else 'not a nut'} [{data['reason']}]{tail}"


def _search_csv(payload: dict[str, Any]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "exists", "witness", "sets_enumerated", "sets_passing", "skipped"])
    for e in payload["entries"]:
        witness = " ".join(str(s) for s in e["witness"]) if e["witness"] else ""
        writer.writerow(
            [e["n"], e["exists"], witness, e["sets_enumerated"], e["sets_passing"], e["skipped"]]
        )
    return buf.getvalue()


def _render_human(command: str, payload: dict[str, Any]) -> str:
    lines: list[str] = []
    if command == "verify":
        lines.append(f"Circ({payload['n']}, {payload['set']})  degree {payload['degree']}")
        for name, data in payload["results"].items():
            lines.append("  " + _render_verdict(name, data))
        if "agree" in payload:
            lines.append(f"  methods agree: {payload['agree']}")
    elif command == "family":
        lines.append(
            f"{payload['variant']} t={payload['t']} n={payload['n']}: "
            f"S = {payload['set']} (degree {payload['degree']})"
        )
        for name, data in payload.get("checks", {}).items():
            if data is None:
                lines.append(f"  {name}: not applicable")
            else:
                lines.append("  " + _render_verdict(name, data))
        if "agree" in payload:
            lines.append(f"  checks agree: {payload['agree']}")
    elif command == "tables":
        if payload["format"] == "md":
            lines.append("| residue | reduced | remainder |")
            lines.append("|---|---|---|")
            for row in payload["rows"]:
                lines.append(f"| {row['residue']} | {row['reduced']} | {row['remainder']} |")
        else:
            lines.append("residue,reduced,remainder")
            for row in payload["rows"]:
                lines.append(f"{row['residue']},\"{row['reduced']}\",\"{row['remainder']}\"")
    elif command == "search":
        lines.append(f"degree {payload['degree']}")
        for e in payload["entries"]:
            mark = "skipped" if e["skipped"] else ("exists" if e["exists"] else "none")
            witness = f"  witness {e['witness']}" if e["witness"] else ""
            lines.append(
                f"  n={e['n']}: {mark}{witness}  "
                f"(enumerated {e['sets_enumerated']}, passing {e['sets_passing']})"
            )
    elif command == "cyclodiv":
        lines.append(
            f"degree {payload['degree']}, engine {payload['engine']}, "
            f"divisors {payload['divisors']}"
        )
    return "\n".join(lines)


# --- parser and dispatch -------------------------------------------------------


class _UsageError(Exception):
    """An argparse error, raised instead of exiting so main can choose the output."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nutcirc",
        description="Exact certification and search tools for circulant nut graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="decide nut-ness of Circ(n, S)")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--set", required=True, help="comma-separated generator elements")
    p_verify.add_argument(
        "--method", choices=("spectral", "kernel", "both"), default="both"
    )

    p_family = sub.add_parser("family", help="build a family generator set")
    p_family.add_argument("--variant", choices=families.VARIANTS, required=True)
    p_family.add_argument("--t", type=int, required=True)
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--check", action="store_true", help="run all nut checks")

    p_tables = sub.add_parser("tables", help="regenerate a residue table")
    p_tables.add_argument("--kind", choices=families.POLY_KINDS, required=True)
    p_tables.add_argument("--modulus", type=int, required=True)
    p_tables.add_argument("--format", choices=("csv", "md"), default="csv")

    p_search = sub.add_parser("search", help="catalog nut existence by order")
    p_search.add_argument("--degree", type=int, required=True)
    p_search.add_argument("--n-min", type=int, required=True)
    p_search.add_argument("--n-max", type=int, required=True)
    p_search.add_argument("--jobs", type=int, default=1)
    p_search.add_argument("--balanced", action="store_true", help="prune unbalanced sets")
    p_search.add_argument("--out", help="write the result document to this path")
    p_search.add_argument("--format", choices=("json", "csv"), default="json")

    p_cyclo = sub.add_parser("cyclodiv", help="cyclotomic divisor set of a sparse polynomial")
    p_cyclo.add_argument("--poly", required=True, help="sparse form, e.g. 5:2,4:1,0:-2")
    p_cyclo.add_argument("--engine", choices=("oracle", "fast"), default="oracle")

    return parser


_HANDLERS = {
    "verify": _cmd_verify,
    "family": _cmd_family,
    "tables": _cmd_tables,
    "search": _cmd_search,
    "cyclodiv": _cmd_cyclodiv,
}


def _emit(envelope: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(envelope, sort_keys=True))
    elif envelope["status"] == "ok":
        print(_render_human(envelope["command"], envelope["payload"]))
    else:
        print(f"error: {envelope['payload']['message']}")


def _usage_error(argv: list[str], exc: _UsageError, started: float) -> int:
    """Report an argparse error: an error envelope under --json, else argparse's text."""
    # The top-level options are the tokens before the subcommand; argparse
    # also accepts an abbreviation such as --js for --json.
    split = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    if not any(len(token) > 2 and "--json".startswith(token) for token in argv[:split]):
        argparse.ArgumentParser.error(exc.parser, exc.message)
    envelope = {
        "command": argv[split] if split < len(argv) and argv[split] in _HANDLERS else None,
        "status": "error",
        "payload": {"message": exc.message},
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    _emit(envelope, True)
    return EXIT_USAGE


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _usage_error(argv, exc, started)
    try:
        payload = _HANDLERS[args.command](args)
        status, exit_code = "ok", EXIT_OK
    except ParameterError as exc:
        payload = {"message": str(exc)}
        status, exit_code = "error", EXIT_USAGE
    except (CapacityError, ConfigurationError) as exc:
        payload = {"message": str(exc)}
        status, exit_code = "error", EXIT_DOMAIN
    envelope = {
        "command": args.command,
        "status": status,
        "payload": payload,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    _emit(envelope, args.json)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
