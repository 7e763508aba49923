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

Each subcommand imports only the layers it calls, when argparse reaches it:
a cyclodiv request never compiles circulant, families or search, a search
request never circulant, and only non-JSON output or a CSV file compiles
``render``. So elapsed_ms, timed from the start of main, includes the import
of the subcommand's layers.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Any, Optional

from .errors import CapacityError, ConfigurationError, ParameterError

if TYPE_CHECKING:
    from .circulant import NutVerdict
    from .search import CatalogEntry

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


def entry_to_json(entry: CatalogEntry) -> dict[str, Any]:
    return {
        "n": entry.n,
        "exists": entry.exists,
        "witness": list(entry.witness) if entry.witness else None,
        "sets_enumerated": entry.sets_enumerated,
        "sets_passing": entry.sets_passing,
        "skipped": entry.skipped,
    }


# --- subcommand implementations ----------------------------------------------


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--set", required=True, help="comma-separated generator elements")
    parser.add_argument("--method", choices=("spectral", "kernel", "both"), default="both")


def _run_checks(g, method: str = "both", **later) -> tuple[dict[str, Any], bool]:
    """Verdicts on g keyed spectral, kernel, then each later check, and whether they agree.

    method picks the routes, and the kernel runs first, so that its order
    ceiling refuses before any spectral work. Each later check is a thunk
    giving a verdict, or None where it does not apply.
    """
    from .circulant import is_nut_kernel, is_nut_spectral

    results: dict[str, Any] = {}
    if method != "spectral":
        results["kernel"] = verdict_to_json(is_nut_kernel(g))
    if method != "kernel":
        results = {"spectral": verdict_to_json(is_nut_spectral(g)), **results}
    for name, check in later.items():
        results[name] = check and verdict_to_json(check())
    decided = {r["is_nut"] for r in results.values() if r is not None}
    return results, len(decided) == 1


def _cmd_verify(args) -> dict[str, Any]:
    from .circulant import parse_generator_set

    g = parse_generator_set(args.n, args.set)
    results, agree = _run_checks(g, args.method)
    payload: dict[str, Any] = {
        "n": g.n,
        "set": list(g.elements),
        "degree": g.degree,
        "method": args.method,
        "results": results,
    }
    if args.method == "both":
        payload["agree"] = agree
    return payload


def _family_arguments(parser: argparse.ArgumentParser) -> None:
    from .families import VARIANTS

    parser.add_argument("--variant", choices=VARIANTS, required=True)
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--check", action="store_true", help="run all nut checks")


def _cmd_family(args) -> dict[str, Any]:
    from functools import partial

    from . import families

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
        applies = args.variant in (families.VARIANT_DPRIME, families.VARIANT_DDPRIME)
        family = partial(families.family_nut_check, fid) if applies else None
        payload["checks"], payload["agree"] = _run_checks(g, family=family)
    return payload


def _tables_arguments(parser: argparse.ArgumentParser) -> None:
    from .families import POLY_KINDS

    parser.add_argument("--kind", choices=POLY_KINDS, required=True)
    parser.add_argument("--modulus", type=int, required=True)
    parser.add_argument("--format", choices=("csv", "md"), default="csv")


def _cmd_tables(args) -> dict[str, Any]:
    from .families import generate_table
    from .polyalg import sparse_to_text

    rows = generate_table(args.kind, args.modulus)
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


def _search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--n-min", type=int, required=True)
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--balanced",
        action="store_true",
        help="count only balanced sets in sets_enumerated (the walk always skips the others)",
    )
    parser.add_argument("--out", help="write the result document to this path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="format of the --out file"
    )


def _cmd_search(args) -> dict[str, Any]:
    if args.format == "csv" and not args.out:
        raise ParameterError("--format csv needs --out, the file the CSV document is written to")
    from .search import catalog

    entries = catalog(
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
        if args.format == "csv":
            from .render import search_csv

            document = search_csv(payload)
        else:
            import json

            document = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        try:
            with open(args.out, "w") as fh:
                fh.write(document)
        except OSError as exc:
            raise ConfigurationError(f"cannot write --out file: {exc}") from None
    return payload


def _cyclodiv_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--poly", required=True, help="sparse form, e.g. 5:2,4:1,0:-2")
    parser.add_argument("--engine", choices=("oracle", "fast"), default="oracle")


def _cmd_cyclodiv(args) -> dict[str, Any]:
    from .cyclotomy import cyclo_divisors_accelerated, cyclo_divisors_oracle
    from .polyalg import sparse_from_text

    poly = sparse_from_text(args.poly)
    if args.engine == "oracle":
        report = cyclo_divisors_oracle(poly)
    else:
        report = cyclo_divisors_accelerated(poly)
    return {
        "divisors": list(report.divisors),
        "degree": poly.degree,
        "engine": args.engine,
    }


# --- parser and dispatch -------------------------------------------------------


class _UsageError(Exception):
    """An argparse error, raised instead of exiting so main can choose the output."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError on a usage error; adds its arguments on its first parse.

    A subcommand's arguments are added by ``arguments(parser)`` only when
    argparse parses that subcommand, because some take their choices from
    the subcommand's layer (``families.VARIANTS``), which other subcommands
    never load.
    """

    def __init__(self, *args, arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            arguments, self._arguments = self._arguments, None
            arguments(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise _UsageError(self, message)


# subcommand -> (help, function adding its arguments, handler)
_COMMANDS = {
    "verify": ("decide nut-ness of Circ(n, S)", _verify_arguments, _cmd_verify),
    "family": ("build a family generator set", _family_arguments, _cmd_family),
    "tables": ("regenerate a residue table", _tables_arguments, _cmd_tables),
    "search": ("catalog nut existence by order", _search_arguments, _cmd_search),
    "cyclodiv": (
        "cyclotomic divisor set of a sparse polynomial",
        _cyclodiv_arguments,
        _cmd_cyclodiv,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nutcirc",
        description="Exact certification and search tools for circulant nut graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, arguments=arguments)
    return parser


def _emit(envelope: dict[str, Any], as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(envelope, sort_keys=True))
    elif envelope["status"] == "ok":
        from .render import human

        print(human(envelope["command"], envelope["payload"]))
    else:
        print(f"error: {envelope['payload']['message']}")


def _usage_error(args: argparse.Namespace, exc: _UsageError, started: float) -> int:
    """Report an argparse error: an error envelope under --json, else argparse's text.

    argparse fills ``args`` in order, so ``json`` and ``command`` hold what it
    parsed before the error: ``--json`` counts only ahead of the subcommand,
    and ``command`` stays None until a valid subcommand name is read.
    """
    if not args.json:
        argparse.ArgumentParser.error(exc.parser, exc.message)
    envelope = {
        "command": args.command,
        "status": "error",
        "payload": {"message": exc.message},
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    _emit(envelope, True)
    return EXIT_USAGE


def main(argv: Optional[list[str]] = None) -> int:
    started = time.monotonic()
    args = argparse.Namespace()
    try:
        build_parser().parse_args(argv, args)
    except _UsageError as exc:
        return _usage_error(args, exc, started)
    try:
        payload = _COMMANDS[args.command][2](args)
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
