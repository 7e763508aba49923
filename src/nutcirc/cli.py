"""Command-line entry point: verify, family, tables, search, cyclodiv.

Every invocation emits an envelope {command, status, payload, elapsed_ms};
with --json the envelope is printed as JSON with sorted keys on stdout,
otherwise a human-readable rendering of the payload is shown there, and an
error prints ``error: <message>`` on stderr. Payloads contain no
timestamps, so identical invocations produce identical payload bytes.
Polynomial coefficients and kernel-vector entries are serialized as decimal
strings because they can exceed 64-bit range.

Exit codes: 0 for a completed command (a "not a nut graph" verdict is a
completed command), 1 for domain errors (capacity, missing data, an unwritable
--out file), 2 for usage errors (bad flags or arguments violating
preconditions). With --json, usage errors that argparse detects also leave
through the envelope; without it they keep argparse's usage text on stderr.
Any OSError on writing the output, as from a closed stdout (``| head``) or
a full device, ends the request quietly with exit code 1.

``python -m nutcirc.cli`` and the ``nutcirc`` console script call ``run``,
which calls ``main``, flushes stdout and stderr and ends the process with
``os._exit`` and main's exit code: interpreter finalization (atexit, module
teardown, the last collection) would add several milliseconds to every
request. Nothing is flushed or closed after that, so every file a handler
opens is closed before main returns (``search --out`` writes inside
``with``). Callers of ``main`` in process keep the normal exit.

Each subcommand's options are declared once in ``_COMMANDS``, each as the
keyword arguments of argparse's add_argument; the --variant and --kind
choices mirror ``families.VARIANTS`` and ``families.POLY_KINDS``, and a test
pins them to those. A plain request (``[--json] <subcommand>``, full flag
names, one value token each) is read from that table directly; any other
argv, and ``build_parser()``, import argparse through ``nutcirc.argparser``,
which builds the parser from the same table, so help, abbreviations and
every usage message stay argparse's. Each subcommand imports only the layers
it calls: a cyclodiv request never compiles circulant, families or search, a
search request never circulant, and only non-JSON output or a CSV file
compiles ``render``. So elapsed_ms, timed from the start of main, includes
the import of the subcommand's layers. ``_to_json`` encodes the envelope
with ``_json``, the C encoder behind ``json.dumps(envelope,
sort_keys=True)``, imported without the ``json`` package. Only the indented
JSON document ``search --out FILE`` writes imports ``json``: that encoder
cannot indent before Python 3.13.
"""
from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from .errors import CapacityError, ConfigurationError, ParameterError

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import Any

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


def _run_checks(g, method: str = "both") -> tuple[dict[str, Any], bool]:
    """Verdicts on g keyed spectral then kernel, and whether they agree.

    method picks the routes, and the kernel runs first, so that its order
    ceiling refuses before any spectral work.
    """
    from .circulant import is_nut_kernel, is_nut_spectral

    results: dict[str, Any] = {}
    if method != "spectral":
        results["kernel"] = verdict_to_json(is_nut_kernel(g))
    if method != "kernel":
        results = {"spectral": verdict_to_json(is_nut_spectral(g)), **results}
    return results, len({r["is_nut"] for r in results.values()}) == 1


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


def _cmd_family(args) -> dict[str, Any]:
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
        checks, agree = _run_checks(g)
        family = None
        if args.variant != families.VARIANT_DS_PRIOR:
            family = verdict_to_json(families.family_nut_check(fid))
            agree = agree and family["is_nut"] == checks["spectral"]["is_nut"]
        payload["checks"], payload["agree"] = {**checks, "family": family}, agree
    return payload


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
                "remainder": sparse_to_text(row.remainder),
            }
            for row in rows
        ],
    }


def _cmd_search(args) -> dict[str, Any]:
    if args.format == "csv" and not args.out:
        raise ParameterError("--format csv needs --out, the file the CSV document is written to")
    if args.jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {args.jobs}")
    from .search import catalog

    entries = catalog(args.degree, args.n_min, args.n_max, balanced_only=args.balanced)
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


# --- option table, parser and dispatch --------------------------------------


# subcommand -> (help, handler, options). Each option maps its flag to the
# keyword arguments of argparse's add_argument, as plain data. The --variant
# and --kind choices mirror families.VARIANTS and families.POLY_KINDS, written
# out so that parsing imports no layer; test_option_table_is_plain_data pins
# them to families.
_COMMANDS = {
    "verify": (
        "decide nut-ness of Circ(n, S)",
        _cmd_verify,
        {
            "--n": {"type": int, "required": True},
            "--set": {"required": True, "help": "comma-separated generator elements"},
            "--method": {"choices": ("spectral", "kernel", "both"), "default": "both"},
        },
    ),
    "family": (
        "build a family generator set",
        _cmd_family,
        {
            "--variant": {"choices": ("dprime", "ddprime", "ds"), "required": True},
            "--t": {"type": int, "required": True},
            "--n": {"type": int, "required": True},
            "--check": {"action": "store_true", "help": "run all nut checks"},
        },
    ),
    "tables": (
        "regenerate a residue table",
        _cmd_tables,
        {
            "--kind": {"choices": ("q", "r", "u", "w"), "required": True},
            "--modulus": {"type": int, "required": True},
            "--format": {"choices": ("csv", "md"), "default": "csv"},
        },
    ),
    "search": (
        "catalog nut existence by order",
        _cmd_search,
        {
            "--degree": {"type": int, "required": True},
            "--n-min": {"type": int, "required": True},
            "--n-max": {"type": int, "required": True},
            "--jobs": {
                "type": int,
                "default": 1,
                "help": "no effect, the catalog walk is serial; N must be >= 1",
            },
            "--balanced": {
                "action": "store_true",
                "help": "count only balanced sets in sets_enumerated "
                "(the walk always skips the others)",
            },
            "--out": {"help": "write the result document to this path"},
            "--format": {
                "choices": ("json", "csv"),
                "default": "json",
                "help": "format of the --out file",
            },
        },
    ),
    "cyclodiv": (
        "cyclotomic divisor set of a sparse polynomial",
        _cmd_cyclodiv,
        {
            "--poly": {"required": True, "help": "sparse form, e.g. 5:2,4:1,0:-2"},
            "--engine": {"choices": ("oracle", "fast"), "default": "oracle"},
        },
    ),
}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain request, equal to argparse's, or None for any other argv.

    A plain request is ``[--json] <subcommand>`` followed by full flag names
    of the subcommand, each given at most once. Each value is one token that
    does not start with "-", converts to the option's type and is one of its
    choices. Anything else (help, an abbreviation, ``--n=16``, a negative
    number, a missing flag, a bad value) returns None: argparse then parses
    it and writes every message.
    """
    start = 1 if argv[:1] == ["--json"] else 0
    if len(argv) <= start or argv[start] not in _COMMANDS:
        return None
    command = argv[start]
    options = _COMMANDS[command][2]
    given: dict[str, Any] = {}
    tokens = iter(argv[start + 1 :])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(json=bool(start), command=command)
    for flag, spec in options.items():
        if flag in given:
            value = given[flag]
        elif spec.get("required"):
            return None
        else:
            value = spec.get("default", False if spec.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI, built from the option table (``nutcirc.argparser``)."""
    from .argparser import build_parser

    return build_parser(_COMMANDS)


def _to_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True)`` by json's own C encoder, without loading ``json``."""
    from _json import encode_basestring_ascii, make_encoder

    def default(obj):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    # The arguments json.JSONEncoder.iterencode passes for sort_keys=True:
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan.
    encode = make_encoder({}, default, encode_basestring_ascii, None, ": ", ", ", True, False, True)
    return "".join(encode(value, 0))


def _emit(envelope: dict[str, Any], as_json: bool) -> None:
    """Print the envelope as JSON, as its rendering or as the error line.

    If the stream fails, its descriptor, if it has one, is pointed at
    devnull, so that the flush at exit does not fail again, and the OSError
    is raised.
    """
    stream = sys.stdout
    if as_json:
        text = _to_json(envelope)
    elif envelope["status"] == "ok":
        from .render import human

        text = human(envelope["command"], envelope["payload"])
    else:
        text = f"error: {envelope['payload']['message']}"
        stream = sys.stderr
    try:
        print(text, file=stream, flush=True)
    except OSError:
        try:
            fd = stream.fileno()
        except (OSError, ValueError):  # a stream without a descriptor
            fd = -1
        if fd >= 0:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        raise


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    try:
        if args is None:
            from .argparser import parse_args

            args = SimpleNamespace()
            parse_args(_COMMANDS, argv, args)
        payload = _COMMANDS[args.command][1](args)
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
    try:
        _emit(envelope, args.json)
    except OSError:
        # The stream cannot take the envelope: its reader has closed it
        # (``| head``) or its device is full. Exit quietly.
        return EXIT_DOMAIN
    return exit_code


def run(argv: list[str] | None = None) -> None:
    """Run main, flush stdout and stderr, and end the process by ``os._exit`` with main's code.

    A flush that fails ends the process with EXIT_DOMAIN and writes nothing
    more, as a closed stdout does. argparse's SystemExit (help, usage errors
    without --json) leaves the normal way.
    """
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except OSError:
        code = EXIT_DOMAIN
    os._exit(code)


if __name__ == "__main__":
    run()
