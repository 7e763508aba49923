"""The argparse form of the CLI's option table: --help, usage errors and abbreviations.

``nutcirc.cli`` parses a plain request itself and imports this module only
for an argv it declines, and for ``cli.build_parser()``. So every usage
message, help text and abbreviation is argparse's.
"""
from __future__ import annotations

import argparse

from .errors import ParameterError


class _UsageError(Exception):
    """An argparse error, raised instead of exiting so parse_args can choose the output."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError on a usage error."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser(commands: dict) -> argparse.ArgumentParser:
    """The parser of ``commands``, the CLI's table: subcommand -> (help, handler, options)."""
    parser = _Parser(
        prog="nutcirc",
        description="Exact certification and search tools for circulant nut graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit the JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in commands.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
    return parser


def parse_args(commands: dict, argv: list[str], namespace) -> None:
    """Parse argv into namespace; a usage error raises ParameterError under --json.

    argparse fills ``namespace`` in order, so ``json`` and ``command`` hold
    what it parsed before an error: ``--json`` counts only ahead of the
    subcommand, and ``command`` stays None until a valid subcommand name is
    read. Without ``--json`` argparse prints its usage text and exits 2.
    """
    try:
        build_parser(commands).parse_args(argv, namespace)
    except _UsageError as exc:
        if not namespace.json:
            argparse.ArgumentParser.error(exc.parser, exc.message)
        raise ParameterError(exc.message) from None
