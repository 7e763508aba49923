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
    """Raises _UsageError on a usage error; adds its options on its first parse.

    A subcommand's options are added only when argparse parses that
    subcommand, because some take their choices from the subcommand's layer
    (``families.VARIANTS``), which other subcommands never load.
    """

    def __init__(self, *args, options=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._options = options

    def parse_known_args(self, args=None, namespace=None):
        if self._options is not None:
            options, self._options = self._options, None
            for flag, spec in options.items():
                if callable(spec.get("choices")):
                    spec = dict(spec, choices=spec["choices"]())
                self.add_argument(flag, **spec)
        return super().parse_known_args(args, namespace)

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
        sub.add_parser(name, help=help_text, options=options)
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
