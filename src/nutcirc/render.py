"""Human-readable rendering of CLI payloads, and the catalog's CSV document.

The command line imports this module only for output that is not the JSON
envelope: a payload printed without ``--json``, and the file that ``search
--out FILE --format csv`` writes. Any other ``--json`` request never
compiles it.
"""
from __future__ import annotations

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


def _verdict(name: str, data: dict[str, Any]) -> str:
    tail = ""
    witness = data["witness"]
    if witness and "divisor" in witness:
        tail = f" (failing divisor b={witness['divisor']})"
    return f"{name}: {'NUT' if data['is_nut'] else 'not a nut'} [{data['reason']}]{tail}"


def search_csv(payload: dict[str, Any]) -> str:
    # No field holds a comma, a quote or a line break: plain joins match csv.writer.
    keys = ("n", "exists", "witness", "sets_enumerated", "sets_passing", "skipped")
    lines = [",".join(keys)]
    for e in payload["entries"]:
        row = {**e, "witness": " ".join(map(str, e["witness"] or ()))}
        lines.append(",".join(str(row[k]) for k in keys))
    return "".join(line + "\r\n" for line in lines)


def human(command: str, payload: dict[str, Any]) -> str:
    lines: list[str] = []
    if command == "verify":
        lines.append(f"Circ({payload['n']}, {payload['set']})  degree {payload['degree']}")
        for name, data in payload["results"].items():
            lines.append("  " + _verdict(name, data))
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
                lines.append("  " + _verdict(name, data))
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
