"""CLI surface tests: envelopes, exit codes, payload determinism, round-trips."""
from __future__ import annotations

import ast
import errno
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from functools import partial
from importlib import import_module
from pathlib import Path

import pytest

import nutcirc
from nutcirc import circulant, cli, cyclotomy, families
from nutcirc.cli import _COMMANDS, _plain_args, build_parser, main


@pytest.fixture(autouse=True)
def _envelopes_encode_as_json_dumps(monkeypatch):
    """Every envelope a test here emits, error envelopes included, is encoded
    by the CLI byte for byte as ``json.dumps(envelope, sort_keys=True)``."""
    emit = cli._emit

    def checked(envelope, as_json):
        assert cli._to_json(envelope) == json.dumps(envelope, sort_keys=True)
        emit(envelope, as_json)

    monkeypatch.setattr(cli, "_emit", checked)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--json", *argv)
    return code, json.loads(out)


def test_verify_both_methods_nut(capsys):
    code, envelope = run_json(
        capsys, "verify", "--n", "16", "--set", "1,2,4,5,6,7", "--method", "both"
    )
    assert code == 0
    assert envelope["status"] == "ok"
    payload = envelope["payload"]
    assert payload["results"]["spectral"]["is_nut"]
    assert payload["results"]["kernel"]["is_nut"]
    assert payload["agree"] is True
    assert payload["degree"] == 12


def test_verify_non_nut_is_ok_verdict(capsys):
    code, envelope = run_json(capsys, "verify", "--n", "6", "--set", "1,2")
    assert code == 0
    payload = envelope["payload"]
    assert not payload["results"]["spectral"]["is_nut"]
    assert payload["results"]["spectral"]["witness"] == {"divisor": 6}


def test_verify_bad_set_is_usage_error(capsys):
    code, envelope = run_json(capsys, "verify", "--n", "16", "--set", "1,2,16")
    assert code == 2
    assert envelope["status"] == "error"
    assert "n/2" in envelope["payload"]["message"]


def test_verify_capacity_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(circulant, "KERNEL_MAX_ORDER", 8)
    code, envelope = run_json(
        capsys, "verify", "--n", "10", "--set", "3,4", "--method", "kernel"
    )
    assert code == 1
    assert envelope["status"] == "error"


def test_failed_kernel_certificate_is_domain_error(capsys, monkeypatch):
    # A kernel vector rejected at every prime is refused, never reported.
    monkeypatch.setattr(circulant, "_is_in_kernel", lambda g, vec: False)
    code, envelope = run_json(
        capsys, "verify", "--n", "16", "--set", "1,2,4,5,6,7", "--method", "kernel"
    )
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["payload"]["message"] == "the kernel certificate for order 16 failed at all 2 primes"


HUGE_ORDER = "2000000000000000006"  # trial division takes over a minute to factor it
# The dprime member with t = 2001 at order 720 720, near the spectral work
# ceiling: its spectral check alone takes about 1 s.
HEAVY_SET = ",".join(map(str, [*range(1, 2001), 180180, 180181, *range(358360, 360360)]))


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--n", HUGE_ORDER, "--set", "1,2", "--method", "spectral"],
            f"order {HUGE_ORDER} exceeds the spectral order ceiling",
        ),
        (
            # The kernel ceiling refuses first, before the order is factored.
            ["family", "--variant", "ddprime", "--t", "2", "--n", HUGE_ORDER, "--check"],
            f"order {HUGE_ORDER} exceeds the kernel oracle ceiling",
        ),
        (
            ["family", "--variant", "dprime", "--t", "10000001", "--n", "40000008"],
            "family parameter t=10000001 exceeds the ceiling",
        ),
        # The kernel ceiling refuses before the slow spectral check runs.
        (
            ["verify", "--n", "720720", "--set", HEAVY_SET, "--method", "both"],
            "order 720720 exceeds the kernel oracle ceiling 2048",
        ),
        (
            ["family", "--variant", "dprime", "--t", "2001", "--n", "720720", "--check"],
            "order 720720 exceeds the kernel oracle ceiling 2048",
        ),
        (
            ["search", "--degree", "8", "--n-min", "2", "--n-max", "1000000000000"],
            "500000000000 even orders in [2, 1000000000000] exceed the catalog range ceiling",
        ),
    ],
    ids=[
        "verify-spectral",
        "family-check",
        "family-build",
        "verify-both",
        "family-check-kernel",
        "search",
    ],
)
def test_requests_over_a_ceiling_are_refused_at_once(capsys, argv, message):
    started = time.perf_counter()
    code, envelope = run_json(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert envelope["status"] == "error"
    assert message in envelope["payload"]["message"]


def test_family_without_check_answers_at_a_huge_order(capsys):
    code, envelope = run_json(capsys, "family", "--variant", "ddprime", "--t", "2", "--n", HUGE_ORDER)
    assert code == 0
    assert envelope["payload"]["set"][-1] == int(HUGE_ORDER) // 2 - 1


def test_verify_payload_bytes_are_deterministic(capsys):
    args = ("verify", "--n", "14", "--set", "1,4,5,6")
    _, first = run_json(capsys, *args)
    _, second = run_json(capsys, *args)
    assert json.dumps(first["payload"], sort_keys=True) == json.dumps(
        second["payload"], sort_keys=True
    )


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "16", "--set", "1,2", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, command, fragment",
    [
        (["verify", "--n", "1x", "--set", "3,4"], "verify", "invalid int value: '1x'"),
        (["verify", "--n", "16", "--set", "1,2", "--frobnicate"], "verify", "--frobnicate"),
        (["tables", "--kind", "z", "--modulus", "3"], "tables", "invalid choice: 'z'"),
        (["frobnicate"], None, "invalid choice: 'frobnicate'"),
        ([], None, "required"),
        (["verify", "--n", "8"], "verify", "--set"),
        (["--jso", "verify"], "verify", "required"),
        (
            ["search", "--degree", "8", "--n-min", "10", "--n-max", "12", "--oops"],
            "search",
            "--oops",
        ),
        (
            ["family", "--variant", "bogus", "--t", "3", "--n", "16"],
            "family",
            "invalid choice: 'bogus'",
        ),
    ],
)
def test_usage_errors_under_json_use_the_envelope(capsys, argv, command, fragment):
    code = main(["--json", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    envelope = json.loads(captured.out)
    assert envelope["status"] == "error"
    assert envelope["command"] == command
    assert fragment in envelope["payload"]["message"]
    assert set(envelope) == {"command", "status", "payload", "elapsed_ms"}


def test_usage_error_under_abbreviated_json_uses_the_envelope(capsys):
    code = main(["--js", "verify", "--n", "1x", "--set", "3,4"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "error"


def test_json_after_the_subcommand_keeps_argparse_text(capsys):
    # --json is a top-level flag; after the subcommand it is an unknown flag.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--json", "--n", "8", "--set", "1,2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: nutcirc")
    assert "unrecognized arguments: --json" in captured.err


def test_usage_error_without_json_keeps_argparse_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1x", "--set", "3,4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: nutcirc verify")
    assert "invalid int value: '1x'" in captured.err


@pytest.mark.parametrize(
    "command, choices", [("family", "{dprime,ddprime,ds}"), ("tables", "{q,r,u,w}")]
)
def test_subcommand_help_lists_its_choices(capsys, command, choices):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert choices in capsys.readouterr().out


def test_option_table_is_plain_data():
    # Each option spec holds add_argument's keywords; only type is callable.
    for _, _, options in _COMMANDS.values():
        for spec in options.values():
            for key, value in spec.items():
                assert key == "type" or not callable(value), (key, value)
    assert _COMMANDS["family"][2]["--variant"]["choices"] == families.VARIANTS
    assert _COMMANDS["tables"][2]["--kind"]["choices"] == families.POLY_KINDS


def _readme_cli_examples() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("nutcirc ")]


def test_readme_cli_examples_parse():
    commands = _readme_cli_examples()
    assert len(commands) == 5
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command in line


# The bench's request shape of each subcommand: required options, then each
# optional option as one unit.
BENCH_SHAPES = {
    "verify": (["--n", "130", "--set", "1,4,9,12"], [["--method", "spectral"]]),
    "family": (["--variant", "ddprime", "--t", "3", "--n", "174"], [["--check"]]),
    "tables": (["--kind", "w", "--modulus", "30"], [["--format", "md"]]),
    "search": (
        ["--degree", "12", "--n-min", "30", "--n-max", "36"],
        [["--jobs", "2"], ["--balanced"], ["--out", "catalog.csv"], ["--format", "csv"]],
    ),
    "cyclodiv": (["--poly", "300:1,151:-3,0:2"], [["--engine", "fast"]]),
}


def _bench_argvs():
    """Each bench shape with every subset of its optional options, in three orders."""
    for command, (required, optional) in BENCH_SHAPES.items():
        units = [required[i : i + 2] for i in range(0, len(required), 2)]
        for mask in range(1 << len(optional)):
            chosen = units + [unit for i, unit in enumerate(optional) if mask >> i & 1]
            for order in (chosen, chosen[::-1], sorted(chosen)):
                tail = [token for unit in order for token in unit]
                yield [command, *tail]
                yield ["--json", command, *tail]


# Each of these argvs is for argparse alone: it reports an error, prints
# help, or reads an abbreviation, a "--flag=value", a negative number, a
# "--" or a repeated flag.
DECLINED = [
    ["--js", "verify", "--n", "16", "--set", "1,2"],
    ["--json", "cyclodiv", "--po", "2:1,0:1"],
    ["--json", "verify", "--n=16", "--set", "1,2"],
    ["--json", "verify", "--n", "-4", "--set", "1,2"],
    ["--json", "search", "--degree", "8", "--n-min", "-4", "--n-max", "4"],
    ["--json", "verify", "--n", "16", "--n", "18", "--set", "1,2"],
    ["--json", "family", "--variant", "dprime", "--t", "3", "--n", "16", "--check", "--check"],
    ["--json", "--json", "verify", "--n", "16", "--set", "1,2"],
    ["--json", "verify", "--", "--n", "16", "--set", "1,2"],
    ["--json", "verify", "--n", "16", "--set", "1,2", "--"],
    ["-h"],
    ["--json", "--help"],
    ["verify", "-h"],
    ["--json", "cyclodiv", "--poly", "2:1,0:1", "--help"],
    ["--json", "verify", "--n", "16"],
    ["search", "--degree", "8", "--n-max", "12"],
    ["--json", "verify", "--n", "1x", "--set", "1,2"],
    ["--json", "verify", "--n", "", "--set", "1,2"],
    ["--json", "tables", "--kind", "z", "--modulus", "3"],
    ["--json", "family", "--variant", "bogus", "--t", "3", "--n", "16"],
    ["--json", "cyclodiv", "--poly", "2:1,0:1", "--engine", "slow"],
    ["--json", "frobnicate"],
    [],
    ["--json"],
    ["verify", "--json", "--n", "16", "--set", "1,2"],
    ["--json", "verify", "--n", "16", "--set"],
    ["--json", "verify", "--n", "16", "--set", "1,2", "extra"],
    ["--json", "family", "--variant", "dprime", "--t", "3", "--n", "16", "--check=1"],
]

# Plain requests at the edge: argparse reads these values the same way.
EDGE_PLAIN = [
    ["--json", "verify", "--n", " 16 ", "--set", ""],
    ["--json", "search", "--degree", "8", "--n-min", "1_0", "--n-max", "+12"],
    ["--json", "cyclodiv", "--poly", "5:2,4:1,0:-2"],
]


def test_plain_parser_agrees_with_argparse():
    # The plain parser either declines an argv or gives argparse's arguments.
    examples = [shlex.split(line)[1:] for line in _readme_cli_examples()]
    plain = [*examples, *_bench_argvs(), *EDGE_PLAIN]
    assert len(plain) == 5 + 2 * 3 * (2 + 2 + 2 + 16 + 2) + 3
    for argv in plain:
        args = _plain_args(argv)
        assert args is not None, argv
        assert vars(args) == vars(build_parser().parse_args(argv)), argv
    for argv in DECLINED:
        assert _plain_args(argv) is None, argv


def test_readme_lists_every_ceiling_with_its_value():
    # Each ceiling is a module constant named <LAYER>_MAX_<QUANTITY>; README
    # lists each one as "- `NAME` = value (`nutcirc.module`)", and no other.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Size ceilings", 1)[1].split("\n## ", 1)[0]
    entry = r"^- `(\w+)` = ([\d ]+?) \(`nutcirc\.(\w+)`\)"
    listed = {
        name: (module, int(value.replace(" ", "")))
        for name, value, module in re.findall(entry, section, re.M)
    }
    defined = {}
    for path in Path(nutcirc.__file__).parent.glob("*.py"):
        for name in re.findall(r"^([A-Z]\w*_MAX_\w+) = ", path.read_text(), re.M):
            defined[name] = (path.stem, getattr(import_module(f"nutcirc.{path.stem}"), name))
    assert len(defined) == 10
    assert listed == defined


def test_no_module_reads_the_environment():
    # Ceilings and behaviour are fixed in code, never taken from the environment.
    for path in Path(nutcirc.__file__).parent.rglob("*.py"):
        assert not re.search(r"environ|getenv", path.read_text()), path.name


def _module_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level when imported (not under an if or try)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def test_verdict_modules_use_no_floating_point():
    # No float may enter a verdict. The modules that decide one use no true
    # division, no float or complex literal, no float() and, of math, only
    # its integer functions.
    exact_math = {"isqrt", "comb"}
    for module in ("polyalg", "cyclotomy", "circulant", "families", "search"):
        tree = ast.parse(Path(nutcirc.__file__).with_name(f"{module}.py").read_text())
        for node in ast.walk(tree):
            where = (module, getattr(node, "lineno", None))
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.Div), where
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            if isinstance(node, ast.Name):
                assert node.id != "float", where
            if isinstance(node, ast.Import):
                assert "math" not in {alias.name for alias in node.names}, where
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {alias.name for alias in node.names} <= exact_math, where


def test_every_relative_import_names_what_its_module_defines():
    # A lazy import, inside a function, fails only when its code path runs,
    # so every `from .mod import name` in the package is resolved here.
    package = Path(nutcirc.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defined = {stem: _module_names(tree) for stem, tree in trees.items()}
    checked = set()
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                if node.module is None:
                    assert alias.name in trees, (stem, alias.name)
                else:
                    assert alias.name in defined[node.module], (stem, node.module, alias.name)
                checked.add((node.module, alias.name))
    assert {("render", "human"), ("render", "search_csv"), ("search", "catalog")} <= checked



def test_every_import_is_used_in_its_module():
    # A name imported but never read is dead code that every request importing
    # the module still compiles and loads. __future__ imports bind no name.
    for path in sorted(Path(nutcirc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))

def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library sketch", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_family_check(capsys):
    code, envelope = run_json(
        capsys, "family", "--variant", "dprime", "--t", "3", "--n", "16", "--check"
    )
    assert code == 0
    payload = envelope["payload"]
    assert payload["set"] == [1, 2, 4, 5, 6, 7]
    assert payload["agree"] is True
    assert all(
        payload["checks"][name]["is_nut"] for name in ("spectral", "kernel", "family")
    )


def test_family_ds_has_no_family_check(capsys):
    code, envelope = run_json(
        capsys, "family", "--variant", "ds", "--t", "3", "--n", "16", "--check"
    )
    assert code == 0
    assert envelope["payload"]["checks"]["family"] is None
    assert envelope["payload"]["agree"] is True


def test_agree_is_false_when_a_route_disagrees(capsys, monkeypatch):
    # A kernel route that rejects every set disagrees on a nut set, in verify
    # and in family --check alike.
    rejected = circulant.NutVerdict(False, "nullity-not-one")
    monkeypatch.setattr(circulant, "is_nut_kernel", lambda g: rejected)
    _, envelope = run_json(capsys, "verify", "--n", "16", "--set", "1,2,4,5,6,7")
    assert envelope["payload"]["agree"] is False
    _, envelope = run_json(
        capsys, "family", "--variant", "dprime", "--t", "3", "--n", "16", "--check"
    )
    assert envelope["payload"]["agree"] is False


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            "verify --n 12 --set 1,2 --method spectral",
            "Circ(12, [1, 2])  degree 4\n"
            "  spectral: not a nut [spectral-failure] (failing divisor b=6)\n",
        ),
        (
            "family --variant ds --t 3 --n 16 --check",
            "ds t=3 n=16: S = [1, 2, 4, 5, 6, 7] (degree 12)\n"
            "  spectral: NUT [ok]\n"
            "  kernel: NUT [ok]\n"
            "  family: not applicable\n"
            "  checks agree: True\n",
        ),
        (
            "tables --kind q --modulus 3 --format md",
            "| residue | reduced | remainder |\n"
            "|---|---|---|\n"
            "| 0 | 2:3,0:-3 | 1:-3,0:-6 |\n"
            "| 1 | 1:1,0:-1 | 1:1,0:-1 |\n"
            "| 2 | 2:-1,1:1 | 1:2,0:1 |\n",
        ),
        ("cyclodiv --poly 2:1,0:1", "degree 2, engine oracle, divisors [4]\n"),
    ],
)
def test_human_output(capsys, argv, stdout):
    assert run_cli(capsys, *argv.split()) == (0, stdout)


def test_family_invalid_parameters_exit_2(capsys):
    code, envelope = run_json(capsys, "family", "--variant", "dprime", "--t", "2", "--n", "16")
    assert code == 2


def test_tables_csv_matches_reference_rows(capsys):
    code, out = run_cli(capsys, "tables", "--kind", "q", "--modulus", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "residue,reduced,remainder"
    assert lines[1] == '0,"2:3,0:-3","1:-3,0:-6"'
    assert len(lines) == 4


def test_tables_json_row_count(capsys):
    code, envelope = run_json(capsys, "tables", "--kind", "w", "--modulus", "30")
    assert code == 0
    assert len(envelope["payload"]["rows"]) == 30


def test_tables_bad_modulus_exits_2(capsys):
    code, _ = run_json(capsys, "tables", "--kind", "q", "--modulus", "7")
    assert code == 2


def test_cyclodiv_oracle_and_fast_agree(capsys):
    poly = "5:2,4:1,3:-1,2:1,1:-1,0:-2"
    code, envelope = run_json(capsys, "cyclodiv", "--poly", poly)
    assert code == 0
    assert envelope["payload"] == {"degree": 5, "divisors": [1, 2], "engine": "oracle"}
    code, envelope = run_json(capsys, "cyclodiv", "--poly", poly, "--engine", "fast")
    assert envelope["payload"]["divisors"] == [1, 2]
    assert envelope["payload"]["engine"] == "fast"


def test_cyclodiv_zero_poly_exits_2(capsys):
    code, _ = run_json(capsys, "cyclodiv", "--poly", "0")
    assert code == 2
    # Each engine refuses the zero polynomial itself.
    for engine in ("oracle", "fast"):
        code, envelope = run_json(capsys, "cyclodiv", "--poly", "0", "--engine", engine)
        assert code == 2
        assert envelope["command"] == "cyclodiv" and envelope["status"] == "error"
        assert envelope["payload"] == {
            "message": "zero polynomial: every cyclotomic polynomial divides it"
        }


@pytest.mark.parametrize("poly", ["5:1,5:-1,3:2", "3:2,5:1", "5:1,3:2,3:1"])
def test_cyclodiv_non_descending_exponents_exit_2(capsys, poly):
    code, envelope = run_json(capsys, "cyclodiv", "--poly", poly)
    assert code == 2
    assert envelope["status"] == "error"
    assert "strictly descending" in envelope["payload"]["message"]


def _over_degree(engine, name, ceiling):
    message = f"degree {ceiling + 1} exceeds the {name} engine's ceiling {ceiling}"
    poly = f"{ceiling + 1}:1,1:1,0:1"
    return pytest.param(engine, poly, message, id=f"{engine}-{name}-{ceiling}")


@pytest.mark.parametrize(
    "engine, poly, message",
    [
        _over_degree("oracle", "oracle", cyclotomy.ORACLE_MAX_DEGREE),
        _over_degree("fast", "accelerated", cyclotomy.ACCELERATED_MAX_DEGREE),
        pytest.param(
            "fast",
            ",".join(f"{e}:1" for e in range(2000, -1, -1)),
            "2001 terms times degree 2000 exceeds the accelerated engine's work ceiling "
            f"{cyclotomy.ACCELERATED_MAX_WORK}",
            id="fast-accelerated-work",
        ),
    ],
)
def test_cyclodiv_degree_over_the_ceiling_is_domain_error(capsys, engine, poly, message):
    code, envelope = run_json(capsys, "cyclodiv", "--poly", poly, "--engine", engine)
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["payload"]["message"] == message


def test_search_json_schema_and_out_file(capsys, tmp_path):
    out_path = tmp_path / "catalog.json"
    code, envelope = run_json(
        capsys,
        "search",
        "--degree",
        "8",
        "--n-min",
        "12",
        "--n-max",
        "16",
        "--out",
        str(out_path),
    )
    assert code == 0
    payload = envelope["payload"]
    assert payload["degree"] == 8
    assert [e["n"] for e in payload["entries"]] == [12, 14, 16]
    by_n = {e["n"]: e for e in payload["entries"]}
    assert by_n[14]["exists"] and not by_n[16]["exists"]
    assert set(by_n[14]) == {
        "n",
        "exists",
        "witness",
        "sets_enumerated",
        "sets_passing",
        "skipped",
    }
    assert json.loads(out_path.read_text()) == payload


def test_search_csv_out(capsys, tmp_path):
    out_path = tmp_path / "catalog.csv"
    code, _ = run_json(
        capsys,
        "search",
        "--degree",
        "8",
        "--n-min",
        "14",
        "--n-max",
        "14",
        "--format",
        "csv",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,exists,witness,sets_enumerated,sets_passing,skipped"
    assert lines[1].startswith("14,True,")


def test_search_csv_without_out_is_usage_error(capsys):
    argv = ("search", "--degree", "8", "--n-min", "14", "--n-max", "14", "--format", "csv")
    code, envelope = run_json(capsys, *argv)
    assert code == 2
    assert envelope["status"] == "error"
    assert envelope["command"] == "search"
    assert "--out" in envelope["payload"]["message"]
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --format csv needs --out")


def test_search_jobs_has_no_effect(capsys):
    # --jobs is still accepted for callers that pass it: any N >= 1 gives the
    # payload of a request without it, and N < 1 is a usage error.
    argv = ("search", "--degree", "8", "--n-min", "10", "--n-max", "28")

    def payload_bytes(*extra):
        code, envelope = run_json(capsys, *argv, *extra)
        assert code == 0, extra
        return json.dumps(envelope["payload"], sort_keys=True)

    plain = payload_bytes()
    for jobs in ("1", "2", "4"):
        assert payload_bytes("--jobs", jobs) == plain, jobs
    code, envelope = run_json(capsys, *argv, "--jobs", "0")
    assert code == 2
    assert envelope["status"] == "error"
    assert envelope["command"] == "search"
    assert "jobs" in envelope["payload"]["message"]


def test_search_with_an_unprintable_count_answers(capsys):
    # d/2 = 50 001 is odd, so order 400 000 is not walked, and its count of
    # about 48 000 digits is more than Python prints: the order is skipped,
    # and the envelope is written.
    code, envelope = run_json(
        capsys, "search", "--degree", "100002", "--n-min", "400000", "--n-max", "400000"
    )
    assert code == 0 and envelope["status"] == "ok"
    assert envelope["payload"]["entries"] == [
        {
            "exists": False,
            "n": 400000,
            "sets_enumerated": 0,
            "sets_passing": 0,
            "skipped": True,
            "witness": None,
        }
    ]


def test_search_unwritable_out_is_domain_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "x.json"
    code, envelope = run_json(
        capsys, "search", "--degree", "8", "--n-min", "14", "--n-max", "14", "--out", str(out_path)
    )
    assert code == 1
    assert envelope["status"] == "error"
    assert envelope["command"] == "search"
    assert str(out_path) in envelope["payload"]["message"]
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, exit_code, fragment",
    [
        (["search", "--degree", "8", "--n-min", "14", "--n-max", "14", "--out"], 1, "--out"),
        (["verify", "--n", "16", "--set", "9"], 2, "n/2"),
    ],
    ids=["unwritable-out", "bad-set"],
)
def test_errors_without_json_go_to_stderr(capsys, tmp_path, argv, exit_code, fragment):
    # `nutcirc verify --n 16 --set 9 > out.txt` must leave out.txt empty.
    if argv[-1] == "--out":
        argv = argv + [str(tmp_path / "missing" / "x.json")]
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    assert fragment in captured.err


def test_search_order_below_two_is_usage_error(capsys):
    code, envelope = run_json(capsys, "search", "--degree", "0", "--n-min", "-4", "--n-max", "4")
    assert code == 2
    assert envelope["status"] == "error"
    assert "n_min=-4" in envelope["payload"]["message"]


def test_human_output_renders(capsys):
    code, out = run_cli(capsys, "verify", "--n", "16", "--set", "1,2,4,5,6,7")
    assert code == 0
    assert "NUT" in out
    # The kernel check runs first, but the lines keep the order spectral, kernel.
    labels = [line.split(":")[0].strip() for line in out.splitlines()[1:]]
    assert labels == ["spectral", "kernel", "methods agree"]
    code, out = run_cli(capsys, "family", "--variant", "dprime", "--t", "3", "--n", "16", "--check")
    labels = [line.split(":")[0].strip() for line in out.splitlines()[1:]]
    assert labels == ["spectral", "kernel", "family", "checks agree"]


def test_envelope_encoder_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chars = st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\b\f\n\r\t'),
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
        st.characters(min_codepoint=0x10000),
        st.characters(),
    )
    strings = st.text(chars)
    ints = st.one_of(st.integers(), st.integers(min_value=2**63), st.integers(max_value=-(2**64)))
    values = st.recursive(
        st.one_of(st.none(), st.booleans(), ints, strings),
        lambda inner: st.one_of(
            st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(strings, inner)
        ),
        max_leaves=30,
    )

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values)
    def check(value):
        assert cli._to_json(value) == json.dumps(value, sort_keys=True)

    check()


def _outcome(encode, value):
    """What encode returns for value, or the type of the exception it raises."""
    try:
        return encode(value)
    except Exception as exc:
        return type(exc)


_SELF_CONTAINING = []
_SELF_CONTAINING.append(_SELF_CONTAINING)


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), {1, 2}, b"x", {"payload": [0.0]}, {1: "x"}, _SELF_CONTAINING],
    ids=["float", "nan", "set", "bytes", "nested-float", "int-key", "self-containing"],
)
def test_envelope_encoder_matches_json_dumps_on_other_types(value):
    # No envelope holds these; the encoder still writes what json.dumps
    # writes, or raises the exception type json.dumps raises.
    assert _outcome(cli._to_json, value) == _outcome(partial(json.dumps, sort_keys=True), value)


@pytest.mark.parametrize(
    "argv",
    [
        ["cyclodiv", "--poly", "5:1,é:2"],
        ["cyclodiv", "--poly", "5:1,\udc80:2"],
        ["cyclodiv", "--poly", "2:1,\U0001f600"],
        ["verify", "--n", "16", "--set", "1,\x7f"],
        ["family", "--variant", "ü", "--t", "3", "--n", "16"],
        ["tables", "--kind", "q\"\\", "--modulus", "3"],
    ],
    ids=["latin", "lone-surrogate", "astral", "del", "argparse-choice", "quote-backslash"],
)
def test_non_ascii_argv_leaves_through_the_envelope(capsys, argv):
    # The message quotes the offending argument; the autouse check above
    # compares its encoding with json.dumps.
    code, envelope = run_json(capsys, *argv)
    assert code == 2
    assert envelope["status"] == "error" and envelope["command"] == argv[0]


def _child_env() -> dict[str, str]:
    """This environment, with the package this test imports first on the path, installed or not."""
    package_root = str(Path(nutcirc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "nutcirc.cli", "--json", "cyclodiv", "--poly", "2:2,1:1,0:2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["payload"]["divisors"] == []


def test_closed_stdout_exits_1_quietly():
    # `nutcirc --json search ... | head -c 20`: the reader is gone before the
    # envelope is written, which must end neither in a traceback nor in
    # "Exception ignored" at exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nutcirc.cli", "--json", "search"]
            + ["--degree", "8", "--n-min", "10", "--n-max", "28"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 1


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_full_stdout_exits_1_quietly():
    # `nutcirc --json verify ... > /dev/full`: every write fails with ENOSPC,
    # which must end neither in a traceback nor in "Exception ignored".
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "nutcirc.cli", "--json", "verify"]
            + ["--n", "16", "--set", "1,2,4,5,6,7"],
            stdout=full,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
    assert result.stderr == b""
    assert result.returncode == 1


class _FullStream(io.StringIO):
    """A stream on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "name, argv",
    [
        ("stdout", ["--json", "verify", "--n", "16", "--set", "1,2,4,5,6,7"]),
        ("stdout", ["verify", "--n", "16", "--set", "1,2,4,5,6,7"]),
        ("stderr", ["verify", "--n", "16", "--set", "9"]),
    ],
    ids=["json", "human", "error"],
)
def test_a_failed_write_exits_1_quietly(capsys, monkeypatch, name, argv):
    monkeypatch.setattr(sys, name, _FullStream())
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "")


# One request per subcommand, a human rendering, each error exit and both
# --out formats. "{tmp}" is the test's directory, the same for both runs, so
# that an error message quoting the --out path is the same.
SEARCH_14_20 = ["search", "--degree", "8", "--n-min", "14", "--n-max", "20"]
PROCESS_CASES = [
    pytest.param(["--json", "verify", "--n", "16", "--set", "1,2,4,5,6,7"], id="verify"),
    pytest.param(
        ["--json", "family", "--variant", "dprime", "--t", "3", "--n", "16", "--check"],
        id="family",
    ),
    pytest.param(["--json", "tables", "--kind", "q", "--modulus", "3"], id="tables"),
    pytest.param(["--json", *SEARCH_14_20], id="search"),
    pytest.param(
        ["--json", "cyclodiv", "--poly", "5:2,4:1,0:-2", "--engine", "fast"],
        id="cyclodiv",
    ),
    pytest.param(["verify", "--n", "16", "--set", "1,2,4,5,6,7"], id="human"),
    pytest.param(["--json", "verify", "--n", "16", "--set", "9"], id="parameter-error"),
    pytest.param(
        ["--json", "verify", "--n", "4096", "--set", "1,2", "--method", "kernel"],
        id="capacity-error",
    ),
    pytest.param(["--json", *SEARCH_14_20, "--out", "{tmp}/missing/c.json"], id="unwritable-out"),
    pytest.param(["--json", *SEARCH_14_20, "--out", "{tmp}/c.json"], id="search-json-out"),
    pytest.param([*SEARCH_14_20, "--out", "{tmp}/c.csv", "--format", "csv"], id="search-csv-out"),
]


def _take_out_file(argv: list[str]) -> bytes | None:
    """The bytes of the request's --out file, which is then removed, or None if there is none."""
    if "--out" not in argv:
        return None
    path = Path(argv[argv.index("--out") + 1])
    if not path.is_file():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def _without_elapsed(out: bytes) -> bytes:
    return re.sub(rb'"elapsed_ms": \d+', b'"elapsed_ms": 0', out)


@pytest.mark.parametrize("argv", PROCESS_CASES)
def test_process_exit_matches_in_process_main(capsysbinary, tmp_path, argv):
    """``python -m nutcirc.cli``, which ends by os._exit, prints and writes
    what main does in process, and exits with its code.

    The child's stdout is block-buffered (no PYTHONUNBUFFERED), so output not
    flushed before the process ends, or a --out file not closed, would be lost.
    A --out file is read as soon as main returns, so it must be whole then.
    """
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "nutcirc.cli", *argv]
    child = subprocess.run(command, capture_output=True, env=env)
    child_file = _take_out_file(argv)
    code = main(argv)
    captured = capsysbinary.readouterr()
    assert child.returncode == code
    assert _without_elapsed(child.stdout) == _without_elapsed(captured.out)
    assert child.stderr == captured.err
    assert child_file == _take_out_file(argv)
    assert bool(child_file) == ("--out" in argv and code == 0)


class _Exited(Exception):
    """Raised by the stand-in for os._exit, with the code run passed it."""


def _exit(code):
    raise _Exited(code)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["--json", "cyclodiv", "--poly", "2:1,0:1"], 0),
        (["--json", "verify", "--n", "4096", "--set", "1,2", "--method", "kernel"], 1),
        (["--json", "verify", "--n", "16", "--set", "9"], 2),
    ],
    ids=["ok", "capacity-error", "parameter-error"],
)
def test_run_exits_with_mains_code(capsys, monkeypatch, argv, exit_code):
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(_Exited) as exited:
        cli.run(argv)
    assert exited.value.args == (exit_code,)
    assert capsys.readouterr().out.startswith('{"command": ')


def test_run_leaves_help_to_argparse(capsys, monkeypatch):
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(SystemExit) as exited:
        cli.run(["--help"])
    assert exited.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_run_exits_1_quietly_when_a_flush_fails(monkeypatch):
    class Unflushable(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    stderr = io.StringIO()
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    monkeypatch.setattr(sys, "stdout", Unflushable())
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(_Exited) as exited:
        cli.run([])
    assert exited.value.args == (1,)
    assert stderr.getvalue() == ""


def test_run_skips_a_stream_closed_at_start(monkeypatch):
    # `nutcirc ... >&-` starts with sys.stdout None; main's print then writes
    # nothing, and run keeps main's code.
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(os, "_exit", _exit)
    with pytest.raises(_Exited) as exited:
        cli.run([])
    assert exited.value.args == (0,)


def test_console_script_calls_run():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S)
    assert re.findall(r"^(\S+) = \"(.*)\"$", scripts[1], re.M) == [("nutcirc", "nutcirc.cli:run")]


LAYERS = frozenset(
    {"polyalg", "record", "cyclotomy", "circulant", "families", "appendix", "search", "render"}
)


def _modules_added(code: str, *argv: str, flags: tuple[str, ...] = ()) -> set[str]:
    """Modules that running code adds to a fresh interpreter's sys.modules.

    The child keeps this process's environment, so with
    PYTHONDONTWRITEBYTECODE set it writes no .pyc files under src/. Counting
    only what code adds leaves out what the interpreter's own start-up loads;
    the snapshot is taken before the script imports anything and the result
    is printed as a repr, so the count itself loads nothing. Under site,
    .pth files may import modules (typing, pathlib, re) that then go
    uncounted: flags=("-S",) starts the interpreter without site.
    """
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def _run_main(exit_code) -> str:
    """Code that runs main on sys.argv[1:] (build_parser() when empty) and
    asserts its exit code."""
    return (
        "from nutcirc.cli import build_parser, main\n"
        "if sys.argv[1:]:\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"    assert code == {exit_code}, code\n"
        "else:\n"
        "    build_parser()"
    )


# Loaded only by build_parser(), --help, an abbreviation or a usage error:
# argparse, the gettext it imports and the CLI's argparse side.
ARGPARSE = frozenset({"argparse", "gettext", "argparser"})
# Loaded by no plain --json request: the envelope is encoded by _json, the C
# encoder behind json.dumps, without the json package; annotations need no
# typing, and appendix (with its pathlib) serves the library only. search
# --out FILE in JSON format still loads json. Every JSON envelope, a usage
# error's included, loads _json; build_parser(), help and human output do not.
NOT_AT_START = frozenset({"json", "typing", "pathlib", "appendix"})


# (argv, exit code, modules it must load, modules it must not), by case id;
# nutcirc modules are named without the package prefix.
LOAD_CASES = [
    pytest.param([], None, ARGPARSE, LAYERS | {"_json"}, id="import"),
    pytest.param(
        ["--json", "cyclodiv", "--poly", "2:1,0:1"],
        0,
        {"cyclotomy", "_json"},
        {"circulant", "families", "search", "render"} | ARGPARSE | NOT_AT_START,
        id="cyclodiv",
    ),
    pytest.param(
        ["--json", "search", "--degree", "8", "--n-min", "14", "--n-max", "14"],
        0,
        {"search", "polyalg", "_json"},
        {"circulant", "families", "cyclotomy", "render"} | ARGPARSE | NOT_AT_START,
        id="search",
    ),
    pytest.param(
        ["--json", "verify", "--n", "16", "--set", "1,2,4,5,6,7"],
        0,
        {"circulant", "_json"},
        {"families", "search", "cyclotomy", "render"} | ARGPARSE | NOT_AT_START,
        id="verify",
    ),
    pytest.param(
        ["--json", "tables", "--kind", "q", "--modulus", "3"],
        0,
        {"families", "_json"},
        {"circulant", "search", "cyclotomy", "render"} | ARGPARSE | NOT_AT_START,
        id="tables",
    ),
    pytest.param(
        ["--json", "family", "--variant", "dprime", "--t", "3", "--n", "16", "--check"],
        0,
        {"families", "circulant", "_json"},
        {"search", "cyclotomy", "render"} | ARGPARSE | NOT_AT_START,
        id="family",
    ),
    pytest.param(
        ["--json", "search", "--degree", "8", "--n-min", "14", "--n-max", "14"]
        + ["--out", "{tmp}/catalog.json"],
        0,
        {"search", "json"},
        {"circulant", "families", "appendix", "cyclotomy", "render"} | ARGPARSE,
        id="search-json-out",
    ),
    pytest.param(
        ["verify", "--n", "16", "--set", "1,2,4,5,6,7"],
        0,
        {"circulant", "render"},
        {"families", "appendix", "search", "cyclotomy", "_json"} | ARGPARSE,
        id="verify-human",
    ),
    pytest.param(
        ["search", "--degree", "8", "--n-min", "14", "--n-max", "14"]
        + ["--out", "{tmp}/catalog.csv", "--format", "csv"],
        0,
        {"search", "render"},
        {"circulant", "families", "appendix", "cyclotomy", "_json"} | ARGPARSE,
        id="search-csv",
    ),
    pytest.param(["--help"], 0, ARGPARSE, LAYERS | {"_json"}, id="help"),
    pytest.param(["--json", "family", "-h"], 0, ARGPARSE, LAYERS, id="subcommand-help"),
    pytest.param(
        ["--json", "verify", "--n", "1x", "--set", "3,4"],
        2,
        ARGPARSE | {"_json"},
        LAYERS,
        id="usage-error",
    ),
    pytest.param(
        ["--js", "cyclodiv", "--poly", "2:1,0:1"],
        0,
        ARGPARSE | {"cyclotomy", "_json"},
        {"circulant", "families", "appendix", "search", "render"},
        id="abbreviation",
    ),
    pytest.param(
        ["tables", "--kind", "z", "--modulus", "3"], 2, ARGPARSE, LAYERS, id="usage-error-text"
    ),
]


def _check_loads(argv, exit_code, used, unused, tmp_path, flags=()):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    added = _modules_added(_run_main(exit_code), *argv, flags=flags)
    assert not {"dataclasses", "inspect"} & added
    names = {name.removeprefix("nutcirc.") for name in added}
    assert used <= names
    assert not unused & names


@pytest.mark.parametrize("argv, exit_code, used, unused", LOAD_CASES)
def test_cli_loads_only_the_subcommand_layers_and_no_dataclasses(
    argv, exit_code, used, unused, tmp_path
):
    """A CLI request loads the layers its subcommand calls, no others, and no dataclasses.

    Every request is one process, and where no .pyc can be written each
    module it loads is compiled again. A plain request loads neither argparse
    nor gettext: only `build_parser()`, --help, an abbreviation and a usage
    error do, and `build_parser()`, help and usage errors load no layer. A
    subcommand adds only its own layers. A search builds on polyalg alone,
    and the renderer is loaded only for human output or a CSV file, never
    for a JSON envelope. A plain --json request loads none of NOT_AT_START,
    and every JSON envelope loads _json.
    The records are built without dataclasses, which generate their methods
    with exec at import time and pull in inspect.
    """
    _check_loads(argv, exit_code, used, unused, tmp_path)


@pytest.mark.parametrize("argv, exit_code, used, unused", LOAD_CASES)
def test_cli_loads_the_same_without_site(argv, exit_code, used, unused, tmp_path):
    """The same requests under ``python -S``, where no .pth file has already
    imported typing, pathlib or re, so that loading one of them shows."""
    _check_loads(argv, exit_code, used, unused, tmp_path, flags=("-S",))


def _nodes(module: str) -> int:
    """Syntax-tree nodes of a nutcirc module ("nutcirc" is the package's __init__)."""
    path = Path(nutcirc.__file__).with_name(f"{module.replace('nutcirc', '__init__')}.py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


def _thousands(text: str) -> int:
    return int(text.replace(" ", ""))


def test_readme_start_up_table_counts_what_each_request_compiles():
    # The README's start-up paragraph lists, per plain --json request, the
    # nutcirc modules it compiles and their syntax-tree nodes. Each request
    # runs in a fresh interpreter without site, and the modules it loads are
    # counted with ast.walk: the modules all five load, the table's rows
    # and every other "`module` (N nodes)" must match.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\nStart-up:", 1)[1].split("\n## ", 1)[0]
    loaded = {}
    for case in LOAD_CASES:
        if case.id in {"cyclodiv", "search", "verify", "tables", "family"}:
            argv, exit_code = case.values[:2]
            added = _modules_added(_run_main(exit_code), *argv, flags=("-S",))
            loaded[case.id] = {
                name.removeprefix("nutcirc.") for name in added if name.partition(".")[0] == "nutcirc"
            }
    base = set.intersection(*loaded.values())
    head = re.search(
        r"Beside (.+?) \(([\d ]+) nodes,\s+([\d ]+) of them `cli`'s and ([\d ]+) `polyalg`'s\)",
        section,
    )
    assert set(re.findall(r"`(\w+)`", head[1])) == base
    assert _thousands(head[2]) == sum(map(_nodes, base))
    assert (_thousands(head[3]), _thousands(head[4])) == (_nodes("cli"), _nodes("polyalg"))
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| ([\d ]+) \|$", section, re.M)
    assert {command for command, _, _ in rows} == set(loaded)
    for command, extra, total in rows:
        assert set(re.findall(r"`(\w+)`", extra)) == loaded[command] - base, command
        assert _thousands(total) == sum(map(_nodes, loaded[command])), command
    others = re.findall(r"`(?:nutcirc\.)?(\w+)` \(([\d ]+) nodes\)", section)
    assert {name for name, _ in others} == {"argparser", "render", "appendix"}
    for name, count in others:
        assert _thousands(count) == _nodes(name), name


def test_every_private_helper_has_a_caller():
    # A module-level _name function or class of the package must be named
    # somewhere in the package outside its own definition; otherwise it is
    # dead and gets deleted.
    trees = [ast.parse(path.read_text()) for path in Path(nutcirc.__file__).parent.glob("*.py")]
    refs = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.alias):
                refs.append((node.name, node))
    helpers = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]
    assert helpers
    dead = []
    for helper in helpers:
        own = {id(node) for node in ast.walk(helper)}
        if not any(name == helper.name and id(node) not in own for name, node in refs):
            dead.append(helper.name)
    assert dead == []


def test_package_exports_load_on_first_use():
    for name in nutcirc.__all__:
        value = getattr(nutcirc, name)
        assert value.__module__.startswith("nutcirc.")
        assert getattr(sys.modules[value.__module__], name) is value
    namespace: dict = {}
    exec("from nutcirc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nutcirc.__all__)
    assert all(namespace[name] is getattr(nutcirc, name) for name in nutcirc.__all__)
    assert set(nutcirc.__all__) <= set(dir(nutcirc))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(nutcirc, "no_such_name")
    added = _modules_added("import nutcirc")
    assert "nutcirc" in added
    assert not {f"nutcirc.{name}" for name in LAYERS | {"argparser", "cli", "errors"}} & added
