"""CLI surface tests: envelopes, exit codes, payload determinism, round-trips."""
from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nutcirc
from nutcirc.cli import build_parser, main


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
    monkeypatch.setenv("NUTCIRC_ORACLE_LIMIT", "8")
    code, envelope = run_json(
        capsys, "verify", "--n", "10", "--set", "3,4", "--method", "kernel"
    )
    assert code == 1
    assert envelope["status"] == "error"


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


def test_usage_error_without_json_keeps_argparse_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1x", "--set", "3,4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: nutcirc verify")
    assert "invalid int value: '1x'" in captured.err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("nutcirc ")]
    assert len(commands) == 5
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command in line


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


@pytest.mark.parametrize("poly", ["5:1,5:-1,3:2", "3:2,5:1", "5:1,3:2,3:1"])
def test_cyclodiv_non_descending_exponents_exit_2(capsys, poly):
    code, envelope = run_json(capsys, "cyclodiv", "--poly", poly)
    assert code == 2
    assert envelope["status"] == "error"
    assert "strictly descending" in envelope["payload"]["message"]


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


def test_search_order_below_two_is_usage_error(capsys):
    code, envelope = run_json(capsys, "search", "--degree", "0", "--n-min", "-4", "--n-max", "4")
    assert code == 2
    assert envelope["status"] == "error"
    assert "n_min=-4" in envelope["payload"]["message"]


def test_human_output_renders(capsys):
    code, out = run_cli(capsys, "verify", "--n", "16", "--set", "1,2,4,5,6,7")
    assert code == 0
    assert "NUT" in out


def test_console_script_is_installed():
    # The child imports the same package as this test, installed or not.
    package_root = str(Path(nutcirc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "nutcirc.cli", "--json", "cyclodiv", "--poly", "2:2,1:1,0:2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["payload"]["divisors"] == []
