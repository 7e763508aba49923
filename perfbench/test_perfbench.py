"""Self-tests of the benchmark's checker, span arithmetic and tracer.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
import workloads
from tracer import TRACE_MARK, SpanTree, Tracer

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "src" / "nutcirc" / "data" / "appendix"


def _ok(payload: dict) -> dict:
    return {"command": "x", "status": "ok", "payload": payload, "elapsed_ms": 3}


def _verdict(is_nut: bool) -> dict:
    return {"is_nut": is_nut, "reason": "ok" if is_nut else "nullity-not-one", "witness": None}


def test_flipped_is_nut_is_a_failure():
    req = {"id": "f", "argv": [], "check": {"kind": "family"}}
    good = {"agree": True, "checks": {r: _verdict(True) for r in ("spectral", "kernel", "family")}}
    assert checks.check_request(req, 0, _ok(good), GOLDEN) == []
    flipped = {"agree": True, "checks": dict(good["checks"], kernel=_verdict(False))}
    assert checks.check_request(req, 0, _ok(flipped), GOLDEN)
    assert checks.check_request(req, 0, _ok(dict(good, agree=False)), GOLDEN)


def test_missing_planted_divisor_is_a_failure():
    req = {"id": "rand60-phi5-fast", "argv": [], "check": {"kind": "cyclodiv", "input": "rand60-phi5", "planted": 5}}
    assert checks.check_request(req, 0, _ok({"divisors": [1, 5]}), GOLDEN) == []
    assert checks.check_request(req, 0, _ok({"divisors": [1]}), GOLDEN)


def test_engine_disagreement_and_bad_exit_are_failures():
    reqs = [
        {"id": "q3-oracle", "argv": [], "check": {"kind": "cyclodiv", "input": "q3"}},
        {"id": "q3-fast", "argv": [], "check": {"kind": "cyclodiv", "input": "q3"}},
    ]
    same = checks.check_pass(reqs, [_ok({"divisors": [1, 2]}), _ok({"divisors": [1, 2]})])
    assert same == {}
    differ = checks.check_pass(reqs, [_ok({"divisors": [1, 2]}), _ok({"divisors": [1]})])
    assert list(differ) == ["q3-fast"]
    assert checks.check_request(reqs[0], 1, None, GOLDEN) == ["exit code 1"]


def test_degree8_catalog_orders_are_checked():
    req = {"id": "d8", "argv": [], "check": {"kind": "catalog", "jobs": 1}}
    entries = [
        {"n": n, "exists": n in workloads.DEGREE8_NUT_ORDERS, "skipped": False, "witness": None}
        for n in range(10, 31, 2)
    ]
    assert checks.check_request(req, 0, _ok({"degree": 8, "entries": entries}), GOLDEN) == []
    entries[3]["exists"] = not entries[3]["exists"]
    assert checks.check_request(req, 0, _ok({"degree": 8, "entries": entries}), GOLDEN)


def test_elapsed_ms_is_the_only_byte_difference_ignored():
    a = b'{"command": "verify", "elapsed_ms": 12, "payload": {"n": 8}, "status": "ok"}'
    b = b'{"command": "verify", "elapsed_ms": 907, "payload": {"n": 8}, "status": "ok"}'
    c = b'{"command": "verify", "elapsed_ms": 12, "payload": {"n": 9}, "status": "ok"}'
    assert checks.normalized(a) == checks.normalized(b) != checks.normalized(c)


def test_self_time_of_nested_tree_with_recursive_cyclotomic():
    tree = SpanTree()
    tree.open("cli.main", 0.0)
    tree.open("polyalg.cyclotomic", 1.0)  # outer build
    tree.open("polyalg.cyclotomic", 2.0)  # nested build of a divisor
    tree.open("polyalg.dense_div_rem", 3.0)
    assert tree.close(5.0) == 2.0
    assert tree.close(6.0) == 4.0
    tree.open("polyalg.dense_div_rem", 7.0)
    tree.close(8.0)
    assert tree.close(10.0) == 9.0
    assert tree.close(12.0) == 12.0
    assert dict(tree.self_s) == {"cli.main": 3.0, "polyalg.cyclotomic": 6.0, "polyalg.dense_div_rem": 3.0}
    assert dict(tree.calls) == {"cli.main": 1, "polyalg.cyclotomic": 2, "polyalg.dense_div_rem": 2}
    assert sum(tree.self_s.values()) == 12.0


def test_cyclotomic_builds_hits_and_outermost_build_time():
    tracer = Tracer()
    cache: dict[int, int] = {}

    def cyclotomic(b):
        if b not in cache:
            for d in range(1, b):
                if b % d == 0:
                    wrapped(d)
            cache[b] = b
        return cache[b]

    wrapped = tracer.wrap("polyalg.cyclotomic", cyclotomic, *tracer._hooks("polyalg.cyclotomic"))
    wrapped(6)  # builds 6, 1, 2, 3; the nested calls for 2 and 3 each hit 1
    wrapped(6)
    assert tracer.counts["polyalg.cyclotomic.builds"] == 4
    assert tracer.counts["polyalg.cyclotomic.hits"] == 3
    assert tracer.tree.calls["polyalg.cyclotomic"] == 7
    assert 0 < tracer.counts["polyalg.cyclotomic.build_s"] <= tracer.tree.self_s["polyalg.cyclotomic"]


def test_tracer_reaches_functions_through_importing_modules():
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    out = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), "--json", "search", "--degree", "8", "--n-min", "14", "--n-max", "14"],
        capture_output=True, env=env, timeout=60, check=True,
    ).stdout.decode()
    envelope, _, trace = out.partition(TRACE_MARK)
    assert json.loads(envelope)["payload"]["entries"][0]["exists"] is True
    record = json.loads(trace)
    assert record["missing"] == []
    # search imported is_nut_spectral by name; circulant imported dense_div_rem.
    # Every spectral call either rejects on parity or builds the eigenvalue polynomial.
    calls = record["calls"]
    rejects = record["counts"]["circulant.is_nut_spectral.parity_rejects"]
    assert calls["circulant.is_nut_spectral"] == calls["circulant.eigen_poly"] + rejects
    assert calls["circulant.eigen_poly"] > 0 and rejects > 0
    assert calls["polyalg.dense_div_rem"] > 0
    assert calls["search.catalog"] == calls["cli.main"] == 1


def test_workloads_are_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 5, 2) == workloads.generate(workload, 5, 2)
        assert workloads.generate(workload, 5, 2) != workloads.generate(workload, 6, 2)
