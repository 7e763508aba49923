#!/usr/bin/env python3
"""nutcirc benchmark: seeded CLI workloads timed as processes, closed loop.

    python3 perfbench/run.py --workload {catalog,query,cyclodiv} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --replay perfbench/results/<file>.json

One client issues one ``python -m nutcirc.cli --json ...`` request at a time,
with the repository's ``src`` on ``PYTHONPATH``, and checks every result.
Passes over the workload's request list repeat until ``--seconds`` is used
up (at least two, so payload bytes can be compared across passes). With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are reported.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
The run's inputs, environment and results are written to
``perfbench/results/``; ``--replay`` re-runs one pass of such a file and
confirms that the inputs and payloads are the same.
"""
from __future__ import annotations

import argparse
import base64
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracer import TRACE_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = SRC / "nutcirc" / "data" / "appendix"
RESULTS = HERE / "results"

SETUP_PROBES = 11
# Duration of calibrate() at the reference speed (its median between
# requests on the 2-vCPU sandbox the bounds were set on), and how many
# calibrations on each side of a request set its scale.
CAL_REF_S = 0.0032
CAL_WINDOW = 4
REQUEST_TIMEOUT_S = 120.0
CLI = ["-m", "nutcirc.cli", "--json"]
TRACED_CLI = [str(HERE / "tracer.py"), "--json"]
SETUP_PROBE = ["-c", "import nutcirc.cli as cli; cli.build_parser()"]


@dataclass
class Spawned:
    """Outcome of one child process: wall latency, peak RSS, exit code, output.

    ``scaled_s`` is the latency at the reference machine speed; see ``Spawner.series``.
    """

    latency_s: float
    rss_mb: float
    rc: int
    stdout: bytes
    stderr: bytes
    scaled_s: float = 0.0


def calibrate() -> float:
    """Seconds for a fixed mix of pure-Python work in this process.

    Two kernels, integer arithmetic and small-tuple and dict churn, as in the
    requests; each is timed as the faster of two tries, so that one
    preemption does not count as a slow machine, and the two are combined as
    a geometric mean.
    """
    return math.sqrt(_fastest(_integer_kernel) * _fastest(_object_kernel))


def _fastest(kernel) -> float:
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def _integer_kernel() -> None:
    acc = 0
    for i in range(70_000):
        acc += i * i % 7


def _object_kernel() -> None:
    seen, kept = {}, []
    for combo in itertools.combinations(range(24), 3):
        elements = tuple(x + 1 for x in combo)
        seen[elements] = len(elements)
        if sum(elements) % 2:
            kept.append(elements)
    kept.sort()


class Spawner:
    """The ``spawner.py`` process, which runs each request for this one.

    Requests are not spawned from the runner itself because a child's
    ``ru_maxrss`` cannot read below the peak RSS of the process that spawned
    it; see spawner.py.
    """

    def __init__(self):
        env = {k: v for k, v in os.environ.items() if not k.startswith("NUTCIRC_")}
        env["PYTHONPATH"] = str(SRC)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def spawn(self, args: list[str]) -> Spawned:
        """Run the interpreter with args; timed from spawn to exit, rusage from os.wait4."""
        self._proc.stdin.write(json.dumps({"args": args, "timeout_s": REQUEST_TIMEOUT_S}) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Spawned(
            reply["latency_s"],
            reply["rss_mb"],
            reply["rc"],
            base64.b64decode(reply["stdout"]),
            base64.b64decode(reply["stderr"]),
        )

    def series(self, args_list: list[list[str]]) -> tuple[list[Spawned], list[float]]:
        """Spawn each command in turn, with a calibration before, between and after.

        The shared sandbox's CPU speed drifts by up to half over seconds to
        minutes, for every process alike. Each latency is therefore also
        scaled to the reference speed by the mean of the CAL_WINDOW
        calibrations on each side of it: scaled_s = latency_s * CAL_REF_S /
        calibration.
        """
        calibrations = [calibrate()]
        spawned = []
        for args in args_list:
            spawned.append(self.spawn(args))
            calibrations.append(calibrate())
        for i, sp in enumerate(spawned):
            nearby = calibrations[max(0, i + 1 - CAL_WINDOW) : i + 1 + CAL_WINDOW]
            sp.scaled_s = sp.latency_s * CAL_REF_S / statistics.fmean(nearby)
        return spawned, calibrations


def worker_budget() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


# --- one pass ------------------------------------------------------------------


def run_pass(reqs: list[dict], traced: bool, spawner: Spawner) -> dict:
    prefix = TRACED_CLI if traced else CLI
    start = time.perf_counter()
    spawned, calibrations = spawner.series([prefix + req["argv"] for req in reqs])
    wall = time.perf_counter() - start
    records = []
    for req, sp in zip(reqs, spawned):
        out, trace = sp.stdout, None
        if traced:
            out, _, tail = out.partition(TRACE_MARK.encode())
            trace = json.loads(tail) if tail else None
        envelope = checks.parse_envelope(out)
        errors = checks.check_request(req, sp.rc, envelope, GOLDEN)
        if traced and trace is None:
            errors.append("tracer printed no trace")
        if errors and sp.stderr:
            errors.append("stderr: " + sp.stderr.decode(errors="replace")[-400:])
        records.append(
            {
                "id": req["id"],
                "latency_s": sp.latency_s,
                "scaled_s": sp.scaled_s,
                "rss_mb": sp.rss_mb,
                "rc": sp.rc,
                "envelope": envelope,
                "normalized": checks.normalized(out),
                "trace": trace,
                "errors": errors,
            }
        )
    for rid, errors in checks.check_pass(reqs, [r["envelope"] for r in records]).items():
        next(r for r in records if r["id"] == rid)["errors"].extend(errors)
    return {"traced": traced, "wall_s": wall, "calibrations": calibrations, "records": records}


# --- metrics ---------------------------------------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    latencies = [r["scaled_s"] * 1000 for p in passes for r in p["records"]]
    per_request: dict[str, list[float]] = {}
    for p in passes:
        for r in p["records"]:
            per_request.setdefault(r["id"], []).append(r["scaled_s"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        # A pass's time with each request at its median over the passes, so
        # one slow phase of the machine in one pass does not set it.
        "wall_s": (sum(statistics.median(v) for v in per_request.values()), "s"),
        "req_p50_ms": (statistics.median(latencies), "ms"),
        "req_p90_ms": (nearest_rank(latencies, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(max(r["rss_mb"] for r in p["records"]) for p in passes), "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ok(record: dict, command: str | None = None) -> bool:
    envelope = record["envelope"]
    return bool(envelope) and envelope.get("status") == "ok" and command in (None, envelope.get("command"))


def layer_metrics(reqs: list[dict], passes: list[dict]) -> dict:
    """Per-layer metrics: totals over each traced pass, median over traced passes."""
    attributed = {req["id"] for req in reqs if req["check"].get("jobs", 1) == 1}
    per_pass = [_pass_layers(p, attributed) for p in passes if p["traced"]]
    out = {name: (statistics.median(v[name][0] for v in per_pass), per_pass[0][name][1]) for name in per_pass[0]}
    untraced = [p for p in passes if not p["traced"]]
    out.update(_search_rates(reqs, untraced))
    out["trace_overhead"] = (
        _ratio(
            statistics.median(p["wall_s"] for p in passes if p["traced"]),
            statistics.median(p["wall_s"] for p in untraced),
        ),
        "ratio",
    )
    return out


def _pass_layers(pass_: dict, attributed: set[str]) -> dict:
    calls, self_s, counts = {}, {}, {}
    imports, sets = [], 0
    for r in pass_["records"]:
        if r["trace"] is None:
            continue
        imports.append(r["trace"]["import_s"])
        if r["id"] not in attributed:
            continue
        for total, part in ((calls, "calls"), (self_s, "self_s"), (counts, "counts")):
            for k, v in r["trace"][part].items():
                total[k] = total.get(k, 0) + v
        if _ok(r, "search"):
            sets += sum(e["sets_enumerated"] for e in r["envelope"]["payload"]["entries"])
    c, s, n = calls.get, self_s.get, counts.get
    m = {
        "cli.import_s": (statistics.median(imports) if imports else 0.0, "s"),
        "cli.main.self_s": (s("cli.main", 0.0), "s"),
        "search.catalog.self_s": (s("search.catalog", 0.0), "s"),
        "search.sets_enumerated": (sets, "count"),
        "search.parity_reject_frac": (
            _ratio(n("circulant.is_nut_spectral.parity_rejects", 0), c("circulant.is_nut_spectral", 0)),
            "ratio",
        ),
    }
    for layer in ("circulant.is_nut_spectral", "circulant.kernel_oracle", "polyalg.dense_div_rem", "polyalg.euler_phi"):
        m[f"{layer}.calls"] = (c(layer, 0), "count")
    for layer in (
        "circulant.is_nut_spectral",
        "circulant.eigen_poly",
        "circulant.kernel_oracle",
        "polyalg.dense_div_rem",
        "polyalg.euler_phi",
        "polyalg.prime_factorization",
        "cyclotomy.oracle",
        "cyclotomy.accelerated",
        "families.family_nut_check",
        "families.generate_table",
        "families.build_family",
    ):
        m[f"{layer}.self_s"] = (s(layer, 0.0), "s")
    m["circulant.kernel_oracle.order_cubed"] = (n("circulant.kernel_oracle.order_cubed", 0), "ops")
    m["polyalg.dense_div_rem.coeff_ops"] = (n("polyalg.dense_div_rem.coeff_ops", 0), "ops")
    m["polyalg.cyclotomic.builds"] = (n("polyalg.cyclotomic.builds", 0), "count")
    m["polyalg.cyclotomic.hits"] = (n("polyalg.cyclotomic.hits", 0), "count")
    m["polyalg.cyclotomic.build_s"] = (n("polyalg.cyclotomic.build_s", 0.0), "s")
    for engine in ("cyclotomy.oracle", "cyclotomy.accelerated"):
        divisions = n(f"{engine}.divisions", 0)
        m[f"{engine}.candidates"] = (n(f"{engine}.candidates", 0), "count")
        m[f"{engine}.divisions"] = (divisions, "count")
        m[f"{engine}.useful_frac"] = (_ratio(n(f"{engine}.found", 0), divisions), "ratio")
    eligible = n("cyclotomy.accelerated.eligible", 0)
    m["cyclotomy.accelerated.pruned_frac"] = (
        _ratio(eligible - n("cyclotomy.accelerated.divisions", 0), eligible),
        "ratio",
    )
    return m


def _search_rates(reqs: list[dict], untraced: list[dict]) -> dict:
    # Taken from the untraced passes' own elapsed_ms: tracing inflates every
    # span under the catalog, and pool workers record no spans at all.
    def elapsed_s(rid):
        values = [r["envelope"]["elapsed_ms"] / 1000 for p in untraced for r in p["records"] if r["id"] == rid and _ok(r)]
        return statistics.median(values) if values else 0.0

    serial = {r["id"] for r in reqs if r["check"]["kind"] == "catalog" and r["check"]["jobs"] == 1}
    sets = sum(
        e["sets_enumerated"]
        for r in untraced[0]["records"]
        if r["id"] in serial and _ok(r)
        for e in r["envelope"]["payload"]["entries"]
    )
    seconds = sum(elapsed_s(rid) for rid in serial)
    parallel = next((r for r in reqs if "same_payload_as" in r["check"]), None)
    speedup = (
        _ratio(elapsed_s(parallel["check"]["same_payload_as"]), elapsed_s(parallel["id"]))
        if parallel
        else 0.0
    )
    return {
        "search.sets_per_s": (_ratio(sets, seconds), "1/s"),
        "search.jobs2_speedup": (speedup, "ratio"),
    }


# --- driver ----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = worker_budget()
    reqs = workloads.generate(workload, seed, jobs)
    with Spawner() as spawner:
        spawner.spawn(SETUP_PROBE)  # compiles bytecode once; later runs reuse it
        # Set-up probes run half before and half after the passes, so that
        # their median spans the run rather than one phase of the machine.
        probes = [] if trace else spawner.series([SETUP_PROBE] * (SETUP_PROBES // 2 + 1))[0]
        modes = (False, True) if trace else (False,)
        passes: list[dict] = []
        start = time.perf_counter()
        while True:
            for traced in modes:
                passes.append(run_pass(reqs, traced, spawner))
            elapsed = time.perf_counter() - start
            per_round = elapsed / (len(passes) // len(modes))
            if len(passes) >= 2 and elapsed + per_round > seconds:
                break
        if not trace:
            probes += spawner.series([SETUP_PROBE] * (SETUP_PROBES // 2))[0]
    setup = [p.scaled_s for p in probes]
    setup_errors = [f"set-up probe exit code {p.rc}" for p in probes if p.rc != 0]

    _mark_cross_pass_changes(passes)
    witnesses = [
        w
        for r in passes[0]["records"]
        if _ok(r, "search") and not r["errors"]
        for w in checks.catalog_witnesses(r["envelope"]["payload"])
    ]
    witness_errors = checks.kernel_check_witnesses(witnesses, SRC) if witnesses else []
    records = [r for p in passes for r in p["records"]]
    failed = sum(1 for r in records if r["errors"])
    metrics = layer_metrics(reqs, passes) if trace else end_to_end(passes, setup)
    return {
        "meta": _environment(workload, seed, seconds, trace, jobs),
        "requests": reqs,
        "passes": [
            {
                "traced": p["traced"],
                "wall_s": p["wall_s"],
                "calibration_s": p["calibrations"],
                "requests": [
                    {k: r[k] for k in ("id", "latency_s", "scaled_s", "rss_mb")} for r in p["records"]
                ],
            }
            for p in passes
        ],
        "payload_sha256": {
            r["id"]: hashlib.sha256(r["normalized"]).hexdigest() for r in passes[0]["records"]
        },
        "traces": {r["id"]: r["trace"] for p in passes if p["traced"] for r in p["records"]},
        "setup_s": setup,
        "errors": {r["id"]: r["errors"] for r in records if r["errors"]}
        | ({"run": setup_errors + witness_errors} if setup_errors + witness_errors else {}),
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and not setup_errors and not witness_errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _mark_cross_pass_changes(passes: list[dict]) -> None:
    """Payload bytes (elapsed_ms excluded) must match the first pass, request by request."""
    first = {r["id"]: r["normalized"] for r in passes[0]["records"]}
    for i, p in enumerate(passes[1:], start=2):
        for r in p["records"]:
            if r["normalized"] != first[r["id"]]:
                r["errors"].append(f"payload bytes differ from pass 1 in pass {i}")


def _environment(workload, seed, seconds, trace, jobs) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nutcirc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "worker_budget": jobs,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def report(result: dict) -> None:
    meta = result["meta"]
    print(
        f"nutcirc benchmark: workload={meta['workload']} seed={meta['seed']} trace={int(meta['trace'])} "
        f"python={meta['python']} nproc={meta['nproc']} commit={meta['commit'] or '-'} "
        f"src_sha256={meta['src_sha256'][:12]}"
    )
    n_passes = len(result["passes"])
    print(
        f"requests: {result['attempted']} attempted over {n_passes} passes, {result['failed']} failed, "
        f"fail_frac {result['failed'] / result['attempted']:.4f} ratio"
    )
    for rid, errors in result["errors"].items():
        print(f"  FAIL {rid}: {'; '.join(errors)}")
    n = result["attempted"]
    beyond = n - math.ceil(0.9 * n)
    notes = {
        "setup_s": f"median of {len(result['setup_s'])} spawns",
        "req_p50_ms": f"n={n}",
        "req_p90_ms": f"n={n}, {beyond} samples beyond" + ("" if beyond >= 10 else " (fewer than 10)"),
    }
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    if meta["trace"]:
        self_times = {k: v["value"] for k, v in result["metrics"].items() if k.endswith("self_s")}
        top = sorted(self_times.items(), key=lambda kv: -kv[1])[:4]
        print("  largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
        print("  slowest traced requests: " + _tail_layers(result))


def _tail_layers(result: dict) -> str:
    # The layers that dominate the slowest tenth of the last traced pass.
    traced = [(r["latency_s"], r["id"]) for r in result["passes"][-1]["requests"]]
    parts = []
    for latency, rid in sorted(traced, reverse=True)[: max(1, len(traced) // 10)]:
        trace = result["traces"].get(rid) or {"self_s": {}, "counts": {}}
        layers = dict(trace["self_s"], **{"polyalg.cyclotomic.build_s": trace["counts"].get("polyalg.cyclotomic.build_s", 0)})
        name, value = max(layers.items(), key=lambda kv: kv[1]) if layers else ("-", 0)
        parts.append(f"{rid} {latency:.2f}s ({name} {value:.2f}s)")
    return "; ".join(parts)


def replay(path: Path) -> int:
    recorded = json.loads(path.read_text())
    meta = recorded["meta"]
    regenerated = workloads.generate(meta["workload"], meta["seed"], meta["worker_budget"])
    same_inputs = regenerated == recorded["requests"]
    print(f"inputs regenerated from seed {meta['seed']}: {'identical' if same_inputs else 'DIFFERENT'}")
    with Spawner() as spawner:
        p = run_pass(recorded["requests"], False, spawner)
    changed = [
        r["id"]
        for r in p["records"]
        if hashlib.sha256(r["normalized"]).hexdigest() != recorded["payload_sha256"].get(r["id"])
    ]
    failed = [r["id"] for r in p["records"] if r["errors"]]
    print(f"replayed {len(p['records'])} requests in {p['wall_s']:.3f} s; "
          f"payloads changed: {changed or 'none'}; failed checks: {failed or 'none'}")
    return 0 if same_inputs and not changed and not failed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=Path, help="re-run one pass of a recorded results file")
    args = parser.parse_args(argv)
    if not (SRC / "nutcirc" / "cli.py").is_file():
        print(f"error: no nutcirc sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.replay:
        return replay(args.replay)
    if not args.workload:
        parser.error("--workload is required unless --replay is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result)
    print(f"results: {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
