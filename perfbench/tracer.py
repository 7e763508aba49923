"""Run one ``nutcirc`` CLI request with spans around each layer's public functions.

Usage: ``python3 perfbench/tracer.py --json <subcommand> [args...]`` with the
repository's ``src`` on ``PYTHONPATH``. The CLI's own output is printed
unchanged; one more stdout line, starting with ``TRACE_MARK``, carries the
per-layer aggregates of this process as JSON.

Each listed function is wrapped once and the wrapper is bound under every
name in every ``nutcirc`` module that refers to the original, because a
module that did ``from .polyalg import cyclotomic`` keeps its own reference
and would bypass a wrapper installed only on the defining module. Forked
worker processes (``search --jobs N``) inherit the wrappers but record
nothing: their spans could not reach the parent, so only the top-level call
is timed in the parent.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

TRACE_MARK = "#nutcirc-trace "

ENGINES = ("cyclotomy.oracle", "cyclotomy.accelerated")

# layer name -> (defining module, function name)
TRACED = {
    "cli.main": ("nutcirc.cli", "main"),
    "search.catalog": ("nutcirc.search", "catalog"),
    "families.build_family": ("nutcirc.families", "build_family"),
    "families.family_nut_check": ("nutcirc.families", "family_nut_check"),
    "families.generate_table": ("nutcirc.families", "generate_table"),
    "circulant.eigen_poly": ("nutcirc.circulant", "eigen_poly"),
    "circulant.is_nut_spectral": ("nutcirc.circulant", "is_nut_spectral"),
    "circulant.kernel_oracle": ("nutcirc.circulant", "kernel_oracle"),
    "cyclotomy.oracle": ("nutcirc.cyclotomy", "cyclo_divisors_oracle"),
    "cyclotomy.accelerated": ("nutcirc.cyclotomy", "cyclo_divisors_accelerated"),
    "polyalg.cyclotomic": ("nutcirc.polyalg", "cyclotomic"),
    "polyalg.dense_div_rem": ("nutcirc.polyalg", "dense_div_rem"),
    "polyalg.euler_phi": ("nutcirc.polyalg", "euler_phi"),
    "polyalg.prime_factorization": ("nutcirc.polyalg", "prime_factorization"),
}


class SpanTree:
    """Online aggregation of nested spans into per-name call counts and self time.

    A span's self time is its duration minus the durations of its direct
    children; spans on one thread nest without overlap, so that equals the
    duration minus the part of its interval the children cover. Times are
    passed in, so a synthetic tree can be checked exactly.
    """

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def open(self, name: str, t: float) -> None:
        self.stack.append([name, t, 0.0])

    def close(self, t: float) -> float:
        name, start, covered = self.stack.pop()
        duration = t - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration
        return duration


class Tracer:
    """Installs the wrappers and derives the per-layer counts from their calls."""

    def __init__(self):
        self.tree = SpanTree()
        self.counts: Counter = Counter()
        self.enabled = True
        self._seen_cyclotomic: set[int] = set()
        self._engine: tuple[str, int] | None = None  # (layer, input degree) while an engine runs

    def wrap(self, name, fn, pre=None, post=None):
        tree, clock = self.tree, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = tree.parent()
            if pre is not None:
                pre(args)
            tree.open(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tree.close(clock())
            if post is not None:
                post(args, result, duration, parent)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every function in TRACED; returns the names that could not be found."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "nutcirc" and m]
        missing = []
        for layer, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(layer)
                continue
            wrapper = self.wrap(layer, original, *self._hooks(layer))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        os.register_at_fork(after_in_child=self._disable)
        return missing

    def _disable(self):
        self.enabled = False

    def summary(self) -> dict:
        return {"calls": dict(self.tree.calls), "self_s": dict(self.tree.self_s), "counts": dict(self.counts)}

    # --- per-function hooks ----------------------------------------------------

    def _hooks(self, layer):
        if layer in ENGINES:
            return self._engine_pre(layer), self._engine_post(layer)
        return None, {
            "polyalg.cyclotomic": self._on_cyclotomic,
            "polyalg.dense_div_rem": self._on_division,
            "polyalg.euler_phi": self._on_totient,
            "circulant.kernel_oracle": self._on_kernel,
            "circulant.is_nut_spectral": self._on_spectral,
        }.get(layer)

    def _engine_pre(self, layer):
        def pre(args):
            self._engine = (layer, args[0].degree)

        return pre

    def _engine_post(self, layer):
        def post(args, result, duration, parent):
            self.counts[f"{layer}.found"] += len(result.divisors)
            self._engine = None

        return post

    def _on_cyclotomic(self, args, result, duration, parent):
        # A build is the first request for b in this process; its time is
        # counted once, at the outermost build, including nested builds.
        b = args[0]
        if b in self._seen_cyclotomic:
            self.counts["polyalg.cyclotomic.hits"] += 1
            return
        self._seen_cyclotomic.add(b)
        self.counts["polyalg.cyclotomic.builds"] += 1
        if parent != "polyalg.cyclotomic":
            self.counts["polyalg.cyclotomic.build_s"] += duration

    def _on_division(self, args, result, duration, parent):
        a, b = args[0], args[1]
        self.counts["polyalg.dense_div_rem.coeff_ops"] += (
            max(0, len(a.coeffs) - len(b.coeffs) + 1) * len(b.coeffs)
        )
        if parent in ENGINES:
            self.counts[f"{parent}.divisions"] += 1

    def _on_totient(self, args, result, duration, parent):
        if self._engine is not None:
            layer, degree = self._engine
            self.counts[f"{layer}.candidates"] += 1
            if result <= degree:
                self.counts[f"{layer}.eligible"] += 1

    def _on_kernel(self, args, result, duration, parent):
        self.counts["circulant.kernel_oracle.order_cubed"] += args[0].n ** 3

    def _on_spectral(self, args, result, duration, parent):
        if result.reason == "parity-imbalance":
            self.counts["circulant.is_nut_spectral.parity_rejects"] += 1


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import nutcirc.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = tracer.install()
    code = 1
    try:
        code = nutcirc.cli.main(argv)
    finally:
        sys.stdout.flush()
        record = dict(tracer.summary(), import_s=import_s, missing=missing)
        print(TRACE_MARK + json.dumps(record, sort_keys=True), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
