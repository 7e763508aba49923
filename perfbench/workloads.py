"""Seeded request lists for the three benchmark workloads.

A request is a JSON-ready dict ``{"id", "argv", "check"}``: ``argv`` is the
``nutcirc`` subcommand line the program receives and ``check`` tells
``checks.py`` what a correct payload looks like. Inputs that the program
would normally build itself (family generator sets, family polynomials,
cyclotomic factors) are constructed here from their definitions, so the
inputs and the expectations do not depend on the code under test.

Each workload keeps its cost nearly independent of the seed: the seed picks
elements, parameters and order inside fixed size strata, never the sizes
that set the run time, so runs with different seeds are comparable.
"""
from __future__ import annotations

import random

WORKLOADS = ("catalog", "query", "cyclodiv")

# Orders <= 28 at which a degree-8 circulant nut graph exists (acceptance suite).
DEGREE8_NUT_ORDERS = (14, 18, 20, 22, 24, 26, 28)

# Coefficients of Phi_b, ascending from x^0, for the indices planted into the
# random cyclodiv inputs.
PLANTED_CYCLOTOMICS = {
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def generate(workload: str, seed: int, jobs: int) -> list[dict]:
    """The request list of one pass; the same (workload, seed, jobs) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        return _catalog(rng, jobs)
    if workload == "query":
        return _query(rng)
    if workload == "cyclodiv":
        return _cyclodiv(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _request(rid: str, argv: list, check: dict) -> dict:
    return {"id": rid, "argv": [str(a) for a in argv], "check": check}


# --- catalog -----------------------------------------------------------------


def _catalog(rng: random.Random, jobs: int) -> list[dict]:
    # Orders below 14 hold at most one degree-8 set, so the seed's choice of
    # the lower end leaves the work unchanged.
    d8 = ["search", "--degree", 8, "--n-min", rng.choice((10, 12)), "--n-max", 44]
    d12 = ["search", "--degree", 12, "--n-min", 30, "--n-max", 36]
    # Costs per request are ordered d8 < d12 = d12-balanced < d8-jobsN <
    # d12-high, so the median falls inside the d12 pair and the 90th
    # percentile inside d12-high, not on a boundary between unequal requests.
    reqs = [
        _request("d8", d8, {"kind": "catalog", "jobs": 1}),
        _request("d12-balanced", d12 + ["--balanced"], {"kind": "catalog", "jobs": 1}),
        _request("d12", d12, {"kind": "catalog", "jobs": 1, "same_verdicts_as": "d12-balanced"}),
        _request(
            "d12-high",
            ["search", "--degree", 12, "--n-min", 38, "--n-max", 40],
            {"kind": "catalog", "jobs": 1},
        ),
    ]
    if jobs > 1:
        reqs.append(
            _request(
                f"d8-jobs{jobs}",
                d8 + ["--jobs", jobs],
                {"kind": "catalog", "jobs": jobs, "same_payload_as": "d8"},
            )
        )
    rng.shuffle(reqs)
    return reqs


# --- query -------------------------------------------------------------------


def family_set(variant: str, t: int, n: int) -> list[int]:
    """Generator set of the dprime (4 | n) or ddprime (n = 2 mod 4) family member."""
    low = list(range(1, t))
    high = list(range(n // 2 - (t - 1), n // 2))
    if variant == "dprime":
        middle = [n // 4, n // 4 + 1]
    else:
        middle = [(n + 2) // 4, (n + 6) // 4]
    return sorted(low + middle + high)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _balanced_set(rng: random.Random, n: int) -> list[int]:
    """Two odd and two even offsets below n/2: a parity-balanced set of degree 8."""
    half = n // 2
    return sorted(rng.sample(range(1, half, 2), 2) + rng.sample(range(2, half, 2), 2))


def _query(rng: random.Random) -> list[dict]:
    reqs = []
    # Random parity-balanced circulants, both routes. Elimination time grows
    # with n cubed and with the degree, so n follows a fixed ladder (the seed
    # adds at most 2) and the degree is 8; the seed picks the elements.
    for i, base in enumerate(range(16, 129, 8)):
        n = base + rng.choice((0, 2))
        elements = _balanced_set(rng, n)
        reqs.append(
            _request(
                f"verify-{i:02d}",
                ["verify", "--n", n, "--set", _csv(elements), "--method", "both"],
                {"kind": "agree"},
            )
        )
    # Family members with every check; Bareiss elimination dominates at n ~ 256.
    # t is fixed at 3 because elimination time also grows with the degree 4t.
    # The five ddprime members at n = 170..186 cost about the same and sit
    # just below the four heaviest requests, so the 90th percentile falls
    # among them.
    for variant, orders in (("dprime", (128, 256)), ("ddprime", (126, 170, 174, 178, 182, 186, 254))):
        for n in orders:
            reqs.append(
                _request(
                    f"family-{variant}-{n}",
                    ["family", "--variant", variant, "--t", 3, "--n", n, "--check"],
                    {"kind": "family"},
                )
            )
    # Spectral route on family members at highly composite orders (many cold
    # Phi_b builds) and at powers of two (few, cheap ones).
    for n in (2520, 4620, 1024, 2048, 4096):
        t = rng.choice((1, 3, 5, 7, 9))
        reqs.append(
            _request(
                f"spectral-{n}",
                ["verify", "--n", n, "--set", _csv(family_set("dprime", t, n)), "--method", "spectral"],
                {"kind": "spectral-nut"},
            )
        )
    for kind in ("q", "r", "u", "w"):
        for modulus in (3, 5, 6, 10, 15, 30):
            reqs.append(
                _request(
                    f"tables-{kind}-{modulus}",
                    ["tables", "--kind", kind, "--modulus", modulus, "--format", rng.choice(("csv", "md"))],
                    {"kind": "tables", "poly": kind, "modulus": modulus},
                )
            )
    rng.shuffle(reqs)
    return reqs


# --- cyclodiv ----------------------------------------------------------------


def family_poly_terms(kind: str, t: int) -> dict[int, int]:
    """Exponent -> coefficient map of the six-term q, r, u or w polynomial."""
    if kind == "q":
        return {2 * t - 1: 2, t + 1: 1, t: -1, t - 1: 1, t - 2: -1, 0: -2}
    if kind == "r":
        return {2 * t - 1: 2, t + 1: -1, t: -3, t - 1: 3, t - 2: 1, 0: -2}
    sign = 1 if kind == "u" else -1
    return {4 * t - 1: 2, 2 * t + 4: sign, 2 * t + 1: -2, 2 * t - 1: 2, 2 * t - 4: -sign, 1: -2}


def sparse_text(terms: dict[int, int]) -> str:
    """The CLI's sparse polynomial form: exp:coeff pairs, exponents descending."""
    return ",".join(f"{e}:{c}" for e, c in sorted(terms.items(), reverse=True) if c)


def _lacunary(rng: random.Random, degree: int) -> dict[int, int]:
    count = rng.randint(3, 8)
    exponents = [degree, 0] + rng.sample(range(1, degree), count - 2)
    return {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in exponents}


def _times_dense(terms: dict[int, int], factor: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in terms.items():
        for i, f in enumerate(factor):
            if f:
                out[e + i] = out.get(e + i, 0) + c * f
    return {e: c for e, c in out.items() if c}


def _cyclodiv(rng: random.Random) -> list[dict]:
    inputs = []
    for kind, ts in (("q", range(3, 16, 2)), ("r", range(3, 16, 2)), ("u", range(2, 11)), ("w", range(2, 11))):
        for t in sorted(rng.sample(ts, 4)):
            expect = [1, 2] if kind in ("q", "r") else None
            inputs.append((f"{kind}{t}", family_poly_terms(kind, t), {"family": kind, "exact": expect}))
    # Random lacunary inputs on a fixed degree ladder; the engines scan 2d^2
    # indices, so the degree, not the seed, sets the cost. The oracle's six
    # degree-150 runs cost the same whatever their terms, and sit just below
    # the two degree-300 runs, so the 90th percentile falls among them.
    ladder = [(60, True), (100, True)] + [(150, False)] * 6 + [(300, False)]
    for i, (degree, plant) in enumerate(ladder):
        if plant:
            b = rng.choice(sorted(PLANTED_CYCLOTOMICS))
            factor = PLANTED_CYCLOTOMICS[b]
            terms = _times_dense(_lacunary(rng, degree - (len(factor) - 1)), factor)
            inputs.append((f"rand{i}-{degree}-phi{b}", terms, {"planted": b}))
        else:
            inputs.append((f"rand{i}-{degree}", _lacunary(rng, degree), {}))
    reqs = []
    for name, terms, expect in inputs:
        for engine in ("oracle", "fast"):
            reqs.append(
                _request(
                    f"{name}-{engine}",
                    ["cyclodiv", "--poly", sparse_text(terms), "--engine", engine],
                    dict(expect, kind="cyclodiv", input=name),
                )
            )
    rng.shuffle(reqs)
    return reqs
