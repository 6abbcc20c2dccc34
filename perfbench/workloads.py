"""Seeded inputs of the three benchmark workloads.

Only the benchmark sees the seed; ``bncells`` receives the generated argv
lists.  Every input is drawn inside one weight regime, and the regimes are
chosen so that the amount of work does not depend on the seed:

* ``refine-r6`` and ``session-r6`` run the refinement, whose work depends
  on a weight only through its gate profile, which is fixed per regime.
* ``oracle-r4`` runs the Hecke oracle, whose Laurent arithmetic depends on
  which monomials ``v^(a*i + b*j)`` coincide.  A rank-4 element has at most
  12 swap letters, so ``|i - i'| <= 24``, and with ``b > 24a`` no two
  monomials with ``j != j'`` coincide: every seeded weight does the same
  arithmetic.  Drawn from all of ``b > 3a``, the cost of one rank-4
  ``verify`` varied by 15% with the weight.
"""

from __future__ import annotations

import random

SESSION_ELEMENTS = 300
# a quick report takes about 70% of the time of a full one; with 40% of them
# quick, the median falls inside the full reports' latencies instead of on
# the edge between the two groups, where it would jump from run to run
QUICK_SHARE = 0.4
SESSION_WEIGHTS = {"dominant": 2, "intermediate": 1, "subasymptotic": 1}


def random_window(rng: random.Random, n: int) -> str:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return ",".join(str(v if rng.random() < 0.5 else -v) for v in values)


def _weight_args(weight) -> list[str]:
    return ["--a", str(weight[0]), "--b", str(weight[1])]


def refine_weight(rng: random.Random) -> tuple[int, int]:
    """A rank-6 dominant weight: ``b > 5a``."""
    a = rng.randint(1, 3)
    return a, rng.randint(5 * a + 1, 8 * a)


def oracle_weight(rng: random.Random) -> tuple[int, int]:
    """A rank-4 dominant weight with no coinciding monomials: ``b > 24a``."""
    a = rng.randint(1, 3)
    return a, rng.randint(24 * a + 1, 30 * a)


def _session_weight(rng: random.Random, regime: str) -> tuple[int, int]:
    if regime == "dominant":
        a = rng.randint(1, 3)
        return a, rng.randint(5 * a + 1, 8 * a)
    if regime == "intermediate":
        a = rng.randint(1, 6)
        return a, 5 * a
    a = rng.randint(2, 6)
    return a, rng.randint(4 * a + 1, 5 * a - 1)


def session_weights(rng: random.Random) -> list[tuple[str, tuple[int, int]]]:
    """Distinct rank-6 weights: dominant ``b > 5a``, ``b = 5a``, ``4a < b < 5a``."""
    out: list[tuple[str, tuple[int, int]]] = []
    for regime, count in SESSION_WEIGHTS.items():
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < count:
            chosen.add(_session_weight(rng, regime))
        out.extend((regime, weight) for weight in sorted(chosen))
    return out


def element_request(n, regime, weight, window, quick) -> dict:
    argv = ["element", "--w", window, *_weight_args(weight)]
    return {
        "kind": "element-quick" if quick else "element",
        "argv": (argv + ["--quick"]) if quick else argv,
        "n": n,
        "regime": regime,
        "weight": list(weight),
        "window": window,
    }


def partition_request(kind, n, regime, weight) -> dict:
    """A ``cells`` or ``orbits-left``/``orbits-right`` dump request."""
    if kind == "cells":
        argv = ["cells", "--n", str(n), "--method", "vogan"]
    else:
        argv = ["orbits", "--n", str(n), "--side", kind.split("-")[1]]
    return {
        "kind": kind,
        "argv": argv + _weight_args(weight),
        "n": n,
        "regime": regime,
        "weight": list(weight),
    }


def element_requests(rng, n, weights) -> list[dict]:
    """``SESSION_ELEMENTS`` reports; exactly ``QUICK_SHARE`` of them ``--quick``."""
    quick = round(SESSION_ELEMENTS * QUICK_SHARE)
    flags = [True] * quick + [False] * (SESSION_ELEMENTS - quick)
    rng.shuffle(flags)
    out = []
    for flag in flags:
        regime, weight = rng.choice(weights)
        out.append(element_request(n, regime, weight, random_window(rng, n), flag))
    return out


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a run of ``workload`` sends, as plain JSON-ready data."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "refine-r6":
        weight = refine_weight(rng)
        return {
            "n": 6,
            "weight": list(weight),
            "argv": ["cells", "--n", "6", *_weight_args(weight), "--method", "vogan"],
        }
    if workload == "oracle-r4":
        weight = oracle_weight(rng)
        return {
            "n": 4,
            "weight": list(weight),
            "argv": ["cells", "--n", "4", *_weight_args(weight), "--method", "oracle-kl"],
        }
    if workload == "session-r6":
        weights = session_weights(rng)
        requests = [
            partition_request(kind, 6, regime, weight)
            for regime, weight in weights
            for kind in ("cells", "orbits-left", "orbits-right")
        ]
        requests += element_requests(rng, 6, weights)
        requests.append({"kind": "area", "n": 6, "argv": ["area", "--n", "6"]})
        rng.shuffle(requests)
        # last, on top of every cached run: anywhere else its transient
        # memory would move the session's peak RSS by 8 MB from seed to seed
        requests.append({"kind": "knuth", "n": 6})
        return {"n": 6, "weights": [list(w) for _, w in weights], "requests": requests}
    raise ValueError(f"unknown workload {workload!r}")
