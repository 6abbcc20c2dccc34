"""Acceptance gate: one test per headline guarantee of the package.

Each test prints one ``[PASS]``/``[FAIL]`` line naming the guarantee it
covers.  Expected values are frozen here as fixtures so the library is
checked against them rather than echoing them; runtime budgets are
asserted where a guarantee carries one.  Tests run in file order, so the
timed criteria pay their own computation costs (nothing below warms the
caches for them).
"""

import math
import time
from collections import Counter

from bncells.area import (
    area_decomposition,
    area_elements,
    build_words,
    upsilon_decomposition,
)
from bncells.descents import rxi_partition
from bncells.group import (
    WeightFunction,
    group_elements,
    length_t,
    mul_gen_right,
)
from bncells.hecke import left_cells
from bncells.knuth import knuth_classes
from bncells.partition import GroupPartition
from bncells.vogan import build_epsilon, build_psi, vogan_classes, xi_orbits

from .oracles import (
    apply_move,
    in_area,
    reference_recording_fibers,
    right_cells,
    rs_generalized,
    shape,
    two_sided_cells,
    verify_admissible,
    welsh_bridge,
)
from .test_hecke import cached_kl, cells_as_windows

# Frozen expected values (fixtures, independent of the library's formulas).
EXPECTED_ORBITS = {2: 8, 3: 26, 4: 90, 5: 342, 6: 1446, 7: 6638}
EXPECTED_DOMINANT = {2: 6, 3: 20, 4: 76, 5: 312, 6: 1384, 7: 6512}
EXPECTED_BOUNDARY = {2: 4, 3: 16, 4: 68, 5: 296, 6: 1352, 7: 6448}
EXPECTED_BRIDGE_DOMAIN = {2: 0, 3: 12, 4: 152}

ORBIT_BUDGET_SECONDS = 120.0
ORACLE_BUDGET_SECONDS = 1800.0

ORACLE_MAX_RANK = 4


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def dominant_weight(n: int) -> WeightFunction:
    return WeightFunction(1, n)


def boundary_weight(n: int) -> WeightFunction:
    return WeightFunction(1, n - 1)


def insertion_fibers(n: int) -> GroupPartition:
    return GroupPartition.from_keys(
        n, [rs_generalized(w)[0] for w in group_elements(n)]
    )


def shape_fibers(n: int) -> GroupPartition:
    return GroupPartition.from_keys(n, [shape(w) for w in group_elements(n)])


def test_criterion_1_orbit_counts():
    start = time.monotonic()
    got = {n: xi_orbits(n, dominant_weight(n)).num_classes for n in range(2, 8)}
    elapsed = time.monotonic() - start
    report(
        "cycling-orbit counts at ranks 2..7 within budget",
        got == EXPECTED_ORBITS and elapsed < ORBIT_BUDGET_SECONDS,
        f"counts {sorted(got.values())} in {elapsed:.1f}s "
        f"(budget {ORBIT_BUDGET_SECONDS:.0f}s)",
    )


def test_criterion_2_class_counts_match_oracle():
    dom = {n: vogan_classes(n, dominant_weight(n)).final for n in range(2, 8)}
    bnd = {n: vogan_classes(n, boundary_weight(n)).final for n in range(2, 8)}
    counts_ok = {n: p.num_classes for n, p in dom.items()} == EXPECTED_DOMINANT
    counts_ok &= {n: p.num_classes for n, p in bnd.items()} == EXPECTED_BOUNDARY

    start = time.monotonic()
    oracle_ok = True
    for n in range(2, ORACLE_MAX_RANK + 1):
        oracle_ok &= left_cells(cached_kl(n, 1, n)).same_blocks(dom[n])
        oracle_ok &= left_cells(cached_kl(n, 1, n - 1)).same_blocks(bnd[n])
    oracle_elapsed = time.monotonic() - start

    report(
        "class counts at ranks 2..7; class-by-class oracle match at "
        f"ranks 2..{ORACLE_MAX_RANK}",
        counts_ok and oracle_ok and oracle_elapsed < ORACLE_BUDGET_SECONDS,
        f"dominant {sorted(p.num_classes for p in dom.values())}, "
        f"boundary {sorted(p.num_classes for p in bnd.values())}, "
        f"oracle in {oracle_elapsed:.1f}s (budget {ORACLE_BUDGET_SECONDS:.0f}s)",
    )


def test_criterion_3_descent_fiber_counts():
    ok = True
    checked = 0
    for n in range(2, 7):
        for k in range(n):
            expected = 2 ** (n - k) * 3**k
            ok &= rxi_partition(n, WeightFunction(1, k + 1)).num_classes == expected
            checked += 1
            if k >= 1:
                interior = rxi_partition(n, WeightFunction(2, 2 * k + 1))
                ok &= interior.num_classes == expected
                checked += 1
    report(
        "enhanced-descent fiber counts at ranks 2..6 across weight brackets",
        ok,
        f"{checked} weight/rank pairs",
    )


def test_criterion_4_cells_match_tableau_fibers():
    ok = True
    for n in range(2, ORACLE_MAX_RANK + 1):
        kl = cached_kl(n, 1, n)
        ok &= left_cells(kl).same_blocks(reference_recording_fibers(n))
        ok &= right_cells(kl).same_blocks(insertion_fibers(n))
        ok &= two_sided_cells(kl).same_blocks(shape_fibers(n))
    report(
        "left/right/two-sided cells equal recording/insertion/shape fibers "
        f"at dominant weights, ranks 2..{ORACLE_MAX_RANK}",
        ok,
    )


def test_criterion_5_move_closure_matches_insertion_fibers():
    ok = True
    for n in range(2, 6):
        ok &= knuth_classes(n).same_blocks(insertion_fibers(n))
    report(
        "rewriting-move closure equals insertion fibers at ranks 2..5",
        ok,
    )


def test_criterion_6_region_structure_identities():
    ok = True
    for n in range(1, 7):
        build_words(n)  # raises on any internal word identity failure
    for n in range(2, 7):
        cells = area_decomposition(n)
        region = area_elements(n)
        ok &= len(cells) == 2**n
        ok &= len(region) == math.comb(2 * n, n)
        double_count = Counter(length_t(w) for w in region)
        ok &= double_count == {q: math.comb(n, q) ** 2 for q in range(n + 1)}
        fibers = upsilon_decomposition(n)
        ok &= len(fibers) == 2 ** (n - 1)
        sizes = sorted(len(f) for f in fibers)
        ok &= sizes == sorted(
            math.comb(n, q) + math.comb(n, q + 1)
            for q in range(n)
            for _ in range(math.comb(n - 1, q))
        )
    report(
        "region word identities, cell counts, double counts, and "
        "descent-fiber sizes at ranks up to 6",
        ok,
    )


def test_criterion_7_admissibility():
    failures: list[str] = []
    for n in range(1, 6):
        failures += verify_admissible(build_epsilon(n))
    for n in range(2, 6):
        failures += verify_admissible(build_psi(n, dominant_weight(n)))
    report(
        "cycling maps admissible at ranks up to 5",
        not failures,
        "; ".join(failures) if failures else "",
    )


def test_criterion_8_bridge_path_exhaustive():
    ok = True
    counts = {}
    for n in range(2, 5):
        domain = [
            w
            for w in group_elements(n)
            if not in_area(w) and (w[-2] > 0) != (w[-1] > 0)
        ]
        counts[n] = len(domain)
        for w in domain:
            cur = w
            for move in welsh_bridge(w):
                ok &= not (move.kind == "III" and move.position > n - 2)
                cur = apply_move(cur, move)
            ok &= cur == mul_gen_right(w, n - 1)
    ok &= counts == EXPECTED_BRIDGE_DOMAIN
    report(
        "restricted move path to the top-swap image exists for every "
        "eligible window at ranks 2..4",
        ok,
        f"domain sizes {counts}",
    )


def test_criterion_9_region_difference_between_weights():
    ok = True
    for n in range(2, ORACLE_MAX_RANK + 1):
        kl_dom = cached_kl(n, 1, n)
        kl_bnd = cached_kl(n, 1, n - 1)
        dom = cells_as_windows(kl_dom, left_cells(kl_dom))
        bnd = cells_as_windows(kl_bnd, left_cells(kl_bnd))
        region = frozenset(area_elements(n))

        off_dom = {c for c in dom if not c & region}
        off_bnd = {c for c in bnd if not c & region}
        ok &= off_dom == off_bnd

        ok &= dom - off_dom == set(area_decomposition(n))
        in_bnd = bnd - off_bnd
        ok &= in_bnd == set(upsilon_decomposition(n))
        for fiber in in_bnd:
            halves = [c for c in dom - off_dom if c <= fiber]
            ok &= len(halves) == 2
            ok &= frozenset().union(*halves) == fiber
    report(
        "changing dominant weight to boundary weight merges exactly the "
        "region cell pairs and fixes all other cells, ranks 2..4",
        ok,
    )
