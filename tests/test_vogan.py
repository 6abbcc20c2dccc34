"""Tests for the cell-cycling maps, their orbits, and the class refinement."""

import itertools

import pytest

from bncells.area import area_elements, in_area, in_area_reduced
from bncells.descents import rxi_partition
from bncells.errors import InvalidInputError, RegimeError
from bncells.group import (
    WeightFunction,
    element_index,
    group_elements,
    group_order,
    inverse_index_table,
    length,
)
from bncells.hecke import left_cells, right_cells
from bncells.partition import GroupPartition
from bncells.tableaux import count_standard_bitableaux, rs_generalized
from bncells.vogan import (
    CellularMap,
    VoganRun,
    build_epsilon,
    build_psi,
    classes_to_tsv,
    extended_image_table,
    left_extend,
    orbits_of_image_tables,
    parabolic_elements,
    run_summary,
    star_closed_form,
    verify_admissible,
    vogan_classes,
    xi_orbits,
)

from .oracles import orbit_meets_canonical, oracle_pair_refinement
from .test_hecke import cached_kl

ASYM = {n: WeightFunction(1, n) for n in range(1, 8)}


def blocks(partition):
    return {frozenset(members) for members in partition.classes()}


def pair_refinement_blocks(n, weight):
    """The oracle fixpoint from ``weight``'s own seed and cycling tables."""
    maps = [
        extended_image_table(build_epsilon(n)),
        extended_image_table(build_psi(n, weight)),
    ]
    return oracle_pair_refinement(rxi_partition(n, weight).class_id, maps)


# -- construction and validation ----------------------------------------------


def test_cellular_map_rejects_bad_payloads():
    with pytest.raises(InvalidInputError):
        CellularMap("X", 2, (0, 1))
    with pytest.raises(InvalidInputError):
        CellularMap("J", 2, (0, 0))
    with pytest.raises(InvalidInputError):
        CellularMap("J", 2, (0,))


def test_parabolic_index_spaces():
    assert parabolic_elements("J", 3) == tuple(
        itertools.permutations((1, 2, 3))
    )
    assert parabolic_elements("K", 3) == group_elements(2)
    assert parabolic_elements("K", 1) == ((),)
    with pytest.raises(InvalidInputError):
        parabolic_elements("Q", 3)


def test_epsilon_is_identity_on_single_tableau_shapes():
    eps = build_epsilon(3)
    assert eps.apply((1, 2, 3)) == (1, 2, 3)
    assert eps.apply((3, 2, 1)) == (3, 2, 1)


def test_epsilon_has_order_two_on_the_middle_of_rank_three():
    eps = build_epsilon(3)
    moved = 0
    for u in parabolic_elements("J", 3):
        image = eps.apply(u)
        assert eps.apply(image) == u
        if image != u:
            moved += 1
    assert moved == 4


def test_psi_is_identity_at_rank_two():
    psi = build_psi(2, WeightFunction(1, 1))
    assert psi.mapping == tuple(range(psi.parabolic_size))


def test_psi_at_rank_three_swaps_the_two_element_fibers():
    psi = build_psi(3, WeightFunction(1, 2))
    # the sign change and its swap-neighbor share an insertion side
    assert psi.apply((-1, 2)) == (2, -1)
    assert psi.apply((2, -1)) == (-1, 2)
    a1, _ = rs_generalized((-1, 2))
    a2, _ = rs_generalized((2, -1))
    assert a1 == a2


def test_psi_regime_gate():
    with pytest.raises(RegimeError):
        build_psi(3, WeightFunction(1, 1))
    with pytest.raises(RegimeError):
        build_psi(4, WeightFunction(1, 2))
    with pytest.raises(RegimeError):
        xi_orbits(4, WeightFunction(2, 4))
    with pytest.raises(RegimeError):
        vogan_classes(4, WeightFunction(2, 4))


# -- admissibility -------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_epsilon_admissible_against_insertion_fibers(n):
    assert verify_admissible(build_epsilon(n)) == ()


@pytest.mark.parametrize("n", range(1, 6))
def test_psi_admissible_against_insertion_fibers(n):
    weight = WeightFunction(1, max(n - 1, 1))
    assert verify_admissible(build_psi(n, weight)) == ()


@pytest.mark.parametrize("n", (3, 4))
def test_psi_admissible_against_kl_oracle_cells(n):
    kl = cached_kl(n - 1, 1, n - 1)
    psi = build_psi(n, WeightFunction(1, n - 1))
    right_keys = list(right_cells(kl).class_id)
    left_keys = list(left_cells(kl).class_id)
    assert verify_admissible(psi, right_keys, left_keys) == ()


def test_verify_admissible_reports_violations():
    # a transposition of two same-shape elements that crosses fibers
    eps = build_epsilon(2)
    broken = list(eps.mapping)
    broken[0], broken[1] = broken[1], broken[0]
    bad = CellularMap("J", 2, tuple(broken))
    assert len(verify_admissible(bad)) > 0


def test_verify_admissible_oracle_key_validation():
    eps = build_epsilon(2)
    with pytest.raises(InvalidInputError):
        verify_admissible(eps, [0, 1], None)
    with pytest.raises(InvalidInputError):
        verify_admissible(eps, [0], [0])


# -- left extension ------------------------------------------------------------


def test_left_extend_restricts_to_the_map_on_the_parabolic():
    eps = build_epsilon(3)
    for u in parabolic_elements("J", 3):
        assert tuple(left_extend(eps, u)) == eps.apply(u)
    psi = build_psi(3, WeightFunction(1, 2))
    for u in parabolic_elements("K", 3):
        embedded = u + (3,)
        assert tuple(left_extend(psi, embedded)) == psi.apply(u) + (3,)


def test_left_extension_changes_lengths_somewhere():
    eps = build_epsilon(3)
    assert any(
        length(left_extend(eps, w)) != length(w) for w in group_elements(3)
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_extended_table_matches_elementwise_extension(n):
    weight = ASYM[n]
    for cmap in (build_epsilon(n), build_psi(n, weight)):
        table = extended_image_table(cmap)
        for i, w in enumerate(group_elements(n)):
            assert table[i] == element_index(left_extend(cmap, w))


# -- orbits ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_counts(n):
    part = xi_orbits(n, ASYM[n])
    assert part.num_classes == count_standard_bitableaux(n) + 2**n - 2


def test_orbit_side_validation():
    with pytest.raises(InvalidInputError):
        xi_orbits(2, ASYM[2], side="middle")


def test_left_orbits_are_inverse_conjugated():
    n = 3
    right = xi_orbits(n, ASYM[n])
    left = xi_orbits(n, ASYM[n], side="left")
    inv = inverse_index_table(n)
    for i in range(group_order(n)):
        for j in range(i, group_order(n)):
            same_left = left.class_of(i) == left.class_of(j)
            same_right = right.class_of(inv[i]) == right.class_of(inv[j])
            assert same_left == same_right


@pytest.mark.parametrize("n", range(2, 5))
def test_orbits_outside_reduced_region_are_insertion_fibers(n):
    part = xi_orbits(n, ASYM[n])
    elements = group_elements(n)
    a_key = {}
    for w in elements:
        a_tab, _ = rs_generalized(w)
        a_key[w] = a_tab
    classes = part.classes()
    for i, w in enumerate(elements):
        if in_area_reduced(w):
            continue
        orbit = {elements[j] for j in classes[part.class_of(i)]}
        fiber = {v for v in elements if a_key[v] == a_key[w]}
        assert orbit == fiber


@pytest.mark.parametrize("n", range(2, 5))
def test_orbits_inside_reduced_region_split_fibers_by_last_sign(n):
    part = xi_orbits(n, ASYM[n])
    elements = group_elements(n)
    classes = part.classes()
    for i, w in enumerate(elements):
        if not in_area_reduced(w):
            continue
        a_tab, _ = rs_generalized(w)
        orbit = {elements[j] for j in classes[part.class_of(i)]}
        half = {
            v
            for v in elements
            if rs_generalized(v)[0] == a_tab and (v[-1] > 0) == (w[-1] > 0)
        }
        assert orbit == half


@pytest.mark.parametrize("n", range(2, 6))
def test_region_orbits_agree_for_each_single_map(n):
    weight = ASYM[n]
    eps_t = extended_image_table(build_epsilon(n))
    psi_t = extended_image_table(build_psi(n, weight))
    only_eps = orbits_of_image_tables(n, (eps_t,))
    only_psi = orbits_of_image_tables(n, (psi_t,))
    both = orbits_of_image_tables(n, (eps_t, psi_t))
    cls_e = only_eps.classes()
    cls_p = only_psi.classes()
    cls_b = both.classes()
    for i, w in enumerate(group_elements(n)):
        if not in_area(w):
            continue
        se = set(cls_e[only_eps.class_of(i)])
        sp = set(cls_p[only_psi.class_of(i)])
        sb = set(cls_b[both.class_of(i)])
        assert se == sp == sb


# -- class refinement ------------------------------------------------------------


EXPECTED_DOMINANT = {2: 6, 3: 20, 4: 76, 5: 312}
EXPECTED_BOUNDARY = {2: 4, 3: 16, 4: 68, 5: 296}


@pytest.mark.parametrize("n", range(2, 6))
def test_class_counts_at_dominant_weights(n):
    run = vogan_classes(n, ASYM[n])
    assert run.final.num_classes == EXPECTED_DOMINANT[n]
    assert run.final.num_classes == count_standard_bitableaux(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_class_counts_at_boundary_weights(n):
    run = vogan_classes(n, WeightFunction(1, n - 1))
    assert run.final.num_classes == EXPECTED_BOUNDARY[n]
    expected = count_standard_bitableaux(n) - 2**n + 2 ** (n - 1)
    assert run.final.num_classes == expected


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 1, 2), (2, 1, 1), (3, 1, 3), (3, 1, 2)],
)
def test_classes_equal_oracle_left_cells(n, a, b):
    run = vogan_classes(n, WeightFunction(a, b))
    kl = cached_kl(n, a, b)
    assert left_cells(kl).same_blocks(run.final)


def test_interval_weights_match_the_pair_refinement_oracle():
    # strictly between two gates, where the run is cached under a weight on
    # one of them; the oracle starts from the interval weight's own seed and
    # tables, so a representative with the wrong gate profile shows here
    for n, weight in ((3, WeightFunction(2, 3)), (4, WeightFunction(2, 5))):
        final = vogan_classes(n, weight).final
        assert blocks(final) == pair_refinement_blocks(n, weight)
    assert vogan_classes(4, WeightFunction(2, 5)).final.num_classes == 68


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 1, 2), (2, 1, 1), (3, 1, 3), (3, 1, 2), (3, 2, 3)],
)
def test_oracle_left_cells_refine_classes(n, a, b):
    run = vogan_classes(n, WeightFunction(a, b))
    kl = cached_kl(n, a, b)
    assert left_cells(kl).refines(run.final)


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 1, 2), (2, 1, 1), (3, 1, 3), (3, 1, 2), (3, 2, 3)],
)
def test_inverse_orbits_refine_oracle_left_cells(n, a, b):
    left_orbits = xi_orbits(n, WeightFunction(a, b), side="left")
    kl = cached_kl(n, a, b)
    assert left_orbits.refines(left_cells(kl))


@pytest.mark.parametrize("n", range(2, 6))
def test_region_is_a_union_of_classes(n):
    run = vogan_classes(n, ASYM[n])
    area = {element_index(w) for w in area_elements(n)}
    for members in run.final.classes():
        inside = sum(1 for i in members if i in area)
        assert inside in (0, len(members))


@pytest.mark.parametrize("n", range(2, 5))
def test_rounds_refine_monotonically_and_reach_a_fixpoint(n):
    for weight in (ASYM[n], WeightFunction(1, n - 1)):
        run = vogan_classes(n, weight)
        for earlier, later in zip(run.rounds, run.rounds[1:]):
            assert later.refines(earlier)
            assert later.num_classes > earlier.num_classes
        assert run.final.same_blocks(run.rounds[-1])
        assert run.round_count == len(run.rounds) - 1


def test_rank_six_dominant_round_counts():
    run = vogan_classes(6, ASYM[6])
    assert [r.num_classes for r in run.rounds] == [486, 1195, 1359, 1383, 1384]


@pytest.mark.parametrize(
    "n,a,b",
    [(2, 1, 2), (2, 1, 1), (2, 2, 1), (3, 1, 3), (3, 1, 2), (4, 1, 4), (4, 1, 3)],
)
def test_classes_match_the_pair_refinement_oracle(n, a, b):
    weight = WeightFunction(a, b)
    final = vogan_classes(n, weight).final
    assert blocks(final) == pair_refinement_blocks(n, weight)


def test_psi_is_built_once_per_rank():
    build_psi(4, WeightFunction(1, 3))
    before = build_psi.cache_info().misses
    for weight in (WeightFunction(3, 11), WeightFunction(1, 4), WeightFunction(2, 7)):
        assert build_psi(4, weight) is build_psi(4, WeightFunction(1, 3))
        vogan_classes(4, weight)
        xi_orbits(4, weight)
    assert build_psi.cache_info().misses == before


def test_gate_is_checked_for_each_weight_once_the_map_is_cached():
    build_psi(4, WeightFunction(1, 3))
    for call in (build_psi, vogan_classes, xi_orbits):
        with pytest.raises(RegimeError, match=r"\(a, b\) = \(1, 2\)"):
            call(4, WeightFunction(1, 2))


def test_weights_of_one_regime_share_a_run_but_keep_their_own_weight():
    # (1,2) is on the gate b = 2a at rank 3 and (3,5) strictly inside it:
    # same gate profile, one refinement, two weights reported
    first = vogan_classes(3, WeightFunction(1, 2))
    second = vogan_classes(3, WeightFunction(3, 5))
    assert second.rounds is first.rounds and second.final is first.final
    assert (run_summary(second)["a"], run_summary(second)["b"]) == (3, 5)
    assert xi_orbits(3, WeightFunction(3, 5)) is xi_orbits(3, WeightFunction(1, 7))
    flipped = vogan_classes(2, WeightFunction(2, 1))
    assert not flipped.final.same_blocks(vogan_classes(2, WeightFunction(1, 1)).final)


def test_run_validation():
    with pytest.raises(InvalidInputError):
        VoganRun(2, ASYM[2], (), GroupPartition(n=2, class_id=[0] * 8))
    seed = GroupPartition(n=2, class_id=[0] * 8)
    other = GroupPartition(n=2, class_id=[0, 1] * 4)
    with pytest.raises(InvalidInputError):
        VoganRun(2, ASYM[2], (seed,), other)


# -- the canonical-shape meeting property ----------------------------------------


def test_star_closed_form_frozen_examples():
    assert star_closed_form((1, 2))  # not in the reduced region
    assert star_closed_form((-1, 2))  # reduced region, both last entries positive
    assert not star_closed_form((2, -1))  # reduced region, negative last entry
    assert star_closed_form((2, 1))  # extreme: excluded from the reduced region
    assert star_closed_form((-2, -1))


@pytest.mark.parametrize("n", (2, 3))
def test_star_closed_form_matches_existential_definition(n):
    right = xi_orbits(n, ASYM[n])
    left = xi_orbits(n, ASYM[n], side="left")
    for z in group_elements(n):
        assert orbit_meets_canonical(z, right, left) == star_closed_form(z)


# -- dumps -----------------------------------------------------------------------


def test_class_labels_are_minimal_element_indices():
    run = vogan_classes(2, ASYM[2])
    final = run.final
    for cid, members in enumerate(final.classes()):
        assert final.label_of(cid) == str(min(members))


def test_tsv_lines_are_frozen_at_rank_two():
    run = vogan_classes(2, ASYM[2])
    lines = list(classes_to_tsv(run.final))
    assert lines[0] == "1,2\t0"
    assert lines[1] == "-1,2\t1"
    assert lines[2] == "2,1\t2"
    assert len(lines) == 8


def test_tsv_falls_back_to_class_ids_without_labels():
    part = xi_orbits(2, ASYM[2])
    lines = list(classes_to_tsv(part))
    assert lines[0] == "1,2\t0"
    assert all("\t" in line for line in lines)


def test_run_summary_payload():
    run = vogan_classes(3, WeightFunction(1, 2))
    assert run_summary(run) == {
        "n": 3,
        "a": 1,
        "b": 2,
        "num_classes": 16,
        "round_count": run.round_count,
    }
