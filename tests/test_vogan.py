"""Tests for the cell-cycling maps, their orbits, and the class refinement."""

import math
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bncells import group, tableaux, vogan
from bncells.area import area_elements, upsilon_decomposition
from bncells.descents import rxi_masks, rxi_partition
from bncells.errors import FalsificationError, InvalidInputError, RegimeError
from bncells.group import (
    MAX_ENUMERATION_RANK,
    SignedPerm,
    WeightFunction,
    element_index,
    fix_last_projection,
    group_elements,
    group_order,
    inverse,
    length,
    mul,
    window_text,
)
from bncells.cli import _area_partition
from bncells.hecke import left_cells
from bncells.partition import OUTSIDE, GroupPartition, canonical_ids
from bncells.tableaux import (
    count_standard_bitableaux,
    recording_fiber_ids,
    recording_fibers,
)
from bncells.vogan import (
    CellularMap,
    VoganRun,
    _fibers,
    _minimal_index_labels,
    _negated_masks,
    _pattern_ranks,
    _psi,
    _refine,
    build_epsilon,
    build_psi,
    classes_to_tsv,
    extended_image_table,
    orbits_of_image_tables,
    run_summary,
    vogan_classes,
    xi_orbits,
)

from .oracles import (
    coset_decompose,
    coset_product_elements,
    in_area,
    in_area_reduced,
    orbit_meets_canonical,
    oracle_cycling_map,
    oracle_j_table,
    oracle_pair_refinement,
    parabolic_elements,
    reference_minimal_index_labels,
    reference_rounds,
    right_cells,
    rs_generalized,
    star_closed_form,
    verify_admissible,
)
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


def apply_map(cmap, u):
    """Image of a parabolic element given in the parabolic's own windows."""
    elements = parabolic_elements(cmap.subset_id, cmap.n)
    return elements[cmap.mapping[elements.index(tuple(u))]]


def left_extend(cmap, w):
    """Apply the map through the minimal-coset decomposition of ``w``.

    ``w = x * u`` with ``u`` in the parabolic maps to ``x * cmap(u)``; the
    representative ``x`` is preserved (checked), the length in general is
    not.  The element-wise reference for :func:`extended_image_table`.
    """
    dec = coset_decompose(w, cmap.subset_id)
    if cmap.subset_id == "J":
        part_image = apply_map(cmap, tuple(dec.part))
    else:
        small = fix_last_projection(dec.part)
        part_image = apply_map(cmap, small) + (len(w),)
    out = mul(dec.rep, part_image)
    if coset_decompose(out, cmap.subset_id).rep != dec.rep:
        raise FalsificationError(
            f"extension of {cmap.subset_id}-map moved the coset representative "
            f"of {tuple(w)}"
        )
    return SignedPerm(out)


# -- construction and validation ----------------------------------------------


def test_cellular_map_rejects_bad_payloads():
    with pytest.raises(InvalidInputError):
        CellularMap("X", 2, (0, 1))
    with pytest.raises(InvalidInputError):
        CellularMap("J", 2, (0, 0))
    with pytest.raises(InvalidInputError):
        CellularMap("J", 2, (0,))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("subset_id", ["J", "K"])
def test_cellular_map_checks_the_size_of_its_parabolic(subset_id, n):
    # the "K" parabolic at rank 1 is trivial: one element
    size = len(parabolic_elements(subset_id, n))
    assert len(CellularMap(subset_id, n, tuple(range(size))).mapping) == size
    not_onto = (size,) + tuple(range(1, size))
    for mapping in (tuple(range(size + 1)), tuple(range(size - 1)), not_onto):
        with pytest.raises(InvalidInputError):
            CellularMap(subset_id, n, mapping)


def test_parabolic_index_spaces():
    for n in range(1, 7):
        positive = tuple(w for w in group_elements(n) if min(w) > 0)
        assert parabolic_elements("J", n) == positive
    assert parabolic_elements("K", 3) == group_elements(2)
    assert parabolic_elements("K", 1) == ((),)
    with pytest.raises(InvalidInputError):
        parabolic_elements("Q", 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_cycling_maps_match_inverse_insertion(n):
    assert build_epsilon(n).mapping == oracle_cycling_map("J", n)
    assert build_psi(n, ASYM[n]).mapping == oracle_cycling_map("K", n)


@pytest.fixture
def no_insertion_loop(monkeypatch):
    """Make inserting or decoding a window fail; rebuild both maps under it."""

    def refused(*args):
        raise AssertionError("a window was inserted or decoded")

    # in the modules that define them and in any that import them
    for module in (group, tableaux, vogan):
        for name in ("insertion_rows", "iter_windows"):
            monkeypatch.setattr(module, name, refused, raising=False)
    build_epsilon.cache_clear()
    _psi.cache_clear()
    yield
    build_epsilon.cache_clear()
    _psi.cache_clear()


@pytest.mark.parametrize("n", range(1, 8))
def test_cycling_maps_insert_and_decode_no_window(n, no_insertion_loop):
    assert len(build_epsilon(n).mapping) == math.factorial(n)
    assert len(build_psi(n, ASYM[n]).mapping) == group_order(n - 1)


def test_epsilon_is_identity_on_single_tableau_shapes():
    eps = build_epsilon(3)
    assert apply_map(eps, (1, 2, 3)) == (1, 2, 3)
    assert apply_map(eps, (3, 2, 1)) == (3, 2, 1)


def test_epsilon_has_order_two_on_the_middle_of_rank_three():
    eps = build_epsilon(3)
    moved = 0
    for u in parabolic_elements("J", 3):
        image = apply_map(eps, u)
        assert apply_map(eps, image) == u
        if image != u:
            moved += 1
    assert moved == 4


def test_psi_is_identity_at_rank_two():
    psi = build_psi(2, WeightFunction(1, 1))
    assert psi.mapping == tuple(range(len(psi.mapping)))


def test_psi_at_rank_three_swaps_the_two_element_fibers():
    psi = build_psi(3, WeightFunction(1, 2))
    # the sign change and its swap-neighbor share an insertion side
    assert apply_map(psi, (-1, 2)) == (2, -1)
    assert apply_map(psi, (2, -1)) == (-1, 2)
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
    # so a > b runs at ranks 1 and 2 only, the ranks of the element partition
    for n in range(3, 8):
        with pytest.raises(RegimeError):
            vogan_classes(n, WeightFunction(2, 1))


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
        assert tuple(left_extend(eps, u)) == apply_map(eps, u)
    psi = build_psi(3, WeightFunction(1, 2))
    for u in parabolic_elements("K", 3):
        embedded = u + (3,)
        assert tuple(left_extend(psi, embedded)) == apply_map(psi, u) + (3,)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_j_table_matches_the_window_lookup(n):
    assert list(extended_image_table(build_epsilon(n))) == oracle_j_table(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_j_coordinates_rank_patterns_by_the_reference_enumeration(n):
    reference = coset_product_elements(n)
    position = {u: p for p, u in enumerate(w for w in reference if min(w) > 0)}
    # every element: the mask of its negated values and its pattern's
    # position among the all-positive windows of the enumeration
    assert list(_negated_masks(n)) == [
        sum(1 << (-x - 1) for x in w if x < 0) for w in reference
    ]
    patterns = [tuple(sorted(w).index(x) + 1 for x in w) for w in reference]
    assert list(_pattern_ranks(n)) == [position[u] for u in patterns]


def test_a_lane_holds_the_j_coordinates_of_every_enumerable_rank():
    # the negated-value mask is summed in one byte lane, the pattern rank is
    # read back as array("H") and the coordinate mask * n! + pattern is an
    # array("i") entry; raising the rank cap past any of them must fail here
    n = MAX_ENUMERATION_RANK
    assert (1 << n) - 1 < 1 << 8
    assert math.factorial(n) <= 1 << 8 * array("H").itemsize
    assert group_order(n) <= 1 << (8 * array("i").itemsize - 1)


# -- orbits ---------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_counts(n):
    part = xi_orbits(n, ASYM[n])
    assert part.num_classes == count_standard_bitableaux(n) + 2**n - 2


def test_orbit_side_validation():
    with pytest.raises(InvalidInputError):
        xi_orbits(2, ASYM[2], side="middle")


def test_left_orbits_are_inverse_conjugated():
    # w's left orbit is its inverse's right orbit, with inverses taken on
    # windows rather than through the index table the left side reads
    for n in range(2, 6):
        right = xi_orbits(n, ASYM[n])
        left = xi_orbits(n, ASYM[n], side="left")
        by_inverse = GroupPartition.from_keys(
            n, [right.class_of(element_index(inverse(w))) for w in group_elements(n)]
        )
        assert left.same_blocks(by_inverse), n


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
        rounds = run.rounds
        for earlier, later in zip(rounds, rounds[1:]):
            assert later.refines(earlier)
            assert later.num_classes > earlier.num_classes
        assert run.final.same_blocks(rounds[-1])
        assert run.round_classes == tuple(r.num_classes for r in rounds)
        assert run.round_count == len(rounds) - 1
        # rebuilt on each read, not kept
        assert run.rounds is not rounds and run.rounds[-1].same_blocks(rounds[-1])


def representatives(n):
    """Every representative weight the refinement accepts at rank ``n``."""
    weights = (WeightFunction(a, b) for a in range(1, 4) for b in range(1, 3 * n + 2))
    return sorted(
        {w.representative(n) for w in weights if w.slope_exceeds(n - 2)},
        key=lambda w: (w.a, w.b),
    )


@pytest.mark.parametrize(
    "n,weight",
    [(n, w) for n in range(1, 7) for w in representatives(n)],
    ids=lambda v: str(v) if isinstance(v, int) else f"{v.a},{v.b}",
)
def test_runs_match_the_reference_rounds_kept_over_the_elements(n, weight):
    reference = reference_rounds(n, weight)
    run = vogan_classes(n, weight)
    assert run.round_classes == tuple(r.num_classes for r in reference)
    for rebuilt, kept in zip(run.rounds, reference, strict=True):
        assert rebuilt.class_id == kept.class_id
    assert run.final.class_id == reference[-1].class_id
    assert run.final.labels == reference_minimal_index_labels(run.final.class_id)


def test_every_a_le_b_weight_of_a_rank_reads_one_cached_fiber_space(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return recording_fiber_ids(n)

    monkeypatch.setattr(vogan, "recording_fiber_ids", counted)
    _refine.cache_clear()
    _fibers.cache_clear()
    vogan_classes(5, WeightFunction(1, 4))
    # one miss for (1,4) itself; no dominant run is made or read for it
    assert (_refine.cache_info().misses, _refine.cache_info().hits) == (1, 0)
    vogan_classes(5, ASYM[5])
    assert calls == [5]


@pytest.fixture
def feed_masks(monkeypatch):
    """Make the refinement read the seed masks ``forge(n, weight)`` returns.

    No run made from them outlives the test.
    """

    def feed(forge):
        monkeypatch.setattr(vogan, "rxi_masks", forge)
        _refine.cache_clear()
        _fibers.cache_clear()

    yield feed
    _refine.cache_clear()
    _fibers.cache_clear()


def test_a_seed_the_dominant_classes_do_not_refine_is_refused(feed_masks):
    # the dominant classes are the recording fibers, which the boundary
    # weight's rounds run on; a discrete seed is one they do not refine
    feed_masks(lambda n, weight: array("I", range(group_order(n))))
    with pytest.raises(
        FalsificationError,
        match=r"recording fibers \(Bonnafé-Iancu.* do not refine the seed of \(1,2\)",
    ):
        vogan_classes(3, WeightFunction(1, 2))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_a_dominant_seed_with_one_gate_bit_flipped_is_refused(n, feed_masks):
    # the gate bit of the last sign position, flipped on one element whose
    # recording fiber has other elements, so the fibers no longer refine it
    ids, firsts, _ = recording_fiber_ids(n)
    flipped = max(set(range(len(ids))) - set(firsts))
    gate = 1 << (2 * n - 1)

    def one_bit_flipped(n_, weight):
        masks = rxi_masks(n_, weight)
        masks[flipped] ^= gate
        return masks

    feed_masks(one_bit_flipped)
    with pytest.raises(FalsificationError, match=r"do not refine the seed"):
        vogan_classes(n, ASYM[n])


REGIMES = {
    "dominant": lambda n: (1, n + 1),
    "sharp": lambda n: (1, n),
    "boundary": lambda n: (1, n - 1),
    "intermediate": lambda n: (2, 2 * n - 3),
    "wide": lambda n: (3, 3 * n - 4),
    "flipped": lambda n: (2, 1),
}


@pytest.mark.parametrize(
    "n,weight",
    [
        pytest.param(n, weight, id=f"{n}-{regime}")
        for n in range(2, 7)
        for regime, weight_at in REGIMES.items()
        for weight in [WeightFunction(*weight_at(n))]
        if weight.slope_exceeds(n - 2)  # the refinement's gate
    ],
)
def test_the_first_round_counts_the_seed_classes(n, weight):
    run = vogan_classes(n, weight)
    assert run.round_classes[0] == rxi_partition(n, weight).num_classes


@pytest.fixture
def feed_fibers(monkeypatch):
    """Make every a ≤ b run read the classes of given keys as its recording fibers.

    No run made from them outlives the test.
    """

    def feed(keys):
        ids = canonical_ids(keys)
        firsts = [ids.index(c) for c in range(max(ids) + 1)]
        monkeypatch.setattr(vogan, "recording_fiber_ids", lambda n: (ids, firsts, []))
        _refine.cache_clear()
        _fibers.cache_clear()
        return ids

    yield feed
    _refine.cache_clear()
    _fibers.cache_clear()


def test_fibers_with_one_element_moved_are_refused(feed_fibers):
    n = 4
    ids, firsts, _ = recording_fiber_ids(n)
    keys = list(ids)
    # the last element that is no fiber's least, moved into the identity's fiber
    keys[max(set(range(len(ids))) - set(firsts))] = 0
    feed_fibers(keys)
    with pytest.raises(FalsificationError, match="Bonnafé-Iancu"):
        vogan_classes(n, ASYM[n])


def test_fibers_not_stable_under_the_maps_are_refused(feed_fibers):
    # the element partition with two elements of one seed class merged:
    # it refines the seed, but their images lie in two classes
    n = 3
    seed = rxi_partition(n, ASYM[n]).class_id
    final = vogan_classes(n, ASYM[n]).final.class_id
    x, y = next(
        (x, y)
        for y in range(len(seed))
        for x in range(y)
        if seed[x] == seed[y] and final[x] != final[y]
    )
    keys = list(range(len(seed)))
    keys[y] = x
    feed_fibers(keys)
    with pytest.raises(FalsificationError, match="Bonnafé-Iancu.* not stable"):
        vogan_classes(n, ASYM[n])


def test_fibers_that_do_not_refine_the_seed_are_refused(feed_fibers):
    # the orbits of both maps are stable under them, and coarser than the seed
    n = 4
    feed_fibers(list(xi_orbits(n, ASYM[n]).class_id))
    with pytest.raises(FalsificationError, match=r"Bonnafé-Iancu.* do not refine"):
        vogan_classes(n, ASYM[n])


@pytest.mark.parametrize("n", (4, 5))
def test_rounds_on_the_element_partition_end_at_the_classes_not_at_it(
    n, feed_fibers
):
    # the element partition is stable and refines the seed, so it is accepted
    # in place of the fibers; the rounds end at the coarser classes, so that
    # the classes are the fibers is a result, not forced by construction
    reference = reference_rounds(n, ASYM[n])
    fed = feed_fibers(range(group_order(n)))
    run = vogan_classes(n, ASYM[n])
    assert run.round_classes == tuple(r.num_classes for r in reference)
    assert run.final.class_id == reference[-1].class_id != fed
    assert run.final.labels == reference_minimal_index_labels(run.final.class_id)


@pytest.mark.parametrize("n", (5, 6))
def test_dominant_classes_are_the_recording_fibers(n):
    # for b > (n-1) a the left cells are the recording-bitableau fibers
    # (Bonnafe-Iancu, Represent. Theory 7, 2003); the oracle checks the
    # classes against the cells only up to rank 4
    run = vogan_classes(n, ASYM[n])
    assert run.final.same_blocks(recording_fibers(n))


def merged_region_pairs(dominant: GroupPartition, fibers) -> array | None:
    """The dominant ids with the two classes meeting each fiber merged.

    ``None`` when some fiber is not the union of exactly two dominant
    classes.
    """
    ids = dominant.class_id
    members = dominant.classes()
    keys = list(ids)
    for fiber in fibers:
        indices = set(map(element_index, fiber))
        met = sorted({ids[i] for i in indices})
        if len(met) != 2 or indices != {*members[met[0]], *members[met[1]]}:
            return None
        for i in members[met[1]]:
            keys[i] = met[0]
    return canonical_ids(keys)


@pytest.mark.parametrize("n", (5, 6))
def test_boundary_classes_merge_the_dominant_pairs_of_each_region_fiber(n):
    # at b = (n-1) a the cells are the dominant cells with the two cells of
    # each right-descent fiber of the region merged, every other cell kept
    # (the paper's statement); the oracle checks this only up to rank 4
    dominant = vogan_classes(n, ASYM[n]).final
    boundary = vogan_classes(n, WeightFunction(1, n - 1)).final
    assert merged_region_pairs(dominant, upsilon_decomposition(n)) == boundary.class_id


def test_boundary_check_sees_one_moved_element():
    n = 5
    dominant = vogan_classes(n, ASYM[n]).final
    boundary = vogan_classes(n, WeightFunction(1, n - 1)).final
    fibers = upsilon_decomposition(n)
    # one region element moved into the identity's class, outside the region
    moved = element_index(min(fibers[0]))

    def moved_into_identity_class(partition):
        keys = list(partition.class_id)
        keys[moved] = keys[0]
        return canonical_ids(keys)

    assert merged_region_pairs(dominant, fibers) != moved_into_identity_class(boundary)
    forged = GroupPartition(n=n, class_id=moved_into_identity_class(dominant))
    assert merged_region_pairs(forged, fibers) is None


def test_rank_six_dominant_round_counts():
    run = vogan_classes(6, ASYM[6])
    assert run.round_classes == (486, 1195, 1359, 1383, 1384)


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


def test_psi_builds_no_window_tuples():
    group_elements.cache_clear()
    _psi.cache_clear()
    for n in range(1, 7):
        assert len(build_psi(n, ASYM[n]).mapping) == group_order(n - 1)
    assert group_elements.cache_info().currsize == 0


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
    assert second.round_classes is first.round_classes
    assert second.final is first.final
    assert (run_summary(second)["a"], run_summary(second)["b"]) == (3, 5)
    assert xi_orbits(3, WeightFunction(3, 5)) is xi_orbits(3, WeightFunction(1, 7))
    flipped = vogan_classes(2, WeightFunction(2, 1))
    assert not flipped.final.same_blocks(vogan_classes(2, WeightFunction(1, 1)).final)


def test_run_validation():
    final = GroupPartition(n=2, class_id=[0, 1] * 4)
    with pytest.raises(InvalidInputError, match="at least the seed"):
        VoganRun(2, ASYM[2], (), final)
    with pytest.raises(InvalidInputError, match="split at least one class"):
        VoganRun(2, ASYM[2], (2, 2), final)
    with pytest.raises(InvalidInputError, match="match the last round"):
        VoganRun(2, ASYM[2], (1, 3), final)


def test_rounds_that_disagree_with_the_counts_are_refused():
    run = vogan_classes(3, ASYM[3])
    forged = VoganRun(3, ASYM[3], (1,) + run.round_classes, run.final)
    with pytest.raises(FalsificationError, match="rebuilt rounds"):
        forged.rounds


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


def per_element_tsv(partition):
    """The dump rendered element by element, as the reference."""
    return [
        f"{window_text(w)}\t{partition.label_of(partition.class_of(i))}"
        for i, w in enumerate(group_elements(partition.n))
        if partition.class_id[i] != OUTSIDE
    ]


def dump_partitions(n):
    """A partition of every kind a dump renders at rank ``n``, by name."""
    labelled = vogan_classes(n, ASYM[n]).final  # labels of 1 to 5 digits
    kinds = {
        "vogan": labelled,
        "rs-asymptotic": recording_fibers(n),  # labels with spaces
        "rxi a > b": rxi_partition(n, WeightFunction(2, 1)),
        "orbits right": xi_orbits(n, ASYM[n]),  # no labels
        "orbits left": xi_orbits(n, ASYM[n], side="left"),
        "area": _area_partition(n),  # elements outside the domain
    }
    if n <= 3:
        kinds["oracle-kl"] = left_cells(cached_kl(n, 1, n))
    block = group_order(n) // (2 * n)
    for name, outside in (("first", slice(block)), ("last", slice(-block, None))):
        keys = list(map(labelled.labels.__getitem__, labelled.class_id))
        keys[outside] = [None] * block
        kinds[f"{name} block outside"] = GroupPartition.from_keys(n, keys, label_fn=str)
    return kinds


@pytest.mark.parametrize("n", range(1, 7))
def test_tsv_matches_per_element_rendering(n):
    kinds = dump_partitions(n)
    assert kinds["vogan"].labels is not None and kinds["orbits left"].labels is None
    assert n == 1 or OUTSIDE in kinds["area"].class_id  # rank 1: all in the region
    assert all(" " in label for label in kinds["rs-asymptotic"].labels)
    for name, partition in kinds.items():
        expected = "\n".join(per_element_tsv(partition)) + "\n"
        assert "\n".join(classes_to_tsv(partition)) + "\n" == expected, name


@given(st.lists(st.integers(0, 6), max_size=30))
def test_minimal_index_labels_match_the_per_element_loop(keys):
    ids = canonical_ids(keys)
    elements = range(len(ids))  # each point its own least element
    assert _minimal_index_labels(ids, elements) == reference_minimal_index_labels(ids)


def test_tsv_skips_outside_elements_at_both_ends():
    ids = [OUTSIDE, 0, 1, 0, OUTSIDE, 1, 2, OUTSIDE]
    partition = GroupPartition(n=2, class_id=ids)
    lines = list(classes_to_tsv(partition))
    assert lines == per_element_tsv(partition)
    assert lines == ["-1,2\t0", "2,1\t1", "-2,1\t0", "-2,-1\t1", "1,-2\t2"]


def test_tsv_of_a_partition_with_no_domain_is_empty():
    partition = GroupPartition(n=2, class_id=[OUTSIDE] * 8, labels=())
    assert partition.num_classes == 0
    assert list(classes_to_tsv(partition)) == []
    assert list(classes_to_tsv(GroupPartition(n=2, class_id=[OUTSIDE] * 8))) == []


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
        "round_classes": [12, 16],
    }


# class counts per refinement round, seed first
ROUND_CLASSES = {(4, WeightFunction(1, 4)): [54, 76]}


@pytest.mark.parametrize("key", ROUND_CLASSES, ids=str)
def test_run_summary_counts_classes_per_round(key):
    n, weight = key
    counts = run_summary(vogan_classes(n, weight))["round_classes"]
    assert counts == ROUND_CLASSES[key]
    assert counts[0] == rxi_partition(n, weight).num_classes
