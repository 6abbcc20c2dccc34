"""Cell-cycling maps on parabolic subgroups and the classes they generate.

Two parabolic subsets carry a canonical "cycle the recording tableau" map:

- ``"J"`` (the swap generators): insertion of the all-positive window, which
  is classic row bumping; the map keeps the insertion tableau and steps the
  recording tableau through the standard tableaux of its shape, cyclically,
  in increasing order of their row reading words.
- ``"K"`` (everything but the last swap): same construction one rank down
  using the signed insertion pair, valid once the weight is dominant enough
  for that rank (``b > (n-2) a``).

Each map extends to the whole group along minimal coset representatives:
``x * u  ->  x * map(u)``.  The two extended maps generate a permutation
group of the rank-``n`` elements; its orbits, and the partition-refinement
fixpoint seeded by the gated descent invariant, are the subject of this
module.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import add, lt
from typing import Iterator, NamedTuple, Sequence

from .descents import rxi_masks
from .errors import FalsificationError, InvalidInputError, RegimeError
from .group import (
    WeightFunction,
    group_order,
    inverse_index_table,
    lanes_at_least,
    repeat_by_block,
    tsv_blocks,
    window_columns,
)
from .partition import OUTSIDE, GroupPartition, canonical_ids
from .tableaux import insertion_codes, next_codes, recording_fiber_ids

# ---------------------------------------------------------------------------
# cellular maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellularMap:
    """A permutation of a parabolic subgroup that cycles recording fibers.

    ``mapping`` is stored over the parabolic's own index space, whose size
    is ``n!`` for "J" (the all-positive windows, in canonical order) and the
    rank-``(n-1)`` group order for "K" (the rank-``(n-1)`` canonical order).
    """

    subset_id: str
    n: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.subset_id not in ("J", "K"):
            raise InvalidInputError(
                f"unsupported parabolic subset id {self.subset_id!r}"
            )
        if self.subset_id == "J":
            expected = factorial(self.n)
        else:
            expected = group_order(self.n - 1)  # 1 at n = 1: the empty product
        if len(self.mapping) != expected:
            raise InvalidInputError(
                f"mapping covers {len(self.mapping)} elements, parabolic has "
                f"{expected}"
            )
        if sorted(self.mapping) != list(range(expected)):
            raise InvalidInputError("mapping is not a bijection")


# ---------------------------------------------------------------------------
# the two concrete maps
# ---------------------------------------------------------------------------


def _recording_steps(n: int, positive: bool) -> tuple[int, ...]:
    """Index map stepping each element's recording bitableau to the next one.

    The elements are the rank-``n`` windows, or the all-positive ones, with
    the P ids and Q codes of :func:`~bncells.tableaux.insertion_codes`.
    The elements of one P are one cycle: their Q have P's shape, and each
    steps to the next of that shape (:func:`~bncells.tableaux.next_codes`),
    as ``standard_bitableaux`` lists them.  The element of a pair ``(P, Q)``
    is found by the pair packed into one int.
    """
    _, pids, codes = insertion_codes(n, positive)
    step = next_codes(n, codes)
    span = group_order(n)  # every code is below it
    by_pair = dict(zip(map(add, map(span.__mul__, pids), codes), itertools.count()))
    images = map(add, map(span.__mul__, pids), map(step.__getitem__, codes))
    return tuple(map(by_pair.__getitem__, images))


@lru_cache(maxsize=None)
def build_epsilon(n: int) -> CellularMap:
    """Recording-cycling on the all-positive parabolic (classic insertion).

    For ``u`` with insertion pair ``(P, Q)`` the image has pair
    ``(P, next(Q))`` where ``next`` steps cyclically through the standard
    tableaux of the shape in increasing order of their row reading words.
    """
    return CellularMap("J", n, _recording_steps(n, positive=True))


def build_psi(n: int, weight: WeightFunction) -> CellularMap:
    """Recording-cycling on the rank-``(n-1)`` parabolic via signed insertion.

    Requires ``b > (n-2) a``: below that the one-rank-down cells are no
    longer the signed-insertion fibers and the construction loses its
    meaning.  That gate is all the map reads of the weight, so it is checked
    on every call and the map, which reads ``n`` alone, is cached on ``n``:
    a process builds it once per rank, whatever weights it serves.
    """
    _check_psi_gate(n, weight)
    return _psi(n)


def _check_psi_gate(n: int, weight: WeightFunction) -> None:
    if not weight.slope_exceeds(n - 2):
        raise RegimeError(
            f"recording-cycling on the rank-{n - 1} parabolic needs "
            f"b > {n - 2}*a; got (a, b) = ({weight.a}, {weight.b})"
        )


@lru_cache(maxsize=None)
def _psi(n: int) -> CellularMap:
    return CellularMap("K", n, _recording_steps(n - 1, positive=False))


build_psi.cache_info = _psi.cache_info

_RECORDING_FIBERS = "recording fibers (Bonnafé-Iancu, Represent. Theory 7, 2003)"


@lru_cache(maxsize=None)
def _fibers(n: int) -> tuple[array, array, array, array]:
    """The recording fibers, each fiber's least element, and ε and ψ read there.

    Both images are read at the least elements as fiber ids.  That the
    fibers are stable under both maps is checked over every element: the
    fiber of each element's image must be the one read at its fiber's
    least element.  Built once per rank, and shared by every weight with
    ``a <= b`` (see :func:`_refinement_space`).
    """
    eps = extended_image_table(build_epsilon(n))
    psi = extended_image_table(_psi(n))
    fine, firsts, _ = recording_fiber_ids(n)
    images = []
    for table in (eps, psi):
        at_points = array("i", map(fine.__getitem__, map(table.__getitem__, firsts)))
        if not _lifts_back(n, fine, at_points, fine, table):
            raise FalsificationError(
                f"rank {n}: the {_RECORDING_FIBERS} are not stable under ε and ψ"
            )
        images.append(at_points)
    # kept as an array, not a list of int objects, since the cache outlives the run
    return fine, array("i", firsts), *images


def _negated_masks(n: int) -> bytes:
    """The "J"-coset of each element: bit ``v - 1`` set for each value ``-v``.

    Each column holds the bit of its negated value, and the columns are
    summed, one 8-bit lane per element.
    """
    bits = window_columns(n, lambda v: 1 << -v - 1 if v < 0 else 0)
    return sum(bits).to_bytes(group_order(n), "little")


def _pattern_ranks(n: int) -> array:
    """Each element's pattern rank among the all-positive windows in canonical order.

    ``w = r * u`` with ``r`` increasing compares like its pattern ``u``, and
    canonical order keys by the last entry first, so the rank is the sum of
    ``m! * #{j < m : w(j) > w(m)}`` over positions ``m`` from 0.  Counts
    are summed lane-wise comparisons of columns in 8-bit lanes, weighted in
    16-bit lanes and read back as ``array("H")``.
    """
    columns = list(window_columns(n))
    total = group_order(n)
    wide = bytearray(2 * total)
    ranks = 0
    for m in range(1, n):
        count = sum(lanes_at_least(columns[j], columns[m], n) for j in range(m))
        wide[::2] = count.to_bytes(total, "little")
        ranks += factorial(m) * int.from_bytes(wide, "little")
    out = array("H", ranks.to_bytes(2 * total, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


@lru_cache(maxsize=None)
def extended_image_table(cmap: CellularMap) -> array:
    """Index-to-index table of the left extension over the whole group.

    For "K" the canonical enumeration is block-structured along the coset
    representatives, so the table is pure index arithmetic.  For "J" every
    element is ``r * u`` with ``r`` an increasing window (one per set of
    negated values) and ``u`` a pattern, and maps to ``r * map(u)``.  Each
    element gets the coordinate ``mask * n! + pattern`` from
    :func:`_negated_masks` and :func:`_pattern_ranks`.  The parabolic is
    indexed in canonical order, so a pattern's index there is its pattern
    rank, and the image of an element is the element at its coordinate
    with the pattern moved.
    """
    n = cmap.n
    mapping = cmap.mapping
    if cmap.subset_id == "K":
        return repeat_by_block([array("i", mapping)], 2 * n)[0]
    size = factorial(n)
    # how far each pattern rank moves under the map
    shift = [image - j for j, image in enumerate(mapping)]
    patterns = _pattern_ranks(n)
    coords = array("i", map(add, map(size.__mul__, _negated_masks(n)), patterns))
    where = array("i", bytes(4 * len(coords)))
    for i, c in enumerate(coords):
        where[c] = i
    return array(
        "i", map(where.__getitem__, map(add, coords, map(shift.__getitem__, patterns)))
    )


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def orbits_of_image_tables(n: int, tables: Sequence[array]) -> GroupPartition:
    """Orbit partition of the group generated by the tabled permutations."""
    total = group_order(n)
    # Each orbit is labelled whole when its least index is reached, so ids
    # come out in order of first appearance.  Following the tables forward
    # reaches the whole orbit because each table is a permutation.
    ids = array("i", [OUTSIDE]) * total
    count = 0
    for start in range(total):
        if ids[start] != OUTSIDE:
            continue
        ids[start] = count
        stack = [start]
        while stack:
            i = stack.pop()
            for table in tables:
                j = table[i]
                if ids[j] == OUTSIDE:
                    ids[j] = count
                    stack.append(j)
        count += 1
    return GroupPartition(n=n, class_id=ids)


def xi_orbits(
    n: int, weight: WeightFunction, side: str = "right"
) -> GroupPartition:
    """Orbits of the group generated by both extended cycling maps.

    ``side="right"`` gives the orbits themselves; ``side="left"`` the
    inverse-conjugated partition (``y`` joins ``w`` when ``y^-1`` and
    ``w^-1`` share an orbit).

    Precondition ``b > (n-2) a`` (inherited from the rank-down map).  Past
    that gate neither map reads the weight, so the orbits are cached on
    ``(n, side)`` alone and every weight of a rank shares them.
    """
    _check_psi_gate(n, weight)
    return _orbits(n, side)


@lru_cache(maxsize=None)
def _orbits(n: int, side: str) -> GroupPartition:
    if side == "left":
        # relabelled from the right orbits, which are cached for their own requests
        right = _orbits(n, "right").class_id
        ids = canonical_ids(map(right.__getitem__, inverse_index_table(n)))
        return GroupPartition(n=n, class_id=ids)
    if side != "right":
        raise InvalidInputError(f"side must be 'right' or 'left', got {side!r}")
    eps = extended_image_table(build_epsilon(n))
    psi = extended_image_table(_psi(n))
    return orbits_of_image_tables(n, (eps, psi))


xi_orbits.cache_info = _orbits.cache_info


# ---------------------------------------------------------------------------
# class refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoganRun:
    """A partition-refinement run: the class count of each round, and the fixpoint.

    ``round_classes`` counts the classes of the seed and of every distinct
    round after it.  The round partitions are not kept: :attr:`rounds`
    runs the refinement again to rebuild them.
    """

    n: int
    weight: WeightFunction
    round_classes: tuple[int, ...]
    final: GroupPartition

    def __post_init__(self) -> None:
        counts = tuple(self.round_classes)
        object.__setattr__(self, "round_classes", counts)
        if not counts:
            raise InvalidInputError("a run records at least the seed partition")
        if not all(map(lt, counts, counts[1:])):
            raise InvalidInputError("every round must split at least one class")
        if counts[-1] != self.final.num_classes:
            raise InvalidInputError("final partition must match the last round")

    @property
    def round_count(self) -> int:
        """Number of refinement steps applied after the seed."""
        return len(self.round_classes) - 1

    @property
    def rounds(self) -> tuple[GroupPartition, ...]:
        """The seed and every distinct round over the elements, rebuilt on each call.

        The rebuilt rounds are checked against ``round_classes`` and
        ``final``.
        """
        n = self.n
        space = _refinement_space(n, self.weight.representative(n))
        rounds = tuple(
            GroupPartition(n=n, class_id=_lift(n, ids, space.fine))
            for ids, _ in _rounds(space)
        )
        counts = tuple(r.num_classes for r in rounds)
        if counts != self.round_classes or not self.final.same_blocks(rounds[-1]):
            raise FalsificationError(
                f"rank {n}: rebuilt rounds {counts} differ from the run's "
                f"{self.round_classes}"
            )
        return rounds


def _first_indices(ids: Sequence[int]) -> list[int]:
    """The least element index of each class, by class id."""
    # read backwards, each class's entry is overwritten last by its least index
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return list(map(first.__getitem__, range(len(first))))


def _minimal_index_labels(ids: Sequence[int], firsts: Sequence[int]) -> tuple[str, ...]:
    """Each class named by its least element index.

    ``ids`` number points with least elements ``firsts``, numbered in the
    order of those, so a class's first point holds its least element.
    """
    return tuple(map(str, map(firsts.__getitem__, _first_indices(ids))))


def vogan_classes(n: int, weight: WeightFunction) -> VoganRun:
    """Refine the gated-descent fibers until stable under both extended maps.

    Each round splits every class by the pair of classes its two images
    currently lie in, until a round splits nothing.  Final classes are
    labeled by their minimal element index.  The rounds of every weight
    with ``a <= b`` run on one point per recording fiber of the rank, a
    finer stable partition built and checked once per rank
    (:func:`_refinement_space`); those of ``a > b`` run on the elements.

    The weight is read in two places: the seed masks
    (:func:`~bncells.descents.rxi_masks`) read its gate profile and whether
    ``a > b``, and :func:`build_psi` reads the gate ``b > (n-2) a``, one
    gate of that profile.  So the caller's gate is
    checked, then the run is cached on ``n`` and
    :meth:`WeightFunction.representative`, which keeps exactly what is
    read; the run returned carries the caller's own weight.
    """
    _check_psi_gate(n, weight)
    round_classes, final = _refine(n, weight.representative(n))
    return VoganRun(n=n, weight=weight, round_classes=round_classes, final=final)


@lru_cache(maxsize=None)
def _refine(
    n: int, representative: WeightFunction
) -> tuple[tuple[int, ...], GroupPartition]:
    space = _refinement_space(n, representative)
    counts = []
    for ids, count in _rounds(space):
        counts.append(count)
    return tuple(counts), GroupPartition(
        n=n,
        class_id=_lift(n, ids, space.fine),
        labels=_minimal_index_labels(ids, space.firsts),
    )


vogan_classes.cache_info = _refine.cache_info


def _rounds(space: _Space) -> Iterator[tuple[array, int]]:
    """The seed's class ids and class count, then each round's, to the fixpoint.

    A round keys every point by its own class and the classes its two
    images lie in, packed in base ``count``, and numbers the keys by first
    appearance; the loop stops at the first round that splits nothing.
    """
    ids, eps, psi = space.seed, space.eps, space.psi
    count = max(ids) + 1
    while True:
        yield ids, count
        seen: dict[int, int] = {}
        new = array(
            "i",
            [
                seen.setdefault((c * count + ids[e]) * count + ids[p], len(seen))
                for c, e, p in zip(ids, eps, psi)
            ],
        )
        if new == ids:
            return
        ids, count = new, len(seen)


class _Space(NamedTuple):
    """The points the rounds run on, with the seed and both maps read there.

    ``seed`` is the seed's ids on the points, ``eps`` and ``psi`` the
    points' image tables, ``fine`` each element's point and ``firsts`` each
    point's least element.
    """

    seed: array
    eps: Sequence[int]
    psi: Sequence[int]
    fine: Sequence[int]
    firsts: Sequence[int]


def _refinement_space(n: int, representative: WeightFunction) -> _Space:
    """What the rounds of one representative run on.

    Let ``R`` be a partition that is stable under ε and ψ (the class of
    ``x`` fixes the classes of ``ε(x)`` and ``ψ(x)``) and refines the
    seed.  Then every round is a union of ``R``-classes, by induction on
    the rounds (the setting of Paige and Tarjan's coarsest stable
    refinement, SIAM J. Comput. 16, 1987).  So the rounds run on one point
    per ``R``-class, its least element, where its seed mask and images are
    read; classes are numbered by least element, so the ids keep
    first-appearance order once lifted back through ``R``, and the round
    counts and final partition are those of the rounds over the elements.

    For ``a <= b``, ``R`` is the recording fibers of the rank
    (:func:`_fibers`), the left cells for ``b > (n-1) a`` (Bonnafé-Iancu,
    Represent. Theory 7, 2003).  The theorem only supplies ``R``: its
    stability is checked once per rank, and that it refines this
    representative's seed is checked here, over every element, each
    element's own mask against its point's.  A failure raises
    :class:`FalsificationError` naming the theorem.  For ``a > b``, which
    the ψ gate admits only at ranks 1 and 2, ``R`` is the element
    partition.
    """
    # the tables, then the masks, then the fibers: the order of the lowest peak
    eps = extended_image_table(build_epsilon(n))
    psi = extended_image_table(_psi(n))
    masks = rxi_masks(n, representative)
    if representative.a > representative.b:
        firsts = range(len(masks))
        fine = array("i", firsts)
    else:
        fine, firsts, eps, psi = _fibers(n)
    point_masks = array(masks.typecode, map(masks.__getitem__, firsts))
    # the element partition refines every seed, so only the fibers can fail here
    if not _lifts_back(n, fine, point_masks, masks):
        raise FalsificationError(
            f"rank {n}: the {_RECORDING_FIBERS} do not refine the seed "
            f"of ({representative.a},{representative.b})"
        )
    return _Space(canonical_ids(point_masks), eps, psi, fine, firsts)


def _lifts_back(
    n: int,
    fine: array,
    at_points: array,
    values: array,
    table: Sequence[int] | None = None,
) -> bool:
    """Whether ``at_points[fine[x]]`` is every element ``x``'s own value.

    The value of ``x`` is ``values[table[x]]``, or ``values[x]`` without a
    table.  Elements are compared one "K"-coset block at a time, so only a
    block's values are held.
    """
    lift = at_points.tolist().__getitem__
    at = values.__getitem__
    span = len(fine) // (2 * n)
    for start in range(0, len(fine), span):
        block = slice(start, start + span)
        own = list(values[block]) if table is None else list(map(at, table[block]))
        if own != list(map(lift, fine[block])):
            return False
    return True


def _lift(n: int, ids: array, fine: array) -> array:
    """Element-level ids of a partition of ``fine``'s classes.

    With one class per point the ids are ``0, 1, ...`` in point order, so
    the lifted ids are ``fine`` itself, which is returned.  Otherwise they
    are gathered from a list of the class ids, one "K"-coset block at a
    time.
    """
    if max(ids) + 1 == len(ids):
        return fine
    at = ids.tolist().__getitem__
    out = array("i")
    span = len(fine) // (2 * n)
    for start in range(0, len(fine), span):
        out.fromlist(list(map(at, fine[start : start + span])))
    return out


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def classes_to_tsv(partition: GroupPartition) -> Iterator[str]:
    """The lines of :func:`group.tsv_blocks`, without their newlines.

    Only one block of lines is held at a time.
    """
    for block in tsv_blocks(partition):
        yield from block.decode().split("\n")[:-1]


def run_summary(run: VoganRun) -> dict:
    """The JSON-ready summary of a refinement run."""
    return {
        "n": run.n,
        "a": run.weight.a,
        "b": run.weight.b,
        "num_classes": run.final.num_classes,
        "round_count": run.round_count,
        "round_classes": list(run.round_classes),
    }


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
