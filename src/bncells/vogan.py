"""Cell-cycling maps on parabolic subgroups and the classes they generate.

Two parabolic subsets carry a canonical "cycle the recording tableau" map:

- ``"J"`` (the swap generators): insertion on the all-positive window via the
  classic row bumping; the map keeps the insertion tableau and steps the
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
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .area import in_area_reduced
from .descents import rxi_partition
from .errors import FalsificationError, InvalidInputError, RegimeError
from .group import (
    SignedPerm,
    WeightFunction,
    coset_decompose,
    fix_last_projection,
    group_elements,
    group_order,
    inverse,
    inverse_index_table,
    mul,
    window_text,
)
from .partition import OUTSIDE, GroupPartition, canonical_ids
from .tableaux import (
    bipartitions,
    partitions,
    rs_classic,
    rs_classic_inverse,
    rs_generalized,
    rs_generalized_inverse,
    standard_bitableaux,
    standard_tableaux,
)

# ---------------------------------------------------------------------------
# parabolic index spaces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def parabolic_elements(subset_id: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The elements of the named parabolic, in its own canonical order.

    Subset "J" is enumerated as all-positive windows in lexicographic order;
    subset "K" reuses the canonical rank-``(n-1)`` enumeration (at ``n = 1``
    the parabolic is trivial).
    """
    if subset_id == "J":
        return tuple(itertools.permutations(range(1, n + 1)))
    if subset_id == "K":
        if n == 1:
            return ((),)
        return group_elements(n - 1)
    raise InvalidInputError(f"unsupported parabolic subset id {subset_id!r}")


@lru_cache(maxsize=None)
def _parabolic_index(subset_id: str, n: int) -> dict[tuple[int, ...], int]:
    return {u: i for i, u in enumerate(parabolic_elements(subset_id, n))}


@dataclass(frozen=True)
class CellularMap:
    """A permutation of a parabolic subgroup that cycles recording fibers.

    ``mapping`` is stored over the parabolic's own index space (see
    :func:`parabolic_elements`).
    """

    subset_id: str
    n: int
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.subset_id not in ("J", "K"):
            raise InvalidInputError(
                f"unsupported parabolic subset id {self.subset_id!r}"
            )
        expected = len(parabolic_elements(self.subset_id, self.n))
        if len(self.mapping) != expected:
            raise InvalidInputError(
                f"mapping covers {len(self.mapping)} elements, parabolic has "
                f"{expected}"
            )
        if sorted(self.mapping) != list(range(expected)):
            raise InvalidInputError("mapping is not a bijection")

    @property
    def parabolic_size(self) -> int:
        return len(self.mapping)

    def apply(self, u: Sequence[int]) -> tuple[int, ...]:
        """Image of a parabolic element given in the parabolic's own windows."""
        idx = _parabolic_index(self.subset_id, self.n)[tuple(u)]
        return parabolic_elements(self.subset_id, self.n)[self.mapping[idx]]


# ---------------------------------------------------------------------------
# the two concrete maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_epsilon(n: int) -> CellularMap:
    """Recording-cycling on the all-positive parabolic via classic insertion.

    For ``u`` with insertion pair ``(P, Q)`` the image has pair
    ``(P, next(Q))`` where ``next`` steps cyclically through the standard
    tableaux of the shape in increasing order of their row reading words.
    """
    index = _parabolic_index("J", n)
    images = [0] * len(index)
    for lam in partitions(n):
        tabs = standard_tableaux(lam)
        succ = {tabs[i]: tabs[(i + 1) % len(tabs)] for i in range(len(tabs))}
        for p in tabs:
            for q in tabs:
                u = rs_classic_inverse(p, q)
                v = rs_classic_inverse(p, succ[q])
                images[index[u]] = index[v]
    return CellularMap("J", n, tuple(images))


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
    elements = parabolic_elements("K", n)
    if len(elements) == 1:
        return CellularMap("K", n, (0,))
    index = _parabolic_index("K", n)
    images = [0] * len(elements)
    for shp in bipartitions(n - 1):
        bitabs = standard_bitableaux(shp)
        succ = {bitabs[i]: bitabs[(i + 1) % len(bitabs)] for i in range(len(bitabs))}
        for a_tab in bitabs:
            for b_tab in bitabs:
                u = rs_generalized_inverse(a_tab, b_tab)
                v = rs_generalized_inverse(a_tab, succ[b_tab])
                images[index[u]] = index[v]
    return CellularMap("K", n, tuple(images))


build_psi.cache_info = _psi.cache_info


# ---------------------------------------------------------------------------
# left extension
# ---------------------------------------------------------------------------


def left_extend(cmap: CellularMap, w: Sequence[int]) -> SignedPerm:
    """Apply the map through the minimal-coset decomposition of ``w``.

    ``w = x * u`` with ``u`` in the parabolic maps to ``x * cmap(u)``; the
    representative ``x`` is preserved (checked), the length in general is
    not.
    """
    dec = coset_decompose(w, cmap.subset_id)
    if cmap.subset_id == "J":
        part_image = cmap.apply(tuple(dec.part))
    else:
        small = fix_last_projection(dec.part)
        part_image = cmap.apply(small) + (len(w),)
    out = mul(dec.rep, part_image)
    if coset_decompose(out, cmap.subset_id).rep != dec.rep:
        raise FalsificationError(
            f"extension of {cmap.subset_id}-map moved the coset representative "
            f"of {tuple(w)}"
        )
    return SignedPerm(out)


@lru_cache(maxsize=None)
def extended_image_table(cmap: CellularMap) -> array:
    """Index-to-index table of the left extension over the whole group.

    For "K" the canonical enumeration is block-structured along the coset
    representatives, so the table is pure index arithmetic.  For "J" every
    element is ``r * u`` with ``r`` an increasing window (one per set of
    negated values) and ``u`` a pattern, a permutation of window positions;
    the table is filled one coset ``r`` at a time by
    ``index(r * u) -> index(r * map(u))``, reading the map's image of each
    of the ``n!`` patterns directly.  Each element then costs one window
    build and one index lookup.
    """
    n = cmap.n
    total = group_order(n)
    out = array("i", bytes(4 * total))
    mapping = cmap.mapping
    if cmap.subset_id == "K":
        m = cmap.parabolic_size
        for base in range(0, total, m):
            for j in range(m):
                out[base + j] = base + mapping[j]
        return out
    # A lookup of its own rather than the cached ``group_index``: at rank 7
    # it holds about 45 MB, released as soon as the table is built.
    index = {w: i for i, w in enumerate(group_elements(n))}
    positions = [[v - 1 for v in u] for u in parabolic_elements("J", n)]
    for negated in range(1 << n):
        rep = sorted(-v if negated >> (v - 1) & 1 else v for v in range(1, n + 1))
        coset = [index[tuple(map(rep.__getitem__, u))] for u in positions]
        for j, image in zip(coset, mapping):
            out[j] = coset[image]
    return out


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def orbits_of_image_tables(
    n: int, tables: Sequence[array], side: str = "right"
) -> GroupPartition:
    """Orbit partition of the group generated by the tabled permutations.

    ``side="right"`` gives the orbits themselves; ``side="left"`` the
    inverse-conjugated partition (``y`` joins ``w`` when ``y^-1`` and
    ``w^-1`` share an orbit).
    """
    if side not in ("right", "left"):
        raise InvalidInputError(f"side must be 'right' or 'left', got {side!r}")
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
    if side == "left":
        inv = inverse_index_table(n)
        ids = canonical_ids([ids[inv[i]] for i in range(total)])
    return GroupPartition(n=n, class_id=ids)


def xi_orbits(
    n: int, weight: WeightFunction, side: str = "right"
) -> GroupPartition:
    """Orbits of the group generated by both extended cycling maps.

    Precondition ``b > (n-2) a`` (inherited from the rank-down map).  Past
    that gate neither map reads the weight, so the orbits are cached on
    ``(n, side)`` alone and every weight of a rank shares them.
    """
    _check_psi_gate(n, weight)
    return _orbits(n, side)


@lru_cache(maxsize=None)
def _orbits(n: int, side: str) -> GroupPartition:
    eps = extended_image_table(build_epsilon(n))
    psi = extended_image_table(_psi(n))
    return orbits_of_image_tables(n, (eps, psi), side=side)


xi_orbits.cache_info = _orbits.cache_info


# ---------------------------------------------------------------------------
# class refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoganRun:
    """A partition-refinement run: the seed, every distinct round, the fixpoint."""

    n: int
    weight: WeightFunction
    rounds: tuple[GroupPartition, ...]
    final: GroupPartition

    def __post_init__(self) -> None:
        if not self.rounds:
            raise InvalidInputError("a run records at least the seed partition")
        if not self.final.same_blocks(self.rounds[-1]):
            raise InvalidInputError("final partition must match the last round")

    @property
    def round_count(self) -> int:
        """Number of refinement steps applied after the seed."""
        return len(self.rounds) - 1


def _minimal_index_labels(ids: Sequence[int]) -> tuple[str, ...]:
    first: dict[int, int] = {}
    for i, cid in enumerate(ids):
        if cid not in first:
            first[cid] = i
    return tuple(str(first[c]) for c in range(len(first)))


def vogan_classes(n: int, weight: WeightFunction) -> VoganRun:
    """Refine the gated-descent fibers until stable under both extended maps.

    Each round splits every class by the pair of classes its two images
    currently lie in, until a round splits nothing.  Final classes are
    labeled by their minimal element index.

    The weight is read in two places: the seed :func:`rxi_partition` reads
    its gate profile and whether ``a > b``, and :func:`build_psi` reads the
    gate ``b > (n-2) a``, one gate of that profile.  So the caller's gate is
    checked, then the rounds are cached on ``n`` and
    :meth:`WeightFunction.representative`, which keeps exactly what is
    read; the run returned carries the caller's own weight.
    """
    # only the gate here: a ψ built before the ε table would be alive during
    # that table's transient index and raise a cold rank-6 peak by 0.4 MB
    _check_psi_gate(n, weight)
    rounds, final = _refine(n, weight.representative(n))
    return VoganRun(n=n, weight=weight, rounds=rounds, final=final)


@lru_cache(maxsize=None)
def _refine(
    n: int, representative: WeightFunction
) -> tuple[tuple[GroupPartition, ...], GroupPartition]:
    eps = extended_image_table(build_epsilon(n))
    psi = extended_image_table(_psi(n))
    seed = rxi_partition(n, representative)
    rounds = [seed]
    cur = seed.class_id
    count = seed.num_classes
    # A key packs the class ids of an element and of its images in base
    # ``count``; ids are numbered by first appearance of their key.
    while True:
        seen: dict[int, int] = {}
        ids = [
            seen.setdefault((c * count + cur[e]) * count + cur[p], len(seen))
            for c, e, p in zip(cur, eps, psi)
        ]
        new = array("i", ids)
        if new == cur:
            break
        rounds.append(GroupPartition(n=n, class_id=new))
        cur, count = new, len(seen)
    final = GroupPartition(
        n=n, class_id=cur, labels=_minimal_index_labels(cur)
    )
    return tuple(rounds), final


vogan_classes.cache_info = _refine.cache_info


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------


def _insertion_keys(cmap: CellularMap):
    """Default (right-fiber, left-fiber) keys: insertion and recording sides."""
    elements = parabolic_elements(cmap.subset_id, cmap.n)
    right_keys = []
    left_keys = []
    if cmap.subset_id == "J":
        for u in elements:
            p, q = rs_classic(u)
            right_keys.append(p)
            left_keys.append(q)
    else:
        for u in elements:
            a_tab, b_tab = rs_generalized(u)
            right_keys.append(a_tab)
            left_keys.append(b_tab)
    return right_keys, left_keys


def verify_admissible(
    cmap: CellularMap,
    right_keys: Sequence | None = None,
    left_keys: Sequence | None = None,
) -> tuple[str, ...]:
    """Check the three cell conditions; return violation messages (expect none).

    The map must send each left fiber onto a left fiber, keep every element
    in its right fiber, and walk each right fiber in one full cycle.  By
    default fibers are the insertion/recording fibers of the parabolic; an
    oracle's cell keys can be passed instead.
    """
    size = cmap.parabolic_size
    if size == 1:
        return ()
    if (right_keys is None) != (left_keys is None):
        raise InvalidInputError("pass both oracle key sequences or neither")
    if right_keys is None:
        right_keys, left_keys = _insertion_keys(cmap)
    if len(right_keys) != size or len(left_keys) != size:
        raise InvalidInputError("oracle key sequences must cover the parabolic")
    violations = []

    left_fibers: dict = {}
    for i, key in enumerate(left_keys):
        left_fibers.setdefault(key, set()).add(i)
    fiber_sets = {frozenset(v) for v in left_fibers.values()}
    for key, fiber in left_fibers.items():
        image = frozenset(cmap.mapping[i] for i in fiber)
        if image not in fiber_sets:
            violations.append(
                f"left fiber of {key!r} maps onto a non-fiber set of size "
                f"{len(image)}"
            )

    for i in range(size):
        if right_keys[i] != right_keys[cmap.mapping[i]]:
            violations.append(f"element {i} leaves its right fiber")

    right_fibers: dict = {}
    for i, key in enumerate(right_keys):
        right_fibers.setdefault(key, set()).add(i)
    for key, fiber in right_fibers.items():
        start = min(fiber)
        seen = {start}
        cursor = cmap.mapping[start]
        while cursor != start:
            if cursor in seen or cursor not in fiber:
                break
            seen.add(cursor)
            cursor = cmap.mapping[cursor]
        if seen != fiber:
            violations.append(
                f"right fiber of {key!r} (size {len(fiber)}) is not a single "
                f"cycle (walked {len(seen)})"
            )
    return tuple(violations)


# ---------------------------------------------------------------------------
# the canonical-shape meeting property
# ---------------------------------------------------------------------------


def star_closed_form(z: Sequence[int]) -> bool:
    """O(1) window test for the canonical-shape meeting property.

    Holds unless ``z`` lies in the reduced staircase-shape region with its
    last entry or its inverse's last entry negative.
    """
    if not in_area_reduced(z):
        return True
    return z[-1] > 0 and inverse(z)[-1] > 0


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def classes_to_tsv(partition: GroupPartition) -> Iterator[str]:
    """One ``window<TAB>label`` line per in-domain element, in canonical order.

    The lines are yielded one at a time, so a dump never holds them all.
    """
    for i, w in enumerate(group_elements(partition.n)):
        if partition.in_domain(i):
            yield f"{window_text(w)}\t{partition.label_of(partition.class_of(i))}"


def run_summary(run: VoganRun) -> dict:
    """The JSON-ready summary of a refinement run."""
    return {
        "n": run.n,
        "a": run.weight.a,
        "b": run.weight.b,
        "num_classes": run.final.num_classes,
        "round_count": run.round_count,
    }


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
