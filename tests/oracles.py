"""Independent oracles, reference code and the paper's statements, for the tests.

The oracles are implemented from scratch with different data structures and
algorithms than the package under test: elements are value maps on
``{±1, ..., ±n}``, lengths come from breadth-first search over the Cayley
graph, suffix relations come from brute-force word enumeration.  Slow and
dumb on purpose.  :func:`orbit_meets_canonical` is the exception: it is
the existential definition that :func:`star_closed_form` replaces, so it is
written with the library's own pieces.  The ``reference_*`` functions are
the per-element loops that builtins replaced in the library (id density,
canonical ids, minimal-index labels, window texts, recording fibers) or
that a cheaper scheme replaced (the refinement rounds, each run on the
elements and kept), kept to compare with.  :func:`t_basis`,
:func:`h_add_scaled` and :func:`reference_symmetrized_nonneg` are the
Hecke arithmetic on ``{index: {exp: coeff}}`` dicts that the library held
before it packed each polynomial into one int; the tests build expected
elements with them.
:func:`coset_product_elements` is the canonical order by its definition,
one window product per element, which the library's enumeration buffer must
reproduce.  The validated tableau objects, the reference insertion
:func:`rs_generalized` (the library's row lists, frozen into those objects
and rendered by their own code), the inverse insertion maps, the listings
of standard (bi)tableaux, :func:`longest_parabolic` and
:func:`canonical_element` are reference code that only these oracles and
the unit tests read.

The last section is not written from scratch.  It holds element-wise
helpers that the library once carried and no command runs: reduced words,
coset decompositions, the parabolic index spaces, the admissibility check
of a cycling map, right and two-sided cells, the rewriting moves one
window at a time and the bridge search; and the paper's statements that
the tests check: the bridge path exists, and the closed form of the
canonical-shape meeting property on the reduced staircase region.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from bncells.area import in_area
from bncells.descents import rxi_partition
from bncells.errors import FalsificationError, InvalidInputError
from bncells.group import (
    SignedPerm,
    check_enumeration_rank,
    check_letters,
    element_index,
    group_elements,
    inverse,
    inverse_index_table,
    mul,
    mul_gen_right,
    right_descents,
    window_text,
)
from bncells.hecke import (
    KLBasis,
    left_cells,
    left_successors,
    strongly_connected_components,
)
from bncells.knuth import MOVE_KINDS, _scope
from bncells.partition import OUTSIDE, GroupPartition, canonical_ids
from bncells.tableaux import Partition, conjugate_partition, insertion_rows, partitions
from bncells.vogan import CellularMap, build_epsilon, build_psi, extended_image_table

# Generator letter codes, mirroring the library convention: 0 is the sign
# change, i >= 1 is the adjacent swap at positions i, i+1.


def oracle_generator_map(n: int, g: int) -> dict[int, int]:
    """Generator as a value map on {±1..±n}, built independently."""
    m = {i: i for i in range(1, n + 1)}
    m.update({-i: -i for i in range(1, n + 1)})
    if g == 0:
        m[1], m[-1] = -1, 1
    else:
        m[g], m[g + 1] = g + 1, g
        m[-g], m[-(g + 1)] = -(g + 1), -g
    return m


def oracle_compose(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    """(f ∘ g)(x) = f(g(x))."""
    return {x: f[gx] for x, gx in g.items()}


def oracle_window(m: dict[int, int]) -> tuple[int, ...]:
    n = len(m) // 2
    return tuple(m[i] for i in range(1, n + 1))


def oracle_from_window(w: tuple[int, ...]) -> dict[int, int]:
    m = {}
    for i, x in enumerate(w, start=1):
        m[i] = x
        m[-i] = -x
    return m


def oracle_eval_word(n: int, word: tuple[int, ...]) -> tuple[int, ...]:
    """Evaluate a letter word left-to-right by value-map composition."""
    m = {i: i for i in range(-n, n + 1) if i != 0}
    for g in word:
        m = oracle_compose(m, oracle_generator_map(n, g))
    return oracle_window(m)


@functools.lru_cache(maxsize=None)
def bfs_lengths(n: int) -> dict[tuple[int, ...], int]:
    """Cayley-graph distance from the identity for every element (BFS)."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    gens = [oracle_generator_map(n, g) for g in range(n)]
    while queue:
        w = queue.popleft()
        wm = oracle_from_window(w)
        for gm in gens:
            nxt = oracle_window(oracle_compose(wm, gm))
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


@functools.lru_cache(maxsize=None)
def reduced_words(n: int, w: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All reduced words of ``w``, by peeling BFS-certified right descents."""
    dist = bfs_lengths(n)
    if dist[w] == 0:
        return frozenset({()})
    out = set()
    wm = oracle_from_window(w)
    for g in range(n):
        shorter = oracle_window(oracle_compose(wm, oracle_generator_map(n, g)))
        if dist[shorter] < dist[w]:
            for word in reduced_words(n, shorter):
                out.add(word + (g,))
    return frozenset(out)


def oracle_is_suffix(n: int, y: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Trailing-segment search over all reduced words (exponential; tiny n)."""
    ys = reduced_words(n, y)
    k = bfs_lengths(n)[y]
    return any(word[len(word) - k :] in ys for word in reduced_words(n, w))


def oracle_knuth_closure(
    windows: list[tuple[int, ...]],
    neighbors,
) -> dict[tuple[int, ...], int]:
    """Connected components of an undirected move relation, by plain BFS.

    ``neighbors(w)`` returns the adjacent windows.  Returns a dense component
    id per window, numbered by first appearance in ``windows`` order.
    """
    comp: dict[tuple[int, ...], int] = {}
    next_id = 0
    for w in windows:
        if w in comp:
            continue
        comp[w] = next_id
        queue = deque([w])
        while queue:
            cur = queue.popleft()
            for nxt in neighbors(cur):
                if nxt not in comp:
                    comp[nxt] = next_id
                    queue.append(nxt)
        next_id += 1
    return comp


def oracle_pair_refinement(seed, maps) -> set[frozenset[int]]:
    """Coarsest refinement of ``seed`` stable under every map, over pairs.

    ``seed`` gives a class key per element and each map an image index per
    element.  Two elements are told apart when their keys differ, or when
    some map sends them to a pair already told apart; the sweep repeats
    until nothing new is told apart.  Returns the blocks as index sets.
    """
    size = len(seed)
    apart = [[seed[x] != seed[y] for y in range(size)] for x in range(size)]
    changed = True
    while changed:
        changed = False
        for x in range(size):
            row = apart[x]
            for y in range(size):
                if not row[y] and any(apart[f[x]][f[y]] for f in maps):
                    row[y] = True
                    changed = True
    return {
        frozenset(y for y in range(size) if not apart[x][y]) for x in range(size)
    }


def oracle_t_mul_gen(tables, weight, h, g, side="left"):
    """``T_g * h`` (``side="left"``) or ``h * T_g``, on ``{index: {exp: coeff}}``.

    The quadratic relation gives ``T_g T_y = T_{gy}`` when ``g`` lengthens
    ``y``, and ``T_{gy} + (v^c - v^-c) T_y`` when it shortens ``y``, with
    ``c`` the generator's weight.  Terms are summed in plain dicts and zeros
    are dropped at the end.
    """
    table = tables.lmul[g] if side == "left" else tables.rmul[g]
    c = weight.letter_weight(g)
    out: dict[int, dict[int, int]] = {}

    def add(i, e, k):
        poly = out.setdefault(i, {})
        poly[e] = poly.get(e, 0) + k

    for i, poly in h.items():
        j = table[i]
        for e, k in poly.items():
            add(j, e, k)
            if tables.length[j] < tables.length[i]:
                add(i, e + c, k)
                add(i, e - c, -k)
    cleaned = {i: {e: k for e, k in p.items() if k} for i, p in out.items()}
    return {i: p for i, p in cleaned.items() if p}


def t_basis(i: int) -> dict[int, dict[int, int]]:
    """The basis element ``T_w`` for the element with index ``i``."""
    return {i: {0: 1}}


def h_add_scaled(target, source, factor: dict[int, int]) -> None:
    """In-place ``target += factor * source`` on ``{index: {exp: coeff}}``.

    ``source`` is ``(index, (exp, coeff) pairs)`` terms; zeros are stripped.
    """
    for i, poly in source:
        cur = target.setdefault(i, {})
        for k, f in factor.items():
            for e, c in poly:
                new = cur.get(e + k, 0) + f * c
                if new:
                    cur[e + k] = new
                else:
                    cur.pop(e + k, None)
        if not cur:
            del target[i]


def reference_symmetrized_nonneg(p: dict[int, int]) -> dict[int, int]:
    """The unique bar-invariant polynomial matching ``p`` in degrees >= 0.

    Take the coefficients of ``p`` in non-negative degrees and mirror the
    strictly positive ones.
    """
    out: dict[int, int] = {}
    for k, c in p.items():
        if k >= 0:
            out[k] = out[-k] = c
    return out


# ---------------------------------------------------------------------------
# reference tableau code: validated tableaux, insertion and its inverse, and
# listings of standard fillings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bipartition:
    """An ordered pair of partitions; sizes add up to the rank."""

    plus_part: Partition
    minus_part: Partition

    @property
    def size(self) -> int:
        return sum(self.plus_part) + sum(self.minus_part)

    def to_text(self) -> str:
        left = ",".join(map(str, self.plus_part)) or "-"
        right = ",".join(map(str, self.minus_part)) or "-"
        return f"({left} | {right})"


def bipartitions(n: int) -> Iterator[Bipartition]:
    """All bipartitions of ``n``, larger positive component first.

    >>> [bp.to_text() for bp in bipartitions(1)]
    ['(1 | -)', '(- | 1)']
    """
    for k in range(n, -1, -1):
        for plus in partitions(k):
            for minus in partitions(n - k):
                yield Bipartition(plus, minus)


@dataclass(frozen=True)
class StandardTableau:
    """Rows strictly increase left-to-right and down each column; distinct entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if not all(rows) or any(len(a) < len(b) for a, b in zip(rows, rows[1:])):
            raise InvalidInputError(f"row lengths must be a partition: {rows}")
        if len(self.entries) != self.size:
            raise InvalidInputError(f"repeated tableau entry: {rows}")
        pairs = [(a, b) for row in rows for a, b in zip(row, row[1:])]
        pairs += [pair for up, down in zip(rows, rows[1:]) for pair in zip(up, down)]
        if any(a >= b for a, b in pairs):
            raise InvalidInputError(f"rows and columns must strictly increase: {rows}")

    @property
    def shape(self) -> Partition:
        return tuple(map(len, self.rows))

    @property
    def size(self) -> int:
        return sum(self.shape)

    @property
    def entries(self) -> frozenset[int]:
        return frozenset(x for row in self.rows for x in row)

    def to_text(self) -> str:
        return ";".join(" ".join(map(str, row)) for row in self.rows) or "-"


@dataclass(frozen=True)
class Bitableau:
    """A pair of standard tableaux whose entries partition ``{1, ..., size}``."""

    plus: StandardTableau
    minus: StandardTableau

    def __post_init__(self) -> None:
        if self.plus.entries | self.minus.entries != set(range(1, self.size + 1)):
            raise InvalidInputError(f"entries must partition 1..size: {self.to_text()}")

    @property
    def shape(self) -> Bipartition:
        return Bipartition(self.plus.shape, self.minus.shape)

    @property
    def size(self) -> int:
        return self.plus.size + self.minus.size

    def to_text(self) -> str:
        return f"{self.plus.to_text()} | {self.minus.to_text()}"


def rs_generalized(w: Sequence[int]) -> tuple[Bitableau, Bitableau]:
    """The insertion and recording bitableaux of ``w``, validated.

    >>> [b.to_text() for b in rs_generalized((3, 1, 2))]  # classic RS
    ['1 2;3 | -', '1 3;2 | -']
    """
    plus, minus, plus_rec, minus_rec = map(StandardTableau, insertion_rows(w))
    return Bitableau(plus, minus), Bitableau(plus_rec, minus_rec)


def shape(w: Sequence[int]) -> Bipartition:
    """Common shape of the insertion and recording bitableaux of ``w``.

    >>> shape((-7, -5, 6, 4, 3, -2, 1)).to_text()
    '(1,1,1,1 | 1,1,1)'
    """
    return rs_generalized(w)[0].shape


def _reverse_insert(rows: list[list[int]], r: int) -> int:
    """Undo an insertion whose final box was at the end of row ``r``."""
    x = rows[r].pop()
    if not rows[r]:
        del rows[r]
    for rr in range(r - 1, -1, -1):
        row = rows[rr]
        c = bisect_left(row, x) - 1
        x, row[c] = row[c], x
    return x


def rs_classic_inverse(P: StandardTableau, Q: StandardTableau) -> tuple[int, ...]:
    """The ``u`` with ``rs_generalized(u) == ((P | -), (Q | -))``; equal shapes."""
    if P.shape != Q.shape:
        raise InvalidInputError("insertion/recording shapes differ")
    p_rows = [list(r) for r in P.rows]
    where = {x: r for r, row in enumerate(Q.rows) for x in row}
    n = P.size
    out = [0] * n
    for j in range(n, 0, -1):
        out[j - 1] = _reverse_insert(p_rows, where[j])
    return tuple(out)


def rs_generalized_inverse(A: Bitableau, B: Bitableau) -> SignedPerm:
    """Inverse of :func:`rs_generalized`; requires componentwise equal shapes."""
    if A.shape != B.shape:
        raise InvalidInputError("insertion/recording shapes differ")
    ap = [list(r) for r in A.plus.rows]
    am = [list(r) for r in A.minus.rows]
    where_plus = {x: r for r, row in enumerate(B.plus.rows) for x in row}
    where_minus = {x: r for r, row in enumerate(B.minus.rows) for x in row}
    n = A.size
    out = [0] * n
    for j in range(n, 0, -1):
        if j in where_plus:
            out[j - 1] = _reverse_insert(ap, where_plus[j])
        else:
            out[j - 1] = -_reverse_insert(am, where_minus[j])
    return SignedPerm(out)


def conjugate(bp: Bipartition) -> Bipartition:
    """Transpose both components *and* swap their order.

    >>> conjugate(Bipartition((2, 1), (1,)))
    Bipartition(plus_part=(1,), minus_part=(2, 1))
    """
    return Bipartition(
        conjugate_partition(bp.minus_part), conjugate_partition(bp.plus_part)
    )


def reading_word(t: StandardTableau) -> tuple[int, ...]:
    """The entries row by row: the order the tableau listings sort by."""
    return tuple(x for row in t.rows for x in row)


def _removable_corners(shape: Sequence[int]) -> list[int]:
    return [
        r
        for r in range(len(shape))
        if r == len(shape) - 1 or shape[r] > shape[r + 1]
    ]


def standard_tableaux(
    shape: Partition, entries: Iterable[int] | None = None
) -> list[StandardTableau]:
    """All standard fillings of ``shape`` with the given entry set.

    Entries default to ``1..size``; any distinct integers work (the filling
    is standard relative to their order).

    >>> [t.to_text() for t in standard_tableaux((2, 1))]
    ['1 2;3', '1 3;2']
    """
    total = sum(shape)
    ent = tuple(range(1, total + 1)) if entries is None else tuple(sorted(entries))
    if len(ent) != total or len(set(ent)) != total:
        raise InvalidInputError("entry set size must match the shape")

    def rec(sh: tuple[int, ...], upto: int) -> list[tuple[tuple[int, ...], ...]]:
        if not sh:
            return [()]
        out = []
        x = ent[upto - 1]
        for r in _removable_corners(sh):
            smaller = tuple(
                length - (1 if i == r else 0) for i, length in enumerate(sh)
            )
            if smaller and smaller[-1] == 0:
                smaller = smaller[:-1]
            for rows in rec(smaller, upto - 1):
                padded = list(rows) + [()] * (len(sh) - len(rows))
                padded[r] = padded[r] + (x,)
                out.append(tuple(padded))
        return out

    result = [StandardTableau(rows) for rows in rec(shape, total)]
    result.sort(key=reading_word)
    return result


def standard_bitableaux(shape: Bipartition) -> list[Bitableau]:
    """All standard bitableaux of the given shape (entries ``1..size``)."""
    n = shape.size
    k = sum(shape.plus_part)
    out = []
    for plus_entries in itertools.combinations(range(1, n + 1), k):
        minus_entries = tuple(sorted(set(range(1, n + 1)) - set(plus_entries)))
        for tp in standard_tableaux(shape.plus_part, plus_entries):
            for tm in standard_tableaux(shape.minus_part, minus_entries):
                out.append(Bitableau(tp, tm))
    out.sort(key=lambda b: reading_word(b.plus) + (0,) + reading_word(b.minus))
    return out


def longest_parabolic(n: int, gens: Iterable[int]) -> SignedPerm:
    """Longest element of the standard parabolic subgroup generated by ``gens``.

    Built by greedy ascent: repeatedly right-multiply by any generator that
    increases length, until every generator is a descent.

    >>> longest_parabolic(3, (1, 2)).window      # reversal of the positive block
    (3, 2, 1)
    >>> longest_parabolic(2, (0, 1)).window      # longest element of the full group
    (-1, -2)
    """
    gens = tuple(sorted(check_letters(n, gens)))
    w: Sequence[int] = tuple(range(1, n + 1))
    progressed = True
    while progressed:
        progressed = False
        for g in gens:
            if g not in right_descents(w):
                w = mul_gen_right(w, g)
                progressed = True
    return SignedPerm(w)


def canonical_element(shape_: Bipartition, n: int) -> SignedPerm:
    """A distinguished element whose insertion shape is the conjugate of ``shape_``.

    Constructed as the longest element of the swap-only parabolic whose block
    sizes are the concatenated parts (positive component first), multiplied by
    the longest element of the rank-``q`` sign-change subgroup, where ``q``
    is the size of the positive component.  The resulting shape is verified.

    >>> canonical_element(Bipartition((2,), (2,)), 4).window
    (-2, -1, 4, 3)
    """
    if shape_.size != n:
        raise InvalidInputError(f"bipartition of size {shape_.size} in rank {n}")
    q = sum(shape_.plus_part)
    cuts = set()
    acc = 0
    for part in shape_.plus_part + shape_.minus_part:
        acc += part
        if acc < n:
            cuts.add(acc)
    gens = [i for i in range(1, n) if i not in cuts]
    w_blocks = longest_parabolic(n, gens)
    w_signs = tuple(range(-1, -q - 1, -1)) + tuple(range(q + 1, n + 1))
    out = SignedPerm(mul(w_blocks, w_signs))
    got = shape(out)
    expected = conjugate(shape_)
    if got != expected:
        raise FalsificationError(
            f"canonical element shape mismatch: got {got.to_text()}, "
            f"expected {expected.to_text()}"
        )
    return out


def oracle_cycling_map(subset_id: str, n: int) -> tuple[int, ...]:
    """The "J" (``ε``) or "K" (``ψ``) cycling map by inverse insertion.

    For each shape, every pair of an insertion (bi)tableau and the successor
    of a recording (bi)tableau, in the listed order of the standard
    (bi)tableaux of that shape, is sent back through the inverse
    correspondence.  Returns the map over the parabolic's own index space.
    """
    elements = parabolic_elements(subset_id, n)
    if len(elements) == 1:
        return (0,)
    index = {u: i for i, u in enumerate(elements)}
    if subset_id == "J":
        inverse = rs_classic_inverse
        families = [standard_tableaux(lam) for lam in partitions(n)]
    else:
        inverse = rs_generalized_inverse
        families = [standard_bitableaux(shp) for shp in bipartitions(n - 1)]
    images = [0] * len(elements)
    for tabs in families:
        succ = {tabs[i]: tabs[(i + 1) % len(tabs)] for i in range(len(tabs))}
        for p in tabs:
            for q in tabs:
                images[index[tuple(inverse(p, q))]] = index[tuple(inverse(p, succ[q]))]
    return tuple(images)


def oracle_j_table(n: int) -> list[int]:
    """The left extension of ``ε`` over the whole group, through windows.

    Every element is ``r * u`` with ``r`` the increasing window of one set of
    negated values and ``u`` a pattern of window positions; each coset ``r``
    is walked in the parabolic's own order and looked up window by window in
    a window->index dict.
    """
    mapping = build_epsilon(n).mapping
    index = {w: i for i, w in enumerate(group_elements(n))}
    positions = [[v - 1 for v in u] for u in parabolic_elements("J", n)]
    out = [0] * len(index)
    for negated in range(1 << n):
        rep = sorted(-v if negated >> (v - 1) & 1 else v for v in range(1, n + 1))
        coset = [index[tuple(map(rep.__getitem__, u))] for u in positions]
        for j, image in zip(coset, mapping):
            out[j] = coset[image]
    return out


def orbit_meets_canonical(z, right_orbits, left_orbits) -> bool:
    """Does the orbit of ``z`` meet the left orbit of the canonical element
    whose shape matches ``z``?

    ``right_orbits``/``left_orbits`` must be the two sides of
    ``vogan.xi_orbits`` at the same weight.  Exponentially slower than
    :func:`star_closed_form`, which it cross-checks at tiny ranks.
    """
    target = canonical_element(conjugate(shape(z)), len(z))
    rc = right_orbits.class_of(element_index(z))
    lc = left_orbits.class_of(element_index(target))
    return any(
        r == rc and l == lc
        for r, l in zip(right_orbits.class_id, left_orbits.class_id)
    )


# ---------------------------------------------------------------------------
# per-element references
# ---------------------------------------------------------------------------


def reference_class_count(class_id) -> int | None:
    """Class count of ids dense in order of first appearance, else ``None``.

    ``OUTSIDE`` entries are skipped; any other negative id is not dense.
    """
    next_expected = 0
    for cid in class_id:
        if cid == OUTSIDE:
            continue
        if cid < 0 or cid > next_expected:
            return None
        if cid == next_expected:
            next_expected += 1
    return next_expected


def reference_canonical_ids(keys) -> list[int]:
    """Dense ids in order of first appearance; ``None`` keys map to ``OUTSIDE``."""
    ids = []
    seen = {}
    for key in keys:
        if key is None:
            ids.append(OUTSIDE)
            continue
        if key not in seen:
            seen[key] = len(seen)
        ids.append(seen[key])
    return ids


def reference_rounds(n: int, weight) -> list[GroupPartition]:
    """The seed and every distinct synchronous round, over the elements, each kept.

    Each round keys every element by its class and the classes of its
    images under the extended ε and ψ tables, numbered by first
    appearance, until a round splits nothing.
    """
    eps = extended_image_table(build_epsilon(n))
    psi = extended_image_table(build_psi(n, weight))
    seed = rxi_partition(n, weight)
    rounds = [seed]
    cur, count = seed.class_id, seed.num_classes
    while True:
        seen: dict[int, int] = {}
        ids = [
            seen.setdefault((c * count + cur[e]) * count + cur[p], len(seen))
            for c, e, p in zip(cur, eps, psi)
        ]
        new = array("i", ids)
        if new == cur:
            return rounds
        rounds.append(GroupPartition(n=n, class_id=new))
        cur, count = new, len(seen)


def reference_minimal_index_labels(ids) -> tuple[str, ...]:
    """Each class named by the least index of its elements, in id order."""
    first = {}
    for i, cid in enumerate(ids):
        if cid not in first:
            first[cid] = i
    return tuple(str(first[c]) for c in range(len(first)))


@functools.lru_cache(maxsize=None)
def coset_product_elements(n: int) -> tuple[tuple[int, ...], ...]:
    """Every window in canonical order, built from the order's definition.

    Block by block, in canonical representative order, the "K"-coset
    representative is multiplied into each rank-``(n-1)`` window extended by
    ``n``.
    """
    check_enumeration_rank(n)
    if n == 1:
        return ((1,), (-1,))
    base = coset_product_elements(n - 1)
    targets = (*range(n, 0, -1), *range(-1, -n - 1, -1))
    return tuple(mul(rep_fix_last(n, k), u + (n,)) for k in targets for u in base)


def reference_window_texts(n: int):
    """The text of each window of :func:`coset_product_elements`, one at a time."""
    return map(window_text, coset_product_elements(n))


def reference_recording_fibers(n: int) -> GroupPartition:
    """Recording-bitableau fibers, one frozen insertion pair per window."""
    return GroupPartition.from_keys(
        n,
        [rs_generalized(w)[1] for w in group_elements(n)],
        label_fn=Bitableau.to_text,
    )



# ---------------------------------------------------------------------------
# the paper's statements and the library's former helpers
# ---------------------------------------------------------------------------


def canonical_word(w: Sequence[int]) -> tuple[int, ...]:
    """A deterministic reduced word for ``w`` (smallest right descent stripped last)."""
    cur = tuple(w)
    rev: list[int] = []
    while True:
        des = right_descents(cur)
        if not des:
            break
        g = min(des)
        cur = mul_gen_right(cur, g)
        rev.append(g)
    return tuple(reversed(rev))


@dataclass(frozen=True)
class CosetDecomposition:
    """``w = rep * part`` with ``rep`` a minimal coset representative.

    ``part`` lies in the parabolic subgroup (all entries positive for "J",
    the swap generators; fixing the last position for "K", everything but
    the last swap) and lengths add:
    ``length(w) == length(rep) + length(part)``.
    """

    rep: SignedPerm
    part: SignedPerm
    subset_id: str


def rep_fix_last(n: int, k: int) -> SignedPerm:
    """The minimal coset representative (for subset "K") sending ``n`` to ``k``.

    Window: ``(1, ..., |k|-1, |k|+1, ..., n, k)``.
    """
    a = abs(k)
    body = list(range(1, a)) + list(range(a + 1, n + 1))
    return SignedPerm(tuple(body) + (k,))


def coset_decompose(w: Sequence[int], subset_id: str) -> CosetDecomposition:
    """Factor ``w = rep * part`` over the named parabolic subset.

    For "J" the representative sorts the window ascending (negatives in
    increasing order, then positives in increasing order); for "K" it is the
    unique minimal representative with ``rep(n) = w(n)``.
    """
    w = SignedPerm(w)
    n = len(w)
    if subset_id == "J":
        rep = SignedPerm(sorted(w))
    elif subset_id == "K":
        rep = rep_fix_last(n, w[-1])
    else:
        raise InvalidInputError(f"unsupported parabolic subset id {subset_id!r}")
    part = SignedPerm(inverse(rep)) * w
    return CosetDecomposition(rep=rep, part=part, subset_id=subset_id)


@functools.lru_cache(maxsize=None)
def parabolic_elements(subset_id: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The elements of the named parabolic, in its own canonical order.

    Subset "J" is the all-positive windows in canonical order, by pattern rank;
    subset "K" reuses the canonical rank-``(n-1)`` enumeration (at ``n = 1``
    the parabolic is trivial).  This is the index space of a
    :class:`~bncells.vogan.CellularMap`'s ``mapping``.
    """
    if subset_id == "J":
        return tuple(u[::-1] for u in itertools.permutations(range(n, 0, -1)))
    if subset_id == "K":
        if n == 1:
            return ((),)
        return group_elements(n - 1)
    raise InvalidInputError(f"unsupported parabolic subset id {subset_id!r}")


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
    size = len(cmap.mapping)
    if size == 1:
        return ()
    if (right_keys is None) != (left_keys is None):
        raise InvalidInputError("pass both oracle key sequences or neither")
    if right_keys is None:
        elements = parabolic_elements(cmap.subset_id, cmap.n)
        right_keys, left_keys = zip(*map(rs_generalized, elements))
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


def right_cells(kl: KLBasis) -> GroupPartition:
    """The right cells: the left cells of the inverses."""
    left = left_cells(kl).class_id
    inv = inverse_index_table(kl.n)
    return GroupPartition(kl.n, canonical_ids(map(left.__getitem__, inv)))


def two_sided_cells(kl: KLBasis) -> GroupPartition:
    """Components of the graph of left steps and right steps (left steps of inverses)."""
    inv = inverse_index_table(kl.n)

    def successors(i: int) -> set[int]:
        out = left_successors(kl, i)
        out.update(inv[j] for j in left_successors(kl, inv[i]))
        return out

    comp = strongly_connected_components(kl.tables.order, successors)
    return GroupPartition(kl.n, canonical_ids(comp))


# -- rewriting moves and the bridge search --------------------------------------


@dataclass(frozen=True, order=True)
class Move:
    """One applicable rewriting move, rendered as ``kind@position``."""

    position: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise InvalidInputError(f"unknown move kind {self.kind!r}")
        if self.position < 1:
            raise InvalidInputError(f"move position must be >= 1, got {self.position}")

    def to_text(self) -> str:
        return f"{self.kind}@{self.position}"


def _move_sites(
    w: Sequence[int], kinds: Sequence[str], k: int
) -> Iterator[tuple[int, str, int]]:
    """``(position, kind, generator)`` of each move whose guard holds on ``w``.

    Only moves inside the first ``k`` positions are tried; ``generator`` is
    the right swap the move makes.  ``knuth._guard_masks`` evaluates the
    same guards for every window of a rank at once.
    """
    kind_i, kind_ii = "I" in kinds, "II" in kinds
    for i in range(1, k - 1):
        x, y, z = w[i - 1], w[i], w[i + 1]
        if kind_i and (y < x < z or z < x < y):
            yield i, "I", i + 1
        if kind_ii and (x < z < y or y < z < x):
            yield i, "II", i
    if "III" in kinds:
        for i in range(1, k):
            if (w[i - 1] > 0) != (w[i] > 0):
                yield i, "III", i


def applicable_moves(
    w: Sequence[int],
    kinds: Sequence[str] = MOVE_KINDS,
    prefix: int | None = None,
) -> tuple[Move, ...]:
    """All moves applicable to ``w`` within its first ``prefix`` positions."""
    k = _scope(len(w), kinds, prefix)
    return tuple(
        sorted(Move(position=i, kind=kind) for i, kind, _ in _move_sites(w, kinds, k))
    )


def apply_move(w: Sequence[int], move: Move) -> tuple[int, ...]:
    """Apply one move; raises when its guard does not hold."""
    w = tuple(w)
    for i, _, g in _move_sites(w, (move.kind,), len(w)):
        if i == move.position:
            return mul_gen_right(w, g)
    raise InvalidInputError(f"move {move.to_text()} does not apply to {w}")


def _bridge_moves(w: Sequence[int]) -> tuple[Move, ...]:
    n = len(w)
    return applicable_moves(w, kinds=("I", "II")) + applicable_moves(
        w, kinds=("III",), prefix=n - 1
    )


def welsh_bridge(w: Sequence[int]) -> tuple[Move, ...]:
    """A move path from ``w`` to its top-swap image avoiding the last position.

    Requires ``w`` outside the double-staircase region with opposite signs in
    its final two entries — there the path is claimed always to exist, so an
    exhausted search is a falsification, not a usage error.
    """
    start = tuple(w)
    n = len(start)
    if n < 2:
        raise InvalidInputError("bridge search needs rank at least 2")
    if in_area(start):
        raise InvalidInputError(f"window {start} lies inside the region")
    if (start[-2] > 0) == (start[-1] > 0):
        raise InvalidInputError(
            f"final two entries of {start} do not have opposite signs"
        )
    target = mul_gen_right(start, n - 1)
    parents: dict[tuple[int, ...], tuple[tuple[int, ...], Move] | None] = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == target:
            path: list[Move] = []
            back = parents[cur]
            while back is not None:
                prev, move = back
                path.append(move)
                back = parents[prev]
            return tuple(reversed(path))
        for move in _bridge_moves(cur):
            nxt = apply_move(cur, move)
            if nxt not in parents:
                parents[nxt] = (cur, move)
                queue.append(nxt)
    raise FalsificationError(
        f"no restricted move path from {start} to its top-swap image"
    )


# -- the reduced staircase region ------------------------------------------------


def extreme_windows(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two distinguished region members removed to form the reduced region:

    the positive reversal ``(n..1)`` and the negated reversal ``(-n..-1)``.
    """
    return tuple(range(n, 0, -1)), tuple(range(-n, 0))


def in_area_reduced(w: Sequence[int]) -> bool:
    """Region membership minus the two extreme windows."""
    w = tuple(w)
    return in_area(w) and w not in extreme_windows(len(w))


def star_closed_form(z: Sequence[int]) -> bool:
    """O(1) window test for the canonical-shape meeting property.

    Holds unless ``z`` lies in the reduced staircase-shape region with its
    last entry or its inverse's last entry negative.
    """
    if not in_area_reduced(z):
        return True
    return z[-1] > 0 and inverse(z)[-1] > 0
