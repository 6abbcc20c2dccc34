"""Iwahori-Hecke algebra with unequal weights and its canonical basis.

Exact reference computation used to certify the fast combinatorial layers.
Elements of the algebra live on the standard basis ``{T_w}``.  One that is
being built or peeled is a transient ``{element_index: {exponent:
coefficient}}`` dict.  A finished canonical element is stored compactly as
two parallel ``array('i')``: its indices ``y`` in increasing order, and ids
into one table per basis that holds each distinct polynomial ``p_{y,w}``
once, as a tuple of ``(exponent, coefficient)`` pairs.  At rank 5 about
three million ``(y, w)`` pairs share some twenty thousand polynomials, so
the pairs cost eight bytes each (the storage of du Cloux's Coxeter3:
*Computing Kazhdan-Lusztig polynomials for arbitrary Coxeter groups*,
Experiment. Math. 11, 2002).

The canonical basis element ``C_w`` is the unique bar-invariant element equal
to ``T_w`` plus a combination of ``T_y`` with strictly negative exponents.
It is built by induction on length: multiply a generator basis element into
the previous canonical element, then peel off the bar-invariant interference
terms ``M`` from the top down.  Every structural property the construction
relies on is asserted and raises :class:`FalsificationError` when violated.

The result is certified apart from the construction, and no ``bar(T_y)``
is ever formed (:func:`verify_bar_invariance`): the generator tables are
checked to be the group's, and each ``C_w`` meets the degree conditions and
equals ``C_{ws} C_s`` minus bar-invariant multiples of shorter ``C_z`` for
a right descent ``s`` (the right-handed mirror of Lusztig, *Hecke algebras
with unequal parameters*, CRM Monograph 18, Thm 6.6).  Bar invariance then
follows by induction on length, and with it the basis is the canonical one.

Cells are strongly connected components of the multiplication graph: ``y``
is reachable from ``w`` when ``C_y`` appears in some ``C_g * C_w``.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetError, FalsificationError, InvalidInputError
from .group import (
    T_LETTER,
    WeightFunction,
    group_elements,
    group_order,
    inverse_index_table,
    length,
    right_generator_tables,
)
from .partition import GroupPartition, canonical_ids

HeckeElt = dict[int, dict[int, int]]
Poly = tuple[tuple[int, int], ...]
Terms = Iterable[tuple[int, Sequence[tuple[int, int]]]]
ONE: Poly = ((0, 1),)

HARD_MAX_RANK = 5


# ---------------------------------------------------------------------------
# multiplication tables
# ---------------------------------------------------------------------------


class GroupTables:
    """Index-level multiplication, length, and descent tables for one rank.

    ``lmul[g]`` is ``inverse ∘ rmul[g] ∘ inverse``, as ``g w = (w^-1 g)^-1``.
    """

    def __init__(self, n: int) -> None:
        elements = group_elements(n)
        self.n = n
        self.order = len(elements)
        self.length = array("i", (length(w) for w in elements))
        self.rmul = right_generator_tables(n)
        inv = inverse_index_table(n)
        self.lmul = tuple(
            array("i", map(inv.__getitem__, map(table.__getitem__, inv)))
            for table in self.rmul
        )

    def is_left_descent(self, g: int, i: int) -> bool:
        return self.length[self.lmul[g][i]] < self.length[i]

    def min_left_descent(self, i: int) -> int:
        for g in range(self.n):
            if self.is_left_descent(g, i):
                return g
        raise InvalidInputError("identity has no descent")

    def by_length(self) -> list[int]:
        return sorted(range(self.order), key=lambda i: (self.length[i], i))


@functools.lru_cache(maxsize=None)
def group_tables(n: int) -> GroupTables:
    return GroupTables(n)


# ---------------------------------------------------------------------------
# T-basis arithmetic
# ---------------------------------------------------------------------------


def t_basis(i: int) -> HeckeElt:
    """The basis element ``T_w`` for the element with index ``i``."""
    return {i: {0: 1}}


def _add_term(
    target: HeckeElt, i: int, poly: Sequence[tuple[int, int]], factor: Poly
) -> None:
    """In-place ``target[i] += factor * poly``, one shift per term of ``factor``."""
    cur = target.get(i)
    if cur is None:
        cur = target[i] = {}
    for k, f in factor:
        for e, c in poly:
            e += k
            new = cur.get(e, 0) + f * c
            if new:
                cur[e] = new
            else:
                cur.pop(e, None)
    if not cur:
        del target[i]


def h_add_scaled(target: HeckeElt, source: Terms, factor: dict[int, int]) -> None:
    """In-place ``target += factor * source`` with zero stripping."""
    pairs = tuple(factor.items())
    for i, poly in source:
        _add_term(target, i, poly, pairs)


def c_gen_mul(
    tables: GroupTables,
    weight: WeightFunction,
    g: int,
    h: Terms,
    side: str = "left",
) -> HeckeElt:
    """Multiply by the canonical generator element ``C_g`` on the given side.

    With ``c`` the generator's weight, ``C_g = T_g + v^-c T_e``, and the
    quadratic relation ``T_g^2 = T_e + (v^c - v^-c) T_g`` gives, on the left,
    ``C_g T_y = T_{gy} + v^-c T_y`` when ``g`` lengthens ``y`` and
    ``T_{gy} + v^c T_y`` when it shortens ``y``; the right side mirrors it.
    """
    if side == "left":
        table = tables.lmul[g]
    elif side == "right":
        table = tables.rmul[g]
    else:
        raise InvalidInputError(f"side must be 'left' or 'right', got {side!r}")
    c = weight.letter_weight(g)
    length = tables.length
    up, down = ((c, 1),), ((-c, 1),)
    out: HeckeElt = {}
    for i, poly in h:
        j = table[i]
        _add_term(out, j, poly, ONE)
        _add_term(out, i, poly, up if length[j] < length[i] else down)
    return out


# ---------------------------------------------------------------------------
# canonical basis
# ---------------------------------------------------------------------------


def intern_element(
    h: HeckeElt, ids: dict[Poly, int], polys: list[Poly]
) -> tuple[array, array]:
    """``h`` as its sorted indices and the ids of its coefficients.

    Each coefficient is looked up in ``ids`` as its sorted ``(exp, coeff)``
    pairs; one not there yet is appended to ``polys`` and given the next id.
    """
    ys = array("i", sorted(h))
    out = array("i")
    for y in ys:
        key = tuple(sorted(h[y].items()))
        k = ids.get(key)
        if k is None:
            k = ids[key] = len(polys)
            polys.append(key)
        out.append(k)
    return ys, out


def _terms(elt: tuple[array, array], polys: Sequence[Poly]) -> Terms:
    ys, ids = elt
    return zip(ys, map(polys.__getitem__, ids))


@dataclass(frozen=True)
class KLBasis:
    """Canonical basis of one rank at one weight, plus interference data.

    ``cw[i]`` stores the canonical element ``C_w`` for the element of index
    ``i`` in the ``T`` basis as two parallel ``array('i')``: the indices
    ``y`` of its terms in increasing order, and for each the id of
    ``p_{y,w}`` in ``polys``, which holds every distinct coefficient once as
    a tuple of ``(exp, coeff)`` pairs.  ``mu[(g, i)]`` maps ``j`` to the
    bar-invariant coefficient of ``C_j`` in ``C_g * C_i``, for every ``g``
    that lengthens ``i``; the leading term ``C_{g i}`` is not stored.
    """

    n: int
    weight: WeightFunction
    tables: GroupTables = field(repr=False)
    cw: tuple[tuple[array, array], ...] = field(repr=False)
    polys: tuple[Poly, ...] = field(repr=False)
    mu: dict[tuple[int, int], dict[int, dict[int, int]]] = field(repr=False)

    def terms(self, i: int) -> Terms:
        """The ``(y, p_{y,w})`` pairs of ``C_w`` for ``w`` of index ``i``."""
        return _terms(self.cw[i], self.polys)


def _bar(p: dict[int, int]) -> dict[int, int]:
    """The involution ``v -> v^-1`` on a ``{exponent: coefficient}`` dict."""
    return {-k: c for k, c in p.items()}


def _symmetrized_nonneg(p: dict[int, int]) -> dict[int, int]:
    """The unique bar-invariant polynomial matching ``p`` in degrees >= 0.

    Used to peel bar-invariant correction terms: take the coefficients of
    ``p`` in non-negative degrees and mirror the strictly positive ones.
    """
    out: dict[int, int] = {}
    for k, c in p.items():
        if k >= 0:
            out[k] = out[-k] = c
    return out


def _extract_interference(
    tables: GroupTables,
    h: HeckeElt,
    cw: Sequence[tuple[array, array]],
    polys: Sequence[Poly],
    shortened: Sequence[int],
    top: int,
    *,
    known_tops: bool,
) -> dict[int, dict[int, int]]:
    """Peel bar-invariant multiples of lower canonical elements off ``h``.

    Mutates ``h`` top-down until only the canonical element remains (when
    ``known_tops`` is false, recursion step) or nothing remains (when true,
    the leading term was subtracted beforehand).  Every peeled ``C_i`` must
    have ``i`` shortened by ``shortened``, the generator's table on the side
    it multiplies from.  The lower ``C_i`` are read from the stored basis
    ``cw`` over ``polys`` (see :class:`KLBasis`).  Returns the extracted
    coefficients keyed by element index.
    """
    out: dict[int, dict[int, int]] = {}
    order = sorted(
        (i for i in h if i != top),
        key=lambda i: (-tables.length[i], i),
    )
    for i in order:
        coeff = h.get(i)
        if not coeff:
            continue
        m = coeff if known_tops else _symmetrized_nonneg(coeff)
        if not m:
            continue
        if known_tops and _bar(m) != m:
            raise FalsificationError(
                f"interference coefficient not bar-invariant at index {i}: {m}"
            )
        if tables.length[shortened[i]] >= tables.length[i]:
            raise FalsificationError(
                f"interference at index {i} not shortened by the generator"
            )
        out[i] = dict(m)
        h_add_scaled(h, _terms(cw[i], polys), {k: -c for k, c in m.items()})
    return out


def check_oracle_budget(n: int, allow_heavy: bool) -> None:
    """Refuse ranks above 5 outright; rank 5 requires ``allow_heavy=True``."""
    if n > HARD_MAX_RANK:
        raise BudgetError(
            f"canonical basis at rank {n} exceeds the hard budget ({HARD_MAX_RANK})"
        )
    if n == HARD_MAX_RANK and not allow_heavy:
        raise BudgetError(
            f"rank {n} needs allow_heavy=True, or --allow-heavy on the command "
            "line (expect minutes of compute)"
        )


def kl_basis(
    n: int,
    weight: WeightFunction,
    *,
    allow_heavy: bool = False,
    check_bar: bool = True,
) -> KLBasis:
    """Compute the canonical basis and all interference coefficients.

    The budget is checked first (:func:`check_oracle_budget`).  The result
    is certified by :func:`verify_bar_invariance` at every rank unless
    ``check_bar=False``; that certificate proves the basis canonical, so the
    degenerate products ``C_g * C_w = (v^c + v^-c) C_w`` (for ``g``
    shortening ``w``) test only :func:`c_gen_mul` and are left to its tests.

    Each ``C_w`` is built as a transient dict and interned
    (:func:`intern_element`) once it is finished; nothing else is interned.
    """
    check_oracle_budget(n, allow_heavy)
    tables = group_tables(n)
    ids: dict[Poly, int] = {}
    polys: list[Poly] = []
    cw: list[tuple[array, array]] = [(array("i"), array("i"))] * tables.order
    mu: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    covered: set[tuple[int, int]] = set()

    cw[0] = intern_element(t_basis(0), ids, polys)
    for iw in tables.by_length():
        if iw == 0:
            continue
        g = tables.min_left_descent(iw)
        iu = tables.lmul[g][iw]
        h = c_gen_mul(tables, weight, g, _terms(cw[iu], polys))
        mu[(g, iu)] = _extract_interference(
            tables, h, cw, polys, tables.lmul[g], iw, known_tops=False
        )
        covered.add((g, iu))
        top = h.get(iw)
        if top != {0: 1}:
            raise FalsificationError(
                f"leading coefficient of canonical element {iw} is {top}"
            )
        for i, coeff in h.items():
            if i != iw and coeff and max(coeff) >= 0:
                raise FalsificationError(
                    f"non-negative exponent below the top of canonical element {iw}"
                )
        cw[iw] = intern_element(h, ids, polys)

    # remaining ascent pairs: subtract the known leading term, then every
    # top coefficient of what is left is itself an interference coefficient
    for g in range(n):
        for iu in range(tables.order):
            j = tables.lmul[g][iu]
            if tables.length[j] < tables.length[iu] or (g, iu) in covered:
                continue
            h = c_gen_mul(tables, weight, g, _terms(cw[iu], polys))
            h_add_scaled(h, _terms(cw[j], polys), {0: -1})
            mu[(g, iu)] = _extract_interference(
                tables, h, cw, polys, tables.lmul[g], -1, known_tops=True
            )
            if h:
                raise FalsificationError(
                    f"residue after interference extraction for ({g}, {iu}): {h}"
                )

    result = KLBasis(
        n=n, weight=weight, tables=tables, cw=tuple(cw), polys=tuple(polys), mu=mu
    )

    if check_bar:
        verify_bar_invariance(result)
    return result


def _verify_generator_tables(tables: GroupTables) -> None:
    """Assert that the tables are the group's: part (i) of the certificate.

    Every generator table is an involution that changes length by 1, left
    and right generators send ``e`` (index 0, length 0) to one element, the
    right tables satisfy the type-B_n braid relations, and left and right
    tables commute.  So ``rmul`` is a right action of a quotient of B_n.
    Every ``w != e`` has a right descent (checked in part (ii)), so length
    is the distance from ``e`` and the action is transitive, hence regular
    on ``2^n n!`` points.  The left tables commute with it and agree at
    ``e``, so they are left multiplication.  Cost ``O(|W| n^2)``.
    """
    n, length, lmul, rmul = tables.n, tables.length, tables.lmul, tables.rmul
    identity = list(range(tables.order))
    if len(identity) != group_order(n) or length[0] != 0:
        raise FalsificationError(f"rank-{n} tables are not the group's")
    for g in range(n):
        if lmul[g][0] != rmul[g][0]:
            raise FalsificationError(f"left and right generator {g} differ at e")
        for side, table in (("left", lmul[g]), ("right", rmul[g])):
            for i, j in enumerate(table):
                if table[j] != i or abs(length[j] - length[i]) != 1:
                    raise FalsificationError(
                        f"{side} generator {g} is not an involution changing "
                        f"length by 1 at index {i}"
                    )
        for h in range(g + 1, n):
            step, power = [rmul[h][j] for j in rmul[g]], identity
            for _ in range(2 if h > g + 1 else 4 if g == T_LETTER else 3):
                power = [step[j] for j in power]
            if power != identity:
                raise FalsificationError(f"braid relation of generators {g}, {h} fails")
        for h in range(n):
            if any(lmul[g][rmul[h][i]] != rmul[h][lmul[g][i]] for i in identity):
                raise FalsificationError(
                    f"left generator {g} and right generator {h} do not commute"
                )


def verify_bar_invariance(kl: KLBasis) -> None:
    """Certify that ``kl.cw`` is the canonical basis, without any ``bar(T_y)``.

    (i) :func:`_verify_generator_tables`: ``rmul`` is right multiplication
    by the generators and ``length`` the Coxeter length, so :func:`c_gen_mul`
    with ``side="right"`` multiplies by ``C_s``.  (ii) In
    :meth:`GroupTables.by_length` order, ``C_w`` is stored with its indices
    increasing and one id each, and meets the degree conditions:
    ``p_{w,w} = 1``, and every other ``T_y`` in it is shorter than ``w``
    with ``p_{y,w}`` in ``v^-1 Z[v^-1]``.  For ``w != e`` and a
    right descent ``s`` of weight ``c``, ``C_{ws} C_s - C_w``, with
    ``C_s = T_s + v^-c T_e``, holds only ``T_z`` shorter than ``w`` (by the
    degree conditions); peeled from the top down, it must split into
    bar-invariant multiples of ``C_z`` with ``zs < z`` and leave nothing.

    By induction on length every ``C_w`` is then bar-invariant: bar is a
    ring involution, ``C_s`` is bar-invariant, and ``C_w`` is ``C_{ws} C_s``
    minus bar-invariant multiples of shorter, certified ``C_z``.  This is
    the right-handed mirror of Lusztig, *Hecke algebras with unequal
    parameters*, CRM Monograph 18, Thm 6.6.  The degree conditions pin the
    basis down: two such bases differ at ``w`` by a bar-invariant sum of
    shorter ``T_y`` with coefficients in ``v^-1 Z[v^-1]``, whose longest
    coefficient is then bar-invariant, hence zero.
    """
    tables, weight, polys = kl.tables, kl.weight, kl.polys
    length, rmul = tables.length, tables.rmul
    _verify_generator_tables(tables)
    negative = [all(e < 0 for e, c in p if c) for p in polys]
    for iw in tables.by_length():
        (ys, ids), lw = kl.cw[iw], length[iw]
        if len(ys) != len(ids) or any(y >= z for y, z in zip(ys, ys[1:])):
            raise FalsificationError(f"element {iw} is not stored in index order")
        if iw not in ys or any(
            polys[k] != ONE if y == iw else length[y] >= lw or not negative[k]
            for y, k in zip(ys, ids)
        ):
            raise FalsificationError(f"element {iw} fails the degree conditions")
        if iw == 0:
            continue
        s = next((g for g in range(tables.n) if length[rmul[g][iw]] < lw), None)
        if s is None:
            raise FalsificationError(f"element {iw} has no right descent")
        h = c_gen_mul(tables, weight, s, kl.terms(rmul[s][iw]), side="right")
        h_add_scaled(h, kl.terms(iw), {0: -1})
        step = f"canonical element {iw} fails its right-descent step by {s}"
        try:
            _extract_interference(
                tables, h, kl.cw, polys, rmul[s], -1, known_tops=True
            )
        except FalsificationError as exc:
            raise FalsificationError(f"{step}: {exc}") from exc
        if h:
            raise FalsificationError(f"{step}: residue on {len(h)} elements")


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


def strongly_connected_components(
    count: int, successors: Callable[[int], Iterable[int]]
) -> list[int]:
    """Component id per node (iterative Tarjan; ids are then canonicalized)."""
    visit = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    comp = [-1] * count
    stack: list[int] = []
    work: list[tuple[int, Iterator[int]]] = []
    counter = 0
    next_comp = 0
    for root in range(count):
        if visit[root] != -1:
            continue
        visit[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work.append((root, iter(successors(root))))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if visit[succ] == -1:
                    visit[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if on_stack[succ] and visit[succ] < low[node]:
                    low[node] = visit[succ]
            if advanced:
                continue
            work.pop()
            if work and low[node] < low[work[-1][0]]:
                low[work[-1][0]] = low[node]
            if low[node] == visit[node]:
                while True:
                    x = stack.pop()
                    on_stack[x] = False
                    comp[x] = next_comp
                    if x == node:
                        break
                next_comp += 1
    return comp


def left_successors(kl: KLBasis, i: int) -> set[int]:
    """Indices reachable from ``i`` in one canonical left multiplication."""
    out: set[int] = set()
    for g in range(kl.n):
        j = kl.tables.lmul[g][i]
        if kl.tables.length[j] > kl.tables.length[i]:
            out.add(j)
            interference = kl.mu.get((g, i))
            if interference:
                out.update(interference)
    out.discard(i)
    return out


def left_cells(kl: KLBasis) -> GroupPartition:
    comp = strongly_connected_components(
        kl.tables.order, lambda i: left_successors(kl, i)
    )
    return GroupPartition(kl.n, canonical_ids(comp))


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
