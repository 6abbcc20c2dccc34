"""Iwahori-Hecke algebra with unequal weights and its canonical basis.

Exact reference computation used to certify the fast combinatorial layers.
Elements of the algebra live on the standard basis ``{T_w}`` and are stored
as ``{element_index: {exponent: coefficient}}`` — plain dicts of the sparse
Laurent dicts from :mod:`bncells.laurent`.

The canonical basis element ``C_w`` is the unique bar-invariant element equal
to ``T_w`` plus a combination of ``T_y`` with strictly negative exponents.
It is built by induction on length: multiply a generator basis element into
the previous canonical element, then peel off the bar-invariant interference
terms ``M`` from the top down.  Every structural property the construction
relies on is asserted and raises :class:`FalsificationError` when violated.

Bar invariance is checked apart from the recursion: ``bar(C_w)`` is
rebuilt from the images ``bar(T_y)`` and compared with ``C_w``.  That check
packs each element, per exponent, into one Python int with a fixed number
``B`` of bits per group element, ``B`` taken from the coefficient bounds of
the data, so the packed comparison is exact (see
:func:`verify_bar_invariance`).

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
    SignedPerm,
    WeightFunction,
    group_elements,
    group_index,
    inverse_index_table,
    length,
    mul_gen_left,
    mul_gen_right,
    parse_window,
    window_text,
)
from .laurent import (
    LaurentPoly,
    dict_add_scaled,
    dict_bar,
    dict_mul,
    dict_symmetrized_nonneg,
)
from .partition import GroupPartition, canonical_ids

HeckeElt = dict[int, dict[int, int]]

DEFAULT_MAX_RANK = 4
HARD_MAX_RANK = 5


# ---------------------------------------------------------------------------
# multiplication tables
# ---------------------------------------------------------------------------


class GroupTables:
    """Index-level multiplication, length, and descent tables for one rank."""

    def __init__(self, n: int) -> None:
        elements = group_elements(n)
        index = group_index(n)
        self.n = n
        self.order = len(elements)
        self.elements = elements
        self.index = index
        self.length = array("i", (length(w) for w in elements))
        self.lmul = tuple(
            array("i", (index[mul_gen_left(g, w)] for w in elements))
            for g in range(n)
        )
        self.rmul = tuple(
            array("i", (index[mul_gen_right(w, g)] for w in elements))
            for g in range(n)
        )
        self.inverse = inverse_index_table(n)

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


def h_add_scaled(target: HeckeElt, source: HeckeElt, factor: dict[int, int]) -> None:
    """In-place ``target += factor * source`` with zero stripping."""
    for i, coeff in source.items():
        cur = target.setdefault(i, {})
        dict_add_scaled(cur, dict_mul(factor, coeff))
        if not cur:
            del target[i]


def h_equal(x: HeckeElt, y: HeckeElt) -> bool:
    return {i: c for i, c in x.items() if c} == {i: c for i, c in y.items() if c}


def t_mul_gen(
    tables: GroupTables,
    weight: WeightFunction,
    h: HeckeElt,
    g: int,
    side: str = "left",
) -> HeckeElt:
    """Multiply by the generator basis element ``T_g`` on the given side.

    The quadratic relation contributes ``(v^c - v^-c) T_y`` (with ``c`` the
    generator's weight) whenever the generator shortens the element.
    """
    if side == "left":
        table = tables.lmul[g]
    elif side == "right":
        table = tables.rmul[g]
    else:
        raise InvalidInputError(f"side must be 'left' or 'right', got {side!r}")
    c = weight.letter_weight(g)
    xi = {c: 1, -c: -1}
    out: HeckeElt = {}
    for i, coeff in h.items():
        j = table[i]
        tgt = out.setdefault(j, {})
        dict_add_scaled(tgt, coeff)
        if not tgt:
            del out[j]
        if tables.length[j] < tables.length[i]:
            tgt = out.setdefault(i, {})
            dict_add_scaled(tgt, dict_mul(xi, coeff))
            if not tgt:
                del out[i]
    return out


def c_gen_mul(
    tables: GroupTables, weight: WeightFunction, g: int, h: HeckeElt
) -> HeckeElt:
    """Left-multiply by the canonical generator element ``C_g``."""
    out = t_mul_gen(tables, weight, h, g, side="left")
    h_add_scaled(out, h, {-weight.letter_weight(g): 1})
    return out


def bar_t_elements(tables: GroupTables, weight: WeightFunction) -> list[HeckeElt]:
    """The bar involution of every ``T_y``, by induction on length.

    ``bar(T_y) = (T_g - (v^c - v^-c) T_e) * bar(T_{gy})`` for a left descent
    ``g`` of ``y`` with weight ``c``.
    """
    out: list[HeckeElt | None] = [None] * tables.order
    out[0] = t_basis(0)
    for i in tables.by_length():
        if i == 0:
            continue
        g = tables.min_left_descent(i)
        prev = out[tables.lmul[g][i]]
        assert prev is not None
        c = weight.letter_weight(g)
        elt = t_mul_gen(tables, weight, prev, g, side="left")
        h_add_scaled(elt, prev, {c: -1, -c: 1})
        out[i] = elt
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# canonical basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KLBasis:
    """Canonical basis of one rank at one weight, plus interference data.

    ``cw[i]`` is the canonical element ``C_w`` for the element of index
    ``i``, expressed in the ``T`` basis.  ``mu[(g, i)]`` maps ``j`` to the
    bar-invariant coefficient of ``C_j`` in ``C_g * C_i``, for every ``g``
    that lengthens ``i``; the leading term ``C_{g i}`` is not stored.
    """

    n: int
    weight: WeightFunction
    tables: GroupTables = field(repr=False)
    cw: tuple[HeckeElt, ...] = field(repr=False)
    mu: dict[tuple[int, int], dict[int, dict[int, int]]] = field(repr=False)

    def polynomial(self, y: SignedPerm | Sequence[int], w: SignedPerm | Sequence[int]) -> LaurentPoly:
        """Coefficient of ``T_y`` in ``C_w`` (zero when absent)."""
        iy = self.tables.index[tuple(y)]
        iw = self.tables.index[tuple(w)]
        return LaurentPoly(self.cw[iw].get(iy, {}))

    def support(self, w: SignedPerm | Sequence[int]) -> list[SignedPerm]:
        iw = self.tables.index[tuple(w)]
        return [SignedPerm(self.tables.elements[i]) for i in sorted(self.cw[iw])]


def _extract_interference(
    tables: GroupTables,
    h: HeckeElt,
    cw: Sequence[HeckeElt],
    g: int,
    top: int,
    *,
    known_tops: bool,
) -> dict[int, dict[int, int]]:
    """Peel bar-invariant multiples of lower canonical elements off ``h``.

    Mutates ``h`` top-down until only the canonical element remains (when
    ``known_tops`` is false, recursion step) or nothing remains (when true,
    the leading term was subtracted beforehand).  Returns the extracted
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
        m = coeff if known_tops else dict_symmetrized_nonneg(coeff)
        if not m:
            continue
        if known_tops and dict_bar(m) != m:
            raise FalsificationError(
                f"interference coefficient not bar-invariant at index {i}: {m}"
            )
        if not tables.is_left_descent(g, i):
            raise FalsificationError(
                f"interference at index {i} not shortened by generator {g}"
            )
        out[i] = dict(m)
        h_add_scaled(h, cw[i], {k: -c for k, c in m.items()})
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
    check_bar: bool | None = None,
) -> KLBasis:
    """Compute the canonical basis and all interference coefficients.

    The budget is checked first (:func:`check_oracle_budget`).
    Bar-invariance of every basis element is verified by default up to
    rank 4, and the degenerate products ``C_g * C_w = (v^c + v^-c) C_w``
    (for ``g`` shortening ``w``) up to rank 3.
    """
    check_oracle_budget(n, allow_heavy)
    tables = group_tables(n)
    cw: list[HeckeElt | None] = [None] * tables.order
    mu: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    covered: set[tuple[int, int]] = set()

    cw[0] = t_basis(0)
    for iw in tables.by_length():
        if iw == 0:
            continue
        g = tables.min_left_descent(iw)
        iu = tables.lmul[g][iw]
        base = cw[iu]
        assert base is not None
        h = c_gen_mul(tables, weight, g, base)
        mu[(g, iu)] = _extract_interference(
            tables, h, cw, g, iw, known_tops=False
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
        cw[iw] = h

    basis: list[HeckeElt] = cw  # type: ignore[assignment]

    # remaining ascent pairs: subtract the known leading term, then every
    # top coefficient of what is left is itself an interference coefficient
    for g in range(n):
        for iu in range(tables.order):
            j = tables.lmul[g][iu]
            if tables.length[j] < tables.length[iu] or (g, iu) in covered:
                continue
            h = c_gen_mul(tables, weight, g, basis[iu])
            h_add_scaled(h, basis[j], {0: -1})
            mu[(g, iu)] = _extract_interference(
                tables, h, basis, g, -1, known_tops=True
            )
            if h:
                raise FalsificationError(
                    f"residue after interference extraction for ({g}, {iu}): {h}"
                )

    result = KLBasis(n=n, weight=weight, tables=tables, cw=tuple(basis), mu=mu)

    run_bar = check_bar if check_bar is not None else n <= DEFAULT_MAX_RANK
    if run_bar:
        verify_bar_invariance(result)
    if n <= 3:
        verify_degenerate_products(result)
    return result


def _pack(elt: HeckeElt, shift: Sequence[int]) -> dict[int, int]:
    """``elt`` as ``{exponent: int}``: the coefficient of ``v^e T_x`` is the
    signed ``B``-bit slot of ``out[e]`` that starts at bit ``shift[x]``."""
    out: dict[int, int] = {}
    for x, poly in elt.items():
        s = shift[x]
        for e, c in poly.items():
            out[e] = out.get(e, 0) + (c << s)
    return out


def verify_bar_invariance(kl: KLBasis) -> None:
    """Assert ``bar(C_w) = C_w`` for every ``w`` (independent of the recursion).

    ``bar(C_w) = sum_y bar(p_{y,w}) bar(T_y)`` is formed exactly, with the
    ``bar(T_y)`` from :func:`bar_t_elements`, on packed integers: for each
    exponent, one Python int holds the coefficients over every element
    ``x``, ``B`` bits per element, slots in :meth:`GroupTables.by_length`
    order.  A term ``c v^e`` of ``p_{y,w}`` then adds ``c`` times the
    packed int of ``bar(T_y)`` at each exponent ``k`` into the accumulator
    at exponent ``k - e``: one big-int addition per ``k`` when ``c = ±1``.

    Exactness: let ``rmax`` be the largest ``|coefficient|`` in any
    ``bar(T_y)``, ``smax`` the largest sum of ``|coefficient|`` over one
    ``C_w`` and ``cmax`` the largest ``|coefficient|`` in any ``C_w``.  A
    slot of ``bar(C_w) - C_w`` is a sum of at most ``smax`` products
    ``c·r`` (weighted by ``|c|``) minus one coefficient of ``C_w``, so its
    absolute value is at most ``rmax·smax + cmax < 2^(B-1)`` for
    ``B = (rmax·smax + cmax).bit_length() + 1``.  A sum of signed slots
    that small is zero only if every slot is zero (the top nonzero slot
    outweighs all the lower ones), so a zero packed difference means
    ``bar(C_w) = C_w`` coefficient by coefficient.  ``B`` is read off the
    data, never fixed, and nothing is sampled or hashed.
    """
    tables = kl.tables
    bar_t = bar_t_elements(tables, kl.weight)
    rmax = max(abs(c) for elt in bar_t for poly in elt.values() for c in poly.values())
    smax = max(
        sum(abs(c) for poly in elt.values() for c in poly.values()) for elt in kl.cw
    )
    cmax = max(abs(c) for elt in kl.cw for poly in elt.values() for c in poly.values())
    bits = (rmax * smax + cmax).bit_length() + 1
    shift = [0] * tables.order
    for slot, x in enumerate(tables.by_length()):
        shift[x] = slot * bits
    # bar(T_y) involves only x <= y in the Bruhat order, so in length order
    # its packed row is no wider than y's own slot; each dict row is dropped
    # as soon as it is packed, so the two forms of all rows never coexist
    rows: list[dict[int, int]] = []
    for y in range(tables.order):
        rows.append(_pack(bar_t[y], shift))
        bar_t[y] = {}
    offset = max(abs(k) for row in rows for k in row) + max(
        abs(e) for elt in kl.cw for poly in elt.values() for e in poly
    )
    acc = [0] * (2 * offset + 1)
    for w, elt in enumerate(kl.cw):
        for y, poly in elt.items():
            row = rows[y]
            for e, c in poly.items():
                base = offset - e
                if c == 1:
                    for k, packed in row.items():
                        acc[base + k] += packed
                elif c == -1:
                    for k, packed in row.items():
                        acc[base + k] -= packed
                else:
                    for k, packed in row.items():
                        acc[base + k] += c * packed
        for e, packed in _pack(elt, shift).items():
            acc[offset + e] -= packed
        if any(acc):
            raise FalsificationError(f"canonical element {w} is not bar-invariant")


def verify_degenerate_products(kl: KLBasis) -> None:
    """Assert ``C_g * C_w = (v^c + v^-c) C_w`` whenever ``g`` shortens ``w``."""
    tables, weight = kl.tables, kl.weight
    for g in range(kl.n):
        c = weight.letter_weight(g)
        for iw in range(tables.order):
            if not tables.is_left_descent(g, iw):
                continue
            got = c_gen_mul(tables, weight, g, kl.cw[iw])
            expected: HeckeElt = {}
            h_add_scaled(expected, kl.cw[iw], {c: 1, -c: 1})
            if not h_equal(got, expected):
                raise FalsificationError(
                    f"degenerate product rule fails for generator {g}, index {iw}"
                )


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


def right_cells(kl: KLBasis) -> GroupPartition:
    left = left_cells(kl)
    inv = kl.tables.inverse
    return GroupPartition(
        kl.n, canonical_ids([left.class_id[inv[i]] for i in range(kl.tables.order)])
    )


def two_sided_cells(kl: KLBasis) -> GroupPartition:
    inv = kl.tables.inverse

    def successors(i: int) -> set[int]:
        out = left_successors(kl, i)
        out.update(inv[j] for j in left_successors(kl, inv[i]))
        return out

    comp = strongly_connected_components(kl.tables.order, successors)
    return GroupPartition(kl.n, canonical_ids(comp))


# ---------------------------------------------------------------------------
# text export
# ---------------------------------------------------------------------------


def kl_to_lines(kl: KLBasis) -> Iterator[str]:
    """Render the basis as ``y_window w_window : polynomial`` lines."""
    for iw in range(kl.tables.order):
        w_text = window_text(kl.tables.elements[iw])
        for iy in sorted(kl.cw[iw]):
            poly = LaurentPoly(kl.cw[iw][iy])
            yield f"{window_text(kl.tables.elements[iy])} {w_text} : {poly.to_text()}"


def parse_kl_lines(
    lines: Iterable[str],
) -> dict[tuple[SignedPerm, SignedPerm], LaurentPoly]:
    out: dict[tuple[SignedPerm, SignedPerm], LaurentPoly] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, poly_text = line.partition(":")
        parts = head.split()
        if len(parts) != 2 or not poly_text:
            raise InvalidInputError(f"malformed basis line: {line!r}")
        y = parse_window(parts[0])
        w = parse_window(parts[1])
        out[(y, w)] = LaurentPoly.from_text(poly_text.strip())
    return out


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
