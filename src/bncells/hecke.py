"""Iwahori-Hecke algebra with unequal weights and its canonical basis.

Exact reference computation used to certify the fast combinatorial layers.
Elements of the algebra live on the standard basis ``{T_w}``.  A Laurent
polynomial in ``v`` is held as one Python int of fixed-width signed lanes:
with ``O = max(a, b)`` the largest exponent any element in the computation
reaches, the coefficient of ``v^e`` sits in lane ``O - e``, that is in bits
``LANE_BITS * (O - e)`` upward, as a balanced digit in
``[-2^(LANE_BITS-1), 2^(LANE_BITS-1))`` (:func:`encode`, :func:`decode`).
Multiplying by ``v^-c`` is then a left shift by ``LANE_BITS * c``, a sum is
one int addition, ``P == 0`` is the zero test, ``P & low == 0`` with
``low`` the mask of lanes ``0..O`` says that no term has degree ``>= 0``,
and ``P == encode({0: 1})`` that ``P`` is 1.  Multiplying by ``v^c`` is a
right shift, and it is exact only because every operand it shifts has its
exponents ``<= 0``: its lowest ``O >= c`` lanes are zero.  The stored
polynomials are checked for that (the degree conditions) before any
arithmetic reads them.

An element being built or peeled is a transient dense list: the packed
coefficient of every element index, 0 where it has no term.  A finished
canonical element is stored compactly as two
parallel ``array('i')``: its indices ``y`` in increasing order, and ids
into one table per basis that holds each distinct polynomial ``p_{y,w}``
once, as its packed int.  At rank 5 about three million ``(y, w)`` pairs
share some twenty thousand polynomials, so the pairs cost eight bytes each
(the storage of du Cloux's Coxeter3: *Computing Kazhdan-Lusztig polynomials
for arbitrary Coxeter groups*, Experiment. Math. 11, 2002).

A lane that overflows would carry silently into its neighbour, so every
transient element carries a bound on its coefficients, in terms of ``M``,
the largest coefficient of the stored polynomials, read off the data as
they are stored: ``2M`` after a generator product (each term gets at most
two contributions), ``M`` more for subtracting a stored element, and
``|m|_1 M`` more for peeling ``m`` times one.  Before any coefficient of a
transient is read or tested the bound must be below ``2^(LANE_BITS-1)``;
otherwise the computation is refused with a :class:`BudgetError` that names
the lane width (:func:`check_lanes`).

The canonical basis element ``C_w`` is the unique bar-invariant element equal
to ``T_w`` plus a combination of ``T_y`` with strictly negative exponents.
It is built by induction on length from the least left descent ``g`` of
``w``, of weight ``c``, and ``u = g w``: ``C_g C_u`` minus bar-invariant
multiples of shorter ``C_z`` with ``g z < z``, peeled from the top down.
Only the descent half ``{y : g y < y}`` is computed and peeled.  ``C_g C_u``
and every such ``C_z`` lie in ``C_g H``, where the coefficient at ``T_y``
with ``g y > y`` is ``v^-c`` times the one at ``T_{g y}``, so the other half
is filled by one shift per term.  That relies on the stored ``C_z`` being
canonical; a wrong ``C_w`` fails its own certificate step.  Every
structural property the construction relies on is asserted and raises
:class:`FalsificationError` when violated.

The result is certified apart from the construction, and no ``bar(T_y)``
is ever formed: the generator tables are checked to be the group's, each
``C_w`` meets the degree conditions, and each ``C_w`` has a step, a full
product ``C_g C_{g w}`` for a left descent ``g`` (Lusztig, *Hecke algebras
with unequal parameters*, CRM Monograph 18, Thm 6.6) or ``C_{w s} C_s`` for
a right descent ``s`` (its mirror), that leaves ``C_w`` plus bar-invariant
multiples of shorter ``C_z``.  Bar invariance then follows by induction on
length, and with it the basis is the canonical one.  :func:`kl_basis` reads
the interference coefficients of each ascent pair ``(g, u)`` other than the
construction's from such a full product, which is a left step for ``g u``:
every ``w`` with two or more left descents gets one, so only the elements
with a single left descent need a right step.  :func:`verify_bar_invariance`
certifies any basis on its own, with a right step for every element.

Cells are strongly connected components of the multiplication graph: ``y``
is reachable from ``w`` when ``C_y`` appears in some ``C_g * C_w``.

>>> p = encode({0: 1, -2: -3}, 2)
>>> decode(p << LANE_BITS, 2) == {-1: 1, -3: -3}
True
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import add, lshift, lt, mul, rshift
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetError, FalsificationError, InvalidInputError
from .group import (
    T_LETTER,
    WeightFunction,
    group_order,
    inverse_index_table,
    iter_windows,
    length,
    right_generator_tables,
)
from .partition import GroupPartition, canonical_ids

HeckeElt = list[int]
Terms = Iterable[tuple[int, int]]

LANE_BITS = 16
HARD_MAX_RANK = 5


# ---------------------------------------------------------------------------
# multiplication tables
# ---------------------------------------------------------------------------


class GroupTables:
    """Index-level multiplication, length, and descent tables for one rank.

    ``lmul[g]`` is ``inverse ∘ rmul[g] ∘ inverse``, as ``g w = (w^-1 g)^-1``.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.order = group_order(n)
        self.length = array("i", map(length, iter_windows(n)))
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

    def levels(self) -> list[list[int]]:
        """The indices of each length, increasing, listed by length."""
        out: list[list[int]] = [[] for _ in range(max(self.length) + 1)]
        for i, k in enumerate(self.length):
            out[k].append(i)
        return out

    def by_length(self) -> list[int]:
        return [i for level in self.levels() for i in level]


@functools.lru_cache(maxsize=None)
def group_tables(n: int) -> GroupTables:
    return GroupTables(n)


# ---------------------------------------------------------------------------
# packed Laurent polynomials
# ---------------------------------------------------------------------------


def lane_top(weight: WeightFunction) -> int:
    """``O``, the exponent held in lane 0: the largest any element reaches."""
    return max(weight.a, weight.b)


def check_lanes(bound: int) -> None:
    """Refuse coefficients up to ``bound`` unless a lane holds them exactly."""
    if bound >= 1 << (LANE_BITS - 1):
        raise BudgetError(
            f"coefficients up to {bound} do not fit the {LANE_BITS}-bit lanes"
        )


def nonneg_lanes(top: int) -> int:
    """The mask of lanes ``0..top``, which hold the terms of degree ``>= 0``."""
    return (1 << LANE_BITS * (top + 1)) - 1


def encode(poly: dict[int, int], top: int) -> int:
    """``poly`` (``{exponent: coefficient}``) packed with ``v^top`` in lane 0.

    >>> encode({0: 1, -1: -2}, 1) == (1 << LANE_BITS) - (2 << 2 * LANE_BITS)
    True
    """
    out = 0
    for e, c in poly.items():
        if e > top:
            raise InvalidInputError(f"exponent {e} lies above lane 0 (v^{top})")
        check_lanes(abs(c))
        out += c << LANE_BITS * (top - e)
    return out


def decode(packed: int, top: int) -> dict[int, int]:
    """The ``{exponent: coefficient}`` dict of ``packed``, lane by lane.

    Each lane is read as a balanced digit.  Runs of zero lanes are skipped
    at once, so the cost is one step per term.

    >>> decode(encode({-3: 5, -1: -1}, 2), 2) == {-3: 5, -1: -1}
    True
    """
    bits = LANE_BITS
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = {}
    e = top
    while packed:
        skip = ((packed & -packed).bit_length() - 1) // bits
        packed >>= bits * skip
        e -= skip
        c = packed & mask
        if c >= half:
            c -= 1 << bits
        out[e] = c
        packed = (packed - c) >> bits
        e -= 1
    return out


def _symmetrized_nonneg(packed: int, top: int) -> dict[int, int]:
    """The bar-invariant polynomial that matches ``packed`` in degrees >= 0.

    Used to peel bar-invariant correction terms.  Lanes ``0..top`` are cut
    off as one signed value: their digits are balanced and below
    ``2^(LANE_BITS-1)``, so it lies within the signed range of their width.
    """
    mask = nonneg_lanes(top)
    low = packed & mask
    if low > mask >> 1:
        low -= mask + 1
    out = decode(low, top)
    out.update({-e: c for e, c in out.items()})
    return out


# ---------------------------------------------------------------------------
# T-basis arithmetic
# ---------------------------------------------------------------------------


def _subtract(
    h: HeckeElt,
    elt: tuple[array, array],
    polys: Sequence[int],
    m: dict[int, int],
    keep: bytes | None = None,
) -> None:
    """In-place ``h -= m * C``, for ``C`` stored as ``elt`` over ``polys``.

    ``m * p`` is one shift per term of ``m``, computed once per distinct
    ``p``.  A term ``v^k`` with ``k > 0`` shifts right; that is exact because
    ``k`` is at most the lane top and every stored ``p`` has its exponents
    ``<= 0``, which the degree conditions check before ``p`` is read here.
    With ``keep`` (one flag per index), only the flagged terms are subtracted.
    """
    ys, ids = elt
    if keep is not None:
        kept = bytes(map(keep.__getitem__, ys))
        ys, ids = compress(ys, kept), list(compress(ids, kept))
    if m == {0: 1}:
        scaled: Sequence[int] | dict[int, int] = polys
    else:
        keys = list(set(ids))
        coeffs = list(map(polys.__getitem__, keys))
        total = [0] * len(keys)
        for k, c in m.items():
            shift = LANE_BITS * abs(k)
            part = map(rshift if k > 0 else lshift, coeffs, repeat(shift))
            total = list(map(add, total, part if c == 1 else map(mul, part, repeat(c))))
        scaled = dict(zip(keys, total))
    for y, p in zip(ys, map(scaled.__getitem__, ids)):
        h[y] -= p


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
    The terms of ``h`` are ``(index, packed)``, and the product is dense.
    ``v^c`` is a right shift, exact when the shortened terms have no
    exponent above ``top - c``, as stored polynomials (exponents ``<= 0``,
    ``c <= top``) do.  Each term of the result gets at most two
    contributions.
    """
    if side == "left":
        table = tables.lmul[g]
    elif side == "right":
        table = tables.rmul[g]
    else:
        raise InvalidInputError(f"side must be 'left' or 'right', got {side!r}")
    shift = LANE_BITS * weight.letter_weight(g)
    length = tables.length
    out = [0] * tables.order
    for i, p in h:
        j = table[i]
        out[j] += p
        out[i] += p >> shift if length[j] < length[i] else p << shift
    return out


# ---------------------------------------------------------------------------
# canonical basis
# ---------------------------------------------------------------------------


def intern_element(
    h: HeckeElt, ids: dict[int, int], polys: list[int]
) -> tuple[array, array]:
    """The dense ``h`` as its nonzero indices and the ids of their coefficients.

    Each packed coefficient gets its id from ``ids``; one not there yet is
    appended to ``polys`` and given the next id.
    """
    setdefault = ids.setdefault
    out = array("i")
    for p in compress(h, h):
        k = setdefault(p, len(polys))
        if k == len(polys):
            polys.append(p)
        out.append(k)
    return array("i", compress(range(len(h)), h)), out


def _terms(elt: tuple[array, array], polys: Sequence[int]) -> Terms:
    ys, ids = elt
    return zip(ys, map(polys.__getitem__, ids))


def _largest_coefficient(polys: Iterable[int], top: int) -> int:
    """The largest ``|coefficient|`` of the packed ``polys``, 0 for none."""
    return max(
        (abs(c) for p in polys for c in decode(p, top).values()), default=0
    )


@dataclass(frozen=True)
class KLBasis:
    """Canonical basis of one rank at one weight, plus interference data.

    ``cw[i]`` stores the canonical element ``C_w`` for the element of index
    ``i`` in the ``T`` basis as two parallel ``array('i')``: the indices
    ``y`` of its terms in increasing order, and for each the id of
    ``p_{y,w}`` in ``polys``, which holds every distinct coefficient once as
    its packed int (lane top :func:`lane_top` of ``weight``; see the module
    docstring).  :meth:`terms` reads an element back decoded.
    ``mu[(g, i)]`` maps ``j`` to the bar-invariant coefficient of ``C_j`` in
    ``C_g * C_i``, as an ``{exp: coeff}`` dict, for every ``g`` that
    lengthens ``i``; the leading term ``C_{g i}`` is not stored.
    """

    n: int
    weight: WeightFunction
    tables: GroupTables = field(repr=False)
    cw: tuple[tuple[array, array], ...] = field(repr=False)
    polys: tuple[int, ...] = field(repr=False)
    mu: dict[tuple[int, int], dict[int, dict[int, int]]] = field(repr=False)

    def terms(self, i: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
        """The ``(y, p_{y,w})`` pairs of ``C_w`` for ``w`` of index ``i``.

        Each ``p_{y,w}`` is decoded as its ``(exp, coeff)`` pairs, by exponent.
        """
        top = lane_top(self.weight)
        return (
            (y, tuple(sorted(decode(p, top).items())))
            for y, p in _terms(self.cw[i], self.polys)
        )


def _extract_interference(
    tables: GroupTables,
    h: HeckeElt,
    cw: Sequence[tuple[array, array]],
    polys: Sequence[int],
    shortened: Sequence[int],
    levels: Iterable[Sequence[int]],
    top: int,
    *,
    known_tops: bool,
    bound: int,
    scale: int,
    keep: bytes | None = None,
) -> dict[int, dict[int, int]]:
    """Peel bar-invariant multiples of lower canonical elements off ``h``.

    Mutates the dense ``h`` top-down, one length level of ``levels`` (index
    lists, longest first) at a time.  A peel at ``i`` changes only ``i``
    and shorter terms, so the peels of one level do not interact.  When
    ``known_tops`` is false (construction), the part of degree ``>= 0`` of
    each coefficient is symmetrized and peeled; when true (a certificate
    step, the leading term subtracted beforehand), every coefficient left
    must itself be bar-invariant and is peeled whole.  Every peeled ``C_i``
    must have ``i`` shortened by ``shortened``, the generator's table on the
    side it multiplies from.  The lower ``C_i`` are read from the stored
    basis ``cw`` over ``polys`` (see :class:`KLBasis`), whose coefficients
    are at most ``scale``; with ``keep``, only their flagged terms are
    subtracted.  ``bound`` bounds the coefficients of ``h``; it grows by
    ``|m|_1 scale`` per peeled ``m`` and is checked (:func:`check_lanes`)
    before any coefficient is read, and so before the caller reads what is
    left.  Returns the extracted coefficients, decoded and keyed by element
    index.
    """
    check_lanes(bound)
    low = nonneg_lanes(top)
    length = tables.length
    out: dict[int, dict[int, int]] = {}
    for level in levels:
        for i in compress(level, map(h.__getitem__, level)):
            coeff = h[i]
            if known_tops:
                m = decode(coeff, top)
                if any(m.get(-e) != c for e, c in m.items()):
                    raise FalsificationError(
                        f"residue at index {i} is not bar-invariant: {m}"
                    )
            elif coeff & low:
                m = _symmetrized_nonneg(coeff, top)
            else:
                continue
            if length[shortened[i]] >= length[i]:
                raise FalsificationError(
                    f"interference at index {i} not shortened by the generator"
                )
            out[i] = m
            bound += sum(map(abs, m.values())) * scale
            check_lanes(bound)
            _subtract(h, cw[i], polys, m, keep)
    return out


def _step(
    kl: KLBasis, g: int, side: str, iw: int, levels: list[list[int]], scale: int
) -> dict[int, dict[int, int]]:
    """One certificate step for ``C_w``: a full product peeled to nothing.

    ``C_g C_u - C_w`` with ``u = g w`` (``side="left"``), or ``C_u C_g - C_w``
    with ``u = w g`` (``"right"``), for ``g`` shortening ``w``, holds only
    ``T_z`` shorter than ``w`` when the degree conditions hold; peeled from
    the top down it must split into bar-invariant multiples of ``C_z``
    with ``z`` shortened by ``g`` on that side, and leave nothing.  Returns
    the multiples, the interference coefficients of the pair ``(g, u)``.
    """
    tables, polys = kl.tables, kl.polys
    table = tables.lmul[g] if side == "left" else tables.rmul[g]
    h = c_gen_mul(tables, kl.weight, g, _terms(kl.cw[table[iw]], polys), side)
    _subtract(h, kl.cw[iw], polys, {0: 1})
    step = f"canonical element {iw} fails its {side}-descent step by {g}"
    try:
        out = _extract_interference(
            tables, h, kl.cw, polys, table, levels[tables.length[iw] - 1 :: -1],
            lane_top(kl.weight), known_tops=True, bound=3 * scale, scale=scale,
        )
    except FalsificationError as exc:
        raise FalsificationError(f"{step}: {exc}") from exc
    if any(h):
        raise FalsificationError(f"{step}: residue on {len(h) - h.count(0)} elements")
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
            "line (expect about ten seconds of compute per weight)"
        )


def kl_basis(
    n: int,
    weight: WeightFunction,
    *,
    allow_heavy: bool = False,
    check_bar: bool = True,
) -> KLBasis:
    """Compute the canonical basis and all interference coefficients.

    The budget is checked first (:func:`check_oracle_budget`).  Each ``C_w``
    is built on the descent half of its least left descent ``g`` (see the
    module docstring): ``C_g C_{g w}`` is formed and peeled there, with one
    big-int operation per term of ``C_{g w}``, the leading coefficient is
    checked to be 1, the other half is filled, and the element is interned
    (:func:`intern_element`).  Its new polynomials are then checked to have
    no term of degree ``>= 0``; every older one but 1 (id 0, from ``C_e``)
    was checked when it was new, and 1 must appear once, at ``T_w``.  The
    largest coefficient stored so far, read off each new polynomial, scales
    the lane bound of the next elements.

    Every other ascent pair ``(g, u)`` is then a full left step for ``g u``
    (:func:`_step`), which yields its interference coefficients.  So every
    element with two or more left descents has a step, and unless
    ``check_bar=False`` the certificate (:func:`_certify`) checks the tables
    and every element's degree conditions and takes right steps only for
    the elements with a single left descent.  That certificate proves the
    basis canonical, so the degenerate products ``C_g * C_w = (v^c + v^-c)
    C_w`` (for ``g`` shortening ``w``) test only :func:`c_gen_mul` and are
    left to its tests.
    """
    check_oracle_budget(n, allow_heavy)
    tables = group_tables(n)
    length, order = tables.length, tables.order
    top = lane_top(weight)
    one = encode({0: 1}, top)
    low = nonneg_lanes(top)
    levels = tables.levels()
    # per left generator g, a flag per index y: 1 on the descent half (g y < y)
    lower = [
        bytes(map(lt, map(length.__getitem__, table), length)) for table in tables.lmul
    ]
    halves = [
        [list(compress(level, map(flags.__getitem__, level))) for level in levels]
        for flags in lower
    ]
    ids: dict[int, int] = {}
    polys: list[int] = []
    cw: list[tuple[array, array]] = [(array("i"), array("i"))] * order
    mu: dict[tuple[int, int], dict[int, dict[int, int]]] = {}

    cw[0] = intern_element([one] + [0] * (order - 1), ids, polys)
    scale = 1
    for iw in tables.by_length()[1:]:
        g = tables.min_left_descent(iw)
        table, flags = tables.lmul[g], lower[g]
        shift = LANE_BITS * weight.letter_weight(g)
        h = [0] * order
        for y, p in _terms(cw[table[iw]], polys):
            if flags[y]:
                h[y] += p >> shift
            else:
                h[table[y]] += p
        mu[(g, table[iw])] = _extract_interference(
            tables, h, cw, polys, table, halves[g][length[iw] - 1 :: -1], top,
            known_tops=False, bound=2 * scale, scale=scale, keep=flags,
        )
        if h[iw] != one:
            raise FalsificationError(
                f"leading coefficient of canonical element {iw} is {decode(h[iw], top)}"
            )
        for y in list(compress(range(order), h)):
            h[table[y]] = h[y] << shift
        known = len(polys)
        cw[iw] = intern_element(h, ids, polys)
        if any(p & low for p in polys[known:]) or cw[iw][1].count(0) != 1:
            raise FalsificationError(
                f"non-negative exponent below the top of canonical element {iw}"
            )
        scale = max(scale, _largest_coefficient(polys[known:], top))

    result = KLBasis(
        n=n, weight=weight, tables=tables, cw=tuple(cw), polys=tuple(polys), mu=mu
    )
    stepped: set[int] = set()
    for g in range(n):
        for iu, iw in enumerate(tables.lmul[g]):
            if length[iw] > length[iu] and (g, iu) not in mu:
                mu[(g, iu)] = _step(result, g, "left", iw, levels, scale)
                stepped.add(iw)
    if check_bar:
        _certify(result, stepped)
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

    (i) :func:`_verify_generator_tables`: ``lmul`` and ``rmul`` are left and
    right multiplication by the generators and ``length`` the Coxeter
    length, so :func:`c_gen_mul` multiplies by ``C_s`` on either side.
    (ii) In :meth:`GroupTables.by_length` order, ``C_w`` is stored with its
    indices increasing and one id each, and meets the degree conditions:
    ``p_{w,w} = 1``, and every other ``T_y`` in it is shorter than ``w``
    with ``p_{y,w}`` in ``v^-1 Z[v^-1]``.  Then ``w != e`` has a right
    descent ``s``, and takes its right step (:func:`_step`): ``C_{ws} C_s -
    C_w``, with ``C_s = T_s + v^-c T_e``, holds only ``T_z`` shorter than
    ``w`` (by the degree conditions); peeled from the top down, it must
    split into bar-invariant multiples of ``C_z`` with ``zs < z`` and leave
    nothing.  Every element that step reads is shorter than ``w``, or
    ``w``, so its degree conditions were checked first and its right
    shifts are exact.  The lane bound starts from the largest coefficient
    of ``kl.polys``, read off the data here, not taken from the
    construction.

    By induction on length every ``C_w`` is then bar-invariant: bar is a
    ring involution, ``C_s`` is bar-invariant, and ``C_w`` is ``C_{ws} C_s``
    minus bar-invariant multiples of shorter, certified ``C_z``.  This is
    the right-handed mirror of Lusztig, *Hecke algebras with unequal
    parameters*, CRM Monograph 18, Thm 6.6.  The degree conditions pin the
    basis down: two such bases differ at ``w`` by a bar-invariant sum of
    shorter ``T_y`` with coefficients in ``v^-1 Z[v^-1]``, whose longest
    coefficient is then bar-invariant, hence zero.

    :func:`kl_basis` runs the same certificate with one difference: an
    element that passed a left step there (an ascent step, ``C_g C_{g w}``
    for a left descent ``g`` other than its least one) takes no right step,
    since a left step serves the induction as well.  This function reuses
    no step of the construction: it certifies any :class:`KLBasis` on its
    own, with a right step for every element.
    """
    _certify(kl, set())


def _certify(kl: KLBasis, stepped: set[int]) -> None:
    """Parts (i) and (ii) of :func:`verify_bar_invariance`, with a right
    step for every element but ``e`` and those of ``stepped``.

    The degree conditions are tested once per distinct polynomial, as a
    flag per id (0 in ``v^-1 Z[v^-1]``, 1 for 1, 2 otherwise), and then
    per element on its flags and lengths; a second, per-term pass only
    names the failing ``T_y``.
    """
    tables, weight, polys = kl.tables, kl.weight, kl.polys
    length, rmul = tables.length, tables.rmul
    _verify_generator_tables(tables)
    top = lane_top(weight)
    one = encode({0: 1}, top)
    low = nonneg_lanes(top)
    flags = bytes(1 if p == one else 2 if p & low else 0 for p in polys)
    scale = _largest_coefficient(polys, top)
    levels = tables.levels()
    for iw in tables.by_length():
        (ys, ids), lw = kl.cw[iw], length[iw]
        if len(ys) != len(ids) or not all(map(lt, ys, ys[1:])):
            raise FalsificationError(f"element {iw} is not stored in index order")
        marks = bytes(map(flags.__getitem__, ids))
        at = marks.find(1)
        shorter = ys[:at] + ys[at + 1 :]
        if (
            at < 0
            or ys[at] != iw
            or marks.count(0) != len(shorter)
            or max(map(length.__getitem__, shorter), default=-1) >= lw
        ):
            bad = [
                y
                for y, k in zip(ys, ids)
                if (polys[k] != one if y == iw else length[y] >= lw or polys[k] & low)
            ]
            where = f" at T_{bad[0]}: {dict(kl.terms(iw))[bad[0]]}" if bad else ""
            raise FalsificationError(f"element {iw} fails the degree conditions{where}")
        if iw == 0:
            continue
        s = next((g for g in range(tables.n) if length[rmul[g][iw]] < lw), None)
        if s is None:
            raise FalsificationError(f"element {iw} has no right descent")
        if iw not in stepped:
            _step(kl, s, "right", iw, levels, scale)


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
