"""Exact reduced simplicial homology and the invariants built on it.

Betti numbers come from ranks of the boundary maps of the augmented chain
complex, found by column reduction against pivots keyed by their top row
(Edelsbrunner, Letscher and Zomorodian 2002): an XOR basis over int bitsets
for GF(2), and sparse signed columns for Q and every odd prime field.
Torsion is out of scope; only ranks are ever needed.
One private object per complex, `_Chains`, lists the faces and ranks the
boundary maps on first use, so every homology question here (a Betti
vector, the top nonzero degree, "acyclic below the top") pays only for the
degrees it reads.  Every question builds it the one way, `_link_chains`:
of the complex itself, or of the nerve of its facets when that has fewer
vertices and no more faces; by the nerve theorem both have the same
reduced homology over every field.  A closed link of at most four facets,
or one whose nerve is the boundary of a simplex, needs no rank at all: its
nerve's homology is read off which facets meet (`_nerve_degrees`).  The
Leray scan and the link Cohen-Macaulay test read those links so; the
Betti numbers and homological connectivity rank every complex they are
asked about, except a report's Betti numbers under a Leray number of at
most 2, which are counted (`_low_betti`).  The induced-subcomplex routes
rank every induced subcomplex but the empty one and cones (no reduced
homology), each from its canonical facet masks, with no
`SimplicialComplex` built.

On top of that: Leray numbers (one route, `_leray`: below 2 a facet count
and the greedy d = 1 walk `_one_collapsible` with no rank, by Wegner's
theorem, and above it a top-down scan of the links that stops at the
first nonzero degree, screens rational ranks over GF(2), and can be
floored and capped so that it asks no degree outside the two; the
induced-subcomplex brute force `_leray_induced` is its oracle), homological
connectivity, both Cohen-Macaulay predicates, shellability and k-vertex
decomposability with replayable shedding witnesses.  The capped scan over
GF(2) is the floor of the collapsibility number: a d-collapsible complex is
d-Leray (Wegner 1975), so C is searched only from L(X; GF(2)) up.  Capped
at a ceiling u >= C it is exact, since L(X; GF(2)) <= C <= u.  A report makes
one homology pass per complex through one link cache, which keeps only the
closed-link listings and the `_Chains` of the links: the Leray scans (C's
floor among them), the Betti numbers and the Cohen-Macaulay test share
every link listed and every rank taken.  The floor itself is a value the
caller holds and passes on as a cap.  The Leray scan and the link
Cohen-Macaulay test read only the links of closed faces (the intersections
of facets, one per nonzero & of the vertices' holder masks): every other
link is a cone, with no reduced homology.  On two or more facets a
facet's own link, {empty face}, is not listed either: neither reads it.
The links are listed once per cache and replayed to each scan through
`itertools.tee`.  The induced Cohen-Macaulay test asks homological
connectivity of each induced subcomplex below its dimension.  The k-vertex decomposition search runs on
facet masks, with one shedding test (`_shed`): a face sheds when
some facet holds it and its deletion, taken by the one F - v loop of
`complexes._deletion`, adds no face to the facets that miss it, so it stays
pure of the same dimension.  The search asks it, and so does the witness
replay, one loop over a stack of complexes still to decompose.  A pure
complex that is not Cohen-Macaulay over GF(2) is refuted before any
search: a k-vertex decomposable complex is shellable (Provan and Billera
1980), so Cohen-Macaulay over every field.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .complexes import (Face, SimplicialComplex, _antichain, _face, _link,
                        _new_faces, _split, bits_of, faces_of, subsets,
                        vertices_of)
from .errors import Budget, NotPureError, _check_count, _depth_first, _drive

#: Above this many vertices the induced-subcomplex routes (the Leray oracle
#: and the induced Cohen-Macaulay test) are refused.
LERAY_VERTEX_CAP = 14

Field = Union[str, int]  # "Q" or a prime modulus


#: Miller-Rabin with the first twelve primes as bases is exact below
#: 3.18e23 (Sorenson and Webster 2017), so larger moduli are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_MODULUS = 1 << 78


def _is_prime(p: int) -> bool:
    """Deterministic primality for p < _MAX_MODULUS, in O(log p) steps, so a
    huge modulus costs no trial division."""
    if p < 2:
        return False
    if p in _PRIME_BASES or any(p % b == 0 for b in _PRIME_BASES):
        return p in _PRIME_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _parse_field(field: Field) -> Optional[int]:
    """None for the rationals, else the prime modulus."""
    if field in ("Q", "rational", None):
        return None
    text = str(field)
    try:
        p = int(text[2:] if text.lower().startswith("gf") else text)
    except ValueError:
        p = 0
    if p >= _MAX_MODULUS or not _is_prime(p):
        raise ValueError(f"not a valid prime field: {field!r} (use Q, or "
                         f"gf<p> with p a prime below 2^78)")
    return p


def _rank_gf2(lower: list[int], upper: list[int]) -> int:
    """Rank over GF(2) of the boundary map from the faces `upper` to the
    faces `lower`.  Each column is an int bitset over the lower faces'
    indices, reduced against an XOR basis keyed by its top bit."""
    bit = {f: 1 << i for i, f in enumerate(lower)}
    basis: dict[int, int] = {}
    for f in upper:
        col = 0
        for low in bits_of(f):
            col |= bit[f ^ low]
        while col:
            top = col.bit_length()
            if top not in basis:
                basis[top] = col
                break
            col ^= basis[top]
    return len(basis)


def _rank_signed(lower: list[int], upper: list[int], p: Optional[int]) -> int:
    """Rank over Q (p None) or GF(p) of the boundary map from the faces
    `upper` to the faces `lower`, as `_rank_gf2` but with signed entries.

    Each column is a dict {lower-face index: entry} with the alternating
    signs, reduced by a*col - b*pivot against the pivot with its top row.
    Over GF(p) the entries are taken mod p; over Q the column is divided by
    the gcd of its entries, so the rank stays exact with no fractions.
    """
    index = {f: i for i, f in enumerate(lower)}
    pivots: dict[int, dict[int, int]] = {}
    for f in upper:
        col, sign = {}, 1
        for low in bits_of(f):
            col[index[f ^ low]] = sign
            sign = -sign
        while col:
            top = max(col)
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = col
                break
            a, b = piv[top], col[top]
            new = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                new[r] = new.get(r, 0) - b * v
            if p is not None:
                col = {r: v % p for r, v in new.items() if v % p}
            else:
                g = math.gcd(*new.values())
                col = {r: v // g for r, v in new.items() if v}
    return len(pivots)


def _rank(lower: list[int], upper: list[int], p: Optional[int]) -> int:
    """Rank of the boundary map from `upper` to `lower` over Q (p None) or
    GF(p)."""
    if p == 2:
        return _rank_gf2(lower, upper)
    return _rank_signed(lower, upper, p)


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers over a fixed coefficient field.

    `ranks[i]` is the rank of reduced homology in degree i >= 0; `rank_neg1`
    is the degree -1 rank (1 exactly for the empty complex, by the standard
    reduced convention the rest of the code relies on).
    """

    coefficient_field: str
    rank_neg1: int
    ranks: tuple[int, ...]

    def rank(self, i: int) -> int:
        if i == -1:
            return self.rank_neg1
        if i < -1:
            return 0
        return self.ranks[i] if i < len(self.ranks) else 0

    def top_nonzero_degree(self) -> int:
        """Largest i >= 0 with a nonzero rank, or -1 if none."""
        for i in range(len(self.ranks) - 1, -1, -1):
            if self.ranks[i]:
                return i
        return -1


class _Chains:
    """The augmented chain complex of one complex, given by its facets (any
    list of masks whose subsets are the faces), with its faces listed and
    its boundary ranks computed on first use and kept.

    `rank(k, q)` is the rank over Q (q None) or GF(q) of the boundary map out
    of the k-faces; the augmented d_0 sends every vertex to the empty face.
    The map out of the edges is a graph's incidence matrix, totally
    unimodular, so its rank is the same over every field: it is taken and
    kept once, over GF(2).
    Since b_t = f_t - r_t - r_{t+1}, a question about a few degrees costs
    only the ranks next to them.  Faces stay sorted, so a rank does the same
    reduction on every run.
    """

    __slots__ = ("facets", "dim", "_faces", "_ranks")

    def __init__(self, facets: Sequence[int]):
        self.facets = facets
        self.dim = max((f.bit_count() for f in facets), default=0) - 1
        self._faces: dict[int, list[int]] = {}
        self._ranks: dict[tuple[int, Optional[int]], int] = {}

    def faces(self, k: int) -> list[int]:
        fs = self._faces.get(k)
        if fs is None:
            fs = self._faces[k] = sorted(faces_of(self.facets, (k + 1,)))
        return fs

    def rank(self, k: int, q: Optional[int]) -> int:
        if k == 1:
            q = 2
        r = self._ranks.get((k, q))
        if r is None:
            r = self._ranks[k, q] = (
                1 if k == 0 else 0 if k > self.dim
                else _rank(self.faces(k - 1), self.faces(k), q))
        return r

    def betti(self, t: int, q: Optional[int]) -> int:
        """The reduced Betti number in degree 0 <= t <= dim."""
        return len(self.faces(t)) - self.rank(t, q) - self.rank(t + 1, q)

    def nonzero(self, t: int, p: Optional[int]) -> bool:
        """True iff b_t != 0 over Q (p None) or GF(p).

        Over Q the degree is screened over GF(2) first: the rank over GF(2)
        of an integer matrix is at most its rank over Q, so b_t over GF(2) >=
        b_t over Q, a zero GF(2) Betti number is a zero rational one, and
        the rational rank runs only to confirm a nonzero.
        """
        if p is None and not self.betti(t, 2):
            return False
        return self.betti(t, p) != 0

    def top_degree(self, top: int, floor: int, p: Optional[int]) -> int:
        """The top degree floor <= t <= top with b_t != 0, or -1 if there is
        none.  Degrees are walked down from top (at most dim), so the walk
        stops at the first nonzero one."""
        for t in range(min(top, self.dim), floor - 1, -1):
            if self.nonzero(t, p):
                return t
        return -1


def reduced_betti(x: SimplicialComplex, field: Field = "Q",
                  cache: Optional[dict] = None) -> BettiVector:
    """Reduced Betti numbers of x over the chosen field.

    The empty complex is identified with the complex whose only face is the
    empty face, so its degree -1 rank is 1.  A cone (some vertex in every
    facet) has no reduced homology, so it takes no rank.  Any other complex
    has the empty face as its apex and is its own apex link, the first link
    every Leray scan ranks: its `_Chains` come from `_link_chains` (x's own
    or its facet nerve's; the nerve theorem gives both the same homology),
    kept in a link cache when one is given, so the Betti numbers and the
    Leray scans of x (C's floor among them) share every rank, whichever
    asks first.
    """
    p = _parse_field(field)
    tag = "Q" if p is None else f"GF{p}"
    if x.is_empty:
        return BettiVector(tag, 1, ())
    if functools.reduce(operator.and_, x.facets):
        return BettiVector(tag, 0, (0,) * (x.dim + 1))
    chains = _cached(cache, x.facets, _link_chains)
    return BettiVector(tag, 0, tuple(chains.betti(t, p)
                                     for t in range(x.dim + 1)))


def _low_betti(x: SimplicialComplex, field: Field, top: int
               ) -> BettiVector:
    """`reduced_betti(x, field)` with no rank, for an x with no reduced
    homology over the field in degrees >= top, where top <= 2: a report
    that asks C knows this of L(x; GF(2)) <= 2 over Q and GF(2)
    (`reports._inv_betti`), as no induced subcomplex, x itself among
    them, has homology from its Leray number up.  b~_0 is the number of
    components less one.  For top = 2, b~_1 = b~_0 - chi~, with chi~ the
    reduced Euler characteristic, sum (-1)^t b~_t over every field, here
    the alternating count of the faces (the empty one in degree -1) of x
    or of its facet nerve, whichever `_chain_facets` picks."""
    p = _parse_field(field)
    tag = "Q" if p is None else f"GF{p}"
    if x.is_empty:
        return BettiVector(tag, 1, ())
    ranks = [0] * (x.dim + 1)
    ranks[0] = _components(x.facets) - 1
    if top == 2:
        facets = _chain_facets(x.facets)
        size = max(map(int.bit_count, facets))
        euler = sum(1 if f.bit_count() & 1 else -1
                    for f in faces_of(facets, range(1, size + 1))) - 1
        ranks[1] = ranks[0] - euler
    return BettiVector(tag, 0, tuple(ranks))


def is_homologically_connected(
    x: SimplicialComplex, n: int, field: Field = "Q"
) -> bool:
    """True iff the reduced homology vanishes in every degree i <= n.

    n < -1 is vacuously true; at n = -1 the empty complex fails (its degree
    -1 rank is nonzero).  x is ranked through itself or its facet nerve
    (`_link_chains`), and degrees are read from 0 up; the walk stops at the
    first nonzero one, screened over GF(2) as in `_Chains.nonzero`.
    """
    p = _parse_field(field)
    if n < -1:
        return True
    if x.is_empty:
        return False
    chains = _link_chains(x.facets)
    return not any(chains.nonzero(t, p) for t in range(min(n, x.dim) + 1))


def _closed_links(
    x: SimplicialComplex
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(dim, facets) of the link of every closed face of x, each distinct
    facet family once: first the link of the apex, the intersection of all
    facets (x itself when that is empty), yielded before the closure below
    is built, so a scan that stops there pays for none of it; then the
    others largest face first.

    Write c(sigma) for the intersection of the facets that hold sigma; sigma
    is closed when c(sigma) = sigma.  Any other face has a cone link, since
    every facet of lk(sigma) contains the nonempty c(sigma) - sigma, and a
    cone has no reduced homology in any degree: the links skipped here read
    zero in every question `leray_number` and `is_cohen_macaulay` ask.  The
    holders of sigma are the & of the holder masks T_v (bit i set when facet
    i holds v; the faces of `_nerve`) over v in sigma, so each nonzero h in
    the closure of the T_v under & is the holders of one closed face, the &
    of the facets in h, and each nonempty closed face comes once, from its
    own holders: a closure over at most one mask per vertex, not over
    facets x closed faces.  lk(c) has the facets F - c for F in h, in facet order
    and already an antichain, so the family is the dedup key.  The apex,
    held by every closed face, is the one smallest; its link often reaches
    the Leray number at once.

    A holder set of one facet is left out of the closure: its closed face
    is that facet, whose link {empty face} (dimension -1, one facet) no
    question reads, since the Leray scan skips a link that can raise L
    only to min(d, m - 2) + 1 = 0 and the Cohen-Macaulay test reads only
    links with d > 0.  & only shrinks a mask, so a mask of at most one bit
    generates nothing else: the T_v of one bit never enter the closure and
    no & of at most one bit is kept.  So on two or more facets the listing
    lacks just (-1, (0,)); a simplex still yields it, as its apex link.
    """
    facets = x.facets
    if not facets:
        return
    apex = functools.reduce(operator.and_, facets)
    first = tuple(f ^ apex for f in facets)
    yield max(map(int.bit_count, first)) - 1, first
    closure: set[int] = set()
    for t in _nerve(facets):
        if t & (t - 1):
            closure |= {u for h in closure if (u := t & h) & (u - 1)}
            closure.add(t)
    # closed face -> the facets holding it, in facet order
    held: dict[int, list[int]] = {}
    for h in closure:
        fs = [facets[i] for i in vertices_of(h)]
        held[functools.reduce(operator.and_, fs)] = fs
    seen = {first}
    for c in sorted(held, key=int.bit_count, reverse=True):
        lk = tuple([f ^ c for f in held[c]])
        if lk not in seen:
            seen.add(lk)
            yield max(map(int.bit_count, lk)) - 1, lk


def _nerve(facets: Sequence[int]) -> tuple[int, ...]:
    """The nerve of a complex's cover by its facets: one vertex i per facet
    F_i, and the face T_v = {i : v in F_i} for each vertex v (a T_v inside
    another is kept; `_Chains` only reads the faces under it).

    Intersections of simplices are simplices or empty, so by the nerve
    theorem (Borsuk 1948; Bjorner, Handbook of Combinatorics 1995) the nerve
    is homotopy equivalent to the complex and has its reduced homology over
    every field.
    """
    cover: dict[int, int] = {}
    for i, f in enumerate(facets):
        for v in vertices_of(f):
            cover[v] = cover.get(v, 0) | 1 << i
    return tuple(set(cover.values()))


def _nerve_degrees(lk: tuple[int, ...]) -> Optional[int]:
    """The degrees in which the complex with facets lk has nonzero reduced
    homology, as a bitmask, or None when counting cannot tell.

    lk is a closed link (`_closed_links`) of m >= 2 facets, so no vertex
    lies in all of them and its nerve (`_nerve`, with the same homology
    over every field) is a subcomplex of the boundary of the
    (m - 1)-simplex.  When every m - 1 facets meet, the nerve is that whole
    boundary, an (m - 2)-sphere.  Otherwise its top degree is at most
    m - 3, and for m <= 4 it is a proper subcomplex of the 2-sphere, with
    torsion-free homology and none in degree 2, so counting its c
    components, E meeting pairs and T meeting triples settles it: b~_0 =
    c - 1 and b_1 = E - T - m + c (Euler).  The answer is the same over
    every field."""
    m = len(lk)
    head = list(itertools.accumulate(lk, operator.and_, initial=-1))
    tail = -1
    for i in range(m - 1, -1, -1):
        if not head[i] & tail:
            break
        tail &= lk[i]
    else:
        return 1 << m - 2
    if m > 4:
        return None
    c = _components(lk)
    pairs = sum(1 for a, b in itertools.combinations(lk, 2) if a & b)
    triples = sum(1 for a, b, e in itertools.combinations(lk, 3) if a & b & e)
    return int(c > 1) | (pairs - triples - m + c > 0) << 1


def _components(facets: Sequence[int]) -> int:
    """The number of connected components of the complex with these
    facets (two facets that meet lie in one)."""
    parts: list[int] = []
    for f in facets:
        for q in [q for q in parts if q & f]:
            parts.remove(q)
            f |= q
        parts.append(f)
    return len(parts)


def _chain_facets(lk: tuple[int, ...]) -> tuple[int, ...]:
    """lk, or the facets of its nerve (`_nerve`) when that has fewer
    vertices and no more faces to list, bounded by the sum of 2^|facet| (a
    vertex in many facets makes a big nerve simplex): the complex whose
    faces a homology question about lk lists."""
    if len(lk) < functools.reduce(operator.or_, lk, 0).bit_count():
        nerve = _nerve(lk)
        if (sum(1 << t.bit_count() for t in nerve)
                <= sum(1 << f.bit_count() for f in lk)):
            return nerve
    return lk


def _link_chains(lk: tuple[int, ...]) -> _Chains:
    """`_Chains` of the complex with facets lk, or of its nerve, whichever
    `_chain_facets` picks."""
    return _Chains(_chain_facets(lk))


def _cached(cache: Optional[dict], key, make):
    """make(key), kept in `cache` under key when a cache is given.

    A link cache maps each link's facets to its `_Chains` (`_link_chains`)
    and a complex to its `_closed_links` (`_links_of`); a facet tuple never
    equals a complex.  So the questions asked about one complex list its
    links once and share every rank taken."""
    if cache is None:
        return make(key)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = make(key)
    return hit


def _links_of(x: SimplicialComplex, cache: Optional[dict]):
    """`_closed_links(x)` itself without a cache; with one, each link listed
    once per cache, and only as far as some scan reads.  The cache keeps
    one unread `itertools.tee` of the listing and each scan reads a copy of
    it, which replays the links drawn so far and draws the next only when
    read; a scan that stops early, as C's capped Leray scan often does at
    the apex link, leaves the closure under & unbuilt.  A copy, not a
    second `tee`: a tee of a tee object may return that object itself."""
    if cache is None:
        return _closed_links(x)
    return copy.copy(_cached(cache, x,
                             lambda x: itertools.tee(_closed_links(x), 1)[0]))


def leray_number(x: SimplicialComplex, field: Field = "Q",
                 cache: Optional[dict] = None) -> int:
    """Least k such that reduced homology vanishes in degrees >= k for every
    induced subcomplex.

    It uses the equivalent link criterion: L is one more than the top degree
    of nonzero reduced homology over all links lk(sigma), sigma a face (the
    empty face gives x itself).  Only the closed faces are visited (sigma
    the intersection of the facets holding it; `_closed_links`): any other
    link is a cone and has no reduced homology.  A link that counting
    settles (`_nerve_degrees`) takes no rank; any other distinct link is
    ranked once, through its facet nerve when that has fewer vertices and
    no more faces, else through itself (`_link_chains`; the nerve theorem
    gives both the same homology).  The scan is `_leray` capped at
    dim(x) + 1, which no link exceeds, so its value is exactly that of the
    full Betti vector of every link, and `_leray_induced` is the test
    oracle.  Like every Leray question it reads L <= 1 with no link
    listed, off the facet count and the greedy walk `_one_collapsible`,
    and scans from 2 where the walk gets stuck.

    A link cache (`_cached`) keeps the links and ranks for later questions
    about x, and reuses those an earlier scan took.
    """
    return _leray(x, _parse_field(field), cache, x.dim + 1)


def _leray(x: SimplicialComplex, p: Optional[int], cache: Optional[dict],
           cap, best: int = 0) -> int:
    """min(cap, max(best, L(x; F))) over F = Q (p None) or GF(p), through
    the link cache `cache` (or None), asking no degree >= cap and none
    below the floor best: the one home of every Leray number, so with
    cap = best + 1 it answers "L(x) <= best?".  `leray_number`,
    `invariants._bounds`, `invariants.is_d_collapsible`,
    `reports._inv_leray` and `reports._shedding_leray_holds` ask here.

    Below 2, L takes no rank, over every field.  L = 0 exactly on at most
    one facet (any other complex has a minimal non-face, which induces a
    simplex boundary), so a cap of 1 reads the facet count.  L <= 1 iff
    C <= 1 iff the greedy walk `_one_collapsible` empties x: all three say
    x is the clique complex of a chordal graph (Wegner 1975; Lekkerkerker
    and Boland 1962).  That rule runs where best < min(cap, 2), before the
    floor meets the cap, and where the walk gets stuck the floor is 2, so
    a floor of 2 that meets its cap lists no link either.

    Above it the scan reads the links that can raise L.  They come apex
    first (`_closed_links`): the apex link often reaches the final L at
    once, and the other faces follow largest first, so the small links
    come before the big ones.  A link of dimension D and m facets has its
    nerve inside the boundary of the (m - 1)-simplex, so it can only raise
    L to min(D, m - 2) + 1, and links that cannot raise best are skipped.
    A link that `_nerve_degrees` settles gives its top nonzero degree
    below cap off its degree mask, with no rank.  Any other has no
    homology above m - 3, and is walked down from degree
    min(D, m - 3, cap - 1) to degree best, stopping at the first nonzero
    one (`_Chains.top_degree`, which screens rational ranks over GF(2)).
    The apex link is the one link held by every facet.  Every other closed
    face strictly holds the apex, so its link has dimension below the apex
    link's d0 and raises L to at most d0: after the apex link the cap
    drops to d0.  The scan ends once best >= cap, so a scan whose best
    reaches d0 at the apex never builds the closure under & behind it.
    """
    if best < min(cap, 2):
        n = len(x.facets)
        if n <= 1 or cap <= 1:
            return max(best, min(cap, int(n > 1)))
        if _one_collapsible(x.facets):
            return 1
        best = 2
    if best >= cap:
        return cap
    held_by_all = len(x.facets)
    for d, lk in _links_of(x, cache):
        m = len(lk)
        if min(d, m - 2) + 1 > best:
            top = min(d, cap - 1)
            mask = _nerve_degrees(lk)
            if mask is None:
                t = _cached(cache, lk, _link_chains).top_degree(
                    min(top, m - 3), best, p)
            else:
                t = (mask & (1 << top + 1) - 1).bit_length() - 1
            best = max(best, t + 1)
        if m == held_by_all:
            cap = min(cap, d)
        if best >= cap:
            break
    return best


def _one_collapsible(facets: Sequence[int]) -> bool:
    """Whether the complex with these facets is 1-collapsible, by one
    greedy walk with no search: it deletes the least vertex held by exactly
    one facet (a free vertex, whose 1-collapse is its deletion) until at
    most one facet, a simplex, is left, and fails when no vertex is free.

    The walk is exact, and it answers L(x; F) <= 1 over every field F.
    X is 1-Leray over F iff X is 1-collapsible iff X is the clique
    complex of a chordal graph (Wegner 1975; Lekkerkerker and Boland
    1962).  A 1-Leray X is flag, since a minimal non-face of k >= 3
    vertices induces the boundary of a simplex, with homology in degree
    k - 2 >= 1, and its graph has no induced cycle of four or more
    vertices, which would carry H~_1.  A chordal graph has a simplicial
    vertex (Dirac 1961), one held by a single maximal clique, and deleting
    it leaves the clique complex of an induced subgraph, chordal again.
    So deleting any free vertex of a 1-collapsible complex leaves a
    1-collapsible one, and the greedy order never gets stuck where some
    order would not (Tancer 2010 shows that greedy is exact for every
    d <= 2).  A single facet, or none, is 0-collapsible: L = C = 0.
    """
    facets = list(facets)
    while len(facets) > 1:
        seen = once = 0
        for f in facets:
            once = once & ~f | f & ~seen
            seen |= f
        if not once:
            return False
        v = once & -once
        f = next(f for f in facets if f & v)
        facets.remove(f)
        # F - v stays a facet unless another facet holds it (or it is empty)
        f ^= v
        if all(f & ~g for g in facets):
            facets.append(f)
    return True


def _induced_subcomplexes(
    x: SimplicialComplex, what: str
) -> Iterator[list[int]]:
    """The canonical facets, the maximal F & A over the facets F, of x[A]
    for every vertex subset A of x whose x[A] is neither empty nor a cone
    (a simplex among them): the others have no reduced homology in degrees
    >= 0.  There are 2^n subsets, so `what` is refused above
    LERAY_VERTEX_CAP vertices."""
    n = x.vertex_mask.bit_count()
    if n > LERAY_VERTEX_CAP:
        raise ValueError(f"{what} refused above {LERAY_VERTEX_CAP} vertices")
    facets = x.facets
    for a in subsets(x.vertex_mask, range(n + 1)):
        fs = _antichain([f & a for f in facets])
        # one facet is a simplex, or [0] for an empty x[A]
        if len(fs) > 1 and not functools.reduce(operator.and_, fs):
            yield fs


def _leray_induced(x: SimplicialComplex, field: Field = "Q") -> int:
    """The Leray number by brute force: one more than the top nonzero
    degree of reduced homology over every induced subcomplex.  The oracle
    for `leray_number`, refused above LERAY_VERTEX_CAP vertices.

    The empty subcomplex and cones have none and are not listed
    (`_induced_subcomplexes`).  Every other one is ranked through itself or
    its facet nerve (`_link_chains`), over the requested field with no
    GF(2) screen, walking its degrees down from its own dimension to the
    running best and stopping at the first nonzero one."""
    p = _parse_field(field)
    best = 0
    for fs in _induced_subcomplexes(x, "brute-force Leray"):
        chains = _link_chains(fs)
        for t in range(max(map(int.bit_count, fs)) - 1, best - 1, -1):
            if chains.betti(t, p):
                best = t + 1
                break
    return best


def is_cohen_macaulay(x: SimplicialComplex, field: Field = "Q",
                      cache: Optional[dict] = None) -> bool:
    """Pure, and every link is homologically (dim(link) - 1)-connected.

    Only the links of closed faces are read (`_closed_links`; any other
    link is a cone, acyclic in every degree), always against the link's
    own dimension D.  A link that counting settles (`_nerve_degrees`) fails
    iff its degree mask has a degree below D.  Any other, of m facets, is
    ranked through itself or its facet nerve as in `leray_number`, with
    degrees walked up from 0 below min(D, m - 2) (it has no homology
    above m - 3); the walk stops at the first nonzero one, screened over
    GF(2) as in `_Chains.nonzero`.  A link cache shares the links and
    their ranks with the Leray scans and the Betti numbers of x.
    """
    p = _parse_field(field)
    if not x.is_pure():
        return False
    for d, lk in _links_of(x, cache):
        if d > 0:
            mask = _nerve_degrees(lk)
            if mask is None:
                chains = _cached(cache, lk, _link_chains)
                if any(chains.nonzero(t, p)
                       for t in range(min(d, len(lk) - 2))):
                    return False
            elif mask & (1 << d) - 1:
                return False
    return True


def is_cohen_macaulay_induced(x: SimplicialComplex, field: Field = "Q") -> bool:
    """The alternative predicate: pure, and every induced subcomplex y is
    homologically (dim(y) - 1)-connected.  It reads all 2^n induced
    subcomplexes, so a pure complex is refused above LERAY_VERTEX_CAP
    vertices.  Each y but the empty one and cones (no reduced homology,
    not listed) is ranked through itself or its facet nerve
    (`_link_chains`), with degrees walked up from 0 below dim(y) as in
    `is_homologically_connected`."""
    p = _parse_field(field)  # a bad field raises for a non-pure x too
    if not x.is_pure():
        return False
    for fs in _induced_subcomplexes(x, "induced Cohen-Macaulay test"):
        chains = _link_chains(fs)
        if any(chains.nonzero(t, p)
               for t in range(max(map(int.bit_count, fs)) - 1)):
            return False
    return True


def is_shellable(
    x: SimplicialComplex, budget: Optional[Budget] = None
) -> tuple[bool, Optional[tuple[Face, ...]]]:
    """Backtracking search for a shelling order of a pure complex.

    Returns the witness order on success.  Non-pure input is an error, not
    False.
    """
    if not x.is_pure():
        raise NotPureError("shellability is defined for pure complexes")
    budget = budget or Budget()
    facets = x.facets
    if len(facets) <= 1:
        return True, facets
    d = x.dim
    n = len(facets)

    def can_extend(chosen: tuple[int, ...], cand: int) -> bool:
        f = facets[cand]
        inters = [int(f) & int(facets[i]) for i in chosen]
        ridge_size = f.bit_count() - 1
        ridges = [m for m in inters if m.bit_count() == ridge_size]
        if d >= 1 and not ridges:
            return False
        return all(
            any(m & ~rm == 0 for rm in ridges) or m.bit_count() == ridge_size
            for m in inters
        )

    def moves(chosen: tuple[int, ...]):
        for cand in range(n):
            if cand in chosen:
                continue
            if not chosen or can_extend(chosen, cand):
                yield cand, chosen + (cand,)

    order = _depth_first((), lambda chosen: len(chosen) == n, frozenset,
                         moves, budget)
    if order is None:
        return False, None
    return True, tuple(facets[i] for i in order)


class SheddingWitness(NamedTuple):
    """One node of a shedding sequence: the face shed and the dimension
    bound in force."""

    face: Face
    dim_bound: int


def _shed(facets: Sequence[int], sigma: int) -> Optional[tuple[int, ...]]:
    """The facets of del(sigma) if sigma is a shedding face of the pure
    complex with these canonical facets, else None (also for a non-face).

    del(sigma) keeps the facets missing sigma and takes in each F - v (F a
    facet holding sigma, v in sigma) that no kept facet holds
    (`complexes._deletion`).  On a pure complex every F - v is one
    dimension short, so the deletion is pure of the same dimension exactly
    when some facet misses sigma (else it drops a dimension) and it takes
    in no F - v; it is then the kept facets, already canonical.  A
    non-face is one that every facet misses.  The deletion's own split and
    lazy loop (`complexes._split`, `_new_faces`) are read, the loop only up
    to its first new face."""
    kept, holders = _split(facets, sigma)
    if not kept or not holders or next(_new_faces(holders, sigma, kept), 0):
        return None
    return tuple(kept)


def is_k_vertex_decomposable(
    x: SimplicialComplex, k: int, budget: Optional[Budget] = None,
    cache: Optional[dict] = None
) -> tuple[bool, Optional[tuple[SheddingWitness, ...]]]:
    """Memoized search for a k-vertex decomposition of a pure complex.

    The witness is a pre-order shedding sequence: first the shedding face of
    the complex, then the sequence for its deletion, then for its link;
    simplices (and the empty complex) contribute nothing.  Candidate faces
    are tried by dimension then vertex tuple, so runs are deterministic.
    The search runs on canonical facet tuples of plain masks, each its own
    memo key: shedding faces and deletions come from `_shed` and links from
    `complexes._link`, and faces become `Face`s only in the witness.  Each
    node is a generator on `errors._drive` that yields the deletion, then
    the link, it needs decomposed, so the search nests to any depth (the
    n-cycle's 0-decomposition nests a node per step) with no Python frame
    per node.

    A complex that is not Cohen-Macaulay over GF(2) is refuted before the
    search, with no node spent: for every k the search decomposes at most
    dim(x)-faces, and a pure complex with such a decomposition is
    shellable (Provan and Billera 1980), so Cohen-Macaulay over every
    field.  A link cache shares that test's links and ranks with the other
    questions asked of x, as in `is_cohen_macaulay`.
    """
    _check_count(k, "k")
    if not x.is_pure():
        raise NotPureError("k-vertex decomposability is defined for pure complexes")
    if not is_cohen_macaulay(x, 2, cache):
        return False, None
    budget = budget or Budget()
    memo: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}

    def rec(facets: tuple[int, ...]):
        if len(facets) <= 1:
            return ()
        if facets in memo:
            return memo[facets]
        budget.spend()
        candidates: list[int] = []
        for j in range(min(k, facets[0].bit_count() - 1) + 1):
            candidates.extend(sorted(faces_of(facets, (j + 1,)),
                                     key=vertices_of))
        result = None
        for sigma in candidates:
            dele = _shed(facets, sigma)
            if dele is None:
                continue
            sub_del = yield rec(dele)
            if sub_del is None:
                continue
            sub_lk = yield rec(_link(facets, sigma))
            if sub_lk is None:
                continue
            result = (sigma,) + sub_del + sub_lk
            break
        memo[facets] = result
        return result

    witness = _drive(rec(x.facets))
    if witness is None:
        return False, None
    return True, tuple(SheddingWitness(_face(s), k) for s in witness)


def verify_shedding_sequence(
    x: SimplicialComplex, k: int, witness: tuple[SheddingWitness, ...]
) -> bool:
    """Replay a pre-order shedding sequence and check every step.  Shedding
    is defined for pure complexes (`is_k_vertex_decomposable` refuses any
    other), so a non-pure x has no valid sequence.

    One loop replays it, with no recursion: the complexes still to
    decompose wait on a stack, the next on top.  Each step drops trivial
    ones (at most one facet) from the top, sheds its face from the next by
    the search's own test (`_shed`), and pushes the link, then the
    deletion, which so comes next (pre-order).  The sequence is valid when
    no nontrivial complex is left."""
    if not x.is_pure():
        return False
    stack = [x.facets]
    for face, bound in witness:
        while stack and len(stack[-1]) <= 1:
            stack.pop()
        if not stack or bound != k or not 0 < face.bit_count() <= k + 1:
            return False
        facets = stack.pop()
        dele = _shed(facets, face)
        if dele is None:
            return False
        stack += (_link(facets, face), dele)
    return all(len(facets) <= 1 for facets in stack)
