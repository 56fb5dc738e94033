"""Hypergraphs, covers, the non-cover complex and exact domination numbers.

Vertices are 1-based: V = {1, ..., n}.  Subsets are passed around as Python
sets/iterables at the API surface and handled as bitmasks internally.  Every
search is exact, and every result carries a re-checkable witness.

The least dominating sets come from fewest-first scans over int masks:
each target vertex gets its requirement masks once (its neighbourhood, or
its edge remainders e - {v} for strong domination), and each candidate is
tested against them.  On at most `_LATTICE_WIDTH` vertices the least
strongly dominating sets (gamma_strong, gamma_tilde and gamma_si) are read
off the subset lattice instead: per vertex a 2^n-bit table marks the
subsets that strongly dominate it, built once per hypergraph on first use,
and a question ANDs its targets' tables.  The scan stays as the lattice's
test oracle.  The sets the two max parameters range over, the
minimal covers (gamma_i) and the maximal strongly independent sets
(gamma_si), are the leaves of one branching walk, `_branch`, which takes
the first requirement a set misses and branches on its vertices; one
bounded max, `_most`, serves both and skips a set whose upper bound
cannot beat the best so far.  Each candidate tested, each walk node and
each lattice question spends one unit of the caller's `Budget`; a cover
walk the hypergraph keeps is charged at its node count.  Strong
independence is read from neighbourhoods.

Neighborhood convention: w is a neighbour of v only if w != v, even when a
singleton edge {v} exists (so "isolated" means what it does for graphs).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .complexes import (
    MAX_VERTEX,
    SimplicialComplex,
    _face,
    as_face,
    bits_of,
    mask_of,
    subsets,
    vertices_of,
)
from .errors import (
    Budget,
    BudgetExceededError,
    HypothesisNotMetError,
    IsolatedVertexError,
    UndominatableError,
    VertexRangeError,
)
from .invariants import FacetOrdering


class Hypergraph:
    """An ordered pair (V, E): V = {1..n}, E a family of nonempty subsets.

    Exact duplicate edges are dropped; nested edges are kept (domination
    parameters quantify over all edges, only the non-cover complex restricts
    to inclusion-minimal ones).  The edges are kept sorted by vertex tuple.

    The constructor checks n (an int that is not a bool, as the loader
    asks) and every edge, then builds the instance from the edge masks.
    The generators and `cover_initial_relabeling` hold masks already known
    to lie in 1..n and build through `_of_masks`, which skips the checks;
    both share one body, `_fill`.

    Two things are built on first use and kept: the strong-domination
    tables of the subset lattice (`_strong_tables`) and the minimal-cover
    walk (`minimal_covers`), its covers with its node count.  A kept walk
    is charged to each later caller's budget at that count, so no budget
    use depends on which caller walked first.
    """

    __slots__ = ("n", "edges", "_nbr", "_strong", "_sd", "_covers")

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"n {n!r} is not an integer vertex count")
        if n < 1:
            raise ValueError("a hypergraph needs at least one vertex")
        if n > MAX_VERTEX:
            raise VertexRangeError(f"vertex count {n} exceeds {MAX_VERTEX}")
        vmask = (1 << (n + 1)) - 2
        masks = []
        for e in edges:
            m = int(as_face(e))
            if m == 0:
                raise ValueError("empty edge rejected")
            if m & ~vmask:
                raise ValueError(f"edge {sorted(as_face(e).vertices)} outside 1..{n}")
            masks.append(m)
        self._fill(n, masks)

    @classmethod
    def _of_masks(cls, n: int, masks) -> "Hypergraph":
        """The hypergraph on 1..n with the edge masks `masks`, each nonempty
        and inside 1..n, n <= MAX_VERTEX; built without checking them."""
        h = object.__new__(cls)
        h._fill(n, masks)
        return h

    def _fill(self, n: int, masks) -> None:
        """Set every slot from n and the edge masks: the distinct edges
        sorted by vertex tuple, and per vertex v its edge remainders
        e - {v} and its neighbourhood."""
        edges = sorted(set(masks), key=vertices_of)
        strong = [[] for _ in range(n + 1)]  # e - {v} for the edges e at v
        for m in edges:
            for b in bits_of(m):
                strong[b.bit_length() - 1].append(m ^ b)
        strong = tuple(map(tuple, strong))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(map(_face, edges)))
        object.__setattr__(self, "_strong", strong)
        object.__setattr__(self, "_nbr", tuple(
            functools.reduce(operator.or_, s, 0) for s in strong))
        # the strong-domination tables of the subset lattice and the
        # minimal-cover walk, each kept on first use
        object.__setattr__(self, "_sd", None)
        object.__setattr__(self, "_covers", None)

    def __setattr__(self, *a):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other):
        return (isinstance(other, Hypergraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, edges={[sorted(e.vertices) for e in self.edges]})"

    @property
    def vertex_mask(self) -> int:
        return (1 << (self.n + 1)) - 2

    # -- neighborhoods -----------------------------------------------------

    def neighbors(self, v: int) -> set[int]:
        if type(v) is not int:
            raise TypeError(f"vertex {v!r} is not an int")
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return set(vertices_of(self._nbr[v]))

    def neighbors_set(self, subset) -> set[int]:
        return set(vertices_of(self._nbr_mask(self._vertex_set(subset))))

    def _vertex_set(self, subset) -> int:
        """The mask of `subset`, which must lie in 1..n."""
        m = int(as_face(subset))
        out = m & ~self.vertex_mask
        if out:
            v = (out & -out).bit_length() - 1
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return m

    def _nbr_mask(self, mask: int) -> int:
        m = 0
        for v in vertices_of(mask):
            m |= self._nbr[v]
        return m

    def isolated_vertices(self) -> set[int]:
        return {v for v in range(1, self.n + 1) if not self._nbr[v]}

    def _forbid_isolated(self) -> None:
        iso = self.isolated_vertices()
        if iso:
            raise IsolatedVertexError(f"isolated vertices {sorted(iso)}")

    # -- covers and independence -------------------------------------------

    def is_cover(self, subset) -> bool:
        b = self._vertex_set(subset)
        return all(e & b for e in self.edges)

    def is_independent(self, subset) -> bool:
        i = self._vertex_set(subset)
        return not any(int(e) & ~i == 0 for e in self.edges)

    def is_strongly_independent(self, subset) -> bool:
        """No edge inside the subset, and no edge meeting it twice."""
        i = self._vertex_set(subset)
        return all(e & ~i and (e & i).bit_count() <= 1 for e in self.edges)

    def _is_minimal_cover(self, m: int) -> bool:
        """m meets every edge, and the vertices that are the only vertex of
        m in some edge make up all of m, so none can be dropped."""
        private = 0
        for e in self.edges:
            hit = e & m
            if not hit:
                return False
            if not hit & (hit - 1):
                private |= hit
        return private == m

    def minimal_covers(self, budget: Budget | None = None):
        """All inclusion-minimal covers, as sorted vertex tuples, in
        `subsets` order.

        They are leaves of `_branch` over the edges: a minimal cover D is
        reached by taking, at each node, the first vertex of the first
        unmet edge that lies in D (a leaf inside D is a cover, so it is D),
        and `_is_minimal_cover` drops the leaves that are covers but not
        minimal.  One budget unit per walk node.

        The first walk that finishes is kept with its node count, and a
        later call charges that count to its budget, raising where a walk
        would (`Budget.spend(units)`), so every call spends what a fresh
        walk spends."""
        budget = budget or Budget()
        if self._covers is None:
            used = budget.used
            leaves = _branch(self.edges, (0,) * (self.n + 1), budget)
            object.__setattr__(self, "_covers", (
                tuple(vertices_of(m) for m in leaves
                      if self._is_minimal_cover(m)),
                budget.used - used))
        else:
            budget.spend(self._covers[1])
        return list(self._covers[0])


@dataclass(frozen=True)
class DominationResult:
    """An exact domination value with its certifying witness."""

    value: int
    witness: tuple  # vertices, or edges (as sorted vertex tuples) for gamma_E
    target: tuple[int, ...]  # the dominated vertex set


def _nc_leray_floor(h: Hypergraph, limit: int) -> int:
    """max |D| - 1 over the minimal covers D of h, a floor for the Leray
    number of NC(H) over every field (see `invariants._bounds`), or 0 where
    the cover walk takes more than `limit` nodes.  It charges no budget: a
    kept walk is read as it is, and a walk not yet kept is taken under a
    budget of its own."""
    if h._covers is None:
        try:
            h.minimal_covers(Budget(limit))
        except BudgetExceededError:
            return 0
    covers, nodes = h._covers
    return max(max(map(len, covers)) - 1, 0) if nodes <= limit else 0


def non_cover_complex(h: Hypergraph) -> SimplicialComplex:
    """NC(H): vertex sets missing some edge entirely.  Facets are the
    complements of the inclusion-minimal edges (V - e lies in V - f iff f
    lies in e, so canonicalizing drops the other complements)."""
    if not h.edges:
        raise HypothesisNotMetError(
            "edgeless hypergraph: every set is a cover, NC is empty")
    vmask = h.vertex_mask
    return SimplicialComplex(vmask & ~e for e in h.edges)


def nc_facet_order(h: Hypergraph) -> FacetOrdering:
    """Order the facets of NC(H) by their complementary edges written as
    strictly decreasing vertex sequences, compared lexicographically.  An
    empty NC(H) has no facet order (HypothesisNotMetError)."""
    nc = non_cover_complex(h)
    if nc.is_empty:
        raise HypothesisNotMetError("NC(H) is empty; no facet order")
    return FacetOrdering(nc, _nc_facet_order(h, nc))


def _nc_facet_order(h: Hypergraph, nc: SimplicialComplex) -> tuple[int, ...]:
    """The facet masks of nc = NC(h), already built, in `nc_facet_order`'s
    order: () where NC(H) is empty."""
    vmask = h.vertex_mask
    return tuple(sorted(nc.facets,
                        key=lambda f: vertices_of(vmask & ~f)[::-1]))


def _cover_relabeling(h: Hypergraph, budget: Budget | None = None):
    """h relabeled so its maximizing minimal cover D is {1..|D|}: returns
    the relabeled hypergraph, the permutation, the mask of {1..|D|} and the
    facet order of the relabeled NC(H)."""
    d = maximizing_minimal_cover(h, budget)
    relabeled, perm = cover_initial_relabeling(h, d)
    return (relabeled, perm, (1 << (len(d) + 1)) - 2,
            nc_facet_order(relabeled))


def nc_bound_order(h: Hypergraph):
    """NC and its facet order after relabeling the maximizing minimal cover
    to the initial segment {1..|D|}.

    The lex facet order only guarantees d(NC, order) <= |V| - gamma_i - 1
    when the cover occupies the smallest labels; with an arbitrary labeling
    the d bound can fail even though C(NC) itself is label-invariant.
    Returns (nc, ordering) for the relabeled copy.
    """
    order = _cover_relabeling(h)[3]
    return order.complex, order


# -- the branching walker ---------------------------------------------------

def _branch(reqs, spread, budget: Budget) -> list[int]:
    """Every set reached by branching on the first requirement mask it
    misses, in `subsets` order (fewest vertices first, then in
    itertools.combinations order).

    A node is a chosen set and a banned set, both masks.  When the chosen
    set meets every mask in `reqs` it is a leaf; otherwise the node
    branches on the vertices v of the first mask it misses that are not
    banned, in increasing order.  The branch that takes v bans v in the
    branches after it and `spread[v]` in its own subtree, so no two leaves
    are equal: two branches part where one takes a vertex the other bans.
    Every set S that meets every mask, and meets no `spread[v]` for v in
    S, holds a leaf: take at each node the first vertex of the missed mask
    that lies in S, and no vertex of S is ever banned on that path.  The
    nodes sit on an explicit stack, and each spends one budget unit."""
    leaves = []
    stack = [(0, 0)]
    while stack:
        chosen, banned = stack.pop()
        budget.spend()
        for r in reqs:
            if not r & chosen:
                break
        else:
            leaves.append(chosen)
            continue
        for bit in bits_of(r & ~banned):
            stack.append((chosen | bit,
                          banned | spread[bit.bit_length() - 1]))
            banned |= bit
    leaves.sort(key=lambda m: (m.bit_count(), vertices_of(m)))
    return leaves


# -- the fewest-first scans -------------------------------------------------
# A domination question is a set of requirements (meet, wholes), one per
# target vertex, computed once per target: a candidate B satisfies it
# when B meets `meet` or holds one of the masks in `wholes`.  Every mask in
# a requirement lies inside the candidate pool.

def _satisfies(b: int, need) -> bool:
    for meet, wholes in need:
        if not meet & b:
            for s in wholes:
                if not s & ~b:
                    break
            else:
                return False
    return True


def _fewest(need, budget: Budget) -> int | None:
    """The first B satisfying every requirement, fewest vertices first and
    then in `subsets` order; None when even the whole pool falls short.
    Each B tested spends one budget unit.

    A least B only holds vertices some requirement names (dropping any other
    keeps it satisfied), and `subsets` order restricted to those vertices is
    unchanged, so only they are scanned."""
    useful = 0
    for meet, wholes in need:
        useful |= functools.reduce(operator.or_, wholes, meet)
    if not _satisfies(useful, need):
        return None
    for b in subsets(useful, range(useful.bit_count() + 1)):
        budget.spend()
        if _satisfies(b, need):
            return b


# -- the subset lattice -----------------------------------------------------
# On at most _LATTICE_WIDTH vertices strong domination is read off tables.
# A table is an int of 2^n bits, one per subset B of 1..n, at B's index:
# its mask with vertex v moved to bit n - v.  Among the sets of one size the
# first in `subsets` order then has the highest index.  Each vertex has the
# table of the B that strongly dominate it, a question ANDs its targets'
# tables, and its least B is the highest bit of the first size layer the
# AND meets.  A question spends one budget unit, however many B it tests.
# gamma_si takes its max over these answers, as gamma_i over its scans,
# through `_most`.
# Timed on fresh hypergraphs, the lattice answered gamma_tilde and gamma_si
# faster than the scan at every width tried, 6 to 16 vertices; the width
# bounds the tables each hypergraph keeps, n 2^n bits (6 KB on 12
# vertices, 128 KB on 16).

_LATTICE_WIDTH = 12


@functools.cache
def _cube(n: int):
    """The tables on 1..n that depend on n alone: every B; the B holding v,
    for each vertex v (index 0 unused); and the B of r vertices, for each
    r."""
    full = (1 << (1 << n)) - 1
    has = [0]
    for v in range(1, n + 1):
        run = 1 << (n - v)  # index bit n - v is set in runs of this length
        has.append(((1 << run) - 1 << run) * (full // ((1 << 2 * run) - 1)))
    sizes = [1]
    for bit in range(n):
        sizes = [a | b << (1 << bit) for a, b in zip(sizes + [0], [0] + sizes)]
    return full, tuple(has), tuple(sizes)


def _strong_tables(h: Hypergraph) -> tuple[int, ...]:
    """Per vertex v, the table of the B that meet its requirement
    (`_strong_req`): the B that hold a vertex of `meet` or a whole."""
    if h._sd is None:
        full, has = _cube(h.n)[:2]
        tables = [full]
        for v in range(1, h.n + 1):
            # a singleton edge is the empty whole, held by every B
            meet, wholes = _strong_req(h, v) or (0, (0,))
            t = 0
            for u in vertices_of(meet):
                t |= has[u]
            for s in wholes:
                inside = full
                for u in vertices_of(s):
                    inside &= has[u]
                t |= inside
            tables.append(t)
        object.__setattr__(h, "_sd", tuple(tables))
    return h._sd


def _first(hits: int, n: int) -> tuple[int, ...] | None:
    """The vertices of the first B in the table `hits`, fewest first and
    then in `subsets` order, or None when it holds none."""
    if not hits:
        return None
    sizes = _cube(n)[2]
    r = 0
    while not hits & sizes[r]:
        r += 1
    return tuple([n - j for j in
                  vertices_of((hits & sizes[r]).bit_length() - 1)[::-1]])


# -- the domination numbers -------------------------------------------------

def _most(leaves, bound, ask):
    """The first leaf with the largest `ask(leaf).value`, and that answer.
    A leaf whose `bound` is at most the best value so far cannot beat it,
    so it is not asked."""
    best = None
    for leaf in leaves:
        if best is not None and bound(leaf) <= best[1].value:
            continue
        res = ask(leaf)
        if best is None or res.value > best[1].value:
            best = leaf, res
    return best


def _strong_req(h: Hypergraph, v: int):
    """The requirement for strongly dominating v: some e - {v} inside B,
    met by one neighbour when e is a pair; None for a vertex with a
    singleton edge, which needs nothing."""
    ends = h._strong[v]
    if 0 in ends:
        return None
    meet = 0
    for s in ends:
        if not s & (s - 1):
            meet |= s
    return meet, tuple([s for s in ends if s & (s - 1) and not s & meet])


def _strong_need(h: Hypergraph, w: int) -> set:
    """The requirements for strongly dominating the vertices of w."""
    return {_strong_req(h, v) for v in vertices_of(w)} - {None}


def gamma_A(h: Hypergraph, target,
            budget: Budget | None = None) -> DominationResult:
    """Minimum W inside the complement of the target with target <= N(W):
    every target vertex has a neighbour in W.  One budget unit per W
    tested."""
    a = int(as_face(target))
    if a & ~h.vertex_mask:
        raise ValueError("target outside the vertex set")
    pool = h.vertex_mask & ~a
    w = _fewest({(h._nbr[v] & pool, ()) for v in vertices_of(a)},
                budget or Budget())
    if w is None:
        raise UndominatableError(f"target {list(vertices_of(a))} cannot be "
                                 "dominated from its complement")
    return DominationResult(w.bit_count(), vertices_of(w), vertices_of(a))


def gamma_i(h: Hypergraph, budget: Budget | None = None) -> DominationResult:
    """Independence domination number: max over independent sets I of
    gamma_I.

    gamma_A is monotone in A, so the max is attained on a maximal
    independent set, i.e. on the complement of a minimal cover; only those
    are enumerated (`_maximizing_cover`).  Every node of the cover walk and
    every W tested spends a budget unit.
    """
    h._forbid_isolated()
    return _maximizing_cover(h, budget)[1]


# -- Kim-Kim parameters ----------------------------------------------------

def strongly_dominates(h: Hypergraph, b, w) -> bool:
    """Every vertex v of w lies in an edge e with e - {v} inside b.  Both b
    and w must lie in 1..n."""
    return _satisfies(h._vertex_set(b), _strong_need(h, h._vertex_set(w)))


def gamma_strong(h: Hypergraph, w,
                 budget: Budget | None = None) -> DominationResult:
    """gamma(H; W): minimum B (anywhere in V) strongly dominating W.  One
    budget unit per question on the lattice, and per B tested above it."""
    wm = int(as_face(w))
    if wm & ~h.vertex_mask:
        raise ValueError("target outside the vertex set")
    return _gamma_strong(h, wm, budget or Budget())


def _gamma_strong(h: Hypergraph, wm: int, budget: Budget) -> DominationResult:
    """`gamma_strong` of the target wm: read off the lattice within its
    width, and above it scanned against the requirements of wm's
    vertices."""
    if h.n <= _LATTICE_WIDTH:
        budget.spend()
        # the B strongly dominating every vertex of wm
        tables, hits = _strong_tables(h), _cube(h.n)[0]
        for v in vertices_of(wm):
            hits &= tables[v]
        b = _first(hits, h.n)
    else:
        b = _fewest(_strong_need(h, wm), budget)
        b = None if b is None else vertices_of(b)
    if b is None:
        raise UndominatableError(
            f"{list(vertices_of(wm))} cannot be strongly dominated")
    return DominationResult(len(b), b, vertices_of(wm))


def gamma_tilde(h: Hypergraph,
                budget: Budget | None = None) -> DominationResult:
    """Strong total domination number: gamma(H; V)."""
    h._forbid_isolated()
    return gamma_strong(h, h.vertex_mask, budget)


def gamma_si(h: Hypergraph, budget: Budget | None = None) -> DominationResult:
    """Strong independence domination number: max of gamma(H; I) over
    strongly independent I (monotone, so maximal ones suffice).  The empty
    set is strongly independent, so some maximal I exists.

    I is strongly independent when none of its vertices has a singleton
    edge and none is a neighbour of another, and maximal when every other
    vertex without a singleton edge is a neighbour of I: when I meets N[u]
    for each such u.  So the maximal I are exactly the leaves of `_branch`
    over those N[u], cut to the vertices without a singleton edge, each
    chosen v banning N(v) (a leaf inside I is maximal, so it is I); they
    come in `subsets` order.

    Each v of I lies on an edge of at most r vertices, r the largest edge
    size, whose other vertices strongly dominate it, so
    gamma(H; I) <= |I| (r - 1), and an I whose bound cannot beat the best
    so far is skipped (`_most`): the first maximum stays the witness.
    Every node of the walk spends a budget unit, and each I asked spends
    as `gamma_strong` does."""
    h._forbid_isolated()
    budget = budget or Budget()
    free = mask_of(v for v in range(1, h.n + 1) if 0 not in h._strong[v])
    reqs = [(h._nbr[u] | 1 << u) & free for u in vertices_of(free)]
    per_vertex = max(e.bit_count() for e in h.edges) - 1
    return _most(_branch(reqs, h._nbr, budget),
                 lambda i: i.bit_count() * per_vertex,
                 lambda i: _gamma_strong(h, i, budget))[1]


def gamma_E(h: Hypergraph, budget: Budget | None = None) -> DominationResult:
    """Edgewise domination: fewest edges whose union strongly dominates V,
    the edge families tried fewest first, in itertools.combinations order,
    one budget unit each.

    The empty family counts, as B = {} does in `gamma_strong`, so gamma_E is
    0 when every vertex has its singleton edge.  Kim and Kim's definition
    (JCTA 2021) is unchecked here; their bound L(NC(H)) <= n - gamma_E - 1
    holds on Hypergraph(2, [[1], [1, 2], [2]]) (L = 1) only with r from 0.
    """
    h._forbid_isolated()
    budget = budget or Budget()
    vmask = h.vertex_mask
    need = _strong_need(h, vmask)
    if not _satisfies(functools.reduce(operator.or_, h.edges, 0), need):
        raise UndominatableError("V cannot be strongly dominated edgewise")
    for fam in itertools.chain.from_iterable(
            itertools.combinations(h.edges, r)
            for r in range(len(h.edges) + 1)):
        budget.spend()
        if _satisfies(functools.reduce(operator.or_, fam, 0), need):
            break
    return DominationResult(len(fam), tuple(tuple(e.vertices) for e in fam),
                            vertices_of(vmask))


def _maximizing_cover(
    h: Hypergraph, budget: Budget | None = None
) -> tuple[tuple[int, ...], DominationResult]:
    """The first minimal cover D (in `minimal_covers` order) maximizing
    gamma over its complement, with that gamma_A result.  V itself is a
    cover, so some minimal cover exists.

    The dominating set lies in D, and each vertex outside D has a
    neighbour in D (its edges meet D elsewhere), so gamma is at most
    min(|D|, |V - D|), and a cover whose bound cannot beat the best so far
    is skipped (`_most`).  The first cover's complement is always
    dominated, so a vertex on no edge, which no cover holds, raises
    `UndominatableError` there."""
    budget = budget or Budget()
    return _most(h.minimal_covers(budget),
                 lambda cover: min(len(cover), h.n - len(cover)),
                 lambda cover: gamma_A(h, h.vertex_mask & ~mask_of(cover),
                                       budget))


def maximizing_minimal_cover(h: Hypergraph,
                             budget: Budget | None = None) -> tuple[int, ...]:
    """The lexicographically-first minimal cover D maximizing gamma over its
    complement (the cover realizing gamma_i)."""
    h._forbid_isolated()
    return _maximizing_cover(h, budget)[0]


def cover_initial_relabeling(h: Hypergraph, cover) -> tuple["Hypergraph", dict[int, int]]:
    """Relabel vertices by an explicit permutation so the given cover becomes
    the initial segment {1..|D|} (order preserved inside the cover and inside
    its complement)."""
    d = sorted(as_face(cover).vertices)
    outside = [v for v in d if not 1 <= v <= h.n]
    if outside:
        raise ValueError(f"cover vertices {outside} outside 1..{h.n}")
    chosen = set(d)
    rest = [v for v in range(1, h.n + 1) if v not in chosen]
    perm = {old: new + 1 for new, old in enumerate(d + rest)}
    relabeled = Hypergraph._of_masks(
        h.n, [sum([1 << perm[v] for v in vertices_of(e)]) for e in h.edges])
    return relabeled, perm
