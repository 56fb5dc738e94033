"""Hypergraphs, covers, the non-cover complex and the domination numbers.

The suite checks the domination numbers against a plain oracle on every
hypergraph on <= 3 vertices, on every one on 4 vertices with edges of at
most two vertices, and on every one on 4 vertices with at most 4 edges.
From the repo root,
`PYTHONPATH=src python tests/test_hypergraphs.py 4` checks them on all
32,767 hypergraphs on 4 vertices (about 3 minutes), and
`PYTHONPATH=src python tests/test_hypergraphs.py graphs 5` on all 32,767
graphs on 5 vertices, loops included.

On at most 12 vertices the strong domination numbers are read off the
subset lattice, and the fewest-first scan stays as its oracle: the suite
compares the two, value, witness, error and budget use, at every budget
limit on every hypergraph on <= 3 vertices and on a few random ones on 12
and 13 vertices.  `PYTHONPATH=src python tests/test_hypergraphs.py budget 4 200`
does so on every hypergraph on 4 vertices and on 200 random ones on each
of 12 and 13 vertices (about a minute).

The unchecked mask entry `Hypergraph._of_masks` is checked against the
public constructor and a label-by-label build (edges, edge remainders and
neighbourhoods) on every hypergraph on <= 3 vertices and 2,000 seeded
random edge lists on 5 to 12 vertices.
`PYTHONPATH=src python tests/test_hypergraphs.py masks 4 2000` does so on
every hypergraph on 4 vertices and 2,000 random ones (about 5 seconds).

The Leray number of NC(H) is checked against a second route, the reduced
homology of the induced subcomplexes of its Alexander dual Ind(H), over
Q, GF(2) and GF(3): on every hypergraph on <= 3 vertices and 50 seeded
random ones on 4 to 7 vertices.
`PYTHONPATH=src python tests/test_hypergraphs.py dual-leray 4` does so on
every hypergraph on 4 vertices.

The floor max |D| - 1 over the minimal covers D, which NC(H)'s reports
start their Leray scans from, is checked to be at most the Leray number of
NC(H) over Q, GF(2) and GF(3), and the reports it starts to be
byte-identical to those started from 0: on every hypergraph on <= 3
vertices and 50 seeded random ones on 5 to 9 vertices.
`PYTHONPATH=src python tests/test_hypergraphs.py cover-floor 4 2000` does
so on every hypergraph on 4 vertices and 2,000 random ones.
"""

import contextlib
import inspect
import itertools
import random
import re
import sys
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit import (
    Budget,
    BudgetExceededError,
    Face,
    HypothesisNotMetError,
    Hypergraph,
    IsolatedVertexError,
    SimplicialComplex,
    UndominatableError,
    gamma_A,
    gamma_E,
    gamma_i,
    gamma_si,
    gamma_strong,
    gamma_tilde,
    leray_number,
    mes_equal_check,
    neighbor_inequality_check,
    nc_bound_order,
    nc_facet_order,
    non_cover_complex,
    reduced_betti,
    strongly_dominates,
)
from collapsekit import homology, reports
from collapsekit import hypergraphs as hg
from collapsekit.complexes import as_face, mask_of, subsets, vertices_of
from collapsekit.errors import VertexRangeError
from collapsekit.generators import star_family
from collapsekit.io import hypergraph_from_obj
from collapsekit.hypergraphs import (
    DominationResult,
    _cover_relabeling,
    _maximizing_cover,
    cover_initial_relabeling,
    maximizing_minimal_cover,
)
from collapsekit.reports import THEOREMS, _mes_class, compute, report_json

from conftest import all_hypergraphs

C4 = Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])  # 4-cycle


def random_hypergraphs(max_n=6):
    def build(draw_edges, n):
        edges = [tuple(sorted(set(e))) for e in draw_edges if e]
        edges = [e for e in edges if all(1 <= v <= n for v in e)]
        return Hypergraph(n, edges) if edges else Hypergraph(n, [(1,)])
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=3),
            min_size=1, max_size=6,
        ).map(lambda es: build(es, n))
    )


# -- basic structure -------------------------------------------------------

def test_construction_dedupes_but_keeps_nested_edges():
    h = Hypergraph(3, [(1, 2), (2, 1), (1,), (1, 2, 3)])
    assert [tuple(e.vertices) for e in h.edges] == [(1,), (1, 2), (1, 2, 3)]


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    with pytest.raises(ValueError):
        Hypergraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Hypergraph(0, [])


def test_construction_bounds_the_vertex_count():
    # labels are bits of a mask, so 127 is the largest vertex
    assert Hypergraph(127, [(1, 127)]).n == 127
    with pytest.raises(VertexRangeError):
        Hypergraph(128, [(1, 2)])


def test_construction_takes_the_loaders_vertex_count_only():
    """n is an int that is not a bool, the rule `io.hypergraph_from_obj`
    applies, so every hypergraph's report instance loads back."""
    for n in (True, 2.0, "3", None):
        with pytest.raises(TypeError, match="not an integer vertex count"):
            Hypergraph(n, [(1,)])
        with pytest.raises(ValueError, match="not an integer vertex count"):
            hypergraph_from_obj({"n": n, "edges": [[1]]})
    h = Hypergraph(1, [(1,)])
    assert hypergraph_from_obj(compute(h, [])["instance"]["content"]) == h


# -- the unchecked mask entry against the checking constructor -------------
# `Hypergraph._of_masks` takes edge masks already known to lie in 1..n; the
# public constructor checks label lists first.  Both must hold what a plain
# label-by-label build gives: the distinct edges sorted by vertex tuple,
# and per vertex its edge remainders, in edge order, and its neighbours.

def label_structure(n, edges):
    """(edges, _strong, _nbr) built from vertex labels, one edge at a
    time."""
    faces = sorted({tuple(sorted(e)) for e in edges})
    strong = tuple(tuple(mask_of(u for u in e if u != v)
                         for e in faces if v in e)
                   for v in range(n + 1))
    nbr = tuple(mask_of(u for e in faces if v in e for u in e if u != v)
                for v in range(n + 1))
    return tuple(mask_of(e) for e in faces), strong, nbr


def mask_route_agrees(n, masks):
    """`_of_masks(n, masks)`, `Hypergraph(n, labels)` on the same edges and
    `label_structure` agree."""
    labels = [vertices_of(m) for m in masks]
    want = label_structure(n, labels)
    for h in (Hypergraph._of_masks(n, masks), Hypergraph(n, labels)):
        if (h.n, (h.edges, h._strong, h._nbr)) != (n, want):
            return False
        if not all(type(e) is Face for e in h.edges):
            return False
    return True


def mask_cases(n, count, seed=0):
    """Every hypergraph on n vertices, its edges reversed and the first one
    repeated, then `count` seeded random edge lists on 5-12 vertices with
    repeated edges."""
    for h in all_hypergraphs(n):
        yield h.n, list(h.edges[::-1]) + list(h.edges[:1])
    rng = random.Random(seed)
    for _ in range(count):
        width = rng.randint(5, 12)
        masks = [rng.randrange(2, 1 << (width + 1), 2)
                 for _ in range(rng.randint(1, 12))]
        yield width, masks + masks[:rng.randint(0, 3)]


def mask_differential(cases):
    """Run `mask_route_agrees` on each case.  Returns (checked,
    mismatches)."""
    checked, mismatches = 0, []
    for n, masks in cases:
        if not mask_route_agrees(n, masks):
            mismatches.append((n, masks))
        checked += 1
    return checked, mismatches


def test_mask_entry_matches_the_constructor_on_small_and_random_hypergraphs():
    for n in (1, 2, 3):
        checked, mismatches = mask_differential(mask_cases(n, 0))
        assert (checked, mismatches) == ((1 << ((1 << n) - 1)) - 1, [])
    assert mask_differential(mask_cases(1, 2000, seed=1))[1] == []


def test_neighbors_exclude_self():
    h = Hypergraph(3, [(1, 2), (2,), (3,)])
    assert h.neighbors(1) == {2}
    assert h.neighbors(2) == {1}
    # a singleton edge does not make its vertex its own neighbour
    assert h.neighbors(3) == set()
    assert h.isolated_vertices() == {3}


def test_neighbors_set_unions():
    assert C4.neighbors_set((1, 3)) == {2, 4}


def test_cover_and_independence_duality():
    for r in range(5):
        for comb in itertools.combinations(range(1, 5), r):
            m = Face.of(comb)
            complement = Face(C4.vertex_mask & ~m)
            assert C4.is_cover(m) == C4.is_independent(complement)


def test_minimal_covers_of_four_cycle():
    assert set(C4.minimal_covers()) == {(1, 3), (2, 4)}


def test_minimal_covers_of_triangle_with_pendant():
    h = Hypergraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    assert set(h.minimal_covers()) == {(1, 3), (2, 3), (1, 2, 4)}


def test_strong_independence():
    h = Hypergraph(4, [(1, 2, 3), (3, 4)])
    assert h.is_strongly_independent((1, 4))
    assert not h.is_strongly_independent((1, 2))  # two vertices in one edge
    assert not h.is_strongly_independent((1, 2, 3))


@pytest.mark.parametrize("subset, bad", [((1, 9), 9), ((0, 2), 0),
                                         ((9,), 9), ((0, 9), 0)])
@pytest.mark.parametrize("predicate", ["is_cover", "is_independent",
                                       "is_strongly_independent",
                                       "neighbors_set"])
def test_vertex_predicates_reject_vertices_outside_the_range(
        predicate, subset, bad):
    """The lowest vertex outside 1..n is named, as `neighbors_set` always
    did; before, the other three answered as if it were harmless
    (`is_cover((1, 9))` read True on the edge (1, 2))."""
    h = Hypergraph(3, [(1, 2)])
    with pytest.raises(ValueError,
                       match=re.escape(f"vertex {bad} outside 1..3")):
        getattr(h, predicate)(subset)


# -- non-cover complex -----------------------------------------------------

def test_nc_facets_are_minimal_edge_complements():
    h = Hypergraph(4, [(1, 2), (3, 4), (1, 2, 3)])  # (1,2,3) is not minimal
    nc = non_cover_complex(h)
    assert nc == SimplicialComplex([(3, 4), (1, 2)])


def test_nc_matches_the_minimal_edge_filter_on_every_small_hypergraph():
    """Canonicalizing the complements of all edges gives the complements of
    the minimal edges, the construction `non_cover_complex` used before."""
    for n in range(1, 5):
        for h in all_hypergraphs(n):
            minimal = [e for e in h.edges
                       if not any(f & ~e == 0 and f != e for f in h.edges)]
            want = SimplicialComplex(h.vertex_mask & ~e for e in minimal)
            assert non_cover_complex(h) == want, h


def test_nc_of_edgeless_hypergraph_raises():
    with pytest.raises(ValueError):
        non_cover_complex(Hypergraph(3, []))


def test_nc_empty_when_an_edge_spans_all_vertices():
    h = Hypergraph(3, [(1, 2, 3)])
    assert non_cover_complex(h).is_empty


def test_nc_faces_are_exactly_the_non_covers():
    nc = non_cover_complex(C4)
    for r in range(5):
        for comb in itertools.combinations(range(1, 5), r):
            in_nc = Face.of(comb) in nc or (not comb and not nc.is_empty)
            assert in_nc == (not C4.is_cover(Face.of(comb)))


def test_nc_facet_order_lex_example():
    # edges written as decreasing sequences: {3,2,1} < {4,3,1} < {4,3,2}
    h = Hypergraph(4, [(1, 2, 3), (1, 3, 4), (2, 3, 4)])
    order = nc_facet_order(h)
    assert [f.vertices for f in order.ordered_facets] == [(4,), (2,), (1,)]


def test_nc_facet_order_on_empty_nc_raises():
    with pytest.raises(ValueError):
        nc_facet_order(Hypergraph(3, [(1, 2, 3)]))


def test_missing_nc_or_facet_order_is_an_unmet_hypothesis():
    # reports record these per invariant instead of aborting
    with pytest.raises(HypothesisNotMetError, match="edgeless"):
        non_cover_complex(Hypergraph(3, []))
    with pytest.raises(HypothesisNotMetError, match="NC\\(H\\) is empty"):
        nc_facet_order(Hypergraph(2, [(1, 2)]))
    with pytest.raises(HypothesisNotMetError, match="NC\\(H\\) is empty"):
        nc_bound_order(Hypergraph(3, [(1, 2, 3)]))


# -- the Leray number of NC(H) through its Alexander dual -----------------
# W is in NC(H) exactly when V - W holds an edge, so NC(H) is the Alexander
# dual of Ind(H), the complex of vertex sets holding no edge.  By Hochster's
# formula and Eagon-Reiner/Terai duality, L(NC(H)) is the largest
# |W| - j - 2 over W inside V and j with H_j(Ind(H)[W]) != 0 (reduced).  W
# ranges over all of V: a vertex with a singleton edge is in no face, and
# Ind(H)[W] = {empty face} has H_{-1} != 0.

FIELDS = ("Q", "GF2", "GF3")


def dual_leray(h, field):
    """L(NC(H)) from the reduced homology of each induced Ind(H)[W], ranked
    with `reduced_betti` alone: no closed-link listing, nerve count or cap
    rule of the Leray scan."""
    independent = [s for s in range(2, 1 << (h.n + 1), 2)
                   if not any(e & ~s == 0 for e in h.edges)]
    best = None
    for w in range(0, 1 << (h.n + 1), 2):
        ind = SimplicialComplex(s for s in independent if not s & ~w)
        betti = reduced_betti(ind, field)
        for j in range(-1, len(betti.ranks)):
            if betti.rank(j):
                top = w.bit_count() - j - 2
                best = top if best is None else max(best, top)
    return best


def random_dual_cases(count, seed=0):
    """`count` seeded random hypergraphs on 4 to 7 vertices, edges of one
    to three vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 7)
        yield Hypergraph(n, [rng.sample(range(1, n + 1), rng.randint(1, 3))
                             for _ in range(rng.randint(1, n + 2))])


def dual_differential(hypergraphs):
    """`leray_number(non_cover_complex(h), field)` against `dual_leray` on
    each hypergraph and field.  Returns (checked, mismatches)."""
    checked, mismatches = 0, []
    for h in hypergraphs:
        nc = non_cover_complex(h)
        for field in FIELDS:
            scan, dual = leray_number(nc, field), dual_leray(h, field)
            if scan != dual:
                mismatches.append((h, field, scan, dual))
            checked += 1
    return checked, mismatches


def test_nc_leray_matches_the_dual_on_every_hypergraph_up_to_3_vertices():
    hypergraphs = [h for n in (1, 2, 3) for h in all_hypergraphs(n)]
    assert dual_differential(hypergraphs) == (3 * 1 + 3 * 7 + 3 * 127, [])


def test_nc_leray_matches_the_dual_on_random_hypergraphs():
    assert dual_differential(random_dual_cases(50)) == (150, [])


# -- the Leray floor of NC(H) from the largest minimal cover --------------
# L(NC(H); F) = pd(S/I(H)) - 1 over every field F, and pd(S/I) is at least
# the largest height of a minimal prime, so L(NC(H)) >= max |D| - 1 over
# the minimal covers D (see `invariants._bounds`).  A report starts C's
# floor scan and the Leray scan there; the floor 0, today's start, is the
# oracle: every report byte must stay the same.

# the requests whose Leray scans take the floor: every invariant (the
# scans under C's floor and ceiling) and the Leray number alone (the scan
# under the nc order's claim)
FLOOR_REQUESTS = (None, ["nc_leray"])


def random_floor_cases(count, seed=0):
    """`count` seeded random hypergraphs on 5 to 9 vertices, n - 2 to
    n + 3 edges of two or three vertices.  Edges of one vertex, or of
    four, make the floor meet L on nearly every draw."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 9)
        yield Hypergraph(n, [rng.sample(range(1, n + 1), rng.randint(2, 3))
                             for _ in range(rng.randint(n - 2, n + 3))])


def _copy(h):
    """A fresh copy of h, with no cover walk kept."""
    return Hypergraph._of_masks(h.n, [int(e) for e in h.edges])


def cover_floor_differential(hypergraphs):
    """On each hypergraph and field: L(NC(H)) >= max |D| - 1, with D read
    off `minimal_covers`, and the reports of `FLOOR_REQUESTS` started from
    that floor equal byte for byte those started from 0.  Returns
    (checked, equal, mismatches): `equal` counts the pairs whose Leray
    number is the floor itself."""
    checked = equal = 0
    mismatches = []
    for h in hypergraphs:
        least = max(map(len, h.minimal_covers())) - 1
        if hg._nc_leray_floor(h, 10_000_000) != least:
            mismatches.append((h, "floor", least))
        nc = non_cover_complex(h)
        for field in FIELDS:
            leray = leray_number(nc, field)
            if leray < least:
                mismatches.append((h, field, leray, least))
            equal += leray == least
            checked += 1
            for which in FLOOR_REQUESTS:
                floored = report_json(compute(_copy(h), which, field=field))
                with unittest.mock.patch.object(hg, "_nc_leray_floor",
                                                lambda h, limit: 0):
                    plain = report_json(compute(_copy(h), which,
                                                field=field))
                if floored != plain:
                    mismatches.append((h, field, which))
    return checked, equal, mismatches


def test_cover_floor_is_below_the_nc_leray_number_up_to_3_vertices():
    hypergraphs = [h for n in (1, 2, 3) for h in all_hypergraphs(n)]
    checked, equal, mismatches = cover_floor_differential(hypergraphs)
    # on so few vertices the floor is L itself
    assert mismatches == [] and equal == checked == 3 * 135


def test_cover_floor_is_below_the_nc_leray_number_on_random_hypergraphs():
    checked, equal, mismatches = cover_floor_differential(
        random_floor_cases(50))
    assert mismatches == [] and checked == 150
    assert 0 < equal < checked  # the floor is often, not always, L


def test_cover_floor_charges_no_node_and_stops_at_the_limit():
    """The floor reads the kept walk with no budget, walks it under a
    budget of its own when none is kept, and is 0 where the walk takes
    more nodes than the limit."""
    h = star_family(4, (2,) * 4)
    nodes = Budget()
    h.minimal_covers(nodes)
    assert hg._nc_leray_floor(_copy(h), nodes.used - 1) == 0
    fresh = _copy(h)
    assert hg._nc_leray_floor(fresh, nodes.used) == 5
    assert fresh._covers[1] == nodes.used
    assert hg._nc_leray_floor(fresh, nodes.used - 1) == 0
    assert hg._nc_leray_floor(fresh, nodes.used) == 5


def _gamma_i_outcome(h, limit):
    budget = Budget(limit)
    try:
        return gamma_i(h, budget), budget.used
    except BudgetExceededError:
        return "exhausted", budget.used


def test_a_kept_cover_walk_charges_what_a_fresh_walk_spends():
    """A walk kept on the hypergraph is charged to every later caller at its
    node count: `minimal_covers` spends the same twice, and gamma_i asked
    before or after nc_C (which reads the walk for its floor) spends the
    same in a report, and under every limit up to one past its need it
    runs out at the same count as on a fresh hypergraph."""
    cases = [C4, star_family(4, (2,) * 4), *random_floor_cases(8, seed=1)]
    for h in cases:
        if h.isolated_vertices():
            continue
        fresh, kept = Budget(), Budget()
        h = _copy(h)
        assert h.minimal_covers(fresh) == h.minimal_covers(kept)
        assert fresh.used == kept.used > 0
        first = compute(_copy(h), ["gamma_i", "nc_C"])
        after = compute(_copy(h), ["nc_C", "gamma_i"])
        assert first["values"] == after["values"]
        assert (first["budget"]["used_total"]
                == after["budget"]["used_total"]), h
        need = _gamma_i_outcome(_copy(h), 10_000_000)[1]
        walked = _copy(h)
        compute(walked, ["nc_C"])
        assert walked._covers is not None
        for limit in range(1, need + 2):
            assert (_gamma_i_outcome(walked, limit)
                    == _gamma_i_outcome(_copy(h), limit)), (h, limit)
    # a small report limit exhausts gamma_i at the same count either way
    matching = Hypergraph(22, [(v, v + 1) for v in range(1, 23, 2)])
    for which in (["gamma_i", "nc_leray"], ["nc_leray", "gamma_i"]):
        report = compute(_copy(matching), which, budget_limit=1000)
        assert report["budget"]["exhausted"] == ["gamma_i"]
        assert report["budget"]["used_total"] == 1001


def _count_link_listings(monkeypatch):
    """The complexes whose closed links are listed from now on
    (`homology._closed_links`), by whichever scan: a Leray scan that reads
    a link lists them first."""
    listed = []
    real = homology._closed_links

    def counted(y):
        listed.append(y)
        return real(y)

    monkeypatch.setattr(homology, "_closed_links", counted)
    return listed


def test_nc_leray_alone_caps_its_scan_at_the_nc_orders_claim(monkeypatch):
    """A report that asks nc_leray without nc_C builds the one mes collapse
    under the nc order and caps its scan at that claim: on
    NC(star_family(3, (1, 1, 1))) the cover floor 2 meets the claim 2, so
    it lists no link; on the 4-cycle (floor 1, claim 2, L = 2) the greedy
    d = 1 walk gets stuck, so L >= 2 meets the cap 2 with no link listed
    either, where a scan started at the floor 1 listed them."""
    built = []
    mes_certificate = reports._mes_certificate

    def recorded(x, ordering):
        built.append(ordering.ordered_facets)
        return mes_certificate(x, ordering)

    monkeypatch.setattr(reports, "_mes_certificate", recorded)
    listed = _count_link_listings(monkeypatch)
    h = star_family(3, (1, 1, 1))
    assert compute(h, ["nc_leray"])["values"] == {"nc_leray": 2}
    assert built == [nc_facet_order(h).ordered_facets] and listed == []
    built.clear()
    assert compute(C4, ["nc_leray"])["values"] == {"nc_leray": 2}
    assert built == [nc_facet_order(C4).ordered_facets] and listed == []


def test_star_family_7_reads_c_and_leray_with_no_scan(monkeypatch):
    """star_family(7, (2,) * 7) has a minimal cover of 11 vertices, and
    the nc order claims 10: nc_C and nc_leray are 10 with no Leray scan,
    so no closed link is listed (48 s and 251 s when they scanned)."""
    listed = _count_link_listings(monkeypatch)
    for which in (["nc_C"], ["nc_leray"]):
        report = compute(star_family(7, (2,) * 7), which)
        assert report["values"] == {which[0]: 10}
    assert listed == []


# -- gamma_A and gamma_i ---------------------------------------------------

def test_gamma_A_four_cycle():
    res = gamma_A(C4, (1,))
    assert res.value == 1 and res.witness in ((2,), (4,))
    res = gamma_A(C4, (1, 3))
    assert res.value == 1 and res.witness in ((2,), (4,))


def test_gamma_A_infeasible_target():
    h = Hypergraph(3, [(1, 2), (3,)])
    with pytest.raises(UndominatableError):
        gamma_A(h, (3,))  # 3 has no neighbours at all


def test_gamma_A_rejects_outside_target():
    with pytest.raises(ValueError):
        gamma_A(C4, (9,))


def test_gamma_i_four_cycle():
    # either diagonal {2,4} or {1,3} is dominated by one opposite vertex
    assert gamma_i(C4).value == 1


def test_gamma_i_path():
    # P4: the maximal independent set {1,4} needs both 2 and 3
    p4 = Hypergraph(4, [(1, 2), (2, 3), (3, 4)])
    assert gamma_i(p4).value == 2


def test_gamma_i_requires_no_isolated_vertices():
    with pytest.raises(IsolatedVertexError):
        gamma_i(Hypergraph(3, [(1, 2)]))


@pytest.mark.parametrize("call", [
    hg.maximizing_minimal_cover,
    nc_bound_order,
    lambda h: mes_equal_check(h, (1,), (2,)),
])
def test_cover_relabeling_names_the_isolated_vertices(call):
    # as gamma_i does, not as an undominatable target the caller never
    # passed (the complement of the cover {1})
    with pytest.raises(IsolatedVertexError,
                       match=re.escape("isolated vertices [3]")):
        call(Hypergraph(3, [(1, 2)]))


def test_gamma_i_single_spanning_edge():
    # one edge covering everything: every vertex alone is a maximal
    # independent set, dominated by any other vertex of the edge
    h = Hypergraph(3, [(1, 2, 3)])
    assert gamma_i(h).value == 1


# -- strong domination parameters -----------------------------------------

def test_strongly_dominates_needs_a_witnessing_edge():
    h = Hypergraph(4, [(1, 2, 3), (3, 4)])
    assert strongly_dominates(h, (1, 2, 3), (1,))
    # {1,4} cannot strongly dominate 1: no edge through 1 inside {1,4}
    assert not strongly_dominates(h, (1, 4), (1,))


def test_strongly_dominates_rejects_a_target_outside_the_vertex_set():
    h = Hypergraph(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match=r"vertex 9 outside 1\.\.3"):
        strongly_dominates(h, [1, 2], [9])
    with pytest.raises(ValueError, match=r"vertex 0 outside 1\.\.3"):
        strongly_dominates(h, [1, 2], [0, 3])


def test_strongly_dominates_rejects_a_dominator_outside_the_vertex_set():
    h = Hypergraph(3, [(1, 2), (2, 3)])
    assert strongly_dominates(h, [1, 2], [3])
    with pytest.raises(ValueError, match=r"vertex 9 outside 1\.\.3"):
        strongly_dominates(h, [1, 2, 9], [3])


def test_gamma_tilde_four_cycle():
    assert gamma_tilde(C4).value == 2


def test_gamma_strong_single_vertex():
    # one neighbour suffices: {2} with vertex 1 itself completes edge (1,2)
    res = gamma_strong(C4, (1,))
    assert res.value == 1 and res.witness in ((2,), (4,))


def test_gamma_si_equals_gamma_i_on_graphs():
    for h in (C4, Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])):
        assert gamma_si(h).value == gamma_i(h).value


def test_gamma_E_four_cycle():
    # one edge dominates the cycle: {1,2} reaches 3 via (2,3) and 4 via (1,4)
    assert gamma_E(C4).value == 1


def test_gamma_E_two_triangles():
    # two vertex-disjoint triangles need one edge from each
    h = Hypergraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert gamma_E(h).value == 2


def test_gamma_E_witness_is_a_dominating_edge_family():
    res = gamma_E(C4)
    union = Face.of(v for e in res.witness for v in e)
    assert strongly_dominates(C4, union, Face(C4.vertex_mask))


def test_gamma_E_admits_the_empty_family():
    # every vertex has its singleton edge, so the empty union dominates V;
    # NC(H) is two points with L = 1, and L <= n - gamma_E - 1 needs 0
    h = Hypergraph(2, [[1], [1, 2], [2]])
    res = gamma_E(h)
    assert (res.value, res.witness) == (0, ())
    assert strongly_dominates(h, 0, Face(h.vertex_mask))
    assert not strongly_dominates(C4, 0, Face(C4.vertex_mask))


@pytest.mark.parametrize("theorem", ["kim-kim", "nc-bound", "gamma-si-eq",
                                     "gamma-monotone"])
def test_hypergraph_probes_hold_on_every_hypergraph_up_to_3_vertices(theorem):
    probe = THEOREMS[theorem][1]
    checked = 0
    for n in (1, 2, 3):
        for h in all_hypergraphs(n):
            if h.isolated_vertices():
                continue
            assert (probe(h, lambda: random.Random(0), Budget())
                    in ("pass", "skip")), h
            checked += 1
    assert checked == 4 + 96  # n = 2 and n = 3; on n = 1 vertex 1 is isolated


# -- the plain domination loops, kept as a test-only oracle ----------------
# One exhaustive scan per parameter, each subset or edge family tested from
# scratch; the library scans candidates against requirement masks computed
# once per target.

def strongly_totally_dominates_vertex(h, b, v):
    """Some subset of b - {v}, together with v, forms an edge."""
    bm = int(as_face(b)) & ~(1 << v)
    return any((e >> v) & 1 and int(e) & ~(bm | (1 << v)) == 0
               for e in h.edges)


def oracle_strongly_dominates(h, b, w):
    for m in (b, w):
        out = [v for v in as_face(m).vertices if not 1 <= v <= h.n]
        if out:
            raise ValueError(f"vertex {out[0]} outside 1..{h.n}")
    bm = int(as_face(b))
    return all(strongly_totally_dominates_vertex(h, bm, v)
               for v in as_face(w).vertices)


def oracle_gamma_A(h, target):
    a = int(as_face(target))
    if a & ~h.vertex_mask:
        raise ValueError("target outside the vertex set")
    pool = h.vertex_mask & ~a
    if a & ~h._nbr_mask(pool):
        raise UndominatableError(
            f"target {list(vertices_of(a))} cannot be dominated from its "
            "complement")
    for m in subsets(pool, range(pool.bit_count() + 1)):
        if a & ~h._nbr_mask(m) == 0:
            return DominationResult(m.bit_count(), vertices_of(m),
                                    vertices_of(a))
    raise AssertionError("unreachable: feasibility checked above")


def oracle_minimal_covers(h):
    return [vertices_of(m) for m in subsets(h.vertex_mask, range(h.n + 1))
            if h.is_cover(m)
            and not any(h.is_cover(m & ~(1 << v)) for v in vertices_of(m))]


def oracle_maximizing_cover(h):
    best = None
    for cover in oracle_minimal_covers(h):
        res = oracle_gamma_A(h, h.vertex_mask & ~mask_of(cover))
        if best is None or res.value > best[1].value:
            best = cover, res
    return best


def oracle_gamma_i(h):
    h._forbid_isolated()
    return oracle_maximizing_cover(h)[1]


def oracle_gamma_strong(h, w):
    wm = int(as_face(w))
    if wm & ~h.vertex_mask:
        raise ValueError("target outside the vertex set")
    if not oracle_strongly_dominates(h, h.vertex_mask, wm):
        raise UndominatableError(
            f"{list(vertices_of(wm))} cannot be strongly dominated")
    for m in subsets(h.vertex_mask, range(h.n + 1)):
        if oracle_strongly_dominates(h, m, wm):
            return DominationResult(m.bit_count(), vertices_of(m),
                                    vertices_of(wm))
    raise AssertionError("unreachable: feasibility checked above")


def oracle_gamma_tilde(h):
    h._forbid_isolated()
    return oracle_gamma_strong(h, h.vertex_mask)


def oracle_gamma_si(h):
    h._forbid_isolated()
    strongly_ind = [
        m for m in subsets(h.vertex_mask, range(h.n + 1))
        if not any(int(e) & ~m == 0 for e in h.edges)
        and all((int(e) & m).bit_count() <= 1 for e in h.edges)]
    si_set = set(strongly_ind)
    best = DominationResult(0, (), ())
    for m in strongly_ind:
        if any((m | (1 << v)) in si_set and not (m >> v) & 1
               for v in range(1, h.n + 1)):
            continue  # not maximal
        res = oracle_gamma_strong(h, m)
        if res.value > best.value:
            best = res
    return best


def oracle_gamma_E(h):
    h._forbid_isolated()
    vmask = h.vertex_mask
    union_all = 0
    for e in h.edges:
        union_all |= e
    if not oracle_strongly_dominates(h, union_all, vmask):
        raise UndominatableError("V cannot be strongly dominated edgewise")
    for r in range(len(h.edges) + 1):
        for fam in itertools.combinations(h.edges, r):
            u = 0
            for e in fam:
                u |= e
            if oracle_strongly_dominates(h, u, vmask):
                witness = tuple(tuple(e.vertices) for e in fam)
                return DominationResult(r, witness, vertices_of(vmask))
    raise AssertionError("unreachable: feasibility checked above")


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def agree_with_oracle(h, targets):
    """Every domination parameter of h, and gamma_A, gamma_strong and
    strongly_dominates on each target, match the oracle exactly: value,
    witness, target, error type and message."""
    for new, old in ((gamma_i, oracle_gamma_i),
                     (gamma_tilde, oracle_gamma_tilde),
                     (gamma_si, oracle_gamma_si),
                     (gamma_E, oracle_gamma_E),
                     (_maximizing_cover, oracle_maximizing_cover)):
        assert outcome(new, h) == outcome(old, h), (h, new.__name__)
    assert h.minimal_covers() == oracle_minimal_covers(h), h
    for w in targets:
        assert outcome(gamma_A, h, w) == outcome(oracle_gamma_A, h, w), (h, w)
        assert (outcome(gamma_strong, h, w)
                == outcome(oracle_gamma_strong, h, w)), (h, w)
        for b in targets:
            assert (outcome(strongly_dominates, h, b, w)
                    == outcome(oracle_strongly_dominates, h, b, w)), (h, b, w)


def test_domination_matches_the_oracle_on_every_hypergraph_up_to_3_vertices():
    # isolated vertices included; the target 1 << (n + 1) lies outside V
    for n in (1, 2, 3):
        targets = list(range(0, 1 << (n + 1), 2)) + [1 << (n + 1)]
        for h in all_hypergraphs(n):
            agree_with_oracle(h, targets)


def oracle_differential(hypergraphs, targets):
    """Run `agree_with_oracle` on each hypergraph.  Returns (checked,
    mismatches)."""
    checked, mismatches = 0, []
    for h in hypergraphs:
        try:
            agree_with_oracle(h, targets)
        except AssertionError as exc:
            mismatches.append(exc)
        checked += 1
    return checked, mismatches


def graphs_with_loops(n):
    """Every hypergraph on 1..n whose edges have one or two vertices (loops
    and graph edges), one at a time."""
    small = [m for m in range(2, 1 << (n + 1), 2) if m.bit_count() <= 2]
    for f in range(1, 1 << len(small)):
        yield Hypergraph(n, [m for i, m in enumerate(small) if f >> i & 1])


def graph_targets(n):
    """Targets of each size up to three, a non-interval pair, all of 1..n
    and one outside it."""
    return [0, 0b10, 0b1100, 0b10010, 0b11100, (1 << (n + 1)) - 2,
            1 << (n + 1)]


def test_domination_matches_the_oracle_on_every_4_vertex_graph():
    assert oracle_differential(graphs_with_loops(4),
                               graph_targets(4)) == (1023, [])


def subsets_order(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), vertices_of(m)))


def hypergraphs_with_few_edges(n, most):
    """Every hypergraph on 1..n with between one and `most` edges."""
    masks = range(2, 1 << (n + 1), 2)
    for r in range(1, most + 1):
        for edges in itertools.combinations(masks, r):
            yield Hypergraph(n, edges)


def test_cover_and_independence_walks_match_the_oracle_on_4_vertices():
    """Every hypergraph on 4 vertices with at most 4 edges (1,940
    families) agrees with the oracle, and `_branch` yields each set once,
    in `subsets` order, with or without a spread."""
    families = list(hypergraphs_with_few_edges(4, 4))
    assert oracle_differential(families, []) == (1940, [])
    for h in families:
        for spread in ((0,) * 5, h._nbr):
            leaves = hg._branch(h.edges, spread, Budget())
            assert leaves == subsets_order(set(leaves)), (h, spread)


def test_branch_yields_each_leaf_once_in_subsets_order():
    # nested and overlapping requirements; with the spread, taking 2 bans 3
    # and taking 3 bans 2
    reqs = [mask_of(r) for r in ((1, 2), (2, 3), (1, 2, 3, 4), (1, 3))]
    spread = (0, 0, 1 << 3, 1 << 2, 0)
    walks = {sp: hg._branch(reqs, sp, Budget()) for sp in ((0,) * 5, spread)}
    for leaves in walks.values():
        assert leaves == subsets_order(set(leaves))
        assert all(all(r & m for r in reqs) for m in leaves)
    assert ([vertices_of(m) for m in walks[(0,) * 5]]
            == [(1, 2), (1, 3), (2, 3)])
    assert [vertices_of(m) for m in walks[spread]] == [(1, 2), (1, 3)]
    assert hg._branch([], spread, Budget()) == [0]


def test_cover_walk_on_a_large_star_is_short_and_iterative():
    """A star on 127 vertices has 2^127 vertex subsets but two minimal
    covers; the walk finds them in 128 nodes.  The path down to the cover
    {2, ..., 127} is 126 nodes deep, and the walk keeps its own stack, so
    a recursion limit 60 frames above the caller's depth does not stop
    it."""
    star = Hypergraph(127, [(1, v) for v in range(2, 128)])
    covers, b = Budget(), Budget()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        assert star.minimal_covers(covers) == [(1,), tuple(range(2, 128))]
        gi, gsi = gamma_i(star, b), gamma_si(star, b)
    finally:
        sys.setrecursionlimit(old)
    assert covers.used == 128
    assert gi == DominationResult(1, (1,), tuple(range(2, 128)))
    assert gsi.value == 1
    assert b.used < 500


def test_domination_matches_the_oracle_on_random_hypergraphs():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(6, 8)
        h = Hypergraph(n, [rng.sample(range(1, n + 1), rng.randint(1, 3))
                           for _ in range(rng.randint(5, 12))])
        agree_with_oracle(h, [rng.randrange(0, 1 << (n + 1), 2)
                              for _ in range(4)])


def test_early_exit_searches_stop_at_the_least_size():
    # on 60 vertices a scan of every subset would never end; the searches
    # stop at sizes 1 and 2 after testing a handful of candidates
    star = Hypergraph(60, [(1, v) for v in range(2, 61)])
    b = Budget()
    leaves = range(2, 61)
    assert gamma_A(star, leaves, b) == DominationResult(1, (1,), tuple(leaves))
    assert gamma_tilde(star, b) == DominationResult(2, (1, 2),
                                                    tuple(range(1, 61)))
    assert gamma_E(star, b) == DominationResult(1, ((1, 2),),
                                                tuple(range(1, 61)))
    assert gamma_strong(star, [1], b) == DominationResult(1, (2,), (1,))
    assert b.used < 100


def test_domination_scans_draw_on_the_budget():
    """Every scan spends one unit per candidate tested or walk node, and a
    lattice question one unit: a perfect matching on 22 vertices has 2^11
    minimal covers, so gamma_i in a report with a 1,000-node budget runs
    out instead of walking them all."""
    matching = Hypergraph(22, [(v, v + 1) for v in range(1, 23, 2)])
    report = compute(matching, ["gamma_i"], budget_limit=1000)
    assert report["budget"]["exhausted"] == ["gamma_i"]
    assert report["values"] == {}
    with pytest.raises(BudgetExceededError):
        matching.minimal_covers(Budget(1000))
    # each scan and walk draws: a budget of one unit is too small for any
    # of them on the 4-cycle, and a generous one changes no value;
    # gamma_tilde and gamma_strong scan as past the lattice's width
    strong = (gamma_tilde, lambda h, b: gamma_strong(h, [1, 2], b))
    with lattice_width(C4.n - 1):
        for fn in (gamma_i, gamma_si, gamma_E,
                   lambda h, b: gamma_A(h, [1, 3], b)) + strong:
            with pytest.raises(BudgetExceededError):
                fn(C4, Budget(1))
            b = Budget(1000)
            assert fn(C4, b) == fn(C4, None) and b.used > 1
    b = Budget(1000)
    assert C4.minimal_covers(b) == C4.minimal_covers() and b.used > 1
    # on the lattice gamma_si's walk still draws, and a gamma_tilde or
    # gamma_strong question spends exactly one unit, so it raises on a
    # budget already at its limit
    with pytest.raises(BudgetExceededError):
        gamma_si(C4, Budget(1))
    for fn in strong:
        b = Budget(1)
        assert fn(C4, b) == fn(C4, None) and b.used == 1
        with pytest.raises(BudgetExceededError):
            fn(C4, b)


# -- the subset lattice against the scan -----------------------------------
# On at most hg._LATTICE_WIDTH vertices the strong domination numbers are
# read off subset tables; the fewest-first scan stays as their oracle.
# Setting the width below n forces the scan, and setting it to n forces the
# lattice, also one vertex past the width used in production.  A lattice
# question spends one budget unit, where the scan spends one per B tested.

@contextlib.contextmanager
def lattice_width(width):
    old = hg._LATTICE_WIDTH
    hg._LATTICE_WIDTH = width
    try:
        yield
    finally:
        hg._LATTICE_WIDTH = old


@contextlib.contextmanager
def spends(name):
    """The budget units each call of hg.<name>, whose last argument is a
    Budget, spends, in call order."""
    real, units = getattr(hg, name), []

    def counted(*args):
        before = args[-1].used
        try:
            return real(*args)
        finally:
            units.append(args[-1].used - before)

    setattr(hg, name, counted)
    try:
        yield units
    finally:
        setattr(hg, name, real)


def spent(fn, args):
    """fn's result or the type and message of its error, the units of a
    default budget it used, the units of each `_branch` walk it ran and of
    each `_gamma_strong` question it asked."""
    budget = Budget()
    with spends("_branch") as walks, spends("_gamma_strong") as asks:
        try:
            out = fn(*args, budget)
        except (ValueError, BudgetExceededError) as exc:
            out = type(exc), str(exc)
    return out, budget.used, walks, asks


def lattice_agrees_with_scan(h, targets):
    """gamma_tilde and gamma_si on h, and gamma_strong on each target, give
    the same value, witness, target, error type and message on the lattice
    as on the scan, and ask as many `_gamma_strong` questions.  On the
    lattice each question spends exactly one budget unit, so gamma_tilde
    and gamma_strong spend one unit (none when refused before asking) and
    gamma_si its walk's nodes, as on the scan, plus one per set it asks.
    Returns the number of questions asked on the lattice."""
    questions = [(gamma_tilde, (h,)), (gamma_si, (h,))]
    questions += [(gamma_strong, (h, w)) for w in targets]
    asked = 0
    for fn, args in questions:
        with lattice_width(h.n - 1):
            scan, _, scan_walks, scan_asks = spent(fn, args)
        with lattice_width(h.n):
            lattice, used, walks, asks = spent(fn, args)
        where = (h, fn.__name__, args[1:])
        assert lattice == scan, where
        assert walks == scan_walks and len(asks) == len(scan_asks), where
        assert asks == [1] * len(asks), where
        assert used == sum(walks) + len(asks), where
        if fn is not gamma_si:
            assert walks == [] and len(asks) <= 1, where
        asked += len(asks)
    return asked


def wide_hypergraphs(n, count, seed):
    """`count` seeded random hypergraphs on n vertices with no isolated
    vertex and small domination numbers, so that every budget limit can be
    tried: two or three centres share an edge, every other vertex shares a
    pair with one of them, and one to three edges of one to four vertices
    are added."""
    rng = random.Random(seed)
    for _ in range(count):
        order = rng.sample(range(1, n + 1), n)
        k = rng.randint(2, 3)
        edges = [order[:k]] + [(rng.choice(order[:k]), v) for v in order[k:]]
        edges += [rng.sample(range(1, n + 1), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 3))]
        yield Hypergraph(n, edges)


def lattice_differential(cases):
    """Run `lattice_agrees_with_scan` on each (hypergraph, targets) pair.
    Returns (checked, questions asked on the lattice, mismatches)."""
    checked, asked, mismatches = 0, 0, []
    for h, targets in cases:
        try:
            asked += lattice_agrees_with_scan(h, targets)
        except AssertionError as exc:
            mismatches.append(exc)
        checked += 1
    return checked, asked, mismatches


def wide_cases(count):
    """`count` seeded random hypergraphs at the lattice width and as many
    one vertex past it, each with the empty target, the whole vertex set
    and two random targets."""
    for width in (hg._LATTICE_WIDTH, hg._LATTICE_WIDTH + 1):
        rng = random.Random(width)
        for h in wide_hypergraphs(width, count, width):
            yield h, [0, h.vertex_mask] + [
                rng.randrange(2, 1 << (width + 1), 2) for _ in range(2)]


def budget_cases(n, count):
    """Every hypergraph on n vertices with the targets of the graph test,
    then the `wide_cases`."""
    for h in all_hypergraphs(n):
        yield h, graph_targets(n)
    yield from wide_cases(count)


def test_lattice_matches_the_scan_on_every_hypergraph_up_to_3_vertices():
    asked = 0
    for n in (1, 2, 3):
        targets = list(range(0, 1 << (n + 1), 2)) + [1 << (n + 1)]
        for h in all_hypergraphs(n):
            asked += lattice_agrees_with_scan(h, targets)
    assert asked == 1278


def test_lattice_matches_the_scan_at_and_past_the_width():
    checked, _, mismatches = lattice_differential(wide_cases(4))
    assert (checked, mismatches) == (8, [])


def test_lattice_matches_the_scan_on_large_answers():
    """Least sets of four to eight vertices: perfect matchings, whose
    strong total domination needs every vertex, a 5-cycle and two
    disjoint triples."""
    cases = [Hypergraph(n, [(v, v + 1) for v in range(1, n, 2)])
             for n in (4, 6, 8)]
    cases += [Hypergraph(5, [(v, v % 5 + 1) for v in range(1, 6)]),
              Hypergraph(6, [(1, 2, 3), (4, 5, 6)])]
    assert [gamma_tilde(h).value for h in cases] == [4, 6, 8, 3, 6]
    for h in cases:
        lattice_agrees_with_scan(h, [0, h.vertex_mask, 0b1010110])


def test_lattice_is_used_up_to_its_width_only():
    """The strong tables are built on first use, on a hypergraph within the
    width, and shared by every later question on it; gamma_i, gamma_E and
    strongly_dominates scan and never build them."""
    small, wide = (Hypergraph(n, [(v, v % n + 1) for v in range(1, n + 1)])
                   for n in (hg._LATTICE_WIDTH, hg._LATTICE_WIDTH + 1))
    for h in (small, wide):
        gamma_i(h)
        gamma_E(h)
        strongly_dominates(h, 0, Face(h.vertex_mask))
        assert h._sd is None
        gamma_tilde(h)
    assert small._sd is not None and wide._sd is None
    tables = small._sd
    gamma_si(small)
    gamma_strong(small, [1, 2])
    assert small._sd is tables


def test_lattice_tables_index_subsets_in_subsets_order():
    """A table holds B at its index, B's mask with vertex v moved to bit
    n - v.  Within one size layer a higher index comes earlier in `subsets`
    order, and an index maps back to its mask."""
    for n in range(1, 7):
        full, has, sizes = hg._cube(n)
        assert full == (1 << (1 << n)) - 1
        masks = list(subsets((1 << (n + 1)) - 2, range(n + 1)))
        index = [sum(1 << n - v for v in vertices_of(m)) for m in masks]
        assert sorted(index) == list(range(1 << n))
        for m, i in zip(masks, index):
            assert sum(1 << n - j for j in vertices_of(i)) == m
            assert sizes[m.bit_count()] >> i & 1
            for v in range(1, n + 1):
                assert has[v] >> i & 1 == m >> v & 1
        for r in range(n + 1):
            layer = [i for m, i in zip(masks, index) if m.bit_count() == r]
            assert layer == sorted(layer, reverse=True)


# -- star family (gap between the parameters) -----------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_star_family_parameter_gap(n):
    h = star_family(n, (1,) * n)
    assert gamma_i(h).value >= n
    assert gamma_E(h).value == 1  # the long center edge dominates everything
    assert gamma_tilde(h).value <= n


def test_star_family_shape():
    h = star_family(3, (2, 1, 1))
    assert h.n == 3 + 4
    assert Face.of([1, 2, 3]) in h.edges


def test_star_family_validates_arguments():
    with pytest.raises(ValueError):
        star_family(1, (1,))
    with pytest.raises(ValueError):
        star_family(3, (1, 1))


# -- probes ----------------------------------------------------------------

def test_neighbor_inequality_on_four_cycle():
    for cover in C4.minimal_covers():
        for r in range(len(cover) + 1):
            for s in itertools.combinations(cover, r):
                assert neighbor_inequality_check(C4, cover, s)


def test_neighbor_inequality_validates_hypotheses():
    with pytest.raises(HypothesisNotMetError):
        neighbor_inequality_check(C4, (1, 2, 3), ())  # not minimal
    with pytest.raises(HypothesisNotMetError):
        neighbor_inequality_check(C4, (1, 3), (2,))  # S outside D


def test_neighbor_theorem_dominates_each_cover_complement_once(monkeypatch):
    targets = []
    real = hg.gamma_A

    def counted(h, target, budget=None):
        targets.append(target)
        return real(h, target, budget)

    monkeypatch.setattr(hg, "gamma_A", counted)
    run = THEOREMS["neighbor-inequality"][1]
    for h in (C4, Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])):
        targets.clear()
        assert run(h, random.Random(0), None) == "pass"
        assert len(targets) == len(h.minimal_covers())


def test_nc_bound_theorem_finds_the_maximizing_cover_once(monkeypatch):
    calls = []
    real = hg._maximizing_cover

    def counted(h, budget=None):
        calls.append(h)
        return real(h, budget)

    monkeypatch.setattr(hg, "_maximizing_cover", counted)
    run = THEOREMS["nc-bound"][1]
    # the last one has an empty NC(H)
    for h in (C4, Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)]),
              Hypergraph(3, [(1, 2, 3)])):
        calls.clear()
        assert run(h, random.Random(0), Budget()) == "pass"
        assert calls == [h]
    # isolated vertices are refused before any cover is looked at
    calls.clear()
    with pytest.raises(IsolatedVertexError):
        run(Hypergraph(3, [(1, 2)]), random.Random(0), Budget())
    assert calls == []


def test_nc_bound_theorem_replays_the_mes_collapse(monkeypatch):
    """The probe checks the collapse behind C <= d under the relabeled
    order, so a collapse that claims another d or does not replay is a
    counterexample."""
    from collapsekit import CollapseCertificate, reports
    run = THEOREMS["nc-bound"][1]
    h = Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    assert run(h, random.Random(0), Budget()) == "pass"
    # the probe builds its ceiling through this name and replays it itself
    real = reports._mes_certificate

    def truncated(x, ordering):
        cert = real(x, ordering)
        return CollapseCertificate(cert.steps[:-1], cert.claimed_d)

    for broken in (lambda x, ordering: CollapseCertificate((), 0),
                   truncated):
        monkeypatch.setattr(reports, "_mes_certificate", broken)
        with pytest.raises(reports.Counterexample, match="mes collapse"):
            run(h, random.Random(0), Budget())


def test_cover_initial_relabeling():
    d = maximizing_minimal_cover(C4)
    relabeled, perm = cover_initial_relabeling(C4, d)
    assert sorted(perm[v] for v in d) == list(range(1, len(d) + 1))
    assert relabeled.n == C4.n
    assert len(relabeled.edges) == len(C4.edges)


def test_cover_initial_relabeling_maps_edge_masks_as_labels():
    """The relabeling maps edge masks through the permutation; it builds
    what the checking constructor builds from the permuted labels, for
    every vertex set as the cover on every hypergraph on <= 3 vertices."""
    for n in (1, 2, 3):
        for h in all_hypergraphs(n):
            for cover in range(0, 1 << (n + 1), 2):
                relabeled, perm = cover_initial_relabeling(h, cover)
                want = Hypergraph(n, [[perm[v] for v in e.vertices]
                                      for e in h.edges])
                assert ((relabeled.edges, relabeled._strong, relabeled._nbr)
                        == (want.edges, want._strong, want._nbr)), (h, cover)


def test_cover_initial_relabeling_rejects_vertices_outside_the_hypergraph():
    h = Hypergraph(3, [[1, 2], [2, 3]])
    for cover, outside in (([0, 2], [0]), ([2, 4], [4]), ([0, 5, 1], [0, 5])):
        with pytest.raises(ValueError, match=re.escape(
                f"cover vertices {outside} outside 1..3")):
            cover_initial_relabeling(h, cover)


def test_mes_equal_check_on_qualifying_pairs():
    """Pairs of NC faces with the same complement inside the maximizing
    cover, that complement containing an edge, share their mes."""
    h = Hypergraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    d = maximizing_minimal_cover(h)
    relabeled, perm = cover_initial_relabeling(h, d)
    inv = {new: old for old, new in perm.items()}
    nc = non_cover_complex(relabeled)
    dm = Face.of(range(1, len(d) + 1))
    groups = {}
    for gamma in nc.all_faces():
        key = (relabeled.vertex_mask & ~int(gamma)) & int(dm)
        if any(int(e) & ~key == 0 for e in relabeled.edges):
            groups.setdefault(key, []).append(gamma)
    checked = 0
    for members in groups.values():
        for a, b in itertools.combinations(members, 2):
            ga = tuple(inv[v] for v in a.vertices)
            gb = tuple(inv[v] for v in b.vertices)
            assert mes_equal_check(h, ga, gb)
            checked += 1
    assert checked > 0


def test_mes_equal_check_rejects_unqualified_pairs():
    with pytest.raises(HypothesisNotMetError):
        mes_equal_check(C4, (1,), (1, 2))
    with pytest.raises(HypothesisNotMetError):
        mes_equal_check(C4, (1, 2, 3), (1,))  # not a face of NC


def test_mes_equal_check_names_a_vertex_outside_the_hypergraph():
    # both faces are checked before the cover relabeling, whose map held
    # no such vertex and raised a bare KeyError
    h = Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
    for v in (6, 0):
        for pair in (([v], [1]), ([1], [v])):
            with pytest.raises(ValueError,
                               match=re.escape(f"vertex {v} outside 1..5")):
                mes_equal_check(h, *pair)


def test_mes_equal_theorem_and_probe_agree_up_to_3_vertices():
    """The mes-equal theorem groups NC faces by `_mes_class`; every pair it
    groups passes `mes_equal_check`, and every face whose class holds no
    edge makes the probe refuse, on every hypergraph on <= 3 vertices."""
    pairs = refused = 0
    for n in (1, 2, 3):
        for h in all_hypergraphs(n):
            if h.isolated_vertices():
                continue
            assert THEOREMS["mes-equal"][1](h, None, Budget()) in (
                "pass", "skip")
            try:
                relabeled, perm, dm, order = _cover_relabeling(h)
            except ValueError:  # the theorem skips these
                continue
            inv = {new: old for old, new in perm.items()}
            groups = {}
            for gamma in order.complex.all_faces():
                key, has_edge = _mes_class(relabeled, dm, gamma)
                assert key == relabeled.vertex_mask & ~gamma & dm
                assert has_edge == any(e & ~key == 0 for e in relabeled.edges)
                original = [inv[v] for v in gamma.vertices]
                if has_edge:
                    groups.setdefault(key, []).append(original)
                else:
                    with pytest.raises(HypothesisNotMetError):
                        mes_equal_check(h, original, original)
                    refused += 1
            for members in groups.values():
                for a, b in itertools.combinations_with_replacement(
                        members, 2):
                    assert mes_equal_check(h, a, b), (h, a, b)
                    pairs += 1
    assert (pairs, refused) == (699, 49)


@given(random_hypergraphs())
@settings(max_examples=40, deadline=None)
def test_main_bound_on_random_hypergraphs(h):
    """C(NC(H)) <= d(NC(H), order) <= n - gamma_i(H) - 1."""
    from collapsekit import collapsibility_number, d_of_ordering

    if h.isolated_vertices():
        return
    bound = h.n - gamma_i(h).value - 1
    if non_cover_complex(h).is_empty:
        assert bound >= 0
        return
    nc, order = nc_bound_order(h)
    d = d_of_ordering(nc, order)
    assert collapsibility_number(nc) <= d <= bound


def test_main_bound_needs_the_cover_relabeling():
    """The d leg of the bound is label-sensitive: on this hypergraph the raw
    lex order gives d = 4 > n - gamma_i - 1 = 3, while the order taken after
    moving the maximizing minimal cover to the initial labels gives d = 3."""
    from collapsekit import d_of_ordering

    h = Hypergraph(6, [(1, 2), (2, 6), (3, 4), (3, 5), (3, 6), (4,), (4, 5)])
    bound = h.n - gamma_i(h).value - 1
    assert bound == 3
    raw = non_cover_complex(h)
    assert d_of_ordering(raw, nc_facet_order(h)) == 4
    nc, order = nc_bound_order(h)
    assert d_of_ordering(nc, order) == 3


if __name__ == "__main__":
    if sys.argv[1:2] == ["masks"]:
        # the unchecked mask entry against the checking constructor
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 4
        count = int(sys.argv[3]) if len(sys.argv) > 3 else 2000
        checked, mismatches = mask_differential(mask_cases(n, count))
        print(f"{checked} edge lists (every hypergraph on {n} vertices, "
              f"{count} random on 5-12): {len(mismatches)} built "
              f"otherwise by _of_masks, the constructor or the label build")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches else 0)
    if sys.argv[1:2] == ["budget"]:
        # the lattice against the scan, one budget unit per question
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 4
        count = int(sys.argv[3]) if len(sys.argv) > 3 else 200
        checked, asked, mismatches = lattice_differential(
            budget_cases(n, count))
        print(f"{checked} hypergraphs (every one on {n} vertices, {count} "
              f"random on {hg._LATTICE_WIDTH} and on "
              f"{hg._LATTICE_WIDTH + 1}), {asked} lattice questions: "
              f"{len(mismatches)} disagree with the scan or spend other "
              f"than one unit each")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches else 0)
    if sys.argv[1:2] == ["dual-leray"]:
        # the Leray scan of NC(H) against its Alexander dual
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 4
        checked, mismatches = dual_differential(all_hypergraphs(n))
        print(f"{checked} (hypergraph, field) pairs on {n} vertices: "
              f"{len(mismatches)} disagree with the dual")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches else 0)
    if sys.argv[1:2] == ["cover-floor"]:
        # the cover floor against the Leray number, reports against floor 0
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 4
        count = int(sys.argv[3]) if len(sys.argv) > 3 else 2000
        checked, equal, mismatches = cover_floor_differential(
            itertools.chain(all_hypergraphs(n), random_floor_cases(count)))
        print(f"{checked} (hypergraph, field) pairs (every hypergraph on {n} "
              f"vertices, {count} random on 5-9): the floor is L on {equal}; "
              f"{len(mismatches)} exceed L or change a report byte")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches else 0)
    if sys.argv[1:2] == ["graphs"]:
        # every graph with loops, against the targets of the 4-vertex test
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 4
        kind = "graphs"
        checked, mismatches = oracle_differential(graphs_with_loops(n),
                                                  graph_targets(n))
    else:
        n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
        kind = "hypergraphs"
        # every target inside 1..n and one outside, as in the <= 3 vertex
        # test
        targets = list(range(0, 1 << (n + 1), 2)) + [1 << (n + 1)]
        checked, mismatches = oracle_differential(all_hypergraphs(n), targets)
    print(f"{checked} {kind} on {n} vertices: "
          f"{len(mismatches)} disagree with the oracle")
    for bad in mismatches:
        print(bad)
    sys.exit(1 if mismatches else 0)
