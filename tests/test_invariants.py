"""Collapsibility numbers, certificates, minimal exclusion sequences, the
M_k hierarchy, and the claim probe decided at its thresholds against the
full-C loop it replaced.

The <= 4-vertex universe runs in the suite.  From the repo root,
`PYTHONPATH=src python tests/test_invariants.py 5` runs the claim
differential (the threshold answers of `is_d_collapsible` included), its
bounded refutation against the brute-force Leray number and the capped
scan it replaced, and C against the apex floor it replaced on all 7,580
complexes on <= 5 vertices (about 90 seconds).  `... test_invariants.py
wegner 5 2000` runs the greedy d = 1 walk and every Leray question at
every cap and floor against the brute-force Leray number on the same
complexes and 2,000 random ones on 6-9 vertices (about 20 seconds).
`... test_invariants.py mes 3000` builds, replays and checks against
d_of_ordering and against the re-sorting walk
(`resorting_mes_certificate`) the mes certificates of 3,000 seeds of
each generator and of 6,000 random orders of random complexes on 7-9
vertices (about 7 seconds).  `... test_invariants.py
mes-orders 5` does the same under every ordering of every complex on <= 5
vertices with <= 5 facets, 313,142 builds (about 60 seconds).
"""

import functools
import itertools
import operator
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit import (
    Budget,
    BudgetExceededError,
    CollapseCertificate,
    Face,
    FacetOrdering,
    FreePair,
    Hypergraph,
    NotAFaceError,
    SimplicialComplex,
    as_face,
    boundary,
    canonical_ordering,
    claim_inequality_check,
    collapsibility_number,
    collapsibility_number_with_certificate,
    d_of_ordering,
    is_d_collapsible,
    is_k_vertex_decomposable,
    leray_number,
    m0,
    mes,
    mk,
    mk_chain,
    mk_prime,
    nc_facet_order,
    non_cover_complex,
    reduced_betti,
    simplex_on,
    tancer_inequality_check,
)
from collapsekit import homology, invariants, reports
from collapsekit.complexes import _deletion, _is_free, vertices_of
from collapsekit.generators import GeneratorSpec, generate, v6f10_6
from collapsekit.reports import compute

from conftest import all_complexes, apex_floor, mod3_moore_space, shifted

THREE_CYCLE = SimplicialComplex([(1, 2), (2, 3), (1, 3)])

vertex = st.integers(min_value=0, max_value=6)
raw_facets = st.lists(
    st.lists(vertex, min_size=1, max_size=3), min_size=1, max_size=6
)
complexes = raw_facets.map(SimplicialComplex)


# -- d-collapsibility ------------------------------------------------------

def test_simplex_is_zero_collapsible():
    ok, cert = is_d_collapsible(simplex_on((1, 2, 3)), 0)
    assert ok
    assert cert.replay(simplex_on((1, 2, 3)))


def test_empty_complex_is_zero_collapsible():
    ok, cert = is_d_collapsible(SimplicialComplex(), 0)
    assert ok and cert.steps == ()
    # no step of its own: the empty mes collapse is the ceiling, claiming 0
    assert (collapsibility_number_with_certificate(SimplicialComplex())
            == (0, CollapseCertificate((), 0)))


def test_three_cycle_needs_two():
    assert not is_d_collapsible(THREE_CYCLE, 1)[0]
    ok, cert = is_d_collapsible(THREE_CYCLE, 2)
    assert ok and cert.replay(THREE_CYCLE)
    assert collapsibility_number(THREE_CYCLE) == 2


def test_boundary_of_tetrahedron_needs_three():
    bd = boundary((1, 2, 3, 4))
    assert collapsibility_number(bd) == 3


def test_collapse_search_builds_no_complex(monkeypatch):
    """The search walks facet masks: no state becomes a SimplicialComplex,
    whether it fails (d = 1) or succeeds (d = 2)."""
    k6 = simplex_on(range(1, 7)).skeleton(1)
    built = []
    init = SimplicialComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting_init)
    assert not is_d_collapsible(k6, 1)[0]
    ok, cert = is_d_collapsible(k6, 2)
    assert built == []
    assert ok and cert.replay(k6)


def test_path_is_one_collapsible():
    path = SimplicialComplex([(1, 2), (2, 3), (3, 4)])
    assert collapsibility_number(path) == 1


@given(complexes)
@settings(max_examples=40)
def test_collapsibility_is_monotone_in_d(x):
    c = collapsibility_number(x)
    assert not is_d_collapsible(x, max(c - 1, 0))[0] or c == 0
    assert is_d_collapsible(x, c)[0]
    assert is_d_collapsible(x, c + 1)[0]


@given(complexes)
@settings(max_examples=40)
def test_certificate_replays_and_respects_d(x):
    c, cert = collapsibility_number_with_certificate(x)
    assert cert.claimed_d == c
    assert cert.replay(x)
    assert all(p.free_face.bit_count() <= c for p in cert.steps)


def test_certificate_rejects_wrong_source():
    _, cert = collapsibility_number_with_certificate(THREE_CYCLE)
    assert not cert.replay(SimplicialComplex([(1, 2), (2, 3)]))


def test_tampered_certificate_fails():
    c, cert = collapsibility_number_with_certificate(THREE_CYCLE)
    truncated = CollapseCertificate(cert.steps[:-1], c)
    assert not truncated.replay(THREE_CYCLE)
    lowered = CollapseCertificate(cert.steps, 0)
    assert not lowered.replay(THREE_CYCLE)


def test_budget_raises_instead_of_lying():
    with pytest.raises(BudgetExceededError):
        is_d_collapsible(THREE_CYCLE, 2, Budget(1))


# L(X; GF(2)) = 3, so the search at d = 2 must fail; it took 466,873
# nodes and 4.3 s before the Leray refutation
LERAY_3_ON_8 = SimplicialComplex([
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 3, 5), (4, 5, 6),
    (2, 4, 7), (1, 6, 7), (2, 3, 8), (5, 6, 8), (3, 7, 8), (4, 7, 8)])


def test_a_d_below_the_gf2_leray_number_is_refuted_with_no_node():
    budget = Budget()
    assert leray_number(LERAY_3_ON_8, 2) == 3
    assert is_d_collapsible(LERAY_3_ON_8, 2, budget) == (False, None)
    assert budget.used == 0


def counting_gf2_columns():
    """A patch of `homology._rank_gf2` that adds the columns it ranks to
    the returned one-entry list."""
    columns = [0]
    rank = homology._rank_gf2

    def counted(lower, upper):
        columns[0] += len(upper)
        return rank(lower, upper)

    return mock.patch.object(homology, "_rank_gf2", counted), columns


def test_a_d_from_the_gf2_leray_number_up_ranks_no_column_to_refute():
    """The refutation asks "L <= d?", the GF(2) scan floored at d and
    capped at d + 1: from L = 3 up no link can raise the scan above its
    floor, so no column is ranked (the scan capped at d + 1 alone ranked
    12), and the search answers as ever."""
    patch, columns = counting_gf2_columns()
    with patch:
        for d in (3, 4):
            columns[0] = 0
            budget = Budget()
            ok, cert = is_d_collapsible(LERAY_3_ON_8, d, budget)
            assert ok and cert.replay(LERAY_3_ON_8), d
            assert budget.used == 22 and columns[0] == 0, d


#: The brute-force Leray number (`homology._leray_induced`), which runs no
#: greedy walk, taken once per complex and field across the differentials.
brute_leray = functools.cache(homology._leray_induced)


def refutation_differential(xs):
    """`is_d_collapsible(x, d)` on each complex of xs at every
    d <= max(dim, 0) + 1 against the brute-force Leray number over GF(2)
    (`brute_leray`): it answers with no node spent exactly where
    L(x; GF(2)) > d, and ranks no more GF(2) columns than the GF(2) scan
    capped at d + 1 alone (`homology._leray` with no floor), the
    refutation it asked before the bounded "L <= d?" scan.  Returns
    (questions, mismatches, more, columns, unbounded columns)."""
    questions, mismatches, more = 0, [], []
    total = unbounded_total = 0
    lerays = [brute_leray(x, 2) for x in xs]
    patch, columns = counting_gf2_columns()
    with patch:
        for x, leray in zip(xs, lerays):
            for d in range(max(x.dim, 0) + 2):
                columns[0] = 0
                homology._leray(x, 2, None, d + 1)
                unbounded = columns[0]
                columns[0] = 0
                budget = Budget()
                is_d_collapsible(x, d, budget)
                questions += 1
                total += columns[0]
                unbounded_total += unbounded
                # every search enters its start state, spending a node
                if (budget.used == 0) != (leray > d):
                    mismatches.append((x, d))
                if columns[0] > unbounded:
                    more.append((x, d, columns[0], unbounded))
    return questions, mismatches, more, total, unbounded_total


def test_the_bounded_refutation_matches_the_capped_scan_on_every_small_complex():
    """`refutation_differential` on every complex on <= 4 vertices and
    `LERAY_3_ON_8` (<= 5 vertices from `__main__`): the capped scan reads
    L <= 1 off the greedy walk too, so on the small complexes neither
    ranks a GF(2) column, and at d = 3 on `LERAY_3_ON_8` the bounded
    question ranks none where the capped scan ranks 12."""
    questions, mismatches, more, total, unbounded = refutation_differential(
        all_complexes(4) + [LERAY_3_ON_8])
    assert mismatches == [] and more == []
    assert total < unbounded


def test_d_collapsibility_answers_as_the_bare_search_on_every_small_complex():
    """On every complex on <= 4 vertices and every d up to dim + 1: below
    L(X; GF(2)) the answer is no with no node spent, and the bare search
    (refute=False) says no too; from L up, the answer, the certificate and
    the nodes are the bare search's."""
    refuted = 0
    for x in all_complexes(4):
        leray = leray_number(x, 2)
        for d in range(max(x.dim, 0) + 2):
            got_budget, bare_budget = Budget(), Budget()
            got = is_d_collapsible(x, d, got_budget)
            bare = is_d_collapsible(x, d, bare_budget, refute=False)
            if d < leray:
                assert got == (False, None) and not bare[0], (x, d)
                assert got_budget.used == 0, (x, d)
                refuted += 1
            else:
                assert got == bare, (x, d)
                assert got_budget.used == bare_budget.used, (x, d)
    assert refuted


def wegner_differential(xs):
    """The greedy d = 1 walk (`homology._one_collapsible`) against
    `L(x; F) <= 1` over Q, GF(2) and GF(3), read off the brute-force
    Leray number (`brute_leray`), and against the d = 1 search with no
    refutation, on each complex of xs: by Wegner's theorem all five
    answers agree.  Returns (walks that empty x, mismatches)."""
    emptied, mismatches = 0, []
    for x in xs:
        walk = homology._one_collapsible(x.facets)
        answers = [brute_leray(x, field) <= 1 for field in ("Q", 2, 3)]
        answers.append(is_d_collapsible(x, 1, refute=False)[0])
        emptied += walk
        if answers != [walk] * 4:
            mismatches.append((x, walk, answers))
    return emptied, mismatches


def wegner_inputs(count, seed=0):
    """count random complexes on 6-9 vertices, alternately 5 to 14 random
    facets of 2 to n - 1 vertices (rarely 1-collapsible) and the clique
    complex of a random graph (chordal about as often as not)."""
    rng = random.Random(seed)
    xs = []
    for i in range(count):
        n = rng.randint(6, 9)
        if i % 2:
            xs.append(SimplicialComplex(
                rng.sample(range(1, n + 1), rng.randint(2, n - 1))
                for _ in range(rng.randint(5, 14))))
            continue
        p = rng.uniform(0.3, 0.9)
        adj = {v: 0 for v in range(1, n + 1)}
        for u, v in itertools.combinations(range(1, n + 1), 2):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        cliques = [0]
        for v in range(1, n + 1):
            cliques += [c | 1 << v for c in cliques if not c & ~adj[v]]
        xs.append(SimplicialComplex(cliques[1:]))
    return xs


def bounded_leray_differential(xs):
    """`homology._leray(x, p, cache, cap, best)` against
    min(cap, max(best, L(x; F))) over F = Q, GF(2) and GF(3), with L(x; F)
    from the brute-force Leray number (`brute_leray`), at every cap from
    0 to dim + 2 and every best from 0 to L(x; F) (for best <= cap that
    is max(best, min(L, cap)), and a best past its cap reads the cap), on
    each complex of xs, with one fresh link cache per question: a scan
    reads the links (`homology._links_of`) only where the greedy d = 1
    walk fails and max(best, 2) < cap.  Returns (questions, questions that
    read links, mismatches)."""
    questions = scanned = 0
    bad = []
    read = []
    links_of = homology._links_of

    def counted(y, cache):
        read.append(y)
        return links_of(y, cache)

    with mock.patch.object(homology, "_links_of", counted):
        for x in xs:
            walk = homology._one_collapsible(x.facets)
            for p in (None, 2, 3):
                want = brute_leray(x, "Q" if p is None else p)
                for cap in range(x.dim + 3):
                    for best in range(want + 1):
                        read.clear()
                        got = homology._leray(x, p, {}, cap, best)
                        questions += 1
                        scanned += bool(read)
                        if (got != min(cap, max(best, want))
                                or read and (walk or max(best, 2) >= cap)):
                            bad.append((x, p, cap, best, got, len(read)))
    return questions, scanned, bad


def test_bounded_leray_questions_answer_as_the_leray_number():
    """`bounded_leray_differential` on every complex on <= 4 vertices, the
    mod-3 Moore space (L = 2 over Q and GF(2), 3 over GF(3)),
    `LERAY_3_ON_8` and the empty complex (<= 5 vertices and random ones
    from `__main__`): the value is the Leray number between best and
    cap, and a scan runs only above the rule for L < 2, where some do."""
    questions, scanned, bad = bounded_leray_differential(
        all_complexes(4) + [mod3_moore_space(), LERAY_3_ON_8,
                            SimplicialComplex()])
    assert bad == []
    assert 0 < scanned < questions


def test_the_greedy_walk_decides_one_collapsibility_on_every_small_complex():
    """Wegner's d = 1 theorem, on every complex on <= 4 vertices (<= 5 and
    random ones from `__main__`): the walk empties x exactly where x is
    1-Leray over Q, GF(2) and GF(3) and the search finds a 1-collapse.
    The public question at d <= 1 then lists no closed link: d = 0 is
    refuted by two facets, d = 1 by the walk."""
    xs = all_complexes(4) + [mod3_moore_space(), LERAY_3_ON_8]
    emptied, mismatches = wegner_differential(xs)
    assert mismatches == []
    assert 0 < emptied < len(xs)
    with mock.patch.object(homology, "_closed_links",
                           side_effect=AssertionError):
        for x in xs:
            for d in (0, 1):
                budget = Budget()
                got = is_d_collapsible(x, d, budget)
                assert got == is_d_collapsible(x, d, refute=False), (x, d)
                assert got[0] or budget.used == 0, (x, d)


# -- the homology floor ----------------------------------------------------

def plain_collapsibility_number(x):
    """The search without the floor: d = 0, 1, ... until one succeeds."""
    d = 0
    while True:
        ok, cert = is_d_collapsible(x, d)
        if ok:
            return d, cert
        d += 1


def lower_ceiling(x):
    """C's ceiling: the mes collapse under the canonical order, or under
    its reverse where that claims less (the canonical one on a tie)."""
    first = invariants._mes_certificate(x, canonical_ordering(x))
    rev = invariants._mes_certificate(x, _reversed_ordering(x))
    return rev if rev.claimed_d < first.claimed_d else first


def test_floored_search_matches_the_plain_loop_on_every_small_complex():
    """C between its floor and the lower of the two mes ceilings
    (`lower_ceiling`): the plain loop's value, a certificate that replays
    at it, and the plain loop's certificate wherever C is below that
    ceiling (at C = u the certificate is the ceiling's collapse, taken
    without a search when the floor or the threshold question reaches
    u)."""
    for x in all_complexes(5):
        want, want_cert = plain_collapsibility_number(x)
        c, cert = collapsibility_number_with_certificate(x)
        assert c == want and cert.claimed_d == c and cert.replay(x), x
        ceiling = lower_ceiling(x)
        if c < ceiling.claimed_d:
            assert cert == want_cert, x
        else:
            assert cert == ceiling, x


def test_bounds_from_a_floor_below_the_leray_number_are_the_bounds_from_0(
        monkeypatch):
    """`_bounds(x, <, first, links, least)` for every least from 0 to
    L(x; Q), at most L(x) over every field, gives the floor and ceiling
    it gives from 0, on every complex on <= 5 vertices; where least meets
    the first claim it lists no closed link (`homology._closed_links`)."""
    met = 0
    for x in all_complexes(5):
        if not x.facets:
            continue
        order = canonical_ordering(x)
        first = invariants._mes_certificate(x, order)
        want = invariants._bounds(x, order, first, None)
        for least in range(leray_number(x, "Q") + 1):
            with monkeypatch.context() as patched:
                if least >= first.claimed_d:
                    patched.setattr(homology, "_closed_links", None)
                    met += 1
                got = invariants._bounds(x, order, first, None, least)
            assert got == want, (x, least)
    assert met


def test_c_reads_the_lower_of_two_mes_ceilings_on_every_small_complex(
        monkeypatch):
    """On every complex on <= 5 vertices, C and a report asking C and d
    build the mes collapse under the reversed canonical order only when
    C's floor L(X; GF(2)) is below the canonical claim, each order once;
    C's certificate replays at C; d_mes stays d(X, canonical); and the
    report's C certificate is the standalone one, claim and steps."""
    builds = []
    build = invariants._mes_certificate

    def counted(x, ordering):
        builds.append(ordering.ordered_facets)
        return build(x, ordering)

    monkeypatch.setattr(invariants, "_mes_certificate", counted)
    monkeypatch.setattr(reports, "_mes_certificate", counted)
    reversed_walks = 0
    for x in all_complexes(5):
        want = [x.facets]
        if leray_number(x, 2) < build(x, canonical_ordering(x)).claimed_d:
            want.append(x.facets[::-1])
            reversed_walks += 1
        builds.clear()
        c, cert = collapsibility_number_with_certificate(x)
        assert builds == want, x
        assert cert.claimed_d == c and cert.replay(x), x
        builds.clear()
        report = compute(x, ["C", "d_mes"])
        # the empty complex's mes collapse is taken without a build
        assert builds == (want if x.facets else []), x
        assert report["values"] == {
            "C": c, "d_mes": d_of_ordering(x, canonical_ordering(x))}, x
        assert report["witnesses"]["collapse_certificate"] == {
            "claimed_d": cert.claimed_d,
            "steps": [[list(p.free_face.vertices), list(p.facet.vertices)]
                      for p in cert.steps]}, x
    assert reversed_walks


def _old_floor(x):
    """The floor before it read the apex link: 0 on a cone, else one more
    than the top degree of nonzero reduced homology of x over GF(2)."""
    if x.facets and functools.reduce(operator.and_, x.facets):
        return 0
    return reduced_betti(x, 2).top_nonzero_degree() + 1


def _link_homology(x, t):
    """Whether some link of x has nonzero reduced GF(2) homology in degree
    t (degree -1: the link of a facet is {empty face})."""
    return t == -1 or t >= 0 and any(
        reduced_betti(x.link(s), 2).rank(t) for s in x.all_faces())


def apex_floor_collapsibility(x, budget):
    """C as it was decided from the apex floor, under the ceiling C reads
    now (`lower_ceiling`): (u, ceiling) when the floor meets the mes
    ceiling u or some link has GF(2) homology in degree u - 1, else the
    searches from the floor up.  (Its rank-work gate never closed on these
    small complexes under the default budget.)  Its searches run with
    refute=False, as they did before `is_d_collapsible` refuted a d below
    L(x; GF(2)) on its own."""
    if x.is_empty:
        return 0, CollapseCertificate((), 0)
    f = apex_floor(x)
    top = lower_ceiling(x)
    u = top.claimed_d
    if f == u or _link_homology(x, u - 1):
        return u, top
    for d in range(f, u):
        ok, cert = is_d_collapsible(x, d, budget, refute=False)
        if ok:
            return d, cert
    return u, top


def apex_floor_differential(n):
    """C and its certificate against `apex_floor_collapsibility` on every
    complex on <= n vertices.  Returns (mismatches, more nodes, fewer
    nodes): the Leray floor may only skip searches."""
    mismatches, more, fewer = [], [], 0
    for x in all_complexes(n):
        got_budget, want_budget = Budget(), Budget()
        got = collapsibility_number_with_certificate(x, got_budget)
        if got != apex_floor_collapsibility(x, want_budget):
            mismatches.append(x)
        if got_budget.used > want_budget.used:
            more.append(x)
        fewer += got_budget.used < want_budget.used
    return mismatches, more, fewer


def test_leray_floor_decides_c_as_the_apex_floor_did():
    """The GF(2) Leray floor capped at the ceiling gives the value and the
    certificate the apex floor and the one-degree link question gave, on
    every complex on <= 4 vertices (<= 5 from `__main__`), and never spends
    more nodes."""
    mismatches, more, fewer = apex_floor_differential(4)
    assert mismatches == [] and more == []
    assert fewer  # complexes whose apex floor is below L(x; GF(2))


def test_apex_floor_lies_between_the_old_floor_and_the_gf2_leray_number():
    raised = 0
    for x in all_complexes(5):
        if x.is_empty:
            continue
        floor = apex_floor(x)
        assert _old_floor(x) <= floor <= leray_number(x, 2), x
        raised += _old_floor(x) < floor
    assert raised  # cones whose apex link has homology


def _nodes_of_the_last_search(x):
    floored, last = Budget(), Budget()
    c, _ = collapsibility_number_with_certificate(x, floored)
    assert is_d_collapsible(x, c, last)[0]
    return c, floored.used, last.used


def _gf2_columns(monkeypatch):
    """The list of GF(2) rank columns taken from now on, one entry each."""
    columns = []
    rank_gf2 = homology._rank_gf2

    def counted(lower, upper):
        columns.extend(upper)
        return rank_gf2(lower, upper)

    monkeypatch.setattr(homology, "_rank_gf2", counted)
    return columns


def test_homology_floor_needs_no_rank_on_a_cone(monkeypatch):
    # ranks over all faces would cost 2^24 and 2 * 2^16 faces here: a
    # simplex takes no rank, and the cone's apex link, two disjoint
    # 15-simplices, is ranked through its 2-point facet nerve, with no
    # column; the floor then meets the ceiling, so no search runs either
    columns = _gf2_columns(monkeypatch)
    for x, want in ((simplex_on(range(24)), 0),
                    (SimplicialComplex([range(16), range(15, 31)]), 1),
                    (SimplicialComplex(), 0)):
        budget = Budget()
        assert collapsibility_number(x, budget) == want, x
        assert (columns, budget.used) == ([], 0), x


def test_homology_floor_stays_within_the_budget(monkeypatch):
    # not cones: x itself is ranked through its 2-point facet nerve, with
    # no column, and the floor 1 meets the ceiling, so C = 1 takes no
    # search, also under a 1,000-node budget and in a report
    columns = _gf2_columns(monkeypatch)
    big = SimplicialComplex([range(24), (30,)])
    apart = SimplicialComplex([range(16), range(16, 32)])
    for x in (big, apart):
        budget = Budget(1000)
        assert collapsibility_number(x, budget) == 1, x
        assert (columns, budget.used) == ([], 0), x
    report = compute(big, ["C"], budget_limit=1000)
    assert report["values"]["C"] == 1
    assert report["budget"]["used_total"] == 0
    assert tancer_inequality_check(big, (30,), Budget(1000))
    assert columns == []


def test_homology_floor_reads_gf2_torsion():
    # the 6-vertex real projective plane: H~ vanishes over Q, while over
    # GF(2) H~_2 != 0, so the floor is 3; the mes ceiling is 3 too, so no
    # search runs at all, and C is the ceiling's collapse, which replays
    rp2 = SimplicialComplex(
        [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
         (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)])
    assert leray_number(rp2, 2) == 3
    c, spent, last = _nodes_of_the_last_search(rp2)
    assert c == 3 and spent == 0 < last
    c, cert = collapsibility_number_with_certificate(rp2)
    assert cert.replay(rp2) and cert == invariants._mes_certificate(
        rp2, canonical_ordering(rp2))


def test_homology_floor_skips_the_doomed_searches():
    # NC(H) for the random-hypergraph generator's seed 36 (n=8, m=9,
    # max_size=3) has H~_4 != 0, so C >= 5 before any search; without the
    # floor the searches at d = 0..4 spend 49,379 nodes.  Under the
    # canonical ceiling 6 the floor leaves only the search at 5, 19 nodes;
    # the reversed order's collapse claims 5, so C reads it with none
    h = Hypergraph(8, [(1, 2), (1, 3), (1, 8), (2, 3, 8), (2, 5), (2, 6, 8),
                       (2, 7), (3, 5, 7), (4, 8)])
    nc = non_cover_complex(h)
    c, cert = collapsibility_number_with_certificate(nc)
    assert c == 5 and cert.replay(nc) and cert == lower_ceiling(nc)
    assert _nodes_of_the_last_search(nc) == (5, 0, 19)
    top = invariants._mes_certificate(nc, canonical_ordering(nc))
    budget = Budget()
    assert top.claimed_d == 6 and homology._leray(nc, 2, None, 6) == 5
    c, cert = invariants._collapsibility(nc, budget, top, 5)
    assert (c, budget.used) == (5, 19) and cert.replay(nc)


def test_c_returns_the_ceiling_when_the_floor_reaches_it(monkeypatch):
    """The three-cycle: floor 2 (H~_1 != 0) = ceiling, so no search runs,
    under any budget.  The path 2-1-3, 2-4 is contractible and no cone,
    but the link of vertex 1 is two points, so the floor is 1, the
    ceiling is 1, and C = 1 without the search at 0."""
    searched = []
    search = invariants.is_d_collapsible

    def counted(x, d, budget=None):
        searched.append(d)
        return search(x, d, budget)

    monkeypatch.setattr(invariants, "is_d_collapsible", counted)
    ceiling = invariants._mes_certificate(THREE_CYCLE,
                                          canonical_ordering(THREE_CYCLE))
    for budget in (None, Budget(20)):
        c, cert = collapsibility_number_with_certificate(THREE_CYCLE, budget)
        assert (c, searched, cert) == (2, [], ceiling)
    path = SimplicialComplex([(1, 2), (1, 3), (2, 4)])
    assert apex_floor(path) == 0 and leray_number(path, 2) == 1
    c, cert = collapsibility_number_with_certificate(path)
    assert (c, searched) == (1, []) and cert.replay(path)
    assert c == plain_collapsibility_number(path)[0]


def test_c_of_star_family_5_is_read_from_the_ceiling():
    """NC(star_family(5, (2,) * 5)): C = 7 = d(NC, report order), and the
    searches from the floor up would take some 5,000 nodes."""
    from collapsekit.generators import star_family
    h = star_family(5, (2,) * 5)
    report = compute(h, ["nc_C"])
    assert report["values"]["nc_C"] == 7
    cert = reports.certificate_from_obj(
        report["witnesses"]["nc_collapse_certificate"])
    assert cert.claimed_d == 7 and cert.replay(non_cover_complex(h))
    assert report["budget"]["used_total"] < 100


def test_c_in_a_report_does_not_depend_on_the_other_invariants():
    """C's value and certificate are those of C asked alone, in a report of
    every invariant and in one that ranks the links for Leray first."""
    for seed in range(12):
        h = generate(GeneratorSpec(kind="random-hypergraph", seed=seed, n=7,
                                   m=8, max_size=3))
        alone = compute(h, ["nc_C"])
        for which in (None, ["nc_leray", "nc_C"], ["nc_C", "nc_leray"]):
            report = compute(h, which)
            for key in ("values", "witnesses"):
                got = {k: v for k, v in report[key].items()
                       if k in alone[key]}
                assert got == alone[key], (seed, which)
        assert (compute(h, ["nc_leray", "nc_C"])["values"]
                == compute(h, ["nc_C", "nc_leray"])["values"])


def _d_of_the_report_order(inst):
    """d(X, report order) by the face walk, X the complex the report reads."""
    if isinstance(inst, Hypergraph):
        return d_of_ordering(non_cover_complex(inst), nc_facet_order(inst))
    return d_of_ordering(inst, canonical_ordering(inst))


def test_report_d_is_the_ceiling_claim():
    """d_mes / nc_d read the ceiling's claim, which is d_of_ordering
    under the report's order: every complex on <= 5 vertices, and NC(H)
    of 30 nc-leray-sized hypergraphs."""
    cases = [(x, "d_mes") for x in all_complexes(5)] + [
        (generate(GeneratorSpec(kind="random-hypergraph", seed=seed, n=8,
                                m=9, max_size=3)), "nc_d")
        for seed in range(30)]
    for inst, key in cases:
        assert (compute(inst, [key])["values"][key]
                == _d_of_the_report_order(inst)), inst


def test_a_report_builds_the_ceiling_once_and_never_replays_it(
        monkeypatch):
    """C and d read the mes collapse under the report's order, built once
    and checked as it is built, so no report replays it, and d then walks
    no face.  The collapse under the reversed order is built at most
    once, and only where C's floor is below the first claim."""
    from collapsekit.generators import star_family
    builds = []
    build = invariants._mes_certificate

    def counted(x, ordering):
        builds.append((x, ordering.ordered_facets))
        return build(x, ordering)

    def no_replay(self, source):
        raise AssertionError("the ceiling was replayed")

    def orders(x, order):
        """The builds a report asking C and d makes on x, the report's
        complex, under its order."""
        if leray_number(x, 2) < build(x, order).claimed_d:
            return [(x, order.ordered_facets),
                    (x, order.ordered_facets[::-1])]
        return [(x, order.ordered_facets)]

    monkeypatch.setattr(invariants, "_mes_certificate", counted)
    monkeypatch.setattr(reports, "_mes_certificate", counted)
    monkeypatch.setattr(CollapseCertificate, "replay", no_replay)
    monkeypatch.setattr(reports, "d_of_ordering", None)
    both = 0
    for inst in (star_family(3, (1, 1, 1)), star_family(5, (2,) * 5),
                 Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)]),
                 Hypergraph(5, [(1, 2), (2, 5), (3, 5), (4, 5)])):
        want = orders(non_cover_complex(inst), nc_facet_order(inst))
        builds.clear()
        compute(inst)
        assert builds == want, inst
        both += len(want) == 2
    for x in (v6f10_6(), THREE_CYCLE):
        want = orders(x, canonical_ordering(x))
        builds.clear()
        compute(x, ["C", "d_mes", "leray"])
        assert builds == want, x
        both += len(want) == 2
    assert both == 3  # the two graphs on 5 vertices, and v6f10-6


CHAIN_REPORT = ["leray", "C", "M0", "M1", "M2", "d_mes", "betti"]


def _shifted_witnesses(witnesses, shift):
    """A chain report's witnesses with every vertex label raised by shift."""
    def up(face):
        return [v + shift for v in face]

    out = {}
    for key, w in witnesses.items():
        if key == "collapse_certificate":
            out[key] = {**w, "steps": [[up(g), up(f)] for g, f in w["steps"]]}
        elif key == "facet_ordering":
            out[key] = [up(f) for f in w]
        else:
            raise AssertionError(f"no shift known for the witness {key}")
    return out


@pytest.mark.parametrize("shift", [5, 13, 100])
def test_chain_reports_do_not_depend_on_where_the_labels_sit(shift):
    """Every complex on <= 4 vertices (labels 1..4, in the low byte of the
    `complexes.bits_of` tables), raised so that its faces cross the byte
    split (+5), the table edge at 2^16 (+13), or lie past it (+100): the
    values and budget are those of the complex itself, and the witnesses
    are its witnesses shifted."""
    for x in all_complexes(4):
        want = compute(x, CHAIN_REPORT)
        got = compute(shifted(x, shift), CHAIN_REPORT)
        assert got["values"] == want["values"], x
        assert got["budget"] == want["budget"], x
        assert got["witnesses"] == _shifted_witnesses(want["witnesses"],
                                                      shift), x


# -- facet orderings and mes ----------------------------------------------

def test_facet_ordering_validates_permutation():
    with pytest.raises(ValueError):
        FacetOrdering(THREE_CYCLE, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        FacetOrdering(THREE_CYCLE, [(1, 2), (2, 3), (2, 3)])


def test_mes_hand_worked_example():
    # ordering {1,2} < {2,3} < {1,3}: the face {1,3} first fits in the third
    # facet; step 1 excludes vertex 3, step 2 excludes vertex 1
    order = FacetOrdering(THREE_CYCLE, [(1, 2), (2, 3), (1, 3)])
    assert mes((1, 3), order) == (3, 1)
    assert mes((1, 2), order) == ()
    assert mes((3,), order) == (3,)
    assert d_of_ordering(THREE_CYCLE, order) == 2


def test_mes_of_non_face_raises():
    order = canonical_ordering(THREE_CYCLE)
    with pytest.raises(NotAFaceError):
        mes((1, 2, 3), order)


def test_mes_reuses_previously_excluded_vertices():
    x = SimplicialComplex([(1, 4), (1, 3), (2, 3)])
    order = FacetOrdering(x, [(1, 4), (1, 3), (2, 3)])
    # {2,3} misses facet 1 at both 2 and 3 (least is 2); facet 2 misses
    # vertex 2 again, and a previously used vertex is preferred
    assert mes((2, 3), order) == (2, 2)
    assert d_of_ordering(x, order) == 1


def test_d_of_ordering_refuses_an_ordering_of_another_complex():
    tri = simplex_on((1, 2, 3))
    with pytest.raises(ValueError, match="another complex"):
        d_of_ordering(THREE_CYCLE, canonical_ordering(tri))
    with pytest.raises(ValueError, match="another complex"):
        d_of_ordering(tri, canonical_ordering(THREE_CYCLE))
    # an equal complex built apart is the same complex
    same = SimplicialComplex(THREE_CYCLE.facets)
    assert d_of_ordering(same, canonical_ordering(THREE_CYCLE)) == 2


def index_search_mes(gamma, ordering):
    """`mes` as it was before the shared bit walk: an index search for the
    first facet holding gamma, then a scan of the earlier entries."""
    g = int(as_face(gamma))
    facets = ordering.ordered_facets
    j = None
    for idx, f in enumerate(facets):
        if g & ~f == 0:
            j = idx + 1
            break
    if j is None:
        raise NotAFaceError(f"{as_face(gamma)!r} is not a face of the complex")
    if j == 1:
        return ()
    seq: list[int] = []
    for k in range(1, j):
        excluded = g & ~facets[k - 1]
        prev = [v for v in seq if (excluded >> v) & 1]
        if prev:
            seq.append(min(prev))
        else:
            seq.append(vertices_of(excluded)[0])
    return tuple(seq)


def test_mes_and_d_match_the_index_search_on_every_small_complex():
    """The canonical order and two seeded random orders of every complex
    on <= 5 vertices: every face's mes, a non-face's error, and d."""
    rng = random.Random(2009)
    for x in all_complexes(5):
        orders = [canonical_ordering(x)]
        for _ in range(2):
            perm = list(x.facets)
            rng.shuffle(perm)
            orders.append(FacetOrdering(x, perm))
        for order in orders:
            want_d = 0
            for gamma in x.all_faces():
                want = index_search_mes(gamma, order)
                assert mes(gamma, order) == want, (x, order, gamma)
                want_d = max(want_d, len(set(want)))
            assert d_of_ordering(x, order) == want_d, (x, order)
            if not x.is_simplex:
                with pytest.raises(NotAFaceError):
                    mes(x.vertex_mask, order)


def _reversed_ordering(x):
    return FacetOrdering(x, x.facets[::-1])


def _random_orderings(x, rng, count):
    for _ in range(count):
        perm = list(x.facets)
        rng.shuffle(perm)
        yield FacetOrdering(x, perm)


def generated_mes_cases(seeds):
    """(X, order) pairs: each seed's complex-chain-sized random complex
    under the canonical and reversed orders, and NC(H) of its
    nc-leray-sized random hypergraph under `nc_facet_order`, canonical and
    reversed."""
    for seed in seeds:
        x = generate(GeneratorSpec(kind="random-complex", seed=seed, n=6,
                                   m=7, max_size=3))
        yield x, canonical_ordering(x)
        yield x, _reversed_ordering(x)
        h = generate(GeneratorSpec(kind="random-hypergraph", seed=seed, n=8,
                                   m=9, max_size=3))
        if non_cover_complex(h).is_empty:
            continue
        order = nc_facet_order(h)
        nc = order.complex
        yield nc, order
        yield nc, canonical_ordering(nc)
        yield nc, _reversed_ordering(nc)


def _every_ordering(x):
    """(x, order) for each of the len(x.facets)! facet orders of x."""
    return [(x, FacetOrdering(x, perm))
            for perm in itertools.permutations(x.facets)]


def resorting_mes_certificate(x, ordering):
    """The mes collapse by the walk that re-sorts every facet at each step
    and takes each step with `_deletion`: the oracle of the incremental
    walk `invariants._mes_certificate`, which must match it byte for
    byte.  Returns None where this walk gets stuck."""
    ordered = ordering.ordered_facets

    @functools.cache
    def of(g):
        bits = invariants._mes_bits(g, ordered)
        return (-len(bits), -g.bit_count(), g,
                functools.reduce(operator.or_, bits, 0))

    facets = x.facets
    steps = []
    while facets:
        ranked = sorted(map(of, facets))
        step = None
        for j, _, g, m in ranked:
            if j != ranked[0][0]:
                break
            if _is_free(facets, m, g):
                step = m, g
                break
        if step is None:
            return None
        steps.append(step)
        facets = _deletion(facets, step[0])
    return CollapseCertificate(
        tuple(FreePair(Face(m), Face(g)) for m, g in steps),
        max((m.bit_count() for m, _ in steps), default=0))


def mes_failures(cases):
    """The (X, order) pairs whose mes certificate gets stuck (the build
    raises), is not the re-sorting walk's byte for byte
    (`resorting_mes_certificate`), does not claim d_of_ordering or does not
    replay: the build is trusted as its own check, and these are its
    oracles."""
    bad = []
    for x, order in cases:
        try:
            cert = invariants._mes_certificate(x, order)
        except RuntimeError:
            bad.append((x, order))
            continue
        # the reprs spell every step's faces, as `Face`s, and the claim
        if (repr(cert) != repr(resorting_mes_certificate(x, order))
                or cert.claimed_d != d_of_ordering(x, order)
                or not cert.replay(x)):
            bad.append((x, order))
    return bad


def test_mes_certificate_replays_at_d_on_every_small_complex():
    """The collapse behind C <= d(X, <) (Matousek and Tancer) is built,
    is the re-sorting walk's byte for byte, replays, and claims exactly
    d_of_ordering: under the canonical, the reversed and two seeded random
    orders of every complex on <= 5 vertices, and on the generated cases
    of seeds 0-299 (`generated_mes_cases`)."""
    rng = random.Random(1975)
    cases = []
    for x in all_complexes(5):
        cases += [(x, canonical_ordering(x)), (x, _reversed_ordering(x))]
        cases += [(x, order) for order in _random_orderings(x, rng, 2)]
    cases += generated_mes_cases(range(300))
    assert mes_failures(cases) == []


def test_mes_ceiling_is_built_under_every_order():
    """C's ceiling always exists: under every ordering of every complex on
    <= 4 vertices, 2,550 builds, and under the canonical and reversed
    orders of the mod-3 Moore space (C = 3 > L(X; GF(2)) = 2), the
    collapse is built, claims d_of_ordering and replays.  `mes-orders 5`
    from `__main__` takes every complex on <= 5 vertices with <= 5
    facets."""
    cases = [case for x in all_complexes(4) for case in _every_ordering(x)]
    assert len(cases) == 2550
    moore = mod3_moore_space()
    cases += [(moore, canonical_ordering(moore)),
              (moore, _reversed_ordering(moore))]
    assert mes_failures(cases) == []


def test_a_stuck_mes_collapse_raises(monkeypatch):
    """A build that gets stuck is a library bug, never a missing ceiling:
    with no face free, the build, C and a report asking C or d raise,
    naming the facets the build is stuck at."""
    monkeypatch.setattr(invariants, "_is_free", lambda *args: False)
    stuck = re.escape("stuck at the facets [[2, 3]]")
    with pytest.raises(RuntimeError, match=stuck):
        invariants._mes_certificate(THREE_CYCLE,
                                    canonical_ordering(THREE_CYCLE))
    for ask in (lambda: collapsibility_number(THREE_CYCLE),
                lambda: compute(THREE_CYCLE, ["C"]),
                lambda: compute(THREE_CYCLE, ["d_mes"])):
        with pytest.raises(RuntimeError, match=stuck):
            ask()
    x = v6f10_6()
    with pytest.raises(RuntimeError, match="stuck at the facets"):
        collapsibility_number(x)


def test_mes_certificate_collapses_each_face_at_its_mes():
    """Each step is (set of mes(G), G), and the stages run from the last
    facet to the first, which ends as (empty face, F_1)."""
    x = SimplicialComplex([(0, 1, 2), (1, 3), (0, 2, 3, 4)])
    order = FacetOrdering(x, [(0, 1, 2), (1, 3), (0, 2, 3, 4)])
    cert = invariants._mes_certificate(x, order)
    assert cert.replay(x) and cert.claimed_d == d_of_ordering(x, order) == 2
    for pair in cert.steps:
        assert set(mes(pair.facet, order)) == set(pair.free_face.vertices)
    assert cert.steps[-1] == (Face(0), Face.of((0, 1, 2)))


@given(complexes, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_d_of_ordering_dominates_m0(x, rng):
    perm = list(x.facets)
    rng.shuffle(perm)
    order = FacetOrdering(x, perm)
    assert m0(x) <= d_of_ordering(x, order)


def test_canonical_mes_bound_dominates_m0_on_every_complex_on_four_vertices():
    """M_0 <= d(X, canonical) = the d_mes a report asking C reads off its
    ceiling: the bound a report rests on when it reads M_k off
    that ceiling."""
    for x in all_complexes(4):
        d = d_of_ordering(x, canonical_ordering(x))
        assert m0(x) <= d, x
        assert compute(x, ["C", "d_mes"])["values"]["d_mes"] == d, x


# -- M_k hierarchy ---------------------------------------------------------

def test_m0_base_cases():
    assert m0(simplex_on((1, 2, 3))) == 0
    assert m0(SimplicialComplex()) == 0
    # a cone can still have open vertices away from the apex: here vertex 1
    # is open (its link misses the facet {0,2,3}), so the recursion pays 1
    cone = SimplicialComplex([(0, 1, 2), (0, 2, 3)])
    assert m0(cone) == 1


def test_m0_of_three_cycle():
    assert m0(THREE_CYCLE) == 2


def test_mk_chain_is_monotone_decreasing():
    chain = mk_chain(THREE_CYCLE, 2)
    assert chain == sorted(chain, reverse=True)
    assert chain[0] == m0(THREE_CYCLE)


def test_mk_matches_engine_pieces():
    assert mk(THREE_CYCLE, 1) == min(mk_prime(THREE_CYCLE, 1), m0(THREE_CYCLE))


def test_m1_prime_can_overshoot_collapsibility():
    """Whenever open edges exist M'_1 pays at least 2, so it can exceed both
    C and M_1: two triangles glued along an edge collapse through free edges
    (C = 1) and M_1 = 1, yet M'_1 = 2."""
    x = SimplicialComplex([(1, 2, 3), (2, 3, 4)])
    assert collapsibility_number(x) == 1
    assert mk(x, 1) == 1
    assert mk_prime(x, 1) == 2


def test_mk_above_the_dimension_is_the_top_of_the_chain():
    """Above the dimension there are no k-faces, so M'_k = M_{k-1} and
    M_k = M'_k = M_{max(dim, 0)}: the engine reads a huge k as the
    dimension instead of recursing once per k, with the recursion limit
    left as it is."""
    limit = sys.getrecursionlimit()
    for x in (THREE_CYCLE, v6f10_6(), simplex_on((1, 2, 3)),
              SimplicialComplex([(1,), (2,)])):
        top = mk_chain(x, x.dim)[-1]
        assert mk(x, 5000) == mk_prime(x, 5000) == top, x
    assert sys.getrecursionlimit() == limit


def test_mk_clamp_matches_the_engine_on_every_small_complex():
    """On every complex on <= 4 vertices, for k up to dim + 2, mk and
    mk_prime give the engine's value.  mk spends exactly its nodes, since
    the engine clamps k itself; mk_prime hands a k > max(dim, 0) to mk and
    so spends one node fewer than the engine's M'_k, whose root finds no
    open k-face."""
    for x in all_complexes(4):
        for k in range(x.dim + 3):
            for public, engine in ((mk, invariants._MkEngine.m),
                                   (mk_prime, invariants._MkEngine.m_prime)):
                clamped, plain = Budget(), Budget()
                got = public(x, k, clamped)
                assert got == engine(invariants._MkEngine(plain), x, k), x
                extra = public is mk_prime and k > max(x.dim, 0)
                assert plain.used == clamped.used + extra, (x, k)


def test_mk_rejects_negative_k():
    with pytest.raises(ValueError):
        mk(THREE_CYCLE, -1)
    with pytest.raises(ValueError):
        mk_prime(THREE_CYCLE, -1)
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        mk_chain(THREE_CYCLE, -1)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, True, False],
                         ids=repr)
def test_count_arguments_that_are_not_ints_are_refused_by_name(bad):
    """A d, k, k_max or trial count that is not an int, or is a bool,
    raises a TypeError naming the parameter before anything runs: a float
    d reached `1 << d` in the refutation, and a bool read as 0 or 1."""
    calls = [
        ("d", lambda: is_d_collapsible(THREE_CYCLE, bad)),
        ("k", lambda: mk(THREE_CYCLE, bad)),
        ("k", lambda: mk_prime(THREE_CYCLE, bad)),
        ("k_max", lambda: mk_chain(THREE_CYCLE, bad)),
        ("k", lambda: is_k_vertex_decomposable(THREE_CYCLE, bad)),
        ("trials", lambda: reports.verify("euler", trials=bad)),
        ("k", lambda: reports.conjecture_search(bad, trials=0)),
        ("trials", lambda: reports.conjecture_search(1, trials=bad)),
    ]
    for name, call in calls:
        with pytest.raises(TypeError, match=f"^{name} must be an int, not "
                                            f"{type(bad).__name__}$"):
            call()


@given(complexes)
@settings(max_examples=25, deadline=None)
def test_chain_of_inequalities(x):
    c = collapsibility_number(x)
    chain = mk_chain(x, 2)
    assert c <= chain[2] <= chain[1] <= chain[0]
    assert chain[0] <= d_of_ordering(x, canonical_ordering(x))


@given(complexes, st.data())
@settings(max_examples=25, deadline=None)
def test_tancer_and_claim_inequalities(x, data):
    v = data.draw(st.sampled_from(x.vertices))
    assert tancer_inequality_check(x, [v])
    sigma = data.draw(st.sampled_from(sorted(x.all_faces(include_empty=False))))
    assert claim_inequality_check(x, sigma)


@pytest.mark.parametrize("theorem", ["claim", "tancer"])
def test_claim_and_tancer_compute_c_of_the_trial_once(monkeypatch, theorem):
    # C is computed for the trial complex only; each face costs at most two
    # threshold searches, one on its link and one on its deletion
    x = v6f10_6()
    c = collapsibility_number(x)
    seen, searched = [], []
    real = invariants.is_d_collapsible

    def counted(y, d, budget=None):
        searched.append(y)
        return real(y, d, budget)

    def known_c(y, budget=None):
        seen.append(y)
        return c

    monkeypatch.setattr(reports, "collapsibility_number", known_c)
    monkeypatch.setattr(invariants, "is_d_collapsible", counted)
    probe = reports.THEOREMS[theorem][1]
    assert probe(x, random.Random(0), Budget()) == "pass"
    n_faces = len(x.faces(0)) if theorem == "tancer" else x.num_faces()
    assert seen == [x]
    assert len(searched) <= 2 * n_faces


def test_claim_and_tancer_name_the_first_failing_face(monkeypatch):
    # C(X) = 9 against 0 for every link and deletion: both fail at once
    monkeypatch.setattr(reports, "collapsibility_number",
                        lambda y, budget=None: 9 if y == THREE_CYCLE else 0)
    with pytest.raises(reports.Counterexample) as tancer:
        reports._thm_tancer(THREE_CYCLE, random.Random(0), Budget())
    assert tancer.value.detail == "Tancer inequality fails at vertex 1"
    with pytest.raises(reports.Counterexample) as claim:
        reports._thm_claim(THREE_CYCLE, random.Random(0), Budget())
    assert claim.value.detail == "claim inequality fails at Face{1}"
    assert not claim_inequality_check(THREE_CYCLE, (1, 2))
    assert not tancer_inequality_check(THREE_CYCLE, (3,))


def test_claim_check_rejects_non_face():
    with pytest.raises(NotAFaceError):
        claim_inequality_check(THREE_CYCLE, (1, 2, 3))
    with pytest.raises(ValueError):
        tancer_inequality_check(THREE_CYCLE, (1, 2))


# -- the claim decided at its thresholds, against the full-C loop ----------

def full_c_first_claim_failure(x, faces):
    """The loop the threshold questions replaced: the first face s with
    C(X) > max(C(del s), C(lk s) + k + 1), every C computed in full.  C(X)
    is read through `reports.collapsibility_number`, so a test can raise it
    and make the claim fail; the links and deletions use the real C."""
    lhs = reports.collapsibility_number(x, Budget())
    for s in faces:
        rhs = max(collapsibility_number(x.deletion(s)),
                  collapsibility_number(x.link(s)) + s.dim + 1)
        if lhs > rhs:
            return s
    return None


def claim_differential(n):
    """Run `_first_claim_failure` against the full-C loop on every complex
    on <= n vertices, with C(X) raised by 0, 1 and 2, for the claim's faces
    (dimension <= 2) and for Tancer's (the vertices).  Also check that
    `is_d_collapsible(y, d)`, the threshold question, answers C(y) <= d
    for every link and deletion of those faces, d = 0..dim(y) + 2.
    Returns (cases, failing, mismatches)."""
    cases = failing = 0
    mismatches = []
    for x in all_complexes(n):
        c = collapsibility_number(x)
        claim = sorted(x.all_faces(include_empty=False))
        claim = [s for s in claim if s.dim <= 2]
        tancer = [Face(1 << v) for v in x.vertices]
        for y in {z for s in claim for z in (x.link(s), x.deletion(s))}:
            cy = collapsibility_number(y)
            for d in range(y.dim + 3):
                if is_d_collapsible(y, d, Budget())[0] != (cy <= d):
                    mismatches.append((y, d))
        for raised in (0, 1, 2):
            def raised_c(y, budget=None, raised=raised):
                return c + raised if y == x else collapsibility_number(y)

            with mock.patch.object(reports, "collapsibility_number", raised_c):
                for faces in (claim, tancer):
                    want = full_c_first_claim_failure(x, faces)
                    got = reports._first_claim_failure(x, faces, Budget())
                    cases += 1
                    failing += want is not None
                    if got != want:
                        mismatches.append((x, raised, want, got))
    return cases, failing, mismatches


def test_threshold_claim_matches_the_full_c_loop_on_every_small_complex():
    cases, failing, mismatches = claim_differential(4)
    assert mismatches == []
    # the raised C(X) makes the claim fail often enough to test something
    assert 0 < failing < cases


def test_a_face_below_threshold_costs_no_search(monkeypatch):
    # the 3-cycle has C = 2, so t = 0 at a vertex and t = -1 at an edge:
    # the edges hold without a question, and no question is asked below 0
    asked = []
    real = reports.is_d_collapsible

    def recorded(y, d, budget):
        asked.append(d)
        return real(y, d, budget)

    monkeypatch.setattr(reports, "is_d_collapsible", recorded)
    edges = sorted(THREE_CYCLE.faces(1))
    assert reports._first_claim_failure(THREE_CYCLE, edges, Budget()) is None
    assert asked == []
    assert claim_inequality_check(THREE_CYCLE, (1,))
    assert asked and min(asked) >= 0


if __name__ == "__main__":
    # python tests/test_invariants.py [n]
    # python tests/test_invariants.py mes count [seed]
    # python tests/test_invariants.py mes-orders n
    # python tests/test_invariants.py wegner n count [seed]
    if sys.argv[1:2] == ["wegner"]:
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
        count = int(sys.argv[3]) if len(sys.argv) > 3 else 2000
        seed = int(sys.argv[4]) if len(sys.argv) > 4 else 0
        small, randoms = all_complexes(n), wegner_inputs(count, seed)
        emptied, bad = wegner_differential(small)
        emptied_random, bad_random = wegner_differential(randoms)
        print(f"the greedy d = 1 walk against the brute-force L <= 1 over "
              f"Q, GF(2) and GF(3) and the d = 1 search: {len(small)} "
              f"complexes on <= "
              f"{n} vertices ({emptied} emptied) and {count} random ones on "
              f"6-9 vertices, seed {seed} ({emptied_random} emptied): "
              f"{len(bad) + len(bad_random)} mismatches")
        questions, scanned, bad_within = bounded_leray_differential(
            small + randoms)
        print(f"the bounded Leray questions against the brute-force Leray "
              f"number on the same complexes: {questions} questions, {scanned} "
              f"scanned, {len(bad_within)} mismatches")
        for case in bad + bad_random + bad_within:
            print(case)
        sys.exit(1 if bad or bad_random or bad_within else 0)
    if sys.argv[1:2] == ["mes-orders"]:
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
        builds, bad = 0, []
        for x in all_complexes(n):
            if len(x.facets) <= 5:
                cases = _every_ordering(x)
                builds += len(cases)
                bad += mes_failures(cases)
        print(f"mes certificates under every ordering of every complex on "
              f"<= {n} vertices with <= 5 facets: {builds} builds, "
              f"{len(bad)} stuck, not the re-sorting walk's, not at d or "
              f"not replaying")
        for x, order in bad:
            print(x, order)
        sys.exit(1 if bad else 0)
    if sys.argv[1:2] == ["mes"]:
        count = int(sys.argv[2]) if len(sys.argv) > 2 else 100
        seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
        rng = random.Random(seed)
        cases = list(generated_mes_cases(range(count)))
        generated = len(cases)
        for _ in range(count):
            # 5 to 14 facets of 2 to n - 1 vertices, two random orders each
            n = rng.randint(7, 9)
            x = SimplicialComplex(
                rng.sample(range(1, n + 1), rng.randint(2, n - 1))
                for _ in range(rng.randint(5, 14)))
            cases += [(x, order) for order in _random_orderings(x, rng, 2)]
        bad = mes_failures(cases)
        print(f"mes certificates: {generated} on generator seeds "
              f"0-{count - 1} and {len(cases) - generated} under random "
              f"orders of random complexes on 7-9 vertices, seed {seed}: "
              f"{len(bad)} stuck, not the re-sorting walk's, not at d or "
              f"not replaying")
        for x, order in bad:
            print(x, order)
        sys.exit(1 if bad else 0)
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cases, failing, mismatches = claim_differential(n)
    print(f"{len(all_complexes(n))} complexes on <= {n} vertices: {cases} "
          f"cases, {failing} failing, {len(mismatches)} mismatches")
    for bad in mismatches:
        print(bad)
    questions, refute_mismatches, more_columns, total, unbounded = (
        refutation_differential(all_complexes(n) + [LERAY_3_ON_8]))
    print(f"the bounded refutation against the capped scan: {questions} "
          f"questions, {len(refute_mismatches)} mismatches, "
          f"{len(more_columns)} with more GF(2) columns; {total} columns "
          f"against {unbounded}")
    for bad in refute_mismatches + more_columns:
        print(bad)
    floor_mismatches, more, fewer = apex_floor_differential(n)
    print(f"C against the apex floor: {len(floor_mismatches)} mismatches, "
          f"{len(more)} with more nodes, {fewer} with fewer")
    for bad in floor_mismatches + more:
        print(bad)
    sys.exit(1 if mismatches or refute_mismatches or more_columns
             or floor_mismatches or more else 0)
