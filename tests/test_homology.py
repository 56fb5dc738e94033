"""Reduced homology ranks, Leray numbers, Cohen-Macaulayness, shellability
and k-vertex decomposability."""

import collections
import contextlib
import functools
import inspect
import itertools
import math
import operator
import random
import re
import sys
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit import (
    Budget,
    Face,
    NotPureError,
    SheddingWitness,
    SimplicialComplex,
    boundary,
    is_cohen_macaulay,
    is_cohen_macaulay_induced,
    is_homologically_connected,
    is_k_vertex_decomposable,
    is_shellable,
    join,
    leray_number,
    mk,
    non_cover_complex,
    reduced_betti,
    shedding_leray_inequality_check,
    simplex_on,
    verify_shedding_sequence,
)
from collapsekit import homology, reports
from collapsekit.complexes import subsets, vertices_of
from collapsekit.generators import (NAMED_EXAMPLES, GeneratorSpec, generate,
                                   star_family)
from collapsekit.homology import (
    _is_prime,
    _leray_induced,
    _rank_gf2,
    _rank_signed,
    _shed,
)

from conftest import all_complexes, mod3_moore_space, shifted

THREE_CYCLE = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
TETRA_BOUNDARY = boundary((1, 2, 3, 4))
V6F10_6 = SimplicialComplex(
    [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6),
     (2, 4, 5), (2, 5, 6), (3, 4, 6), (3, 5, 6), (4, 5, 6)]
)
#: The 6-vertex real projective plane: acyclic over Q, while over GF(2)
#: its H~_1 and H~_2 are nonzero.
RP2 = SimplicialComplex(
    [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
     (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)])

vertex = st.integers(min_value=0, max_value=6)
raw_facets = st.lists(
    st.lists(vertex, min_size=1, max_size=3), min_size=1, max_size=6
)
complexes = raw_facets.map(SimplicialComplex)


# -- reduced Betti numbers -------------------------------------------------

def test_betti_of_three_cycle():
    b = reduced_betti(THREE_CYCLE)
    assert (b.rank_neg1, b.ranks) == (0, (0, 1))


def test_betti_of_tetra_boundary():
    b = reduced_betti(TETRA_BOUNDARY)
    assert (b.rank_neg1, b.ranks) == (0, (0, 0, 1))


def test_betti_of_simplex_vanishes():
    b = reduced_betti(simplex_on((1, 2, 3)))
    assert b.rank_neg1 == 0 and not any(b.ranks)


def test_betti_of_empty_complex():
    b = reduced_betti(SimplicialComplex())
    assert b.rank_neg1 == 1 and b.ranks == ()


def test_betti_of_two_points():
    b = reduced_betti(SimplicialComplex([(1,), (2,)]))
    assert (b.rank_neg1, b.ranks) == (0, (1,))


def test_betti_rank_accessor():
    b = reduced_betti(THREE_CYCLE)
    assert b.rank(-2) == 0 and b.rank(-1) == 0
    assert b.rank(1) == 1 and b.rank(5) == 0
    assert b.top_nonzero_degree() == 1


def test_betti_over_gf2_matches_on_torsion_free_cases():
    for x in (THREE_CYCLE, TETRA_BOUNDARY, V6F10_6):
        assert reduced_betti(x, "gf2").ranks == reduced_betti(x, "Q").ranks


@pytest.mark.parametrize("field", [4, 6, "gf9", "GF1", 0, "foo", "gf",
                                   2 ** 89 - 1])
def test_non_prime_fields_are_rejected(field):
    message = re.escape(f"not a valid prime field: {field!r}")
    with pytest.raises(ValueError, match=message):
        reduced_betti(THREE_CYCLE, field)
    with pytest.raises(ValueError, match=message):
        leray_number(THREE_CYCLE, field)
    # also where no rank is needed: a non-pure complex is not CM
    non_pure = SimplicialComplex([(1, 2, 3), (3, 4)])
    with pytest.raises(ValueError, match=message):
        is_cohen_macaulay(non_pure, field)
    with pytest.raises(ValueError, match=message):
        is_cohen_macaulay_induced(non_pure, field)


@pytest.mark.parametrize("field", [2, 3, "gf5", "GF7", 97, 2 ** 61 - 1])
def test_prime_fields_are_accepted(field):
    assert reduced_betti(THREE_CYCLE, field).ranks == (0, 1)


def test_primality_matches_trial_division():
    def trial(p):
        return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))

    assert all(_is_prime(p) == trial(p) for p in range(-2, 20_000))
    # strong pseudoprimes to the bases 2; 2, 3; ...; 2..23 and 2..31, and
    # Carmichael numbers (6k+1)(12k+1)(18k+1) with no factor below 41
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              56052361, 118901521, 172947529):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 18 + 3)


@given(complexes)
@settings(max_examples=40)
def test_euler_characteristic_consistency(x):
    b = reduced_betti(x)
    chi_faces = -1 + sum((-1) ** f.dim
                         for f in x.all_faces(include_empty=False))
    chi_betti = -b.rank_neg1 + sum((-1) ** i * r
                                   for i, r in enumerate(b.ranks))
    assert chi_faces == chi_betti


def test_homological_connectivity():
    assert is_homologically_connected(THREE_CYCLE, 0)
    assert not is_homologically_connected(THREE_CYCLE, 1)
    assert is_homologically_connected(SimplicialComplex(), -2)
    assert not is_homologically_connected(SimplicialComplex(), -1)


@pytest.mark.parametrize("field", ["Q", 2, 3])
def test_homological_connectivity_matches_the_full_betti_vector(field):
    for x in all_complexes(4) + [SimplicialComplex(), RP2]:
        b = reduced_betti(x, field)
        for n in range(-2, x.dim + 2):
            expected = all(b.rank(i) == 0 for i in range(-1, n + 1))
            assert is_homologically_connected(x, n, field) == expected, (x, n)


# -- dense elimination: the oracle for the sparse rank kernels -------------

def boundary_matrix(lower, upper):
    """Rows indexed by (k-1)-faces, columns by k-faces, entries the usual
    alternating signs."""
    index = {int(f): i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for col, f in enumerate(upper):
        vs = f.vertices
        for i in range(len(vs)):
            sub = int(f) & ~(1 << vs[i])
            rows[index[sub]][col] = -1 if i % 2 else 1
    return rows


def rank_bareiss(rows):
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    a = [row[:] for row in rows]
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        for r in range(row + 1, m):
            f = a[r][col]
            # zero-pivot rows still need rescaling for the exact division
            for c in range(col + 1, n):
                a[r][c] = (a[r][c] * p - a[row][c] * f) // prev
            a[r][col] = 0
        prev = p
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p) by Gaussian elimination."""
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    a = [[v % p for v in row] for row in rows]
    rank = 0
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], p - 2, p)
        arow = a[row]
        for r in range(row + 1, m):
            f = a[r][col]
            if f:
                f = f * inv % p
                ar = a[r]
                for c in range(col, n):
                    ar[c] = (ar[c] - f * arow[c]) % p
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def dense_betti(x, p=None):
    """Reduced Betti numbers in degrees >= 0 from dense elimination of every
    boundary matrix: Bareiss over Q (p None), modular over GF(p)."""
    by_dim = [sorted(x.faces(k)) for k in range(x.dim + 1)]
    mats = [boundary_matrix(lo, up) for lo, up in zip(by_dim, by_dim[1:])]
    r = [1] + [rank_bareiss(m) if p is None else rank_mod_p(m, p)
               for m in mats] + [0]
    return tuple(len(by_dim[k]) - r[k] - r[k + 1] for k in range(x.dim + 1))


def test_rank_gf2_matches_dense_elimination_on_every_small_complex():
    for x in all_complexes(5):
        by_dim = [sorted(x.faces(k)) for k in range(x.dim + 1)]
        for lo, up in zip(by_dim, by_dim[1:]):
            assert (_rank_gf2(lo, up)
                    == rank_mod_p(boundary_matrix(lo, up), 2)), x
        assert reduced_betti(x, 2).ranks == dense_betti(x, 2), x
        assert reduced_betti(x, 3).ranks == dense_betti(x, 3), x
        assert reduced_betti(x).ranks == dense_betti(x), x


def test_rank_signed_matches_dense_elimination():
    # every boundary matrix of the <= 5-vertex universe, of 300 seeded random
    # complexes on 6 to 8 vertices and of RP2, edges included (in production
    # they take the GF(2) rank); about 15,800 matrices
    xs = all_complexes(5) + [RP2] + [
        y for n in (6, 7, 8) for y in _random_complexes(100, n, seed=n)]
    for x in xs:
        by_dim = [sorted(x.faces(k)) for k in range(x.dim + 1)]
        for lo, up in zip(by_dim, by_dim[1:]):
            mat = boundary_matrix(lo, up)
            assert _rank_signed(lo, up, None) == rank_bareiss(mat), x
            assert _rank_signed(lo, up, 3) == rank_mod_p(mat, 3), x
            assert _rank_signed(lo, up, 5) == rank_mod_p(mat, 5), x


def test_betti_of_rp2_sees_the_torsion():
    assert reduced_betti(RP2).ranks == (0, 0, 0) == dense_betti(RP2)
    assert reduced_betti(RP2, 2).ranks == (0, 1, 1) == dense_betti(RP2, 2)
    # its ten triangles are independent over Q and GF(3), not over GF(2)
    edges, triangles = sorted(RP2.faces(1)), sorted(RP2.faces(2))
    assert _rank_signed(edges, triangles, None) == 10
    assert _rank_signed(edges, triangles, 3) == 10
    assert _rank_gf2(edges, triangles) == 9


def test_betti_of_star_family_nc_vanishes_over_q():
    x = non_cover_complex(star_family(6, (1,) * 6))
    assert reduced_betti(x).ranks == (0,) * (x.dim + 1)


# -- Leray numbers ---------------------------------------------------------

def full_link_leray(x, p=None):
    """The link criterion with the full dense Betti vector of every link:
    the link route `leray_number` had before its top-down scan, kept as that
    scan's oracle."""
    top = -1
    for gamma in x.all_faces():
        betti = dense_betti(x.link(gamma), p)
        top = max([top] + [t for t, b in enumerate(betti) if b])
    return top + 1


def _random_complexes(count, n, seed):
    rng = random.Random(seed)
    return [SimplicialComplex(rng.sample(range(1, n + 1), rng.randint(1, n))
                              for _ in range(rng.randint(1, 8)))
            for _ in range(count)]


def test_leray_scan_matches_the_full_link_scan_over_q():
    for x in all_complexes(5):
        assert leray_number(x) == full_link_leray(x), x


@pytest.mark.parametrize("p", [None, 2, 3])
def test_leray_scan_matches_the_full_link_scan_on_n6(p):
    field = "Q" if p is None else p
    for x in all_complexes(4) + _random_complexes(200, 6, seed=0):
        assert leray_number(x, field) == full_link_leray(x, p), x


def test_leray_of_rp2_rejects_the_gf2_screen_over_q():
    # over Q the GF(2) screen reads H~_2 != 0 on RP2 itself; only the exact
    # rank shows it is 0, so L stays at 2 (from the hexagon vertex links)
    assert leray_number(RP2) == 2 == full_link_leray(RP2) == _leray_induced(RP2)
    assert (leray_number(RP2, 2) == 3 == full_link_leray(RP2, 2)
            == _leray_induced(RP2, 2))


def test_leray_of_star_family_nc_needs_few_exact_ranks(monkeypatch):
    calls = []

    def counted(lower, upper, p):
        if p is None:
            calls.append(len(upper))
        return _rank_signed(lower, upper, p)

    monkeypatch.setattr(homology, "_rank_signed", counted)
    # the full link scan makes 1,927 rational ranks on star_family(5)
    assert leray_number(non_cover_complex(star_family(5, (1,) * 5))) == 4
    assert len(calls) <= 10
    assert leray_number(non_cover_complex(star_family(6, (1,) * 6))) == 5


def test_leray_of_star_family_nc_builds_few_chain_complexes(monkeypatch):
    built = []

    class Counted(homology._Chains):
        __slots__ = ()

        def __init__(self, facets):
            built.append(facets)
            super().__init__(facets)

    monkeypatch.setattr(homology, "_Chains", Counted)
    # one per distinct closed-face link met above best; the scan over every
    # face, which ranked each link itself, built 640 here
    assert leray_number(non_cover_complex(star_family(5, (1,) * 5))) == 4
    assert len(built) <= 130
    assert leray_number(non_cover_complex(star_family(7, (1,) * 7))) == 6


def test_leray_goldens():
    assert leray_number(simplex_on((1, 2, 3))) == 0
    assert leray_number(THREE_CYCLE) == 2
    assert leray_number(TETRA_BOUNDARY) == 3
    assert leray_number(V6F10_6) == 2


def test_leray_methods_agree_individually():
    for x in (THREE_CYCLE, TETRA_BOUNDARY, V6F10_6):
        assert _leray_induced(x) == leray_number(x)


def test_leray_vertex_cap():
    wide = SimplicialComplex([(v,) for v in range(15)])
    with pytest.raises(ValueError):
        _leray_induced(wide)
    assert leray_number(wide) == 1


def test_induced_cohen_macaulay_vertex_cap():
    wide = SimplicialComplex([(v,) for v in range(15)])
    with pytest.raises(ValueError, match="above 14 vertices"):
        is_cohen_macaulay_induced(wide)
    # a non-pure complex needs no enumeration and is answered at any size
    assert not is_cohen_macaulay_induced(SimplicialComplex(
        [(v,) for v in range(15)] + [(1, 2)]))
    # points are Cohen-Macaulay in both senses; the link test has no cap
    assert is_cohen_macaulay_induced(SimplicialComplex(
        [(v,) for v in range(14)]))
    assert is_cohen_macaulay(wide)


def test_leray_default_route_scales_past_the_vertex_cap():
    path = SimplicialComplex([(i, i + 1) for i in range(1, 16)])
    assert leray_number(path) == 1


@given(complexes)
@settings(max_examples=25, deadline=None)
def test_leray_routes_always_agree(x):
    assert leray_number(x) == _leray_induced(x)
    assert leray_number(x, 2) == _leray_induced(x, 2)


def object_route_induced(x, field):
    """Both induced-subcomplex oracles the slow way, one `SimplicialComplex`
    per vertex subset A: (1 + the top nonzero degree of the full Betti
    vector of every x[A], whether x is pure and every x[A] is homologically
    (dim - 1)-connected)."""
    subs = [x.induced(a) for a in subsets(x.vertex_mask,
                                          range(len(x.vertices) + 1))]
    leray = 1 + max(reduced_betti(y, field).top_nonzero_degree()
                    for y in subs)
    cm = x.is_pure() and all(is_homologically_connected(y, y.dim - 1, field)
                             for y in subs)
    return leray, cm


def induced_differential(n, shift=0):
    """(cases, mismatches) of `_leray_induced` and
    `is_cohen_macaulay_induced`, on facet masks, against the object route
    on every complex on <= n vertices, labels raised by shift, over Q,
    GF(2) and GF(3)."""
    count, mismatches = 0, []
    for x in all_complexes(n):
        x = shifted(x, shift)
        for field in ("Q", 2, 3):
            count += 1
            got = (_leray_induced(x, field),
                   is_cohen_macaulay_induced(x, field))
            want = object_route_induced(x, field)
            if got != want:
                mismatches.append((x, field, got, want))
    return count, mismatches


def test_induced_oracles_on_masks_match_the_object_route():
    count, mismatches = induced_differential(4)
    assert mismatches == []
    assert count == len(all_complexes(4)) * 3


def test_leray_scan_skips_repeated_links(monkeypatch):
    ranked = []
    link_chains = homology._link_chains

    def counted(lk):
        ranked.append(lk)
        return link_chains(lk)

    def no_link(self, sigma):
        raise AssertionError("the Leray scan builds no link")

    monkeypatch.setattr(homology, "_link_chains", counted)
    monkeypatch.setattr(SimplicialComplex, "link", no_link)
    # five triangles on the edge 12 are 1-collapsible: the greedy walk
    # reads L = 1 with no link listed, so none is ranked
    fan = SimplicialComplex([(1, 2, v) for v in range(3, 8)])
    assert leray_number(fan) == 1
    assert ranked == []
    # the edge 12 joined with the octahedron: every facet holds 12, so the
    # apex link is the octahedron, eight triangles whose nerve is no
    # simplex boundary, and the one ranked; it takes L to 3, past every
    # later link (each of dimension below 2), so the scan stops there
    octahedron = [1 << a | 1 << b | 1 << c
                  for a in (3, 4) for b in (5, 6) for c in (7, 8)]
    cone = SimplicialComplex(f | 0b110 for f in octahedron)
    assert leray_number(cone) == 3
    assert ranked == [tuple(sorted(octahedron))]
    for x in all_complexes(4) + [RP2, V6F10_6]:
        for p in (None, 2):
            ranked.clear()
            leray_number(x, "Q" if p is None else p)
            # each family once, and no cone: a link of a non-closed face
            # sigma has c - sigma in all its facets, c the intersection of
            # the facets that hold sigma; and only what counting cannot
            # settle, links of five or more facets whose nerve is not a
            # sphere
            assert len(ranked) == len(set(ranked)), x
            assert all(functools.reduce(operator.and_, lk) == 0
                       and len(lk) >= 5 and not _sphere_nerve(lk)
                       for lk in ranked), x


def test_capped_leray_scan_reads_the_leray_number_below_its_cap():
    """`_leray(x, p, None, cap)` asks no degree >= cap: it is L(x) when
    L(x) < cap, and it reaches cap exactly when L(x) >= cap, for every cap
    from 0 to dim + 2, over GF(2) and Q, on every complex on <= 5 vertices,
    RP2 (L = 3 over GF(2), 2 over Q) and the empty complex."""
    for x in all_complexes(5) + [RP2, SimplicialComplex()]:
        for p in (2, None):
            want = leray_number(x, "Q" if p is None else p)
            for cap in range(x.dim + 3):
                got = homology._leray(x, p, None, cap)
                assert (got >= cap) == (want >= cap), (x, p, cap)
                assert got == min(want, cap), (x, p, cap)
    assert homology._leray(RP2, 2, None, 3) == 3
    assert homology._leray(RP2, None, None, 3) == 2


def test_floored_leray_scan_reads_the_leray_number_between_its_bounds():
    """`_leray(x, p, None, cap, b)` is min(cap, max(b, L(x))) for every
    0 <= b <= cap + 1 and cap <= dim + 2, over Q, GF(2) and GF(3), on
    every complex on <= 5 vertices, RP2 and the empty complex, with L(x)
    from `leray_number`: for b <= cap that is max(b, min(L(x), cap)), so a
    scan floored at b and capped at b + 1 answers "L(x) <= b?", as the
    shedding Leray check asks it, and a floor past its cap reads the
    cap."""
    for x in all_complexes(5) + [RP2, SimplicialComplex()]:
        for p in (None, 2, 3):
            want = leray_number(x, "Q" if p is None else p)
            for cap in range(x.dim + 3):
                for b in range(cap + 2):
                    assert (homology._leray(x, p, None, cap, b)
                            == min(cap, max(b, want))), (x, p, cap, b)
    assert homology._leray(RP2, 2, None, 3, 2) == 3
    assert homology._leray(RP2, None, None, 3, 2) == 2


def test_a_full_scan_stops_at_the_apex_link_dimension(monkeypatch):
    """No closed link after the apex link reaches its dimension d0, so a
    scan ends once L reaches d0: a 3-cycle beside a triangle (apex link
    the complex itself, d0 = 2) has L = 2 off its own degree-1 homology,
    and its Leray number reads that one link, with no closure under &
    built, where a cap of 3 would have read them all."""
    x = SimplicialComplex(list(THREE_CYCLE.facets) + [(4, 5, 6)])
    links = list(homology._closed_links(x))
    closed_links = homology._closed_links
    drawn = []

    def counted(y):
        for item in closed_links(y):
            drawn.append(item)
            yield item

    monkeypatch.setattr(homology, "_closed_links", counted)
    assert leray_number(x) == 2 == links[0][0]
    assert drawn == links[:1] and len(links) > 1
    assert homology._leray(x, None, None, 3, 2) == 2


def test_capped_leray_scan_shares_its_ranks_with_the_full_scan(
        monkeypatch):
    """With one cache, the closed links are listed once and each link is
    built once across the scans, and the Leray number over Q takes fewer
    GF(2) ranks than alone: a report that asks C takes C's floor first
    (the GF(2) scan capped at C's ceiling), reuses its ranks and stops at
    the floor.  The cache holds one entry per built link and the
    closed-link listing, nothing else."""
    nc = non_cover_complex(star_family(4, (2,) * 4))
    ranked, built, listed = [], [], []
    rank_gf2, link_chains = homology._rank_gf2, homology._link_chains
    closed_links = homology._closed_links

    def count_rank(lower, upper):
        ranked.append(upper)
        return rank_gf2(lower, upper)

    def count_link(lk):
        built.append(lk)
        return link_chains(lk)

    def count_listing(x):
        listed.append(x)
        return closed_links(x)

    monkeypatch.setattr(homology, "_rank_gf2", count_rank)
    monkeypatch.setattr(homology, "_link_chains", count_link)
    monkeypatch.setattr(homology, "_closed_links", count_listing)
    want = leray_number(nc)
    alone = len(ranked)
    ranked.clear()
    built.clear()
    listed.clear()
    cache = {}
    assert homology._leray(nc, 2, cache, want) == want
    floor = homology._leray(nc, 2, cache, want + 1)
    assert floor == want
    ranked.clear()
    assert homology._leray(nc, None, cache, floor) == want
    assert len(ranked) < alone
    assert leray_number(nc, "Q", cache) == want
    assert leray_number(nc, 2, cache) == want
    assert listed == [nc]
    assert built and len(built) == len(set(built)) == len(cache) - 1


def test_apex_link_comes_before_the_closure(monkeypatch):
    """The apex link is yielded before any vertex is read for the closure
    under intersection, so a scan that stops there pays for none of it."""
    def no_closure(mask):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(homology, "vertices_of", no_closure)
    sphere = boundary(range(1, 19))
    links = homology._closed_links(sphere)
    assert next(links) == (16, sphere.facets)
    cone = SimplicialComplex([(1, 2, 3), (1, 3, 4)])
    assert next(homology._closed_links(cone)) == (0, (0b100, 0b10000))
    assert homology._leray(sphere, 2, None, 17) == 17


def test_cached_links_are_drawn_only_as_far_as_a_scan_reads(monkeypatch):
    """A link cache draws the closed links once, and only as far as some
    scan reads: C of the 17-sphere stops at its apex link (the sphere
    itself), so a report of C alone never builds the 2^18 closed faces.
    On v6f10-6 the scan capped at 1 reads the facet count and draws no
    link.  The full scans find the greedy d = 1 walk stuck and start at
    the floor 2: the apex link, drawn once for both, drops the cap to its
    dimension 2, the floor, which no later link can pass, so 1 of the 17
    links is drawn.  A report of C and the Leray number draws the same
    prefix: its scan is floored at 2 and capped at the claim 3."""
    closed_links = homology._closed_links
    drawn = []

    def counted(x):
        for item in closed_links(x):
            drawn.append(item)
            yield item

    monkeypatch.setattr(homology, "_closed_links", counted)
    sphere = boundary(range(1, 19))
    assert reports.compute(sphere, ["C"])["values"] == {"C": 17}
    assert len(drawn) == 1
    x = NAMED_EXAMPLES["v6f10-6"]()
    links = list(closed_links(x))
    assert len(links) == 17 and links[0][0] == 2 and links[11][0] == 1
    drawn.clear()
    cache = {}
    assert homology._leray(x, 2, cache, 1) == 1
    assert drawn == []
    assert leray_number(x, "Q", cache) == 2
    assert leray_number(x, 2, cache) == 2
    assert drawn == links[:1]
    drawn.clear()
    assert reports.compute(x, ["C", "leray"])["values"] == {"C": 2,
                                                           "leray": 2}
    assert drawn == links[:1]
    drawn.clear()
    assert homology._leray(x, 2, {}, 3, 2) == 2
    assert drawn == links[:1]


def test_leray_number_lists_no_link_where_the_greedy_walk_empties_x(
        monkeypatch):
    """`leray_number` is `_leray` capped at dim + 1, so it reads L <= 1
    off the facet count and the greedy d = 1 walk: on every complex on
    <= 4 vertices that the walk empties, those with L <= 1 by the brute
    force (Wegner 1975), it lists no closed link, over Q, GF(2) and GF(3),
    and answers as the brute force.  Where the walk gets stuck the scan
    starts at 2: on v6f10-6 it draws the apex link alone, whose dimension
    2 caps L at the floor."""
    closed_links = homology._closed_links
    drawn = []

    def counted(y):
        for item in closed_links(y):
            drawn.append(item)
            yield item

    monkeypatch.setattr(homology, "_closed_links", counted)
    walked = 0
    for x in all_complexes(4):
        if _leray_induced(x, 2) <= 1:
            walked += len(x.facets) > 1
            for field in ("Q", 2, 3):
                assert leray_number(x, field) == _leray_induced(x, field), x
    assert walked and drawn == []
    x = NAMED_EXAMPLES["v6f10-6"]()
    assert leray_number(x) == 2
    assert drawn == list(closed_links(x))[:1]


def test_link_listing_readers_share_one_draw(monkeypatch):
    """Two readers of one cached listing, advanced alternately, each yield
    every closed link in order, and each link is drawn once; a third
    reader, after both, replays them all."""
    x = NAMED_EXAMPLES["v6f10-6"]()
    closed_links = homology._closed_links
    links = list(closed_links(x))
    drawn = []

    def counted(y):
        for item in closed_links(y):
            drawn.append(item)
            yield item

    monkeypatch.setattr(homology, "_closed_links", counted)
    cache = {}
    a = iter(homology._links_of(x, cache))
    b = iter(homology._links_of(x, cache))
    read_a, read_b = [], []
    for i in range(2 * len(links)):
        reader, out = (b, read_b) if i % 2 else (a, read_a)
        out.append(next(reader))
        if i == 0:
            # a has drawn the first link; a reader made now still
            # starts there
            assert next(iter(homology._links_of(x, cache))) == links[0]
    assert read_a == read_b == links
    assert next(a, None) is None and next(b, None) is None
    assert list(homology._links_of(x, cache)) == links
    assert drawn == links


def _closed(x, sigma):
    """True iff sigma is the intersection of the facets that hold it."""
    return sigma == functools.reduce(
        operator.and_, (f for f in x.facets if sigma & ~f == 0))


def test_links_of_non_closed_faces_are_acyclic():
    # read by dense elimination: `reduced_betti` answers a cone, as every
    # such link is, without a rank
    for x in all_complexes(5):
        for sigma in x.all_faces():
            if not _closed(x, sigma):
                lk = x.link(sigma)
                assert not lk.is_empty and not any(dense_betti(lk)), (x, sigma)


def _answers(x):
    """Every answer read from the closed-face links of x, the ranks shared
    through one link cache."""
    cache = {}
    return (leray_number(x, "Q", cache), leray_number(x, 2, cache),
            is_cohen_macaulay(x),
            [homology._leray(x, 2, cache, cap) for cap in range(x.dim + 3)])


def test_closed_links_come_apex_first_and_change_no_answer(monkeypatch):
    """On every complex on <= 5 vertices `_closed_links` yields each
    distinct link of a closed face held by two or more facets once, and
    the link of the apex (the intersection of all facets) first; the one
    link it leaves out, on two or more facets, is the facets' {empty
    face}; and the Leray numbers, the capped
    GF(2) scan and the Cohen-Macaulay test answer as they do with
    the links in their former order, largest face first (the apex, the
    smallest closed face, last)."""
    closed_links = homology._closed_links
    xs = all_complexes(5)
    for x in xs:
        links = list(closed_links(x))
        if x.is_empty:
            assert links == []
            continue
        apex = functools.reduce(operator.and_, x.facets)
        held = {s: [f for f in x.facets if s & ~f == 0]
                for s in x.all_faces() if _closed(x, s)}
        every = {tuple(f ^ s for f in fs) for s, fs in held.items()}
        want = {tuple(f ^ s for f in fs) for s, fs in held.items()
                if len(fs) > 1 or s == apex}
        # the one link left out is the facets' {empty face}
        assert every - want == ({(0,)} if len(x.facets) > 1 else set()), x
        assert len(links) == len(want) == len({lk for _, lk in links}), x
        assert {lk for _, lk in links} == want, x
        assert all(d == max(map(int.bit_count, lk)) - 1 for d, lk in links)
        assert links[0][1] == tuple(f ^ apex for f in x.facets), x
    answers = [_answers(x) for x in xs]

    def former_order(x):
        links = list(closed_links(x))
        return links[1:] + links[:1]

    monkeypatch.setattr(homology, "_closed_links", former_order)
    for x, want in zip(xs, answers):
        assert _answers(x) == want, x


def through_set_closed_links(x):
    """`_closed_links` by the per-facet route it had before the holder-mask
    closure, kept as its oracle: the apex link first, then the facet list
    closed under &, each new facet meeting only the closed faces through
    its vertices (kept per vertex), largest face first, each link read off
    the facets holding its lowest vertex."""
    facets = x.facets
    if not facets:
        return
    apex = functools.reduce(operator.and_, facets)
    first = tuple(f ^ apex for f in facets)
    yield max(map(int.bit_count, first)) - 1, first
    holders = {}
    through = {}
    for f in facets:
        vs = vertices_of(f)
        new = {f & c for c in set().union(*(through.get(v, ()) for v in vs))}
        new.add(f)
        for c in new:
            for v in vertices_of(c):
                through.setdefault(v, set()).add(c)
        for v in vs:
            holders.setdefault(v, []).append(f)
    seen = {first}
    for s in sorted(set().union(*through.values()), key=int.bit_count,
                    reverse=True):
        lk = tuple(f ^ s for f in holders[(s & -s).bit_length() - 1]
                   if s & ~f == 0)
        if lk not in seen:
            seen.add(lk)
            yield max(map(int.bit_count, lk)) - 1, lk


def closure_inputs(n, shift=0, count=2000, seed=0):
    """Every complex on <= n vertices with its labels raised by shift, then
    `count` random complexes on 6-10 vertices, the K_m graphs for m <= 46
    and NC(star_family(m, (2,) * m)) for m = 4, 5, 6."""
    rng = random.Random(seed)
    xs = [shifted(x, shift) for x in all_complexes(n)]
    for _ in range(count):
        m = rng.randint(6, 10)
        xs.append(SimplicialComplex(
            rng.sample(range(1, m + 1), rng.randint(1, m))
            for _ in range(rng.randint(1, 12))))
    xs += [SimplicialComplex(itertools.combinations(range(m), 2))
           for m in range(2, 47)]
    xs += [non_cover_complex(star_family(m, (2,) * m)) for m in (4, 5, 6)]
    return xs


def closure_differential(complexes):
    """The complexes on which `_closed_links` and `through_set_closed_links`
    differ in their first (apex) link or in the multiset of the (d, link)
    pairs they yield, the oracle's (-1, (0,)) left out on two or more
    facets: that is the link of a facet, held by one facet only, which
    `_closed_links` does not list."""
    bad = []
    for x in complexes:
        got = list(homology._closed_links(x))
        want = list(through_set_closed_links(x))
        if len(x.facets) > 1:
            want.remove((-1, (0,)))
        if (got[:1] != want[:1]
                or collections.Counter(got) != collections.Counter(want)):
            bad.append(x)
    return bad


def test_holder_mask_closure_lists_the_through_set_links():
    """`_closed_links` yields the apex link first and then the same links,
    with the same dimensions, as the per-facet through-set listing, on
    every complex on <= 4 vertices, labels as given and raised by 100, 200
    random complexes on 6-10 vertices, the K_m graphs (m <= 46) and the
    NC(star_family(m, (2,) * m)), m = 4, 5, 6; the CI step
    `closure 5 [shift]` runs the same on <= 5 vertices and 2,000 random
    complexes."""
    for shift in (0, 100):
        assert closure_differential(closure_inputs(4, shift, 200)) == []

def _trimmed(rank_neg1, ranks):
    """A reduced Betti vector from degree -1 up, trailing zeros dropped."""
    out = [rank_neg1, *ranks]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("p", [None, 2, 3])
def test_nerve_has_the_homology_of_every_link(p):
    field = "Q" if p is None else p
    for x in all_complexes(4) + _random_complexes(200, 6, seed=0) + [RP2]:
        for sigma in x.all_faces():
            lk = x.link(sigma)
            b = reduced_betti(lk, field)
            nerve = homology._Chains(homology._nerve(lk.facets))
            via_nerve = _trimmed(int(nerve.dim < 0), [
                nerve.betti(t, p) for t in range(nerve.dim + 1)])
            assert via_nerve == _trimmed(b.rank_neg1, b.ranks), (x, sigma)


def test_link_chains_takes_the_nerve_only_when_it_is_smaller():
    # three 5-vertex simplices glued in a cycle: 3 nerve vertices, and the
    # nerve is the hollow triangle (with the vertices of private vertices)
    cycle = SimplicialComplex([range(1, 6), range(5, 10), [9, 10, 11, 12, 1]])
    assert sorted(homology._link_chains(cycle.facets).facets) == [
        0b1, 0b10, 0b11, 0b100, 0b101, 0b110]
    assert leray_number(cycle) == 2 == full_link_leray(cycle)
    # 13 facets on 27 vertices, but 12 of them hold vertex 1, so the nerve
    # would be an 11-simplex with 4,096 faces where the complex has at most
    # 12 * 32 + 4; at 30 such facets it would have 2^30
    rng = random.Random(5)
    fan = SimplicialComplex([[1, *rng.sample(range(2, 26), 4)]
                             for _ in range(12)] + [[30, 31]])
    assert homology._link_chains(fan.facets).facets == fan.facets
    assert leray_number(fan) == 2 == full_link_leray(fan)


def test_betti_numbers_and_connectivity_rank_through_the_nerve(monkeypatch):
    # an 11-simplex and a point: its nerve is two points, so no GF(2)
    # column is ranked, where the complex's own chains take 4,083
    columns = []
    rank_gf2 = homology._rank_gf2

    def counted(lower, upper):
        columns.extend(upper)
        return rank_gf2(lower, upper)

    monkeypatch.setattr(homology, "_rank_gf2", counted)
    x = SimplicialComplex([range(1, 13), (13,)])
    assert reduced_betti(x, 2).ranks == (1,) + (0,) * 11
    assert not is_homologically_connected(x, 0, 2)
    assert is_homologically_connected(x, -1, 2)
    assert columns == []


def _sphere_nerve(lk):
    """True iff every len(lk) - 1 of the facets lk meet: for a closed link,
    whose facets share no vertex, the nerve is then the boundary of a
    simplex."""
    return all(functools.reduce(operator.and_, lk[:i] + lk[i + 1:])
               for i in range(len(lk)))


def rank_every_link_leray(links, chains, p, cap, best):
    """The Leray scan floored at best and capped at cap over the closed
    links `links`, with every link above best ranked through its `chains`
    (`_link_chains`) and no stop before best reaches cap, as `_leray` was
    before it read small links off their nerves and stopped at the apex
    link's dimension: its oracle."""
    for d, lk in links:
        if d + 1 > best:
            best = max(best, chains[lk].top_degree(min(d, cap - 1), best, p)
                       + 1)
        if best >= cap:
            break
    return best


def rank_every_link_cohen_macaulay(x, links, chains, p):
    """The link Cohen-Macaulay test with every closed link ranked through
    its `chains`: the oracle of `is_cohen_macaulay`."""
    return x.is_pure() and not any(
        d > 0 and any(chains[lk].nonzero(t, p) for t in range(d))
        for d, lk in links)


def nerve_differential(complexes):
    """On each complex, over Q, GF(2) and GF(3): `_nerve_degrees` of every
    closed link with a face is the set of degrees where the link's own
    `_Chains` read a nonzero Betti number, and None only on a link of five
    or more facets whose nerve is no sphere; `_leray` capped at every cap
    from 0 to dim + 1 and at infinity, each floored at every floor from 0
    to the cap (to dim + 1 under infinity), and `is_cohen_macaulay`,
    answer as the rank-every-link loops.  Each side keeps its own link
    cache per complex.  Returns the links met, counted by (nerve a sphere,
    five or more facets), and the mismatches."""
    kinds = collections.Counter()
    bad = []
    for x in complexes:
        links = list(homology._closed_links(x))
        chains = {lk: homology._link_chains(lk) for _, lk in links}
        for d, lk in links:
            if d < 0:
                continue
            got = homology._nerve_degrees(lk)
            sphere = _sphere_nerve(lk)
            kinds[sphere, len(lk) >= 5] += 1
            if (got is None) != (len(lk) >= 5 and not sphere):
                bad.append((x, lk))
            own = homology._Chains(lk)
            for p in (None, 2, 3):
                want = sum(1 << t for t in range(own.dim + 1)
                           if own.betti(t, p))
                if got not in (None, want):
                    bad.append((x, lk, p))
        cache = {}
        for p in (None, 2, 3):
            for cap in [*range(x.dim + 2), math.inf]:
                for best in range(min(cap, x.dim + 1) + 1):
                    if (homology._leray(x, p, cache, cap, best)
                            != rank_every_link_leray(links, chains, p, cap,
                                                     best)):
                        bad.append((x, p, cap, best))
            if (is_cohen_macaulay(x, "Q" if p is None else p, cache)
                    != rank_every_link_cohen_macaulay(x, links, chains, p)):
                bad.append((x, p))
    return kinds, bad


def test_nerve_degrees_settle_small_closed_links_as_the_ranks_do():
    """Every complex on <= 5 vertices, the named examples, the mod-3 Moore
    space and NC(star_family(n)) for n = 4, 5 (`nerve_differential`).  A
    hollow triangle and a point has homology in degrees 0 and 1: a top
    degree alone would lose degree 0, which a scan capped at 1 must see."""
    xs = (all_complexes(5) + [make() for make in NAMED_EXAMPLES.values()]
          + [mod3_moore_space()]
          + [non_cover_complex(star_family(n, (1,) * n)) for n in (4, 5)])
    kinds, bad = nerve_differential(xs)
    assert bad == []
    # spheres and non-spheres, with fewer and with five or more facets
    assert len(kinds) == 4
    cycle_and_point = SimplicialComplex([(1, 2), (2, 3), (1, 3), (4,)])
    assert homology._nerve_degrees(cycle_and_point.facets) == 0b11


# -- Cohen-Macaulay --------------------------------------------------------

def test_cohen_macaulay_goldens():
    assert is_cohen_macaulay(V6F10_6)
    assert is_cohen_macaulay(TETRA_BOUNDARY)
    assert is_cohen_macaulay(THREE_CYCLE)
    assert not is_cohen_macaulay(SimplicialComplex([(1, 2, 3), (3, 4)]))
    # two disjoint edges: pure but disconnected in dimension 1
    assert not is_cohen_macaulay(SimplicialComplex([(1, 2), (3, 4)]))


def dense_acyclic_below_top(complexes, p=None):
    """Zero reduced homology below the top degree of each complex, read off
    its dense Betti vector: the oracle for both Cohen-Macaulay predicates."""
    return all(not any(dense_betti(y, p)[:y.dim]) for y in complexes)


@pytest.mark.parametrize("p", [None, 2])
def test_cohen_macaulay_matches_dense_betti_on_every_small_complex(p):
    field = "Q" if p is None else p
    for x in all_complexes(5):
        links = map(x.link, x.all_faces())
        subs = map(x.induced, subsets(x.vertex_mask, range(1, 6)))
        assert is_cohen_macaulay(x, field) == (
            x.is_pure() and dense_acyclic_below_top(links, p)), x
        assert is_cohen_macaulay_induced(x, field) == (
            x.is_pure() and dense_acyclic_below_top(subs, p)), x


@pytest.mark.parametrize("p", [None, 2, 3])
def test_induced_cohen_macaulay_matches_the_dense_oracle(p):
    """Every pure complex on <= 4 vertices, RP2 and v6f10-6: induced
    Cohen-Macaulay exactly when every induced subcomplex y has no dense
    reduced homology below dim(y)."""
    field = "Q" if p is None else p
    seen = set()
    for x in [y for y in all_complexes(4) if y.is_pure()] + [RP2, V6F10_6]:
        subs = map(x.induced, subsets(x.vertex_mask,
                                      range(len(x.vertices) + 1)))
        want = dense_acyclic_below_top(subs, p)
        assert is_cohen_macaulay_induced(x, field) == want, x
        seen.add(want)
    assert seen == {True, False}


@given(complexes)
@settings(max_examples=25, deadline=None)
def test_induced_cm_implies_links_cm(x):
    pure = x.pure_skeleton(x.dim)
    if is_cohen_macaulay_induced(pure):
        assert is_cohen_macaulay(pure)


def test_links_cm_does_not_imply_induced_cm():
    """The induced-connectivity property is strictly stronger: this complex
    satisfies Reisner's link condition, yet its induced subcomplex on
    {1, 3, 6} is an edge plus a lone vertex, hence disconnected."""
    x = SimplicialComplex([(1, 4, 5), (3, 4, 5), (1, 5, 6)])
    assert is_cohen_macaulay(x)
    assert not is_cohen_macaulay_induced(x)
    # the golden 6-vertex example separates the predicates too
    assert is_cohen_macaulay(V6F10_6)
    assert not is_cohen_macaulay_induced(V6F10_6)


# -- shellability ----------------------------------------------------------

def test_shellable_goldens():
    ok, order = is_shellable(TETRA_BOUNDARY)
    assert ok and len(order) == 4
    ok, order = is_shellable(V6F10_6)
    assert ok and set(order) == set(V6F10_6.facets)
    assert is_shellable(SimplicialComplex([(1,), (2,), (3,)]))[0]


def test_two_disjoint_edges_not_shellable():
    ok, order = is_shellable(SimplicialComplex([(1, 2), (3, 4)]))
    assert not ok and order is None


def test_shellable_rejects_non_pure():
    with pytest.raises(NotPureError):
        is_shellable(SimplicialComplex([(1, 2, 3), (3, 4)]))


def test_shelling_order_prefixes_are_valid():
    ok, order = is_shellable(V6F10_6)
    assert ok
    for i in range(1, len(order)):
        f = order[i]
        inters = [int(f) & int(order[j]) for j in range(i)]
        ridges = [m for m in inters if m.bit_count() == f.bit_count() - 1]
        assert ridges
        for m in inters:
            assert any(m & ~r == 0 for r in ridges)


# -- k-vertex decomposability ----------------------------------------------

def test_kvd_goldens():
    ok1, wit1 = is_k_vertex_decomposable(V6F10_6, 1)
    assert ok1
    assert verify_shedding_sequence(V6F10_6, 1, wit1)
    ok0, wit0 = is_k_vertex_decomposable(V6F10_6, 0)
    assert not ok0 and wit0 is None


def test_kvd_of_simplex_is_trivial():
    ok, wit = is_k_vertex_decomposable(simplex_on((1, 2, 3)), 0)
    assert ok and wit == ()


def test_kvd_rejects_non_pure_and_negative_k():
    with pytest.raises(NotPureError):
        is_k_vertex_decomposable(SimplicialComplex([(1, 2, 3), (3, 4)]), 0)
    with pytest.raises(ValueError):
        is_k_vertex_decomposable(V6F10_6, -1)


def test_tampered_shedding_sequence_fails():
    ok, wit = is_k_vertex_decomposable(V6F10_6, 1)
    assert ok
    assert not verify_shedding_sequence(V6F10_6, 1, wit[:-1])
    assert not verify_shedding_sequence(V6F10_6, 0, wit)


def test_kvd0_boundary_of_tetrahedron():
    ok, wit = is_k_vertex_decomposable(TETRA_BOUNDARY, 0)
    assert ok
    assert verify_shedding_sequence(TETRA_BOUNDARY, 0, wit)


def test_a_long_shedding_sequence_replays_without_recursion():
    """A 1,034-step 1-decomposition of the complete graph K_46: shed every
    edge off vertex 0, leaving the star at 0, then its leaves 1..44.  The
    replay is one loop, so the length is no recursion depth; a recursive
    replay of it went past Python's default limit."""
    x = SimplicialComplex(itertools.combinations(range(46), 2))
    w = ([SheddingWitness(Face.of(e), 1)
          for e in itertools.combinations(range(1, 46), 2)]
         + [SheddingWitness(Face.of([v]), 1) for v in range(1, 45)])
    assert len(w) == 1034
    assert verify_shedding_sequence(x, 1, tuple(w))
    assert not verify_shedding_sequence(x, 1, tuple(w[:500] + w[501:]))
    assert not verify_shedding_sequence(x, 1, tuple(w + w[-1:]))


def test_a_kvd_search_deeper_than_the_recursion_limit():
    """The 120-cycle 0-decomposes in 119 steps, and the search nests a node
    for each.  Its nodes are generators on `errors._drive`, so a limit 60
    frames above the caller's depth does not stop it; a search that called
    itself raised RecursionError there."""
    cycle = SimplicialComplex([(i, i % 120 + 1) for i in range(1, 121)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        ok, witness = is_k_vertex_decomposable(cycle, 0)
    finally:
        sys.setrecursionlimit(old)
    assert ok and len(witness) == 119
    assert verify_shedding_sequence(cycle, 0, witness)


def test_a_non_pure_complex_has_no_shedding_sequence():
    # shedding {4} leaves the triangle, and its link is empty, so the
    # replay of this one-step sequence would succeed; but the search
    # refuses the complex, and so does the replay
    x = SimplicialComplex([(1, 2, 3), (4,)])
    witness = (SheddingWitness(Face.of([4]), 0),)
    with pytest.raises(NotPureError):
        is_k_vertex_decomposable(x, 0)
    assert not verify_shedding_sequence(x, 0, witness)


def oracle_shedding_deletion(y, sigma):
    """The shedding test the mask search replaced: build del(sigma, y) and
    ask that it be pure of y's dimension."""
    dele = y.deletion(sigma)
    return dele if dele.is_pure() and dele.dim == y.dim else None


def oracle_kvd(x, k, budget):
    """The search on `SimplicialComplex` objects that `is_k_vertex_decomposable`
    replaced, kept as its oracle: same candidate order, same memo, one
    budget node per expanded complex."""
    memo = {}

    def rec(y):
        if y.is_empty or y.is_simplex:
            return ()
        if y.facets in memo:
            return memo[y.facets]
        budget.spend()
        candidates = []
        for j in range(min(k, y.dim) + 1):
            candidates.extend(sorted(y.faces(j), key=lambda f: f.vertices))
        result = None
        for sigma in candidates:
            dele = oracle_shedding_deletion(y, sigma)
            if dele is None:
                continue
            sub_del = rec(dele)
            if sub_del is None:
                continue
            sub_lk = rec(y.link(sigma))
            if sub_lk is None:
                continue
            result = (SheddingWitness(sigma, k),) + sub_del + sub_lk
            break
        memo[y.facets] = result
        return result

    witness = rec(x)
    return (False, None) if witness is None else (True, witness)


def oracle_verify(x, k, witness):
    """The replay on `SimplicialComplex` objects, for pure x."""

    def consume(y, pos):
        if y.is_empty or y.is_simplex:
            return pos
        if pos >= len(witness):
            return None
        face, bound = witness[pos]
        if bound != k or face.dim > k or face.dim < 0:
            return None
        dele = oracle_shedding_deletion(y, face) if face in y else None
        if dele is None:
            return None
        after_del = consume(dele, pos + 1)
        if after_del is None:
            return None
        return consume(y.link(face), after_del)

    return consume(x, 0) == len(witness)


def test_kvd_matches_the_complex_search_on_every_small_pure_complex():
    """Every pure complex on <= 5 vertices, k = 0, 1, 2: the verdict, the
    witness and the nodes spent are the old search's (no node on a complex
    the Cohen-Macaulay pre-test refutes), and the replay of each witness,
    of it under another k and of it less its last step agrees with the old
    replay."""
    pure = [x for x in all_complexes(5) if x.is_pure()]
    assert len(pure) == 2110  # the empty complex included
    found = refuted = 0
    for x in pure:
        cm = is_cohen_macaulay(x, 2)
        refuted += not cm
        for k in (0, 1, 2):
            mine, old = Budget(), Budget()
            got = is_k_vertex_decomposable(x, k, mine)
            assert got == oracle_kvd(x, k, old), (x, k)
            # a complex that is not Cohen-Macaulay over GF(2) is refused
            # before the search, with no node spent
            assert mine.used == (old.used if cm else 0), (x, k)
            ok, wit = got
            if ok:
                found += 1
                assert all(type(w.face) is Face for w in wit)
                for kk, w in ((k, wit), ((k + 1) % 3, wit), (k, wit[:-1])):
                    assert (verify_shedding_sequence(x, kk, w)
                            == oracle_verify(x, kk, w)), (x, k, kk, w)
    assert 0 < found < 3 * len(pure) and refuted


def test_shed_matches_the_oracle_on_every_face_of_every_small_pure_complex():
    """Every pure complex on <= 5 vertices and every nonempty vertex set s
    inside its vertex set, of any size and not only the faces the search
    tries: `_shed` gives the facets of `oracle_shedding_deletion` when s
    sheds, and None when it does not or when s is not a face."""
    faces = shedding = non_faces = 0
    for y in all_complexes(5):
        if not y.is_pure():
            continue
        vm = y.vertex_mask
        for s in subsets(vm, range(1, vm.bit_count() + 1)):
            got = _shed(y.facets, s)
            if s in y:
                want = oracle_shedding_deletion(y, Face(s))
                assert got == (None if want is None else want.facets), (y, s)
                faces += 1
                shedding += got is not None
            else:
                assert got is None, (y, s)
                non_faces += 1
    # some face sheds, some face does not, and some vertex set is no face
    assert 0 < shedding < faces and non_faces


@given(complexes)
@settings(max_examples=25, deadline=None)
def test_kvd_witnesses_replay(x):
    pure = x.pure_skeleton(x.dim)
    for k in (0, 1):
        ok, wit = is_k_vertex_decomposable(pure, k)
        if ok:
            assert verify_shedding_sequence(pure, k, wit)


# -- the shedding Leray probe ----------------------------------------------

SHED_FIELD_CASES = [
    (SimplicialComplex([(1, 2, 3), (2, 3, 4)]), (1,)),       # shedding
    (SimplicialComplex([(1, 2, 3), (2, 3, 4)]), (1, 2, 3)),  # not shedding
    (SimplicialComplex([(1, 2, 3), (3, 4)]), (1,)),          # not pure
]


@pytest.mark.parametrize("x,sigma", SHED_FIELD_CASES)
def test_shedding_leray_probe_rejects_a_bad_field_first(x, sigma):
    # a bad field must never read as an unmet hypothesis, which callers
    # take as "skip"
    with pytest.raises(ValueError, match="not a valid prime field"):
        shedding_leray_inequality_check(x, sigma, "gf4")


def test_shed_leray_trial_ranks_the_trial_complex_at_most_once(monkeypatch):
    ranked = []
    real = reports.leray_number

    def counted(y, field="Q", cache=None):
        ranked.append(y)
        return real(y, field, cache)

    monkeypatch.setattr(reports, "leray_number", counted)
    run = reports.THEOREMS["shed-leray"][1]
    assert run(V6F10_6, random.Random(0), Budget()) == "pass"
    assert ranked.count(V6F10_6) == 1
    # no face of a simplex is a shedding face: a skip ranks nothing
    ranked.clear()
    tri = simplex_on((1, 2, 3))
    assert run(tri, random.Random(0), Budget()) == "skip"
    assert ranked == []


def test_shed_leray_lists_the_links_of_each_complex_once(monkeypatch):
    """The trial's faces and L(X) share one link cache, and so do the
    Cohen-Macaulay test and the Leray scans of one check: the links of a
    deletion and X are each listed once, X also for the Cohen-Macaulay
    pre-test of the kvd1 hypothesis.  On v6f10-6 (L = 2) that is X and
    the deletions of its 11 shedding faces (6 not Cohen-Macaulay).  The
    faces ranked are the 10 edges from {2,3}, the first face to count,
    on, and no edge's link is listed: each asks "L(lk) <= 0?", which the
    facet count answers (`homology._leray`), where a scan listed
    them (22 listings, and 3 for the public check at {2,3})."""
    listed = []
    real = homology._closed_links

    def counted(y):
        listed.append(y)
        return real(y)

    monkeypatch.setattr(homology, "_closed_links", counted)
    run = reports.THEOREMS["shed-leray"][1]
    assert run(V6F10_6, random.Random(0), Budget()) == "pass"
    assert len(listed) == len(set(listed)) == 12
    listed.clear()
    assert shedding_leray_inequality_check(V6F10_6, (2, 3))
    assert len(listed) == len(set(listed)) == 2


def exact_shedding_leray_holds(x, sigma, dele, p):
    """L(X) >= max(L(del), L(lk) + k + 1) at the k-face sigma of x, whose
    deletion is dele, with every Leray number ranked in full: the formula
    `reports._shedding_leray_holds` had before it asked both sides as
    bounded scans, kept as its oracle.  It reads L(del) and L(lk) off
    uncapped questions through `reports._leray`, so a helper patched
    there reaches the probe and the oracle alike."""
    def full(y):
        return reports._leray(y, p, None, math.inf)

    return leray_number(x, "Q" if p is None else p) >= max(
        full(dele), full(x.link(sigma)) + sigma.dim + 1)


def hypothesis_first_shed_leray(x, rng, budget):
    """`reports._thm_shed_leray` as it ran before it ranked faces ahead of
    their Cohen-Macaulay test, kept as its oracle: skip a non-pure or not
    1-decomposable X, then take every face of dimension <= 1 in order,
    test every hypothesis of the face (shedding, deletion Cohen-Macaulay)
    before ranking either side, and read the inequality off
    `exact_shedding_leray_holds`.  A face whose hypotheses fail is passed
    over, a false inequality is the counterexample, and the run passes
    once some face has counted."""
    if not x.is_pure() or not is_k_vertex_decomposable(x, 1, budget)[0]:
        return "skip"
    checked = False
    for k in range(0, min(x.dim, 1) + 1):
        for sigma in sorted(x.faces(k)):
            dele = oracle_shedding_deletion(x, sigma)
            if dele is None or not is_cohen_macaulay(dele):
                continue
            if not exact_shedding_leray_holds(x, sigma, dele, None):
                raise reports.Counterexample(
                    x, f"shedding Leray inequality fails at {sigma!r}")
            checked = True
    return "pass" if checked else "skip"


def shedding_differential(xs):
    """On each pure complex, at every shedding face, over Q, GF(2) and
    GF(3): the bounded test `reports._shedding_leray_holds` against
    `exact_shedding_leray_holds`, also where the deletion is not
    Cohen-Macaulay and the inequality can fail, and where it is,
    `shedding_leray_inequality_check` too.  Returns the checks made, the
    false inequalities among them, the public checks made and the
    mismatches."""
    checked = failed = public = 0
    bad = []
    for x in xs:
        if not x.is_pure():
            continue
        for sigma in x.all_faces(include_empty=False):
            dele = oracle_shedding_deletion(x, sigma)
            if dele is None:
                continue
            for p in (None, 2, 3):
                field = "Q" if p is None else p
                want = exact_shedding_leray_holds(x, sigma, dele, p)
                if reports._shedding_leray_holds(
                        x, sigma, dele, p, {},
                        leray_number(x, field)) != want:
                    bad.append((x, sigma, p))
                checked += 1
                failed += not want
                if is_cohen_macaulay(dele, field):
                    public += 1
                    if shedding_leray_inequality_check(
                            x, sigma, field) != want:
                        bad.append((x, sigma, field))
    return checked, failed, public, bad


def test_shedding_leray_check_answers_as_the_exact_formula():
    """`shedding_differential` on every pure complex on <= 4 vertices and
    100 random-kvd draws; the CI step `probes 5 2000` runs it on <= 5
    vertices and 2,000 draws.  Some inequalities fail; the paper proves
    that none fails where the deletion is Cohen-Macaulay."""
    xs = all_complexes(4) + [
        generate(GeneratorSpec(kind="random-kvd", seed=seed,
                               n=6 + seed % 3, m=7)) for seed in range(100)]
    checked, failed, public, bad = shedding_differential(xs)
    assert bad == []
    assert 0 < failed < checked and public


def face_object_link_del_commute(x, rng, budget):
    """`reports._thm_link_del_commute` as it was before it listed faces as
    plain masks, kept as its oracle: `Face` objects, each link taken on
    first use, one `_chk` per check.  It reads the kernels through
    `reports`, so a kernel patched there reaches the probe and the oracle
    alike."""
    facets = x.facets
    faces = sorted(x.all_faces())
    links = {}
    for sigma in faces:
        if sigma == 0:
            continue
        dele = reports._deletion(facets, sigma)
        for tau in faces:
            if sigma & tau:
                continue
            # a nonempty face disjoint from sigma lies in del(sigma)
            reports._chk(not tau or any(not tau & ~f for f in dele), x,
                         lambda: f"{tau!r} is not in del {sigma!r}")
            lk = links.get(tau)
            if lk is None:
                lk = links[tau] = reports._link(facets, tau)
            reports._chk(
                reports._link(dele, tau) == reports._deletion(lk, sigma), x,
                lambda: f"link/deletion commutativity fails for "
                        f"{sigma!r},{tau!r}")
    return "pass"


def probe_outcome(run, x):
    """What a theorem probe makes of x: "pass", "skip", or its
    counterexample as (instance, detail)."""
    try:
        return run(x, None, Budget())
    except reports.Counterexample as cx:
        return cx.instance, cx.detail


def _overstated_edge_links(x):
    """A `reports._leray` that reads one more Leray number on every
    complex of dimension dim(x) - 2, the links of the edges of a pure x,
    so the inequality fails at some edges and holds at the vertices
    before them."""
    real = reports._leray

    def overstated(y, p, cache, cap, best=0):
        if y.dim != x.dim - 2:
            return real(y, p, cache, cap, best)
        return min(cap, max(best, real(y, p, cache, cap) + 1))
    return overstated


def _drop_last_of(kernel):
    """`kernel` with the last facet of its answer dropped when it has
    three or more."""
    def dropped(facets, s):
        out = kernel(facets, s)
        return out[:-1] if len(out) > 2 else out
    return dropped


def probe_differential(xs):
    """Each probe against its oracle on each complex: `_thm_shed_leray` on
    the pure ones, also under `_overstated_edge_links`, and
    `_thm_link_del_commute` on all, also under a `_link` and a
    `_deletion` that drop a facet (`_drop_last_of`).  Returns the
    outcomes, counted by (check, "pass", "skip" or "fail"), and the
    mismatches."""
    checks = [("shed-leray", None, None),
              ("shed-leray", "_leray", _overstated_edge_links),
              ("link-del-commute", None, None),
              ("link-del-commute", "_link",
               lambda x: _drop_last_of(reports._link)),
              ("link-del-commute", "_deletion",
               lambda x: _drop_last_of(reports._deletion))]
    pairs = {"shed-leray": (reports._thm_shed_leray,
                            hypothesis_first_shed_leray),
             "link-del-commute": (reports._thm_link_del_commute,
                                  face_object_link_del_commute)}
    counts = collections.Counter()
    bad = []
    for x in xs:
        for theorem, name, mutant in checks:
            if theorem == "shed-leray" and not x.is_pure():
                continue
            probe, oracle = pairs[theorem]
            with (unittest.mock.patch.object(reports, name, mutant(x))
                  if name else contextlib.nullcontext()):
                got = probe_outcome(probe, x)
                want = probe_outcome(oracle, x)
            label = (theorem, name)
            counts[label, got if isinstance(got, str) else "fail"] += 1
            if got != want:
                bad.append((label, x, got, want))
    return counts, bad


def probe_inputs(n, count):
    """Every complex on <= n vertices, then for seeds 0..count-1 a
    random-kvd draw on 6-8 vertices and a random-complex draw on 6."""
    xs = all_complexes(n)
    for seed in range(count):
        xs.append(generate(GeneratorSpec(kind="random-kvd", seed=seed,
                                         n=6 + seed % 3, m=7)))
        xs.append(generate(GeneratorSpec(kind="random-complex", seed=seed,
                                         n=6, m=7)))
    return xs


def test_theorem_probes_answer_as_their_oracles():
    """`shed-leray` and `link-del-commute` give their oracles' outcomes
    and counterexample details on every complex on <= 4 vertices and 100
    seeded draws of each kind, also under mutants that make them fail;
    the CI step `probes 5 2000` runs the same on <= 5 vertices and 2,000
    draws.  Unmutated, some faces after the first to count fail the
    inequality where their deletion is not Cohen-Macaulay (85 faces on
    these inputs), so a probe that dropped that test would fail; the shedding mutant fails at
    edges after a vertex has counted, where the probe ranks a face before
    its Cohen-Macaulay test."""
    counts, bad = probe_differential(probe_inputs(4, 100))
    assert bad == []
    for theorem, name in [("shed-leray", None), ("link-del-commute", None)]:
        assert counts[(theorem, name), "pass"] > 0, theorem
        assert counts[(theorem, name), "fail"] == 0, theorem
    assert counts[("shed-leray", None), "skip"] > 0
    for label in [("shed-leray", "_leray"),
                  ("link-del-commute", "_link"),
                  ("link-del-commute", "_deletion")]:
        assert counts[label, "fail"] > 0, label


def test_a_kvd_report_lists_the_links_once(monkeypatch):
    # kvd0-kvd2 and the Cohen-Macaulay test read one link cache, so the
    # pre-test of each kvd question lists X once between them, on RP2 (not
    # Cohen-Macaulay over GF(2), so every kvd answer is that refutation)
    # and on v6f10-6 (Cohen-Macaulay, so the searches run)
    listed = []
    real = homology._closed_links

    def counted(y):
        listed.append(y)
        return real(y)

    monkeypatch.setattr(homology, "_closed_links", counted)
    which = ["kvd0", "kvd1", "kvd2", "cohen_macaulay"]
    for x, cm in ((RP2, False), (V6F10_6, True)):
        listed.clear()
        values = reports.compute(x, which, field=2)["values"]
        assert values["cohen_macaulay"] is cm
        assert cm or not any(values[k] for k in which[:3])
        assert listed == [x]


def test_cone_over_three_cycle():
    cone = join(simplex_on((0,)), THREE_CYCLE)
    # the cone itself is contractible, but the cycle survives as an induced
    # subcomplex, so the Leray number stays at 2
    assert reduced_betti(cone).top_nonzero_degree() == -1
    assert leray_number(cone) == 2
    assert is_cohen_macaulay(cone)


# -- one homology pass per report ------------------------------------------

#: Report orders that put the Leray number and the Betti numbers before,
#: after and without C, whose floor L(X; GF(2)) caps the Leray scan, and
#: one where M_0, which the floor also bounds, takes it first.
REPORT_ORDERS = (["leray", "C", "betti"], ["C", "betti", "leray"],
                 ["leray"], ["betti"], ["M0", "leray", "C", "betti"])


def report_differential(n, shift=0):
    """Every complex on <= n vertices, its labels raised by `shift`, over
    Q, GF(2) and GF(3): in each report order, `leray` is the standalone
    `leray_number`, `betti` the standalone `reduced_betti`, `M0` the
    standalone `mk(x, 0)`, and C's value and certificate are those of C
    asked alone, whichever of them reads C's floor first.  A shift past 15
    puts every face past the byte tables of `complexes.bits_of`, so the
    rank kernels read the plain bit walk.  Returns (reports, mismatches)."""
    count = 0
    mismatches = []
    for x in all_complexes(n):
        x = shifted(x, shift)
        m0 = mk(x, 0)
        for field in ("Q", 2, 3):
            b = reduced_betti(x, field)
            want = {"leray": leray_number(x, field),
                    "betti": {"field": b.coefficient_field,
                              "rank_neg1": b.rank_neg1,
                              "ranks": list(b.ranks)}}
            alone = reports.compute(x, ["C"], field=field)
            want["C"] = alone["values"]["C"]
            want["M0"] = m0
            for which in REPORT_ORDERS:
                report = reports.compute(x, which, field=field)
                count += 1
                got = report["values"]
                if (got != {k: want[k] for k in which}
                        or report["witnesses"] != {
                            k: v for k, v in alone["witnesses"].items()
                            if "C" in which}):
                    mismatches.append((x, field, which))
    return count, mismatches


def test_reports_read_leray_and_betti_as_the_standalone_calls():
    count, mismatches = report_differential(4)
    assert mismatches == []
    assert count == len(all_complexes(4)) * 3 * len(REPORT_ORDERS)


def test_report_leray_over_q_sees_rp2_below_its_gf2_floor():
    # C's floor is L(RP2; GF(2)) = 3; the rational scan capped there still
    # finds L(RP2; Q) = 2, from the hexagon vertex links, and GF(3) sees
    # what Q sees
    for which in (["C", "leray"], ["leray", "C"]):
        for field, leray in (("Q", 2), (2, 3), (3, 2)):
            values = reports.compute(RP2, which, field=field)["values"]
            assert values == {"C": 3, "leray": leray}, (which, field)


def test_cones_have_zero_betti_vectors_with_no_rank(monkeypatch):
    def no_rank(*args):
        raise AssertionError("a cone was ranked")

    monkeypatch.setattr(homology, "_rank_gf2", no_rank)
    monkeypatch.setattr(homology, "_rank_signed", no_rank)
    apex = simplex_on((0,))
    for x in (join(apex, THREE_CYCLE), join(apex, RP2), simplex_on((1, 2)),
              join(apex, boundary(range(1, 19)))):
        for field in ("Q", 2, 3):
            b = reduced_betti(x, field, {})
            assert (b.rank_neg1, b.ranks) == (0, (0,) * (x.dim + 1)), x
    report = reports.compute(join(apex, RP2), ["betti"], field=2)
    assert report["values"]["betti"]["ranks"] == [0, 0, 0, 0]


def test_an_edge_matrix_is_ranked_once_for_every_field(monkeypatch):
    """A graph's incidence matrix has the same rank over every field, kept
    under GF(2): a 5-cycle's Betti numbers over GF(2), Q and GF(3) take
    one rank of its edges and no signed rank."""
    ranked = []

    def count(lower, upper):
        ranked.append(upper)
        return _rank_gf2(lower, upper)

    def no_rank(*args):
        raise AssertionError("an edge matrix was ranked with signs")

    monkeypatch.setattr(homology, "_rank_gf2", count)
    monkeypatch.setattr(homology, "_rank_signed", no_rank)
    cycle = SimplicialComplex([(i, i % 5 + 1) for i in range(1, 6)])
    chains = homology._Chains(cycle.facets)
    assert [chains.betti(t, q) for q in (2, None, 3) for t in (0, 1)] == [
        0, 1] * 3
    assert len(ranked) == 1


def test_a_betti_first_report_builds_each_chain_complex_once(monkeypatch):
    # the Betti numbers, asked first, take C's floor: the greedy d = 1
    # walk fails, and the GF(2) scan floored at 2 ranks the apex link
    # alone, x itself; the Betti numbers are then counted off that floor
    # (components and the Euler characteristic), and the Leray number is
    # the floor, so no other chain complex is built
    built = []

    class Counted(homology._Chains):
        __slots__ = ()

        def __init__(self, facets):
            built.append(facets)
            super().__init__(facets)

    want = list(reduced_betti(V6F10_6).ranks)
    monkeypatch.setattr(homology, "_Chains", Counted)
    report = reports.compute(V6F10_6, ["betti", "leray", "C"])
    assert report["values"]["leray"] == report["values"]["C"] == 2
    assert report["values"]["betti"]["ranks"] == want
    assert len(built) == len(set(built)) == 1


CHAIN = ["leray", "C", "M0", "M1", "M2", "d_mes", "betti"]


def test_a_chain_report_under_a_low_floor_lists_no_link_and_ranks_nothing(
        monkeypatch):
    """Wegner's d = 1 theorem in the report: where the greedy d = 1 walk
    empties X, or C's first claim u_1 is at most 2, C's floor needs no
    scan, and the Leray number and the Betti numbers over Q and GF(2) are
    read off it with no rank (the three-cycle: the walk gets stuck, so
    the floor 2 meets u_1 = 2 and b~_1 = b~_0 - chi~ = 0 - (-1) = 1).  The
    report equals the one taken with listing and ranking allowed."""
    cases = [THREE_CYCLE, SimplicialComplex([(1, 2), (2, 3), (3, 4)]),
             SimplicialComplex([(1,), (2,)]), SimplicialComplex([(1, 2, 3)]),
             SimplicialComplex([(1, 2, 3), (2, 3, 4), (4, 5)]),
             SimplicialComplex()]
    fields = ("Q", 2)
    want = [reports.report_json(reports.compute(x, CHAIN, field=field))
            for x in cases for field in fields]

    def refused(*args):
        raise AssertionError("a link was listed or a matrix ranked")

    for name in ("_closed_links", "_rank_gf2", "_rank_signed"):
        monkeypatch.setattr(homology, name, refused)
    assert [reports.report_json(reports.compute(x, CHAIN, field=field))
            for x in cases for field in fields] == want
    values = reports.compute(THREE_CYCLE, CHAIN)["values"]
    assert (values["C"], values["leray"], values["betti"]["ranks"]) == (
        2, 2, [0, 1])


def test_a_floor_that_leaves_the_betti_numbers_open_takes_the_ranked_route(
        monkeypatch):
    """RP2's floor L(RP2; GF(2)) = 3 bounds no degree the count reads, so
    its Betti numbers over Q and GF(2) are ranked, and so are those of the
    three-cycle and the mod-3 Moore space over GF(3), where a GF(2) floor
    says nothing above degree 1: the Moore space's floor is 2, while its
    GF(3) Leray number is 3.  Each value still equals the standalone
    call's."""
    moore = mod3_moore_space()
    cases = ((RP2, "Q"), (RP2, 2), (THREE_CYCLE, 3), (moore, 3))
    want = [(leray_number(x, field), list(reduced_betti(x, field).ranks))
            for x, field in cases]
    assert want[-1][0] == 3
    ranked = []

    def counted(rank):
        return lambda *args: ranked.append(args) or rank(*args)

    for name in ("_rank_gf2", "_rank_signed"):
        monkeypatch.setattr(homology, name,
                            counted(getattr(homology, name)))
    for (x, field), expected in zip(cases, want):
        ranked.clear()
        values = reports.compute(x, ["C", "leray", "betti"],
                                 field=field)["values"]
        assert (values["leray"], values["betti"]["ranks"]) == expected, (
            x, field)
        assert ranked, (x, field)


def test_leray_alone_builds_no_ceiling(monkeypatch):
    # the GF(2) floor is read from a complex report only when the report
    # asks C, which builds the ceiling anyway (a hypergraph report caps
    # its scan at the nc order's claim: see tests/test_hypergraphs.py)
    def no_ceiling(x, ordering):
        raise AssertionError("the ceiling was built")

    monkeypatch.setattr(reports, "_mes_certificate", no_ceiling)
    assert reports.compute(V6F10_6, ["leray", "betti"])["values"][
        "leray"] == 2


def test_a_report_ranks_few_gf2_columns_for_c_and_leray(monkeypatch):
    # L(X; GF(2)) is taken once, and the rational scan stops at the first
    # link that reaches it: 2,688 GF(2) columns here, against 11,779 when
    # the rational scan walked every closed-face link
    columns = []
    rank_gf2 = homology._rank_gf2

    def counted(lower, upper):
        columns.extend(upper)
        return rank_gf2(lower, upper)

    monkeypatch.setattr(homology, "_rank_gf2", counted)
    report = reports.compute(star_family(4, (2,) * 4), ["nc_C", "nc_leray"])
    assert report["values"] == {"nc_C": 5, "nc_leray": 5}
    assert len(columns) <= 2688


if __name__ == "__main__":
    # python tests/test_homology.py [n [shift]]
    # python tests/test_homology.py nerve count [seed]
    # python tests/test_homology.py induced n [shift]
    # python tests/test_homology.py closure n [shift]
    # python tests/test_homology.py probes n count
    if sys.argv[1:2] == ["nerve"]:
        count = int(sys.argv[2]) if len(sys.argv) > 2 else 100
        seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
        rng = random.Random(seed)
        xs = []
        for _ in range(count):
            # 5 to 14 facets of 2 to n - 1 vertices: closed links of five
            # or more facets, spheres among them, are common
            n = rng.randint(6, 9)
            xs.append(SimplicialComplex(
                rng.sample(range(1, n + 1), rng.randint(2, n - 1))
                for _ in range(rng.randint(5, 14))))
        kinds, mismatches = nerve_differential(xs)
        print(f"{len(xs)} random complexes on 6-9 vertices, seed {seed}: "
              + ", ".join(f"{v} links {'' if sphere else 'not '}spheres "
                          f"with {'>= 5' if big else '<= 4'} facets"
                          for (sphere, big), v in sorted(kinds.items()))
              + f"; {len(mismatches)} mismatches")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches or len(kinds) < 4 else 0)
    if sys.argv[1:2] == ["induced"]:
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
        shift = int(sys.argv[3]) if len(sys.argv) > 3 else 0
        count, mismatches = induced_differential(n, shift)
        print(f"{len(all_complexes(n))} complexes on <= {n} vertices, labels "
              f"raised by {shift}: {count} induced-oracle cases against the "
              f"object route, {len(mismatches)} mismatches")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches else 0)
    if sys.argv[1:2] == ["probes"]:
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
        count = int(sys.argv[3]) if len(sys.argv) > 3 else 2000
        xs = probe_inputs(n, count)
        counts, mismatches = probe_differential(xs)
        checked, failed, public, wrong = shedding_differential(xs)
        mismatches += wrong
        print(f"{len(all_complexes(n))} complexes on <= {n} vertices and "
              f"{count} random-kvd and random-complex draws each: "
              + ", ".join(f"{theorem}{f' ({name} mutant)' if name else ''} "
                          f"{outcome} {v}"
                          for ((theorem, name), outcome), v
                          in sorted(counts.items(), key=str))
              + f"; {checked} shedding Leray checks against the exact "
              f"formula ({failed} false, {public} through the public "
              f"check); {len(mismatches)} mismatches against the oracles")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches else 0)
    if sys.argv[1:2] == ["closure"]:
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
        shift = int(sys.argv[3]) if len(sys.argv) > 3 else 0
        xs = closure_inputs(n, shift)
        mismatches = closure_differential(xs)
        print(f"{len(xs)} complexes ({len(all_complexes(n))} on <= {n} "
              f"vertices, labels raised by {shift}; 2,000 random on 6-10 "
              f"vertices; K_m, m <= 46; NC(star_family(m, (2,) * m)), "
              f"m = 4, 5, 6): closed links against the through-set "
              f"listing, {len(mismatches)} mismatches")
        for bad in mismatches:
            print(bad)
        sys.exit(1 if mismatches else 0)
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    shift = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    count, mismatches = report_differential(n, shift)
    print(f"{len(all_complexes(n))} complexes on <= {n} vertices, labels "
          f"raised by {shift}: {count} reports, {len(mismatches)} mismatches")
    for bad in mismatches:
        print(bad)
    sys.exit(1 if mismatches else 0)
