"""Structural operations on faces and complexes: golden cases plus
property-based checks against small brute-force oracles."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsekit import (
    Face,
    FreePair,
    Hypergraph,
    NotAFaceError,
    NotFreeError,
    SimplicialComplex,
    VertexRangeError,
    as_face,
    boundary,
    join,
    simplex_on,
)
from collapsekit.complexes import (MAX_VERTEX, _bit_walk, _deletion,
                                  _free_faces_by_size, _is_free, _link,
                                  _open_faces, bits_of, faces_of, mask_of,
                                  subsets, vertices_of)
from collapsekit import invariants
from collapsekit.homology import _Chains
from collapsekit.invariants import _collapse_moves

from conftest import all_complexes, open_faces_oracle, shifted

V6F10_6 = SimplicialComplex(
    [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6),
     (2, 4, 5), (2, 5, 6), (3, 4, 6), (3, 5, 6), (4, 5, 6)]
)


# -- strategies ------------------------------------------------------------

vertex = st.integers(min_value=0, max_value=8)
raw_facet = st.lists(vertex, min_size=1, max_size=4)
raw_facets = st.lists(raw_facet, min_size=0, max_size=8)
complexes = raw_facets.map(SimplicialComplex)
nonempty_complexes = complexes.filter(lambda x: not x.is_empty)


def brute_faces(x):
    """All nonempty faces by direct subset enumeration."""
    out = set()
    for f in x.facets:
        vs = f.vertices
        for r in range(1, len(vs) + 1):
            out.update(frozenset(c) for c in itertools.combinations(vs, r))
    return out


# -- Face ------------------------------------------------------------------

def test_face_construction_and_accessors():
    f = Face.of([3, 1, 2])
    assert f.vertices == (1, 2, 3)
    assert f.dim == 2
    assert int(f) == 0b1110
    assert repr(f) == "Face{1,2,3}"
    assert Face.of([]).dim == -1


def test_vertices_of_matches_the_bit_position_scan():
    """Both walks, on every mask up to one bit past the byte tables (2^16)
    and on wide masks, agree with a scan of the bit positions and with the
    plain walk behind the tables."""
    def scan(mask):
        return tuple(v for v in range(mask.bit_length()) if (mask >> v) & 1)

    top = 1 << MAX_VERTEX
    wide = [top, top | 1, top | 0b1011_0110, (top << 1) - 1, top | (top >> 1)]
    for mask in [*range(1 << 17), *wide]:
        want = scan(mask)
        assert vertices_of(mask) == _bit_walk(mask) == want, mask
        assert bits_of(mask) == tuple(1 << v for v in want), mask
    assert vertices_of(top) == (127,)
    assert bits_of(top) == (top,)


@pytest.mark.parametrize("walk", [vertices_of, bits_of, _bit_walk])
@pytest.mark.parametrize("mask", [-1, -2, -(1 << 8), -(1 << 16), -(1 << 40)])
def test_bit_walks_reject_a_negative_mask(walk, mask):
    # the low-bit walk never ends on a negative mask, and a table lookup
    # would read a wrong row through a negative index
    with pytest.raises(ValueError, match="negative mask"):
        walk(mask)


def test_face_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        Face.of([-1])
    with pytest.raises(VertexRangeError):
        Face.of([128])
    with pytest.raises(VertexRangeError):
        Face(-1)


def test_a_label_or_mask_that_is_no_int_is_refused_by_name():
    """A bool is no label and no mask, as the loader (`io._is_label`)
    has it, and a float, str or None label is named, not met in a shift
    or a comparison."""
    for label in (True, False, 1.0, "1", None):
        for build in (mask_of, Face.of, as_face,
                      lambda labels: SimplicialComplex([labels]),
                      lambda labels: Hypergraph(3, [labels])):
            with pytest.raises(TypeError,
                               match=f"vertex label {label!r} is a "):
                build([label, 2])
    for mask in (True, False):
        with pytest.raises(TypeError, match=f"face mask {mask!r} is a bool"):
            SimplicialComplex([mask, (2,)])
        with pytest.raises(TypeError, match=f"face mask {mask!r} is a bool"):
            as_face(mask)


def test_a_face_that_is_no_mask_and_no_iterable_is_refused_by_name():
    """A float or None face is neither an int mask nor an iterable of
    labels: the error names it, not Python's "is not iterable"."""
    for face in (2.5, None):
        want = f"face {face!r} is a {type(face).__name__}, neither an int"
        for build in (mask_of, Face.of, as_face,
                      lambda face: SimplicialComplex([face]),
                      lambda face: SimplicialComplex([(1, 2), face])):
            with pytest.raises(TypeError, match=re.escape(want)):
                build(face)


def test_as_face_accepts_masks_and_iterables():
    assert as_face(0b101) == Face.of([0, 2])
    assert as_face((4, 5)) == Face.of([4, 5])
    f = Face.of([1])
    assert as_face(f) is f


def test_face_subset():
    assert Face.of([1, 2]).issubset(Face.of([1, 2, 3]))
    assert not Face.of([1, 4]).issubset(Face.of([1, 2, 3]))


# -- canonicalization ------------------------------------------------------

def test_constructor_drops_duplicates_and_non_maximal():
    x = SimplicialComplex([(1, 2), (1,), (1, 2), (2, 3)])
    assert [f.vertices for f in x.facets] == [(1, 2), (2, 3)]


def test_empty_face_complex_is_identified_with_empty():
    assert SimplicialComplex([()]).is_empty
    assert SimplicialComplex([()]) == SimplicialComplex()


def test_complex_is_immutable_and_hashable():
    x = SimplicialComplex([(1, 2)])
    with pytest.raises(AttributeError):
        x.facets = ()
    assert hash(x) == hash(SimplicialComplex([(1, 2)]))


@given(raw_facets)
def test_facets_form_a_sorted_antichain(raw):
    x = SimplicialComplex(raw)
    masks = [int(f) for f in x.facets]
    assert masks == sorted(masks)
    for a, b in itertools.permutations(masks, 2):
        assert a & ~b != 0  # no facet inside another


@given(raw_facets)
def test_rebuilding_from_all_faces_is_identity(raw):
    x = SimplicialComplex(raw)
    assert SimplicialComplex(x.all_faces(include_empty=False)) == x


@given(raw_facets)
def test_membership_matches_brute_force(raw):
    x = SimplicialComplex(raw)
    expected = brute_faces(x)
    universe = list(range(0, 9))
    for r in range(1, 4):
        for comb in itertools.combinations(universe, r):
            assert (comb in x) == (frozenset(comb) in expected)


# -- enumeration -----------------------------------------------------------

def test_faces_by_dimension():
    x = SimplicialComplex([(1, 2, 3), (3, 4)])
    assert x.faces(-1) == {Face(0)}
    assert x.faces(0) == {Face.of([v]) for v in (1, 2, 3, 4)}
    assert x.faces(2) == {Face.of([1, 2, 3])}
    assert x.faces(3) == set()
    assert SimplicialComplex().faces(-1) == set()


def test_face_listers_match_brute_force_on_every_small_complex():
    for x in all_complexes(5):
        brute = {mask_of(f) for f in brute_faces(x)}
        closed = brute | {0} if x.facets else brute
        by_size = {}
        for m in closed:
            by_size.setdefault(m.bit_count(), set()).add(m)
        chains = _Chains(x.facets)
        for k in range(-1, x.dim + 2):
            expected = by_size.get(k + 1, set())
            assert x.faces(k) == expected, (x, k)
            assert chains.faces(k) == sorted(expected), (x, k)
        listed = list(x.all_faces())
        assert len(listed) == len(set(listed)) and set(listed) == closed
        assert (listed[:1] == [0]) == bool(x.facets), x
        assert set(x.all_faces(include_empty=False)) == brute
        for n in range(x.dim + 1):
            assert x.skeleton(n) == SimplicialComplex(
                m for m in brute if m.bit_count() <= n + 1), (x, n)
            assert x.pure_skeleton(n) == SimplicialComplex(by_size[n + 1])


@given(raw_facets)
def test_num_faces_matches_brute_force(raw):
    x = SimplicialComplex(raw)
    assert x.num_faces() == len(brute_faces(x))


def test_dim_and_purity():
    assert SimplicialComplex().dim == -1
    assert SimplicialComplex().is_pure() is True
    assert SimplicialComplex([(1, 2, 3), (3, 4)]).dim == 2
    assert not SimplicialComplex([(1, 2, 3), (3, 4)]).is_pure()
    assert V6F10_6.is_pure()


# -- link / deletion / induced --------------------------------------------

def test_link_golden_case():
    # lk({1,5}) in the 6-vertex 10-facet example is the single point {2}
    assert V6F10_6.link((1, 5)) == SimplicialComplex([(2,)])


def test_deletion_golden_case():
    expected = SimplicialComplex(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 6),
         (2, 4, 5), (2, 5, 6), (3, 4, 6), (3, 5, 6), (4, 5, 6)]
    )
    assert V6F10_6.deletion((1, 5)) == expected


def test_link_of_empty_face_is_the_complex():
    assert V6F10_6.link(()) == V6F10_6


def test_link_of_non_face_raises():
    with pytest.raises(NotAFaceError):
        V6F10_6.link((1, 2, 6))


def test_deletion_of_empty_face_rejected():
    with pytest.raises(ValueError):
        V6F10_6.deletion(())


@given(nonempty_complexes)
def test_vertex_deletion_is_induced_complement(x):
    for v in x.vertices:
        rest = [w for w in x.vertices if w != v]
        assert x.deletion((v,)) == x.induced(Face.of(rest))


@given(nonempty_complexes, st.data())
def test_link_composes_over_disjoint_faces(x, data):
    faces = sorted(x.all_faces(include_empty=False))
    sigma = data.draw(st.sampled_from(faces))
    lk = x.link(sigma)
    if lk.is_empty:
        return
    taus = sorted(lk.all_faces(include_empty=False))
    tau = data.draw(st.sampled_from(taus))
    assert x.link(Face(sigma | tau)) == lk.link(tau)


@given(nonempty_complexes, st.data())
def test_link_faces_match_definition(x, data):
    sigma = data.draw(st.sampled_from(sorted(x.all_faces(include_empty=False))))
    lk = x.link(sigma)
    for tau in lk.all_faces(include_empty=False):
        assert int(sigma) & int(tau) == 0
        assert Face(sigma | tau) in x


def test_induced_keeps_only_inside_faces():
    x = SimplicialComplex([(1, 2, 3), (3, 4)])
    assert x.induced(Face.of([1, 2, 4])) == SimplicialComplex([(1, 2), (4,)])
    # labels outside the vertex set are harmless
    assert x.induced(Face.of([1, 2, 7])) == SimplicialComplex([(1, 2)])


# -- open faces ------------------------------------------------------------

def test_open_faces_of_a_simplex_are_empty():
    assert simplex_on((1, 2, 3)).open_faces(0) == set()
    assert simplex_on((1, 2, 3)).open_faces(1) == set()


def test_open_vertices_of_three_cycle():
    cyc = SimplicialComplex([(1, 2), (2, 3), (1, 3)])
    assert cyc.open_faces(0) == {Face.of([v]) for v in (1, 2, 3)}


def open_faces_by_unions(x, k):
    """The f_k x m x m scan `open_faces` made before the apex rule: sigma is
    open when some facet F has F | sigma in no facet."""
    facets = x.facets
    return {Face(s) for s in faces_of(facets, (k + 1,))
            if any(all((f | s) & ~g for g in facets) for f in facets)}


@given(nonempty_complexes, st.integers(min_value=0, max_value=2))
def test_open_faces_match_link_vs_induced(x, k):
    assert x.open_faces(k) == open_faces_oracle(x, k)


def test_open_faces_match_link_vs_induced_on_every_small_complex():
    pairs = 0
    for x in all_complexes(5):
        for k in range(x.dim + 1):
            want = open_faces_oracle(x, k)
            assert x.open_faces(k) == want, (x, k)
            assert open_faces_by_unions(x, k) == want, (x, k)
            pairs += 1
    assert pairs == 21_945


def _closure(facets):
    """Every face of the complex with these facets, the empty face
    included, as a set of masks; {empty face} reads as the empty complex."""
    faces = faces_of(facets, range(8))
    return set() if faces == {0} else faces


def test_mask_helpers_match_the_face_set_definitions_on_every_small_complex():
    """On every complex on <= 5 vertices and every nonempty face sigma:
    `_link` and `_deletion` give a canonical facet tuple (an increasing
    antichain, never (0,)) whose faces are {tau : tau & sigma = 0,
    tau | sigma in X} and {tau in X : sigma not in tau}, and `_open_faces`
    gives, in increasing order, the faces whose link is not the induced
    complex on the other vertices, read from face sets alone."""
    faces_seen = 0
    for x in all_complexes(5):
        faces = _closure(x.facets)
        by_size: dict[int, list[int]] = {}
        for sigma in sorted(faces - {0}):
            lk = {t for t in faces if not t & sigma and t | sigma in faces}
            rest = x.vertex_mask & ~sigma
            induced = {t for t in faces if not t & ~rest}
            if lk != induced:
                by_size.setdefault(sigma.bit_count(), []).append(sigma)
            dl = {t for t in faces if sigma & ~t}
            for got, want in ((_link(x.facets, sigma), lk),
                              (_deletion(x.facets, sigma), dl)):
                assert got == tuple(SimplicialComplex(got).facets), (x, sigma)
                assert _closure(got) == (set() if want == {0} else want), (
                    x, sigma)
            faces_seen += 1
        for k in range(x.dim + 1):
            assert _open_faces(x.facets, k) == by_size.get(k + 1, []), (x, k)
    assert faces_seen == 113_716



def two_pass_deletion(facets, sigma):
    """del(sigma) read with one pass for the kept facets and a second over
    every facet for the F - v no kept facet holds: `_deletion` before it
    split the facets in one pass."""
    kept = [f for f in facets if sigma & ~f]
    new = [f ^ low for f in facets if sigma & ~f == 0 for low in bits_of(sigma)
           if f ^ low and all((f ^ low) & ~g for g in kept)]
    return tuple(sorted(kept + new))


def generator_link(facets, sigma):
    """lk(sigma)'s facets built from a generator, as `_link` was."""
    lk = tuple(f ^ sigma for f in facets if sigma & ~f == 0)
    return () if lk == (0,) else lk


def subsets_faces_of(facets, sizes):
    """`faces_of` read through one `subsets` generator per facet."""
    out = set()
    for f in facets:
        out.update(subsets(f, sizes))
    return out


def test_mask_kernels_match_their_plain_definitions_on_every_small_complex():
    """On every complex on <= 5 vertices: `_deletion` and `_link` give the
    same tuples as the two-pass deletion and the generator link for every
    nonempty face, and `faces_of` the same set as `subsets` per facet for
    every size set read by the package (one size, a range, none)."""
    pairs = 0
    for x in all_complexes(5):
        facets = x.facets
        for sigma in faces_of(facets, range(1, 6)):
            assert _deletion(facets, sigma) == two_pass_deletion(
                facets, sigma), (x, sigma)
            assert _link(facets, sigma) == generator_link(facets, sigma), (
                x, sigma)
            pairs += 1
        for sizes in [(), (0,), (1,), (2,), (3,), range(1, 6), range(8),
                      (3, 1)]:
            assert faces_of(facets, sizes) == subsets_faces_of(
                facets, sizes), (x, sizes)
    assert pairs == 113_716

# -- free pairs and collapse ----------------------------------------------

def test_free_pairs_of_a_simplex_include_empty_face():
    x = simplex_on((1, 2))
    pairs = x.free_pairs(2)
    assert FreePair(Face(0), Face.of([1, 2])) in pairs


def free_pairs_oracle(x):
    """Every face checked against every facet, in the order free_pairs
    promises: size, then vertex tuple."""
    pairs = [FreePair(Face(0), x.facets[0])] if x.is_simplex else []
    faces = sorted(x.all_faces(include_empty=False),
                   key=lambda f: (f.bit_count(), f.vertices))
    for gamma in faces:
        holders = [f for f in x.facets if gamma.issubset(f)]
        if len(holders) == 1:
            pairs.append(FreePair(gamma, holders[0]))
    return pairs


def test_free_pairs_match_the_holder_scan_on_every_small_complex():
    for x in all_complexes(5):
        every = free_pairs_oracle(x)
        for d in range(6):
            want = [p for p in every if p.free_face.bit_count() <= d]
            assert x.free_pairs(d) == want, (x, d)


def test_free_faces_by_size_match_the_oracle_size_by_size():
    """Size 0 included: the empty face is free exactly on a simplex."""
    for x in all_complexes(5):
        every = free_pairs_oracle(x)
        sizes = _free_faces_by_size(x.facets, range(6))
        for r, free in enumerate(sizes):
            want = {p.free_face: p.facet for p in every
                    if p.free_face.bit_count() == r}
            assert free == want, (x, r)


def test_free_faces_by_size_list_each_facet_once_per_bits_dict(
        monkeypatch):
    """A bits dict handed from call to call lists a facet's vertex bits
    once: after a collapse only the new facets are listed, and the free
    faces are those of a fresh scan."""
    from collapsekit import complexes
    x = SimplicialComplex([(1, 2, 3), (3, 4), (2, 4, 5)])
    bits = {}
    want = [dict(m) for m in _free_faces_by_size(x.facets, range(4))]
    assert [dict(m) for m in _free_faces_by_size(x.facets, range(4), bits)
            ] == want
    assert set(bits) == set(x.facets)
    after = _deletion(x.facets, 0b10)  # collapsing (1, 123) leaves 23
    new = set(after) - set(bits)
    assert new == {0b1100}
    listed = []
    real = complexes.bits_of

    def counted(mask):
        listed.append(mask)
        return real(mask)

    monkeypatch.setattr(complexes, "bits_of", counted)
    got = [dict(m) for m in _free_faces_by_size(after, range(4), bits)]
    assert sorted(listed) == sorted(new)
    monkeypatch.undo()
    assert got == [dict(m) for m in _free_faces_by_size(after, range(4))]


def test_collapse_moves_keep_the_first_pair_below_d():
    """The search's moves are the mask pairs of `free_pairs(d)`, cut to its
    first pair when that pair's free face is smaller than d."""
    for x in all_complexes(5):
        for d in range(6):
            want = x.free_pairs(d)
            if want and want[0].free_face.bit_count() < d:
                want = want[:1]
            want = [(int(g), int(s)) for g, s in want]
            assert list(_collapse_moves(x.facets, d)) == want, (x, d)


def sorted_collapse_moves(facets, d):
    """The search's moves as they were listed before they came lazily:
    every free face of size d sorted by its vertex tuple up front."""
    for r, free in enumerate(_free_faces_by_size(facets, range(d + 1))):
        if not free:
            continue
        if r == d:
            return [(m, free[m]) for m in sorted(free, key=vertices_of)]
        least = min(free, key=vertices_of)
        return [(least, free[least])]
    return []


def test_lazy_collapse_moves_match_the_sorted_list(monkeypatch):
    """The moves come in the sorted list's order on every complex on <= 5
    vertices for d <= 3, also with every label raised by 100 (past the
    `vertices_of` tables), and the first comes before any sort: the search
    usually takes it."""
    for x in all_complexes(5):
        for y in (x, shifted(x, 100)):
            for d in range(4):
                assert (list(_collapse_moves(y.facets, d))
                        == sorted_collapse_moves(y.facets, d)), (y, d)
    k5 = SimplicialComplex(itertools.combinations(range(5), 2))
    want = sorted_collapse_moves(k5.facets, 2)
    assert len(want) == 10

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted before the first move was taken")

    monkeypatch.setattr(invariants, "sorted", no_sort, raising=False)
    assert next(_collapse_moves(k5.facets, 2)) == want[0]


def holder_count_is_free(facets, gamma, sigma):
    """The free test `is_free_pair` made before `_is_free`."""
    if gamma & ~sigma:
        return False
    if sigma not in {int(f) for f in facets}:
        return False
    holders = sum(1 for f in facets if gamma & ~f == 0)
    return holders == 1


def test_is_free_matches_the_holder_count_on_every_small_complex():
    """Every face (and one non-face) against every facet and against faces
    that are not facets: each facet less its lowest vertex, and the whole
    vertex set."""
    for x in all_complexes(5):
        vm = x.vertex_mask
        gammas = list(x.all_faces()) + [vm | 1]
        sigmas = list(x.facets) + [f & (f - 1) for f in x.facets] + [vm]
        for gamma in gammas:
            for sigma in sigmas:
                assert (_is_free(x.facets, gamma, sigma)
                        == holder_count_is_free(x.facets, gamma, sigma)), (
                    x, gamma, sigma)


def test_deletion_of_a_free_face_is_the_canonicalized_collapse():
    """For every free pair, `_deletion` of gamma, which sigma alone holds,
    is the canonical facet tuple of the facets less sigma plus every
    sigma - v, v in gamma."""
    for x in all_complexes(5):
        for gamma, sigma in x.free_pairs(5):
            cand = [f for f in x.facets if f != sigma]
            cand += [sigma & ~(1 << v) for v in vertices_of(gamma)]
            want = SimplicialComplex(cand).facets
            assert _deletion(x.facets, gamma) == want, (x, gamma)


def test_free_pairs_scan_no_size_above_dim_plus_one(monkeypatch):
    """No free face has more than dim + 1 vertices, so however large d is,
    `free_pairs(d)` asks `_free_faces_by_size` for sizes 0..dim + 1 only,
    and returns the pairs of `free_pairs(dim + 1)`."""
    from collapsekit import complexes
    asked = []
    real = complexes._free_faces_by_size

    def counted(facets, sizes, bits=None):
        sizes = list(sizes)
        asked.append(sizes)
        return real(facets, sizes, bits)

    x = SimplicialComplex([(1, 2, 3), (3, 4)])
    want = x.free_pairs(3)
    assert len(want) == 8
    monkeypatch.setattr(complexes, "_free_faces_by_size", counted)
    for d in (3, 4, 10**6):
        asked.clear()
        assert x.free_pairs(d) == want
        assert asked == [[0, 1, 2, 3]], d
    asked.clear()
    assert x.free_pairs(1) == [p for p in want if p.free_face.dim < 1]
    assert asked == [[0, 1]]
    asked.clear()
    assert SimplicialComplex().free_pairs(10**6) == []
    assert asked == [[0]]


def test_free_pair_detection():
    x = SimplicialComplex([(1, 2), (2, 3)])
    assert x.is_free_pair(FreePair(Face.of([1]), Face.of([1, 2])))
    # vertex 2 sits in both facets, not free
    assert not x.is_free_pair(FreePair(Face.of([2]), Face.of([1, 2])))


def test_collapse_removes_the_interval():
    x = SimplicialComplex([(1, 2), (2, 3)])
    y = x.collapse(FreePair(Face.of([1]), Face.of([1, 2])))
    assert y == SimplicialComplex([(2, 3)])
    with pytest.raises(NotFreeError):
        x.collapse(FreePair(Face.of([2]), Face.of([1, 2])))


@given(nonempty_complexes, st.integers(min_value=1, max_value=3))
def test_collapse_face_count(x, d):
    for pair in x.free_pairs(d):
        if pair.free_face == 0:
            continue
        removed = 1 << (pair.facet.bit_count() - pair.free_face.bit_count())
        assert x.collapse(pair).num_faces() == x.num_faces() - removed


# -- skeleton / boundary / join -------------------------------------------

def test_skeleton():
    x = simplex_on((1, 2, 3))
    assert x.skeleton(1) == SimplicialComplex([(1, 2), (1, 3), (2, 3)])
    assert x.skeleton(0) == SimplicialComplex([(1,), (2,), (3,)])
    with pytest.raises(ValueError):
        x.skeleton(3)


def test_pure_skeleton_drops_low_facets():
    x = SimplicialComplex([(1, 2, 3), (4, 5)])
    assert x.pure_skeleton(2) == simplex_on((1, 2, 3))


@pytest.mark.parametrize("method", ["skeleton", "pure_skeleton"])
def test_skeletons_below_dimension_minus_one_are_rejected(method):
    for x in (SimplicialComplex([(1, 2, 3), (4, 5)]), SimplicialComplex()):
        assert getattr(x, method)(-1) == SimplicialComplex()
        with pytest.raises(ValueError, match="dimension must be >= -1"):
            getattr(x, method)(-2)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, True, False],
                         ids=repr)
def test_face_counts_that_are_not_ints_are_refused_by_name(bad):
    """A dimension, k or d that is not an int, or is a bool, raises a
    TypeError naming the parameter: `faces(True)` read as the edges,
    `free_pairs(True)` as the pairs at d = 1, and `faces(1.5)` failed
    with Python's own unnamed message."""
    x = SimplicialComplex([(1, 2, 3), (3, 4)])
    calls = [("dimension", x.faces), ("k", x.open_faces),
             ("d", x.free_pairs), ("dimension", x.skeleton),
             ("dimension", x.pure_skeleton)]
    for name, method in calls:
        with pytest.raises(TypeError, match=f"^{name} must be an int, not "
                                            f"{type(bad).__name__}$"):
            method(bad)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        x.open_faces(-1)
    with pytest.raises(ValueError, match="^d must be >= 0$"):
        x.free_pairs(-1)


def test_boundary():
    assert boundary((1, 2, 3)) == SimplicialComplex([(1, 2), (1, 3), (2, 3)])
    assert boundary((1,)).is_empty


def test_join_identity_and_disjointness():
    x = SimplicialComplex([(1, 2)])
    assert join(x, SimplicialComplex()) == x
    assert join(SimplicialComplex(), x) == x
    with pytest.raises(ValueError):
        join(x, SimplicialComplex([(2, 3)]))


@settings(max_examples=30)
@given(raw_facets, raw_facets)
def test_join_face_count(raw_a, raw_b):
    a = SimplicialComplex([[v for v in f] for f in raw_a])
    b = SimplicialComplex([[v + 20 for v in f] for f in raw_b])
    j = join(a, b)
    if a.is_empty or b.is_empty:
        return
    assert j.num_faces() + 1 == (a.num_faces() + 1) * (b.num_faces() + 1)
