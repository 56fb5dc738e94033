"""Bitmask-backed faces and canonical finite simplicial complexes.

A face is a set of small non-negative integer vertex labels, packed into a
single Python int (bit v set <=> vertex v present), so subset, union and
intersection are single word operations.  A complex is stored as its
canonical facet list: an antichain of faces, sorted by bitmask value.

Every walk over the vertices of a mask in the package goes through
`vertices_of` (the labels) or `bits_of` (the one-vertex masks).  Below
2^16, labels 0..15, both split the mask into its low and high byte and
join the two bytes' rows of 256-entry tables, one pair of tables each.  A
wider mask is walked one low bit at a time (`_bit_walk`, also the tables'
source and their tests' oracle).

Conventions pinned here and relied on everywhere else:

* the empty complex is the empty facet list; a complex "containing only the
  empty face" is identified with it (the collapse terminal state),
* (empty face, sigma) is a free pair exactly when the complex is a simplex,
  which makes simplices 0-collapsible: the free-face scan starts at size
  0, and only a simplex has a single facet holding the empty face,
* canonicalization never relabels vertices; equality is label-sensitive.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (NotAFaceError, NotFreeError, VertexRangeError,
                     _check_count)

#: Highest representable vertex label.  Faces are one 128-bit mask word.
MAX_VERTEX = 127

_FULL = (1 << (MAX_VERTEX + 1)) - 1


class Face(int):
    """An immutable vertex set packed as a bitmask.

    Being an int subclass, plain bit operations (``a & b``, ``a | ~b``...)
    work directly; they return plain ints, re-wrap with ``Face`` where the
    nicer repr matters.
    """

    __slots__ = ()

    def __new__(cls, mask: int = 0):
        if mask < 0 or mask > _FULL:
            raise VertexRangeError(
                f"face mask out of range (labels must be 0..{MAX_VERTEX})"
            )
        return super().__new__(cls, mask)

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "Face":
        return cls(mask_of(vertices))

    @property
    def vertices(self) -> tuple[int, ...]:
        return vertices_of(self)

    @property
    def dim(self) -> int:
        return self.bit_count() - 1

    def issubset(self, other: int) -> bool:
        return self & ~other == 0

    def __repr__(self):
        return "Face{%s}" % ",".join(map(str, self.vertices))


EMPTY_FACE = Face(0)

#: Wraps a mask already known to be in range, skipping the check.
_face = functools.partial(int.__new__, Face)


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask of a collection of vertex labels, each checked to be an
    int, not a bool (TypeError), in 0..MAX_VERTEX (VertexRangeError).  A
    face that is no iterable (a float, None) is named (TypeError)."""
    try:
        vertices = iter(vertices)
    except TypeError:
        raise TypeError(f"face {vertices!r} is a {type(vertices).__name__}, "
                        f"neither an int mask nor an iterable of vertex "
                        f"labels") from None
    m = 0
    for v in vertices:
        if type(v) is not int:
            raise TypeError(
                f"vertex label {v!r} is a {type(v).__name__}, not an int")
        if not 0 <= v <= MAX_VERTEX:
            raise VertexRangeError(
                f"vertex label {v!r} outside 0..{MAX_VERTEX}"
            )
        m |= 1 << v
    return m


def _bit_walk(mask: int) -> tuple[int, ...]:
    """The vertex labels of a non-negative mask, increasing, by the plain
    low-bit walk: the route of `vertices_of` and `bits_of` past their
    tables, and the oracle their tests read them against."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


#: Masks below this are split into a low and a high byte, and each byte's
#: row is read from a 256-entry table; a wider mask is walked bit by bit.
_TABLE_END = 1 << 16
_LOW_VERTICES = tuple(map(_bit_walk, range(256)))
_HIGH_VERTICES = tuple(tuple(v + 8 for v in row) for row in _LOW_VERTICES)
_BIT = tuple(1 << v for v in range(16))  # one int per bit, shared by rows
_LOW_BITS = tuple(tuple(_BIT[v] for v in row) for row in _LOW_VERTICES)
_HIGH_BITS = tuple(tuple(_BIT[v] for v in row) for row in _HIGH_VERTICES)


def vertices_of(mask: int) -> tuple[int, ...]:
    """The vertex labels of a non-negative mask, increasing.  Below 2^16
    it joins the table rows of the mask's low and high byte; a wider mask
    is walked bit by bit.  A negative mask raises ValueError."""
    if 0 <= mask < _TABLE_END:
        return _LOW_VERTICES[mask & 255] + _HIGH_VERTICES[mask >> 8]
    return _bit_walk(mask)


def bits_of(mask: int) -> tuple[int, ...]:
    """The single-bit masks of a non-negative mask, lowest first: the
    vertices of `vertices_of(mask)` as one-vertex masks, read from the
    same byte tables below 2^16.  A negative mask raises ValueError."""
    if 0 <= mask < _TABLE_END:
        return _LOW_BITS[mask & 255] + _HIGH_BITS[mask >> 8]
    return tuple([1 << v for v in _bit_walk(mask)])


def subsets(mask: int, sizes: Iterable[int]) -> Iterator[int]:
    """The sub-masks of `mask` whose size is in `sizes`, size by size, each
    size in itertools.combinations order over the increasing vertices."""
    bits = bits_of(mask)
    for r in sizes:
        yield from map(sum, itertools.combinations(bits, r))


def faces_of(facets: Iterable[int], sizes: Iterable[int]) -> set[int]:
    """The faces of the complex with these facets whose size is in `sizes`
    (read once per facet: a range or a tuple), each once."""
    out: set[int] = set()
    for f in facets:
        bits = bits_of(f)
        for r in sizes:
            out.update(map(sum, itertools.combinations(bits, r)))
    return out


def _free_faces_by_size(facets: Iterable[Face], sizes: Iterable[int],
                        bits: dict[int, tuple[int, ...]] | None = None
                        ) -> Iterator[dict[int, Face]]:
    """For each r in `sizes`, lazily, the free faces on r vertices of the
    complex with these facets: {face: the only facet holding it}.

    Each facet's vertex bits are listed once, however many sizes are read,
    and a size is scanned only when its map is asked for.  `bits` (facet ->
    its vertex bits) keeps those lists across calls: a collapse keeps every
    facet but one, so a search that passes one dict lists each facet once."""
    if bits is None:
        bits = {}
    held = []
    for f in facets:
        b = bits.get(f)
        if b is None:
            b = bits[f] = bits_of(f)
        held.append((f, b))
    for r in sizes:
        # face -> its only facet, or None once a second facet holds it
        holder: dict[int, Face | None] = {}
        for f, fbits in held:
            if len(fbits) >= r:
                for m in map(sum, itertools.combinations(fbits, r)):
                    holder[m] = None if m in holder else f
        yield {m: g for m, g in holder.items() if g is not None}


def _is_free(facets: Iterable[int], gamma: int, sigma: int) -> bool:
    """Whether (gamma, sigma) is a free pair of the complex with these
    facets: sigma is a facet and the only facet holding gamma."""
    return [f for f in facets if gamma & ~f == 0] == [sigma]


def _open_faces(facets: Sequence[int], k: int) -> list[int]:
    """The open k-faces of the complex with these facets, as increasing
    masks: the k-faces outside the apex, the intersection of the facets.

    sigma is open when some facet F has F | sigma in no facet (see
    `SimplicialComplex.open_faces`).  A facet F holding sigma has
    F | sigma = F; for a facet F missing a vertex of sigma, F | sigma is
    strictly above F and so in no facet, since the facets are an antichain.
    So sigma is open iff some facet misses it, iff sigma is not inside the
    apex.  For k = 0 these are the vertices of the union less the apex."""
    if not facets:
        return []
    apex = functools.reduce(operator.and_, facets)
    if k == 0:
        rest = functools.reduce(operator.or_, facets) & ~apex
        return list(bits_of(rest))
    return sorted(s for s in faces_of(facets, (k + 1,)) if s & ~apex)


def _link(facets: Sequence[int], sigma: int) -> tuple[int, ...]:
    """The canonical facets of lk(sigma) for a face sigma of the complex
    with these canonical facets: the F - sigma over the facets F holding
    sigma, in facet order.

    No canonicalization is needed.  F - sigma inside G - sigma would put F
    inside G, so they form an antichain, and for F holding sigma,
    F - sigma is F minus the mask sigma as a number, so the order holds.
    The link of a facet, {empty face}, is the empty complex."""
    lk = tuple([f ^ sigma for f in facets if sigma & ~f == 0])
    return () if lk == (0,) else lk


def _deletion(facets: Sequence[int], sigma: int) -> tuple[int, ...]:
    """The canonical facets of del(sigma) for the complex with these
    canonical facets: one pass (`_split`) keeps the facets missing a vertex
    of sigma, and the F - v of those holding it that no kept facet holds
    come in (`_new_faces`).  The empty face never stays (the empty complex).

    It is also the collapse step: collapsing a free pair (gamma, sigma)
    removes the interval [gamma, sigma], which is exactly the set of faces
    holding gamma, since sigma is the only facet that holds it.  So the
    collapse leaves del(gamma).

    No other antichain check is needed: no kept facet lies in an F - v (it
    would lie in F), and two distinct F - v, G - w are never nested, since
    for v != w only F - v holds w, and for v = w one inside the other
    would put F inside G."""
    kept, holders = _split(facets, sigma)
    out = kept + list(_new_faces(holders, sigma, kept))
    out.sort()
    return tuple(out)


def _split(facets: Sequence[int], sigma: int) -> tuple[list[int], list[int]]:
    """In one pass, the facets missing a vertex of sigma and the facets
    holding sigma, each in facet order."""
    kept: list[int] = []
    holders: list[int] = []
    for f in facets:
        (kept if sigma & ~f else holders).append(f)
    return kept, holders


def _new_faces(holders: Sequence[int], sigma: int,
               kept: Sequence[int]) -> Iterator[int]:
    """Lazily, the faces del(sigma) adds to the kept facets: each nonempty
    F - v (F in holders, the facets holding sigma; v in sigma) that no kept
    facet holds.  A caller that asks only whether there is one reads one."""
    lows = bits_of(sigma)
    for f in holders:
        for low in lows:
            t = f ^ low
            if t:
                for g in kept:
                    if t & ~g == 0:
                        break
                else:
                    yield t


def as_face(obj) -> Face:
    """Coerce an int mask or an iterable of vertex labels to a Face; a bool
    is no mask, as the loader has it no label (TypeError)."""
    if isinstance(obj, Face):
        return obj
    if isinstance(obj, int):
        if isinstance(obj, bool):
            raise TypeError(f"face mask {obj!r} is a bool, not an int")
        return Face(obj)
    return Face(mask_of(obj))


class FreePair(NamedTuple):
    """A pair (free_face, facet) where facet is the unique facet containing
    free_face; the seed of an elementary collapse."""

    free_face: Face
    facet: Face


def _antichain(masks: Iterable[int]) -> list[int]:
    """Keep only the maximal masks (subset order), deduplicated, sorted."""
    uniq = sorted(set(masks), key=int.bit_count, reverse=True)
    out: list[int] = []
    for m in uniq:
        for big in out:
            if m & ~big == 0:
                break
        else:
            out.append(m)
    out.sort()
    return out


class SimplicialComplex:
    """A finite simplicial complex given by its canonical facet list.

    Construction canonicalizes: duplicates and non-maximal input faces are
    dropped, facets are sorted by increasing bitmask value.  Input faces are
    int masks (a Face is one) or iterables of vertex labels.  Instances are
    immutable, hashable and safe to share.
    """

    __slots__ = ("facets", "_hash")

    facets: tuple[Face, ...]

    def __init__(self, facets: Iterable = ()):
        masks = _antichain(
            # label lists, the generators' path, go straight to `mask_of`;
            # an int other than a plain one (a Face, or a bool, refused) is
            # read as `as_face` reads it
            f if type(f) is int else mask_of(f) if not isinstance(f, int)
            else as_face(f) for f in facets
        )
        # a negative or too-wide mask is never dropped as non-maximal (only
        # another such mask contains it), so the extremes show any
        if masks and (masks[0] < 0 or masks[-1] > _FULL):
            raise VertexRangeError(
                f"face mask out of range (labels must be 0..{MAX_VERTEX})"
            )
        if masks == [0]:
            # identified with the empty complex
            masks = []
        object.__setattr__(self, "facets", tuple(map(_face, masks)))
        object.__setattr__(self, "_hash", hash(self.facets))

    @classmethod
    def _of_canonical(cls, masks: Iterable[int]) -> "SimplicialComplex":
        """The complex whose canonical facet list is already `masks` (an
        increasing antichain, never [0]), built without canonicalizing."""
        x = object.__new__(cls)
        facets = tuple(map(_face, masks))
        object.__setattr__(x, "facets", facets)
        object.__setattr__(x, "_hash", hash(facets))
        return x

    def __setattr__(self, *a):
        raise AttributeError("SimplicialComplex is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        m = 0
        for f in self.facets:
            m |= f
        return m

    @property
    def vertices(self) -> tuple[int, ...]:
        return vertices_of(self.vertex_mask)

    @property
    def dim(self) -> int:
        return max(map(int.bit_count, self.facets), default=0) - 1

    @property
    def is_empty(self) -> bool:
        return not self.facets

    @property
    def is_simplex(self) -> bool:
        return len(self.facets) == 1

    def is_pure(self) -> bool:
        return len(set(map(int.bit_count, self.facets))) <= 1

    def __contains__(self, face) -> bool:
        m = int(as_face(face))
        return any(m & ~f == 0 for f in self.facets)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inside = ", ".join(repr(f) for f in self.facets)
        return f"SimplicialComplex([{inside}])"

    # -- face enumeration --------------------------------------------------

    def faces(self, k: int) -> set[Face]:
        """All faces of dimension exactly k (k = -1 gives {empty face} for a
        nonempty complex)."""
        _check_count(k, "dimension", -1)
        return set(map(_face, faces_of(self.facets, (k + 1,))))

    def all_faces(self, include_empty: bool = True) -> Iterator[Face]:
        """Every face, each exactly once (empty face included iff the complex
        is nonempty, and then first)."""
        if include_empty and self.facets:
            yield EMPTY_FACE
        yield from map(_face, faces_of(self.facets, range(1, self.dim + 2)))

    def num_faces(self) -> int:
        """Number of nonempty faces."""
        return len(faces_of(self.facets, range(1, self.dim + 2)))

    # -- structural operations --------------------------------------------

    def link(self, sigma) -> "SimplicialComplex":
        """lk(sigma, X) = {tau : sigma and tau disjoint, union a face of X}."""
        s = int(as_face(sigma))
        if s == 0:
            return self
        if not any(s & ~f == 0 for f in self.facets):
            raise NotAFaceError(f"{as_face(sigma)!r} is not a face of the complex")
        return SimplicialComplex._of_canonical(_link(self.facets, s))

    def deletion(self, sigma) -> "SimplicialComplex":
        """del(sigma, X) = faces of X not containing sigma.

        sigma must be nonempty: deleting the empty face would empty the
        complex and is almost surely a caller bug.
        """
        s = int(as_face(sigma))
        if s == 0:
            raise ValueError("deletion of the empty face is rejected")
        return SimplicialComplex._of_canonical(_deletion(self.facets, s))

    def induced(self, subset) -> "SimplicialComplex":
        """X[A]: faces contained in the vertex set A (labels outside V(X) are
        harmless)."""
        a = int(as_face(subset))
        return SimplicialComplex(f & a for f in self.facets)

    def open_faces(self, k: int) -> set[Face]:
        """Faces sigma of dimension k whose link differs from the induced
        complex on the complementary vertex set: those not inside the apex,
        the intersection of the facets (`_open_faces`).

        For k = 0 this is the set of non-cone vertices (link != deletion).
        """
        _check_count(k, "k")
        return set(map(_face, _open_faces(self.facets, k)))

    def free_pairs(self, d: int) -> list[FreePair]:
        """All free pairs (gamma, sigma) with |gamma| <= d.

        gamma = sigma is allowed (every facet is free in itself); gamma empty
        qualifies exactly when the complex is a simplex.  Pairs come smallest
        gamma first, ties broken by gamma's vertex tuple.
        """
        _check_count(d, "d")
        # no face has more than dim + 1 vertices; a free face has one
        # facet, so the face alone orders the pairs
        return [FreePair(_face(m), free[m])
                for free in _free_faces_by_size(
                    self.facets, range(min(d, self.dim + 1) + 1))
                for m in sorted(free, key=vertices_of)]

    def is_free_pair(self, pair: FreePair) -> bool:
        return _is_free(self.facets, int(pair.free_face), int(pair.facet))

    def collapse(self, pair: FreePair) -> "SimplicialComplex":
        """Elementary collapse: remove the interval [gamma, sigma]."""
        if not self.is_free_pair(pair):
            raise NotFreeError(f"{pair!r} is not a free pair of the complex")
        return SimplicialComplex._of_canonical(
            _deletion(self.facets, int(pair.free_face)))

    def skeleton(self, n: int) -> "SimplicialComplex":
        """All faces of dimension <= n (n >= -1, as in `faces`)."""
        _check_count(n, "dimension", -1)
        if n > self.dim:
            raise ValueError(f"skeleton dimension {n} exceeds dim {self.dim}")
        low = [f for f in self.facets if f.dim < n]
        return SimplicialComplex(self.faces(n).union(low))

    def pure_skeleton(self, n: int) -> "SimplicialComplex":
        """The subcomplex spanned by the n-dimensional faces (n >= -1)."""
        _check_count(n, "dimension", -1)
        if n > self.dim:
            raise ValueError(f"skeleton dimension {n} exceeds dim {self.dim}")
        return SimplicialComplex(self.faces(n))


def simplex_on(vertices) -> SimplicialComplex:
    return SimplicialComplex([as_face(vertices)])


def boundary(sigma) -> SimplicialComplex:
    """The boundary complex of a single face: all its proper subsets."""
    s = as_face(sigma)
    if s.bit_count() <= 1:
        return SimplicialComplex()
    return SimplicialComplex(subsets(s, (s.bit_count() - 1,)))


def join(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join of complexes on disjoint vertex sets."""
    if x.vertex_mask & y.vertex_mask:
        raise ValueError("join requires disjoint vertex sets")
    if x.is_empty:
        return y
    if y.is_empty:
        return x
    return SimplicialComplex(f | g for f in x.facets for g in y.facets)
