"""Shared test tooling: exhaustive enumeration of small complexes and
hypergraphs, the definition of an open face, the apex floor C was once
searched from, and the mod-3 Moore space."""

import functools
import operator

from collapsekit import Face, Hypergraph, SimplicialComplex, reduced_betti


def all_complexes(n: int) -> list[SimplicialComplex]:
    """Every simplicial complex on a subset of the vertices 1..n, once each.

    A complex is its antichain of facets, and every antichain of non-empty
    vertex sets is one, so there are D(n) - 1 of them: D(n) is the Dedekind
    number (OEIS A000372), and the antichain {{}} is dropped because it is
    identified with the empty complex (the empty antichain).
    """
    masks = range(2, 1 << (n + 1), 2)  # non-empty subsets of 1..n
    out: list[SimplicialComplex] = []

    def extend(rest, chosen):
        if not rest:
            out.append(SimplicialComplex(chosen))
            return
        s, *tail = rest
        extend(tail, chosen)
        if all(s & ~c and c & ~s for c in chosen):
            extend(tail, chosen + [s])

    extend(list(masks), [])
    return out


def shifted(x: SimplicialComplex, shift: int) -> SimplicialComplex:
    """x with every vertex label raised by `shift`.  A uniform shift keeps
    the order of the facet masks and of each facet's vertices, so every
    search walks x and its shift alike."""
    return SimplicialComplex(f << shift for f in x.facets)


def all_hypergraphs(n: int) -> list[Hypergraph]:
    """Every hypergraph on the vertices 1..n with at least one edge, once
    each: the 2^(2^n - 1) - 1 nonempty families of nonempty subsets of 1..n.
    A vertex in no edge, or only in the singleton edge on itself, is
    isolated; callers that need no isolated vertex filter on
    `isolated_vertices`."""
    masks = range(2, 1 << (n + 1), 2)  # non-empty subsets of 1..n
    return [Hypergraph(n, [m for i, m in enumerate(masks) if family >> i & 1])
            for family in range(1, 1 << len(masks))]


def open_faces_oracle(x: SimplicialComplex, k: int) -> set[Face]:
    """The definition: the k-faces whose link is not the induced complex
    on the complementary vertex set."""
    vm = x.vertex_mask
    return {s for s in x.faces(k) if x.link(s) != x.induced(Face(vm & ~s))}


def apex_floor(x: SimplicialComplex) -> int:
    """One more than the top degree of nonzero reduced GF(2) homology of
    the link of the apex, the intersection of all facets (x itself when
    that is empty), for a nonempty x: a lower bound for C, and the floor
    C was searched from before it read L(x; GF(2))."""
    apex = functools.reduce(operator.and_, x.facets)
    return reduced_betti(x.link(Face(apex)), 2).top_nonzero_degree() + 1


def mod3_moore_space():
    """A disk whose boundary winds three times around the triangle 1-2-3,
    with a ring of vertices 4..12 and a centre 13 inside.  Every edge lies
    in 2 or 3 triangles, so no face of at most 2 vertices is free and
    C = 3, while its homology vanishes over GF(2) (H_1 is Z/3) and every
    link is a graph or points: L(x; GF(2)) = 2 < C."""
    rim = (1, 2, 3) * 3
    facets = []
    for i in range(9):
        j = (i + 1) % 9
        facets += [(rim[i], rim[j], 4 + i), (rim[j], 4 + i, 4 + j),
                   (4 + i, 4 + j, 13)]
    return SimplicialComplex(facets)
