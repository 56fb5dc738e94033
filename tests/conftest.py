"""Shared test tooling: exhaustive enumeration of small complexes and
hypergraphs."""

from collapsekit import Hypergraph, SimplicialComplex


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


def all_hypergraphs(n: int) -> list[Hypergraph]:
    """Every hypergraph on the vertices 1..n with at least one edge, once
    each: the 2^(2^n - 1) - 1 nonempty families of nonempty subsets of 1..n.
    A vertex in no edge, or only in the singleton edge on itself, is
    isolated; callers that need no isolated vertex filter on
    `isolated_vertices`."""
    masks = range(2, 1 << (n + 1), 2)  # non-empty subsets of 1..n
    return [Hypergraph(n, [m for i, m in enumerate(masks) if family >> i & 1])
            for family in range(1, 1 << len(masks))]
