"""Shared test tooling: exhaustive enumeration of small complexes."""

from collapsekit import SimplicialComplex


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
