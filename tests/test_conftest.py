"""Self-checks of the shared test tooling in conftest.py."""

import pytest

from conftest import all_complexes, all_hypergraphs


@pytest.mark.parametrize("n, count", [(0, 1), (1, 2), (2, 5), (3, 19),
                                      (4, 167), (5, 7580)])
def test_all_complexes_matches_the_dedekind_numbers(n, count):
    xs = all_complexes(n)
    assert len(xs) == count
    assert len(set(xs)) == count
    assert all(int(f) < 1 << (n + 1) for x in xs for f in x.facets)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 7), (3, 127), (4, 32767)])
def test_all_hypergraphs_counts_the_nonempty_edge_families(n, count):
    hs = all_hypergraphs(n)
    assert len(hs) == count
    assert len(set(hs)) == count
    assert all(h.n == n and h.edges for h in hs)
