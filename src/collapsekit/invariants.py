"""Exact collapsibility invariants with certificates.

Contains the collapsibility number (depth-first backtracking over free-pair
choices: the choice of collapse can matter, so dead ends are revisited and a
transposition table prunes repeated states), the minimal-exclusion-sequence
bound d(X, ord) for a facet ordering, and the recursive M_0 / M_k / M'_k
upper bounds.

M'_k is a min over open k-faces sigma of max(M'_k(del sigma),
M'_k(lk sigma) + k + 1), evaluated by branch and bound with two exact
rules: the link term is computed first and the deletion is skipped when the
link term alone already reaches the best candidate so far, since a max is
never below its terms; and the scan stops once the best candidate equals
k + 1, the least value any candidate can take.  Neither rule changes a
value (see `_MkEngine`).

All searches are exact and carry explicit node budgets; running out of
budget raises, it never reads as "false".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .complexes import FreePair, SimplicialComplex, as_face, vertices_of
from .errors import Budget, NotAFaceError


@dataclass(frozen=True)
class CollapseCertificate:
    """A replayable witness that a complex is d-collapsible."""

    steps: tuple[FreePair, ...]
    claimed_d: int

    def replay(self, source: SimplicialComplex) -> bool:
        """True iff replaying the steps from `source` is valid at every step,
        every free face has at most claimed_d vertices, and the terminal
        complex is empty."""
        current = source
        for pair in self.steps:
            if pair.free_face.bit_count() > self.claimed_d:
                return False
            if not current.is_free_pair(pair):
                return False
            current = current.collapse(pair)
        return current.is_empty


def is_d_collapsible(
    x: SimplicialComplex, d: int, budget: Optional[Budget] = None
) -> tuple[bool, Optional[CollapseCertificate]]:
    """Decide whether some sequence of elementary d-collapses empties x.

    Free pairs are tried smallest free face first (ties broken by vertex
    tuple) so runs are deterministic and certificates small.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    budget = budget or Budget()
    dead: set[tuple] = set()
    steps: list[FreePair] = []

    def search(y: SimplicialComplex) -> bool:
        budget.spend()
        if y.is_empty:
            return True
        key = y.facets
        if key in dead:
            return False
        pairs = y.free_pairs(d)
        # collapses at free faces smaller than d are confluent: performing
        # one never loses d-collapsibility, so take the first without
        # branching; only size-d free faces require backtracking
        if pairs and pairs[0].free_face.bit_count() < d:
            pairs = pairs[:1]
        for pair in pairs:
            steps.append(pair)
            if search(y.collapse(pair)):
                return True
            steps.pop()
        dead.add(key)
        return False

    if search(x):
        return True, CollapseCertificate(tuple(steps), d)
    return False, None


def collapsibility_number(
    x: SimplicialComplex,
    budget: Optional[Budget] = None,
    lower: int = 0,
) -> int:
    """Least d such that x is d-collapsible.

    Terminates because a complex of dimension n is always (n+1)-collapsible.
    `lower` lets callers seed the search, e.g. with the Leray number.
    """
    return collapsibility_number_with_certificate(x, budget, lower)[0]


def collapsibility_number_with_certificate(
    x: SimplicialComplex,
    budget: Optional[Budget] = None,
    lower: int = 0,
) -> tuple[int, Optional[CollapseCertificate]]:
    """The collapsibility number with a certificate that replays it."""
    budget = budget or Budget()
    d = max(lower, 0)
    while True:
        ok, cert = is_d_collapsible(x, d, budget)
        if ok:
            return d, cert
        d += 1


class FacetOrdering:
    """A total order on the facets of a fixed complex."""

    __slots__ = ("complex", "ordered_facets")

    def __init__(self, complex: SimplicialComplex, ordered_facets: Iterable):
        ordered = tuple(as_face(f) for f in ordered_facets)
        if sorted(map(int, ordered)) != [int(f) for f in complex.facets]:
            raise ValueError("ordering must be a permutation of the facets")
        self.complex = complex
        self.ordered_facets = ordered

    def __repr__(self):
        return f"FacetOrdering({list(self.ordered_facets)!r})"


def canonical_ordering(x: SimplicialComplex) -> FacetOrdering:
    """The facets in their canonical (increasing bitmask) order."""
    return FacetOrdering(x, x.facets)


def mes(gamma, ordering: FacetOrdering) -> tuple[int, ...]:
    """Minimal exclusion sequence of a face under a facet ordering.

    Null sequence when gamma is contained in the first facet; otherwise, with
    j the least index such that gamma fits in facet_j, the sequence has
    length j-1 and entry k is the least previously-used vertex still excluded
    from facet_k, falling back to the least excluded vertex overall.
    """
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


def d_of_ordering(x: SimplicialComplex, ordering: FacetOrdering) -> int:
    """max over all faces of the number of distinct vertices in their mes."""
    best = 0
    for gamma in x.all_faces():
        best = max(best, len(set(mes(gamma, ordering))))
    return best


class _MkEngine:
    """Memoized branch-and-bound evaluation of M_k and M'_k.

    One engine per top-level call: links and deletions of a complex share
    vertex labels, which is all the label-sensitive memo keys need.

    M'_k(y) is the min over the open k-faces s of y of
    max(M'_k(lk s) + k + 1, M'_k(del s)), or, when y has no open k-face,
    0 for k = 0 and M_{k-1}(y) for k > 0.  Two rules prune that min, and
    both are exact:

    - the link term is evaluated first; when it is already >= the best
      candidate so far, the deletion is skipped, because the candidate's
      max is at least its link term and so cannot lower the min;
    - the scan stops once the best candidate equals k + 1, because every
      candidate is >= its link term >= k + 1.

    Pruning acts only inside one node's min, so every memo entry is an
    exact value and the budget is spent once per expanded node.
    """

    def __init__(self, budget: Optional[Budget] = None):
        self.budget = budget or Budget()
        self._memo: dict[tuple, int] = {}

    def m(self, y: SimplicialComplex, k: int) -> int:
        if k == 0:
            return self.m_prime(y, 0)
        key = (y.facets, k, "m")
        if key in self._memo:
            return self._memo[key]
        val = min(self.m_prime(y, k), self.m(y, k - 1))
        self._memo[key] = val
        return val

    def m_prime(self, y: SimplicialComplex, k: int) -> int:
        key = (y.facets, k, "mp")
        if key in self._memo:
            return self._memo[key]
        self.budget.spend()
        open_k = sorted(y.open_faces(k))
        if not open_k:
            val = 0 if k == 0 else self.m(y, k - 1)
        else:
            # the first candidate always passes, so val ends an int
            val = math.inf
            for s in open_k:
                cand = self.m_prime(y.link(s), k) + k + 1
                if cand < val:
                    val = min(val, max(cand, self.m_prime(y.deletion(s), k)))
                    if val == k + 1:
                        break
        self._memo[key] = val
        return val


def m0(x: SimplicialComplex, budget: Optional[Budget] = None) -> int:
    """The recursive vertex bound: 0 for cones/simplices, else min over
    non-cone vertices of max(m0(link)+1, m0(deletion))."""
    return _MkEngine(budget).m(x, 0)


def mk(x: SimplicialComplex, k: int, budget: Optional[Budget] = None) -> int:
    """M_k(x) = min(M'_k(x), M_{k-1}(x)), with M_0 = M'_0; an upper bound
    on the collapsibility number that never increases with k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _MkEngine(budget).m(x, k)


def mk_prime(x: SimplicialComplex, k: int, budget: Optional[Budget] = None) -> int:
    """M'_k(x): the min over open k-faces s of
    max(M'_k(lk s) + k + 1, M'_k(del s)); 0 (k = 0) or M_{k-1}(x) (k > 0)
    when x has no open k-face."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _MkEngine(budget).m_prime(x, k)


def mk_chain(
    x: SimplicialComplex, k_max: int, budget: Optional[Budget] = None
) -> list[int]:
    """[M_0(x), ..., M_{k_max}(x)] computed with one shared memo table."""
    engine = _MkEngine(budget)
    return [engine.m(x, k) for k in range(k_max + 1)]
