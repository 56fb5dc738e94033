"""Exact collapsibility invariants with certificates.

Contains the collapsibility number (depth-first backtracking over free-pair
choices: the choice of collapse can matter, so dead ends are revisited and a
transposition table prunes repeated states), the minimal-exclusion-sequence
bound d(X, ord) for a facet ordering with the collapse that proves it, and
the recursive M_0 / M_k / M'_k upper bounds.

The d-collapse search scans each state's free faces one size at a time and
stops at the first size that has one.  Below d that size yields one forced
move, its lexicographically least face (collapses there are confluent); at
d every free face is a branch.

The collapsibility number C(X) is searched only between a floor f and a
certified ceiling u that need no search (`_bounds` states the rule): f is
the GF(2) Leray number, and u the lower claim d(X, ord) of two facet
orders, with the collapse of Matousek and Tancer (DCG 42, 2009) as its
certificate, built without search in one incremental walk that checks
every step as a replay would, and always finished (their theorem).  C = u
at once when f = u; otherwise d = f, ..., u - 1 are searched, and u is the
answer if none succeeds.  Only searches that must fail are skipped, so
every value is the plain upward loop's.  `is_d_collapsible` itself, and
so each threshold probe's one question C(Y) <= d, refutes a d below
L(Y; GF(2)) before any search by asking "L(Y) <= d?".  Every Leray
question, C's floor and that one among them, is asked of
`homology._leray`, which states the rule below 2: there a facet count and
one greedy walk (`homology._one_collapsible`, Wegner 1975) decide L with
no rank.
The first order's collapse claims exactly d(X, ord), so a report reads
d_mes from it too.  The walk, the d-collapse search and the certificates
they build work on int masks: a certificate holds its steps as (free face,
facet) mask pairs, and spells them as `FreePair`s of `Face`s only when its
`.steps` is read, so no report builds one.  Inside the library a facet
order is the tuple of its facet masks, in order; a `FacetOrdering` is
built only where a public function returns one.

M'_k is a min over open k-faces sigma of max(M'_k(del sigma),
M'_k(lk sigma) + k + 1), evaluated by a cutoff (alpha-beta) search: each
call carries a cutoff beta and returns the exact value when it is below
beta, and otherwise a lower bound that is >= beta.  A sub-call only has to
say whether its candidate can beat the best one so far, so it gets that
best as its cutoff; M_k passes M_{k-1} as the cutoff for M'_k.  Only
candidates that a bound shows cannot lower the min are dropped, so every
value below the cutoff is exact, and the public functions start with no
cutoff.  Memo entries are (value, exact) pairs, and a bound entry answers
only a caller whose cutoff it reaches (see `_MkEngine`).  The recursion
runs on facet masks: the open k-faces are the k-faces outside the apex,
the intersection of the facets, and no node builds a `SimplicialComplex`.
Its nodes are generators on `errors._drive`, one explicit stack, so the
depth of the recursion is no Python frame depth: M'_1 of the complete
graph K_46 nests deeper than the default limit and answers 2.
A report that asks C also floors the root of its M_k at C's floor
L(X; GF(2)): the scan stops once a candidate meets it, and M_k returns
M_{k-1} once that does.  Where the floor meets C's ceiling u, the report
reads every M_k as u (M_k <= M_0 <= d(X, ord) for every order) and calls
no engine.

All searches are exact and carry explicit node budgets; running out of
budget raises, it never reads as "false".
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .complexes import (FreePair, SimplicialComplex, _deletion, _face,
                        _free_faces_by_size, _is_free, _link, _new_faces,
                        _open_faces, as_face, faces_of, vertices_of)
from .errors import Budget, NotAFaceError, _check_count, _depth_first, _drive
from .homology import _leray


@dataclass(frozen=True)
class CollapseCertificate:
    """A replayable witness that a complex is d-collapsible: its steps, the
    free pairs (free face, facet) collapsed in turn, and the claim d.

    The steps are held as (gamma, sigma) mask pairs, and `.steps` spells
    them as `FreePair`s of `Face`s only when it is read, so the builders
    (`is_d_collapsible`, `_mes_certificate`), `replay` and a report's
    witness never build one.  `CollapseCertificate(steps, claimed_d)`
    takes `FreePair`s or any (free face, facet) pairs of int masks or
    vertex-label iterables (`as_face`), and a claim that is a count
    (`errors._check_count`).  Equality, hash and repr read as they would
    with the `FreePair`s: a `Face` is the int it holds."""

    _masks: tuple[tuple[int, int], ...]
    claimed_d: int

    def __init__(self, steps: Iterable, claimed_d: int):
        _check_count(claimed_d, "claimed_d")
        object.__setattr__(self, "_masks", _step_masks(steps, as_face))
        object.__setattr__(self, "claimed_d", claimed_d)

    @classmethod
    def _of_masks(cls, masks: tuple[tuple[int, int], ...],
                  claimed_d: int) -> "CollapseCertificate":
        """The certificate with these (gamma, sigma) mask pairs, in range,
        and this claim, a count, built unchecked."""
        cert = object.__new__(cls)
        object.__setattr__(cert, "_masks", masks)
        object.__setattr__(cert, "claimed_d", claimed_d)
        return cert

    @property
    def steps(self) -> tuple[FreePair, ...]:
        return tuple(FreePair(_face(g), _face(s)) for g, s in self._masks)

    def __repr__(self):
        return (f"CollapseCertificate(steps={self.steps!r}, "
                f"claimed_d={self.claimed_d!r})")

    def replay(self, source: SimplicialComplex) -> bool:
        """True iff replaying the steps from `source` is valid at every step,
        every free face has at most claimed_d vertices, and the terminal
        complex is empty."""
        facets = source.facets
        for gamma, sigma in self._masks:
            if (gamma.bit_count() > self.claimed_d
                    or not _is_free(facets, gamma, sigma)):
                return False
            facets = _deletion(facets, gamma)
        return not facets


def _step_masks(steps, read) -> tuple[tuple[int, int], ...]:
    """The (free face, facet) mask pairs of a certificate's steps, each
    face read by `read` (`as_face`, or `mask_of` for label lists).  A
    steps value that is no iterable raises TypeError, and a step that is
    no pair ValueError naming its index."""
    if not isinstance(steps, Iterable):
        raise TypeError(f"steps {steps!r} is a {type(steps).__name__}, not "
                        f"a sequence of [free face, facet] pairs")
    masks = []
    for i, step in enumerate(steps):
        try:
            gamma, sigma = step
        except (TypeError, ValueError):
            raise ValueError(f"step {i}, {step!r}, is not a [free face, "
                             f"facet] pair") from None
        masks.append((int(read(gamma)), int(read(sigma))))
    return tuple(masks)


def is_d_collapsible(
    x: SimplicialComplex, d: int, budget: Optional[Budget] = None, *,
    refute: bool = True,
) -> tuple[bool, Optional[CollapseCertificate]]:
    """Decide whether some sequence of elementary d-collapses empties x.

    A d-collapsible complex is d-Leray over every field (Wegner 1975), so
    where L(x; GF(2)) > d the answer is no with no search and no node
    spent.  The bounded question "L(x) <= d?" (`homology._leray` floored
    at d and capped at d + 1) tells first: at d >= 2 a GF(2) scan that
    reads degree d alone, and below 2 no rank at all, as `_leray` states
    (d = 0 is refuted by two facets, d = 1 by the greedy walk).
    d-collapsibility is monotone in d (a d-collapse is also a
    (d+1)-collapse), so the answer is exactly C(x) <= d, the threshold
    probes' one question.  C's search (`_collapsibility`) already knows
    L(x; GF(2)) <= d, so it passes refute=False and runs the search alone.
    A d that is not an int, or is a bool, raises TypeError.

    Each state's moves come from `_collapse_moves`: the free faces are
    scanned one size at a time, smallest first, and the scan stops at the
    first size that has one.  Below d that size gives a single forced move,
    its lexicographically least face; at d every free face is a branch, in
    vertex-tuple order.  Runs are deterministic and certificates small.  The
    search is `errors._depth_first` over facet tuples, each its own key, so
    a certificate may have any length; it holds the path's mask pairs.
    """
    _check_count(d, "d")
    if refute and _leray(x, 2, None, d + 1, d) > d:
        return False, None
    budget = budget or Budget()

    bits: dict[int, tuple[int, ...]] = {}

    def moves(facets: tuple[int, ...]):
        for gamma, sigma in _collapse_moves(facets, d, bits):
            yield (gamma, sigma), _deletion(facets, gamma)

    steps = _depth_first(x.facets, operator.not_, lambda facets: facets,
                         moves, budget)
    if steps is None:
        return False, None
    return True, CollapseCertificate._of_masks(tuple(steps), d)


def _collapse_moves(facets: tuple[int, ...], d: int,
                    bits: Optional[dict[int, tuple[int, ...]]] = None
                    ) -> Iterator[tuple[int, int]]:
    """Lazily, the free pairs (gamma, sigma), as masks, the d-collapse
    search tries at these facets, in order: the least free face of the
    smallest size that has one when that size is below d, else every free
    face of size d, in vertex-tuple order, found without listing the
    larger sizes.  `bits` is the search's facet -> vertex bits dict (see
    `_free_faces_by_size`).

    Collapses at free faces smaller than d are confluent: performing one
    never loses d-collapsibility, so the least is taken without branching;
    only size-d free faces require backtracking.  The least face comes
    first, and the others are sorted only when the search backtracks to
    them, since it usually takes the first.  The scan starts at size 0, so
    a simplex has the single move (empty face, itself).
    """
    for r, free in enumerate(_free_faces_by_size(facets, range(d + 1),
                                                 bits)):
        if not free:
            continue
        least = _least_face(free)
        yield least, free[least]
        if r == d:
            for m in sorted(free, key=vertices_of)[1:]:
                yield m, free[m]
        return


def _least_face(faces: Iterable[int]) -> int:
    """The first of these distinct masks of one size in vertex-tuple order
    (`vertices_of`), without listing a vertex: A comes before B exactly
    when the lowest vertex of A ^ B lies in A."""
    it = iter(faces)
    least = next(it)
    for m in it:
        diff = m ^ least
        if m & diff & -diff:
            least = m
    return least


def collapsibility_number(
    x: SimplicialComplex, budget: Optional[Budget] = None
) -> int:
    """Least d such that x is d-collapsible: between the GF(2) Leray number
    and the mes ceiling, see `collapsibility_number_with_certificate`."""
    return collapsibility_number_with_certificate(x, budget)[0]


def collapsibility_number_with_certificate(
    x: SimplicialComplex, budget: Optional[Budget] = None
) -> tuple[int, CollapseCertificate]:
    """The collapsibility number with a certificate that replays it.

    C(x) lies between the floor f and the ceiling u that `_bounds` takes
    under the canonical order with no search.  d = f, ..., u - 1 are
    searched, and C is (u, ceiling) if none succeeds.  The empty complex
    needs no step of its own: its mes collapse is empty and claims 0, so
    f = u = 0 and C = 0 with the empty certificate.

    Only searches below L(x; GF(2)), which must fail, are skipped, so the
    value is that of the plain d = 0, 1, ... loop, and so is the
    certificate wherever C < u; where C = u the certificate is the
    ceiling's collapse.
    """
    floor, top = _bounds(x, x.facets, _mes_certificate(x.facets), None)
    return _collapsibility(x, budget or Budget(), top, floor)


def _bounds(x: SimplicialComplex, ordered: tuple[int, ...],
            first: CollapseCertificate, links: Optional[dict],
            least: int = 0) -> tuple[int, CollapseCertificate]:
    """C's floor f and ceiling u, taken with no search from `first`, the
    mes collapse of x under `ordered`, x's facet masks in some order, the
    link cache `links` (or None) and `least`, a value at most L(x) over
    every field.  The standalone C, every report that asks C and the
    nc-bound probe take them here.

    Every facet order < gives a ceiling d(x, <), with the collapse of
    Matousek and Tancer (DCG 42, 2009) as its certificate
    (`_mes_certificate`, built and checked in one walk); `first` claims
    u_1 = d(x, ordered).  The floor f is L(x; GF(2)): a d-collapsible
    complex is d-Leray over every field (Wegner 1975), and
    dim H~_i(Y; GF(2)) >= dim H~_i(Y; Q), so GF(2) gives the higher
    floor, with the cheaper modular rank.  It is the GF(2) Leray number
    capped at u_1 and floored at least (`homology._leray`, which reads it
    below 2 with no rank and lists no link where its floor meets u_1), so
    it asks no degree >= u_1; since L(x; GF(2)) <= C <= u_1 the cap
    changes nothing.

    Where f <= 2 the report also reads the rational Leray number and the
    Betti numbers off f with no rank (`reports._inv_leray`,
    `reports._inv_betti`).  `least` is a complex's 0, and for NC(H)
    max |D| - 1 over the minimal covers D of H
    (`hypergraphs._nc_leray_floor`): by Hochster's formula with Terai's
    Alexander duality (Terai 1999), L(NC(H); F) = pd(S/I(H)) - 1 over
    every field F, as NC(H) is the Alexander dual of the independence
    complex, whose Stanley-Reisner ideal is the edge ideal I(H); and
    pd(S/I) is at least the largest height of a minimal prime of I, which
    for I(H) is the size of a minimal cover.

    When f < u_1 the collapse under the reversed order is built as well,
    and u is the lower claim, `first`'s on a tie; when f = u_1, C = u_1
    and nothing is reversed, so `ordered` is read only below u_1.  u
    replays at its claim, so it is C's certificate wherever C reaches it.
    Neither bound spends a node.
    """
    claim = first.claimed_d
    floor = _leray(x, 2, links, claim, least)
    if floor < claim:
        rev = _mes_certificate(ordered[::-1])
        if rev.claimed_d < claim:
            return floor, rev
    return floor, first


def _collapsibility(
    x: SimplicialComplex, budget: Budget, top: CollapseCertificate,
    floor: int,
) -> tuple[int, CollapseCertificate]:
    """`collapsibility_number_with_certificate` with its ceiling `top` and
    its floor, L(x; GF(2)) taken under that ceiling: d = floor, ...,
    u - 1 are searched with refute=False: no d is below the floor, so no
    "L(x) <= d?" scan could refute one."""
    for d in range(floor, top.claimed_d):
        ok, cert = is_d_collapsible(x, d, budget, refute=False)
        if ok:
            return d, cert
    return top.claimed_d, top


class FacetOrdering:
    """A total order on the facets of a fixed complex.  The constructor
    checks that the order is an iterable and a permutation of the
    complex's facets."""

    __slots__ = ("complex", "ordered_facets")

    def __init__(self, complex: SimplicialComplex, ordered_facets: Iterable):
        if not isinstance(ordered_facets, Iterable):
            raise TypeError(f"ordering {ordered_facets!r} is a "
                            f"{type(ordered_facets).__name__}, not an "
                            f"iterable of facets")
        ordered = tuple(map(as_face, ordered_facets))
        if sorted(map(int, ordered)) != [int(f) for f in complex.facets]:
            raise ValueError("ordering must be a permutation of the facets")
        self.complex = complex
        self.ordered_facets = ordered

    def __repr__(self):
        return f"FacetOrdering({list(self.ordered_facets)!r})"


def canonical_ordering(x: SimplicialComplex) -> FacetOrdering:
    """The facets in their canonical (increasing bitmask) order."""
    return FacetOrdering(x, x.facets)


def _mes_bits(g: int, ordered: tuple[int, ...]) -> Optional[list[int]]:
    """The mes of face g under these ordered facets as vertex bits (see
    `mes`), or None when no facet holds g: the kernel of `mes` and
    `d_of_ordering`.  `_mes_certificate` runs the same walk inline."""
    seq: list[int] = []
    used = 0
    for f in ordered:
        excluded = g & ~f
        if not excluded:
            return seq
        pick = excluded & used or excluded
        bit = pick & -pick
        seq.append(bit)
        used |= bit
    return None


def mes(gamma, ordering: FacetOrdering) -> tuple[int, ...]:
    """Minimal exclusion sequence of a face under a facet ordering.

    Null sequence when gamma is contained in the first facet; otherwise, with
    j the least index such that gamma fits in facet_j, the sequence has
    length j-1 and entry k is the least previously-used vertex still excluded
    from facet_k, falling back to the least excluded vertex overall.
    """
    bits = _mes_bits(int(as_face(gamma)), ordering.ordered_facets)
    if bits is None:
        raise NotAFaceError(f"{as_face(gamma)!r} is not a face of the complex")
    return tuple(b.bit_length() - 1 for b in bits)


def d_of_ordering(x: SimplicialComplex, ordering: FacetOrdering) -> int:
    """max over all faces of the number of distinct vertices in their mes,
    for an ordering of x's own facets."""
    if ordering.complex != x:
        raise ValueError("the ordering is of another complex")
    ordered = ordering.ordered_facets
    return max((len(set(_mes_bits(g, ordered)))
                for g in faces_of(x.facets, range(x.dim + 2))), default=0)


def _mes_certificate(ordered: tuple[int, ...]) -> CollapseCertificate:
    """The mes collapse of the complex X whose facet masks are `ordered`,
    in that order: a collapse of X at free faces of at most d(X, ordered)
    vertices (Matousek and Tancer, DCG 42, 2009, prove that it always
    finishes; it did in all 313,142 orders of the complexes on <= 5
    vertices with <= 5 facets, `tests/test_invariants.py mes-orders 5`).
    A build that gets stuck is a library bug: it raises `RuntimeError`
    naming the order and the facets it is stuck at by their label lists.
    The empty order is the empty collapse, claiming 0.

    The build is its own check: a step is taken only once `_is_free`
    passes and leaves del(M), as `CollapseCertificate.replay` does with
    `_deletion`, the walk ends only on the empty complex, and the claim is
    the largest step.  So the certificate it returns replays.

    With F_1, ..., F_m the ordered facets and M(G) the set of mes(G), the
    stages run j = m, ..., 1.  At stage j the facets G of the current
    complex private to F_j (inside F_j and no earlier facet) are taken
    largest first, ties by mask; the first with (M(G), G) free is collapsed,
    and the stage repeats until no private facet is left.  A face tau with
    M(G) <= tau <= G has M(tau) = M(G) (its mes walk meets the same
    excluded vertices), so the steps' intervals cover every face once and
    the largest |M(G)| over the steps, the claimed d, is d(X, ordered).
    Like `d_of_ordering` it spends no search nodes: it never backtracks.

    The walk is incremental and works on masks: it keeps the current
    facets and their ranked entries across steps, and the claim as it
    goes.  Each facet's entry comes from one pass over the ordered facets,
    the walk of `_mes_bits` without its list.  A step (M, G) removes G and
    inserts (`bisect`) each new facet G - v that
    `complexes._new_faces((G,), M, facets)` yields, the F - v rule of
    `_deletion`, so no step re-sorts the facets, and each face's mes is
    taken once, when it becomes a facet.  The certificate holds the steps
    as mask pairs, with no `FreePair` built.
    """
    # (-j, -|G|, G, M(G)), with F_{j+1} the first facet holding G: the
    # current stage's facets sort first, in the order tried
    def entry(g: int) -> tuple[int, int, int, int]:
        used = 0
        for j, f in enumerate(ordered):
            excluded = g & ~f
            if not excluded:
                break
            pick = excluded & used or excluded
            used |= pick & -pick
        return -j, -g.bit_count(), g, used

    # a collapse keeps every face's first facet or lowers it (G - v lies in
    # every facet that G does), so the stage is the least -j of the facets;
    # a face becomes a facet at most once, so each entry is built once
    # `_is_free`, `_new_faces` and the ranking read the facets in any order
    facets = list(ordered)
    ranked = sorted(map(entry, facets))
    steps: list[tuple[int, int]] = []
    claim = 0
    while ranked:
        stage = ranked[0][0]
        step = None
        for i, (j, _, g, m) in enumerate(ranked):
            if j != stage:
                break
            if _is_free(facets, m, g):
                step = i
                break
        if step is None:
            stuck = [list(vertices_of(g)) for j, _, g, _ in ranked
                     if j == stage]
            order = [list(vertices_of(f)) for f in ordered]
            raise RuntimeError(f"the mes collapse under the order {order} "
                               f"is stuck at the facets {stuck}")
        _, _, g, m = ranked.pop(step)
        steps.append((m, g))
        claim = max(claim, m.bit_count())
        # the step leaves del(M), as `_deletion` builds it; a new face
        # joins the facets at once, as no two G - v are nested
        facets.remove(g)
        for t in _new_faces((g,), m, facets):
            facets.append(t)
            bisect.insort(ranked, entry(t))
    return CollapseCertificate._of_masks(tuple(steps), claim)


class _MkEngine:
    """Memoized cutoff evaluation of M_k and M'_k.

    One engine per report, or per `mk` / `mk_chain` call: links and
    deletions of a complex share vertex labels, which is all the
    label-sensitive memo keys need.

    The recursion runs on canonical facet tuples of plain masks: `m` and
    `m_prime` take a complex and read its facets once, and every node below
    is a facet tuple.  A node's open k-faces are its k-faces outside the
    apex (`complexes._open_faces`), and its links and deletions come
    canonical from `complexes._link` and `complexes._deletion`, so no node
    builds a `SimplicialComplex`.  `_m` and `_mp` are generators: a node
    yields the child node it needs and is sent the child's value, and `m`
    and `m_prime` run the root on `errors._drive`, so a chain of links and
    deletions of any length takes no Python frame per node.

    M'_k(y) is the min over the open k-faces s of y of
    max(M'_k(lk s) + k + 1, M'_k(del s)), or, when y has no open k-face,
    0 for k = 0 and M_{k-1}(y) for k > 0.  A node `_mp(facets, k, beta)`
    takes a cutoff beta and returns the exact value when it is below beta,
    and otherwise a lower bound on it that is >= beta: a caller that only
    asks "is it below beta?" gets a true answer without the exact value.
    With cut = min(beta, best candidate so far), a node

    - returns k + 1 at once when it has open k-faces and beta <= k + 1,
      since every candidate is >= its link term >= k + 1;
    - asks the link for cutoff cut - k - 1, because a link term at or
      above cut cannot lower the min below cut (a max is never below its
      terms), and runs the deletion, with cutoff cut, only when the link
      term is below cut;
    - stops the scan once the best candidate equals k + 1 (at a floored
      root, once it meets the floor; see below);
    - returns beta itself when no candidate beats beta: every candidate,
      and so their min, is then >= beta.

    Candidates are tried in increasing mask order.  M_k is no node of its
    own: M_0 = M'_0 and M_k = min(M'_k, M_{k-1}) make M_k(y) the least of
    M'_0(y), ..., M'_k(y), and above dim y there is no k-face, so there
    M'_k = M_{k-1}.  `_m` takes that running min in one loop over
    j = 0, ..., min(k, dim y), each M'_j with cutoff min(beta, the min so
    far), so the engine clamps k itself and any k costs what
    k = max(dim y, 0) does.  A candidate is skipped only when a bound shows
    it is >= cut, so every value below the cutoff is exact, and `m` and
    `m_prime` call the root with beta = inf.

    `m(y, k, floor=f)` takes a root-only floor f <= C(y), such as
    L(y; GF(2)) (Wegner 1975); None, the default, is no floor.  Every
    candidate of y's M'_k scan is >= M'_k(y) >= C(y) >= f, and so is every
    M_j(y), since C <= M_j <= M'_j.  So the root's M'_k scan stops at the
    first candidate <= max(k + 1, f), which is then M'_k(y), and the
    root's running min stops, expanding no further M'_j, once it is
    <= f.  Both stay exact.  The floor reaches the root's own M'_j nodes,
    but no link or deletion: it is a bound for y only.  A report asking C
    passes C's floor, and asks nothing where that floor meets its ceiling
    d(y, <) >= M_0(y); the public functions pass none, since taking the
    floor costs more there than it saves.

    The memo maps a node (facets, k) of M'_k to (value, exact).  A
    lookup returns an exact entry, or a bound entry when its bound is >=
    the caller's beta; any other bound entry is expanded again.  Entries
    are written only when a node finishes, so each is true whatever budget
    the engine had, and a report can hand the engine each invariant's
    budget in turn.  The budget is spent once per expanded node.
    """

    def __init__(self, budget: Optional[Budget] = None):
        self.budget = budget or Budget()
        self._memo: dict[tuple, tuple[int, bool]] = {}

    def m(self, y: SimplicialComplex, k: int,
          floor: Optional[int] = None) -> int:
        return _drive(self._m(tuple(map(int, y.facets)), k, math.inf, floor))

    def m_prime(self, y: SimplicialComplex, k: int) -> int:
        return _drive(self._mp(tuple(map(int, y.facets)), k, math.inf))

    def _m(self, facets: tuple[int, ...], k: int, beta, floor=None):
        val = yield self._mp(facets, 0, beta, floor)
        dim = max(map(int.bit_count, facets), default=0) - 1
        for j in range(1, min(k, dim) + 1):
            if floor is not None and val <= floor:
                break
            val = min(val, (yield self._mp(facets, j, min(beta, val), floor)))
        return val

    def _mp(self, facets: tuple[int, ...], k: int, beta, floor=None):
        hit = self._memo.get((facets, k))
        if hit is not None and (hit[1] or hit[0] >= beta):
            return hit[0]
        self.budget.spend()
        open_k = _open_faces(facets, k)
        if not open_k:
            val = 0 if k == 0 else (yield self._m(facets, k - 1, beta, floor))
        elif beta <= k + 1:
            val = k + 1
        else:
            # best: the least candidate below beta; every candidate cut
            # off is >= beta or >= best, and none is below `low`
            best = math.inf
            low = k + 1 if floor is None else max(k + 1, floor)
            for s in open_k:
                cut = min(beta, best)
                cand = (yield self._mp(_link(facets, s), k,
                                       cut - k - 1)) + k + 1
                if cand < cut:
                    cand = max(cand, (yield self._mp(_deletion(facets, s),
                                                     k, cut)))
                if cand < cut:
                    best = cand
                    if best <= low:
                        break
            val = min(best, beta)
        self._memo[(facets, k)] = (val, val < beta)
        return val


def m0(x: SimplicialComplex, budget: Optional[Budget] = None) -> int:
    """The recursive vertex bound: 0 for cones/simplices, else min over
    non-cone vertices of max(m0(link)+1, m0(deletion))."""
    return _MkEngine(budget).m(x, 0)


def mk(x: SimplicialComplex, k: int, budget: Optional[Budget] = None) -> int:
    """M_k(x) = min(M'_k(x), M_{k-1}(x)), with M_0 = M'_0; an upper bound
    on the collapsibility number that never increases with k.

    Above the dimension x has no k-faces, so M'_k = M_{k-1} and M_k =
    M_{max(dim, 0)}: the engine reads such a k as the dimension, so a huge
    k costs what k = max(dim, 0) does."""
    _check_count(k, "k")
    return _MkEngine(budget).m(x, k)


def mk_prime(x: SimplicialComplex, k: int, budget: Optional[Budget] = None) -> int:
    """M'_k(x): the min over open k-faces s of
    max(M'_k(lk s) + k + 1, M'_k(del s)); 0 (k = 0) or M_{k-1}(x) (k > 0)
    when x has no open k-face, so M_{max(dim, 0)}(x) for every k > dim,
    which it asks `mk` for without a node of its own."""
    _check_count(k, "k")
    if k > x.dim:
        return mk(x, k, budget)
    return _MkEngine(budget).m_prime(x, k)


def mk_chain(
    x: SimplicialComplex, k_max: int, budget: Optional[Budget] = None
) -> list[int]:
    """[M_0(x), ..., M_{k_max}(x)] computed with one shared memo table; a
    k past the dimension spends no node (see `mk`)."""
    _check_count(k_max, "k_max")
    engine = _MkEngine(budget)
    return [engine.m(x, k) for k in range(k_max + 1)]
