"""Invariant reports, the theorem probes and their verification registry,
and conjecture search.

Reports are plain dicts serialized as sorted-key JSON, so identical
(instance, flags) give byte-identical output.  Every witness placed in
a report re-validates against the instance through the library predicates.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from typing import Callable, Optional

from . import hypergraphs as hg
from .complexes import (
    Face,
    FreePair,
    SimplicialComplex,
    _deletion,
    _face,
    _link,
    as_face,
    faces_of,
    mask_of,
    vertices_of,
)
from .errors import (
    DEFAULT_NODE_BUDGET,
    Budget,
    BudgetExceededError,
    HypothesisNotMetError,
    IsolatedVertexError,
    NotAFaceError,
    NotPureError,
    UndominatableError,
    _check_count,
    _check_limit,
)
from .generators import (_HYPERGRAPH_KINDS, SEEDLESS_KINDS, GeneratorSpec,
                         _check_spec, generate)
from .homology import (
    LERAY_VERTEX_CAP,
    Field,
    _leray,
    _leray_induced,
    _low_betti,
    _parse_field,
    _shed,
    is_cohen_macaulay,
    is_cohen_macaulay_induced,
    is_k_vertex_decomposable,
    is_shellable,
    leray_number,
    reduced_betti,
)
from .hypergraphs import Hypergraph, non_cover_complex
from .invariants import (
    CollapseCertificate,
    FacetOrdering,
    canonical_ordering,
    collapsibility_number,
    collapsibility_number_with_certificate,
    d_of_ordering,
    is_d_collapsible,
    mes,
    mk_chain,
    _bounds,
    _collapsibility,
    _mes_certificate,
    _MkEngine,
)
# instance_to_json stays importable from here: the bench reads it
from .io import instance_to_json, instance_to_obj  # noqa: F401

SCHEMA_VERSION = 1


def certificate_from_obj(obj) -> CollapseCertificate:
    steps = tuple(
        FreePair(Face.of(g), Face.of(s)) for g, s in obj["steps"]
    )
    return CollapseCertificate(steps, obj["claimed_d"])


def _descriptor(inst) -> dict:
    obj = instance_to_obj(inst)
    payload = json.dumps(obj, sort_keys=True).encode()
    kind = "complex" if isinstance(inst, SimplicialComplex) else "hypergraph"
    return {
        "format": kind,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "content": obj,
    }


# -- invariant registry ----------------------------------------------------

class _Evaluation:
    """What the invariants of one report share: the instance, the field
    and its parse `p`, the running invariant's budget, the witnesses, the
    link cache of the complex the collapse invariants read (the instance,
    or NC(H) for a hypergraph), and, each built once on first use, the M_k
    engine, that complex, its facet order < and the mes collapse under
    that order (`mes_collapse`), built and checked in one walk that always
    finishes (`invariants._mes_certificate`): d_mes is read from its claim
    d(X, <).

    The link cache is the report's one homology pass: the complex's
    closed-face links and their ranks, which the Leray scans, the Betti
    numbers and the Cohen-Macaulay test all read.  `bounds` is C's floor
    L(X; GF(2)) and ceiling, taken once from that collapse and the link
    cache (`invariants._bounds`) when the report names C (`asks_c`); a
    report without C takes neither.  The floor is read as a value by C, by
    M_k as its root floor (`_MkEngine`), or as M_k itself where it meets
    the ceiling's claim u (C <= M_k <= M_0 <= d(X, <') for every order
    <'), by the Leray number as its answer or its cap (`_inv_leray`),
    and by the Betti numbers as the degree their homology stops below
    (`_inv_betti`).  Wegner's d = 1 theorem makes a low floor cheap
    (`homology._leray` states the rule): a floor below 2 takes
    no scan, a floor of 2 that meets u none either, and where the floor
    is at most 2 the report reads the rational Leray number and the Betti
    numbers over Q and GF(2) with no rank.  The bounds spend no nodes, so
    no value or node count depends on which invariant reads them first.

    `least` is a floor for the Leray number of that complex over every
    field, which the bounds and the Leray number start from: 0 for a
    complex, and for NC(H) max |D| - 1 over H's minimal covers, read off
    H's kept cover walk with no node spent and 0 where that walk takes
    more than the report's `limit` (`hypergraphs._nc_leray_floor`)."""

    def __init__(self, inst, field, limit: int):
        self.inst = inst
        self.field = field
        self.limit = limit
        # a bad field fails here, also when no requested invariant reads it
        self.p = _parse_field(field)
        self.budget: Optional[Budget] = None
        self.witnesses: dict = {}
        self.links: dict = {}
        self.asks_c = False
        # the NC invariants of a hypergraph report under prefixed keys
        self.prefix = "" if isinstance(inst, SimplicialComplex) else "nc_"

    @functools.cached_property
    def engine(self) -> _MkEngine:
        return _MkEngine()

    @functools.cached_property
    def complex(self) -> SimplicialComplex:
        return non_cover_complex(self.inst) if self.prefix else self.inst

    @functools.cached_property
    def facet_order(self) -> FacetOrdering:
        if self.prefix:
            return hg._nc_facet_order(self.inst, self.complex)
        return canonical_ordering(self.inst)

    @functools.cached_property
    def mes_collapse(self) -> CollapseCertificate:
        # an empty NC(H) has no facet order; the empty complex's mes
        # collapse is the empty one, claiming 0
        if not self.complex.facets:
            return CollapseCertificate((), 0)
        return _mes_certificate(self.complex, self.facet_order)

    @functools.cached_property
    def least(self) -> int:
        return hg._nc_leray_floor(self.inst, self.limit) if self.prefix else 0

    @functools.cached_property
    def bounds(self) -> tuple:
        """C's floor and ceiling when the report asks C, else (None, None).
        An empty NC(H) has no facet order: its floor meets the claim 0, so
        `_bounds` reverses none and reads none."""
        if not self.asks_c:
            return None, None
        order = self.facet_order if self.complex.facets else None
        return _bounds(self.complex, order, self.mes_collapse, self.links,
                       self.least)

    def mk(self, k: int) -> int:
        # L <= C <= M_k <= M_0 <= d(X, <') for every order <': a floor
        # that meets C's ceiling settles M_k
        floor, ceiling = self.bounds
        if floor is not None and floor == ceiling.claimed_d:
            return floor
        self.engine.budget = self.budget
        return self.engine.m(self.inst, k, floor=floor)


def _inv_C(ev):
    floor, ceiling = ev.bounds
    d, cert = _collapsibility(ev.complex, ev.budget, ceiling, floor)
    ev.witnesses[ev.prefix + "collapse_certificate"] = {
        "claimed_d": cert.claimed_d,
        "steps": [[list(p.free_face.vertices), list(p.facet.vertices)]
                  for p in cert.steps],
    }
    return d


def _inv_d(ev):
    order = ev.facet_order
    ev.witnesses[ev.prefix + "facet_ordering"] = [
        list(f.vertices) for f in order.ordered_facets]
    # the checked mes collapse claims exactly d(X, order), so no face walk
    return ev.mes_collapse.claimed_d


def _inv_betti(ev):
    """The reduced Betti numbers of the complex.  Where the report asks C
    and the field is Q or GF(2), C's floor f = L(X; GF(2)) <= 2 bounds
    the degrees: X is an induced subcomplex of itself and L(X; Q) <=
    L(X; GF(2)), so b~_t = 0 for t >= f, and `homology._low_betti` counts
    b~_0 and b~_1 with no rank (components, and the reduced Euler
    characteristic).  Any other report ranks (`reduced_betti`)."""
    floor = ev.bounds[0]
    if floor is not None and floor <= 2 and ev.p in (None, 2):
        b = _low_betti(ev.inst, ev.field, floor)
    else:
        b = reduced_betti(ev.inst, ev.field, ev.links)
    return {"field": b.coefficient_field, "rank_neg1": b.rank_neg1,
            "ranks": list(b.ranks)}


def _inv_shellable(ev):
    ok, order = is_shellable(ev.inst, ev.budget)
    if ok:
        ev.witnesses["shelling_order"] = [list(f.vertices) for f in order]
    return ok


def _inv_kvd(k):
    def run(ev):
        ok, wit = is_k_vertex_decomposable(ev.inst, k, ev.budget, ev.links)
        if ok:
            ev.witnesses[f"shedding_sequence_k{k}"] = [
                [list(w.face.vertices), w.dim_bound] for w in wit
            ]
        return ok
    return run


def _inv_gamma(name, fn):
    def run(ev):
        res = fn(ev.inst, ev.budget)
        ev.witnesses[name + "_witness"] = {
            "witness": [list(w) if isinstance(w, tuple) else w
                        for w in res.witness],
            "target": list(res.target),
        }
        return res.value
    return run


def _inv_leray(ev):
    """The Leray number, read off C's floor f = L(X; GF(2)) and ceiling u
    (`invariants._bounds`) when the report asks C.  Over GF(2) it is f.
    Over Q it is f when f <= 2: L(X; Q) <= f, since b_i(Q) <= b_i(GF(2))
    on every link, and below 2 L is the same over every field (the rule
    of `homology._leray`, the one home of every Leray number).  Over an
    odd prime field it is f when f <= 1.  Any other question goes to
    `_leray` floored at max(least, 2): over Q capped at f, over an odd
    prime field at u >= C (a u-collapsible complex is u-Leray over every
    field; Wegner 1975).  A hypergraph report without C asks it capped at
    the nc order's claim d(NC(H), <) >= C (`mes_collapse`) and floored at
    `least`, and a complex report without C asks `leray_number`, which is
    `_leray` capped at dim + 1."""
    x, p = ev.complex, ev.p
    floor, ceiling = ev.bounds
    if floor is None:
        if not ev.prefix:
            return leray_number(x, ev.field, ev.links)
        return _leray(x, p, ev.links, ev.mes_collapse.claimed_d, ev.least)
    if p == 2 or floor <= (2 if p is None else 1):
        return floor
    cap = floor if p is None else ceiling.claimed_d
    return _leray(x, p, ev.links, cap, max(ev.least, 2))


COMPLEX_INVARIANTS = {
    "C": _inv_C,
    "M0": lambda ev: ev.mk(0),
    "M1": lambda ev: ev.mk(1),
    "M2": lambda ev: ev.mk(2),
    "d_mes": _inv_d,
    "leray": _inv_leray,
    "betti": _inv_betti,
    "shellable": _inv_shellable,
    "cohen_macaulay": lambda ev: is_cohen_macaulay(ev.inst, ev.field,
                                                   ev.links),
    "kvd0": _inv_kvd(0),
    "kvd1": _inv_kvd(1),
    "kvd2": _inv_kvd(2),
}

HYPERGRAPH_INVARIANTS = {
    "gamma_i": _inv_gamma("gamma_i", hg.gamma_i),
    "gamma_tilde": _inv_gamma("gamma_tilde", hg.gamma_tilde),
    "gamma_si": _inv_gamma("gamma_si", hg.gamma_si),
    "gamma_E": _inv_gamma("gamma_E", hg.gamma_E),
    "nc_C": _inv_C,
    "nc_d": _inv_d,
    "nc_leray": _inv_leray,
}


def compute(
    inst,
    which: Optional[list[str]] = None,
    budget_limit: int = DEFAULT_NODE_BUDGET,
    field="Q",
) -> dict:
    """Evaluate the requested invariants and return a report dict.

    The invariants share one M_k engine and one NC(H), but each spends its
    own budget of `budget_limit` nodes.  Budget exhaustion and unmet
    hypotheses (isolated vertices, an undominatable target, a non-pure
    complex, no NC(H) or no facet order on it) are recorded per invariant
    and do not abort the rest.  An unknown or repeated name raises
    KeyError, a `which` that is not None, a list or a tuple TypeError, and
    a `budget_limit` that is not a positive int TypeError or ValueError
    (`errors._check_limit`), before anything is computed.  The report
    keeps the order of `which`, so a set, whose order of strings differs
    between processes, is refused too.
    """
    if not (which is None or isinstance(which, (list, tuple))):
        raise TypeError(f"which must be a list of invariant names, a tuple "
                        f"of them or None, not {type(which).__name__}")
    _check_limit(budget_limit)
    ev = _Evaluation(inst, field, budget_limit)
    registry = HYPERGRAPH_INVARIANTS if ev.prefix else COMPLEX_INVARIANTS
    if which is None or list(which) == ["all"]:
        which = list(registry)
    unknown = [name for name in which if name not in registry]
    if unknown:
        raise KeyError(f"unknown invariant(s) {unknown}; "
                       f"known: {sorted(registry)}")
    # a repeat would be reported once but computed and counted twice
    repeated = sorted({name for name in which if which.count(name) > 1})
    if repeated:
        raise KeyError(f"duplicate invariant(s) {repeated}")
    ev.asks_c = ev.prefix + "C" in which
    values: dict = {}
    exhausted = []
    not_applicable = {}
    used = 0
    for name in which:
        ev.budget = Budget(budget_limit)
        try:
            values[name] = registry[name](ev)
        except BudgetExceededError:
            exhausted.append(name)
        except (IsolatedVertexError, UndominatableError, NotPureError,
                HypothesisNotMetError) as exc:
            not_applicable[name] = str(exc)
        used += ev.budget.used
    report = {
        "schema": SCHEMA_VERSION,
        "instance": _descriptor(inst),
        "values": values,
        "witnesses": ev.witnesses,
        "budget": {"limit_per_invariant": budget_limit, "used_total": used,
                   "exhausted": exhausted},
        "field": field if isinstance(field, str) else str(field),
    }
    if not_applicable:
        report["not_applicable"] = not_applicable
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


# -- probes: one instance of a claim, checked exactly -----------------------

def claim_inequality_check(
    x: SimplicialComplex, sigma, budget: Optional[Budget] = None
) -> bool:
    """C(X) <= max(C(del(s,X)), C(lk(s,X)) + k + 1) for a k-face s."""
    s = as_face(sigma)
    if s not in x:
        raise NotAFaceError(f"{s!r} is not a face of the complex")
    if s.dim < 0:
        raise ValueError("sigma must be nonempty")
    return _first_claim_failure(x, [s], budget or Budget()) is None


def _first_claim_failure(x: SimplicialComplex, faces, budget: Budget):
    """The first of the nonempty faces s of x at which the claim inequality
    fails, or None.

    C(X) = c is computed once for all of them.  At a k-face s the claim
    fails, c > max(C(del s), C(lk s) + k + 1), exactly when C(lk s) <= t
    with t = c - k - 2 and C(del s) <= c - 1.  So no face needs a full
    collapsibility number: a face with t < 0 holds without a search, and
    otherwise the link is asked at t and, only if it answers yes, the
    deletion at c - 1, each by `is_d_collapsible`: one collapse search,
    exact because d-collapsibility is monotone in d, and none where the
    bounded GF(2) Leray scan asking "L <= t?" says no, as L <= C.
    """
    c = collapsibility_number(x, budget)
    for s in faces:
        t = c - s.dim - 2
        if (t >= 0 and is_d_collapsible(x.link(s), t, budget)[0]
                and is_d_collapsible(x.deletion(s), c - 1, budget)[0]):
            return s
    return None


def tancer_inequality_check(
    x: SimplicialComplex, v, budget: Optional[Budget] = None
) -> bool:
    """C(X) <= max(C(del(v,X)), C(lk(v,X)) + 1) for a vertex v: the claim
    inequality at k = 0."""
    vv = as_face(v)
    if vv.bit_count() != 1:
        raise ValueError("expected a single vertex")
    return claim_inequality_check(x, vv, budget)


def shedding_leray_inequality_check(
    x: SimplicialComplex, sigma, field: Field = "Q"
) -> bool:
    """L(X) >= max(L(del), L(lk) + k + 1) for a shedding k-face whose
    deletion is Cohen-Macaulay; a bad field raises ValueError first, and
    hypothesis failures raise, they are never reported as False.  The
    hypotheses are tested before either side is ranked.  L(X) is ranked
    in full and both sides of the right are bounded scans against it
    (`_shedding_leray_holds`).  The Cohen-Macaulay test and the Leray
    scans share one link cache, so the deletion's links are listed and
    ranked once."""
    s = as_face(sigma)
    p = _parse_field(field)
    if s not in x or s.dim < 0:
        raise HypothesisNotMetError("sigma must be a nonempty face of x")
    if not x.is_pure():
        raise HypothesisNotMetError("x must be pure")
    kept = _shed(x.facets, s)
    if kept is None:
        raise HypothesisNotMetError("sigma is not a shedding face")
    dele = SimplicialComplex._of_canonical(kept)
    cache: dict = {}
    if not is_cohen_macaulay(dele, field, cache):
        raise HypothesisNotMetError("deletion(sigma, x) is not Cohen-Macaulay")
    return _shedding_leray_holds(x, s, dele, p, cache,
                                 leray_number(x, field, cache))


def _shedding_leray_holds(x: SimplicialComplex, s: Face,
                          dele: SimplicialComplex, p: Optional[int],
                          cache: dict, lhs: int) -> bool:
    """lhs >= max(L(del s), L(lk s) + k + 1) over Q (p None) or GF(p), for
    a k-face s of x whose deletion is dele and lhs = L(X); it tests no
    hypothesis.  Neither side is ranked in full: each is a bounded Leray
    question floored at its bound b and capped at b + 1
    (`homology._leray`, which states the rule below 2), which
    answers "L <= b?" and skips every link that cannot raise L above b.
    The link's bound lhs - k - 1 is below 0 exactly when no Leray number
    can meet it; the link, the smaller complex, is asked before the
    deletion.  Both read the link cache `cache`."""
    b = lhs - s.dim - 1
    return (b >= 0 and _leray(x.link(s), p, cache, b + 1, b) <= b
            and _leray(dele, p, cache, lhs + 1, lhs) <= lhs)


def neighbor_inequality_check(h: Hypergraph, cover, subset) -> bool:
    """|N(S) & complement(D)| - |S| <= |complement(D)| - gamma_{complement(D)}
    for S inside a minimal cover D."""
    dm = int(as_face(cover))
    sm = int(as_face(subset))
    if not h._is_minimal_cover(dm):
        raise HypothesisNotMetError("D must be an inclusion-minimal cover")
    if sm & ~dm:
        raise HypothesisNotMetError("S must be a subset of D")
    dbar = h.vertex_mask & ~dm
    return _neighbor_lhs(h, dbar, sm) <= _neighbor_rhs(h, dbar)


def _neighbor_lhs(h: Hypergraph, dbar: int, sm: int) -> int:
    """|N(S) & complement(D)| - |S|, the side that varies with S."""
    return (h._nbr_mask(sm) & dbar).bit_count() - sm.bit_count()


def _neighbor_rhs(h: Hypergraph, dbar: int,
                  budget: Optional[Budget] = None) -> int:
    """|complement(D)| - gamma_{complement(D)}, one value per cover D."""
    return dbar.bit_count() - hg.gamma_A(h, dbar, budget).value


def _mes_class(relabeled: Hypergraph, dm: int, gamma: int) -> tuple[int, bool]:
    """The mes-equal class of a face gamma of NC(H), H relabeled so its
    maximizing minimal cover is dm: gamma's complement inside the cover,
    and whether that complement holds an edge (the claim's hypothesis)."""
    key = relabeled.vertex_mask & ~gamma & dm
    return key, not relabeled.is_independent(key)


def mes_equal_check(h: Hypergraph, gamma, gamma_prime) -> bool:
    """After relabeling the maximizing minimal cover D to {1..|D|}: if the
    two faces of NC(H) have the same complement inside D and the induced
    sub-hypergraph on that complement contains an edge, their minimal
    exclusion sequences under the NC facet order must coincide.  Both
    faces must lie in 1..n."""
    m1, m2 = h._vertex_set(gamma), h._vertex_set(gamma_prime)
    relabeled, perm, dm, order = hg._cover_relabeling(h)
    g1 = mask_of(perm[v] for v in vertices_of(m1))
    g2 = mask_of(perm[v] for v in vertices_of(m2))
    if g1 not in order.complex or g2 not in order.complex:
        raise HypothesisNotMetError("both faces must lie in NC(H)")
    c1, has_edge = _mes_class(relabeled, dm, g1)
    if c1 != _mes_class(relabeled, dm, g2)[0]:
        raise HypothesisNotMetError("complements must agree inside the cover")
    if not has_edge:
        raise HypothesisNotMetError(
            "induced sub-hypergraph on the cover part contains no edge"
        )
    return mes(g1, order) == mes(g2, order)


# -- theorem registry ------------------------------------------------------

class Counterexample(Exception):
    def __init__(self, inst, detail: str):
        super().__init__(detail)
        self.instance = inst
        self.detail = detail


def _trial_instance(spec: GeneratorSpec, index: int):
    return generate(replace(spec, seed=(spec.seed * 1_000_003 + index)))


def _chk(cond: bool, inst, detail: Callable[[], str]):
    """Raise a counterexample at inst unless cond holds; the detail text is
    built only then, since most checks pass."""
    if not cond:
        raise Counterexample(inst, detail())


def _check_m0_le_d(x: SimplicialComplex, m0_: int,
                   rng: Callable[[], random.Random]):
    """M0(X) <= d(X, <) for three facet orders < drawn from one stream,
    the trial's: `rng` is the factory `verify` hands the probe, called
    once here."""
    stream = rng()
    for _ in range(3):
        perm = list(x.facets)
        stream.shuffle(perm)
        order = FacetOrdering(x, perm)
        d = d_of_ordering(x, order)
        _chk(m0_ <= d, x, lambda: f"M0={m0_} > d={d} for {order!r}")


def _thm_nc_bound(h: Hypergraph, rng, budget) -> str:
    """Source: this paper, C(NC(H)) <= d(NC(H), <) <= |V| - gamma_i(H) - 1."""
    # one maximizing cover gives gamma_i and, relabeled to an initial
    # segment, the facet order the d bound needs (as in `nc_bound_order`)
    h._forbid_isolated()
    cover, gi = hg._maximizing_cover(h, budget)
    bound = h.n - gi.value - 1
    try:
        order = hg.nc_facet_order(hg.cover_initial_relabeling(h, cover)[0])
    except HypothesisNotMetError:  # NC(H) is empty
        _chk(0 <= bound, h, lambda: f"NC empty but bound {bound} < 0")
        return "pass"
    nc = order.complex
    d = d_of_ordering(nc, order)
    # the collapse behind C <= d, C's first ceiling, must replay and claim
    # the face walk's d
    first = _mes_certificate(nc, order)
    _chk(first.replay(nc) and first.claimed_d == d,
         h, lambda: f"the mes collapse does not replay at d={d} for {order!r}")
    # the kept cover walk gives C's floor its start, max |D| - 1
    floor, ceiling = _bounds(nc, order, first, None,
                             hg._nc_leray_floor(h, budget.limit))
    c, _ = _collapsibility(nc, budget, ceiling, floor)
    _chk(c <= d <= bound, h, lambda: f"C={c}, d={d}, |V|-gamma_i-1={bound}")
    return "pass"


def _thm_mk_chain(x: SimplicialComplex, rng, budget) -> str:
    """Source: this paper, L <= C <= M_2 <= M_1 <= M_0 <= d(X, <)."""
    l = leray_number(x)
    c, _ = collapsibility_number_with_certificate(x, budget)
    m0_, m1_, m2_ = mk_chain(x, 2, budget)
    _chk(l <= c <= m2_ <= m1_ <= m0_, x,
         lambda: f"L={l}, C={c}, M2={m2_}, M1={m1_}, M0={m0_}")
    _check_m0_le_d(x, m0_, rng)
    return "pass"


def _thm_m0_le_mes(x: SimplicialComplex, rng, budget) -> str:
    """Source: this paper, M_0(X) <= d(X, <) of Matousek and Tancer."""
    _check_m0_le_d(x, mk_chain(x, 0, budget)[0], rng)
    return "pass"


def _thm_kvd_equality(x: SimplicialComplex, rng, budget) -> str:
    """Source: this paper, C = M_k = M'_k on a k-vertex decomposable X."""
    # the equality is tied to the least k admitting a shedding sequence:
    # whenever open k-faces exist, M'_k pays k+1 and can overshoot C on
    # complexes that are already (k-1)-decomposable, e.g. the two
    # triangles {123},{234} have C = M_1 = 1 but M'_1 = 2.  A non-pure X
    # is outside the hypothesis: decomposability is defined for pure ones
    if not x.is_pure():
        return "skip"
    k = None
    cache: dict = {}
    for candidate in (0, 1):
        ok, _ = is_k_vertex_decomposable(x, candidate, budget, cache)
        if ok:
            k = candidate
            break
    if k is None:
        return "skip"
    c, _ = collapsibility_number_with_certificate(x, budget)
    engine = _MkEngine(budget)
    mkv = engine.m(x, k)
    mkp = engine.m_prime(x, k)
    _chk(c == mkv == mkp, x, lambda: f"k={k}: C={c}, M_k={mkv}, M'_k={mkp}")
    return "pass"


def _thm_gamma_si_eq(h: Hypergraph, rng, budget) -> str:
    """Source: Kim and Kim's gamma_si, which is gamma_i on a graph."""
    if any(e.bit_count() > 2 for e in h.edges):
        return "skip"
    gi = hg.gamma_i(h, budget).value
    gsi = hg.gamma_si(h, budget).value
    _chk(gi == gsi, h, lambda: f"gamma_i={gi} != gamma_si={gsi}")
    return "pass"


def _thm_tancer(x: SimplicialComplex, rng, budget) -> str:
    """Source: Tancer, C <= max(C(del v), C(lk v) + 1) at a vertex v."""
    s = _first_claim_failure(x, [Face(1 << v) for v in x.vertices], budget)
    if s is not None:
        raise Counterexample(
            x, f"Tancer inequality fails at vertex {s.vertices[0]}")
    return "pass"


def _thm_claim(x: SimplicialComplex, rng, budget) -> str:
    """Source: this paper, the claim inequality at faces of dim <= 2."""
    faces = [sigma for k in range(0, min(x.dim, 2) + 1)
             for sigma in sorted(x.faces(k))]
    sigma = _first_claim_failure(x, faces, budget)
    _chk(sigma is None, x, lambda: f"claim inequality fails at {sigma!r}")
    return "pass"


def _thm_link_del_commute(x: SimplicialComplex, rng, budget) -> str:
    """Implementation check: lk(t, del(s, X)) = del(s, lk(t, X)), on the
    facet-mask kernels `_link` and `_deletion` that every search uses
    (`tests/test_complexes.py` covers the public wrappers).

    Every face is listed once as a mask, in increasing mask order (the
    empty face first), and every face's link is taken once before the
    pairs.  Each pair (s, t) of disjoint faces, s nonempty, compares
    `_link(del s, t)` with `_deletion(lk t, s)`, after checking that a
    nonempty t lies in del s (it is disjoint from s).  A `Face` is built
    only for the detail of a counterexample."""
    facets = x.facets
    faces = sorted(faces_of(facets, range(x.dim + 2)))
    links = {tau: _link(facets, tau) for tau in faces}
    for sigma in faces[1:]:
        dele = _deletion(facets, sigma)
        for tau in faces:
            if sigma & tau:
                continue
            if tau:
                for f in dele:
                    if not tau & ~f:
                        break
                else:
                    raise Counterexample(x, f"{_face(tau)!r} is not in del "
                                            f"{_face(sigma)!r}")
            if _link(dele, tau) != _deletion(links[tau], sigma):
                raise Counterexample(
                    x, f"link/deletion commutativity fails for "
                       f"{_face(sigma)!r},{_face(tau)!r}")
    return "pass"


def _thm_open_faces_simplex(x: SimplicialComplex, rng, budget) -> str:
    """Implementation check: only a simplex lacks open k-faces."""
    for k in range(0, x.dim + 1):
        if not x.open_faces(k):
            _chk(x.is_simplex, x,
                 lambda: f"open {k}-faces empty on a non-simplex")
    return "pass"


def _thm_neighbor_inequality(h: Hypergraph, rng, budget) -> str:
    """Source: this paper, the neighbor inequality in a minimal cover."""
    # each cover is minimal by construction, and its right-hand side does
    # not depend on S, so it is computed once per cover
    for cover in h.minimal_covers(budget):
        dbar = h.vertex_mask & ~mask_of(cover)
        rhs = _neighbor_rhs(h, dbar, budget)
        for r in range(len(cover) + 1):
            for s in itertools.combinations(cover, r):
                _chk(_neighbor_lhs(h, dbar, mask_of(s)) <= rhs, h,
                     lambda: f"neighbor inequality fails: D={cover}, S={s}")
    return "pass"


def _thm_mes_equal(h: Hypergraph, rng, budget) -> str:
    """Source: this paper, Matousek-Tancer mes constant on a cover class."""
    try:
        relabeled, _, dm, order = hg._cover_relabeling(h, budget)
    except ValueError:  # edgeless H, empty NC(H) or an undominatable cover
        return "skip"
    groups: dict[int, set] = {}
    for gamma in order.complex.all_faces():
        key, has_edge = _mes_class(relabeled, dm, gamma)
        if has_edge:
            groups.setdefault(key, set()).add(mes(gamma, order))
    for key, seqs in groups.items():
        _chk(len(seqs) == 1, h,
             lambda: f"mes not constant on cover-complement class "
                     f"{key:b}: {seqs}")
    return "pass"


def _thm_leray_methods(x: SimplicialComplex, rng, budget) -> str:
    """Implementation check: Leray by links equals Leray by induced."""
    if x.vertex_mask.bit_count() > LERAY_VERTEX_CAP:
        return "skip"  # the induced oracle reads 2^n subcomplexes
    links, induced = leray_number(x), _leray_induced(x)
    _chk(links == induced, x,
         lambda: f"Leray by links {links} != induced {induced}")
    return "pass"


def _thm_cm_equivalence(x: SimplicialComplex, rng, budget) -> str:
    """Source: Reisner's link criterion, which induced CM implies."""
    # one-directional: induced homological connectivity forces Reisner's
    # criterion, but not conversely ({145},{345},{156} satisfies the link
    # condition while its induced subcomplex on {1,3,6} is disconnected)
    pure = x.pure_skeleton(x.dim) if not x.is_pure() else x
    if (pure.vertex_mask.bit_count() > LERAY_VERTEX_CAP
            or not is_cohen_macaulay_induced(pure)):
        return "skip"
    _chk(is_cohen_macaulay(pure), pure, lambda: "induced-CM but not links-CM")
    return "pass"


def _thm_shed_leray(x: SimplicialComplex, rng, budget) -> str:
    """Source: this paper, the Leray inequality at a shedding face.

    The outcome is "pass" once some shedding face of X whose deletion is
    Cohen-Macaulay meets the inequality, "skip" when no face meets the
    hypotheses, and a counterexample at the first face that meets them
    and fails it.  So the Cohen-Macaulay test of a deletion is read only
    where it can change that outcome.  Until some face has counted, each
    shedding face is tested first and ranked only if its deletion is
    Cohen-Macaulay.  After that, a face is ranked first, and its deletion
    is tested only where the inequality fails, to tell a skip from a
    counterexample: where the inequality holds, the face adds nothing to
    a run that already passes.  The outcome and the first failing face
    are those of testing every face first."""
    # L(X) is ranked once, and only once some face meets the hypotheses;
    # one link cache serves the kvd1 hypothesis, every face and L(X) (its
    # keys are facet tuples and complexes, so the links of different
    # complexes never mix).  A non-pure X is not 1-decomposable.
    if not x.is_pure():
        return "skip"
    cache: dict = {}
    ok, _ = is_k_vertex_decomposable(x, 1, budget, cache)
    if not ok:
        return "skip"
    lhs = functools.cache(lambda: leray_number(x, "Q", cache))
    checked = False
    for k in range(0, min(x.dim, 1) + 1):
        for sigma in sorted(x.faces(k)):
            kept = _shed(x.facets, sigma)
            if kept is None:
                continue
            dele = SimplicialComplex._of_canonical(kept)
            if not checked and not is_cohen_macaulay(dele, "Q", cache):
                continue
            _chk(_shedding_leray_holds(x, sigma, dele, None, cache, lhs())
                 or checked and not is_cohen_macaulay(dele, "Q", cache), x,
                 lambda: f"shedding Leray inequality fails at {sigma!r}")
            checked = True
    return "pass" if checked else "skip"


def _thm_euler(x: SimplicialComplex, rng, budget) -> str:
    """Implementation check: Euler characteristic by faces and by Betti."""
    b = reduced_betti(x)
    chi_faces = -1  # the empty face counts once (also for the empty complex)
    for f in x.all_faces(include_empty=False):
        chi_faces += (-1) ** f.dim
    chi_betti = -b.rank_neg1 + sum(
        (-1) ** i * r for i, r in enumerate(b.ranks)
    )
    _chk(chi_faces == chi_betti, x,
         lambda: f"Euler mismatch: faces {chi_faces} vs betti {chi_betti}")
    return "pass"


def _thm_kim_kim(h: Hypergraph, rng, budget) -> str:
    """Source: Kim and Kim, L(NC(H)) by gamma_E, gamma_tilde and gamma_si."""
    l = leray_number(non_cover_complex(h))
    max_edge = max(e.bit_count() for e in h.edges)
    ge = hg.gamma_E(h, budget).value
    _chk(l <= h.n - ge - 1, h, lambda: f"L={l} > n-gamma_E-1={h.n - ge - 1}")
    if max_edge <= 3:
        gt = hg.gamma_tilde(h, budget).value
        bound = h.n - math.ceil(gt / 2) - 1
        _chk(l <= bound, h, lambda: f"L={l} > n-ceil(gamma_tilde/2)-1={bound}")
    if max_edge <= 2:
        gsi = hg.gamma_si(h, budget).value
        _chk(l <= h.n - gsi - 1, h,
             lambda: f"L={l} > n-gamma_si-1={h.n - gsi - 1}")
    return "pass"


def _thm_gamma_monotone(h: Hypergraph, rng, budget) -> str:
    """Source: this paper, gamma_A(H) does not fall as A grows."""
    verts = list(range(1, h.n + 1))
    rng().shuffle(verts)
    prev = -1
    acc = []
    for v in verts:
        acc.append(v)
        try:
            val = hg.gamma_A(h, acc, budget).value
        except UndominatableError:
            break
        _chk(val >= prev, h, lambda: f"gamma_A not monotone along {acc}")
        prev = val
    return "pass"


THEOREMS = {
    "nc-bound": ("random-hypergraph", _thm_nc_bound),
    "mk-chain": ("random-complex", _thm_mk_chain),
    "m0-le-mes": ("random-complex", _thm_m0_le_mes),
    "kvd-equality": ("random-kvd", _thm_kvd_equality),
    "gamma-si-eq": ("random-graph", _thm_gamma_si_eq),
    "tancer": ("random-complex", _thm_tancer),
    "claim": ("random-complex", _thm_claim),
    "link-del-commute": ("random-complex", _thm_link_del_commute),
    "open-faces-simplex": ("random-complex", _thm_open_faces_simplex),
    "neighbor-inequality": ("random-graph", _thm_neighbor_inequality),
    "mes-equal": ("random-hypergraph", _thm_mes_equal),
    "leray-methods": ("random-complex", _thm_leray_methods),
    "cm-equivalence": ("random-complex", _thm_cm_equivalence),
    "shed-leray": ("random-kvd", _thm_shed_leray),
    "euler": ("random-complex", _thm_euler),
    "kim-kim": ("random-hypergraph", _thm_kim_kim),
    "gamma-monotone": ("random-hypergraph", _thm_gamma_monotone),
}


def _check_run(what: str, spec: GeneratorSpec, trials: int,
               hypergraph: bool, budget_limit):
    """Reject a run before its first trial, also a run of no trials: a
    trial count that is not an int >= 0, a budget limit that is not a
    positive int (`errors._check_limit`), a spec no seed can build
    (`generators._check_spec`), or a spec whose kind builds the wrong
    type of instance for `what`."""
    _check_count(trials, "trials")
    _check_limit(budget_limit)
    _check_spec(spec)
    builds = spec.kind in _HYPERGRAPH_KINDS
    if hypergraph and not builds:
        raise ValueError(f"{what} runs on hypergraphs; kind {spec.kind} "
                         f"does not build one")
    if builds and not hypergraph:
        raise ValueError(f"{what} runs on simplicial complexes; kind "
                         f"{spec.kind} builds a hypergraph")


def verify(
    theorem: str,
    spec: Optional[GeneratorSpec] = None,
    trials: int = 100,
    budget_limit: int = DEFAULT_NODE_BUDGET,
) -> dict:
    """Run `trials` independent random instances through one theorem check.

    Any failure stops the run and attaches the counterexample instance to
    the summary.  A negative trial count, a budget limit that is not
    positive, a spec no seed can build, or a spec whose kind builds the
    wrong type of instance for the theorem, raises ValueError first
    (VertexRangeError for a random kind on more than MAX_VERTEX vertices),
    also for `trials=0`; a trial count or budget limit that is not an
    int, or is a bool, raises TypeError.  A seedless kind
    (`SEEDLESS_KINDS`: star-family, named-example) repeats one instance in
    every trial; only the trial's random stream varies.

    Each probe gets its trial's random stream as a zero-argument factory,
    a `random.Random` seeded with "<spec seed>:<theorem>:<trial>" when
    called.  Only the probes that draw (mk-chain, m0-le-mes and
    gamma-monotone) call it, once per trial, so the others seed nothing.
    """
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem {theorem!r}; known: {sorted(THEOREMS)}")
    default_kind, fn = THEOREMS[theorem]
    spec = spec or GeneratorSpec(kind=default_kind)
    _check_run(f"theorem {theorem}", spec, trials,
               default_kind in _HYPERGRAPH_KINDS, budget_limit)
    summary = {"theorem": theorem, "trials": trials,
               "passes": 0, "fails": 0, "skips": 0}
    for i in range(trials):
        inst = _trial_instance(spec, i)
        rng = functools.partial(random.Random, f"{spec.seed}:{theorem}:{i}")
        try:
            outcome = fn(inst, rng, Budget(budget_limit))
        except Counterexample as cx:
            summary["fails"] += 1
            summary["counterexample"] = {
                "trial": i,
                "detail": cx.detail,
                "instance": instance_to_obj(cx.instance),
            }
            return summary
        if outcome == "pass":
            summary["passes"] += 1
        else:
            summary["skips"] += 1
    return summary


def conjecture_search(
    k: int,
    spec: Optional[GeneratorSpec] = None,
    trials: int = 100,
    budget_limit: int = DEFAULT_NODE_BUDGET,
) -> list[dict]:
    """Look for complexes with M_k < M_{k-1}.  An empty list is an honest
    outcome; every candidate re-verifies with a fresh memo table.  The spec
    must build complexes, no seed may fail to build it (as in `verify`),
    `k` must be an int >= 1, `trials` an int >= 0 and `budget_limit` a
    positive int.  A seedless kind (`SEEDLESS_KINDS`) builds one
    instance, so it runs one trial at most."""
    _check_count(k, "k", 1)
    spec = spec or GeneratorSpec(kind="random-complex")
    _check_run("conjecture search", spec, trials, False, budget_limit)
    if spec.kind in SEEDLESS_KINDS:
        trials = min(trials, 1)
    found = []
    for i in range(trials):
        x = _trial_instance(spec, i)
        chain = mk_chain(x, k, Budget(budget_limit))
        if chain[k] < chain[k - 1]:
            # recompute with fresh memo tables before reporting
            again = mk_chain(x, k, Budget(budget_limit))
            if again != chain:
                raise RuntimeError(
                    f"M_k chain of trial {i} is not reproducible: "
                    f"{chain} then {again}"
                )
            found.append({
                "instance": instance_to_obj(x),
                f"M{k - 1}": chain[k - 1],
                f"M{k}": chain[k],
                "trial": i,
            })
    return found
