"""Differential tests of the cutoff M_k / M'_k engine against the exact
engine it replaced and the plain recursion both prune, and of a report's
shared engine against fresh ones, floored at C's floor when the report
asks C.

`PlainMk` evaluates both children at every open face, exactly as the
definition reads; it is memoized but never pruned.  `ExactMk` is the
branch-and-bound engine that solved every sub-call exactly before the
cutoff search: its memo holds exact values only.  Both live only here, on
`SimplicialComplex` objects, and read the open faces from their definition
(`conftest.open_faces_oracle`), not from the apex rule the engine uses.

The ≤ 4-vertex universe runs in the suite.  From the repo root,
`PYTHONPATH=src python tests/test_mk_oracle.py 5` runs the cutoff engine
against `ExactMk` on all 7,580 complexes on ≤ 5 vertices, and checks that
a chain taken past the dimension spends what one taken to it spends
(`past_dimension_mismatches`), and
`PYTHONPATH=src python tests/test_mk_oracle.py reports 5` runs the
floored-report differential (`floored_report_mismatches`) on them and
prints how many of those reports the floor settles by meeting the
ceiling.  `PYTHONPATH=src python tests/test_mk_oracle.py deep` checks the
searches that run deeper than Python's recursion limit allows a recursive
search (`deep_mismatches`): M'_1 of the K_m graphs for m = 3..46 and the
0-decompositions of those graphs and of the n-cycles for n = 3..127.
"""

import inspect
import itertools
import math
import sys

import pytest

from collapsekit import (Budget, BudgetExceededError, FacetOrdering,
                         SimplicialComplex, canonical_ordering, d_of_ordering,
                         is_k_vertex_decomposable, leray_number, mk,
                         mk_chain, mk_prime, verify_shedding_sequence)
from collapsekit.generators import NAMED_EXAMPLES, GeneratorSpec, generate, star_family
from collapsekit.hypergraphs import non_cover_complex
from collapsekit.invariants import _MkEngine
from collapsekit.reports import certificate_from_obj, compute

from conftest import all_complexes, open_faces_oracle

K_MAX = 2


class PlainMk:
    """M_k and M'_k straight from the definition, one memo per complex."""

    def __init__(self):
        self.memo = {}

    def m(self, y, k):
        if k == 0:
            return self.m_prime(y, 0)
        key = (y.facets, k, "m")
        if key not in self.memo:
            self.memo[key] = min(self.m_prime(y, k), self.m(y, k - 1))
        return self.memo[key]

    def m_prime(self, y, k):
        key = (y.facets, k, "mp")
        if key not in self.memo:
            open_k = open_faces_oracle(y, k)
            if not open_k:
                val = 0 if k == 0 else self.m(y, k - 1)
            else:
                val = min(
                    max(self.m_prime(y.link(s), k) + k + 1,
                        self.m_prime(y.deletion(s), k))
                    for s in open_k
                )
            self.memo[key] = val
        return self.memo[key]


class ExactMk(PlainMk):
    """Branch and bound inside each node, every sub-call solved exactly:
    the link term comes first, the deletion is skipped when the link term
    already reaches the best candidate, and the scan stops at k + 1."""

    def m_prime(self, y, k):
        key = (y.facets, k, "mp")
        if key not in self.memo:
            open_k = sorted(open_faces_oracle(y, k))
            if not open_k:
                val = 0 if k == 0 else self.m(y, k - 1)
            else:
                val = math.inf
                for s in open_k:
                    cand = self.m_prime(y.link(s), k) + k + 1
                    if cand < val:
                        val = min(val, max(cand, self.m_prime(y.deletion(s), k)))
                        if val == k + 1:
                            break
            self.memo[key] = val
        return self.memo[key]


def _exact(x):
    """[M_0..M_K_MAX] and [M'_0..M'_K_MAX] of x by the exact engine."""
    oracle = ExactMk()
    return ([oracle.m(x, k) for k in range(K_MAX + 1)],
            [oracle.m_prime(x, k) for k in range(K_MAX + 1)])


def _cutoff(x):
    """The same lists by the cutoff engine, one fresh engine per value."""
    return ([mk(x, k) for k in range(K_MAX + 1)],
            [mk_prime(x, k) for k in range(K_MAX + 1)])


def _assert_matches_oracle(x):
    want = _exact(x)
    plain = PlainMk()
    assert ([plain.m(x, k) for k in range(K_MAX + 1)],
            [plain.m_prime(x, k) for k in range(K_MAX + 1)]) == want, x
    assert _cutoff(x) == want, x
    assert mk_chain(x, K_MAX) == want[0], x


def test_every_complex_on_four_vertices_matches_the_oracle():
    for x in all_complexes(4):
        _assert_matches_oracle(x)


def test_a_reused_engine_never_reads_a_bound_as_a_value():
    """M_k leaves M'_k's entry as a bound when M_{k-1} cut it off, and M_2
    leaves M_0 entries cut off below the answer; a later exact question on
    the same engine must expand them again."""
    for x in all_complexes(4):
        for k in range(K_MAX + 1):
            engine = _MkEngine()
            assert engine.m(x, k) == mk(x, k), (x, k)
            assert engine.m_prime(x, k) == mk_prime(x, k), (x, k)
        engine = _MkEngine()
        assert [engine.m(x, k) for k in range(K_MAX, -1, -1)] == [
            mk(x, k) for k in range(K_MAX, -1, -1)], x


# 230 specs, 206 distinct complexes; checking them takes about 12 s
RANDOM_SPECS = [
    GeneratorSpec(kind="random-complex", seed=seed, n=n, m=m, max_size=size)
    for n, m, size, count in [(5, 7, 3, 90), (5, 5, 4, 25), (6, 5, 3, 65),
                              (6, 6, 3, 50)]
    for seed in range(count)
]


@pytest.mark.parametrize("chunk", range(4))
def test_random_complexes_match_the_oracle(chunk):
    for spec in RANDOM_SPECS[chunk::4]:
        _assert_matches_oracle(generate(spec))


def test_golden_chain_stays_within_its_node_count():
    b = Budget()
    assert mk_chain(NAMED_EXAMPLES["v6f10-6"](), 2, b) == [3, 2, 2]
    assert b.used <= 100


def past_dimension_mismatches(universe):
    """The complexes of `universe` where a chain taken to max(dim, 0) + 2
    spends other than one taken to max(dim, 0): above the dimension
    M_k = M_{k-1}, which the engine reads without a node."""
    bad = []
    for x in universe:
        top, past = Budget(), Budget()
        mk_chain(x, max(x.dim, 0), top)
        mk_chain(x, max(x.dim, 0) + 2, past)
        if past.used != top.used:
            bad.append((x, top.used, past.used))
    return bad


def test_a_chain_past_the_dimension_spends_nothing_more():
    assert past_dimension_mismatches(all_complexes(4)) == []
    for x, nodes in ((NAMED_EXAMPLES["three-cycle"](), 8),
                     (NAMED_EXAMPLES["v6f10-6"](), 95),
                     (NAMED_EXAMPLES["v7f17"](), 259)):
        for k in (x.dim, x.dim + 3):
            b = Budget()
            mk_chain(x, k, b)
            assert b.used == nodes, (x, k)


def test_any_k_is_one_loop_without_recursion():
    """M_k is the running min of M'_0, ..., M'_min(k, dim): k = 5000 on a
    path answers what k = 1 does, for the same nodes, with no frame per
    k."""
    x = SimplicialComplex([(1, 2), (2, 3)])
    for k in (1, 5000):
        b = Budget()
        assert _MkEngine(b).m(x, k) == 1
        assert b.used == 4, k


def k_graph(m):
    """The complete graph K_m on the vertices 0, ..., m - 1."""
    return SimplicialComplex(itertools.combinations(range(m), 2))


def test_mk_prime_runs_deeper_than_the_recursion_limit():
    """M'_1 of the K_20 graph nests its first candidate's deletions one
    node per open edge.  Its nodes are generators on `errors._drive`, so a
    limit 60 frames above the caller's depth does not stop it; a `_mp`
    that called itself raised RecursionError there."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        value = mk_prime(k_graph(20), 1)
    finally:
        sys.setrecursionlimit(old)
    assert value == 2


def test_mk_prime_of_the_k46_graph_is_two():
    # past Python's default recursion limit for a recursive engine
    assert mk_prime(k_graph(46), 1) == 2


def deep_mismatches(m_max=46, n_max=127):
    """The K_m graphs, 3 <= m <= m_max, whose M'_1 is not 2 or whose
    0-decomposition witness does not replay, and the n-cycles,
    3 <= n <= n_max, whose witness is not n - 1 steps that replay.  Both
    searches nest deeper than a recursive search could at Python's default
    limit."""
    bad = []
    for m in range(3, m_max + 1):
        x = k_graph(m)
        ok, witness = is_k_vertex_decomposable(x, 0)
        if mk_prime(x, 1) != 2 or not (
                ok and verify_shedding_sequence(x, 0, witness)):
            bad.append(f"K_{m}")
    for n in range(3, n_max + 1):
        x = SimplicialComplex([(i, i % n + 1) for i in range(1, n + 1)])
        ok, witness = is_k_vertex_decomposable(x, 0)
        if not (ok and len(witness) == n - 1
                and verify_shedding_sequence(x, 0, witness)):
            bad.append(f"C_{n}")
    return bad


def test_v7f17_has_m2_below_m1():
    """The smallest known M_2 < M_1: L = C = M_2 = 3 < M_1 = M_0 = d_mes
    = 4 over Q and over GF(2), as the exact engine says, with a collapse
    certificate that replays.  It is not 0-, 1- or 2-vertex decomposable:
    it is not Cohen-Macaulay, so the search is never entered."""
    x = NAMED_EXAMPLES["v7f17"]()
    exact = ExactMk()
    assert [exact.m(x, k) for k in range(K_MAX + 1)] == [4, 4, 3]
    for field in ("Q", 2):
        report = compute(x, ["leray", "C", "M0", "M1", "M2", "d_mes",
                             "kvd0", "kvd1", "kvd2"], field=field)
        assert report["values"] == {
            "leray": 3, "C": 3, "M0": 4, "M1": 4, "M2": 3, "d_mes": 4,
            "kvd0": False, "kvd1": False, "kvd2": False}, field
        cert = certificate_from_obj(report["witnesses"]["collapse_certificate"])
        assert cert.claimed_d == 3 and cert.replay(x)


def _star_nc(n):
    return non_cover_complex(star_family(n, (1,) * n))


def test_star_four_m0_spends_its_pinned_nodes():
    # any change in the nodes the M_0 recursion expands shows here
    b = Budget()
    assert mk(non_cover_complex(star_family(4, (2,) * 4)), 0, b) == 5
    assert b.used == 1_370


def test_v7f17_chain_to_m2_spends_its_pinned_nodes():
    # a link below dimension k ends its running min at its own dimension
    b = Budget()
    assert mk_chain(NAMED_EXAMPLES["v7f17"](), 2, b) == [4, 4, 3]
    assert b.used == 258


def test_star_five_m1_is_cut_off_early():
    # the exact-subcall engine spends 176,320 nodes here; the cutoff one 388
    assert mk(_star_nc(5), 1, Budget(1_000)) == 4


def test_star_six_chain_fits_a_small_budget():
    # 2,231 nodes; the exact-subcall engine ran for minutes on M_1
    assert mk_chain(_star_nc(6), 2, Budget(10_000)) == [5, 5, 5]


# -- one engine per report -------------------------------------------------

CHAIN = ["M0", "M1", "M2"]


def test_report_chain_equals_fresh_mk_on_every_complex_on_four_vertices():
    for x in all_complexes(4) + [NAMED_EXAMPLES["v6f10-6"]()]:
        values = compute(x, CHAIN)["values"]
        assert values == {f"M{k}": mk(x, k) for k in range(3)}, x


def test_report_chain_spends_what_one_chain_spends():
    x = NAMED_EXAMPLES["v6f10-6"]()
    b = Budget()
    mk_chain(x, 2, b)
    # 146 nodes before the cutoff search, 95 with it
    assert b.used == 95
    assert compute(x, CHAIN)["budget"]["used_total"] == 95


def test_shared_engine_finds_every_value_a_fresh_engine_finds():
    """Each M_k keeps its own budget; reusing what an earlier one left, even
    one that ran out, never loses a value a fresh run would find."""
    x = NAMED_EXAMPLES["v6f10-6"]()
    for limit in range(1, 161):
        report = compute(x, CHAIN, budget_limit=limit)
        for k in range(3):
            try:
                want = mk(x, k, Budget(limit))
            except BudgetExceededError:
                continue
            assert report["values"][f"M{k}"] == want, (limit, k)


# -- a report that asks C floors its M_k at L(X; GF(2)) ---------------------

FLOORED = ["C"] + CHAIN


def _m_part(x, which):
    """The M_k values of compute(x, which) and the nodes they spent: C
    spends what it spends alone, whatever else the report holds."""
    report = compute(x, which)
    used = report["budget"]["used_total"]
    if "C" in which:
        used -= compute(x, ["C"])["budget"]["used_total"]
    return {k: v for k, v in report["values"].items() if k != "C"}, used


def ceiling_claim(x):
    """The claim of C's ceiling: the lower of d(X, canonical) and d(X,
    reversed canonical), each read off its face walk."""
    reverse = FacetOrdering(x, x.facets[::-1])
    return min(d_of_ordering(x, canonical_ordering(x)),
               d_of_ordering(x, reverse))


def sandwiched(x):
    """Whether C's floor L(X; GF(2)) meets C's ceiling (`ceiling_claim`)
    on x, so that a report asking C reads every M_k off the ceiling."""
    return leray_number(x, 2) == ceiling_claim(x)


def floored_report_mismatches(universe):
    """The complexes of `universe` where a report asking C and M0..M2
    gives an M_k other than `mk` and `ExactMk`, spends more on M0..M2 than
    the same report without C, spends on them with C first something
    other than with C last, or, where the floor meets the ceiling
    (`sandwiched`), gives an M_k other than the ceiling's claim or spends
    a node on M0..M2."""
    bad = []
    for x in universe:
        exact = ExactMk()
        want = {f"M{k}": exact.m(x, k) for k in range(K_MAX + 1)}
        first, floored = _m_part(x, FLOORED)
        last, floored_last = _m_part(x, CHAIN + ["C"])
        plain, unfloored = _m_part(x, CHAIN)
        if not (first == last == plain == want
                == {f"M{k}": mk(x, k) for k in range(K_MAX + 1)}):
            bad.append((x, "values", first, last, plain, want))
        elif not floored == floored_last <= unfloored:
            bad.append((x, "nodes", floored, floored_last, unfloored))
        elif sandwiched(x):
            d = ceiling_claim(x)
            if floored or set(first.values()) != {d}:
                bad.append((x, "sandwich", d, first, floored))
    return bad


def test_floored_report_on_every_complex_on_four_vertices():
    universe = all_complexes(4)
    assert floored_report_mismatches(universe) == []
    assert any(map(sandwiched, universe))


def test_floored_report_on_random_complexes():
    """Also: where M_0 meets L(X; GF(2)), M_1 and M_2 read it and spend
    nothing."""
    universe = [generate(spec) for spec in RANDOM_SPECS[::5]]
    assert floored_report_mismatches(universe) == []
    met = 0
    for x in universe:
        values, used = _m_part(x, FLOORED)
        if values["M0"] == leray_number(x, 2):
            met += 1
            assert used == _m_part(x, ["C", "M0"])[1], x
    assert met > 0


def test_star_five_report_chain_reads_c_floor():
    # L = C = 7 < d_mes = 10 under the canonical order (nc_d = 7 is the
    # cover order's), and mk_chain(x, 1) runs for minutes without the
    # floor.  The reversed canonical order claims 7, so the floor meets
    # C's ceiling and the report reads C and every M_k with no node (the
    # floored engine searched above the floor for 6,241 nodes)
    x = non_cover_complex(star_family(5, (2,) * 5))
    report = compute(x, FLOORED, budget_limit=10_000)
    assert report["values"] == {"C": 7, "M0": 7, "M1": 7, "M2": 7}
    assert report["budget"]["used_total"] == 0
    assert report["budget"]["exhausted"] == []
    # NC(H) for the random-hypergraph generator's seed 57 (n=8, m=9,
    # max_size=3): L = C = 4 is below both orders' claim 5, so M_k
    # searches above the floor, 204 nodes against 3,310 unfloored
    y = SimplicialComplex([(1, 2, 3, 4, 5, 6, 7), (1, 2, 4, 6, 8),
                           (1, 2, 3, 5, 6, 8), (2, 3, 4, 5, 6, 8),
                           (1, 2, 3, 4, 5, 7, 8), (1, 4, 6, 7, 8),
                           (3, 4, 6, 7, 8)])
    assert leray_number(y, 2) == 4 < ceiling_claim(y) == 5
    chain = {"M0": 4, "M1": 4, "M2": 4}
    assert _m_part(y, FLOORED) == (chain, 204)
    assert _m_part(y, CHAIN) == (chain, 3_310)
    assert compute(y, FLOORED)["values"] == {"C": 4, **chain}


def test_empty_complex_report_reads_every_m_k_off_its_floor():
    # the floor L = 0 meets the empty mes collapse's claim d = 0
    report = compute(SimplicialComplex(), FLOORED)
    assert report["values"] == {"C": 0, "M0": 0, "M1": 0, "M2": 0}
    assert report["budget"]["used_total"] == 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["deep"]:
        bad = deep_mismatches()
        print(f"K_3..K_46 graphs and 3..127-cycles, {len(bad)} mismatches",
              *bad)
        sys.exit(1 if bad else 0)
    if sys.argv[1:2] == ["reports"]:
        # the floored-report differential
        n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
        universe = all_complexes(n)
        bad = floored_report_mismatches(universe)
        settled = sum(map(sandwiched, universe))
        print(f"{len(universe)} floored reports on <= {n} vertices, "
              f"{settled} settled by the floor meeting the ceiling, "
              f"{len(bad)} mismatches")
        for row in bad:
            print(*row)
        # a run where the floor never meets the ceiling tests no sandwich
        sys.exit(1 if bad or not settled else 0)
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    universe = all_complexes(n)
    bad = [x for x in universe if _cutoff(x) != _exact(x)]
    past = past_dimension_mismatches(universe)
    print(f"{len(universe)} complexes on <= {n} vertices, "
          f"{len(bad)} mismatches, {len(past)} chains past the dimension "
          f"spending other than one taken to it")
    for x in bad:
        print(x)
    for row in past:
        print(*row)
    sys.exit(1 if bad or past else 0)
