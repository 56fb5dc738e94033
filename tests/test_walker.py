"""The depth-first walker behind the collapse and shelling searches.

`errors._depth_first` replaced two recursive closures, one in
`is_d_collapsible` and one in `is_shellable`.  Those closures live on here
as the oracle: on every complex checked, the walker must give the same
verdict, certificate or shelling order, and spend the same nodes.  The
collapse search is asked with refute=False, the walker alone, without the
Leray refutation that answers a d below L(x; GF(2)) with no node spent.
"""

import inspect
import sys

import pytest

from collapsekit import (
    Budget,
    BudgetExceededError,
    CollapseCertificate,
    SimplicialComplex,
    is_d_collapsible,
    is_shellable,
)
from collapsekit.errors import _depth_first, _drive
from collapsekit.generators import GeneratorSpec, NAMED_EXAMPLES, generate
from collapsekit.hypergraphs import non_cover_complex
from collapsekit.invariants import collapsibility_number

from conftest import all_complexes, apex_floor

D_MAX = 3


def recursive_is_d_collapsible(x, d, budget):
    """The recursive search `is_d_collapsible` ran before the walker."""
    dead = set()
    steps = []

    def search(y):
        budget.spend()
        if y.is_empty:
            return True
        key = y.facets
        if key in dead:
            return False
        pairs = y.free_pairs(d)
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


def recursive_is_shellable(x, budget):
    """The recursive search `is_shellable` ran before the walker (pure x)."""
    facets = x.facets
    if len(facets) <= 1:
        return True, facets
    d = x.dim
    n = len(facets)

    def can_extend(chosen, cand):
        f = facets[cand]
        inters = [int(f) & int(facets[i]) for i in chosen]
        ridge_size = f.bit_count() - 1
        ridges = [m for m in inters if m.bit_count() == ridge_size]
        if d >= 1 and not ridges:
            return False
        return all(
            any(m & ~rm == 0 for rm in ridges) or m.bit_count() == ridge_size
            for m in inters
        )

    dead = set()
    order = []

    def search(chosen):
        budget.spend()
        if len(chosen) == n:
            return True
        key = frozenset(chosen)
        if key in dead:
            return False
        for cand in range(n):
            if cand in chosen:
                continue
            if not chosen or can_extend(chosen, cand):
                order.append(cand)
                if search(chosen + (cand,)):
                    return True
                order.pop()
        dead.add(key)
        return False

    if search(()):
        return True, tuple(facets[i] for i in order)
    return False, None


def _searches(x):
    """(name, library call, oracle call) for every search run on x; each
    call takes a Budget."""
    out = [(f"collapse d={d}",
            lambda b, d=d: is_d_collapsible(x, d, b, refute=False),
            lambda b, d=d: recursive_is_d_collapsible(x, d, b))
           for d in range(D_MAX + 1)]
    if x.is_pure():
        out.append(("shell", lambda b: is_shellable(x, b),
                    lambda b: recursive_is_shellable(x, b)))
    return out


def _assert_matches_oracle(x):
    for name, walk, oracle in _searches(x):
        b_walk, b_oracle = Budget(), Budget()
        assert walk(b_walk) == oracle(b_oracle), (x, name)
        assert b_walk.used == b_oracle.used, (x, name)


def test_every_complex_on_four_vertices_matches_the_oracle():
    for x in all_complexes(4):
        _assert_matches_oracle(x)


RANDOM_SPECS = [
    GeneratorSpec(kind="random-complex", seed=seed, n=n, m=m, max_size=size)
    for n, m, size, count in [(6, 6, 3, 60), (6, 8, 4, 40), (7, 7, 3, 40),
                              (7, 9, 4, 20)]
    for seed in range(count)
]


@pytest.mark.parametrize("chunk", range(4))
def test_random_complexes_match_the_oracle(chunk):
    for spec in RANDOM_SPECS[chunk::4]:
        _assert_matches_oracle(generate(spec))


def test_goldens_match_the_oracle():
    for name in ("v6f10-6", "tetra-boundary"):
        _assert_matches_oracle(NAMED_EXAMPLES[name]())


def test_non_cover_complexes_match_the_oracle_up_to_their_c():
    """NC(H) of random n=8 hypergraphs, the nc-leray instances, reach
    C = 5, past D_MAX: every d from the apex-link floor to C is checked."""
    reached = set()
    for seed in range(100):
        x = non_cover_complex(generate(GeneratorSpec(
            kind="random-hypergraph", seed=seed, n=8, m=9, max_size=3)))
        c = collapsibility_number(x)
        reached.add(c)
        for d in range(apex_floor(x), c + 1):
            b_walk, b_oracle = Budget(), Budget()
            assert (is_d_collapsible(x, d, b_walk, refute=False)
                    == recursive_is_d_collapsible(x, d, b_oracle)), (x, d)
            assert b_walk.used == b_oracle.used, (x, d)
    assert reached == {1, 2, 3, 4, 5}


def _outcome(call, limit):
    try:
        return call(Budget(limit))
    except BudgetExceededError:
        return "exhausted"


def test_small_budgets_run_out_where_the_oracle_does():
    """Under every limit up to one past what the full search spends, the
    walker and the oracle both run out, or both return the same answer."""
    pool = all_complexes(3) + [generate(spec) for spec in RANDOM_SPECS[:40]]
    pool.append(NAMED_EXAMPLES["v6f10-6"]())
    for x in pool:
        for name, walk, oracle in _searches(x):
            full = Budget()
            oracle(full)
            for limit in range(1, full.used + 2):
                assert _outcome(walk, limit) == _outcome(oracle, limit), \
                    (x, name, limit)


def test_a_collapse_longer_than_the_recursion_limit_is_found():
    """The complete graph K_20 collapses at d = 2 in 190 steps; each step
    was a Python frame before the walker, so a limit 120 frames above the
    caller's depth raised RecursionError."""
    k20 = SimplicialComplex([(i, j) for i in range(1, 21)
                             for j in range(i + 1, 21)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 120)
    try:
        ok, cert = is_d_collapsible(k20, 2)
    finally:
        sys.setrecursionlimit(old)
    assert ok and len(cert.steps) == 190
    assert cert.replay(k20)


def test_the_driver_runs_nodes_deeper_than_the_recursion_limit():
    """`_drive` sends each node its child's return value, with no Python
    frame per open node; an exception a node raises ends the drive."""
    def depth(n):
        return 0 if n == 0 else 1 + (yield depth(n - 1))

    def spend(n, budget):
        budget.spend()
        if n:
            yield spend(n - 1, budget)

    assert _drive(depth(10_000)) == 10_000
    budget = Budget(5_000)
    with pytest.raises(BudgetExceededError):
        _drive(spend(10_000, budget))
    assert budget.used == 5_001


def test_walker_skips_dead_keys_and_spends_per_state_entered():
    # states 0..4; every move ends at a dead end but the last, 0 -> 4
    graph = {0: [1, 2, 4], 1: [3], 2: [3], 3: [], 4: []}
    budget = Budget()
    path = _depth_first(0, lambda s: s == 4, lambda s: s,
                        lambda s: ((t, t) for t in graph[s]), budget)
    # entered 0, 1, 3, 2, 3 (dead, not expanded), 4
    assert path == [4] and budget.used == 6
    assert _depth_first(0, lambda s: s == 0, lambda s: s,
                        lambda s: iter(()), Budget()) == []
    assert _depth_first(0, lambda s: s == 4, lambda s: s,
                        lambda s: ((t, t) for t in graph[s] if t < 4),
                        Budget()) is None
