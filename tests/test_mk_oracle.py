"""Differential test of the branch-and-bound M_k / M'_k engine against the
plain recursion it prunes, and of a report's shared engine against fresh
ones.

The oracle below evaluates both children at every open face, exactly as the
definition reads; it is memoized but never pruned, and lives only here.
"""

import pytest

from collapsekit import Budget, BudgetExceededError, mk, mk_chain, mk_prime
from collapsekit.generators import NAMED_EXAMPLES, GeneratorSpec, generate
from collapsekit.reports import compute

from conftest import all_complexes

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
            open_k = y.open_faces(k)
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


def _assert_matches_oracle(x):
    oracle = PlainMk()
    want_m = [oracle.m(x, k) for k in range(K_MAX + 1)]
    want_mp = [oracle.m_prime(x, k) for k in range(K_MAX + 1)]
    assert [mk(x, k) for k in range(K_MAX + 1)] == want_m, x
    assert [mk_prime(x, k) for k in range(K_MAX + 1)] == want_mp, x
    assert mk_chain(x, K_MAX) == want_m, x


def test_every_complex_on_four_vertices_matches_the_oracle():
    for x in all_complexes(4):
        _assert_matches_oracle(x)


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
    assert b.used <= 1_000


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
    assert b.used == 146
    assert compute(x, CHAIN)["budget"]["used_total"] == 146


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
