"""Golden reports: `compute` JSON must stay byte-identical.

Each case pins the sha256 of `report_json(compute(...))`, the budget's
`used_total` included.  The digests were taken before the
single-mask-representation refactor of the library, and re-pinned when the
M_k / M'_k engine gained its branch-and-bound pruning: that spends fewer
search nodes, so `used_total` fell in the cases that compute M_k (three-cycle,
tetra-boundary, tetra-boundary-gf2, v6f10-6, random-complex-1/2/3/4/6),
while every other byte of those reports stayed the same.  They were
re-pinned again when the collapsibility search began at its homology floor
(no d below one more than the top nonzero GF(2) Betti degree is searched):
that skips doomed searches, so `used_total` fell in the cases that compute
C (three-cycle 53 -> 51, tetra-boundary and tetra-boundary-gf2 126 -> 123,
random-complex-1 37 -> 36, -2 120 -> 114, -3 132 -> 130, -4 43 -> 42,
-6 67 -> 66), and again every other byte stayed the same.  They were
re-pinned once more when the invariants of one report began to share one
M_k engine: M1 and M2 reuse the memo entries M0 and M1 completed instead
of recomputing the chain, so `used_total` fell in the cases that compute
more than one M_k (triangle 8 -> 5, three-cycle 51 -> 29, tetra-boundary
and tetra-boundary-gf2 123 -> 68, random-complex-1 36 -> 18, -2 114 -> 58,
-3 130 -> 66, -4 42 -> 21, -6 66 -> 40), and again every other byte stayed
the same.  They were re-pinned once more when the M_k engine began to pass
a cutoff down (a sub-call whose value cannot beat the best so far returns a
bound instead of its exact value), so `used_total` fell in the cases that
compute M_k (three-cycle 29 -> 23, tetra-boundary and tetra-boundary-gf2
68 -> 42, v6f10-6 253 -> 246, random-complex-1 18 -> 11, -2 58 -> 25,
-3 66 -> 31, -4 21 -> 15, -6 40 -> 16), and again every other byte stayed
the same.  The two RP2 cases (H~_2 is 0 over Q and GF(3) but not over GF(2),
so the GF(2) screen passes and the exact rank decides) were pinned before
dense Bareiss and dense mod-p elimination gave way to sparse column
reduction, and pass unchanged after it.  The five hypergraph cases were
re-pinned when C began to decide between its floor and the mes ceiling and
the domination scans began to draw on the budget.  The NC
collapsibility number now spends 1 node in each (the failing search at
the floor) where the searches above it spent 4 to 11, and the four
domination numbers now spend one node per candidate they test, so
`used_total` went 6 -> 28 (random-hypergraph-1), 6 -> 142 (-2), 4 -> 148
(-3), 8 -> 110 (-4) and 11 -> 203 (star-family-3).  star-family-3's
collapse certificate is now the mes collapse at C = d(NC, order) = 2;
every value and every other witness stayed the same.  They were re-pinned
once more when C began to take its floor from the apex link and to build
the mes ceiling before any search, returning it at once when the floor
meets it: the searches that only confirmed C = u are gone.  Only C's
collapse certificate and `used_total` moved, every value and every other
witness stayed the same:
- triangle: `used_total` 5 -> 3 (the certificate is the same pair);
- three-cycle 23 -> 19, tetra-boundary and tetra-boundary-gf2 42 -> 37,
  random-complex-2 25 -> 19, -3 31 -> 22, -4 15 -> 9, -6 16 -> 10, rp2
  and rp2-gf3 14 -> 0: `used_total`, and the certificate, now the mes
  collapse at C = u;
- random-hypergraph-1 28 -> 27, -2 142 -> 141, -3 148 -> 147, -4
  110 -> 109 and star-family-3 203 -> 202: `used_total` alone (the
  certificate already was the mes collapse).
v6f10-6 and random-complex-1 did not move.  v6f10-6 was re-pinned once
more when C's floor became the GF(2) Leray number (the Leray link scan
capped at the ceiling) instead of the apex link's top degree: its apex
floor was 0 and L(X; GF(2)) = C = 2, so the failing searches at d = 0 and
1 are gone and `used_total` went 246 -> 244; every other byte, and every
other case, stayed the same.  The five hypergraph cases were re-pinned
once more when the minimal covers and the maximal strongly independent
sets began to come from a branching walk instead of subset scans, the
max loops of gamma_i and gamma_si began to skip candidates whose bound
cannot beat the best so far: the domination numbers spend fewer units, so
`used_total` went 27 -> 15 (random-hypergraph-1), 141 -> 85 (-2),
147 -> 87 (-3), 109 -> 53 (-4) and 202 -> 81 (star-family-3); every other
byte, and every other case, stayed the same.  The nine cases that ask
C and an M_k were re-pinned once more when a report asking C began to
floor its M_k at C's floor L(X; GF(2)) (exact, since every M_k is at
least C): M_0's root scan stops at a candidate that meets the floor, and
M_1 and M_2 return M_{k-1} without a scan once it meets the floor.  So
`used_total` went 3 -> 1 (triangle, a simplex: floor 0 = M_0), 19 -> 15
(three-cycle), 37 -> 23 (tetra-boundary and tetra-boundary-gf2), 11 -> 9
(random-complex-1), 19 -> 13 (-2), 22 -> 17 (-3), 9 -> 7 (-4) and
10 -> 8 (-6); every other byte stayed the same.  v6f10-6 did not move:
its M_0 = 3 stays above L(X; GF(2)) = 2, and it asks no M_1 or M_2.
The eight cases whose C floor meets the mes ceiling were re-pinned once
more when a report asking C began to read M_k off that ceiling without
search (L <= C <= M_k <= M_0 <= d(X, <), so floor = u settles every
M_k): `used_total` went 1 -> 0 (triangle), 15 -> 10 (three-cycle),
23 -> 14 (tetra-boundary and tetra-boundary-gf2), 13 -> 0
(random-complex-2), 17 -> 0 (-3), 7 -> 0 (-4) and 8 -> 0 (-6); every
other byte stayed the same.  v6f10-6 (L = 2 < u = 3) and
random-complex-1 (L = 1 < u = 2) did not move.
The five hypergraph cases were re-pinned once more when a strong
domination question read off the subset lattice began to spend one budget
unit instead of the count of candidates the scan would have tested:
`used_total` went 15 -> 13 (random-hypergraph-1), 85 -> 32 (-2), 87 -> 29
(-3), 53 -> 29 (-4) and 81 -> 40 (star-family-3); every other byte, and
every other case, stayed the same.
random-complex-1 ({3}, {1, 4}, {4, 5}) was re-pinned once more when C's
ceiling became the lower claim of the mes collapses under the canonical
order and its reverse: its floor L(X; GF(2)) = 1 is below the canonical
claim 2 and meets the reversed order's claim 1.  So C reads that collapse
with no search (the search at d = 1 spent 4 nodes) and every M_k is read
off the floor (M0..M2 spent 5), and `used_total` went 9 -> 0.  C's
certificate is now the reversed order's mes collapse,
({3}, {3}), ({1}, {1, 4}), (empty, {4, 5}), where the depth-first
search's took the two steps at {1} and {3} in the other order; every
value and every other byte stayed the same.
A change that alters any value, witness, key or node count fails here.
"""

import hashlib

import pytest

from collapsekit.generators import (
    NAMED_EXAMPLES,
    GeneratorSpec,
    generate,
    star_family,
)
from collapsekit import SimplicialComplex
from collapsekit.reports import compute, report_json

CHAIN = ["leray", "C", "M0", "M1", "M2", "d_mes", "betti"]
GOLDEN = "C,M0,leray,betti,d_mes,kvd0,kvd1".split(",")
HOMOLOGY = ["leray", "betti", "cohen_macaulay", "C"]


def _rp2():
    """The 6-vertex real projective plane."""
    return SimplicialComplex(
        [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
         (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)])


def _complex(seed):
    return generate(GeneratorSpec(kind="random-complex", seed=seed, n=5, m=6))


def _hypergraph(seed):
    return generate(GeneratorSpec(kind="random-hypergraph", seed=seed, n=6,
                                  m=7))


# (id, instance factory, invariants, field, sha256 of the report JSON)
CASES = [
    ("triangle", NAMED_EXAMPLES["triangle"], None, "Q",
     "52627f140496cf4283c33cc3d1064f9e4de8db7da0e4f0958f748fae4904fd06"),
    ("three-cycle", NAMED_EXAMPLES["three-cycle"], None, "Q",
     "35ab3b3f7334b2956a6ad1d5ef3e13ec7f6f9ee524db3c720e8d15c8342a3df4"),
    ("tetra-boundary", NAMED_EXAMPLES["tetra-boundary"], None, "Q",
     "b985f45577e26e4ad3126dd0562e18ca2f0ce2d6f7159a58f67b2d8d34f4615a"),
    ("v6f10-6", NAMED_EXAMPLES["v6f10-6"], GOLDEN, "Q",
     "f9af6275e87d86718264d79ea591ad24d605949235835cf5a5ce6228c186c0d5"),
    ("random-complex-1", lambda: _complex(1), CHAIN, "Q",
     "1ee77f17ecc366573697ad7a0ee065ecf22c781b9cea9798716caee5854d5a2c"),
    ("random-complex-2", lambda: _complex(2), CHAIN, "Q",
     "9d2fafd23eaf4a600306e4ace5412505d5b0245866a2dcd53dc1691c17769526"),
    ("random-complex-3", lambda: _complex(3), CHAIN, "Q",
     "cf0d828cee04d2c34d4d2671bd91db69160bb16a12bf42d4540cc5746e84bebb"),
    ("random-complex-4", lambda: _complex(4), CHAIN, "Q",
     "e3f0637cad36c0dba2f043ae5d33f7514565d70a97b1011b9d21ef8efdf71fa8"),
    ("random-complex-6", lambda: _complex(6), CHAIN, "Q",
     "13e939b01a0b1c12cc5a4b9d26c0466bd2039bc0cef509f88812270d893214e4"),
    ("random-hypergraph-1", lambda: _hypergraph(1), None, "Q",
     "530eec60fd471273976e2877cf1a71fa7033ab4de941f69f358d7e6b23044cc9"),
    ("random-hypergraph-2", lambda: _hypergraph(2), None, "Q",
     "fa7f2eb90ec845d2f14df0a2c46ff9c0f35abf0065e55238a8666dc9cdef2179"),
    ("random-hypergraph-3", lambda: _hypergraph(3), None, "Q",
     "6542e6c3f1918fba0b64d8f638bb0da9e1f95aa441de5090fb9f344571f29ef2"),
    ("random-hypergraph-4", lambda: _hypergraph(4), None, "Q",
     "abdad2d17432a670ceb7b14c2d90285cf02bc739da254831034ba256ae9b885b"),
    ("star-family-3", lambda: star_family(3, (1, 1, 1)), None, "Q",
     "6276365ae1460722e3d12897033f7fec4c48858d06c5bd6f626ac72444fd77cb"),
    ("tetra-boundary-gf2", NAMED_EXAMPLES["tetra-boundary"], None, "gf2",
     "e31e26128717295d07ab41c6435eacaef066c2aaec40c74f4ceff69a93b588ff"),
    ("rp2", _rp2, HOMOLOGY, "Q",
     "42a412d1014a996371ba2ae22cfcc6675bb6d17834279f0e0a3c0069ff0a27bb"),
    ("rp2-gf3", _rp2, HOMOLOGY, "gf3",
     "8c23e3a8b7ee100e2b63e0fff767e409f7aa8a557ec2bf6b477deb8ce167091b"),
]


@pytest.mark.parametrize("make, which, field, digest",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(make, which, field, digest):
    text = report_json(compute(make(), which, field=field))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def test_reports_do_not_depend_on_the_identity_of_the_c_entry(monkeypatch):
    """A report asks C by name, so a pass-through wrapped around the C and
    nc_C registry entries (a timer or a tracer) leaves every byte as it
    is: the floor L(X; GF(2)) and the mes ceiling are still built, and C
    and M_k still read them."""
    from collapsekit import reports
    cases = [(NAMED_EXAMPLES[name](), CHAIN)
             for name in ("three-cycle", "tetra-boundary", "v6f10-6",
                          "v7f17")]
    cases.append((star_family(3, (1, 1, 1)), None))
    plain = [report_json(compute(inst, which)) for inst, which in cases]
    for registry, name in ((reports.COMPLEX_INVARIANTS, "C"),
                           (reports.HYPERGRAPH_INVARIANTS, "nc_C")):
        monkeypatch.setitem(registry, name,
                            lambda ev, entry=registry[name]: entry(ev))
    assert [report_json(compute(inst, which))
            for inst, which in cases] == plain
