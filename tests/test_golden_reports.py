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
every value and every other witness stayed the same.  A change that
alters any value, witness, key or node count fails here.
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
     "8599977eb300b708c2e3385837b401ddc85a404f13321eab478a50668eef71e0"),
    ("three-cycle", NAMED_EXAMPLES["three-cycle"], None, "Q",
     "bb48697433ca68516d048411683f44c8282c8bfe6a1b2ccebcdbde7e94213fe0"),
    ("tetra-boundary", NAMED_EXAMPLES["tetra-boundary"], None, "Q",
     "fee155a4edb6806941226177f239e5e81d33bc2d23979189b5b485ed1c3f6fd3"),
    ("v6f10-6", NAMED_EXAMPLES["v6f10-6"], GOLDEN, "Q",
     "36120cb63bf64c82c8938924e8b07d22533d405f0fd9a27564a120e2d531ad56"),
    ("random-complex-1", lambda: _complex(1), CHAIN, "Q",
     "53d5dc63ef6805162f75ab1024cf0a31bf7bb4cc71c2aa3aed643015783d6192"),
    ("random-complex-2", lambda: _complex(2), CHAIN, "Q",
     "3182dd72b0ce332d71bc0dccf61d4ec3ac9c0671698a6b667625d1992cbcfd00"),
    ("random-complex-3", lambda: _complex(3), CHAIN, "Q",
     "aa16d31691c64575b93dc0e1e6a1d4ba7f70281612fe453529fbdbcf81efebc6"),
    ("random-complex-4", lambda: _complex(4), CHAIN, "Q",
     "6e5daecedcb3762cee79c24c026b66a460dd6d49196293f809e07a0b2a896fe3"),
    ("random-complex-6", lambda: _complex(6), CHAIN, "Q",
     "4e5c3fb470752ff59f099c94e1a3ebdba3e9591b8b5c2a6213933435bfe22d71"),
    ("random-hypergraph-1", lambda: _hypergraph(1), None, "Q",
     "3977c1e6c768291bc82ee6408929565c28cbd4f942f589f1e487c353b0b76f3e"),
    ("random-hypergraph-2", lambda: _hypergraph(2), None, "Q",
     "9ce733ee1769b28f933c5d7caaf2470fc073bae3fd9e8e63ecc7b2c9e04f4b09"),
    ("random-hypergraph-3", lambda: _hypergraph(3), None, "Q",
     "f7af5de535e094090ba906522a2cc1031871196d6290c8725579955123fbad1e"),
    ("random-hypergraph-4", lambda: _hypergraph(4), None, "Q",
     "61ceeacd9bb75edb57460bf56d613cf1996efb202f28822763ebe6f12d2c9e6c"),
    ("star-family-3", lambda: star_family(3, (1, 1, 1)), None, "Q",
     "75a95588f6829709f4f55534c437dd3811bb1d68e5f145cfd1c07d23a3d5874c"),
    ("tetra-boundary-gf2", NAMED_EXAMPLES["tetra-boundary"], None, "gf2",
     "39d99c19b44611ba57a2d65fa1b1aad1d27732bc57d26cdaab0ba8afed40c75a"),
    ("rp2", _rp2, HOMOLOGY, "Q",
     "8c1665ba203e8a9bd10ae8616c06bd28e72151410f6c1bd3c972adf5a2cdcbe0"),
    ("rp2-gf3", _rp2, HOMOLOGY, "gf3",
     "8dfe7850a3d81dd935a9b7d6c5cd87c25cce4e3c17907b18699bbcd355f233d2"),
]


@pytest.mark.parametrize("make, which, field, digest",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(make, which, field, digest):
    text = report_json(compute(make(), which, field=field))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
