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
-6 67 -> 66), and again every other byte stayed the same.  A change that
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
from collapsekit.reports import compute, report_json

CHAIN = ["leray", "C", "M0", "M1", "M2", "d_mes", "betti"]
GOLDEN = "C,M0,leray,betti,d_mes,kvd0,kvd1".split(",")


def _complex(seed):
    return generate(GeneratorSpec(kind="random-complex", seed=seed, n=5, m=6))


def _hypergraph(seed):
    return generate(GeneratorSpec(kind="random-hypergraph", seed=seed, n=6,
                                  m=7))


# (id, instance factory, invariants, field, sha256 of the report JSON)
CASES = [
    ("triangle", NAMED_EXAMPLES["triangle"], None, "Q",
     "79610c3cea387732600030d0313263943a63b610bc4524865470a88e2b7b05bb"),
    ("three-cycle", NAMED_EXAMPLES["three-cycle"], None, "Q",
     "d92cfb150affcd6c7c850f9b64e394cb2d418f92d14b78d62216354fc0540ba7"),
    ("tetra-boundary", NAMED_EXAMPLES["tetra-boundary"], None, "Q",
     "97fe9a4c0fe46b4082d3173be213c606f290e1aa8693b81e84290a672d006d62"),
    ("v6f10-6", NAMED_EXAMPLES["v6f10-6"], GOLDEN, "Q",
     "b535f9ba845644de833d155afc3dd33184a735ce8d6ff5f628a0a500f2ecfb11"),
    ("random-complex-1", lambda: _complex(1), CHAIN, "Q",
     "1fd816ecf884d8b99d2a10982b6733b36077c9bff116b54583ec11ed0b6aa85e"),
    ("random-complex-2", lambda: _complex(2), CHAIN, "Q",
     "14ba884daba0077fd737210b301a277328e383b549a6e1187be46695649106ac"),
    ("random-complex-3", lambda: _complex(3), CHAIN, "Q",
     "1742183b2854c9d34fcb88bf0e38cf61a6655b04eab02204bc42a8caf23083e7"),
    ("random-complex-4", lambda: _complex(4), CHAIN, "Q",
     "ed359b171ea64b793bd9425515a684bb84e10d08485ab40b16ae4d88db4da66c"),
    ("random-complex-6", lambda: _complex(6), CHAIN, "Q",
     "86166632f4f269545a45fe844b1fddb4bce03b87b432e6d61f31ce2cd9b1877f"),
    ("random-hypergraph-1", lambda: _hypergraph(1), None, "Q",
     "b073509ff80dbb0a1a8b9098845f184b4adf8cb2d132bf454aa563a4f4283250"),
    ("random-hypergraph-2", lambda: _hypergraph(2), None, "Q",
     "a3cc8c1ab46cc57dd26ec0ed490f0c88f9f5e58c7fbbdb18c57d8bea45bd864d"),
    ("random-hypergraph-3", lambda: _hypergraph(3), None, "Q",
     "1e09869a814bf95fa3fa36f6704f1c5ec42c5e7b835b0fbf286db7892bbfe20c"),
    ("random-hypergraph-4", lambda: _hypergraph(4), None, "Q",
     "c9610acfd6048ee310f9e3516be5080afd05efe2e0a1443559d313e78b81c321"),
    ("star-family-3", lambda: star_family(3, (1, 1, 1)), None, "Q",
     "6f434afd010916465143c89fa9b0d23e45ac24a69a06c28a5082cccf04e4fc15"),
    ("tetra-boundary-gf2", NAMED_EXAMPLES["tetra-boundary"], None, "gf2",
     "3ec95d508818941144a4a6ebe2ec0e4ed7b6031417ca4aafb1b8a74769e43107"),
]


@pytest.mark.parametrize("make, which, field, digest",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(make, which, field, digest):
    text = report_json(compute(make(), which, field=field))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
