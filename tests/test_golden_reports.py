"""Golden reports: `compute` JSON must stay byte-identical.

Each case pins the sha256 of `report_json(compute(...))`, the budget's
`used_total` included.  The digests were taken before the
single-mask-representation refactor of the library, and re-pinned when the
M_k / M'_k engine gained its branch-and-bound pruning: that spends fewer
search nodes, so `used_total` fell in the cases that compute M_k (three-cycle,
tetra-boundary, tetra-boundary-gf2, v6f10-6, random-complex-1/2/3/4/6),
while every other byte of those reports stayed the same.  A change that
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
     "32de6fd78ae9b5e786ba2370e2abee183dbe4a682a9fa4dab88ebd7ed65eb845"),
    ("tetra-boundary", NAMED_EXAMPLES["tetra-boundary"], None, "Q",
     "40a699594643211215a64d0fb268a5cb3d0b865e648188c4839df9a601935fb3"),
    ("v6f10-6", NAMED_EXAMPLES["v6f10-6"], GOLDEN, "Q",
     "b535f9ba845644de833d155afc3dd33184a735ce8d6ff5f628a0a500f2ecfb11"),
    ("random-complex-1", lambda: _complex(1), CHAIN, "Q",
     "7702cfef6f4e62f848305f8e873472af7d24d36600bd6b8ae5897bc9f72159ee"),
    ("random-complex-2", lambda: _complex(2), CHAIN, "Q",
     "d3dfd9a2b7f7086734c7dadc12637166d89bbd314bd7a5e1fcd378fb003caefd"),
    ("random-complex-3", lambda: _complex(3), CHAIN, "Q",
     "a70bfe028e842cc7f2ffdbba7ec581569ba881b5c2cdf18fa40a0b68678d903b"),
    ("random-complex-4", lambda: _complex(4), CHAIN, "Q",
     "86913edce563c24ee372233c6d8e5c35039dc1b07a7800fa5d85af9937b87333"),
    ("random-complex-6", lambda: _complex(6), CHAIN, "Q",
     "69783bdc5ccea4db716a48d19990eda8b9921e2e8a0aeb996438a57f362e69fa"),
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
     "77c012eef1156f827df6ec21421f9256816510a3c25efbdde8e6f366e6cc5878"),
]


@pytest.mark.parametrize("make, which, field, digest",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(make, which, field, digest):
    text = report_json(compute(make(), which, field=field))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
