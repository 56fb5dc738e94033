"""Golden reports: `compute` JSON must stay byte-identical.

Each case pins the sha256 of `report_json(compute(...))`, the budget's
`used_total` included, as produced before the single-mask-representation
refactor of the library.  A change that alters any value, witness, key or
node count fails here.
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
     "89920b92aa991f8026bd817a0e9816efce7fa4550b1488ddefd8b72b927ff4a6"),
    ("tetra-boundary", NAMED_EXAMPLES["tetra-boundary"], None, "Q",
     "b7b00e9a1425aa43b564ef1c14b3364945ba79489a38239cdbb9e46513b9ab41"),
    ("v6f10-6", NAMED_EXAMPLES["v6f10-6"], GOLDEN, "Q",
     "a62cc79415311e02d6f1a302dce9f8ffd4ee37177001a066eae183dd71cb08b4"),
    ("random-complex-1", lambda: _complex(1), CHAIN, "Q",
     "92729fe1fb514e98e0f713c8b6d7a9674144c062454713e6f24032f56fa964ae"),
    ("random-complex-2", lambda: _complex(2), CHAIN, "Q",
     "6c8f8130eaac902ff5c2b09189de3b84fe080742b9b5df02dba6f77579d0abfe"),
    ("random-complex-3", lambda: _complex(3), CHAIN, "Q",
     "455b53ee8525ff79d7f569af61deddf6aecd504e83beed347a6c7948d5c5b751"),
    ("random-complex-4", lambda: _complex(4), CHAIN, "Q",
     "412160f275f09a3e60249f864cad42fb643c40a9f010d31cd30a977760f20b14"),
    ("random-complex-6", lambda: _complex(6), CHAIN, "Q",
     "5ed5a54f37353883e2e62ae8fd65f073be326d312826b7b50875771d9f41ce92"),
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
     "96f9ae2e1446edf6d693a176b92137b1edd863575d8911525f1454474e22965c"),
]


@pytest.mark.parametrize("make, which, field, digest",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_report_bytes_are_pinned(make, which, field, digest):
    text = report_json(compute(make(), which, field=field))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
