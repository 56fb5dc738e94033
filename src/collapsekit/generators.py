"""Deterministic instance generators for the verification harness.

Identical spec (kind, parameters, seed) always yields an identical instance;
every random draw goes through one seeded random.Random.  `generate` checks
the spec first (`_check_spec`), so a spec fails the same way on every seed.

The random hypergraph kinds draw each edge as a mask, remove isolated
vertices on those masks (`_drop_isolated`) and build the hypergraph once,
through `Hypergraph._of_masks`; they make the same draws, in the same
order, as label lists would.  Complexes are drawn as label lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .complexes import MAX_VERTEX, SimplicialComplex, bits_of
from .errors import VertexRangeError
from .homology import is_k_vertex_decomposable
from .hypergraphs import Hypergraph

Instance = Union[SimplicialComplex, Hypergraph]

#: The 1-vertex-decomposable but not 0-vertex-decomposable 6-vertex,
#: 10-facet, 2-dimensional golden example.
V6F10_6_FACETS = (
    (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6),
    (2, 4, 5), (2, 5, 6), (3, 4, 6), (3, 5, 6), (4, 5, 6),
)


def v6f10_6() -> SimplicialComplex:
    return SimplicialComplex(V6F10_6_FACETS)


#: The smallest known complex with M_2 < M_1: a pure 3-complex on 7
#: vertices with 17 facets, L = C = M_2 = 3 < M_1 = M_0 = d_mes = 4, and
#: not 0-, 1- or 2-vertex decomposable.
V7F17_FACETS = tuple(tuple(map(int, f)) for f in (
    "1235 1245 1345 1236 1256 1356 3456 1347 2347 1257 2357 1457 2367 "
    "2467 3467 2567 4567").split())


NAMED_EXAMPLES = {
    "v6f10-6": v6f10_6,
    "v7f17": lambda: SimplicialComplex(V7F17_FACETS),
    "triangle": lambda: SimplicialComplex([(1, 2, 3)]),
    "three-cycle": lambda: SimplicialComplex([(1, 2), (1, 3), (2, 3)]),
    "tetra-boundary": lambda: SimplicialComplex(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    ),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate; identical spec implies identical instance.  The
    random hypergraph kinds drop isolated vertices (see `_drop_isolated`)."""

    kind: str  # one of KINDS
    seed: int = 0
    n: int = 6                 # vertex count (random kinds)
    m: int = 8                 # facet / edge count target
    max_size: int = 3          # max facet / edge cardinality
    leaves: tuple[int, ...] = ()   # star-family: leaves per star
    name: str = ""             # named-example
    k: int = 1                 # random-kvd: decomposability parameter


def _random_complex(rng: random.Random, n: int, m: int, max_size: int
                    ) -> SimplicialComplex:
    verts = list(range(1, n + 1))
    facets = []
    for _ in range(m):
        size = rng.randint(1, min(max_size, n))
        facets.append(rng.sample(verts, size))
    x = SimplicialComplex(facets)
    if x.is_empty:  # m == 0 shouldn't happen, but never emit the empty complex
        x = SimplicialComplex([(1,)])
    return x


def _random_hypergraph(rng: random.Random, n: int, m: int, max_size: int
                       ) -> Hypergraph:
    # sampling the one-vertex masks picks the same vertices as sampling
    # the labels, since `sample` draws positions
    bits = [1 << v for v in range(1, n + 1)]
    masks = []
    for _ in range(m):
        size = rng.randint(1, min(max_size, n))
        masks.append(sum(rng.sample(bits, size)))
    return _drop_isolated(n, masks)


def _drop_isolated(n: int, masks) -> Hypergraph:
    """The hypergraph on 1..n with the edge masks `masks`, built once,
    after removing isolated vertices and compacting the labels back to
    1..n'.

    A vertex is isolated when no edge of two or more vertices holds it, so
    the edges kept are those inside the union of such edges.  When fewer
    than two vertices are left, the result is the single edge {1, 2} on
    two vertices, so theorem hypotheses stay satisfiable.
    """
    joined = 0  # the vertices with a neighbour
    for e in masks:
        if e & (e - 1):
            joined |= e
    if joined == (1 << (n + 1)) - 2:
        return Hypergraph._of_masks(n, masks)
    keep = bits_of(joined)
    if len(keep) < 2:
        return Hypergraph._of_masks(2, [0b110])
    new = {b: 2 << i for i, b in enumerate(keep)}  # the new label's mask
    return Hypergraph._of_masks(len(keep), [
        sum([new[b] for b in bits_of(e)]) for e in masks if not e & ~joined])


def _random_graph(rng: random.Random, n: int, m: int) -> Hypergraph:
    bits = [1 << v for v in range(1, n + 1)]
    return _drop_isolated(n, [sum(rng.sample(bits, 2)) for _ in range(m)])


def _check_star_family(n: int, leaves: tuple[int, ...]) -> None:
    """Reject a star family no call can build: n < 2 or leaf counts other
    than one count >= 1 per star (ValueError), or more than MAX_VERTEX
    labels, n centers and sum(leaves) leaves (VertexRangeError).  Empty
    `leaves` are a generator spec's default, one leaf per star."""
    if n < 2:
        raise ValueError("star family needs n >= 2")
    if leaves and (len(leaves) != n or any(l < 1 for l in leaves)):
        raise ValueError("need one positive leaf count per star")
    labels = n + (sum(leaves) if leaves else n)
    if labels > MAX_VERTEX:
        raise VertexRangeError(f"star-family needs n + sum(leaves) <= "
                               f"{MAX_VERTEX}, got {labels}")


def star_family(n: int, leaves: tuple[int, ...]) -> Hypergraph:
    """n star graphs with centers a_1..a_n, joined by consecutive center
    edges and one long edge {a_1..a_n}."""
    if n >= 2 and not leaves:  # empty leaves mean one each only in a spec
        raise ValueError("need one positive leaf count per star")
    _check_star_family(n, leaves)
    centers = list(range(1, n + 1))
    edges = []
    next_label = n + 1
    for i, l in enumerate(leaves):
        for _ in range(l):
            edges.append((centers[i], next_label))
            next_label += 1
    edges.extend((centers[i], centers[i + 1]) for i in range(n - 1))
    edges.append(tuple(centers))
    return Hypergraph(next_label - 1, edges)


def _random_kvd(rng: random.Random, n: int, m: int, max_size: int, k: int
                ) -> SimplicialComplex:
    """Rejection-sample pure complexes until one is k-vertex decomposable."""
    while True:
        size = rng.randint(2, min(max_size, n))
        verts = list(range(1, n + 1))
        count = rng.randint(1, m)
        x = SimplicialComplex(
            rng.sample(verts, size) for _ in range(count)
        )
        if x.is_empty or not x.is_pure():
            continue
        ok, _ = is_k_vertex_decomposable(x, k)
        if ok:
            return x


#: How each kind builds its instance from the spec and a random.Random
#: seeded with spec.seed.
_BUILDERS = {
    "random-complex": lambda s, r: _random_complex(r, s.n, s.m, s.max_size),
    "random-hypergraph":
        lambda s, r: _random_hypergraph(r, s.n, s.m, s.max_size),
    "random-graph": lambda s, r: _random_graph(r, s.n, s.m),
    "star-family": lambda s, r: star_family(s.n, s.leaves or (1,) * s.n),
    "named-example": lambda s, r: NAMED_EXAMPLES[s.name](),
    "random-kvd": lambda s, r: _random_kvd(r, s.n, s.m, s.max_size, s.k),
}

#: Every generator kind.  The SEEDLESS_KINDS ignore the seed, so every
#: trial of one of them builds the same instance.
KINDS = tuple(_BUILDERS)
SEEDLESS_KINDS = frozenset({"star-family", "named-example"})

#: The kinds that build a Hypergraph; every other kind builds a complex.
_HYPERGRAPH_KINDS = frozenset({"random-hypergraph", "random-graph",
                               "star-family"})


#: The least valid value of each spec field a random kind draws from.  Each
#: random kind also needs n <= MAX_VERTEX.
_LEAST = {
    "random-complex": {"n": 1, "m": 0, "max_size": 1},
    "random-hypergraph": {"n": 1, "m": 0, "max_size": 1},
    "random-graph": {"n": 2, "m": 0},
    "random-kvd": {"n": 2, "m": 1, "max_size": 2, "k": 0},
}


def _check_spec(spec: GeneratorSpec) -> None:
    """Reject a spec no seed can build: an unknown kind (ValueError), a
    field of a random kind below its least valid value (ValueError), a
    random kind on more than MAX_VERTEX vertices (VertexRangeError), a star
    family `star_family` refuses (ValueError) or whose n + sum(leaves)
    labels pass MAX_VERTEX (VertexRangeError), or an unknown named example
    (ValueError)."""
    if spec.kind not in _BUILDERS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if spec.kind == "star-family":
        _check_star_family(spec.n, spec.leaves)
    if spec.kind == "named-example" and spec.name not in NAMED_EXAMPLES:
        raise ValueError(f"unknown named example {spec.name!r}")
    least = _LEAST.get(spec.kind, {})
    for name, bound in least.items():
        value = getattr(spec, name)
        if value < bound:
            raise ValueError(f"{spec.kind} needs {name} >= {bound}, "
                             f"got {value}")
    if least and spec.n > MAX_VERTEX:
        raise VertexRangeError(f"{spec.kind} needs n <= {MAX_VERTEX}, "
                               f"got {spec.n}")


def generate(spec: GeneratorSpec) -> Instance:
    _check_spec(spec)
    return _BUILDERS[spec.kind](spec, random.Random(spec.seed))
