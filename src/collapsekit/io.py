"""Text file formats for instances.

Complex files:   {"vertices": [int...], "facets": [[int...]...]}
Hypergraph files: {"n": int, "edges": [[int...]...]}   (1-based vertices)

Facet lists need not be pre-canonicalized; the complex loader canonicalizes
them, dropping repeated and non-maximal facets.  A missing field raises
ValueError naming it, and a field of the wrong type (a count or label that
is not an integer, facets or edges that are not lists of lists) raises
ValueError naming the bad value.
"""

from __future__ import annotations

import json
from typing import Union

from .complexes import SimplicialComplex
from .hypergraphs import Hypergraph

Instance = Union[SimplicialComplex, Hypergraph]


def complex_to_obj(x: SimplicialComplex) -> dict:
    return {
        "vertices": list(x.vertices),
        "facets": [list(f.vertices) for f in x.facets],
    }


def hypergraph_to_obj(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": [list(e.vertices) for e in h.edges]}


def instance_to_obj(inst: Instance) -> dict:
    if isinstance(inst, SimplicialComplex):
        return complex_to_obj(inst)
    return hypergraph_to_obj(inst)


def instance_to_json(inst: Instance) -> str:
    return json.dumps(instance_to_obj(inst), sort_keys=True)


def _is_label(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _label_list(value, what: str) -> list:
    """`value` if it is a list of integer vertex labels, else ValueError."""
    if not isinstance(value, list) or not all(map(_is_label, value)):
        raise ValueError(
            f"{what} {value!r} is not a list of integer vertex labels")
    return value


def _label_lists(value, what: str, each: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} {value!r} is not a list of vertex lists")
    return [_label_list(r, each) for r in value]


def _field(obj: dict, name: str, kind: str):
    """obj[name], or a ValueError naming the missing field."""
    if name not in obj:
        raise ValueError(f"{kind} file has no {name!r} field")
    return obj[name]


def complex_from_obj(obj: dict) -> SimplicialComplex:
    """The canonicalized complex, with a singleton facet for each declared
    vertex that no facet holds."""
    x = SimplicialComplex(
        _label_lists(_field(obj, "facets", "complex"), "facets", "facet"))
    declared = obj.get("vertices")
    if declared is not None:
        _label_list(declared, "vertices")
        have = set(x.vertices)
        extra = [v for v in declared if v not in have]
        # isolated vertices must be represented as singleton facets
        if extra:
            x = SimplicialComplex(list(x.facets) + [(v,) for v in extra])
    return x


def hypergraph_from_obj(obj: dict) -> Hypergraph:
    n = _field(obj, "n", "hypergraph")
    if not _is_label(n):
        raise ValueError(f"n {n!r} is not an integer vertex count")
    edges = _field(obj, "edges", "hypergraph")
    return Hypergraph(n, _label_lists(edges, "edges", "edge"))


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "edges" in obj or "n" in obj:
        return hypergraph_from_obj(obj)
    if "facets" in obj or "vertices" in obj:
        return complex_from_obj(obj)
    raise ValueError(f"{path}: neither a complex nor a hypergraph file")

