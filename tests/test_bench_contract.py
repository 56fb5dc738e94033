"""The library surface the benchmark in ckbench/ relies on.

The traced pass wraps the functions named in `ckbench/tracer.py` and the
ops call library attributes by name, so a refactor that moves or renames
one of them breaks the benchmark, not the library's own tests.  These
checks make such a change fail here instead.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
import time
from pathlib import Path

import pytest

import collapsekit

CKBENCH = Path(__file__).resolve().parent.parent / "ckbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "ckbench_tracer", CKBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind in ckbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()


def _module(name):
    return importlib.import_module(f"collapsekit.{name}")


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_layer_targets_are_defined_on_their_owner(layer):
    mod_name, path = tracer.LAYERS[layer]
    targets = tracer._targets(_module(mod_name), path)
    assert targets
    for owner, attr in targets:
        # the tracer reads vars(owner), so an inherited or re-exported
        # name would not be wrapped
        assert callable(vars(owner)[attr]), (layer, attr)


@pytest.mark.parametrize("layer", sorted(tracer.BUDGETED))
def test_budgeted_positions_name_the_budget(layer):
    mod_name, path = tracer.LAYERS[layer]
    for owner, attr in tracer._targets(_module(mod_name), path):
        params = list(inspect.signature(vars(owner)[attr]).parameters)
        assert params[tracer.BUDGETED[layer]] == "budget", (layer, params)


def _library_references(source: str):
    """Every `lib.<module>.<attr>...` chain in a benchmark file, following
    local aliases of the form `name = lib.<module>`."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "lib"):
            aliases[node.targets[0].id] = node.value.attr
    refs = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        base = node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name):
            continue
        chain.reverse()
        if base.id == "lib" and len(chain) >= 2:
            refs.add(tuple(chain))
        elif base.id in aliases:
            refs.add((aliases[base.id], *chain))
    return refs


@pytest.mark.parametrize("name", ["workloads.py", "run.py", "tracer.py"])
def test_benchmark_library_references_resolve(name):
    refs = _library_references((CKBENCH / name).read_text())
    assert refs
    for mod_name, *attrs in refs:
        obj = _module(mod_name)
        for attr in attrs:
            assert hasattr(obj, attr), (name, mod_name, attrs)
            obj = getattr(obj, attr)


def test_benchmark_instance_attributes():
    """Instances are rebuilt from `facets` / `edges`, read as Faces."""
    from collapsekit.generators import star_family, v6f10_6

    x = v6f10_6()
    assert type(x.facets) is tuple
    assert all(type(f) is collapsekit.Face for f in x.facets)
    h = star_family(3, (1, 1, 1))
    assert type(h.edges) is tuple
    assert all(type(e) is collapsekit.Face for e in h.edges)
    assert x.facets[0].vertices == (1, 2, 3)


def _traced(call):
    """The tracer's spans over one call, made with the tracer active."""
    t = tracer.Tracer()
    t.install(collapsekit, time.perf_counter)
    try:
        t.active = True
        call()
    finally:
        t.active = False
        t.uninstall()
    return t.spans


def test_traced_report_records_every_layer_and_builds_nc_once():
    """A report under the benchmark's tracer: the spans it reads see the
    report path, and NC(H) is built once for all three NC invariants.  The
    tree's NC(H) has C = L(X; GF(2)) = 2 below the claim 3 of the mes
    collapse under the nc order and under its reverse, so C is searched
    at 2.  (Labelled 1-2, 2-3, 3-4, 3-5, the same tree's reversed order
    claims 2, and C is read off that ceiling with no search; on
    NC(star_family(3, (1, 1, 1))) the floor meets the nc order's own
    claim.)  The tree's largest minimal cover, {2, 3, 4}, starts C's GF(2)
    scan at 2 in `homology._leray`, past the `leray_number` span, and so
    does a complex report asking C, whose greedy d = 1 walk settles every
    floor below 2; so that span is read on the same NC(H) as a complex
    report asking the Leray number without C, which scans uncapped
    through `leray_number`."""
    h = collapsekit.Hypergraph(5, [(1, 2), (2, 5), (3, 5), (4, 5)])
    spans = _traced(lambda: collapsekit.reports.compute(h))
    assert spans["hypergraphs.non_cover_complex"].calls == 1
    for name in ("reports.compute", "hypergraphs.gamma",
                 "invariants.collapse_search"):
        assert spans[name].calls > 0, name
    nc = collapsekit.non_cover_complex(h)
    spans = _traced(lambda: collapsekit.reports.compute(nc, ["leray"]))
    assert spans["homology.leray_number"].calls > 0
