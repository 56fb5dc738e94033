"""Per-layer spans, recorded from the benchmark's side of the library's
public functions.

`Tracer.install(lib, clock)` replaces each traced function by a wrapper and
rebinds every reference the library holds to it: module globals (reports
imports `mk_chain` by name), class attributes (the M_k engine calls
`y.link`) and the closures in the report registries (`_inv_gamma` captured
`hg.gamma_i` at import).  `uninstall()` puts every original back.

Each span records `calls`, self time (its duration minus the spans nested
in it) and, for searches that take a `Budget`, the nodes it spent.  Spans
record only while `active` is true, so the gates between ops stay out.
"""

from __future__ import annotations

import functools
import types
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    nodes: int = 0
    successes: int = 0
    inputs: Counter = field(default_factory=Counter)


def _facets_key(args, kwargs):
    return args[0].facets


def _betti_key(args, kwargs):
    return args[0].facets, str(args[1] if len(args) > 1
                                else kwargs.get("field", "Q"))


#: span name -> (module, "Class.method" or space-separated functions)
LAYERS = {
    "complexes.canonicalize": ("complexes", "SimplicialComplex.__init__"),
    "complexes.link": ("complexes", "SimplicialComplex.link"),
    "complexes.deletion": ("complexes", "SimplicialComplex.deletion"),
    "complexes.open_faces": ("complexes", "SimplicialComplex.open_faces"),
    "complexes.free_pairs": ("complexes", "SimplicialComplex.free_pairs"),
    "complexes.collapse": ("complexes", "SimplicialComplex.collapse"),
    "invariants.mk_chain": ("invariants", "mk_chain"),
    "invariants.collapse_search": ("invariants", "is_d_collapsible"),
    "homology.reduced_betti": ("homology", "reduced_betti"),
    "homology.leray_number": ("homology", "leray_number"),
    "homology.kvd": ("homology", "is_k_vertex_decomposable"),
    "homology.is_cohen_macaulay": ("homology", "is_cohen_macaulay"),
    "homology.is_shellable": ("homology", "is_shellable"),
    "hypergraphs.non_cover_complex": ("hypergraphs", "non_cover_complex"),
    "hypergraphs.gamma": ("hypergraphs",
                          "gamma_i gamma_tilde gamma_si gamma_E"),
    "hypergraphs.minimal_covers": ("hypergraphs", "Hypergraph.minimal_covers"),
    "reports.compute": ("reports", "compute"),
    "reports.report_json": ("reports", "report_json"),
    "reports.verify": ("reports", "verify"),
    "generators.generate": ("generators", "generate"),
}

#: Position of the `Budget` argument of the searches whose nodes are counted.
BUDGETED = {"invariants.mk_chain": 2, "invariants.collapse_search": 2,
            "homology.kvd": 2}

#: Spans that count distinct inputs, keyed as below.
INPUT_KEYS = {"invariants.mk_chain": _facets_key,
              "homology.reduced_betti": _betti_key}


def _targets(mod, path: str):
    """(owner, attribute) pairs a LAYERS entry names."""
    if "." in path:
        cls, method = path.split(".")
        return [(getattr(mod, cls), method)]
    return [(mod, name) for name in path.split()]


class Tracer:
    def __init__(self):
        self.spans = {name: Span() for name in LAYERS}
        self.active = False
        self._stack: list[float] = []
        self._undo: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, span: Span, fn, budget_pos, key, budget_cls, clock):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            budget = None
            if budget_pos is not None:
                if len(args) > budget_pos:
                    budget = args[budget_pos]
                else:
                    budget = kwargs.get("budget")
                if budget is None:
                    # the library's own default, made visible to count nodes
                    budget = budget_cls()
                    if len(args) > budget_pos:
                        args = (args[:budget_pos] + (budget,)
                                + args[budget_pos + 1:])
                    else:
                        kwargs["budget"] = budget
                used = budget.used
            if key is not None:
                span.inputs[key(args, kwargs)] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span.self_s += dt - stack.pop()
                span.calls += 1
                if stack:
                    stack[-1] += dt
                if budget is not None:
                    span.nodes += budget.used - used
            if type(result) is tuple and result and result[0] is True:
                span.successes += 1
            return result

        return wrapper

    def install(self, lib, clock) -> None:
        """Wrap every LAYERS function of `lib`; spans are timed by `clock`."""
        modules = [m for m in vars(lib).values()
                   if isinstance(m, types.ModuleType)]
        package = __import__(modules[0].__package__)
        modules.append(package)
        budget_cls = lib.invariants.Budget
        for name, (mod_name, path) in LAYERS.items():
            for owner, attr in _targets(getattr(lib, mod_name), path):
                orig = vars(owner)[attr]
                repl = self._wrap(self.spans[name], orig, BUDGETED.get(name),
                                  INPUT_KEYS.get(name), budget_cls, clock)
                if isinstance(owner, type):
                    self._set(owner, attr, orig, repl)
                else:
                    self._rebind(modules, orig, repl)

    def _set(self, owner, attr, orig, repl) -> None:
        setattr(owner, attr, repl)
        self._undo.append(lambda: setattr(owner, attr, orig))

    def _rebind(self, modules, orig, repl) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, orig, repl)
                elif isinstance(val, dict):
                    for fn in val.values():
                        for cell in getattr(fn, "__closure__", None) or ():
                            if cell.cell_contents is orig:
                                cell.cell_contents = repl
                                self._undo.append(
                                    functools.partial(setattr, cell,
                                                      "cell_contents", orig))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
