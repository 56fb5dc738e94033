"""The three workloads: inputs, the op each input drives, and the gate that
checks every op's output outside the timed region.

Inputs come from a fixed pool per workload; the run seed orders the pool
and, for complexes and hypergraphs, relabels each instance's vertices by a
seeded permutation.  Op costs are heavy-tailed (complex-chain: mean 268 ms,
standard deviation 510 ms; one nc-leray pool instance takes 13 of the
pool's 22 s), so instances drawn afresh from every seed would move
throughput by 20-50% between seeds for reasons unrelated to the code.  Relabeling keeps each run's inputs distinct
while holding the cost mix: the label-invariant values of every op must equal
the values pinned for its pool instance (ops that fail today are unpinned),
and no instance repeats in a run.

Known defects are failed ops, never filtered: an op that raises, a theorem
bound that does not hold, or a `verify` that returns a counterexample is
counted in `failed` with its instance recorded.  An output that contradicts
itself (a witness that does not replay, a report that does not round-trip,
a value that differs from its pin) makes the run incorrect.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED = Path(__file__).resolve().parent / "pinned.json"

#: A bytecode cache directory that never exists: nothing is written to it
#: (the benchmark writes no bytecode), so every import compiles from source.
NO_PYCACHE = ROOT / ".bench_build" / "no-pycache"

#: A pin for an op that fails today: its outcome is not gated, so that a
#: fix can show.
UNPINNED = (None, "?")

MODULES = ("complexes", "invariants", "homology", "hypergraphs", "reports",
           "generators")

WORKLOADS = ("complex-chain", "nc-leray", "theorem-sweep")

#: `compute(x, "all")` raises NotPureError on non-pure complexes (91% of
#: random n=7 complexes), so complex-chain names the invariants it runs.
CHAIN_INVARIANTS = ["leray", "C", "M0", "M1", "M2", "d_mes", "betti"]

#: Ops per second at nominal speed; a run does round(seconds * rate) ops, a
#: fixed count, so the work per run does not depend on the machine's speed.
RATES = {"complex-chain": 4.0, "nc-leray": 5.0, "theorem-sweep": 180.0}

#: Vertex count of the complex-chain instances; relabeling permutes 1..n.
COMPLEX_N = 6

#: Untimed ops before the timed ones, taken from the pool after the run.
WARMUP = 2


class OpFailed(Exception):
    """A known kind of failure: counted in `failed`, instance recorded."""


class Incorrect(Exception):
    """An output that contradicts itself or its pin."""


def _chk(cond: bool, exc, detail: str) -> None:
    if not cond:
        raise exc(detail)


@dataclass
class Item:
    pool_index: int
    inst: object          # complex or hypergraph; None for theorem-sweep
    theorem: str = ""
    spec: object = None   # GeneratorSpec for theorem-sweep


def run_seconds() -> int:
    """The run length BENCHMARK.json sets; the pins cover its pools."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def fresh_import():
    """Import the library's public modules from the checkout's source,
    dropping any copy already loaded.  Every import compiles the source: a
    bytecode cache next to it (left by pytest, say) is never read."""
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(NO_PYCACHE)
    init = SRC / "collapsekit" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"collapsekit source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "collapsekit" or m.startswith("collapsekit.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{
        m: importlib.import_module(f"collapsekit.{m}") for m in MODULES
    })
    if Path(lib.complexes.__file__).resolve().parent != init.parent.resolve():
        raise ImportError(
            f"collapsekit imported from {lib.complexes.__file__}")
    return lib


def op_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds * RATES[workload]))


def _relabel(lib, inst, rng: random.Random):
    """A copy of `inst` with its vertices 1..n permuted by `rng`."""
    is_complex = isinstance(inst, lib.complexes.SimplicialComplex)
    n = COMPLEX_N if is_complex else inst.n
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    perm = dict(zip(range(1, n + 1), labels))
    if is_complex:
        return lib.complexes.SimplicialComplex(
            [[perm[v] for v in f.vertices] for f in inst.facets])
    return lib.hypergraphs.Hypergraph(
        n, [[perm[v] for v in e.vertices] for e in inst.edges])


def pool_instance(lib, workload: str, index: int):
    spec = lib.generators.GeneratorSpec
    if workload == "complex-chain":
        return lib.generators.generate(
            spec(kind="random-complex", seed=index, n=COMPLEX_N, m=7,
                 max_size=3))
    return lib.generators.generate(
        spec(kind="random-hypergraph", seed=index, n=8, m=9, max_size=3))


def make_items(lib, workload: str, seed: int, n_ops: int
               ) -> tuple[list[Item], list[Item]]:
    """The run's timed inputs, and WARMUP untimed ones from past its end.

    theorem-sweep goes round-robin over every registered theorem except
    mk-chain, whose trials would dominate the time and repeat complex-chain;
    its op count is rounded to whole rounds, one spec seed per round.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theorem-sweep":
        order = [t for t in lib.reports.THEOREMS if t != "mk-chain"]
        rounds = max(1, round(n_ops / len(order)))
        blocks = list(range(rounds))
        rng.shuffle(blocks)
        items = [Item(b * len(order) + j, None, thm,
                      lib.generators.GeneratorSpec(
                          kind=lib.reports.THEOREMS[thm][0], seed=b, n=6, m=7))
                 for b in blocks + [rounds] for j, thm in enumerate(order)]
        return items[:-len(order)], items[-len(order):][:WARMUP]
    indices = list(range(n_ops))
    rng.shuffle(indices)
    items = [Item(i, _relabel(lib, pool_instance(lib, workload, i), rng))
             for i in indices + list(range(n_ops, n_ops + WARMUP))]
    return items[:n_ops], items[n_ops:]


def run_op(lib, workload: str, item: Item):
    """The timed op.  Its output is checked by `gate`, untimed."""
    if workload == "theorem-sweep":
        return lib.reports.verify(item.theorem, item.spec, trials=1)
    which = CHAIN_INVARIANTS if workload == "complex-chain" else None
    report = lib.reports.compute(item.inst, which)
    return report, lib.reports.report_json(report)


def describe(lib, workload: str, item: Item) -> dict:
    if workload == "theorem-sweep":
        return {"theorem": item.theorem, "spec_seed": item.spec.seed,
                "kind": item.spec.kind}
    return {"pool_index": item.pool_index,
            "instance": json.loads(lib.reports.instance_to_json(item.inst))}


# -- gates -------------------------------------------------------------------

def _check_certificate(lib, x, obj: dict, claimed: int) -> None:
    cert = lib.reports.certificate_from_obj(obj)
    _chk(cert.claimed_d == claimed and cert.replay(x), Incorrect,
         f"collapse certificate for C={claimed} does not replay")


def _check_ordering(lib, x, facets: list, d: int) -> None:
    inv = lib.invariants
    order = inv.FacetOrdering(x, [lib.complexes.Face.of(f) for f in facets])
    _chk(inv.d_of_ordering(x, order) == d, Incorrect,
         f"facet ordering witness does not give d={d}")


def check_report(lib, inst, output) -> dict:
    """Check a (report, report_json) pair: the JSON round-trips, describes
    `inst`, stayed within budget, and every witness in it replays.  Returns
    the report's values."""
    report, text = output
    _chk(json.loads(text) == report, Incorrect,
         "report_json does not round-trip")
    _chk(lib.reports.report_json(json.loads(text)) == text, Incorrect,
         "report_json is not stable under a round-trip")
    _chk(report["instance"]["content"] == json.loads(
        lib.reports.instance_to_json(inst)), Incorrect,
        "report describes another instance")
    _chk(not report["budget"]["exhausted"], OpFailed,
         f"budget exhausted on {report['budget']['exhausted']}")
    v, w = report["values"], report["witnesses"]
    hom = lib.homology
    for key, seq in w.items():
        if key.startswith("shedding_sequence_k"):
            k = int(key[len("shedding_sequence_k"):])
            wit = tuple(hom.SheddingWitness(lib.complexes.Face.of(f), b)
                        for f, b in seq)
            _chk(hom.verify_shedding_sequence(inst, k, wit), Incorrect,
                 f"{key} does not replay")
    if "collapse_certificate" in w:
        _check_certificate(lib, inst, w["collapse_certificate"], v["C"])
    if "facet_ordering" in w:
        _check_ordering(lib, inst, w["facet_ordering"], v["d_mes"])
    if "nc_collapse_certificate" in w or "nc_facet_ordering" in w:
        nc = lib.hypergraphs.non_cover_complex(inst)
        if "nc_collapse_certificate" in w:
            _check_certificate(lib, nc, w["nc_collapse_certificate"],
                               v["nc_C"])
        if "nc_facet_ordering" in w:
            _check_ordering(lib, nc, w["nc_facet_ordering"], v["nc_d"])
    return v


def _euler_ok(x, betti: dict) -> bool:
    chi = -1
    faces = set()
    for f in x.facets:
        sub = int(f)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & int(f)
    for m in faces:
        chi += -1 if m.bit_count() % 2 == 0 else 1
    return chi == -betti["rank_neg1"] + sum(
        (-1) ** i * r for i, r in enumerate(betti["ranks"]))


def pinned_values(workload: str, output) -> object:
    """The label-invariant values of an op, as stored in pinned.json."""
    if workload == "theorem-sweep":
        return ("F" if output["fails"] else "P" if output["passes"] else "S")
    v = output[0]["values"]
    if workload == "complex-chain":
        return [v["leray"], v["C"], v["M0"], v["M1"], v["M2"],
                v["betti"]["ranks"]]
    return [v["gamma_i"], v["gamma_tilde"], v["gamma_si"], v["gamma_E"],
            v["nc_C"], v["nc_leray"]]


def load_pins() -> dict:
    with open(PINNED) as fh:
        return json.load(fh)


def gate(lib, workload: str, item: Item, output, pins: dict | None
         ) -> None:
    """Raise Incorrect or OpFailed if the op's output is wrong.  With
    `pins` None the values are not compared (pin.py makes the pins)."""
    if workload != "theorem-sweep":
        v = check_report(lib, item.inst, output)
    if pins is not None:
        pin = pins[workload]
        _chk(item.pool_index < len(pin), Incorrect,
             f"no pin for pool index {item.pool_index}")
        want = pin[item.pool_index]
        got = pinned_values(workload, output)
        _chk(want in UNPINNED or got == want, Incorrect,
             f"values {got} != pinned {want}")
    if workload == "theorem-sweep":
        _chk(output["trials"] == 1 and output["passes"] + output["skips"]
             + output["fails"] == 1, Incorrect, f"bad summary {output}")
        if output["fails"]:
            again = lib.reports.verify(item.theorem, item.spec, trials=1)
            _chk(again == output, Incorrect,
                 "counterexample does not reproduce")
            raise OpFailed(output["counterexample"]["detail"])
    elif workload == "complex-chain":
        _chk(_euler_ok(item.inst, v["betti"]), Incorrect,
             "Betti numbers contradict the Euler characteristic")
        _chk(v["leray"] <= v["C"] <= v["M2"] <= v["M1"] <= v["M0"]
             <= v["d_mes"], OpFailed,
             "L <= C <= M2 <= M1 <= M0 <= d_mes fails: " + json.dumps(v))
    else:
        # nc_d comes from the unrelabeled lex order, which bounds C but
        # not n - gamma_i - 1 (see hypergraphs.nc_bound_order); that bound
        # holds for C itself, which is label-invariant
        n = item.inst.n
        _chk(v["nc_leray"] <= v["nc_C"] <= v["nc_d"]
             and v["nc_C"] <= n - v["gamma_i"] - 1, OpFailed,
             "nc_leray <= nc_C <= nc_d, nc_C <= n-gamma_i-1 fails: "
             + json.dumps(v))
        _chk(v["nc_leray"] <= n - v["gamma_E"] - 1, OpFailed,
             f"L={v['nc_leray']} > n-gamma_E-1={n - v['gamma_E'] - 1}")
