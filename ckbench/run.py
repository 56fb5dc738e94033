"""collapsekit benchmark: drift-corrected, closed-loop, one process, one
thread.

    python3 ckbench/run.py --workload complex-chain --seed 1 --seconds 20

With --trace 0 it times a fixed number of ops of one workload and prints the
end-to-end metrics; with --trace 1 it runs the traced pass described in
ckbench/README.md and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it holds the run's
details, raw wall-clock figures included.  Exit codes: 0 done, 2 the library
source is missing, 3 the reference guard rejected the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path

# the benchmark leaves no bytecode behind (set-up bypasses any cache: see
# workloads.fresh_import)
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import BUDGETED, Tracer  # noqa: E402

#: Fresh set-ups per run; setup_s is their median.
SETUPS = 15

#: Ops of each workload in the traced pass (theorem-sweep: whole rounds).
PREFIX = {"complex-chain": 12, "nc-leray": 16, "theorem-sweep": 320}

GOLDEN_INVARIANTS = ["leray", "C", "M0", "M1", "M2", "d_mes",
                     "kvd0", "kvd1", "shellable", "cohen_macaulay"]
#: v6f10-6 is 1- but not 0-vertex-decomposable, hence shellable and
#: Cohen-Macaulay.
GOLDEN_VALUES = {"leray": 2, "C": 2, "M0": 3, "M1": 2, "M2": 2, "d_mes": 3,
                 "kvd0": False, "kvd1": True, "shellable": True,
                 "cohen_macaulay": True}

STAR_SIZES = (4, 5)


class Outcomes:
    """Failed and incorrect ops, each with its instance."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.failed: list[dict] = []
        self.incorrect: list[dict] = []

    def check(self, lib, workload, item, output) -> bool:
        """Gate one op's output; True when the op completed."""
        try:
            if isinstance(output, Exception):
                raise wl.OpFailed(f"{type(output).__name__}: {output}")
            wl.gate(lib, workload, item, output, self.pins)
        except wl.OpFailed as exc:
            self.failed.append({**wl.describe(lib, workload, item),
                                "detail": str(exc)})
            return False
        except wl.Incorrect as exc:
            self.incorrect.append({**wl.describe(lib, workload, item),
                                   "detail": str(exc)})
            return False
        return True


def _attempt(lib, workload, item):
    try:
        return wl.run_op(lib, workload, item)
    except Exception as exc:  # a failed op is recorded, never fatal
        return exc


def _setup(workload, seed, n_ops):
    lib = wl.fresh_import()
    return lib, wl.make_items(lib, workload, seed, n_ops)


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) for the highest integer
    percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    p = (100 * (n - 10)) // n
    rank = math.ceil(p * n / 100)
    return ordered[rank - 1], p, n - rank


def _summarise(duration, setups, ops, ok):
    """The timed metrics, with `duration(i)` the length of interval i."""
    # a failed op misses any latency limit
    lat = [duration(i) if good else math.inf for i, good in zip(ops, ok)]
    tail_s, tail_p, beyond = tail(lat)
    return {
        "setup_s": statistics.median(map(duration, setups)),
        "ops_per_s": sum(ok) / sum(map(duration, ops)),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
    }, tail_p, beyond


def timed_run(workload: str, seed: int, seconds: int, pins: dict):
    n_ops = wl.op_count(workload, seconds)
    with reference.DriftMeter() as meter:
        setups = []
        for _ in range(SETUPS):
            # drop the modules the last set-up left behind, untimed
            gc.collect()
            i, (lib, (items, warmup)) = meter.time(_setup, workload, seed,
                                                   n_ops)
            setups.append(i)
        out = Outcomes(pins)
        for item in warmup:
            out.check(lib, workload, item, _attempt(lib, workload, item))
        out.failed.clear()
        ops, ok = [], []
        for item in items:
            i, output = meter.time(_attempt, lib, workload, item)
            ops.append(i)
            ok.append(out.check(lib, workload, item, output))
            meter.check()
        meter.close()

    metrics, tail_p, beyond = _summarise(meter.normalised, setups, ops, ok)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    raw, _, _ = _summarise(meter.raw.__getitem__, setups, ops, ok)
    units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
    details = {
        "workload": workload, "seed": seed, "ops": len(ops),
        "tail_percentile": tail_p, "tail_samples_beyond": beyond,
        "raw": raw,
        "references": len(meter.refs),
        "reference_ms": {"min": 1e3 * min(meter.refs),
                         "median": 1e3 * statistics.median(meter.refs),
                         "max": 1e3 * max(meter.refs)},
        "failed": out.failed, "incorrect": out.incorrect,
    }
    result = {
        "correct": not out.incorrect,
        "attempted": len(ops),
        "failed": len(out.failed) + len(out.incorrect),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, details


# -- traced pass -------------------------------------------------------------

def _matrix_cells(facets) -> int:
    """Sum of f_{k-1} * f_k over k >= 1: the boundary-matrix entries
    reduced_betti builds for a complex with these facets."""
    faces = set()
    for f in facets:
        f = int(f)
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    fvec = [0] * (max((m.bit_count() for m in faces), default=0) + 1)
    for m in faces:
        fvec[m.bit_count()] += 1
    return sum(fvec[k] * fvec[k + 1] for k in range(1, len(fvec) - 1))


def _gate_special(lib, inst, output, expected: dict, out: Outcomes, name):
    try:
        v = wl.check_report(lib, inst, output)
        got = {k: v[k] for k in expected}
        if got != expected:
            raise wl.Incorrect(f"values {got} != {expected}")
    except (wl.Incorrect, wl.OpFailed) as exc:
        out.incorrect.append({"section": name, "detail": str(exc)})


def traced_run(seed: int, seconds: int, pins: dict):
    lib = wl.fresh_import()
    tracer = Tracer()
    with reference.DriftMeter() as meter:
        out = Outcomes(pins)
        prefixes = {w: wl.make_items(lib, w, seed, wl.op_count(w, seconds))[0]
                    [:PREFIX[w]] for w in wl.WORKLOADS}
        sections: dict[str, list[int]] = {}

        def run_section(name, workload, items, traced):
            sections[name] = []
            for item in items:
                tracer.active = traced
                i, output = meter.time(_attempt, lib, workload, item)
                tracer.active = False
                sections[name].append(i)
                out.check(lib, workload, item, output)
                meter.check()

        for w, items in prefixes.items():
            run_section(f"section.{w}.untraced_s", w, items, False)
        tracer.install(lib, meter.norm_clock)
        try:
            for w, items in prefixes.items():
                run_section(f"section.{w}.traced_s", w, items, True)

            def special(inst, which):
                tracer.active = True
                try:
                    report = lib.reports.compute(inst, which)
                    return report, lib.reports.report_json(report)
                finally:
                    tracer.active = False

            golden = lib.generators.v6f10_6()
            mk = tracer.spans["invariants.mk_chain"]
            nodes0 = mk.nodes
            i, output = meter.time(special, golden, GOLDEN_INVARIANTS)
            sections["section.golden.traced_s"] = [i]
            golden_nodes = mk.nodes - nodes0
            _gate_special(lib, golden, output, GOLDEN_VALUES, out, "golden")
            for n in STAR_SIZES:
                h = lib.generators.star_family(n, (1,) * n)
                i, output = meter.time(special, h, None)
                sections[f"section.star{n}.traced_s"] = [i]
                expect = {"gamma_i": n, "gamma_E": 1, "nc_C": n - 1,
                          "nc_d": n - 1, "nc_leray": n - 1}
                _gate_special(lib, h, output, expect, out, f"star{n}")
        finally:
            tracer.uninstall()
        meter.close()

    sections = {k: sum(map(meter.normalised, v)) for k, v in sections.items()}

    metrics = {}
    for name, span in tracer.spans.items():
        metrics[f"{name}.calls"] = (span.calls, "count")
        metrics[f"{name}.self_s"] = (span.self_s, "s")
        if name in BUDGETED:
            metrics[f"{name}.nodes"] = (span.nodes, "count")
    spans = tracer.spans
    mk, cs, rb = (spans["invariants.mk_chain"],
                  spans["invariants.collapse_search"],
                  spans["homology.reduced_betti"])
    metrics["invariants.mk_chain.distinct_share"] = (
        len(mk.inputs) / max(mk.calls, 1), "ratio")
    metrics["invariants.collapse_useful_share"] = (
        cs.successes / max(cs.calls, 1), "ratio")
    metrics["homology.reduced_betti.distinct_share"] = (
        len(rb.inputs) / max(rb.calls, 1), "ratio")
    metrics["homology.matrix_cells"] = (
        sum(c * _matrix_cells(k[0]) for k, c in rb.inputs.items()), "count")
    untraced = sum(sections[f"section.{w}.untraced_s"] for w in wl.WORKLOADS)
    traced = sum(sections[f"section.{w}.traced_s"] for w in wl.WORKLOADS)
    metrics["trace.overhead_share"] = (traced / untraced - 1, "ratio")
    metrics["golden.invariants.mk_chain.nodes"] = (golden_nodes, "count")
    for name, value in sections.items():
        metrics[name] = (value, "s")

    details = {"seed": seed, "prefix_ops": {w: len(v) for w, v in
                                            prefixes.items()},
               "references": len(meter.refs),
               "failed": out.failed, "incorrect": out.incorrect}
    result = {
        "correct": not out.incorrect,
        "attempted": sum(len(v) for v in prefixes.values()) * 2
        + 1 + len(STAR_SIZES),
        "failed": len(out.failed) + len(out.incorrect),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pins = wl.load_pins()
        wl.fresh_import()
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result, details = traced_run(args.seed, args.seconds, pins)
        else:
            result, details = timed_run(args.workload, args.seed,
                                        args.seconds, pins)
    except reference.GuardError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"latency_tail_ms is p{details['tail_percentile']} of "
              f"{details['ops']} ops, {details['tail_samples_beyond']} beyond")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
