"""Regenerate pinned.json: the label-invariant values of every pool
instance of each workload (the timed ops and the warm-up ones of a run of
BENCHMARK.json's `run_seconds`), as the library computes them today.

    python3 ckbench/pin.py

Run it only when the pools change (new rates, sizes or run length); the
pins are the correctness gate that later changes to the library must pass.
An op that fails today (it raises, or its gate counts it as failed) is
stored unpinned, so that a fix is not read as a wrong answer.
"""

from __future__ import annotations

import json

import workloads as wl


def main() -> None:
    lib = wl.fresh_import()
    n_ops = {w: wl.op_count(w, wl.run_seconds()) for w in wl.WORKLOADS}
    pins = {}
    for workload in wl.WORKLOADS:
        items, warmup = wl.make_items(lib, workload, 0, n_ops[workload])
        values = {}
        for item in items + warmup:
            if workload != "theorem-sweep":
                item.inst = wl.pool_instance(lib, workload, item.pool_index)
            try:
                output = wl.run_op(lib, workload, item)
                wl.gate(lib, workload, item, output, None)
                values[item.pool_index] = wl.pinned_values(workload, output)
            except wl.Incorrect:
                raise
            except Exception:  # fails today: raises, or gated as failed
                values[item.pool_index] = ("?" if workload == "theorem-sweep"
                                           else None)
        pinned = [values[i] for i in range(len(values))]
        if workload == "theorem-sweep":
            pinned = "".join(pinned)
        pins[workload] = pinned
        print(workload, len(pinned), "unpinned:",
              [i for i, v in enumerate(pinned) if v in wl.UNPINNED],
              flush=True)
    with open(wl.PINNED, "w") as fh:
        json.dump(pins, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
