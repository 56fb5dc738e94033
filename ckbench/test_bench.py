"""Tests of the benchmark itself (not collected by the library's suite):

    python3 -m pytest -q ckbench/test_bench.py

The determinism test makes two full traced passes and takes a few minutes.
"""

import importlib
import marshal
import shutil
import struct
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import BUDGETED, LAYERS  # noqa: E402


def _busy(stop: threading.Event) -> None:
    n = 0
    while not stop.is_set():
        n += 1


def test_busy_thread_rejects_the_run(capsys):
    assert reference.reference_shot() > 0
    stop = threading.Event()
    worker = threading.Thread(target=_busy, args=(stop,))
    worker.start()
    try:
        with pytest.raises(reference.GuardError):
            reference.reference_shot()
        code = run.main(["--workload", "theorem-sweep", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert code == 3
    assert "rejected" in capsys.readouterr().err


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(80)]
    value, p, beyond = run.tail(values)
    assert (p, beyond) == (87, 10) and value == 69.0


def _counts(result: dict) -> dict:
    names = [f"{n}.calls" for n in LAYERS] + [f"{n}.nodes" for n in BUDGETED]
    names += ["homology.matrix_cells", "golden.invariants.mk_chain.nodes"]
    return {n: result["metrics"][n]["value"] for n in names}


def test_traced_runs_repeat_counts_exactly():
    pins = wl.load_pins()
    first, _ = run.traced_run(5, wl.run_seconds(), pins)
    second, _ = run.traced_run(5, wl.run_seconds(), pins)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)
    assert all(v > 0 for n, v in _counts(first).items()
               if n.endswith(".calls"))


def test_gate_needs_a_pin_but_not_for_ops_that_fail_today():
    passed = {"trials": 1, "passes": 1, "skips": 0, "fails": 0}
    pins = {"theorem-sweep": "P?S"}

    def gate(index):
        wl.gate(None, "theorem-sweep", wl.Item(index, None, "t"), passed,
                pins)

    gate(0)
    gate(1)
    for index in (2, 3):
        with pytest.raises(wl.Incorrect):
            gate(index)


def _drop_library(monkeypatch):
    for name in [m for m in sys.modules if m.split(".")[0] == "collapsekit"]:
        monkeypatch.delitem(sys.modules, name)


def test_setup_never_reads_planted_bytecode(tmp_path, monkeypatch):
    src = tmp_path / "src"
    shutil.copytree(wl.SRC / "collapsekit", src / "collapsekit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(sys, "pycache_prefix", None)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(src))
    # a valid cache entry for __init__.py whose code differs from the source
    init = src / "collapsekit" / "__init__.py"
    code = compile(init.read_text() + "\nPLANTED = True\n", str(init), "exec")
    stat = init.stat()
    pyc = Path(importlib.util.cache_from_source(str(init)))
    pyc.parent.mkdir()
    pyc.write_bytes(importlib.util.MAGIC_NUMBER + struct.pack(
        "<III", 0, int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF)
        + marshal.dumps(code))

    _drop_library(monkeypatch)
    assert importlib.import_module("collapsekit").PLANTED  # a plain import
    monkeypatch.setattr(wl, "SRC", src)
    wl.fresh_import()
    assert not hasattr(sys.modules["collapsekit"], "PLANTED")
