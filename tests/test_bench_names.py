"""The package names the benchmark reads: its workloads' imports and every
function its tracer wraps must exist, or the benchmark cannot run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_imports_and_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")  # fails on a name its imports lack
    assert Path(workloads.__file__).parent == BENCH
    tracer = importlib.import_module("tracer")
    for _, modname, path, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            assert part in vars(owner), f"{modname}.{path}: no {part!r}"
            owner = vars(owner)[part]
        assert attr in vars(owner), f"{modname}.{path}: no {attr!r}"
