#!/usr/bin/env python3
"""dolearn benchmark: one workload per fresh single-threaded process.

    python3 bench/run.py --workload learn-large --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload, each in its own child
process. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Lines before it print every metric by name and unit, and the full record
(machine, counts, failures) is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("learn-large", "fragments", "oracle-sweep", "cli-files")
CHILD_TIMEOUT_S = 900


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that it is used."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dolearn
    except ImportError as exc:
        sys.exit(f"cannot import dolearn from {src}: {exc}")
    if Path(dolearn.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"dolearn resolved to {dolearn.__file__}, not under {src}")


def result_line(result: dict, trace: bool) -> dict:
    """The final JSON object: exactly the declared metrics, in their units.

    A per-layer metric that the workload never touched reads 0; an end-to-end
    metric must always be measured.
    """
    metrics = {}
    for name, unit in declared_metrics(trace).items():
        if name in result["metrics"]:
            value, measured_unit = result["metrics"][name]
            if measured_unit != unit:
                raise ValueError(f"{name} measured in {measured_unit}, declared {unit}")
        elif trace:
            value = 0
        else:
            raise KeyError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_one(args) -> int:
    for var in THREAD_VARS:  # before numpy loads its thread pools
        os.environ[var] = "1"
    import_program()
    import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(harness.OUT_DIR / f"{stem}-spans.json")
    record = {**result, "metrics": {k: {"value": v, "unit": u}
                                    for k, (v, u) in sorted(result["metrics"].items())}}
    (harness.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(result['env'])}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    for note in result["failures"]:
        print(f"FAILED {note}")
    print(json.dumps(result_line(result, bool(args.trace))))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process; one combined JSON line at the end."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
