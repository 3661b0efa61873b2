#!/usr/bin/env python3
"""Benchmark a parent commit against the working tree in alternating pairs.

The parent's committed files are extracted (``git archive``) into a temporary
directory. ``python3 bench/run.py --workload W`` then runs in both checkouts,
``--pairs`` pairs per workload, the parent first in odd pairs and the change
first in even ones. The output file holds, per workload and end-to-end metric,
each side's median, quartiles and runs, the pairs the change won, the ties and
a verdict against the metric's ``BENCHMARK.json`` bound (see :func:`verdict`),
plus failed and attempted ops and the machine record. Workloads named in
``--trace`` also get one traced run per side, with every per-layer value.

    python3 scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_8.json \\
        --workloads learn-large,fragments,oracle-sweep,cli-files --trace learn-large

A workload, in either list, runs at seed 0 unless written ``W@S``; its entry is
then keyed ``W@S``. Every name is checked against ``BENCHMARK.json`` before the
first run, and the output file is rewritten after each workload, so a failed
run keeps the workloads before it. Runs take ``bench/run.py``'s own run length.
The record's ``what`` line names the two sides; edit it by hand to say what the
change does. Nothing under ``bench/`` is written except the runs' own records
in ``bench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MACHINE_KEYS = ("nproc", "usable_cpus", "cpu_model", "llc_bytes", "python", "numpy",
                "threads_env")
RUN_TIMEOUT_S = 1800


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(ref: str, dest: Path) -> None:
    """The committed files of ``ref``, written under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        tar.extractall(dest, filter="data")


def run_bench(checkout: Path, workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: its machine record and its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How the change's runs compare with the parent's on one metric.

    ``parent`` and ``change`` are paired runs, and ``bound`` is the relative
    bound of the metric. In order of precedence:

    - ``improved``: the change won at least 9 in 10 of the pairs (a tie counts
      for neither side), and its median is better than the parent's by more
      than the parent's interquartile range;
    - ``worse``: the change's median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - ``unresolved``: the parent's interquartile range is larger than
      ``bound`` times its median, unless every change run beat every parent run;
    - ``within bound`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    p = sign * np.asarray(parent, dtype=float)  # lower is better from here on
    c = sign * np.asarray(change, dtype=float)
    q1, p_median, q3 = np.percentile(p, [25, 50, 75])
    iqr = q3 - q1
    gain = p_median - float(np.median(c))
    scale = bound * abs(p_median)
    if 10 * int((c < p).sum()) >= 9 * len(p) and gain > iqr:
        return "improved"
    if -gain > scale:
        return "worse"
    if iqr > scale and not c.max() < p.min():
        return "unresolved"
    return "within bound"


def pair_workload(checkouts: dict[str, Path], workload: str, seed: int, pairs: int,
                  metrics: dict[str, dict]) -> tuple[dict, dict]:
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    failed = {"parent": 0, "change": 0}
    attempted = {"parent": 0, "change": 0}
    env: dict = {}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            env, last = run_bench(checkouts[side], workload, seed, trace=False)
            failed[side] += last["failed"]
            attempted[side] += last["attempted"]
            for name, entry in last["metrics"].items():
                values[side].setdefault(name, []).append(entry["value"])
            print(f"{workload}@{seed} pair {i + 1}/{pairs} {side}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()),
                  file=sys.stderr, flush=True)
    out: dict = {"pairs": pairs, "failed_ops": failed, "attempted_ops": attempted}
    for name, spec in metrics.items():
        parent, change = values["parent"][name], values["change"][name]
        if spec["better"] == "higher":
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        out[name] = {"parent": summary(parent), "change": summary(change),
                     "change_wins": wins, "ties": sum(c == p for p, c in zip(parent, change)),
                     "verdict": verdict(parent, change, spec["better"], spec["bound"])}
    return out, env


def parse_workloads(items: str, known: set[str]) -> list[tuple[str, str, int]]:
    """``(key, workload, seed)`` for each comma-separated ``W`` or ``W@S``."""
    parsed = []
    for item in filter(None, items.split(",")):
        workload, _, seed = item.partition("@")
        if workload not in known:
            raise SystemExit(f"unknown workload {workload!r}; BENCHMARK.json declares "
                             f"{', '.join(sorted(known))}")
        parsed.append((item, workload, int(seed or 0)))
    return parsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--workloads", required=True, help="comma-separated, each W or W@SEED")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", default="", help="comma-separated W or W@SEED to trace once")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    known = {w["name"] for w in spec["workloads"]}
    workloads = parse_workloads(args.workloads, known)
    traces = parse_workloads(args.trace, known)
    parent_commit = git("rev-parse", args.parent).decode().strip()
    record: dict = {
        "what": f"parent {parent_commit[:7]} against the working tree",
        "command": "python3 bench/run.py --workload W --seed S --trace 0 (S is 0 unless "
                   "the entry is keyed W@S; bench/run.py's default run length)",
        "protocol": "pairs of parent and change runs, each in its own checkout, alternating "
                    "which side runs first; a pair is won by the side with the better value",
        "machine": {},
        "parent_commit": parent_commit,
        "workloads": {},
    }

    def write() -> None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        checkouts = {"parent": Path(tmp), "change": ROOT}
        extract(parent_commit, checkouts["parent"])
        for key, workload, seed in workloads:
            entry, env = pair_workload(checkouts, workload, seed, args.pairs, metrics)
            record["workloads"][key] = entry
            record["machine"] = {k: env.get(k) for k in MACHINE_KEYS}
            write()
        for key, workload, seed in traces:
            traced = {"command": f"python3 bench/run.py --workload {workload} --seed {seed} "
                                 "--trace 1, one run per side; values per traced pass"}
            for side in ("parent", "change"):
                _, last = run_bench(checkouts[side], workload, seed, trace=True)
                traced[side] = {k: v["value"] for k, v in sorted(last["metrics"].items())}
            record[f"traced_{key.replace('-', '_').replace('@', '_seed')}"] = traced
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
