"""Run one workload: repeated set-up, timed passes, checks, metrics, records.

A workload (see ``workloads.py``) builds a pool of inputs from the seed and
runs one *pass* over it. Every program call in a pass goes through
:meth:`Recorder.op`, which times it; every correctness check goes through
:meth:`Recorder.check`. A failing op or check is counted, never raised, so a
wrong result cannot abort the run.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MAX_FAILURE_NOTES = 20

# op kind -> (end-to-end metric, unit): work done per second of op time
RATES = {
    "simulate": ("simulate_rows_per_s", "rows/s"),
    "learn": ("learn_rows_per_s", "rows/s"),
    "generate": ("generate_rows_per_s", "rows/s"),
    "eval": ("eval_points_per_s", "points/s"),
    "estimand_point": ("estimand_points_per_s", "points/s"),
    "estimand_table": ("estimand_tables_per_s", "tables/s"),
    "verify": ("verify_per_s", "reports/s"),
    "identify": ("identify_queries_per_s", "queries/s"),
    "oracle_check": ("oracle_checks_per_s", "checks/s"),
    "csv": ("csv_rows_per_s", "rows/s"),
}


class Aborted(Exception):
    """An op raised; the rest of its case is not attempted."""


class Recorder:
    """Counts attempted and failed ops and checks, and times ops by kind."""

    def __init__(self) -> None:
        self.tracer = None  # set while a traced run is recording
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.op_time: dict[str, float] = defaultdict(float)
        self.op_work: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def op(self, kind: str | None, work: float, fn, *args, **kwargs):
        """Call ``fn`` as one timed op of ``kind`` doing ``work`` units."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing op is a measured outcome
            self._fail(f"{kind or getattr(fn, '__name__', 'op')}: "
                       f"{type(exc).__name__}: {exc}")
            raise Aborted from exc
        if kind is not None:
            self.op_time[kind] += perf_counter() - t0
            self.op_work[kind] += work
        return out

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(note)

    def case(self, fn, *args) -> None:
        """Run one case; an op failure or a crashing check ends only the case."""
        try:
            fn(self, *args)
        except Aborted:
            pass
        except Exception as exc:  # a check that cannot be evaluated has failed
            self.attempted += 1
            self._fail(f"check crashed: {type(exc).__name__}: {exc}")

    def rates(self) -> dict[str, tuple[float, str]]:
        return {
            RATES[k][0]: (self.op_work[k] / t, RATES[k][1])
            for k, t in self.op_time.items() if t > 0.0
        }


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _llc_bytes() -> int | None:
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if not (level and size and kind) or kind.strip() == "Instruction":
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        size = size.strip()
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if best is None or int(level) >= best[0]:
            best = (int(level), value)
    return best[1] if best else None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def env_record(workload: str, seed: int, array_bytes: int | None) -> dict:
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    llc = _llc_bytes()
    rec = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if array_bytes is not None:
        rec["batch_array_bytes"] = array_bytes
        rec["batch_array_vs_llc"] = array_bytes / llc if llc else None
    return rec


def _timed_passes(workload, pool, rec: Recorder, seconds: float,
                  after_pass=None) -> list[float]:
    """Whole passes until the next one would end after ``seconds``; at least one."""
    times: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        workload.run_pass(rec, pool)
        times.append(perf_counter() - t0)
        if after_pass is not None:
            after_pass()
        if perf_counter() - start + times[-1] > seconds:
            return times


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Set up ``name`` several times, run its timed phase and return the result.

    Untraced, the metrics are the end-to-end ones. Traced, one untraced pass
    gives the rates and the baseline pass time, then traced passes give the
    per-layer numbers, reported per pass.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_times = []
    pool = None
    for _ in range(SETUP_REPEATS):
        workload.teardown(pool)
        pool = None  # release the previous pool before building the next
        t0 = perf_counter()
        pool = workload.setup(seed, tiny)
        # one pass over the tiny inputs runs every code path once, so that
        # lazy imports and first-call costs land here and not in the timing
        warm = workload.setup(seed, True)
        workload.run_pass(Recorder(), warm)
        workload.teardown(warm)
        setup_times.append(perf_counter() - t0)
    try:
        if trace:
            result = _traced(workload, pool, seconds)
        else:
            rec = Recorder()
            pass_times = _timed_passes(workload, pool, rec, seconds)
            result = {"rec": rec, "pass_times": pass_times, "metrics": {
                "setup_s": (statistics.median(setup_times), "s"),
                "wall_s": (statistics.median(pass_times), "s"),
                "peak_rss_mb": (_peak_rss_mib(), "MiB"),
                **rec.rates(),
            }}
    finally:
        workload.teardown(pool)
    rec = result.pop("rec")
    metrics = result["metrics"]
    metrics["error_rate"] = (rec.failed / max(rec.attempted, 1), "ratio")
    result.update({
        "workload": name,
        "setup_times": setup_times,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.notes,
        "counts_per_pass": {k: v / len(result["pass_times"]) for k, v in rec.counts.items()},
        "env": env_record(name, seed, workload.array_bytes(pool)),
    })
    return result


def _traced(workload, pool, seconds: float) -> dict:
    from tracer import Tracer

    rec = Recorder()
    t0 = perf_counter()
    workload.run_pass(rec, pool)
    untraced = perf_counter() - t0
    metrics = rec.rates()
    rec.op_time.clear()
    rec.op_work.clear()
    rec.counts.clear()

    tracer = Tracer()
    rec.tracer = tracer
    per_pass: list[dict] = []
    last: dict = {}

    def after_pass() -> None:
        nonlocal last
        now = {**tracer.snapshot(), **rec.counts}
        # a maximum is a level; everything else accumulates over the passes
        per_pass.append({k: v if k.endswith(".max") else v - last.get(k, 0)
                         for k, v in now.items()})
        last = now

    tracer.install()
    try:
        pass_times = _timed_passes(workload, pool, rec, seconds, after_pass)
    finally:
        tracer.uninstall()
    exact = [{k: v for k, v in counts.items() if not k.endswith("_s")}
             for counts in per_pass]
    for i, counts in enumerate(exact[1:], start=2):
        differ = sorted(k for k in counts.keys() | exact[0].keys()
                        if counts.get(k) != exact[0].get(k))
        rec.check(not differ, f"traced pass {i} counts differ from pass 1: {differ}")

    passes = len(pass_times)
    for key, value in last.items():
        unit = "s" if key.endswith("_s") else "B" if key.endswith("bytes_computed") else "count"
        metrics[key] = (value if key.endswith(".max") else value / passes, unit)
    metrics["trace.overhead_s"] = (statistics.median(pass_times) - untraced, "s")
    return {"rec": rec, "pass_times": pass_times, "untraced_pass_s": untraced,
            "metrics": metrics, "tracer": tracer}
