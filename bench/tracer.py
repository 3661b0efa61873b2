"""Span tracing around the public functions of every dolearn layer.

Tracing is installed from outside the package: each traced function is
replaced, at every attribute a caller looks it up through, by a wrapper that
records a span (name, start, end, parent span, op id). Module-level functions
are replaced in every ``dolearn`` module that holds them, and methods on
their class. The benchmark calls functions through their module
(``scm.sample_observational``), so its own calls are traced too. Nothing
under ``src/`` changes, and :meth:`Tracer.uninstall` restores every original.

Spans stay in memory; per-name call counts, total time and self time (total
minus the time covered by child spans) are aggregated as spans close.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

MAX_SPANS = 2_000_000


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    command = next((a for a in argv or () if not a.startswith("-")), "none")
    return f"cli.main.{command}"


def _count_bytes(tracer, args, kwargs, out) -> None:
    samples, names = args[0], args[1] if len(args) > 1 else kwargs["names"]
    tracer.counters["tables.counts_over.bytes_computed"] += samples.m * len(names) * 8


def _count_hedge(tracer, args, kwargs, out) -> None:
    from dolearn.identify import HedgeWitness

    if isinstance(out, HedgeWitness):
        tracer.counters["identify.hedges"] += 1


def _record_rebase_depth(tracer, args, kwargs, out) -> None:
    depths = out.metadata.get("fragment_rebase_depths", {}).values()
    deepest = max(depths, default=0)
    key = "learn.rebase_depth.max"
    tracer.counters[key] = max(tracer.counters[key], deepest)


def _count_pmf(tracer, args, kwargs, out) -> None:
    tracer.counters["estimand.pmf_calls"] += 1


# (span name, module, attribute path, post-call hook). A span name of None
# makes a counter-only wrapper; "cli.main" spans are named per subcommand.
TARGETS = (
    ("admg.c_components", "dolearn.admg", "Admg.c_components", None),
    ("admg.ancestors", "dolearn.admg", "Admg.ancestors", None),
    ("scm.sample_observational", "dolearn.scm", "sample_observational", None),
    ("scm.random_net_for", "dolearn.scm", "random_net_for", None),
    ("scm.exact_observational", "dolearn.scm", "exact_observational", None),
    ("scm.interventional_family", "dolearn.scm", "interventional_family", None),
    ("scm.exact_interventional", "dolearn.scm", "exact_interventional", None),
    ("tables.counts_over", "dolearn.tables", "Samples.counts_over", _count_bytes),
    ("tables.EmpiricalAccess.table", "dolearn.tables", "EmpiricalAccess.table", None),
    (None, "dolearn.tables", "EmpiricalAccess.pmf", _count_pmf),
    ("estimand.full_table", "dolearn.estimand", "full_table", None),
    ("estimand.evaluate", "dolearn.estimand", "evaluate", None),
    ("identify.identify", "dolearn.identify", "identify", _count_hedge),
    ("learn.learn_interventional", "dolearn.learn", "learn_interventional",
     _record_rebase_depth),
    ("learn.learn_q", "dolearn.learn", "learn_q", None),
    ("learn.learn_r", "dolearn.learn", "learn_r", None),
    ("learn.assemble", "dolearn.learn", "assemble", None),
    ("learn.LearnedInterventional.table", "dolearn.learn",
     "LearnedInterventional.table", None),
    ("learn.evaluate_point", "dolearn.learn", "evaluate_point", None),
    ("generate.sample", "dolearn.generate", "sample", None),
    ("verify.compare_to_oracle", "dolearn.verify", "compare_to_oracle", None),
    ("witness.indistinguishable_pair", "dolearn.witness", "indistinguishable_pair", None),
    ("io.samples_to_csv", "dolearn.io", "samples_to_csv", None),
    ("io.samples_from_csv", "dolearn.io", "samples_from_csv", None),
    ("io.li_to_dict", "dolearn.io", "li_to_dict", None),
    ("io.li_from_dict", "dolearn.io", "li_from_dict", None),
    ("cli.main", "dolearn.cli", "main", None),
)


class Tracer:
    """Records spans for the functions in :data:`TARGETS` while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.op_id = 0
        self._stack: list[list] = []  # [span index or -1, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name, fn, post):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
                post(tracer, args, kwargs, out)
                return out
            span = _cli_span_name(args, kwargs) if name == "cli.main" else name
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            if index < MAX_SPANS:
                tracer.spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = tracer.stats.setdefault(span, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if index >= 0:
                    tracer.spans[index] = (span, t0, t1, parent, tracer.op_id)
            if post is not None:
                post(tracer, args, kwargs, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced function where callers look it up: on its class,
        or in every ``dolearn`` module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "dolearn" or key.startswith("dolearn.")]
        for name, modname, path, post in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, post)
            if cls_path:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reporting -----------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Cumulative calls and self time per span name, plus the counters."""
        out: dict[str, float] = {}
        for name, (calls, _total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        out["trace.spans"] = len(self.spans) + self.dropped
        return out

    def write(self, path) -> None:
        """Write the spans, one ``[name, start, end, parent, op]`` per row."""
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op"],
                       "dropped": self.dropped, "spans": rows}, fh, separators=(",", ":"))
