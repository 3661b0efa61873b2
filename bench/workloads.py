"""The four workloads: inputs built from a seed, one pass of ops and checks each.

Program calls are looked up through their module (``scm.sample_observational``,
``cli.main``, ...) at call time, so that the tracer's patches reach them.
Checks compute their references with plain numpy, or use oracle tables built
during set-up, so that the traced layer numbers count the program's work only.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io as _io
import itertools
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dolearn import cli, demo, generate, learn, scm, verify, witness
from dolearn import io as dio
from dolearn.admg import Admg
from dolearn.estimand import ZeroConditioningEvent
from dolearn.tables import EmpiricalAccess

from harness import OUT_DIR

# the package re-exports the function ``identify`` over its submodule's name
identify = importlib.import_module("dolearn.identify")


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(a - b).sum())


def _aligned(table, names) -> np.ndarray:
    return np.transpose(table.probs, [table.names.index(n) for n in names])


def _empirical(values: np.ndarray, cards) -> np.ndarray:
    codes = np.ravel_multi_index(tuple(values.T), tuple(cards))
    return np.bincount(codes, minlength=math.prod(cards)).reshape(cards) / len(values)


def _sampling_floor(p: np.ndarray, m: int) -> float:
    """Expected total variation between ``p`` and an m-draw empirical estimate
    of it (normal approximation per cell, capped at the exact small-mass 2p)."""
    p = p.reshape(-1)
    dev = np.minimum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * m)), 2.0 * p)
    return 0.5 * float(dev.sum())


class Workload:
    """Interface: ``setup`` builds a pool from a seed, ``run_pass`` runs it once."""

    def setup(self, seed: int, tiny: bool):
        raise NotImplementedError

    def run_pass(self, rec, pool) -> None:
        raise NotImplementedError

    def array_bytes(self, pool) -> int | None:
        return None

    def teardown(self, pool) -> None:
        pass


# -- learn-large -----------------------------------------------------------------


@dataclass
class LargeCase:
    g: Admg
    x: dict
    net: scm.CausalBayesNet
    seed: int
    m: int


class LearnLarge(Workload):
    """n=14 binary graphs, 1e6 rows: full scans in scm, tables and generate."""

    LEARN_TV = 0.03  # criterion 5 bound at m = 1e6
    GEN_EXCESS_TV = 0.01  # criterion 6 bound, above the sampling floor

    def setup(self, seed, tiny):
        n, m, k = (6, 20_000, 1) if tiny else (14, 1_000_000, 2)
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(k):
            s = int(rng.integers(2**31))
            g, x = demo.random_identifiable_case(s, n=n, max_component=3, n_intervene=1)
            cases.append(LargeCase(g, x, scm.random_net_for(g, seed=s + 1), s, m))
        return cases

    def array_bytes(self, pool):
        return pool[0].m * pool[0].g.n * 8

    def run_pass(self, rec, pool):
        for case in pool:
            rec.case(self._case, case)

    def _case(self, rec, c: LargeCase):
        batch = rec.op("simulate", c.m, scm.sample_observational, c.net, c.seed + 2, c.m)
        li = rec.op("learn", c.m, learn.learn_interventional, batch, c.g, c.x)
        del batch
        points = math.prod(li.cards())
        table = rec.op("eval", points, li.table)
        draws = rec.op("generate", c.m, generate.sample, li, c.seed + 3, c.m)
        report = rec.op("verify", 1, verify.compare_to_oracle, li, c.net, c.x)
        rec.check(report.tv <= self.LEARN_TV,
                  f"learn-large seed {c.seed}: learned tv {report.tv:.4f} > {self.LEARN_TV}")
        emp = _empirical(draws.values, li.cards())
        gen_tv = _tv(emp, table.probs)
        floor = _sampling_floor(table.probs, c.m)
        rec.check(draws.names == li.order and gen_tv <= floor + self.GEN_EXCESS_TV,
                  f"learn-large seed {c.seed}: generator tv {gen_tv:.4f} > "
                  f"floor {floor:.4f} + {self.GEN_EXCESS_TV}")


# -- fragments -------------------------------------------------------------------


@dataclass
class FragmentCase:
    name: str
    query: identify.CausalQuery
    net: scm.CausalBayesNet
    batch: object
    oracle: np.ndarray  # exact interventional table, axes in target order
    targets: tuple
    points: list = field(default_factory=list)  # Estimand.evaluate points

    @property
    def access(self):
        return EmpiricalAccess(self.batch, self.query.graph.cards)


def _fragment_case(name, q, net, batch, with_points) -> FragmentCase:
    oracle = scm.exact_interventional(net, q.x)
    targets = oracle.names
    points = []
    if with_points:
        cards = [q.graph.cards[q.graph.index(t)] for t in targets]
        points = [dict(zip(targets, map(int, v))) for v in np.ndindex(*cards)]
    return FragmentCase(name, q, net, batch, oracle.probs, targets, points)


class Fragments(Workload):
    """Card-3 ADMGs whose queries rebase at step 5c, plus the two goldens."""

    TV = 0.1
    POINT_TOL = 1e-12

    def setup(self, seed, tiny):
        m, k = (30_000, 1) if tiny else (100_000, 12)
        rng = np.random.default_rng(seed)
        cases = []
        for name, q in (("fig3a", demo.example1_query(0)), ("fig4a", demo.example2_query())):
            net = scm.random_net_for(q.graph, seed=int(rng.integers(2**31)))
            batch = scm.sample_observational(net, int(rng.integers(2**31)), m)
            cases.append(_fragment_case(name, q, net, batch, with_points=True))
        # sizes cycle through n = 6, 7, 8 and one or two intervened variables,
        # so that the cost of a pass does not hinge on the draw
        for i in range(k):
            n, n_x = 6 + i % 3, 1 + (i // 3) % 2
            case = None
            while case is None:
                case = self._draw(rng, m, n, n_x)
            cases.append(case)
        return cases

    def _draw(self, rng, m, n, n_x) -> FragmentCase | None:
        """One candidate query; None unless it rebases and every conditioning
        event it needs has positive count in its batch."""
        g = scm.random_admg(int(rng.integers(2**31)), n, max_in_degree=2,
                            n_bidirected=int(rng.integers(4, 7)), max_component=5,
                            cardinality=3)
        picks = rng.choice(n, size=n_x, replace=False)
        x = {g.names[int(i)]: int(rng.integers(0, 3)) for i in picks}
        net_seed, sim_seed = (int(v) for v in rng.integers(2**31, size=2))
        if len(g.bidirected) < 4:
            return None
        q = identify.CausalQuery(g, x, frozenset(set(g.names) - set(x)))
        est = identify.identify(q)
        if not isinstance(est, identify.Estimand):
            return None
        if not any(step.step == "step5c" for step in est.trace):
            return None
        net = scm.random_net_for(g, seed=net_seed)
        batch = scm.sample_observational(net, sim_seed, m)
        try:
            li = learn.learn_interventional(batch, g, x)
            est.table(EmpiricalAccess(batch, g.cards), x)
        except (learn.PositivityViolation, ZeroConditioningEvent):
            return None
        if max(li.metadata.get("fragment_rebase_depths", {}).values(), default=0) < 1:
            return None
        return _fragment_case(f"n{n}-seed{net_seed}", q, net, batch, with_points=False)

    def run_pass(self, rec, pool):
        for case in pool:
            rec.case(self._case, case)

    def _case(self, rec, c: FragmentCase):
        q = c.query
        est = rec.op("identify", 1, identify.identify, q)
        rec.check(isinstance(est, identify.Estimand), f"{c.name}: not identified")
        access = c.access
        table = rec.op("estimand_table", 1, est.table, access, q.x)
        est_probs = _aligned(table, c.targets)
        est_tv = _tv(est_probs, c.oracle)
        rec.check(est_tv <= self.TV, f"{c.name}: estimand tv {est_tv:.4f} > {self.TV}")
        li = rec.op("learn", c.batch.m, learn.learn_interventional, c.batch, q.graph, q.x)
        rec.op("eval", math.prod(li.cards()), li.table)
        report = rec.op("verify", 1, verify.compare_to_oracle, li, c.net, q.x)
        rec.check(report.tv <= self.TV, f"{c.name}: learned tv {report.tv:.4f} > {self.TV}")
        for point in c.points:
            before = rec.tracer.counters["estimand.pmf_calls"] if rec.tracer else 0
            p = rec.op("estimand_point", 1, est.evaluate, access, {**q.x, **point})
            if rec.tracer:
                rec.counts[f"estimand.pmf_calls.{c.name}"] += (
                    rec.tracer.counters["estimand.pmf_calls"] - before)
            dense = float(est_probs[tuple(point[t] for t in c.targets)])
            rec.check(abs(p - dense) <= self.POINT_TOL,
                      f"{c.name} at {point}: evaluate {p!r} != table {dense!r}")


# -- oracle-sweep -------------------------------------------------------------------


NAMES4 = ("A", "B", "C", "D")


def criterion4_dags() -> list[frozenset]:
    """Every DAG on four labelled vertices, in the criterion-4 enumeration order."""
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    dags = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        try:
            Admg(NAMES4, (2,) * 4, edges, frozenset())
        except Exception:
            continue
        dags.append(edges)
    return dags


def criterion4_bidirected() -> list[frozenset]:
    unordered = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return ([frozenset()] + [frozenset([e]) for e in unordered]
            + [frozenset(c) for c in itertools.combinations(unordered, 2)])


@dataclass
class SweepPool:
    graphs: list  # (criterion-4 graph number, Admg), graph number counts from 1
    realizations: int
    witnesses: int


class OracleSweep(Workload):
    """A seed-chosen slice of the criterion-4 sweep, checked against the oracle."""

    TOL = 1e-7
    WITNESS_OBS_TV = 1e-9
    WITNESS_INT_TV = 1e-3

    def setup(self, seed, tiny):
        n_dags, realizations, witnesses = (1, 2, 2) if tiny else (12, 10, 32)
        dags = criterion4_dags()
        bids = criterion4_bidirected()
        # systematic sample over the DAGs sorted by edge count (random order
        # within a count): every pass gets the same mix of sparse and dense DAGs
        rng = np.random.default_rng(seed)
        keys = rng.random(len(dags))
        ranked = sorted(range(len(dags)), key=lambda d: (len(dags[d]), keys[d]))
        offset = rng.random()
        chosen = [ranked[int((i + offset) * len(dags) / n_dags)] for i in range(n_dags)]
        graphs = [(d * len(bids) + j + 1, Admg(NAMES4, (2,) * 4, dags[d], bid))
                  for d in chosen for j, bid in enumerate(bids)]
        return SweepPool(graphs, realizations, witnesses)

    def run_pass(self, rec, pool: SweepPool):
        hedges = []
        for number, g in pool.graphs:
            rec.case(self._graph, pool, number, g, hedges)
        for g, xname, number in hedges:
            rec.case(self._witness, g, xname, number)

    def _graph(self, rec, pool, number, g, hedges):
        estimands = {}
        for xname in NAMES4:
            q = identify.CausalQuery(g, {xname: 0}, frozenset(set(NAMES4) - {xname}))
            res = rec.op("identify", 1, identify.identify, q)
            rec.counts["identify.queries"] += 1
            if isinstance(res, identify.Estimand):
                estimands[xname] = res
            elif len(hedges) < pool.witnesses:
                hedges.append((g, xname, number))
        if estimands:
            for t in range(pool.realizations):
                rec.case(self._realization, g, estimands, 100_000 * number + t)

    def _realization(self, rec, g, estimands, net_seed):
        checks = rec.op("oracle_check", len(estimands), self._families, g, estimands, net_seed)
        for xname, got, want in checks:
            diff = float(np.abs(got - want).max())
            rec.counts["oracle.checks"] += 1
            rec.check(diff < self.TOL, f"graph seed {net_seed} do({xname}): diff {diff:.2e}")

    @staticmethod
    def _families(g, estimands, net_seed):
        """Estimand family tables, broadcast to all observables, next to the oracle's."""
        net = scm.random_net_for(g, seed=net_seed)
        obs = scm.exact_observational(net)
        out = []
        for xname, est in estimands.items():
            fam = est.family_table(obs)
            idx = tuple(slice(None) if n in fam.names else None for n in obs.names)
            perm = [fam.names.index(n) for n in obs.names if n in fam.names]
            got = np.broadcast_to(np.transpose(fam.probs, perm)[idx], obs.cards)
            out.append((xname, got, scm.interventional_family(net, {xname}).probs))
        return out

    def _witness(self, rec, g, xname, number):
        pair = rec.op(None, 1, witness.indistinguishable_pair, g, {xname: 0}, seed=number)
        rec.check(pair is not None
                  and pair.observational_tv <= self.WITNESS_OBS_TV
                  and pair.interventional_tv >= self.WITNESS_INT_TV,
                  f"graph {number} do({xname}): no valid witness pair")


# -- cli-files --------------------------------------------------------------------


@dataclass
class CliCase:
    g: Admg
    x: dict
    net: scm.CausalBayesNet
    dir: Path
    assign: dict
    seed: int
    m: int

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def read(self, name: str) -> str:
        return (self.dir / name).read_text()


class CliFiles(Workload):
    """The file-based user path: the CLI over CSV and JSON files, in process."""

    def setup(self, seed, tiny):
        n, m, k = (5, 2_000, 1) if tiny else (10, 50_000, 4)
        rng = np.random.default_rng(seed)
        OUT_DIR.mkdir(exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="cli-work-", dir=OUT_DIR))
        cases = []
        for i in range(k):
            s = int(rng.integers(2**31))
            g, x = demo.random_identifiable_case(s, n=n, n_intervene=1)
            net = scm.random_net_for(g, seed=s + 1)
            assign = {t: int(rng.integers(0, 2)) for t in g.names if t not in x}
            d = root / f"case{i}"
            d.mkdir()
            (d / "graph.json").write_text(dio.dump_json(dio.admg_to_dict(g)))
            (d / "net.json").write_text(dio.dump_json(dio.net_to_dict(net)))
            (d / "query.json").write_text(json.dumps(
                {"intervene": [{"var": name, "value": v} for name, v in x.items()]}))
            (d / "assign.json").write_text(json.dumps(assign))
            cases.append(CliCase(g, x, net, d, assign, s, m))
        return cases

    def teardown(self, pool):
        if pool:
            shutil.rmtree(pool[0].dir.parent, ignore_errors=True)

    def run_pass(self, rec, pool):
        for case in pool:
            rec.case(self._case, case)

    @staticmethod
    def _cli(rec, *argv):
        err = _io.StringIO()
        with contextlib.redirect_stderr(err):
            code = rec.op(None, 1, cli.main, list(argv))
        rec.check(code == 0, f"dolearn {' '.join(argv)} exited {code}: {err.getvalue()[-300:]}")

    def _case(self, rec, c: CliCase):
        p = c.path
        self._cli(rec, "simulate", "--cbn", p("net.json"), "--seed", str(c.seed + 2),
                  "--m", str(c.m), "--out", p("obs.csv"))
        self._cli(rec, "learn", "--graph", p("graph.json"), "--query", p("query.json"),
                  "--samples", p("obs.csv"), "--out", p("li.json"))
        self._cli(rec, "eval", "--li", p("li.json"), "--assign", p("assign.json"),
                  "--out", p("p.json"))
        self._cli(rec, "sample", "--li", p("li.json"), "--seed", str(c.seed + 3),
                  "--m", str(c.m), "--out", p("gen.csv"))
        self._cli(rec, "verify", "--li", p("li.json"), "--cbn", p("net.json"),
                  "--out", p("verify.json"))

        batch = rec.op("simulate", c.m, scm.sample_observational, c.net, c.seed + 2, c.m)
        obs_text = c.read("obs.csv")
        text = rec.op("csv", c.m, dio.samples_to_csv, batch)
        rec.check(text == obs_text, f"cli case {c.seed}: obs.csv differs from the batch")
        back = rec.op("csv", c.m, dio.samples_from_csv, obs_text)
        rec.check(back.names == batch.names and np.array_equal(back.values, batch.values),
                  f"cli case {c.seed}: re-read obs.csv differs from the batch")

        li = rec.op("learn", c.m, learn.learn_interventional, batch, c.g, c.x)
        loaded = rec.op(None, 1, dio.li_from_dict, json.loads(c.read("li.json")))
        points = math.prod(li.cards())
        want = rec.op("eval", points, li.table)
        got = rec.op("eval", points, loaded.table)
        rec.check(np.array_equal(got.probs, want.probs),
                  f"cli case {c.seed}: reloaded li.json evaluates differently")
        printed = json.loads(c.read("p.json"))["probability"]
        exact = li.evaluate(c.assign)
        rec.check(printed == exact, f"cli case {c.seed}: eval printed {printed!r}, not {exact!r}")

        draws = rec.op("generate", c.m, generate.sample, li, c.seed + 3, c.m)
        gen = rec.op("csv", c.m, dio.samples_from_csv, c.read("gen.csv"))
        rec.check(gen.names == draws.names and np.array_equal(gen.values, draws.values),
                  f"cli case {c.seed}: gen.csv differs from the in-memory generator")
        report = json.loads(c.read("verify.json"))
        rec.check(math.isfinite(report["tv"]), f"cli case {c.seed}: verify tv not finite")


WORKLOADS = {
    "learn-large": LearnLarge(),
    "fragments": Fragments(),
    "oracle-sweep": OracleSweep(),
    "cli-files": CliFiles(),
}
