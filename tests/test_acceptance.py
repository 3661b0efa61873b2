"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The finite-sample criteria share one set of seed-fixed
random cases through a session fixture.
"""

import math
import time

import numpy as np
import pytest

from dolearn.demo import (
    bow_graph,
    example1_query,
    example2_query,
    fig3a_graph,
    fig4a_graph,
    random_identifiable_case,
)
from dolearn.generate import sample as generate_sample
from dolearn.identify import CausalQuery, Estimand, HedgeWitness, identify
from dolearn.learn import evaluate_point, learn_interventional, relative_partition
from dolearn.scm import (
    check_strong_positivity,
    exact_interventional,
    exact_observational,
    random_net_for,
    sample_observational,
)
from dolearn.tables import PmfTable, Samples, iter_assignments
from dolearn.verify import (
    SOUNDNESS_BOUND,
    compare_to_oracle,
    estimate_tv,
    exact_tv,
    kl_decomposition_sides,
    soundness_sweep,
    tian_q_table,
)
from dolearn.witness import indistinguishable_pair

# seed-fixed random cases for the finite-sample criteria:
# (case seed, number of variables, number of intervened variables)
LEARNING_CASES = [
    (0, 6, 1), (1, 7, 1), (2, 8, 1), (3, 6, 1), (4, 7, 1),
    (5, 8, 1), (6, 6, 1), (7, 7, 1), (30, 6, 2), (31, 7, 2),
]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


class LearnedCase:
    def __init__(self, seed: int, n: int, n_intervene: int):
        self.seed = seed
        self.graph, self.x = random_identifiable_case(
            seed, n=n, max_in_degree=2, n_bidirected=2, max_component=3,
            n_intervene=n_intervene,
        )
        self.net = random_net_for(self.graph, seed=seed + 1000, gamma=0.1)
        self.li = {}
        self.tv = {}
        for m in (100_000, 1_000_000):
            batch = sample_observational(self.net, seed=seed + 2000, m=m)
            li = learn_interventional(batch, self.graph, self.x)
            self.li[m] = li
            self.tv[m] = compare_to_oracle(li, self.net, self.x).tv


@pytest.fixture(scope="session")
def learned_cases():
    t0 = time.monotonic()
    cases = [LearnedCase(*params) for params in LEARNING_CASES]
    elapsed = time.monotonic() - t0
    return cases, elapsed


def test_criterion_1_golden_example_1():
    t0 = time.monotonic()
    q = example1_query(0)
    net = random_net_for(q.graph, seed=7, gamma=0.1)
    obs = exact_observational(net)
    est = identify(q)
    assert isinstance(est, Estimand)
    worst = 0.0
    for xv in (0, 1):
        got = est.table(obs, {"X": xv})
        oracle = exact_interventional(net, {"X": xv})
        worst = max(worst, float(
            np.abs(got.aligned_to(oracle.names).probs - oracle.probs).max()
        ))
    text = est.render()
    factors_ok = all(s in text for s in
                     ("P[z1|x]", "P[y|x,z1,z2]", "Σ_x' P[x']P[z2|x',z1]"))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1: golden example 1",
        worst < 1e-9 and factors_ok and elapsed < 1.0,
        f"max entry error {worst:.2e}, factors rendered {factors_ok}, {elapsed:.2f}s",
    )


def test_criterion_2_golden_example_2():
    t0 = time.monotonic()
    q = example2_query(w=0, r=1, x=1)
    net = random_net_for(q.graph, seed=11, gamma=0.1)
    obs = exact_observational(net)
    est = identify(q)
    assert isinstance(est, Estimand)
    xfix = dict(q.x)

    def hand_ratio(y: int) -> float:
        # sum_w P[w] P[x|w,r] P[y|x,w,r], normalized over y; the summation
        # variable w must shadow the intervened value of W
        def term(w, yy):
            env = {**xfix, "W": w}
            pw = obs.marginal_to({"W"}).pmf({"W": w})
            px = obs.marginal_to({"W", "R", "X"}).pmf(env) \
                / obs.marginal_to({"W", "R"}).pmf(env)
            py = obs.pmf({**env, "Y": yy}) \
                / obs.marginal_to({"W", "R", "X"}).pmf(env)
            return pw * px * py
        num = sum(term(w, y) for w in range(2))
        den = sum(term(w, yy) for w in range(2) for yy in range(2))
        return num / den

    oracle = exact_interventional(net, xfix)
    worst = 0.0
    for y in range(2):
        got = est.evaluate(obs, {**xfix, "Y": y})
        worst = max(worst, abs(got - hand_ratio(y)), abs(got - oracle.pmf({"Y": y})))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 2: golden example 2",
        worst < 1e-9 and elapsed < 1.0,
        f"max error vs hand formula and oracle {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_hedge_detection_and_witness():
    t0 = time.monotonic()
    bow = bow_graph()
    res = identify(CausalQuery(bow, {"X": 1}, frozenset({"Y"})))
    is_hedge = isinstance(res, HedgeWitness)
    pair = indistinguishable_pair(bow, {"X": 1})
    elapsed = time.monotonic() - t0
    ok = (
        is_hedge
        and pair.observational_tv <= 1e-9
        and pair.interventional_tv >= 1e-3
        and elapsed < 10.0
    )
    _report(
        "criterion 3: hedge detection",
        ok,
        f"witness returned {is_hedge}, pair obs_tv={pair.observational_tv:.1e}, "
        f"int_tv={pair.interventional_tv:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_exhaustive_soundness():
    t0 = time.monotonic()
    res = soundness_sweep(realizations=20)
    elapsed = time.monotonic() - t0
    sound = res.worst < SOUNDNESS_BOUND
    _report(
        "criterion 4: exhaustive soundness",
        sound and elapsed < 300.0,
        f"{res.graphs} graphs, {res.identifiable} identifiable queries, "
        f"{len(res.hedges)} hedges, {res.checks} oracle checks, worst {res.worst:.1e}, "
        f"{elapsed:.0f}s" + ("" if sound else f", at (graph, variable, seed) {res.worst_at}"),
    )
    assert (res.graphs, res.identifiable, len(res.hedges), res.checks) == (
        11_946, 33_888, 13_896, 677_760)


def test_criterion_5_finite_sample_learning(learned_cases):
    cases, elapsed = learned_cases
    passed = sum(
        1 for c in cases if c.tv[100_000] <= 0.1 and c.tv[1_000_000] <= 0.03
    )
    detail = ", ".join(
        f"seed {c.seed}: {c.tv[100_000]:.3f}/{c.tv[1_000_000]:.4f}" for c in cases
    )
    _report(
        "criterion 5: finite-sample learning",
        passed >= 9 and elapsed < 600.0,
        f"{passed}/10 nets within bounds ({detail}), {elapsed:.0f}s",
    )


def test_criterion_6_generator_consistency(learned_cases):
    cases, _ = learned_cases
    t0 = time.monotonic()
    worst = 0.0
    for c in cases:
        li = c.li[1_000_000]
        gen = generate_sample(li, seed=c.seed + 3000, m=1_000_000)
        emp = PmfTable(li.order, gen.counts_over(li.order, li.cards()) / gen.m,
                       normalized=False)
        model = PmfTable(li.order, li.table().probs, normalized=False)
        worst = max(worst, exact_tv(emp, model))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 6: generator consistency",
        worst <= 0.01 and elapsed < 120.0,
        f"worst empirical-vs-evaluator tv {worst:.4f} over {len(cases)} nets, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_evaluator_normalization(learned_cases):
    cases, _ = learned_cases
    worst = 0.0
    for c in cases:
        for li in c.li.values():
            total = math.fsum(
                evaluate_point(li, dict(zip(li.order, map(int, combo))))
                for combo in np.ndindex(*li.cards())
            )
            worst = max(worst, abs(total - 1.0))
    _report(
        "criterion 7: evaluator normalization",
        worst <= 1e-9,
        f"worst |total mass - 1| = {worst:.2e} over {2 * len(cases)} objects",
    )


def test_criterion_8_structural_identities(learned_cases):
    cases, _ = learned_cases
    worst_sandwich = 0.0
    worst_kl = 0.0
    for c in cases:
        g = c.graph
        obs = exact_observational(c.net)
        part = relative_partition(g, g.indices(c.x))
        low = [list(g.names_of(comp)) for comp in part.components[: part.ell]]
        _, reports = check_strong_positivity(c.net, low, alpha=0.0)
        alpha = min(r.min_probability for r in reports)
        bound = alpha ** len(part.c_low)
        q_factors = {
            n: f for n, f in c.li[100_000].factors.items() if f.kind == "add1"
        }
        low_names = sorted(g.names_of(part.c_low))
        cards = [g.cards[g.index(n)] for n in low_names]
        for fix in iter_assignments(low_names, cards):
            q = tian_q_table(obs, g, part, fix)
            ratio = obs.probs[tuple(fix.get(n, slice(None)) for n in obs.names)] / q.probs
            worst_sandwich = max(
                worst_sandwich, float(np.max(bound - ratio)), float(np.max(ratio - 1.0))
            )
            direct, decomposed = kl_decomposition_sides(obs, g, part, q_factors, fix)
            worst_kl = max(worst_kl, abs(direct - decomposed))
    _report(
        "criterion 8: structural identities",
        worst_sandwich <= 1e-9 and worst_kl <= 1e-9,
        f"worst sandwich slack {worst_sandwich:.2e}, "
        f"worst kl-decomposition gap {worst_kl:.2e}",
    )


def test_criterion_9_tv_estimator():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    eps, delta = 0.02, 0.01
    hits = 0
    for trial in range(20):
        a = PmfTable(("S",), rng.dirichlet(np.ones(16)))
        b = PmfTable(("S",), rng.dirichlet(np.ones(16)))
        truth = exact_tv(a, b)
        flat = a.probs.reshape(-1)

        def draw(seed, m, flat=flat, a=a):
            r = np.random.default_rng(seed)
            codes = r.choice(flat.size, size=m, p=flat)
            return Samples(a.names, codes[:, None])

        est = estimate_tv(draw, a.pmf, b.pmf, eps, delta, seed=trial)
        if abs(est.value - truth) <= 4 * eps:
            hits += 1
    elapsed = time.monotonic() - t0
    _report(
        "criterion 9: tv estimator",
        hits >= 19 and elapsed < 60.0,
        f"{hits}/20 trials within 4*epsilon, {elapsed:.0f}s",
    )
