"""Self-test of the benchmark on tiny inputs; takes under a minute.

    PYTHONPATH=src python3 -m pytest bench -q

Every workload must emit every metric BENCHMARK.json declares, in its unit,
run clean on two seeds, repeat its deterministic counts exactly, and fail its
checks when the program is made to return a wrong result.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402

WORKLOADS = list(run.WORKLOADS)
SECONDS = 0.3

# spans each workload must reach: every module layer is covered by one of them
EXERCISED = {
    "learn-large": ["scm.sample_observational", "tables.counts_over", "learn.learn_q",
                    "learn.LearnedInterventional.table", "learn.evaluate_point",
                    "generate.sample", "verify.compare_to_oracle",
                    "scm.exact_interventional"],
    "fragments": ["identify.identify", "admg.ancestors", "admg.c_components",
                  "estimand.full_table", "estimand.evaluate",
                  "tables.EmpiricalAccess.table", "learn.learn_r", "learn.assemble"],
    "oracle-sweep": ["identify.identify", "scm.random_net_for", "scm.exact_observational",
                     "scm.interventional_family", "estimand.full_table",
                     "witness.indistinguishable_pair"],
    "cli-files": ["io.samples_to_csv", "io.samples_from_csv", "io.li_to_dict",
                  "io.li_from_dict", "cli.main.simulate", "cli.main.learn", "cli.main.eval",
                  "cli.main.sample", "cli.main.verify"],
}


def _run(workload, seed=1, trace=False):
    result = harness.run_workload(workload, seed, SECONDS, trace, tiny=True)
    return result, run.result_line(result, trace)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_clean(workload, seed):
    result, line = _run(workload, seed)
    assert line["correct"] and line["failed"] == 0, result["failures"]
    assert line["attempted"] > 0
    assert set(line["metrics"]) == set(run.declared_metrics(False))
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    assert result["metrics"]["error_rate"] == (0.0, "ratio")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_its_layers_and_repeats_counts(workload):
    first, line = _run(workload, trace=True)
    assert line["correct"], first["failures"]
    assert set(line["metrics"]) == set(run.declared_metrics(True))
    for span in EXERCISED[workload]:
        assert line["metrics"][f"{span}.calls"]["value"] > 0, span
        assert line["metrics"][f"{span}.self_s"]["value"] > 0, span
    second, _ = _run(workload, trace=True)
    counts = {k: v for k, (v, unit) in first["metrics"].items() if unit in ("count", "B")}
    again = {k: v for k, (v, unit) in second["metrics"].items() if unit in ("count", "B")}
    assert counts == again


def test_every_module_layer_is_traced():
    layers = {span.split(".")[0] for spans in EXERCISED.values() for span in spans}
    assert layers == {"admg", "scm", "tables", "estimand", "identify", "learn",
                      "generate", "verify", "witness", "io", "cli"}


def _flipped_oracle(original):
    def wrong(net, x):
        t = original(net, x)
        return type(t)(t.names, np.flip(t.probs), context=t.context)
    return wrong


def _inflated_family(original):
    def wrong(net, x_vars):
        t = original(net, x_vars)
        return type(t)(t.names, t.probs * (1.0 + 1e-3), normalized=False)
    return wrong


def _corrupt_csv(original):
    def wrong(samples):
        values = samples.values.copy()
        values[0, 0] = 1 - values[0, 0]
        return original(type(samples)(samples.names, values))
    return wrong


def _noisy_draws(original):
    def wrong(li, seed, m):
        draws = original(li, seed, m)
        values = draws.values.copy()
        flip = np.random.default_rng(0).random(len(values)) < 0.05
        values[flip, 0] = 1 - values[flip, 0]
        return type(draws)(draws.names, values)
    return wrong


FAULTS = [
    ("learn-large", "dolearn.verify", "exact_interventional", _flipped_oracle),
    ("learn-large", "dolearn.generate", "sample", _noisy_draws),
    ("fragments", "dolearn.verify", "exact_interventional", _flipped_oracle),
    ("oracle-sweep", "dolearn.scm", "interventional_family", _inflated_family),
    ("cli-files", "dolearn.io", "samples_to_csv", _corrupt_csv),
]


@pytest.mark.parametrize("workload, modname, attr, make", FAULTS)
def test_checks_catch_a_wrong_result(workload, modname, attr, make, monkeypatch):
    module = importlib.import_module(modname)
    monkeypatch.setattr(module, attr, make(getattr(module, attr)))
    result, line = _run(workload)
    assert not line["correct"]
    assert line["failed"] > 0
    assert result["metrics"]["error_rate"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "learn-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    for row in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(row)

