"""Smoke test of the benchmark at toy size (about a minute).

    python3 -m pytest hudebench/test_smoke.py

Runs every workload's code path untraced and traced, checks that each run
emits exactly the metrics BENCHMARK.json declares, that a wrong recorded
invariant fails the run, and that the command fails without the program.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

TOY = {
    "adaptive-k50k": {"k": 500, "n": 500, "S": 50, "ell": 3, "queries": 10,
                      "fixed_L": 3_000, "min_queries": 20},
    "serve-k10k": {"k": 500, "n": 500, "eps": 0.5, "s": 10.0, "S": 50, "ell": 3,
                   "L": 2_000, "min_queries": 50},
    "tradeoff-curve": {"rho_u": 0.5, "eps": 1.0, "s_lo": 20.0, "s_hi": 10_000.0, "points": 2},
}

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_at_toy_size(name, trace):
    result = run.run(name, seed=1, seconds=0.0, trace=trace, size=TOY[name])
    assert result["problems"] == []
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif name != "tradeoff-curve":
        assert result["metrics"]["subset_index.split_checked"]["value"] > 0


def test_wrong_recorded_invariant_fails_the_run():
    toy = TOY["serve-k10k"]
    exact = run.run("serve-k10k", 1, 0.0, False, size=toy)["exact"]
    assert exact["subset_ops"] > 0
    assert run.run("serve-k10k", 1, 0.0, False, size=toy, recorded=exact)["correct"]
    wrong = dict(exact, subset_ops=exact["subset_ops"] + 1)
    result = run.run("serve-k10k", 1, 0.0, False, size=toy, recorded=wrong)
    assert not result["correct"]
    assert any("subset_ops" in p for p in result["problems"])


def test_wrong_answer_fails_the_run(monkeypatch):
    import workloads
    from hude import subset_index

    original = subset_index.query

    def off_by_one(index, q, epsilon, counter, **kwargs):
        answer = original(index, q, epsilon, counter, **kwargs)
        if not answer.found:
            return answer
        return subset_index.QueryResult("found", (answer.index + 1) % index.dataset.k)

    monkeypatch.setattr(workloads.subset_index, "query", off_by_one)
    result = run.run("serve-k10k", 1, 0.0, False, size=TOY["serve-k10k"])
    assert not result["correct"]
    assert result["failed"] > 0
    assert any(p.startswith("query 0: truth") for p in result["problems"])


def test_recorded_curve_values_compare_to_1e_8():
    assert run.gate({"rho": [0.5, 0.7]}, {"rho": [0.5 + 5e-9, 0.7]}) == []
    assert run.gate({"rho": [0.5, 0.7]}, {"rho": [0.5 + 2e-8, 0.7]})
    assert run.gate({"rho": [0.5]}, {"rho": [0.5, 0.7]})


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "hudebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "serve-k10k", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
