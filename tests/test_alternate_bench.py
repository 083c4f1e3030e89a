"""The BENCH-file summary and claim verdict of ``tools/alternate_bench.py``,
on synthetic result lines (no benchmark runs)."""

import argparse
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import alternate_bench  # noqa: E402


def result(run_s, setup_s=0.2, rss=58.0, failed=0):
    metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss}
    return {"correct": failed == 0, "attempted": 3, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}


def runs_of(parent, change, workload="corr1000", change_failed=0):
    """Alternated runs: the parent first at even seeds, the change first at
    odd; each change run fails ``change_failed`` operations."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p, 0), ("change", c, change_failed)]
        for side, run_s, failed in (sides if seed % 2 == 0 else sides[::-1]):
            runs.append({"side": side, "workload": workload, "seed": seed,
                         "result": result(run_s, failed=failed)})
    return runs


PARENT = [7.0, 7.2, 7.4, 7.6, 7.8, 8.0, 8.2, 8.4, 8.6, 8.8]


def test_summary_pairs_runs_by_seed_whatever_ran_first():
    change = [p * 0.75 for p in PARENT]
    summary = alternate_bench.summarize(runs_of(PARENT, change))
    run_s = summary["corr1000"]["run_s"]
    assert run_s["pair_ratios"] == [0.75] * 10
    assert run_s["median_pair_ratio"] == 0.75
    assert run_s["pairs_change_lower"] == "10 of 10"
    assert run_s["parent_median"] == 7.9
    assert run_s["parent_quartiles"] == [7.45, 7.9, 8.35]
    assert summary["corr1000"]["setup_s"]["pairs_change_lower"] == "0 of 10"    # ties
    assert summary["corr1000"]["failed"] == {"parent": [0] * 10, "change": [0] * 10}
    assert summary["corr1000"]["attempted"] == {"parent": [3] * 10, "change": [3] * 10}


def test_unpaired_runs_are_left_out():
    runs = runs_of(PARENT[:4], [7.0] * 4)
    runs.append({"side": "parent", "workload": "corr1000", "seed": 9, "result": result(1.0)})
    assert alternate_bench.summarize(runs)["corr1000"]["run_s"]["pair_ratios"] == [
        1.0, 0.972, 0.946, 0.921]


@pytest.mark.parametrize("change, met, won", [
    ([p * 0.75 for p in PARENT], True, "10 of 10"),
    # nine of ten pairs won and a gap wider than the parent's IQR
    ([p * 0.75 for p in PARENT[:9]] + [9.0], True, "9 of 10"),
    # eight of ten pairs won
    ([p * 0.75 for p in PARENT[:8]] + [9.0, 9.0], False, "8 of 10"),
    # every pair won, but by less than the parent's IQR (0.9 s)
    ([p - 0.5 for p in PARENT], False, "10 of 10"),
])
def test_verdict_follows_the_claim_rule(change, met, won):
    summary = alternate_bench.summarize(runs_of(PARENT, change))
    verdict = alternate_bench.verdict(summary, "corr1000", "run_s")
    assert verdict["met"] is met
    assert verdict["pairs_won"] == won
    assert verdict["parent_iqr"] == 0.9


def test_verdict_is_not_met_when_the_change_fails_more():
    # every pair won by a quarter, but the change fails one operation in three
    summary = alternate_bench.summarize(
        runs_of(PARENT, [p * 0.75 for p in PARENT], change_failed=1))
    verdict = alternate_bench.verdict(summary, "corr1000", "run_s")
    assert verdict["pairs_won"] == "10 of 10"
    assert verdict["failed_share"] == {"parent": 0.0, "change": 0.3333}
    assert verdict["met"] is False


def test_env_reaches_the_run_and_keeps_the_rest(monkeypatch):
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs)
        return subprocess.CompletedProcess(argv, 0, json.dumps(result(7.0)) + "\n", "")

    monkeypatch.setattr(alternate_bench.subprocess, "run", fake_run)
    monkeypatch.setenv("KEPT", "1")
    env = dict(alternate_bench.parse_env(text) for text in
               ["MALLOC_MMAP_THRESHOLD_=131072", "MALLOC_TRIM_THRESHOLD_=a=b"])
    got = alternate_bench.run_once("checkout", "corr1000", 3, 20, env)
    assert got["metrics"]["run_s"]["value"] == 7.0
    assert seen["cwd"] == "checkout"
    assert seen["env"]["MALLOC_MMAP_THRESHOLD_"] == "131072"
    assert seen["env"]["MALLOC_TRIM_THRESHOLD_"] == "a=b"
    assert seen["env"]["KEPT"] == "1"
    alternate_bench.run_once("checkout", "corr1000", 3, 20)
    assert "MALLOC_MMAP_THRESHOLD_" not in seen["env"]


def test_runs_under_another_env_are_summarized_apart():
    setting = {"MALLOC_MMAP_THRESHOLD_": "131072"}
    runs = runs_of(PARENT, [p * 0.75 for p in PARENT])
    runs += [{**run, "env": setting} for run in runs_of(PARENT, PARENT)]
    summary = alternate_bench.summarize(runs)
    assert summary["corr1000"]["run_s"]["median_pair_ratio"] == 0.75
    assert summary["corr1000 MALLOC_MMAP_THRESHOLD_=131072"]["run_s"]["median_pair_ratio"] == 1.0


@pytest.mark.parametrize("text", ["NAME", "=1"])
def test_env_needs_a_name_and_a_value(text):
    with pytest.raises(argparse.ArgumentTypeError):
        alternate_bench.parse_env(text)


def test_parse_seeds():
    assert alternate_bench.parse_seeds("0-3,7") == [0, 1, 2, 3, 7]
    assert alternate_bench.parse_seeds("40") == [40]
