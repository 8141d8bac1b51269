#!/usr/bin/env python3
"""Shrunk self-check of the benchmark.

Runs every workload at tiny size, untraced and traced, and asserts that
each run is correct and that its result line carries every metric named
below, and every metric BENCHMARK.json lists, under exactly those names
and with BENCHMARK.json's unit. Run from the root of a checkout:

    python3 perfbench/selfcheck.py
"""

import json
import subprocess
import sys

END_TO_END = ["wall_s", "crash_states_per_s", "peak_live_mb", "setup_s",
              "bug_pairs"]
PER_LAYER = [
    "workload.gen_s",
    "driver.record_s", "driver.record_alloc_mw", "driver.events_per_s",
    "driver.ckpt_mb",
    "infer.infer_s", "infer.conds",
    "perf.detect_s",
    "crash_gen.self_s", "crash_gen.alloc_mw", "crash_gen.candidates",
    "crash_gen.generated", "crash_gen.tested", "crash_gen.tested_ratio",
    "crash_gen.materialized_kb",
    "equiv.check_s", "equiv.check_p50_us", "equiv.check_p99_us",
    "equiv.check_tail_pct", "equiv.check_samples", "equiv.checks",
    "equiv.replay_ops", "equiv.replay_ops_per_check",
    "equiv.early_stop_ratio", "equiv.oracle_runs", "equiv.oracle_ops_saved",
    "equiv.memo_hit_ratio", "equiv.inherit_hit_ratio", "equiv.alloc_mw",
    "cluster.add_s", "cluster.clusters",
    "prune.classes", "prune.reps", "prune.elided_ratio", "prune.expansions",
    "stream.pass_a_s", "stream.pass_b_s", "stream.window_retirements",
    "stream.ckpt_ring_evictions",
    "journal.append_s",
    "gc.major_collections", "gc.alloc_mw",
    "obs.trace_overhead_s", "obs.residual_s", "obs.layer_share",
]


def check(workload, trace, spec):
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    named = PER_LAYER if trace else END_TO_END
    missing = [n for n in named if n not in units]
    assert not missing, "BENCHMARK.json lacks %s" % missing
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "42", "--seconds", "1", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
    assert res["correct"] is True and res["failed"] == 0, p.stderr
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    metrics = res["metrics"]
    assert sorted(metrics) == sorted(units), (
        "names differ: %s" % sorted(set(metrics) ^ set(units)))
    for name, m in metrics.items():
        assert sorted(m) == ["unit", "value"], (name, m)
        assert m["unit"] == units[name], (name, m["unit"], units[name])
        assert isinstance(m["value"], (int, float)), (name, m)
        assert not isinstance(m["value"], bool), (name, m)
    if not trace:
        assert any(l.startswith("failed_frac") for l in lines), \
            "no failed_frac line"
        for name in END_TO_END:
            assert metrics[name]["value"] > 0, (name, metrics[name])
    print("ok %-12s trace=%d: %d metrics" % (workload, trace, len(metrics)))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec)


if __name__ == "__main__":
    main()
