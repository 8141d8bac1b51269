#!/usr/bin/env python3
"""Standing benchmark for the Witcher engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table5 --seed 42 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune, then runs the workload as a
closed loop of fresh processes, one after another, until --seconds have
passed (at least one). Each process runs every store of the workload in
sequence on one thread. Inputs come from --seed only.

--trace 0 prints the end-to-end metrics (medians over the processes);
--trace 1 alternates an untraced and a traced process and prints the
per-layer metrics (medians over the traced ones). The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts store runs; `failed` counts store runs that raised or
whose found-bug set differs from perfbench/reference.json (when it holds
the seed) or from the first process of this invocation.

Other modes:
    --tiny               shrunk sizes, for perfbench/selfcheck.py
    --write-reference    record the seed's found-bug sets into
                         perfbench/reference.json
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
EXE = os.path.join("_build", "default", BENCH_DIR, "perfbench.exe")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("table5", "stream-mixed", "prune-rep")
# Hard ceiling on one invocation; a new process is not started when the
# last one's duration would carry the invocation past it.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0
SETUP_PROBES = 15


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    return spec


def build():
    """Build perfbench.exe from source in this checkout."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("not at the root of a witcher checkout (no dune-project or lib/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ".", "./%s/perfbench.exe" % BENCH_DIR],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not os.path.isfile(EXE):
        die("build failed:\n" + p.stdout[-4000:])


def run_child(mode, workload, seed, tiny, journal=None):
    """One fresh process; returns its JSON record plus set-up time."""
    cmd = [EXE, mode, workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    if journal:
        cmd += ["--journal", journal]
    t_spawn = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=CHILD_TIMEOUT_S)
    t_end = time.time()
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("%s %s seed %d exited %d:\n%s"
            % (mode, workload, seed, p.returncode, p.stderr[-4000:]))
    out = json.loads(lines[-1])
    out["elapsed_s"] = t_end - t_spawn
    if "t_first_call" in out:
        out["setup_s"] = out["t_first_call"] - t_spawn
    return out


def run_key(r):
    return "%s#%d" % (r["store"], r["seed"])


def bug_digest(bugs):
    return [len(bugs), hashlib.md5("\n".join(bugs).encode()).hexdigest()]


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


class Checker:
    """Counts failed store runs: raised, or a found-bug set that differs
    from the stored reference or from this invocation's first process."""

    def __init__(self, workload, seed, tiny):
        ref = {} if tiny else load_reference()
        self.expected = ref.get(workload, {}).get(str(seed))
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, runs):
        digests = {}
        for r in runs:
            self.attempted += 1
            if "error" in r:
                self.failed += 1
                self.notes.append("%s raised: %s" % (run_key(r), r["error"]))
                continue
            digests[run_key(r)] = bug_digest(r["bugs"])
        if self.first is None:
            self.first = digests
        for key, d in digests.items():
            for name, want in (("reference", self.expected),
                               ("first run", self.first)):
                if want is not None and want.get(key) != d:
                    self.failed += 1
                    self.notes.append(
                        "%s: found %d bug pairs, %s has %s"
                        % (key, d[0], name, want.get(key)))
                    break


def e2e_metrics(out):
    runs = [r for r in out["runs"] if "error" not in r]
    wall = out["wall_s"]
    states = sum(r["tested"] + r["elided"] for r in runs)
    peak = max([r["peak_live_words"] for r in runs] or [0])
    return {
        "wall_s": wall,
        "crash_states_per_s": states / wall if wall > 0 else 0.0,
        "peak_live_mb": peak * 8 / 1e6,
        "bug_pairs": sum(len(r["bugs"]) for r in runs),
    }


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def parity(untraced, traced):
    """Traced runs must reproduce the untraced engine's found-bug sets
    and tested-image counts store by store."""
    bad = []
    u = {run_key(r): r for r in untraced["runs"] if "error" not in r}
    for r in traced["runs"]:
        e = u.get(run_key(r))
        if e is None or e["bugs"] != r["bugs"] or e["tested"] != r["tested"]:
            bad.append(run_key(r))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.write_reference:
        out = run_child("measure", args.workload, args.seed, args.tiny)
        errors = [run_key(r) for r in out["runs"] if "error" in r]
        if errors:
            die("not recording a reference: %s raised" % ", ".join(errors))
        ref = load_reference()
        ref.setdefault(args.workload, {})[str(args.seed)] = {
            run_key(r): bug_digest(r["bugs"]) for r in out["runs"]}
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded %s seed %d" % (args.workload, args.seed))
        return

    checker = Checker(args.workload, args.seed, args.tiny)
    start = time.monotonic()
    # Set-up time is a few tens of milliseconds: sample it in extra
    # processes that stop before the first engine call.
    setups = [run_child("setup", args.workload, args.seed, args.tiny)["setup_s"]
              for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    parity_bad = []
    journal = os.path.join(OUT_DIR, "journal-%d.jsonl" % os.getpid())
    while True:
        t0 = time.monotonic()
        u = run_child("measure", args.workload, args.seed, args.tiny)
        checker.check(u["runs"])
        untraced.append(u)
        if args.trace:
            t = run_child("trace", args.workload, args.seed, args.tiny,
                          journal=journal)
            parity_bad += parity(u, t)
            traced.append(t)
        # start another process only if it should end within --seconds
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + last > min(args.seconds, BUDGET_S):
            break
    if os.path.exists(journal):
        os.remove(journal)

    e2e = [e2e_metrics(u) for u in untraced]
    setups += [u["setup_s"] for u in untraced]
    print("workload %s seed %d: %d untraced process(es)%s"
          % (args.workload, args.seed, len(untraced),
             ", %d traced" % len(traced) if traced else ""))
    for note in checker.notes:
        print("FAILED " + note, file=sys.stderr)
    if parity_bad:
        print("FAILED traced run diverged from Engine on: "
              + ", ".join(sorted(set(parity_bad))), file=sys.stderr)
    failed_frac = checker.failed / checker.attempted

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            name = m["name"]
            v = (statistics.median(setups) if name == "setup_s"
                 else median_of(e2e, name))
            metrics[name] = {"value": v, "unit": m["unit"]}
        for name, v in metrics.items():
            print("%-20s %14.6f %s" % (name, v["value"], v["unit"]))
        print("%-20s %14.6f fraction (failed store runs / attempted)"
              % ("failed_frac", failed_frac))
    else:
        source = traced[0]["source"]
        layers = [t["layers"] for t in traced]
        overhead = (statistics.median(t["wall_s"] for t in traced)
                    - median_of(e2e, "wall_s"))
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "obs.trace_overhead_s":
                v = overhead
            else:
                v = statistics.median(l[name] for l in layers)
            metrics[name] = {"value": v, "unit": m["unit"]}
            print("%-34s %16.6f %-6s [%s]" % (name, v, m["unit"], source))

    print(json.dumps({
        "correct": checker.failed == 0 and not parity_bad,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
