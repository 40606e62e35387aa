"""Measure a baseline: ten seeds per workload plus one traced run each.

    python3 bench/baseline.py

For every end-to-end metric it records the median, the quartiles and the
spread (interquartile distance over the median) across seeds, and checks
each spread against a third of the metric's bound in BENCHMARK.json.  It
also re-measures the ROADMAP anchor (`speccy verify` on L0(-7)+E8 with
principal part {"m,0": 1} for m = 1, 2, 3) in unscaled seconds, and times
the host speed probe (bench/probe.py) before and after, so that numbers
taken on a busy machine can be told apart.  Writes bench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from probe import probe  # noqa: E402
from run import child_env, spawn  # noqa: E402
from workloads import write_files  # noqa: E402

SEEDS = range(1, 11)


def run_bench(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def anchor(repeats=3):
    out = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as work:
        write_files("ledger-e8", work)
        for m in (1, 2, 3):
            argv = [sys.executable, "-m", "speccy", "verify", "--lattice", "L7.json",
                    "--sub", "sub.json", "--pp", json.dumps({f"{m},0": 1})]
            times = []
            for _ in range(repeats):
                seconds, code, _, _ = spawn(argv, work, child_env(), 60)
                if code != 0:
                    raise SystemExit(f"anchor verify m={m} exited {code}")
                times.append(seconds)
            out[f"verify L0(-7)+E8 m={m}"] = statistics.median(times)
    return out


# ROADMAP anchor, measured when the ROADMAP was written on the same kind of
# machine (2 cores, Python 3.11.7)
ROADMAP_ANCHOR = {"verify L0(-7)+E8 m=1": 0.45, "verify L0(-7)+E8 m=2": 1.05,
                  "verify L0(-7)+E8 m=3": 2.96}

EXCLUDED = {
    "cm-oracle d=-163": "348 s for m <= 10, longer than a whole run",
    "chowla --disc -1003": "14 s per job at the default 30 digits; a run would hold"
                           " too few jobs for a tail percentile",
    "weil-modular |D| = 31 (ST)^3 and |D| >= 71": "8-10 s and minutes per job",
    "ledger-e8 verify at m = 3": "3.0 s per job; measured here as the anchor instead",
    "ledger-e8 theta at cutoff 4": "3.4 s per job; with it three passes would not fit"
                                   " in a 25 s run",
}


def probe_s(repeats=25):
    """Median time of the host speed probe: how fast the machine was."""
    return statistics.median(probe() for _ in range(repeats))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    result = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(), "run_seconds": spec["run_seconds"],
              "seeds": list(SEEDS), "probe_s_before": probe_s(),
              "workloads": {}}
    steady = True
    for name in names:
        runs = [run_bench(name, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for metric in bounds:
            s = summary([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = s
            ok = s["spread"] < bounds[metric] / 3
            steady &= ok
            print(f"{name:13s} {metric:12s} median {s['median']:.4g} spread {s['spread']:.3f}"
                  f" (bound {bounds[metric]}){'' if ok else '  NOT STEADY'}", flush=True)
        traced = run_bench(name, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        result["workloads"][name] = entry
        print(f"{name:13s} failed {entry['failed']} of {entry['attempted']},"
              f" traced failed {traced['failed']}", flush=True)
    result["probe_s_after"] = probe_s()
    result["anchor"] = anchor()
    result["roadmap_anchor"] = ROADMAP_ANCHOR
    result["excluded"] = EXCLUDED
    result["steady"] = steady
    with open(os.path.join(BENCH, "baseline.json"), "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result["anchor"]))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
