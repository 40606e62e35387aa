"""speccy benchmark: one command, four workloads, metrics timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is loaded from ./src.  Inputs
are generated from the seed (bench/workloads.py).  Every job's output is
checked: CLI stdout against golden sha256 digests (bench/golden.json) and
independent oracles, library results against oracles.

--trace 0  repeats the pass over the seeded fixture set, one client in a
           closed loop, a fixed number of times (as many as fit in S
           seconds on the baseline machine, at least three), takes cold
           imports of speccy.cli between the passes, and reports the
           end-to-end metrics, each sample scaled to the reference host
           speed by the probes (bench/probe.py) taken around it.
--trace 1  runs the pass plain, then with every layer wrapped
           (bench/tracer.py), then plain again, and reports per-layer
           metrics, work counters, trace.overhead_frac and
           trace.coverage_frac.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Details of the run (every
sample) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from probe import REF_S, probe  # noqa: E402
from tracer import merge_stats  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_cli,
    job_key,
    make_pass,
    pass_count,
    tail_percentile,
    write_files,
)

JOB_TIMEOUT_S = 60
PASS_TIMEOUT_S = 120
RUN_LIMIT_S = 140        # no pass starts after this, so a run ends well within 180 s
SETUP_SAMPLES = 4        # cold imports before each pass and after the last

IMPORT_PROBE = ("import time; t = time.perf_counter(); import speccy.cli; "
                "print(time.perf_counter() - t)")


def load_spec():
    """BENCHMARK.json: the metric names and units this script reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SPECCY_PRECISION", None)   # the CLI default precision is part of the input
    return env


def spawn(cmd, cwd, env, timeout):
    """Run cmd; returns (seconds, exit code, stdout bytes, max RSS in MB).
    The RSS comes from wait4 on this child alone."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss / 1024.0


def cold_import_s(env):
    _, code, out, _ = spawn([sys.executable, "-c", IMPORT_PROBE], ROOT, env, JOB_TIMEOUT_S)
    if code != 0:
        raise RuntimeError("import speccy.cli failed")
    return float(out)


def setup_samples(env, count):
    """(scaled, raw) cold import times; each is scaled to the reference host
    speed by the mean of the speed probes just before and just after it."""
    probes = [probe()]
    raw = []
    for _ in range(count):
        raw.append(cold_import_s(env))
        probes.append(probe())
    return [(x * 2 * REF_S / (a + b), x) for x, a, b in zip(raw, probes, probes[1:])]


# ---------------------------------------------------------------------------
# one pass


class Pass:
    def __init__(self):
        self.wall_s = 0.0
        self.latencies = []
        self.errors = []          # None or reason, per job
        self.digests = []
        self.rss_mb = 0.0
        self.stats = {}
        self.spans = []
        self.import_s = []
        self.covered_s = 0.0
        self.traced_s = 0.0
        self.probe_s = []         # per job: mean of the speed probes around it
        self.probe_total_s = 0.0  # time spent in probes, left out of wall_s


def run_cli_pass(jobs, work, env, golden, trace):
    res = Pass()
    t0 = perf_counter()
    probes = [probe()]
    for i, job in enumerate(jobs):
        if trace:
            tpath = os.path.join(work, "clijob-trace.json")
            cmd = [sys.executable, os.path.join(BENCH, "clijob.py"), tpath] + job["argv"]
        else:
            cmd = [sys.executable, "-m", "speccy"] + job["argv"]
        seconds, code, out, rss = spawn(cmd, work, env, JOB_TIMEOUT_S)
        try:
            err = check_cli(job, code, out, golden)
        except (ValueError, KeyError, TypeError) as exc:
            err = f"unreadable output: {exc}"
        probes.append(probe())
        res.latencies.append(seconds)
        res.probe_s.append((probes[-2] + probes[-1]) / 2)
        res.errors.append(err)
        res.digests.append(hashlib.sha256(out).hexdigest())
        res.rss_mb = max(res.rss_mb, rss)
        if trace and os.path.exists(tpath):
            with open(tpath) as fh:
                blob = json.load(fh)
            os.remove(tpath)
            merge_stats(res.stats, blob["trace"]["stats"])
            res.spans.append({"job": i, "key": job_key(job), "spans": blob["trace"]["spans"]})
            res.import_s.append(blob["import_s"])
            res.covered_s += blob["covered_s"]
            res.traced_s += blob["traced_s"]
    res.probe_total_s = sum(probes)
    res.wall_s = perf_counter() - t0 - res.probe_total_s
    return res


def run_lib_pass(jobs, work, env, trace):
    res = Pass()
    jpath = os.path.join(work, "jobs.json")
    rpath = os.path.join(work, "result.json")
    with open(jpath, "w") as fh:
        json.dump(jobs, fh)
    if os.path.exists(rpath):
        os.remove(rpath)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), jpath, rpath, "1" if trace else "0"]
    res.wall_s, code, _, res.rss_mb = spawn(cmd, work, env, PASS_TIMEOUT_S)
    if code != 0 or not os.path.exists(rpath):
        res.latencies = [res.wall_s / len(jobs)] * len(jobs)
        res.probe_s = [REF_S] * len(jobs)
        res.errors = [f"worker exit code {code}"] * len(jobs)
        res.digests = [None] * len(jobs)
        return res
    with open(rpath) as fh:
        blob = json.load(fh)
    res.probe_total_s = blob["probe_total_s"]
    res.wall_s -= res.probe_total_s
    res.import_s.append(blob["import_s"])
    for rec in blob["jobs"]:
        res.latencies.append(rec["s"])
        res.probe_s.append(rec["probe_s"])
        res.errors.append(rec["error"])
        res.digests.append(rec["digest"])
        res.covered_s += rec.get("covered_s", 0.0)
        res.traced_s += rec.get("traced_s", 0.0)
    if trace:
        res.stats = blob["trace"]["stats"]
        res.spans = [{"process": "worker", "spans": blob["trace"]["spans"]}]
    return res


def run_pass(spec, jobs, work, env, golden, trace):
    if spec["runner"] == "cli":
        return run_cli_pass(jobs, work, env, golden, trace)
    return run_lib_pass(jobs, work, env, trace)


# ---------------------------------------------------------------------------
# metrics


def quantile(values, pct):
    """Linear-interpolated percentile (the 'inclusive' method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_value(name, traced, untraced_s):
    """A per-layer metric; "<span>.<quantity>" reads the tracer aggregate."""
    if name == "trace.overhead_frac":
        return scaled(traced)[1] / untraced_s - 1.0
    if name == "trace.coverage_frac":
        return traced.covered_s / traced.traced_s if traced.traced_s else 0.0
    if name == "cli.import_s":
        return statistics.median(traced.import_s) if traced.import_s else 0.0
    span, qty = name.rsplit(".", 1)
    stat = traced.stats.get(span, {})
    if qty == "operand_terms":
        calls = stat.get("calls", 0)
        return stat.get("operand_terms_total", 0) / (2 * calls) if calls else 0.0
    return stat.get(qty, 0)


def scaled(p):
    """The pass's job latencies and wall time at the reference host speed.
    Each job is scaled by the probes around it and the wall time by the
    latency-weighted mean of those factors."""
    lat = [x * REF_S / t for x, t in zip(p.latencies, p.probe_s)]
    return lat, p.wall_s * sum(lat) / sum(p.latencies)


def timed_run(args, spec, jobs, work, env, golden):
    cold_import_s(env)   # writes the bytecode, so every sample below is alike
    imports, passes = [], []
    start = perf_counter()
    for _ in range(pass_count(args.workload, args.seconds)):
        if perf_counter() - start > RUN_LIMIT_S:
            break
        # spread over the run, so that the median sees the machine as the
        # passes do rather than in one moment
        imports += setup_samples(env, SETUP_SAMPLES)
        passes.append(run_pass(spec, jobs, work, env, golden, False))
    imports += setup_samples(env, SETUP_SAMPLES)
    setup = [x for x, _ in imports]
    setup_raw = [x for _, x in imports]
    lat_raw = [x for p in passes for x in p.latencies]
    lat_walls = [scaled(p) for p in passes]
    lat = [x for pass_lat, _ in lat_walls for x in pass_lat]
    walls = [wall for _, wall in lat_walls]
    errors = [e for p in passes for e in p.errors]
    pct = tail_percentile(len(lat))
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": quantile(lat, pct),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }
    unscaled = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "job_p50_s": statistics.median(lat_raw),
        "job_tail_s": quantile(lat_raw, pct),
        "setup_s": statistics.median(setup_raw),
    }
    failed = sum(e is not None for e in errors)
    notes = {
        "wall_s": f"median of {len(passes)} passes of {len(jobs)} jobs",
        "job_p50_s": f"median of {len(lat)} jobs",
        "job_tail_s": f"p{pct} of {len(lat)} jobs, {sum(x > metrics['job_tail_s'] for x in lat)}"
                      " above it",
        "peak_rss_mb": f"max over {len(passes) if spec['runner'] == 'lib' else len(lat)}"
                       " child processes",
        "setup_s": f"median of {len(setup)} cold imports of speccy.cli",
    }
    for name, value in unscaled.items():
        notes[name] += f"; {value:.4g} s unscaled"
    detail = {"passes": [p.wall_s for p in passes], "scaled_passes": walls,
              "latencies": lat_raw, "probe_s": [t for p in passes for t in p.probe_s],
              "setup": setup_raw, "scaled_setup": setup, "unscaled": unscaled,
              "tail_percentile": pct, "errors": errors}
    return metrics, notes, len(errors), failed, errors, detail


def traced_run(args, spec, jobs, work, env, golden):
    # plain passes on both sides of the traced one, so that drift in machine
    # speed during the run cancels in trace.overhead_frac
    before = run_pass(spec, jobs, work, env, golden, False)
    traced = run_pass(spec, jobs, work, env, golden, True)
    after = run_pass(spec, jobs, work, env, golden, False)
    untraced_s = (scaled(before)[1] + scaled(after)[1]) / 2
    errors = before.errors + after.errors
    for a, b, err in zip(before.digests, traced.digests, traced.errors):
        if err is None and a != b:
            err = "traced output differs from untraced output"
        errors.append(err)
    metrics = {m["name"]: layer_value(m["name"], traced, untraced_s) for m in args.metrics}
    failed = sum(e is not None for e in errors)
    with open(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl"),
              "w") as fh:
        for rec in traced.spans:
            fh.write(json.dumps(rec) + "\n")
    notes = {"trace.overhead_frac": f"traced pass {scaled(traced)[1]:.3f} s over plain passes "
                                    f"{scaled(before)[1]:.3f} s and {scaled(after)[1]:.3f} s"
                                    " (scaled to the reference host speed)",
             "trace.coverage_frac": f"{traced.covered_s:.3f} s of {traced.traced_s:.3f} s"
                                    " job time in top-level spans"}
    detail = {"stats": traced.stats, "errors": errors,
              "untraced_wall_s": [before.wall_s, after.wall_s], "traced_wall_s": traced.wall_s}
    return metrics, notes, len(errors), failed, errors, detail


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "speccy", "cli.py")):
        print(f"error: no speccy sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    args.metrics = load_spec()["per_layer" if args.trace else "end_to_end"]
    spec = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    golden = {}
    if spec["runner"] == "cli":
        with open(os.path.join(BENCH, "golden.json")) as fh:
            golden = json.load(fh)
    write_files(args.workload, work)
    env = child_env()
    jobs = make_pass(args.workload, args.seed)
    run = traced_run if args.trace else timed_run
    metrics, notes, attempted, failed, errors, detail = run(args, spec, jobs, work, env, golden)
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {spec['job']} per job")
    for m in args.metrics:
        note = notes.get(m["name"], "")
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(f"  failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} jobs)")
    for i, err in enumerate(errors):
        if err is not None:
            print(f"  job {i % len(jobs)} failed: {err}", file=sys.stderr)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump({"metrics": metrics, "notes": notes, "detail": detail}, fh)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in args.metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
