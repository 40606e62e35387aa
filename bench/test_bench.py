"""Checks of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/test_bench.py

Runs a few cheap jobs of every workload, untraced and traced, in child
processes exactly as bench/run.py does.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    job_key,
    make_pass,
    pass_count,
    tail_percentile,
    write_files,
)

TIMES = {"s", "self_s", "miss_s"}


def cheap_jobs(workload, seed, count=3):
    jobs = make_pass(workload, seed)
    if workload == "ledger-e8":
        jobs = [j for j in jobs if j["check"] == "verify" and '"1,0"' in j["argv"][-1]]
    elif workload == "chowla":
        jobs = sorted(jobs, key=lambda j: -j["d"])
    elif workload == "weil-modular":
        jobs = [j for j in jobs
                if abs(j["gram"][0][0] * j["gram"][1][1] - j["gram"][0][1] ** 2) <= 8]
    return jobs[:count]


def counters(stats):
    return {name: {k: v for k, v in stat.items() if k not in TIMES}
            for name, stat in stats.items()}


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(BENCH, "golden.json")) as fh:
        return json.load(fh)


def run_jobs(workload, jobs, golden, trace):
    spec = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as work:
        write_files(workload, work)
        return run.run_pass(spec, jobs, work, run.child_env(), golden, trace)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counters_repeat_and_outputs_match(workload, golden):
    jobs = cheap_jobs(workload, 5)
    plain = run_jobs(workload, jobs, golden, False)
    first = run_jobs(workload, jobs, golden, True)
    second = run_jobs(workload, jobs, golden, True)
    assert plain.errors == [None] * len(jobs)
    assert first.errors == [None] * len(jobs)
    assert plain.digests == first.digests == second.digests
    assert first.stats and counters(first.stats) == counters(second.stats)
    assert first.covered_s <= first.traced_s


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload):
    assert make_pass(workload, 3) == make_pass(workload, 3)
    assert make_pass(workload, 3) != make_pass(workload, 4)
    assert len(make_pass(workload, 3)) == len(make_pass(workload, 4))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_run_leaves_ten_jobs_beyond_its_tail_percentile(workload):
    seconds = run.load_spec()["run_seconds"]
    jobs = len(make_pass(workload, 1)) * pass_count(workload, seconds)
    pct = tail_percentile(jobs)
    lat = [float(i) for i in range(jobs)]
    assert pct > 50 and sum(x > run.quantile(lat, pct) for x in lat) >= 10


def test_scaling_to_the_reference_speed():
    p = run.Pass()
    p.wall_s, p.latencies = 3.0, [1.0, 1.0]
    p.probe_s = [run.REF_S, 2 * run.REF_S]     # second job ran at half speed
    lat, wall = run.scaled(p)
    assert lat == [1.0, 0.5] and wall == 2.25


def test_every_generated_cli_job_has_a_golden_digest(golden):
    for workload, spec in WORKLOADS.items():
        if spec["runner"] != "cli":
            continue
        for seed in range(40):
            for job in make_pass(workload, seed):
                assert job_key(job) in golden, job_key(job)


def test_every_per_layer_metric_names_a_wrapped_span():
    """A misspelt metric would silently read 0, so check each name against
    the spans and counters the tracer installs."""
    from tracer import Tracer

    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    tracer = Tracer()
    tracer.install()
    try:
        for metric in run.load_spec()["per_layer"]:
            span, qty = metric["name"].rsplit(".", 1)
            if span in ("trace", "cli") and qty.endswith(("_frac", "import_s")):
                continue
            key = "operand_terms_total" if qty == "operand_terms" else qty
            assert key in tracer.stats.get(span, {}), metric["name"]
    finally:
        tracer.uninstall()


def test_wrong_output_is_a_failed_job(golden):
    job = cheap_jobs("chowla", 1, 1)[0]
    good = run_jobs("chowla", [job], golden, False)
    assert good.errors == [None]
    bad = {job_key(job): "0" * 64}
    assert run_jobs("chowla", [job], bad, False).errors == ["stdout digest differs from golden"]
