"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import concurrent.futures
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

import program
import run
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(program.ROOT, "BENCHMARK.json"), encoding="utf-8"))


def bench(*args, cwd=program.ROOT, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3", "--seconds", "0.5", "--tiny", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd, env=env)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "backend: " in proc.stdout
    assert f"{workload}.failed_ratio = " in proc.stdout


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_prints_every_per_layer_metric_and_agrees_across_backends(workload):
    proc = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = last_json(proc)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    assert "per-layer split written to" in proc.stdout
    split = json.load(open(os.path.join(program.BUILD, "out", f"trace-{workload}-seed3.json"), encoding="utf-8"))
    for backend in split["backends"].values():
        assert backend["adds_up"]
        assert sum(backend["layers_self_s"].values()) == pytest.approx(backend["wall_s"])


@pytest.fixture
def python_backend(monkeypatch):
    monkeypatch.setenv("VOTELACE_BACKEND", "python")
    return program.load("python")


def test_tracing_does_not_change_outputs_and_uninstalls(python_backend, tmp_path):
    from votelace import domains, kernels

    clear = run.clear_all(program.caches())
    originals = dict(domains.DOMAINS), kernels.contains_pattern
    for name in workloads.NAMES:
        workload = workloads.build(name, 5, True, tmp_path)
        plain = run.one_pass(workload, clear)
        tracer = tracing.install(tracing.Tracer())
        try:
            traced = tracer.call(tracing.ROOT_SPAN, run.one_pass, workload, clear)
        finally:
            tracer.uninstall()
        assert traced == plain, name
        assert workload.check(traced) == [], name
        assert tracer.stats[tracing.ROOT_SPAN][0] == 1
    assert (dict(domains.DOMAINS), kernels.contains_pattern) == originals


def test_wrong_pinned_count_fails_the_run(python_backend, monkeypatch, capsys):
    cells = dict(workloads.TINY_COUNT_CELLS)
    cells["enriched", 3, 3] += 1
    monkeypatch.setattr(workloads, "TINY_COUNT_CELLS", cells)
    code = run.main(["--workload", "count", "--seed", "1", "--seconds", "0.2", "--trace", "0", "--tiny"])
    out = capsys.readouterr().out
    assert code != 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "GATE FAILED: enriched (3,3)" in out


def test_wrong_witness_is_caught(python_backend, tmp_path):
    workload = workloads.build("query", 7, True, tmp_path)
    outputs = run.one_pass(workload, lambda: None)
    index = next(i for i, (code, text) in enumerate(outputs) if "witness" in text or "violating" in text)
    code, text = outputs[index]
    lines = text.splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 99"
    outputs[index] = [code, "\n".join(lines) + "\n"]
    assert len(workload.check(outputs)) == 1


class OneUnit(workloads.Workload):
    def __init__(self, run_unit):
        self.units = [workloads.Unit(run_unit)]

    def tally(self, outputs):
        return len(outputs), 0


def test_reference_readings_inside_a_unit_are_taken_out_of_its_time(monkeypatch):
    monkeypatch.setattr(run.reference, "sample", lambda: time.sleep(0.03) or run.reference.SAMPLE_S)

    def spin(own=1.2):
        """Spin for ``own`` seconds of the unit's own time; a gap over 20 ms is a reading."""
        last = time.perf_counter()
        while own > 0:
            now = time.perf_counter()
            if now - last < 0.02:
                own -= now - last
            last = now

    timing = run.timed_passes(OneUnit(spin), 0, lambda: None)
    assert len(timing.samples) >= 10  # one before, about ten in the middle of the unit, one after
    assert timing.raw[0][0] == pytest.approx(1.2, abs=0.05)
    assert timing.scaled[0][0] == pytest.approx(timing.raw[0][0])


def test_time_in_process_pools_is_scaled_by_the_pool_reference(monkeypatch):
    monkeypatch.setattr(run.reference, "sample", lambda: run.reference.SAMPLE_S)
    monkeypatch.setattr(run.reference, "pool_reference", lambda pool_class: run.reference.POOL_REFERENCE_S / 2)
    pool_class, pooled = concurrent.futures.ProcessPoolExecutor, []

    def fan_out():
        start = time.perf_counter()
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(abs, (1, 2)))
        pooled.append(time.perf_counter() - start)

    timing = run.timed_passes(OneUnit(fan_out), 0, lambda: None)
    assert timing.pool_references == [run.reference.POOL_REFERENCE_S / 2]
    assert concurrent.futures.ProcessPoolExecutor is pool_class
    # pools ran at half the reference machine's pool time, so their time counts twice; the rest once
    assert timing.scaled[0][0] == pytest.approx(timing.raw[0][0] + pooled[0], abs=1e-3)


def test_query_mix_has_exact_shares():
    mix = Counter(workloads._mix(random.Random(1), workloads.QUERY_POOL))
    checks = [count for (kind, *_), count in mix.items() if kind == "check"]
    classes = len(workloads.DOMAIN_NAMES) * len(workloads.CHECK_SIZES) * len(workloads.VOTER_COUNTS)
    assert len(checks) == 2 * classes and set(checks) == {5}  # 10 per (domain, m, n): 5 uniform, 5 perturbed
    assert sorted(count for (kind, *_), count in mix.items() if kind != "check") == [600] * 4


def test_stale_compiled_source_is_detected():
    with open(program.C_SOURCE, encoding="utf-8") as fh:
        c_text = fh.read()
    with open(program.PYX_SOURCE, encoding="utf-8") as fh:
        pyx_text = fh.read()
    assert program.stale_lines(c_text, pyx_text) == []
    assert program.stale_lines(c_text, "\n" + pyx_text)
    edited = pyx_text.replace("kernel input longer than", "kernel input is longer than")
    assert edited != pyx_text
    assert program.stale_lines(c_text, edited)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(program.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
