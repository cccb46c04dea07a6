"""Tests of the benchmark itself, at smoke sizes that run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, worker
from perfbench.ledger import Ledger, LedgerError, Span, check
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Smoke sizes: requests (tenants-slo keeps one document and a chat per
#: tenant) and tokens per request.
SMOKE = {name: WORKLOADS[name].scaled(n_requests=n, max_tokens=3)
         for name, n in (("decode-exact", 2), ("decode-steady", 1),
                         ("tenants-slo", 5))}


@pytest.fixture(scope="module")
def smoke_records():
    """Per workload: a plain, a ledger and an obs pass of one draw."""
    return {name: [worker.run_pass(workload, seed=5, mode=mode,
                                   reference=mode == "plain")
                   for mode in worker.MODES]
            for name, workload in SMOKE.items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_metrics_match_benchmark_json(smoke_records, name):
    records = smoke_records[name]
    e2e = run.end_to_end(SMOKE[name], [records[0]])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (metric, unit) for metric, (_, unit) in e2e.items()]
    layers = run.per_layer(records)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (metric, unit) for metric, (_, unit) in layers.items()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_pass_is_correct_and_deterministic(smoke_records, name):
    records = smoke_records[name]
    assert records[0]["failed"] == 0 and records[0]["mismatched"] == 0
    assert all(r["generated"] == SMOKE[name].n_requests * 3 for r in records)
    # Tracing and obs sinks are passive: every simulated figure repeats.
    run.check_repeats(records)
    ledger = records[1]["ledger"]
    assert ledger["wall_s"] > 0 and ledger["unattributed_s"] >= 0
    assert ledger["calls"]["serve.step"] > 0


def test_injected_token_mismatch_trips_the_gate(monkeypatch):
    from repro.llama import generation
    real = generation.generate

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        result.generated_tokens[-1] += 1
        return result

    monkeypatch.setattr(generation, "generate", off_by_one)
    record = worker.run_pass(SMOKE["tenants-slo"], seed=5, reference=True)
    assert record["mismatched"] == 5
    assert run.failures([record]) == 5
    monkeypatch.setattr(run, "run_passes", lambda *args: [record])
    assert run.main(["--workload", "tenants-slo", "--seed", "1",
                     "--seconds", "1"]) == 1


def test_differing_repeat_fails_the_run(smoke_records):
    plain = smoke_records["tenants-slo"][0]
    drifted = json.loads(json.dumps(plain))
    drifted["sim"]["makespan_s"] *= 1.0 + 1e-12
    with pytest.raises(run.BenchError):
        run.check_repeats([plain, drifted])


def _nested_ledger():
    ledger = Ledger()
    inner = ledger.wrap("inner", lambda: sum(range(1000)))
    outer = ledger.wrap("outer", lambda: [inner() for _ in range(3)])
    t0 = worker.time.perf_counter_ns()
    outer()
    outer()
    return ledger, worker.time.perf_counter_ns() - t0


def test_ledger_sums_exactly_to_wall():
    ledger, wall_ns = _nested_ledger()
    unattributed = check(ledger, wall_ns)
    assert sum(ledger.self_ns.values()) + unattributed == wall_ns
    assert ledger.calls == {"outer": 2, "inner": 6}


@pytest.mark.parametrize("drop", ["child", "root"])
def test_ledger_check_fails_on_a_dropped_span(drop):
    ledger, wall_ns = _nested_ledger()
    victim = next(s for s in ledger.spans
                  if (s.parent < 0) == (drop == "root"))
    ledger.spans.remove(victim)
    with pytest.raises(LedgerError):
        check(ledger, wall_ns)


def test_ledger_check_fails_on_an_escaped_child():
    ledger = Ledger()
    ledger.spans = [Span(0, "outer", 10, 20, -1), Span(1, "inner", 15, 25, 0)]
    ledger.self_ns.update({"outer": 5, "inner": 10})
    with pytest.raises(LedgerError):
        check(ledger, 10)


def test_ledger_restores_entry_points():
    from repro.serve.engine import ServingEngine
    original = ServingEngine.step
    with Ledger().installed():
        assert ServingEngine.step is not original
    assert ServingEngine.step is original


@pytest.mark.parametrize("n, q", [(8, 50.0), (20, 50.0), (40, 75.0),
                                  (100, 90.0), (200, 95.0), (1000, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert run.tail_percentile(n) == q


def test_sub_seeds_are_disjoint_between_seeds():
    assert not set(run.sub_seeds(1)) & set(run.sub_seeds(2))


def test_requests_depend_only_on_the_seed():
    for workload in SMOKE.values():
        assert workload.requests(3) == workload.requests(3)
        assert workload.requests(3) != workload.requests(4)


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
