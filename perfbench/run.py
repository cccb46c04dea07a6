"""The repository benchmark: host time and simulated serving, one command.

    python3 perfbench/run.py --workload decode-exact --seed 1 --seconds 30 --trace 0

Runs passes of one workload (see :mod:`perfbench.workloads`), each in a
fresh worker process (:mod:`perfbench.worker`), until ``--seconds`` have
passed and at least one pass ran per sub-seed.  The seed expands to
``SUB_SEEDS`` sub-seeds whose traffic the passes cycle through:
simulated figures pool the requests of all sub-seeds, and a repeated
sub-seed must reproduce its simulated figures and tokens bit for bit.

``--trace 0`` prints the end-to-end metrics: host figures are medians
over passes, scaled by a calibration kernel timed in each pass to
seconds of a reference machine; simulated figures are deterministic
for a seed.
``--trace 1`` alternates plain, ledger and obs passes on the first
sub-seed and prints the per-layer metrics; the ledger pass closest to
the median wall time supplies the layer times, which with
``bench.unattributed_s`` sum exactly to its ``bench.wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, every pass with its raw times, and the
simulated latency medians and tails with each tail's percentile and
sample count.  The run exits
nonzero when any request failed, when a token differs from the NumPy
reference decode, or when a simulated figure differs between repeats.

Simulated figures come from the repository's U280 model, which is not
validated against hardware, so no error figure against a board is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.worker import MODES, THREAD_VARS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Distinct traffic draws per run; each gets at least one pass.
SUB_SEEDS = 3
#: Seconds after which a run stops: no pass starts that could overrun
#: it, and a pass still running then is killed and fails the run.
DEADLINE_S = 170.0
#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Seconds the calibration kernel (worker.calibration_samples) takes on
#: the reference machine: host figures are in seconds of that machine.
CALIBRATION_REFERENCE_S = 0.05


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def sub_seeds(seed: int) -> List[int]:
    return [seed * SUB_SEEDS + k for k in range(SUB_SEEDS)]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least 10 of ``n`` samples beyond it.

    Below 20 samples no percentile qualifies and the median stands in.
    """
    best = TAIL_PERCENTILES[0]
    for q in TAIL_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 6) >= 10.0:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(list(values), q))


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_worker(spec: Dict, timeout: float) -> Dict:
    """One pass in a fresh process (inheriting the pinned BLAS threads);
    returns its record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"pass {spec} failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schedule(seed: int, trace: bool, index: int) -> Dict:
    """The seed, mode and reference flag of pass ``index``."""
    if trace:
        return {"seed": sub_seeds(seed)[0],
                "mode": MODES[index % len(MODES)],
                "reference": index == 0}
    return {"seed": sub_seeds(seed)[index % SUB_SEEDS], "mode": "plain",
            "reference": index < SUB_SEEDS}


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> List[Dict]:
    min_passes = len(MODES) if trace else SUB_SEEDS
    records: List[Dict] = []
    start = time.perf_counter()
    slowest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= min_passes and elapsed >= seconds:
            break
        if records and elapsed + 1.5 * slowest > DEADLINE_S:
            break
        t0 = time.perf_counter()
        spec = dict(workload=workload, **schedule(seed, trace, len(records)))
        records.append(run_worker(spec, timeout=DEADLINE_S - elapsed))
        slowest = max(slowest, time.perf_counter() - t0)
    return records


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_repeats(records: List[Dict]) -> None:
    """Passes of one sub-seed must agree on every simulated figure."""
    first: Dict[int, Dict] = {}
    for record in records:
        seen = first.setdefault(record["seed"], record)
        if (record["sim"], record["tokens"]) != (seen["sim"], seen["tokens"]):
            raise BenchError(
                f"seed {record['seed']}: simulated figures or tokens differ "
                f"between a {seen['mode']} pass and a {record['mode']} pass")
    counts = [(r["ledger"]["calls"], r["ledger"]["des_instructions"])
              for r in records if r["ledger"]]
    if any(c != counts[0] for c in counts):
        raise BenchError("ledger call or instruction counts differ between "
                         "repeats")


def draws(records: List[Dict]) -> List[Dict]:
    """The first pass of each sub-seed."""
    first: Dict[int, Dict] = {}
    for record in records:
        first.setdefault(record["seed"], record)
    return list(first.values())


def failures(records: List[Dict]) -> int:
    """Failed requests: raised, unfinished, short, or off the reference."""
    return sum(r["failed"] + (r["mismatched"] or 0) for r in records)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latency(values: List[float]) -> Dict:
    """Mean, median and tail of ``values`` (seconds) in ms, with the
    tail's percentile and the sample count."""
    q = tail_percentile(len(values))
    return {"mean_ms": statistics.fmean(values) * 1e3,
            "p50_ms": percentile(values, 50.0) * 1e3,
            "tail_ms": percentile(values, q) * 1e3,
            "tail_percentile": q, "samples": len(values)}


def pooled_latency(records: List[Dict]) -> Dict[str, Dict]:
    """TTFT and inter-token latency pooled over the sub-seed draws."""
    sims = [r["sim"] for r in draws(records)]
    return {name: latency([v for s in sims for v in s[key]])
            for name, key in (("sim_ttft", "ttft_s"), ("sim_itl", "itl_s"))}


def slo_met(workload, sim: Dict) -> int:
    """Requests whose first token and every later gap met the limits."""
    return sum(ttft * 1e3 <= workload.ttft_limit_ms
               and gap * 1e3 <= workload.itl_limit_ms
               for ttft, gap in zip(sim["ttft_s"], sim["itl_max_s"]))


def end_to_end(workload, records: List[Dict]) -> Dict[str, tuple]:
    """End-to-end metrics: host medians over passes, in seconds of the
    reference machine; simulated figures pooled over the sub-seed draws."""
    firsts = draws(records)
    sims = [r["sim"] for r in firsts]
    generated = sum(r["generated"] for r in firsts)
    pooled = pooled_latency(records)
    attempted = sum(r["sent"] for r in records)
    return {
        "host_tokens_per_s": (statistics.median(
            r["generated"] / r["serve_s"]
            * r["calibration_s"] / CALIBRATION_REFERENCE_S
            for r in records), "tokens/s"),
        "setup_s": (statistics.median(
            r["setup_s"] * CALIBRATION_REFERENCE_S / r["calibration_s"]
            for r in records), "s"),
        "host_peak_rss_mb": (statistics.median(r["rss_mb"] for r in records),
                             "MB"),
        "sim_tokens_per_s": (generated / sum(s["makespan_s"] for s in sims),
                             "tokens/s"),
        "sim_tokens_per_joule": (generated / sum(s["energy_j"] for s in sims),
                                 "tokens/J"),
        "sim_ttft_mean_ms": (pooled["sim_ttft"]["mean_ms"], "ms"),
        "sim_itl_mean_ms": (pooled["sim_itl"]["mean_ms"], "ms"),
        "sim_slo_attainment": (
            sum(slo_met(workload, s) for s in sims)
            / sum(r["sent"] for r in firsts), "ratio"),
        "success_rate": (1.0 - failures(records) / attempted, "ratio"),
        "requests_sent": (firsts[0]["sent"], "count"),
    }


def median_ledger(records: List[Dict]) -> Dict:
    """The ledger pass with the median wall time (lower median)."""
    ledgers = sorted((r for r in records if r["ledger"]),
                     key=lambda r: r["ledger"]["wall_s"])
    return ledgers[(len(ledgers) - 1) // 2]


def per_layer(records: List[Dict]) -> Dict[str, tuple]:
    """Per-layer metrics of the median ledger pass, plus overheads."""
    record = median_ledger(records)
    ledger, counts = record["ledger"], record["sim"]["counts"]
    self_s, calls = ledger["self_s"], ledger["calls"]

    def serve_median(mode: str) -> float:
        """Median serve time of ``mode``'s passes, in calibration units."""
        return statistics.median(r["serve_s"] / r["calibration_s"]
                                 for r in records if r["mode"] == mode)

    plain = serve_median("plain")
    lookups = counts["compile.hits"] + counts["compile.misses"]
    replica_tokens = counts["cluster.replica_tokens"]
    mean_tokens = sum(replica_tokens) / len(replica_tokens)
    queue_wait = record["sim"]["queue_wait_s"]
    return {
        "des.runs": (calls["des"], "count"),
        "des.s": (self_s["des"], "s"),
        "des.instructions": (ledger["des_instructions"], "count"),
        "des.us_per_instruction": (
            self_s["des"] * 1e6 / max(1, ledger["des_instructions"]), "us"),
        "accel.forward_s": (self_s["accel.forward"], "s"),
        "accel.forward_slots": (counts["accel.forward_slots"], "count"),
        "accel.forward_us_per_slot": (
            self_s["accel.forward"] * 1e6
            / max(1, counts["accel.forward_slots"]), "us"),
        "compile.calls": (calls["compile"], "count"),
        "compile.hits": (counts["compile.hits"], "count"),
        "compile.misses": (counts["compile.misses"], "count"),
        "compile.hit_rate": (
            counts["compile.hits"] / lookups if lookups else 0.0, "ratio"),
        "compile.self_s": (self_s["compile"], "s"),
        "backend.self_s": (self_s["backend"], "s"),
        "serve.steps": (counts["serve.steps"], "count"),
        "serve.step_self_s": (self_s["serve.step"], "s"),
        "serve.scheduler_s": (self_s["serve.scheduler"], "s"),
        "serve.slots_per_step": (
            counts["accel.forward_slots"] / max(1, counts["serve.steps"]),
            "count"),
        "serve.queue_wait_p50_ms": (
            percentile(queue_wait, 50.0) * 1e3 if queue_wait else 0.0, "ms"),
        "serve.preemptions": (counts["serve.preemptions"], "count"),
        "kvpool.prefix_hit_rate": (
            counts["kvpool.prefix_hit_tokens"]
            / max(1, counts["kvpool.prefill_tokens"]), "ratio"),
        "kvpool.mean_utilization": (counts["kvpool.mean_utilization"],
                                    "ratio"),
        "cluster.self_s": (self_s["cluster"], "s"),
        "cluster.affinity_hit_share": (
            counts["cluster.affinity_hits"]
            / max(1, counts["cluster.decisions"]), "ratio"),
        "cluster.replica_token_imbalance": (
            max(replica_tokens) / mean_tokens - 1.0 if mean_tokens else 0.0,
            "ratio"),
        "api.submit_s": (self_s["api.submit"], "s"),
        "obs.overhead_frac": (serve_median("obs") / plain - 1.0, "ratio"),
        "hw.mpe_utilization": (counts["hw.mpe_utilization"], "ratio"),
        "hw.memory_stall_cycles": (counts["hw.memory_stall_cycles"],
                                   "cycles"),
        "hw.hbm_bytes_per_token": (
            counts["hw.hbm_bytes"] / max(1, record["generated"]), "B/token"),
        "bench.wall_s": (ledger["wall_s"], "s"),
        "bench.calibration_s": (record["calibration_s"], "s"),
        "bench.unattributed_s": (ledger["unattributed_s"], "s"),
        "bench.trace_overhead_frac": (serve_median("ledger") / plain - 1.0,
                                      "ratio"),
    }


def environment() -> Dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "note": ("sim_* figures come from the simulated U280 model, which "
                 "is not validated against hardware; no error figure"),
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # A terminated run raises here, so the running pass is killed and
    # reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        records = run_passes(args.workload, args.seed, args.seconds,
                             bool(args.trace))
        check_repeats(records)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    metrics = (per_layer(records) if args.trace
               else end_to_end(workload, records))
    failed = failures(records)
    attempted = sum(r["sent"] for r in records)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "sub_seeds": sub_seeds(args.seed),
        "passes": [{key: r[key] for key in ("seed", "mode", "serve_s",
                                            "setup_s", "calibration_s")}
                   for r in records],
        "latency": pooled_latency(records),
        "slo": {"ttft_limit_ms": workload.ttft_limit_ms,
                "itl_limit_ms": workload.itl_limit_ms},
        "requests": {"sent": attempted, "succeeded": attempted - failed,
                     "failed": failed},
        "env": environment(),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
