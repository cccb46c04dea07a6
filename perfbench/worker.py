"""One benchmark pass in a fresh process: set up, serve, measure, check.

Run as ``python3 perfbench/worker.py '<json spec>'``; prints one JSON
record with the pass's host times, its simulated samples and counts,
its token streams and, in ledger mode, the per-layer ledger.
:mod:`perfbench.run` starts one worker per pass, so every pass pays the
imports and model build a ``speedllm`` invocation pays, and every pass
starts with a cold compile cache.

Modes: ``plain`` (nothing attached), ``ledger`` (entry points wrapped by
:mod:`perfbench.ledger`) and ``obs`` (a ``repro.obs`` Tracer and
MetricsRegistry attached to the engine or cluster).
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.ledger import LAYERS, Ledger, check  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

MODES = ("plain", "ledger", "obs")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def calibration_samples() -> List[float]:
    """Seconds, four times over, a fixed kernel of interpreter and
    small-NumPy work takes.

    On a shared machine the host's speed drifts by up to 2x within
    minutes, and the simulator's host time drifts with it.  Host figures
    are divided by this kernel's mean time, sampled in the same process
    just before and just after the timed region, so they measure the
    program rather than its neighbours.  The kernel imitates the
    simulator's two kinds of work, heap-driven event dispatch in pure
    Python and small float32 matrix-vector products, and must never
    change: every host figure is scaled by it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((288, 288)).astype(np.float32)
    samples = []
    for _ in range(4):
        x = rng.standard_normal(288).astype(np.float32)
        start = time.perf_counter()
        heap: list = []
        for i in range(60000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        for _ in range(1500):
            x = np.tanh(weights @ x)
        samples.append(time.perf_counter() - start)
    return samples


def reference_mismatches(llm, results) -> int:
    """Requests whose tokens differ from a greedy NumPy reference decode."""
    from repro.llama.generation import generate
    from repro.llama.model import LlamaModel
    model = LlamaModel(llm.accelerator.functional_checkpoint())
    mismatched = 0
    for result in results:
        reference = generate(model, result.prompt_tokens,
                             max_new_tokens=len(result.generated_tokens),
                             stop_at_eos=False)
        if list(reference.generated_tokens) != list(result.generated_tokens):
            mismatched += 1
    return mismatched


def simulated(outcome, done: List, llm) -> Dict:
    """Every simulated number of a pass: latency samples and counts.

    ``done`` holds the RequestMetrics of the requests that succeeded.
    """
    report = outcome.report
    cache = llm.accelerator.timing.compile_stats()["cache"]
    replica_tokens = [r.total_generated_tokens for r in outcome.replicas]
    steps = sum(r.n_steps for r in outcome.replicas)
    mpe = sum(r.shard_utilization[0] * r.n_steps
              for r in outcome.replicas if r.n_steps)
    routing = outcome.routing
    return {
        "ttft_s": [r.time_to_first_token_s for r in done],
        "itl_s": [gap for r in done for gap in r.inter_token_latencies_s],
        "queue_wait_s": [r.queue_wait_s for r in done],
        # Each request's longest stall between two tokens (its SLO input).
        "itl_max_s": [max(r.inter_token_latencies_s, default=0.0)
                      for r in done],
        "makespan_s": report.makespan_seconds,
        "energy_j": report.energy.total_j,
        "counts": {
            "compile.hits": cache["hits"],
            "compile.misses": cache["misses"],
            "accel.forward_slots": report.total_slots,
            "serve.steps": report.n_steps,
            "serve.preemptions": report.n_preemptions,
            "kvpool.prefix_hit_tokens": report.prefix_hit_tokens,
            "kvpool.prefill_tokens": report.total_prefill_tokens,
            "kvpool.mean_utilization": report.mean_kv_utilization,
            "cluster.affinity_hits": routing.get("affinity_hits", 0),
            "cluster.decisions": routing.get("n_decisions", 0),
            "cluster.replica_tokens": replica_tokens,
            "hw.mpe_utilization": mpe / steps if steps else 0.0,
            "hw.memory_stall_cycles": report.counters.memory_stall_cycles,
            "hw.hbm_bytes": report.counters.hbm_bytes,
        },
    }


def run_pass(workload: Workload, seed: int, mode: str = "plain",
             reference: bool = False,
             t_start: Optional[float] = None) -> Dict:
    """Serve ``workload`` once with the traffic of ``seed``.

    ``t_start`` is when the process started timing set-up (before the
    library imports); in-process callers omit it and time from here.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    t_start = time.perf_counter() if t_start is None else t_start
    from repro.api.errors import FrontendError
    tracer = metrics = None
    if mode == "obs":
        from repro.obs import MetricsRegistry, Tracer
        tracer, metrics = Tracer(), MetricsRegistry()
    target = workload.build(tracer=tracer, metrics=metrics)
    setup_s = time.perf_counter() - t_start

    calibration = calibration_samples()
    requests = workload.requests(seed)
    submitted: List[bool] = []
    ledger = Ledger()
    with ledger.installed() if mode == "ledger" else contextlib.nullcontext():
        t0 = time.perf_counter_ns()
        for request in requests:
            try:
                target.submit(request)
                submitted.append(True)
            except FrontendError:
                submitted.append(False)
        t1 = time.perf_counter_ns()
        target.run()
        t2 = time.perf_counter_ns()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration += calibration_samples()

    outcome = target.outcome()
    results = iter(outcome.results)
    # A request fails if it raised at submission, did not finish, or
    # decoded a different number of tokens than it asked for.
    done = [next(results) if sent else None for sent in submitted]
    done = [r if r is not None and r.n_generated == q.max_tokens else None
            for r, q in zip(done, requests)]
    succeeded = [r for r in done if r is not None]
    return {
        "mode": mode,
        "seed": seed,
        "setup_s": setup_s,
        "serve_s": (t2 - t1) / 1e9,
        "calibration_s": statistics.fmean(calibration),
        "rss_mb": rss_mb,
        "sent": len(requests),
        "failed": done.count(None),
        "generated": sum(r.n_generated for r in succeeded),
        "tokens": [r.generated_tokens if r is not None else None
                   for r in done],
        "sim": simulated(outcome, succeeded, target.llm),
        "mismatched": (reference_mismatches(target.llm, succeeded)
                       if reference else None),
        "ledger": (ledger_record(ledger, t2 - t0) if mode == "ledger"
                   else None),
    }


def ledger_record(ledger: Ledger, wall_ns: int) -> Dict:
    """Per-layer self seconds, calls and work of one checked ledger."""
    unattributed_ns = check(ledger, wall_ns)
    return {
        "self_s": {layer: ledger.self_ns[layer] / 1e9 for layer in LAYERS},
        "calls": {layer: ledger.calls[layer] for layer in LAYERS},
        "des_instructions": ledger.work["des"],
        "unattributed_s": unattributed_ns / 1e9,
        "wall_s": wall_ns / 1e9,
    }


def main(argv: List[str]) -> int:
    # Pinned before NumPy is first imported (the library loads it lazily):
    # unpinned, OpenBLAS threads fight over the cores and the host-time
    # spread widens.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec = json.loads(argv[1])
    record = run_pass(WORKLOADS[spec["workload"]], spec["seed"],
                      mode=spec["mode"], reference=spec["reference"],
                      t_start=T_START)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
