"""The benchmark's three workloads: inputs, deployment and SLO limits.

Every workload is built from :mod:`repro.workloads` suites with the
benchmark seed, so one seed always gives the same prompts and arrival
schedule.  Requests use greedy sampling with ``ignore_eos`` so every
request decodes exactly its budget and can be checked token for token
against the NumPy reference model.

``repro`` is imported lazily (inside the functions) so the setup timer
in :mod:`perfbench.worker` covers the library imports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Request", "Outcome", "Workload", "WORKLOADS"]

#: Seed of the open-loop arrival schedule (see Workload.requests).
ARRIVAL_SEED = 0


@dataclass(frozen=True)
class Request:
    """One request the benchmark sends."""

    prompt: str
    max_tokens: int
    priority: int = 0
    #: Simulated arrival time in seconds (0.0 = offline, all at once).
    arrival_s: float = 0.0


@dataclass
class Outcome:
    """What a drained run left behind, in submission order."""

    report: object  # pooled ServeReport
    #: Per-request RequestMetrics, None where the request did not finish.
    results: List[Optional[object]]
    #: Each replica's own ServeReport (one entry for a single engine).
    replicas: List[object]
    routing: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    """A workload: its traffic, its deployment and its SLO limits."""

    name: str
    why: str
    #: "prefix" (fixed-length story prefixes, all at t=0) or "tenants".
    suite: str
    model: str
    n_requests: int
    max_tokens: int
    engine: Tuple[Tuple[str, object], ...]
    #: Per-request SLO: first token within ``ttft_limit_ms`` and no
    #: inter-token gap above ``itl_limit_ms`` (simulated time).
    ttft_limit_ms: float
    itl_limit_ms: float
    prompt_words: int = 24
    #: tenants-slo only: words of each tenant's shared chat preamble,
    #: long-prompt documents among the requests, their decode budget,
    #: the replica count and the Poisson rate.
    chat_prefix_words: int = 0
    n_documents: int = 0
    document_tokens: int = 0
    n_replicas: int = 0
    arrival_rate: float = 0.0

    # ------------------------------------------------------------------
    def requests(self, seed: int) -> List[Request]:
        """The traffic this workload sends for ``seed``."""
        from repro.workloads import (long_context_suite,
                                     poisson_arrival_times,
                                     shared_prefix_suite)
        if self.suite == "prefix":
            # Every prompt is the first ``prompt_words`` words of a story:
            # the seed varies the text, not the traffic's shape.
            suite = long_context_suite(n_prompts=self.n_requests,
                                       prompt_words=self.prompt_words,
                                       max_new_tokens=self.max_tokens,
                                       seed=seed)
            return [Request(w.prompt, w.max_new_tokens) for w in suite]
        chats = [Request(w.prompt, w.max_new_tokens, priority=0)
                 for w in shared_prefix_suite(
                     n_prompts=self.n_requests - self.n_documents,
                     system_words=self.chat_prefix_words, n_groups=4,
                     max_new_tokens=self.max_tokens, seed=seed)]
        documents = [Request(w.prompt, w.max_new_tokens, priority=1)
                     for w in long_context_suite(
                         n_prompts=self.n_documents,
                         prompt_words=self.prompt_words,
                         max_new_tokens=self.document_tokens,
                         seed=seed + 1)]
        # Documents are spread evenly through the chat stream so their
        # prefills land while chats are mid-decode.
        traffic: List[Request] = []
        every = max(1, len(chats) // max(1, len(documents)))
        for i, chat in enumerate(chats):
            traffic.append(chat)
            if (i + 1) % every == 0 and documents:
                traffic.append(documents.pop(0))
        traffic.extend(documents)
        # One fixed Poisson draw: in an open loop the arrival process, not
        # the server, sets the makespan, so a per-seed draw would swamp
        # every simulated figure with arrival noise.  The seed varies the
        # prompts the schedule carries.
        arrivals = poisson_arrival_times(len(traffic), self.arrival_rate,
                                         seed=ARRIVAL_SEED)
        return [dataclasses.replace(r, arrival_s=a)
                for r, a in zip(traffic, arrivals)]

    def build(self, tracer=None, metrics=None):
        """Build the model and the engine or cluster (the set-up phase)."""
        from repro.api import EngineConfig
        config = EngineConfig(model=self.model, **dict(self.engine))
        if self.n_replicas:
            from repro.cluster import ClusterConfig
            cluster = ClusterConfig(engine=config, n_replicas=self.n_replicas,
                                    route="affinity")
            return ClusterTarget(cluster.build_cluster(tracer=tracer,
                                                       metrics=metrics))
        return EngineTarget(config.build_engine(tracer=tracer,
                                                metrics=metrics))

    def scaled(self, n_requests: int, max_tokens: int) -> "Workload":
        """A smaller copy of this workload (the tests' smoke size)."""
        return dataclasses.replace(
            self, n_requests=n_requests, max_tokens=max_tokens,
            n_documents=self.n_documents * n_requests // self.n_requests,
            document_tokens=min(self.document_tokens, max_tokens))


class EngineTarget:
    """One serving engine behind the completions API."""

    def __init__(self, engine) -> None:
        from repro.api import CompletionService
        self.engine = engine
        self.llm = engine.llm
        self.service = CompletionService(engine)
        self.pending: list = []

    def submit(self, request: Request) -> None:
        from repro.api import CompletionRequest
        self.pending.append(self.service.submit(CompletionRequest(
            prompt=request.prompt, max_tokens=request.max_tokens,
            ignore_eos=True, priority=request.priority)))

    def run(self) -> None:
        self.engine.run()

    def outcome(self) -> Outcome:
        results = [self.engine.result_for(p.handle.request)
                   if p.handle.request.is_finished else None
                   for p in self.pending]
        report = self.engine.report()
        return Outcome(report=report, results=results, replicas=[report],
                       routing={})


class ClusterTarget:
    """A replica fleet behind its router."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.llm = cluster.llm

    def submit(self, request: Request) -> None:
        from repro.api import SamplingParams
        self.cluster.submit(
            request.prompt,
            SamplingParams(max_tokens=request.max_tokens, ignore_eos=True,
                           priority=request.priority),
            arrival_time=request.arrival_s)

    def run(self) -> None:
        self.cluster.run()

    def outcome(self) -> Outcome:
        report = self.cluster.report()
        # run() returns only once every request has finished, so the
        # results of a drained cluster are complete.
        return Outcome(
            report=report.pooled, results=self.cluster.results(),
            replicas=[summary.report for summary in report.replicas],
            routing=report.routing)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="decode-exact",
        why=("paper traffic: stories15M, 4 prompts at t=0, exact compile "
             "shapes, so most steps miss the compile cache and the cycle "
             "DES dominates host time"),
        suite="prefix", model="stories15M", n_requests=4, max_tokens=16,
        prompt_words=12,
        engine=(("paged", True), ("max_batch_tokens", 16),
                ("max_running", 8), ("ctx_bucket", 1)),
        ttft_limit_ms=100.0, itl_limit_ms=100.0,
    ),
    Workload(
        name="decode-steady",
        why=("long-window steady decode: stories15M, 2 long prompts, "
             "ctx_bucket 128, so the compile cache hits and the NumPy "
             "forward dominates host time"),
        suite="prefix", model="stories15M", n_requests=2, max_tokens=128,
        engine=(("ctx_bucket", 128),),
        ttft_limit_ms=100.0, itl_limit_ms=100.0,
    ),
    Workload(
        name="tenants-slo",
        why=("open loop: test-small, 2 replicas, affinity routing, 4 "
             "shared-prefix tenants + long documents, Poisson arrivals, "
             "tight KV; SLO ttft<=0.1ms and every itl<=0.06ms"),
        suite="tenants", model="test-small", n_requests=60, max_tokens=12,
        engine=(("paged", True), ("chunked_prefill", True),
                ("policy", "priority"), ("ctx_bucket", 16),
                ("kv_budget_bytes", 96 * 1024)),
        ttft_limit_ms=0.1, itl_limit_ms=0.06,
        prompt_words=28, chat_prefix_words=16, n_documents=12,
        document_tokens=8,
        n_replicas=2, arrival_rate=4000.0,
    ),
)}
