"""Host-time ledger: spans around the library's public entry points.

The benchmark times each layer from outside the program.  While a
:class:`Ledger` is installed, every entry point in :data:`ENTRY_POINTS`
is wrapped so each call records one span (layer, start, end, parent) in
integer nanoseconds.  A layer's self time is its spans' duration minus
the part covered by child spans, accumulated live as the calls unwind.

:func:`check` recomputes self time from the recorded spans and demands
that it equals the live accounts exactly, and that self time summed over
layers plus the time outside every span (``unattributed``) equals the
traced wall time.  Integer nanoseconds make both checks exact; a span
lost from the record breaks one of them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

__all__ = ["ENTRY_POINTS", "LAYERS", "Span", "Ledger", "LedgerError",
           "check"]

#: (layer, module, class, method) of every wrapped entry point.  The
#: memory model's per-transfer ``issue`` is deliberately absent: millions
#: of calls would swamp the measurement; the DES counters count it.
ENTRY_POINTS = (
    ("api.submit", "repro.api.completions", "CompletionService", "submit"),
    ("api.submit", "repro.cluster.engine", "ClusterEngine", "submit"),
    ("cluster", "repro.cluster.engine", "ClusterEngine", "run"),
    ("cluster", "repro.cluster.routing", "Router", "route"),
    ("serve.step", "repro.serve.engine", "ServingEngine", "step"),
    ("serve.scheduler", "repro.serve.scheduler", "Scheduler", "admit"),
    ("serve.scheduler", "repro.serve.scheduler", "Scheduler", "build_step"),
    ("backend", "repro.backend.local", "LocalBackend", "execute_step"),
    ("accel.forward", "repro.accel.accelerator", "SpeedLLMAccelerator",
     "execute_slots"),
    ("compile", "repro.compile.pipeline", "StepCompiler", "compile_step"),
    ("des", "repro.accel.pipeline", "PipelineExecutor", "run"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


#: Work counted from a layer's return value, per call: the simulated
#: instructions of each DES run (its StepResult counters).
WORK = {"des": lambda result: result.counters.instructions}


class LedgerError(AssertionError):
    """The recorded spans do not reconcile with the live accounts."""


class Span(NamedTuple):
    id: int
    layer: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a root span


class Ledger:
    """Live per-layer self time, call counts and the span record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        # Open spans: [id, nanoseconds covered by finished children].
        self._open: List[List[int]] = []
        self._next_id = 0

    def wrap(self, layer: str, fn: Callable,
             work: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one span of ``layer`` per call."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            frame = [self._next_id, 0]
            self._next_id += 1
            self._open.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._open.pop()
                duration = end - start
                self.self_ns[layer] += duration - frame[1]
                self.calls[layer] += 1
                if parent is not None:
                    parent[1] += duration
                self.spans.append(Span(
                    frame[0], layer, start, end,
                    parent[0] if parent is not None else -1))
            if work is not None:
                self.work[layer] += work(result)
            return result
        return timed

    @contextlib.contextmanager
    def installed(self) -> Iterator["Ledger"]:
        """Wrap every entry point while the block runs, then restore."""
        originals = []
        try:
            for layer, module, cls_name, method in ENTRY_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[method]
                originals.append((cls, method, original))
                setattr(cls, method, self.wrap(layer, original,
                                               WORK.get(layer)))
            yield self
        finally:
            for cls, method, original in reversed(originals):
                setattr(cls, method, original)


def check(ledger: Ledger, wall_ns: int) -> int:
    """Reconcile the ledger with ``wall_ns``; returns unattributed ns.

    Raises :class:`LedgerError` when a span's parent is missing or does
    not enclose it, when self time recomputed from the spans differs
    from the live accounts, or when self time plus unattributed time is
    not exactly the wall time.
    """
    by_id: Dict[int, Span] = {span.id: span for span in ledger.spans}
    children_ns: Counter = Counter()
    root_ns = 0
    for span in ledger.spans:
        if span.parent < 0:
            root_ns += span.end_ns - span.start_ns
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            raise LedgerError(f"span {span.id} ({span.layer}) lost its "
                              f"parent {span.parent}")
        if not parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns:
            raise LedgerError(f"span {span.id} ({span.layer}) is not "
                              f"nested in its parent {span.parent}")
        children_ns[span.parent] += span.end_ns - span.start_ns
    recomputed: Counter = Counter()
    for span in ledger.spans:
        recomputed[span.layer] += (span.end_ns - span.start_ns
                                   - children_ns[span.id])
    nonzero = lambda counts: {k: v for k, v in counts.items() if v != 0}
    if nonzero(recomputed) != nonzero(ledger.self_ns):
        raise LedgerError(f"self time from spans {dict(recomputed)} != "
                          f"live accounts {dict(ledger.self_ns)}")
    unattributed = wall_ns - root_ns
    if unattributed < 0 or sum(ledger.self_ns.values()) + unattributed != wall_ns:
        raise LedgerError(
            f"self time {sum(ledger.self_ns.values())} ns + unattributed "
            f"{unattributed} ns != wall {wall_ns} ns")
    return unattributed
