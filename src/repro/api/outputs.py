"""Streaming output types of the frontend API.

:class:`RequestOutput` is one increment of a request's generation: the
tokens sampled since the previous increment, the detokenized text delta,
and — once the request retires — its finish reason.  Concatenating the
``text_delta`` of every output of a request reproduces exactly the final
visible text (stop-sequence truncation included), which the test suite
pins.

:class:`RequestHandle` is what :meth:`repro.serve.ServingEngine.submit`
returns: a live view of one request inside the continuous batch.  It is

* an **iterator of outputs** — ``for out in handle`` steps the engine
  until the request produces new tokens, yields the increment, and stops
  after the final (``finished=True``) output;
* a **blocking result** — :meth:`RequestHandle.result` drains the engine
  until the request retires and returns its
  :class:`~repro.serve.metrics.RequestMetrics`.

The scheduler-owned :class:`~repro.serve.request.Request` behind the
handle is :attr:`RequestHandle.request`.

Iterating a handle advances the *whole* engine (that is what continuous
batching means); other in-flight requests make progress during the loop
and their handles observe it on their next poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serve.engine import ServingEngine
    from ..serve.metrics import RequestMetrics
    from ..serve.request import Request

__all__ = ["RequestOutput", "RequestHandle"]


@dataclass(frozen=True)
class RequestOutput:
    """One streamed increment of a request's generation."""

    request_id: str
    #: Token ids sampled since the previous output (raw stream — stop
    #: sequences truncate *text*, never tokens).
    new_token_ids: Tuple[int, ...]
    #: Detokenized text newly visible since the previous output.
    text_delta: str
    #: Every token generated so far.
    token_ids: Tuple[int, ...]
    #: Visible text so far (stop-truncated).
    text: str
    #: True exactly once, on the stream's final output.
    finished: bool
    #: ``"stop"`` (EOS or stop sequence), ``"length"`` (decode budget or
    #: context window), ``"cancelled"``; None while in flight.
    finish_reason: Optional[str] = None
    #: Per new token: top-k token-id -> logprob maps (when requested).
    logprobs: Optional[Tuple[Dict[int, float], ...]] = None


def _stop_holdback(text: str, stops: Tuple[str, ...]) -> int:
    """Chars to withhold: the longest suffix that could begin a stop match.

    While a request is still decoding, text that is a proper prefix of a
    stop sequence must not be streamed out — the very next token might
    complete the match, and the completed match is truncated from the
    visible text.  Holding the longest such suffix back keeps the
    concatenated deltas byte-identical to the final text.
    """
    held = 0
    for stop in stops:
        limit = min(len(stop) - 1, len(text))
        for k in range(limit, held, -1):
            if stop.startswith(text[len(text) - k:]):
                held = k
                break
    return held


class RequestHandle:
    """Live handle of one submitted request (see module docstring)."""

    def __init__(self, engine: "ServingEngine", request: "Request") -> None:
        self._engine = engine
        self._request = request
        self._emitted_tokens = 0
        self._emitted_text = ""
        self._emitted_final = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RequestHandle({self._request.request_id!r}, "
                f"state={self._request.state.value})")

    # -- introspection --------------------------------------------------
    @property
    def request(self) -> "Request":
        """The underlying scheduler-owned request object."""
        return self._request

    @property
    def request_id(self) -> str:
        return self._request.request_id

    @property
    def engine_clock(self) -> float:
        """The engine's simulated clock (seconds)."""
        return self._engine.clock

    @property
    def finished(self) -> bool:
        """True once the request retired (finished or cancelled)."""
        return self._request.is_finished or self._request.is_cancelled

    @property
    def token_ids(self) -> Tuple[int, ...]:
        """Every token generated so far."""
        return tuple(self._request.generated_tokens)

    @property
    def text(self) -> str:
        """Visible (stop-truncated) text generated so far."""
        return self._engine.visible_text(self._request)

    # -- streaming ------------------------------------------------------
    def poll(self) -> Optional[RequestOutput]:
        """The increment since the last poll, or None when nothing is new.

        Never steps the engine — safe to call from async drivers that
        advance the batch elsewhere.  The final increment (with
        ``finished=True`` and a ``finish_reason``) is emitted exactly
        once, even if it carries no new tokens.
        """
        request = self._request
        finished = self.finished
        n = request.n_generated
        if finished:
            if self._emitted_final:
                return None
        elif n == self._emitted_tokens:
            return None
        text = self._engine.visible_text(request)
        stops = request.sampling.stop
        if not finished and stops:
            held = _stop_holdback(text, stops)
            if held:
                text = text[:len(text) - held]
        new_tokens = tuple(request.generated_tokens[self._emitted_tokens:])
        logprobs = None
        if request.logprobs is not None:
            logprobs = tuple(request.logprobs[self._emitted_tokens:n])
        output = RequestOutput(
            request_id=request.request_id,
            new_token_ids=new_tokens,
            text_delta=text[len(self._emitted_text):],
            token_ids=tuple(request.generated_tokens),
            text=text,
            finished=finished,
            finish_reason=request.finish_reason if finished else None,
            logprobs=logprobs,
        )
        self._emitted_tokens = n
        self._emitted_text = text
        if finished:
            self._emitted_final = True
        return output

    def outputs(self) -> Iterator[RequestOutput]:
        """Iterate incremental outputs, stepping the engine as needed."""
        while True:
            output = self.poll()
            if output is not None:
                yield output
                if output.finished:
                    return
                continue
            if not self._engine.scheduler.has_work:
                # Nothing can ever advance this request again.
                raise RuntimeError(
                    f"request {self._request.request_id!r} cannot make "
                    "progress: the engine has no work left"
                )
            self._engine.step()

    def __iter__(self) -> Iterator[RequestOutput]:
        return self.outputs()

    # -- blocking -------------------------------------------------------
    def result(self) -> "RequestMetrics":
        """Drain the engine until this request finishes; return metrics."""
        for output in self.outputs():
            pass
        if self._request.is_cancelled:
            raise RuntimeError(
                f"request {self._request.request_id!r} was cancelled")
        return self._engine.result_for(self._request)

    def cancel(self) -> bool:
        """Abort the request (see :meth:`ServingEngine.cancel`)."""
        return self._engine.cancel(self._request)
