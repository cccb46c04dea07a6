"""Tests for the serving request model (repro.serve.request)."""

from __future__ import annotations

import pytest

from repro.api import SamplingParams
from repro.serve.request import Request, RequestQueue, RequestState


def make_request(request_id="r0", n_prompt=4, max_new_tokens=8, **kwargs):
    return Request(
        request_id=request_id,
        prompt_tokens=list(range(1, n_prompt + 1)),
        sampling=SamplingParams(max_tokens=max_new_tokens),
        **kwargs,
    )


class TestRequest:
    def test_starts_queued_with_no_progress(self):
        request = make_request()
        assert request.state is RequestState.QUEUED
        assert request.next_pos == 0
        assert request.n_generated == 0
        assert request.cache is None

    def test_rejects_empty_prompt(self):
        with pytest.raises(ValueError):
            Request(request_id="r", prompt_tokens=[], sampling=SamplingParams(max_tokens=4))

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            make_request(max_new_tokens=0)

    def test_budget_and_eos_policy_derive_from_sampling(self):
        request = Request(request_id="r", prompt_tokens=[1, 2],
                          sampling=SamplingParams(max_tokens=5, ignore_eos=True))
        assert request.max_new_tokens == 5
        assert request.stop_at_eos is False
        assert make_request().stop_at_eos is True
        with pytest.raises(AttributeError):
            request.max_new_tokens = 7
        with pytest.raises(AttributeError):
            request.stop_at_eos = True

    def test_total_positions_caps_at_context_window(self):
        request = make_request(n_prompt=10, max_new_tokens=100)
        assert request.total_positions(max_seq_len=32) == 32
        assert request.total_positions(max_seq_len=1024) == 110

    def test_prefill_remaining_tracks_progress(self):
        request = make_request(n_prompt=5)
        assert request.prefill_remaining == 0  # not admitted yet
        request.state = RequestState.PREFILL
        assert request.prefill_remaining == 5
        request.next_pos = 3
        assert request.prefill_remaining == 2

    def test_timing_properties(self):
        request = make_request(arrival_time=1.0)
        assert request.queue_wait is None
        assert request.latency is None
        request.admitted_time = 1.5
        request.first_token_time = 2.0
        request.finish_time = 3.0
        assert request.queue_wait == pytest.approx(0.5)
        assert request.time_to_first_token == pytest.approx(1.0)
        assert request.latency == pytest.approx(2.0)


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue()
        first, second = make_request("a"), make_request("b")
        queue.push(first)
        queue.push(second)
        assert len(queue) == 2
        assert queue.peek() is first
        assert queue.pop() is first
        assert queue.pop() is second
        assert not queue

    def test_rejects_non_queued_requests(self):
        queue = RequestQueue()
        request = make_request()
        request.state = RequestState.DECODE
        with pytest.raises(ValueError):
            queue.push(request)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            RequestQueue().pop()
