"""Tests for the simulated transport and the retrying service client."""

from __future__ import annotations

import pytest

from repro.service.client import RetryPolicy
from repro.service import ServiceClient, SimTransport, TransportError


def _echo(request):
    return {"ok": True, "echo": dict(request)}


class _Counting:
    def __init__(self):
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        return {"ok": True, "n": self.calls}


class TestSimTransport:
    def test_delivers_to_target(self):
        t = SimTransport(_echo, "s0")
        assert t.request({"route": "x"})["ok"]
        assert t.n_requests == 1

    def test_faults_are_deterministic_per_seed(self):
        def outcomes(seed):
            t = SimTransport(_echo, "s0", fault_rate=0.5, seed=seed)
            out = []
            for _ in range(40):
                try:
                    t.request({})
                    out.append(True)
                except TransportError:
                    out.append(False)
            return out

        a, b = outcomes(7), outcomes(7)
        assert a == b
        assert outcomes(8) != a  # a different seed faults differently
        assert not all(a) and any(a)  # rate 0.5 drops some, not all

    def test_scripted_faults_hit_exact_sequence_numbers(self):
        t = SimTransport(_echo, "s0", scripted_faults=[2, 3])
        assert t.request({})["ok"]
        with pytest.raises(TransportError):
            t.request({})
        with pytest.raises(TransportError):
            t.request({})
        assert t.request({})["ok"]

    def test_down_endpoint_always_fails(self):
        t = SimTransport(_echo, "s0")
        t.down = True
        with pytest.raises(TransportError):
            t.request({})
        t.down = False
        assert t.request({})["ok"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SimTransport(_echo, fault_rate=1.0)
        with pytest.raises(ValueError):
            SimTransport(_echo, latency_s=-1)


class TestServiceClient:
    def test_passthrough_without_faults(self):
        client = ServiceClient(SimTransport(_echo, "s0"))
        assert client.handle({"route": "x"})["ok"]
        assert client.n_retries == 0

    def test_retries_through_scripted_faults(self):
        target = _Counting()
        transport = SimTransport(target, "s0", scripted_faults=[1, 2])
        client = ServiceClient(
            transport, retry=RetryPolicy(max_retries=3, base_s=0.0), sleep=lambda s: None
        )
        response = client.handle({"route": "x"})
        assert response["ok"]
        assert client.n_retries == 2
        assert target.calls == 1  # dropped requests never reached it

    def test_exhausted_retries_surface_as_unavailable(self):
        transport = SimTransport(_echo, "s0")
        transport.down = True
        slept = []
        client = ServiceClient(
            transport,
            retry=RetryPolicy(max_retries=2, base_s=0.5, factor=2.0, cap_s=10.0),
            sleep=slept.append,
        )
        response = client.handle({"route": "x"})
        assert response == {
            "ok": False,
            "error": "unavailable",
            "message": "endpoint s0 is down",
            "attempts": 3,
        }
        assert slept == [0.5, 1.0]  # bounded exponential backoff

    def test_throttled_response_is_retried_with_retry_after(self):
        responses = iter(
            [
                {"ok": False, "error": "throttled", "retry_after": 0.25},
                {"ok": True},
            ]
        )

        class _Endpoint:
            def handle(self, request):
                return next(responses)

        slept = []
        client = ServiceClient(
            _Endpoint(),
            retry=RetryPolicy(max_retries=1, base_s=0.01, cap_s=1.0),
            sleep=slept.append,
        )
        assert client.handle({"route": "x"})["ok"]
        assert slept == [0.25]  # honored the server's hint

    def test_non_retryable_error_returned_verbatim(self):
        class _Endpoint:
            def handle(self, request):
                return {"ok": False, "error": "auth", "message": "bad key"}

        client = ServiceClient(_Endpoint(), sleep=lambda s: None)
        assert client.handle({})["error"] == "auth"
        assert client.n_retries == 0
