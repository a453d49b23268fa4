"""Tests for the sticky two-lane request router."""

import pytest

from repro.serve import Router
from repro.serve.router import Route, routing_key


class TestRoutingKey:
    def test_spec_key_is_order_independent(self):
        a = routing_key({"spec": {"name": "x", "seed": 1}})
        b = routing_key({"spec": {"seed": 1, "name": "x"}})
        assert a == b
        assert a.startswith("spec:")

    def test_different_specs_different_keys(self):
        a = routing_key({"spec": {"name": "x", "seed": 1}})
        b = routing_key({"spec": {"name": "x", "seed": 2}})
        assert a != b

    def test_design_key_includes_suite(self):
        key = routing_key({"design": "superblue5", "suite": "superblue"})
        assert key == "design:superblue/superblue5"
        other = routing_key({"design": "superblue5", "suite": "other"})
        assert key != other

    def test_design_key_uses_default_suite(self):
        key = routing_key({"design": "d", "_default_suite": "superblue"})
        assert key == "design:superblue/d"

    def test_spec_wins_over_design(self):
        # Same precedence as DesignResolver.resolve.
        key = routing_key({"spec": {"name": "x"}, "design": "d"})
        assert key.startswith("spec:")

    def test_missing_reference_raises(self):
        with pytest.raises(ValueError, match="needs 'design'"):
            routing_key({})
        with pytest.raises(ValueError, match="needs 'design'"):
            routing_key({"design": ""})

    def test_non_object_spec_raises(self):
        with pytest.raises(ValueError, match="must be an object"):
            routing_key({"spec": [1, 2]})


class TestRouter:
    def test_first_seen_is_cold_round_robin(self):
        router = Router(num_workers=3)
        routes = [router.route({"design": f"d{i}"}) for i in range(6)]
        assert [r.lane for r in routes] == ["cold"] * 6
        assert [r.worker for r in routes] == [0, 1, 2, 0, 1, 2]

    def test_repeat_is_warm_and_sticky(self):
        router = Router(num_workers=4)
        first = router.route({"design": "a"})
        router.route({"design": "b"})  # advances the cursor
        again = router.route({"design": "a"})
        assert first.lane == "cold" and again.lane == "warm"
        assert again.worker == first.worker
        assert again.key == first.key

    def test_forget_makes_keys_cold_again(self):
        router = Router(num_workers=2)
        router.route({"design": "a"})
        assert router.route({"design": "a"}).lane == "warm"
        router.forget()
        assert router.route({"design": "a"}).lane == "cold"

    def test_stats_counters(self):
        router = Router(num_workers=2)
        router.route({"design": "a"})
        router.route({"design": "a"})
        router.route({"design": "b"})
        stats = router.stats()
        assert stats == {"workers": 2, "known_keys": 2,
                         "warm_routed": 1, "cold_routed": 2}

    def test_invalid_payload_propagates(self):
        router = Router(num_workers=1)
        with pytest.raises(ValueError):
            router.route({})

    def test_route_is_frozen(self):
        route = Router(num_workers=1).route({"design": "a"})
        assert isinstance(route, Route)
        with pytest.raises(AttributeError):
            route.worker = 5

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Router(num_workers=0)
