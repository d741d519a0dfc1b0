"""Unit tests for the Web-app workload."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    exact_rate,
    LoadProfile,
    thrashing_rate,
    WebApp,
)

from ..conftest import make_host


def test_exact_rate_formula():
    # 20% credit at 5ms per request -> 40 req/s.
    assert exact_rate(20.0, 0.005) == pytest.approx(40.0)


def test_thrashing_rate_formula():
    assert thrashing_rate(20.0, 0.005, factor=5.0) == pytest.approx(200.0)


def test_thrashing_factor_must_exceed_one():
    with pytest.raises(ConfigurationError):
        thrashing_rate(20.0, 0.005, factor=1.0)


def test_exact_load_produces_credit_level_demand():
    host = make_host()
    vm = host.create_domain("vm", credit=0)  # uncapped: serve everything
    app = WebApp(LoadProfile.constant(exact_rate(20, 0.005)))
    vm.attach_workload(app)
    host.run(until=20.0)
    assert vm.work_done / 20.0 == pytest.approx(0.20, abs=0.01)
    assert app.drop_fraction < 0.01


def test_bounded_queue_sheds_overload():
    host = make_host()
    vm = host.create_domain("vm", credit=20)  # capped at 20%
    app = WebApp(LoadProfile.constant(thrashing_rate(20, 0.005)), max_backlog=1.0)
    vm.attach_workload(app)
    host.run(until=20.0)
    assert app.backlog_work <= 1.0 + 1e-6
    assert app.dropped_work > 0.0
    # Served exactly the cap's worth.
    assert vm.work_done / 20.0 == pytest.approx(0.20, abs=0.01)


def test_backlog_drains_after_active_phase():
    host = make_host()
    vm = host.create_domain("vm", credit=20)
    app = WebApp(LoadProfile.three_phase(0.0, 10.0, thrashing_rate(20, 0.005)), max_backlog=1.0)
    vm.attach_workload(app)
    host.run(until=10.0)
    assert app.backlog_work > 0.5
    host.run(until=18.0)
    assert app.backlog_work == 0.0


def test_requests_completed_counts_served_work():
    host = make_host()
    vm = host.create_domain("vm", credit=0)
    app = WebApp(LoadProfile.constant(10.0), request_cost=0.01)
    vm.attach_workload(app)
    host.run(until=10.0)
    assert app.requests_completed == pytest.approx(100.0, rel=0.02)
    assert app.requests_sent == pytest.approx(100.0, rel=0.02)


def test_offered_accepted_dropped_invariant():
    host = make_host()
    vm = host.create_domain("vm", credit=10)
    app = WebApp(LoadProfile.constant(thrashing_rate(10, 0.005)), max_backlog=0.5)
    vm.attach_workload(app)
    host.run(until=10.0)
    assert app.offered_work == pytest.approx(app.accepted_work + app.dropped_work)


def test_poisson_mode_uses_host_stream():
    host = make_host(seed=3)
    vm = host.create_domain("vm", credit=0)
    app = WebApp(LoadProfile.constant(40.0), poisson=True)
    vm.attach_workload(app)
    host.run(until=20.0)
    assert app.requests_sent == pytest.approx(800.0, rel=0.15)


def test_drop_fraction_zero_when_no_offers():
    host = make_host()
    vm = host.create_domain("vm", credit=0)
    app = WebApp(LoadProfile.three_phase(50.0, 60.0, 10.0))
    vm.attach_workload(app)
    host.run(until=10.0)
    assert app.drop_fraction == 0.0


def test_latency_polls_ride_the_injector_until_it_retires():
    host = make_host()
    vm = host.create_domain("vm", credit=20)
    app = WebApp(LoadProfile.three_phase(1.0, 5.0, thrashing_rate(20, 0.005)), max_backlog=0.5)
    vm.attach_workload(app)
    host.run(until=4.0)
    # While the injector runs, its own fires poll: no timer event yet.
    assert app.latency.completed_requests > 0
    assert app._progress_timer.fire_count == 0
    host.run(until=10.0)
    # After retirement the timer drains the backlog's responses, then stops.
    assert app._progress_timer.fire_count > 0
    assert not app._progress_timer.running
    assert app.latency.drained
    assert app.latency.completed_requests == pytest.approx(app.accepted_work / 0.005)
