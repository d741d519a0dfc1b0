"""Unit tests for the §4.1 user-level manager designs."""

import pytest

from repro import StableGovernor, UserCreditManager, UserFullManager
from repro.errors import ConfigurationError
from repro.workloads import ConstantLoad

from ..conftest import make_host


def test_user_credit_manager_rescales_caps_under_autonomous_governor():
    host = make_host(scheduler="credit", governor=StableGovernor(dwell=0.0))
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    manager = UserCreditManager(host, reaction_latency_s=0.0)
    host.start()
    manager.start()
    host.run(until=30.0)
    # Governor settles at 1600; manager must have compensated the cap.
    assert host.processor.frequency_mhz == 1600
    assert host.scheduler.cap_of(vm) == pytest.approx(20.0 / (1600 / 2667), abs=0.1)


def test_user_credit_manager_restores_absolute_capacity():
    host = make_host(scheduler="credit", governor=StableGovernor(dwell=0.0))
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    manager = UserCreditManager(host)
    host.start()
    manager.start()
    host.run(until=40.0)
    assert vm.work_done / 40.0 == pytest.approx(0.20, abs=0.015)


def test_user_credit_manager_reaction_latency_defers_caps():
    host = make_host(scheduler="credit", governor="userspace")
    vm = host.create_domain("vm", credit=20)
    manager = UserCreditManager(host, poll_period=1.0, reaction_latency_s=0.5)
    host.start()
    manager.start()
    host.cpufreq.set_speed(1600)
    host.run(until=1.2)  # poll at 1.0, apply at 1.5
    assert host.scheduler.cap_of(vm) == pytest.approx(20.0)
    host.run(until=1.6)
    assert host.scheduler.cap_of(vm) == pytest.approx(20.0 / (1600 / 2667), abs=0.1)


def test_user_credit_manager_stop():
    host = make_host(scheduler="credit", governor="userspace")
    host.create_domain("vm", credit=20)
    manager = UserCreditManager(host, reaction_latency_s=0.0)
    host.start()
    manager.start()
    host.run(until=2.0)
    applied = manager.applied_caps
    manager.stop()
    host.run(until=5.0)
    assert manager.applied_caps == applied


def test_user_full_manager_requires_userspace():
    host = make_host(scheduler="credit", governor="performance")
    with pytest.raises(ConfigurationError):
        UserFullManager(host)


def test_user_full_manager_controls_frequency_and_caps():
    host = make_host(scheduler="credit", governor="userspace")
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    manager = UserFullManager(host)
    host.start()
    manager.start()
    host.run(until=30.0)
    assert host.processor.frequency_mhz == 1600
    assert host.scheduler.cap_of(vm) == pytest.approx(20.0 / (1600 / 2667), abs=0.1)
    assert manager.decisions > 0


def test_user_full_manager_restores_absolute_capacity():
    host = make_host(scheduler="credit", governor="userspace")
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    manager = UserFullManager(host)
    host.start()
    manager.start()
    host.run(until=40.0)
    assert vm.work_done / 40.0 == pytest.approx(0.20, abs=0.015)


def test_user_full_manager_scales_up_under_load():
    host = make_host(scheduler="credit", governor="userspace")
    a = host.create_domain("a", credit=45)
    b = host.create_domain("b", credit=45)
    a.attach_workload(ConstantLoad(100, injection_period=0.01))
    b.attach_workload(ConstantLoad(100, injection_period=0.01))
    manager = UserFullManager(host)
    host.start()
    manager.start()
    host.run(until=40.0)
    assert host.processor.frequency_mhz == 2667


def test_user_full_manager_averaged_load():
    host = make_host(scheduler="credit", governor="userspace")
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    manager = UserFullManager(host)
    host.start()
    manager.start()
    host.run(until=20.0)
    assert manager.averaged_absolute_load == pytest.approx(20.0, abs=2.0)


def test_user_full_manager_invalid_window():
    host = make_host(scheduler="credit", governor="userspace")
    with pytest.raises(ConfigurationError):
        UserFullManager(host, window=0)


def test_managers_apply_dom0_policy_flag():
    host = make_host(scheduler="credit", governor="userspace")
    dom0 = host.create_domain("Dom0", credit=10, dom0=True)
    manager = UserCreditManager(host, reaction_latency_s=0.0, update_dom0=False)
    host.start()
    manager.start()
    host.cpufreq.set_speed(1600)
    host.run(until=2.0)
    assert host.scheduler.cap_of(dom0) == pytest.approx(10.0)


def test_user_full_manager_leaves_dom0_cap_when_disabled():
    host = make_host(scheduler="credit", governor="userspace")
    dom0 = host.create_domain("Dom0", credit=10, dom0=True)
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    manager = UserFullManager(host, reaction_latency_s=0.0, update_dom0=False)
    host.start()
    manager.start()
    host.run(until=20.0)
    assert host.processor.frequency_mhz == 1600
    assert host.scheduler.cap_of(vm) == pytest.approx(20.0 / (1600 / 2667), abs=0.1)
    assert host.scheduler.cap_of(dom0) == 10.0
