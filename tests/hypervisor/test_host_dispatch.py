"""Unit tests for the host dispatch loop."""

import pytest

from repro import Host, catalog
from repro.errors import ConfigurationError
from repro.workloads import ConstantLoad, PiApp

from ..conftest import make_host


def test_single_vcpu_gets_full_cpu():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    app = PiApp(1.0)
    vm.attach_workload(app)
    host.run(until=2.0)
    assert app.done
    assert app.execution_time == pytest.approx(1.0, rel=0.01)


def test_work_scales_with_frequency():
    host = make_host(governor="userspace")
    vm = host.create_domain("vm", credit=100)
    app = PiApp(1.0)
    vm.attach_workload(app)
    host.start()
    host.cpufreq.set_speed(1600)  # ratio 0.6
    host.run(until=3.0)
    assert app.execution_time == pytest.approx(1.0 / (1600 / 2667), rel=0.01)


def test_idle_host_accounts_idle_energy():
    host = make_host()
    host.create_domain("vm", credit=100)
    host.run(until=10.0)
    assert host.processor.busy_seconds == 0.0
    assert host.processor.elapsed_seconds == pytest.approx(10.0)
    assert host.processor.energy_joules > 0.0


def test_busy_seconds_match_work():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    vm.attach_workload(PiApp(2.0))
    host.run(until=10.0)
    assert host.processor.busy_seconds == pytest.approx(2.0, rel=0.01)


def test_frequency_change_mid_slice_preserves_work_accounting():
    host = make_host(governor="userspace")
    vm = host.create_domain("vm", credit=100)
    app = PiApp(1.0)
    vm.attach_workload(app)
    host.start()
    host.run(until=0.5)  # half the work done at full speed
    host.cpufreq.set_speed(1600)
    host.run(until=3.0)
    # Remaining 0.5 abs-seconds at capacity 0.6 takes 0.8333 wall seconds.
    assert app.execution_time == pytest.approx(0.5 + 0.5 / (1600 / 2667), rel=0.01)


def test_two_domains_share_by_weight_when_uncapped():
    host = make_host()
    a = host.create_domain("a", credit=0, weight=100)
    b = host.create_domain("b", credit=0, weight=300)
    a.attach_workload(ConstantLoad(100, injection_period=0.01))
    b.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.run(until=10.0)
    share_a = a.cpu_seconds / 10.0
    share_b = b.cpu_seconds / 10.0
    assert share_b / share_a == pytest.approx(3.0, rel=0.1)


def test_cap_limits_consumption():
    host = make_host()
    vm = host.create_domain("vm", credit=25)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.run(until=10.0)
    assert vm.cpu_seconds / 10.0 == pytest.approx(0.25, abs=0.01)


def test_sync_accounting_mid_slice():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    vm.attach_workload(PiApp(5.0))
    host.start()
    host.engine.run_until(1.0)
    # The exact read sees the in-flight slice without billing it.
    assert host.cpu_seconds("vm") == pytest.approx(1.0, abs=1e-9)
    exact = host.cpu_seconds("vm")
    host.sync_accounting()
    assert vm.cpu_seconds == exact


def test_run_auto_starts():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    app = PiApp(0.5)
    vm.attach_workload(app)
    host.run(until=1.0)  # no explicit start()
    assert app.done


def test_double_start_rejected():
    host = make_host()
    host.start()
    with pytest.raises(ConfigurationError):
        host.start()


def test_dom0_preempts_guest():
    host = make_host()
    dom0 = host.create_domain("Dom0", credit=10, dom0=True)
    guest = host.create_domain("guest", credit=0)
    guest.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.start()
    host.run(until=1.005)
    before = host.preemptions
    dom0.add_work(0.001)  # wakes mid-slice; higher class must preempt
    assert host.preemptions == before + 1


def test_kick_dispatches_when_idle():
    host = make_host()
    vm = host.create_domain("vm", credit=50)
    host.start()
    host.run(until=1.0)
    # Queue work through the vcpu directly (no wake notification), then kick.
    vm.vcpu.add_work(0.1)
    vm.vcpu.mark_runnable()
    host.scheduler.wake(vm.vcpu)
    host.kick()
    host.run(until=2.0)
    assert vm.work_done > 0.0


def test_preemptions_counted():
    host = make_host(scheduler="credit")
    a = host.create_domain("a", credit=50)
    b = host.create_domain("b", credit=50)
    a.attach_workload(ConstantLoad(50, injection_period=0.01))
    b.attach_workload(ConstantLoad(50, injection_period=0.01))
    host.run(until=5.0)
    assert host.preemptions > 0


def test_host_on_different_processor():
    host = make_host(processor=catalog.CORE_I7_3770, governor="userspace")
    vm = host.create_domain("vm", credit=100)
    app = PiApp(1.0)
    vm.attach_workload(app)
    host.start()
    host.cpufreq.set_speed(1600)  # ratio 0.4706, cf 0.86206
    host.run(until=5.0)
    expected = 1.0 / (1600 / 3400 * 0.86206)
    assert app.execution_time == pytest.approx(expected, rel=0.01)


def test_string_and_instance_construction():
    from repro import CreditScheduler, PerformanceGovernor

    host = Host(scheduler=CreditScheduler(), governor=PerformanceGovernor())
    assert host.scheduler.name == "credit"
    host2 = Host(scheduler="sedf", governor="stable")
    assert host2.scheduler.name == "sedf"
    assert host2.governor.name == "stable"
