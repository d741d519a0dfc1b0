"""Edge-case and failure-injection tests for the host dispatch loop."""

import pytest

from repro import Host, catalog, VCpuState
from repro.cpu.power import PowerModel
from repro.cpu.processor import ProcessorSpec, make_states
from repro.workloads import ConstantLoad, PiApp

from ..conftest import make_host


def test_frequency_change_while_idle_is_harmless():
    host = make_host(governor="userspace")
    host.create_domain("vm", credit=50)
    host.start()
    host.run(until=1.0)
    host.cpufreq.set_speed(1600)
    host.run(until=2.0)
    assert host.processor.frequency_mhz == 1600
    assert host.processor.busy_seconds == 0.0


def test_rapid_frequency_flapping_preserves_work_conservation():
    host = make_host(governor="userspace")
    vm = host.create_domain("vm", credit=100)
    app = PiApp(1.0)
    vm.attach_workload(app)
    host.start()
    freqs = [1600, 2667, 1867, 2400, 2133]
    expected_wall = 0.0
    for index, freq in enumerate(freqs):
        host.cpufreq.set_speed(freq)
        host.run(until=(index + 1) * 0.1)
        expected_wall += 0.1 * (freq / 2667)
    # Work done must equal the integral of capacity over busy time.
    assert vm.work_done == pytest.approx(expected_wall, rel=0.01)


def test_workload_stop_mid_run_blocks_vcpu():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    load = ConstantLoad(50, injection_period=0.02)
    vm.attach_workload(load)
    host.run(until=2.0)
    load.stop()
    host.run(until=5.0)
    assert vm.vcpu.state is VCpuState.BLOCKED


def test_zero_credit_zero_weight_domain_starves_only_under_contention():
    host = make_host()
    scavenger = host.create_domain("scavenger", credit=0)
    hog = host.create_domain("hog", credit=0, weight=1000)
    scavenger.attach_workload(ConstantLoad(100, injection_period=0.01))
    hog.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.run(until=5.0)
    assert hog.cpu_seconds > scavenger.cpu_seconds * 10


def test_sync_accounting_idempotent():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    vm.attach_workload(PiApp(5.0))
    host.start()
    host.engine.run_until(1.0)
    first = host.cpu_seconds("vm")
    billed = vm.cpu_seconds
    assert host.cpu_seconds("vm") == first  # reads are pure ...
    assert vm.cpu_seconds == billed  # ... and bill nothing
    host.sync_accounting()
    host.sync_accounting()
    assert vm.cpu_seconds == first
    assert host.cpu_seconds("vm") == first


def test_switch_while_idle_bills_the_gap_and_stays_idle():
    host = make_host()
    host.create_domain("vm", credit=50)
    host.start()
    host.engine.run_until(1.0)
    stats = host.scheduler.stats
    decisions, idle_picks = stats.decisions, stats.idle_picks
    host._switch(host.now)
    assert (stats.decisions, stats.idle_picks) == (decisions + 1, idle_picks + 1)
    assert host.idle_energy_joules == host.energy_joules() == host.processor.energy_joules
    assert host.processor.elapsed_seconds == 1.0


def test_many_tiny_work_injections():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    host.start()
    for index in range(100):
        host.run(until=(index + 1) * 0.001)
        host.domain("vm").add_work(1e-4)
    host.run(until=1.0)
    assert vm.work_done == pytest.approx(0.01, rel=0.01)


def test_work_added_exactly_at_run_boundary():
    host = make_host()
    vm = host.create_domain("vm", credit=100)
    host.start()
    host.run(until=1.0)
    host.domain("vm").add_work(0.5)
    host.run(until=2.0)
    assert vm.work_done == pytest.approx(0.5)


def test_kick_noop_before_start():
    host = make_host()
    host.create_domain("vm", credit=50)
    host.kick()  # must not dispatch or raise before start()


def test_host_with_two_frequency_processor():
    host = Host(
        processor=catalog.OPTERON_6164_HE, scheduler="pas", governor="userspace"
    )
    vm = host.create_domain("vm", credit=20)
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.run(until=30.0)
    # 20% absolute fits the 800 MHz state (ratio 0.47, cf 0.995 -> 46.8%).
    assert host.processor.frequency_mhz == 800
    assert vm.work_done / 30.0 == pytest.approx(0.20, abs=0.015)


def test_cap_tighter_than_quantum_still_precise():
    host = make_host()
    vm = host.create_domain("vm", credit=2)  # 0.6ms budget per 30ms period
    vm.attach_workload(ConstantLoad(100, injection_period=0.01))
    host.run(until=20.0)
    assert vm.cpu_seconds / 20.0 == pytest.approx(0.02, abs=0.004)


def test_same_capacity_frequency_change_does_not_preempt():
    # 1000 MHz at cf=1.0 and 2000 MHz at cf=0.5 deliver the identical
    # effective capacity (ratio * cf = 0.5): switching between them must not
    # end the in-flight slice, because its work accounting is still valid.
    spec = ProcessorSpec(
        name="iso-capacity",
        states=make_states([1000, 2000], cf=[1.0, 0.5]),
        power=PowerModel(idle_watts=10.0, busy_watts=30.0),
    )
    host = Host(processor=spec, scheduler="credit", governor="userspace")
    vm = host.create_domain("vm", credit=100)
    vm.attach_workload(PiApp(10.0))
    host.start()
    host.run(until=1.0)
    before = host.preemptions
    host.cpufreq.set_speed(1000)  # real P-state change, same capacity
    assert host.processor.transitions == 1
    assert host.preemptions == before
    host.run(until=2.0)
    # Work conservation: 2 wall seconds at capacity 0.5 throughout.
    assert vm.work_done == pytest.approx(1.0, rel=0.01)


def test_mid_slice_frequency_change_bills_prefix_at_old_state():
    # The slice prefix before a P-state flip ran at the old state's wattage
    # and must land in the old state's energy/time-in-state books, even when
    # the flip happens between accounting boundaries.
    spec = ProcessorSpec(
        name="iso-capacity",
        states=make_states([1000, 2000], cf=[1.0, 0.5]),
        power=PowerModel(idle_watts=10.0, busy_watts=30.0),
    )
    host = Host(processor=spec, scheduler="credit", governor="userspace")
    vm = host.create_domain("vm", credit=100)
    vm.attach_workload(PiApp(10.0))
    host.start()
    host.run(until=1.5)  # mid-way between the 1 s monitor samples
    host.cpufreq.set_speed(1000)
    host.run(until=3.0)
    table = host.processor.table
    state_2000, state_1000 = table.state_for(2000), table.state_for(1000)
    expected = spec.power.energy(state_2000, table, 1.0, 1.5) + spec.power.energy(
        state_1000, table, 1.0, 1.5
    )
    assert host.processor.energy_joules == pytest.approx(expected, rel=1e-9)
    assert host.processor.time_in_state(2000) == pytest.approx(1.5)
    assert host.processor.time_in_state(1000) == pytest.approx(1.5)


def test_capacity_changing_frequency_change_still_preempts():
    host = make_host(governor="userspace")
    vm = host.create_domain("vm", credit=100)
    vm.attach_workload(PiApp(10.0))
    host.start()
    host.run(until=1.0)
    before = host.preemptions
    host.cpufreq.set_speed(1600)
    assert host.preemptions == before + 1


def test_all_domains_idle_whole_run_consumes_only_idle_power():
    host = make_host()
    for index in range(3):
        host.create_domain(f"vm{index}", credit=30)
    host.run(until=10.0)
    idle_watts = host.processor.spec.power.idle_watts
    assert host.processor.energy_joules == pytest.approx(idle_watts * 10.0, rel=0.01)
