"""Interval billing: exact reads, work-only ticks, tick/slice-end ties."""

import pytest

from repro import Host
from repro.schedulers.credit import CreditScheduler
from repro.sim import Engine, PeriodicTimer
from repro.workloads import ConstantLoad, PiApp

from ..conftest import make_host


def _running_host(**kwargs) -> Host:
    host = make_host(**kwargs)
    vm = host.create_domain("vm", credit=100)
    vm.attach_workload(PiApp(5.0))
    host.start()
    return host


def test_reads_add_the_open_slice_without_billing():
    host = _running_host()
    host.engine.run_until(1.015)  # mid-slice: quanta start on the 30 ms grid
    vm = host.domain("vm")
    billed = (vm.cpu_seconds, vm.work_done, host.processor.busy_seconds)
    assert billed[0] < 1.015
    exact = (
        host.cpu_seconds("vm"),
        host.work_done("vm"),
        host.busy_seconds(),
        host.energy_joules(),
        host.domain_energy_joules("vm"),
    )
    assert exact[0] == pytest.approx(1.015, abs=1e-9)
    assert exact[1] == pytest.approx(1.015, abs=1e-9)  # full speed: work = time
    assert exact[2] == exact[0]
    assert exact[3] == pytest.approx(exact[4] + host.idle_energy_joules, rel=1e-12)
    # Reading bills nothing ...
    assert (vm.cpu_seconds, vm.work_done, host.processor.busy_seconds) == billed
    # ... and a bill at this instant leaves exactly what the reads showed.
    host.sync_accounting()
    assert (vm.cpu_seconds, vm.work_done, host.processor.busy_seconds) == exact[:3]
    assert host.processor.energy_joules == exact[3]
    assert host.domain_energy_joules("vm") == exact[4]


def test_reads_add_the_open_idle_gap():
    host = make_host()
    host.create_domain("vm", credit=50)
    host.start()
    host.engine.run_until(2.505)  # 15 ms after the last accounting tick
    billed = host.processor.energy_joules
    energy = host.energy_joules()
    assert energy - billed == pytest.approx(0.015 * host.processor.energy_for(1.0, 0.0))
    assert host.idle_energy_joules == energy
    assert host.busy_seconds() == 0.0
    assert host.processor.energy_joules == billed
    host.sync_accounting()
    assert host.processor.energy_joules == energy


def test_tick_on_slice_end_is_not_a_preemption():
    # Binary-exact grid: each capped vCPU's budget runs out exactly on the
    # accounting tick, so the tick and the slice end share one instant.
    tick = 1 / 128
    scheduler = CreditScheduler(quantum=4 * tick, tick_interval=tick, ticks_per_accounting=4)
    host = make_host(scheduler=scheduler)
    for name in ("a", "b"):
        domain = host.create_domain(name, credit=50)
        domain.attach_workload(ConstantLoad(100, injection_period=tick))
    host.run(until=10.0)
    assert host.domain("a").cpu_seconds == host.domain("b").cpu_seconds == 5.0
    assert host.preemptions == 0


def _tick_instants(scheduler, governor="performance", until=12.0):
    host = make_host(scheduler=scheduler, governor=governor)
    fired = []
    tick = host.scheduler.tick

    def record(now):
        fired.append(now)
        return tick(now)

    host.scheduler.tick = record
    vm = host.create_domain("vm", credit=40)
    vm.attach_workload(ConstantLoad(30, injection_period=0.05))
    host.run(until=until)
    return fired


def _chain(until=12.0, period=0.01):
    engine = Engine()
    instants = []
    PeriodicTimer(engine, period, instants.append).start()
    engine.run_until(until)
    return instants


def test_credit_ticks_are_every_third_instant_of_a_10ms_chain():
    chain = _chain()
    expected = [t for k, t in enumerate(chain, start=1) if k % 3 == 0]
    assert _tick_instants("credit") == expected


def test_pas_ticks_add_the_sample_instants_of_a_10ms_chain():
    expected, accounting, last = [], 0, 0.0
    for k, t in enumerate(_chain(), start=1):
        sample = t - last >= 1.0 - 1e-9  # PasScheduler.tick's sample rule
        if sample:
            last = t
        accounting += k % 3 == 0
        if k % 3 == 0 or sample:
            expected.append(t)
    assert _tick_instants("pas", governor="userspace") == expected
    assert len(expected) > accounting  # some samples fall between accounting ticks


def test_sedf_ticks_every_instant_of_a_10ms_chain():
    assert _tick_instants("sedf") == _chain()


def test_ondemand_sample_mid_slice_reads_full_load():
    host = make_host(governor="ondemand")
    vm = host.create_domain("vm", credit=0)  # uncapped: the CPU never idles
    vm.attach_workload(PiApp(100.0))
    loads = []
    governor = host.governor
    sampled = governor.sampled

    def record(load, now):
        loads.append(load)
        return sampled(load, now)

    governor.sampled = record
    host.run(until=0.5)
    # The first sample lands 10 ms into a 30 ms slice: nothing is billed
    # yet, but the exact read sees a fully busy window.
    assert len(loads) >= 49
    assert loads[0] == 100.0
    assert min(loads) == pytest.approx(100.0, abs=1e-9)
