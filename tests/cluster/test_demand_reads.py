"""Each VM's demand callable is read once per epoch.

Planning (the policy's demand snapshot), serving (``Machine.run_epoch``,
throttled or not) and the migration blackout all ask a VM for its demand
at the epoch start; :meth:`ClusterVM.demand_at` memoises that read, so the
trace behind it is looked up once per VM per epoch.
"""

import math
from collections import Counter

import pytest

from repro.cluster import ClusterVM, MigrationModel, Orchestrator
from repro.errors import ConfigurationError

EPOCH_S = 10.0
EPOCHS = 12


class CountingDemand:
    """A day-shaped demand that counts its reads per instant."""

    def __init__(self, phase: float, peak: float) -> None:
        self.phase = phase
        self.peak = peak
        self.reads: Counter[float] = Counter()

    def __call__(self, time: float) -> float:
        self.reads[time] += 1
        swing = 0.5 + 0.5 * math.sin(2.0 * math.pi * time / 80.0 + self.phase)
        return 5.0 + (self.peak - 5.0) * swing


def population(n: int, *, credit: float, peak: float, lc: int = 0):
    demands = [CountingDemand(phase=index * 0.7, peak=peak) for index in range(n)]
    vms = [
        ClusterVM(
            f"vm{index:02d}",
            credit=credit,
            memory_mb=2048,
            demand=demand,
            service_class="lc" if index < lc else "be",
        )
        for index, demand in enumerate(demands)
    ]
    return vms, demands


def assert_one_read_per_epoch(demands):
    expected = Counter({epoch * EPOCH_S: 1 for epoch in range(EPOCHS)})
    for demand in demands:
        assert demand.reads == expected


def test_consolidate_reads_each_vm_once_per_epoch():
    vms, demands = population(8, credit=40.0, peak=35.0)
    sim = Orchestrator(n_machines=4, vms=vms, policy="consolidate", dvfs=True)
    sim.run(EPOCHS * EPOCH_S)
    assert sim.total_migrations > 0
    assert_one_read_per_epoch(demands)


def test_power_budget_with_migration_model_reads_each_vm_once_per_epoch():
    vms, demands = population(8, credit=40.0, peak=35.0)
    sim = Orchestrator(
        n_machines=4,
        vms=vms,
        policy="power-budget",
        power_budget_w=150.0,
        dvfs=True,
        migration=MigrationModel(),
    )
    sim.run(EPOCHS * EPOCH_S)
    # The blackout charge reads the migrating VMs' demand too.
    assert sim.total_migrations > 0
    assert_one_read_per_epoch(demands)


def test_fleet_qos_throttled_serving_reads_each_vm_once_per_epoch():
    # Three 70% VMs per machine: the ladder throttles BE demand.
    vms, demands = population(6, credit=70.0, peak=70.0, lc=2)
    sim = Orchestrator(
        n_machines=2, vms=vms, policy="load-balance", dvfs=True, qos="ladder"
    )
    throttled = 0
    for _ in range(EPOCHS):
        sim.run(EPOCH_S)
        throttled += sum(machine.be_quota_fraction < 1.0 for machine in sim.machines)
    assert throttled > 0
    assert_one_read_per_epoch(demands)


def test_repeat_read_at_one_instant_is_memoised_and_clamped():
    demand = CountingDemand(phase=0.0, peak=90.0)
    vm = ClusterVM("v", credit=25.0, memory_mb=1024, demand=demand)
    assert vm.demand_at(20.0) == vm.demand_at(20.0) == 25.0
    assert demand.reads == Counter({20.0: 1})
    vm.demand_at(30.0)
    vm.demand_at(20.0)
    assert demand.reads == Counter({20.0: 2, 30.0: 1})


def test_negative_demand_raises_on_every_fresh_read():
    vm = ClusterVM("v", credit=25.0, memory_mb=1024, demand=lambda t: -1.0)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            vm.demand_at(0.0)


def test_negative_demand_raises_inside_an_epoch():
    vms, _ = population(2, credit=40.0, peak=30.0)
    vms.append(ClusterVM("bad", credit=25.0, memory_mb=1024, demand=lambda t: -1.0))
    sim = Orchestrator(n_machines=2, vms=vms, policy="consolidate", dvfs=True)
    with pytest.raises(ConfigurationError, match="negative demand"):
        sim.run(EPOCH_S)
