"""Unit tests for the Orchestrator epoch loop under the §2.3 baselines."""

import pytest

from repro.cluster import ClusterVM, Orchestrator
from repro.errors import ConfigurationError


def population(n, demand=15.0):
    return [
        ClusterVM(f"vm{i}", credit=30.0, memory_mb=4096, demand=lambda t: demand)
        for i in range(n)
    ]


def test_run_produces_one_stat_per_epoch():
    sim = Orchestrator(
        n_machines=4, vms=population(4), policy="consolidate-ffd", dvfs=True, epoch_s=10.0
    )
    stats = sim.run(100.0)
    assert len(stats) == 10
    assert stats[-1].time == pytest.approx(100.0)


def test_sla_fraction_full_when_capacity_sufficient():
    sim = Orchestrator(
        n_machines=4, vms=population(4), policy="consolidate-ffd", dvfs=True
    )
    sim.run(100.0)
    assert sim.mean_sla_fraction == pytest.approx(1.0)


def test_consolidation_uses_fewer_machines_than_spread():
    packed = Orchestrator(
        n_machines=4, vms=population(4), policy="consolidate-ffd", dvfs=False
    )
    spread = Orchestrator(
        n_machines=4, vms=population(4), policy="spread", dvfs=False
    )
    packed.run(50.0)
    spread.run(50.0)
    assert packed.mean_machines_on < spread.mean_machines_on


def test_dvfs_reduces_fleet_energy():
    with_dvfs = Orchestrator(
        n_machines=4, vms=population(4), policy="consolidate-ffd", dvfs=True
    )
    without = Orchestrator(
        n_machines=4, vms=population(4), policy="consolidate-ffd", dvfs=False
    )
    with_dvfs.run(100.0)
    without.run(100.0)
    assert with_dvfs.fleet_energy_joules < without.fleet_energy_joules * 0.9


def test_stable_demand_causes_no_migrations():
    sim = Orchestrator(
        n_machines=4, vms=population(4), policy="consolidate-ffd", dvfs=True
    )
    sim.run(100.0)
    assert sim.total_migrations == 0


def test_migrations_counted_when_population_shifts():
    vms = population(4)
    sim = Orchestrator(n_machines=4, vms=vms, policy="consolidate-ffd", dvfs=True)
    sim.run(10.0)
    # Make the biggest VM bigger so FFD reorders the packing.
    sim.vms[0] = ClusterVM("vm0", credit=30.0, memory_mb=8192, demand=lambda t: 15.0)
    sim.run(10.0)
    assert sim.total_migrations > 0


def test_queries_require_run():
    sim = Orchestrator(
        n_machines=2, vms=population(2), policy="consolidate-ffd", dvfs=True
    )
    with pytest.raises(ConfigurationError):
        _ = sim.mean_sla_fraction


def test_duplicate_vm_names_rejected():
    vms = population(2)
    vms[1] = ClusterVM("vm0", credit=10, memory_mb=1024, demand=lambda t: 1.0)
    with pytest.raises(ConfigurationError):
        Orchestrator(n_machines=2, vms=vms, policy="consolidate-ffd", dvfs=True)


def test_epoch_stats_fields():
    sim = Orchestrator(
        n_machines=2, vms=population(2), policy="consolidate-ffd", dvfs=True
    )
    stats = sim.run(20.0)
    for stat in stats:
        assert stat.machines_on >= 1
        assert stat.energy_joules > 0
        assert stat.served_percent <= stat.demand_percent + 1e-9
        assert stat.sla_fraction == pytest.approx(1.0)
