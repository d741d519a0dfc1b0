"""Unit tests for the §2.3 placement baselines: ``spread`` and ``consolidate-ffd``."""

import pytest

from repro.cluster import (
    ClusterVM,
    ConsolidateFFDPolicy,
    MachineSpec,
    Orchestrator,
    PlacementError,
    SpreadPolicy,
)


def vms(n, memory=4096, credit=30.0):
    return [
        ClusterVM(f"vm{i}", credit=credit, memory_mb=memory, demand=lambda t: 10.0)
        for i in range(n)
    ]


def one_epoch(policy, n_machines, population, memory=16384):
    """Run *policy* over a fresh fleet for one 10 s epoch."""
    sim = Orchestrator(
        n_machines=n_machines,
        machine_spec=MachineSpec(memory_mb=memory),
        vms=population,
        policy=policy,
        dvfs=True,
    )
    sim.run(10.0)
    return sim


def hosts_used(sim):
    return len({machine.name for machine in sim.machines if machine.vms})


def test_consolidation_packs_minimum_machines():
    sim = one_epoch("consolidate-ffd", 6, vms(8, memory=4096))  # 4 per 16GB host
    assert hosts_used(sim) == 2
    assert sum(1 for m in sim.machines if m.powered_on) == 2


def test_consolidation_powers_off_empty_machines():
    sim = one_epoch("consolidate-ffd", 4, vms(2))
    assert [m.powered_on for m in sim.machines] == [True, False, False, False]
    # Empty machines are off before serving: they burn nothing.
    assert [m.energy_joules > 0.0 for m in sim.machines] == [True, False, False, False]


def test_consolidation_memory_bound():
    with pytest.raises(PlacementError):
        one_epoch("consolidate-ffd", 2, vms(5, memory=4096), memory=8192)  # 2.5 hosts


def test_spread_uses_whole_fleet():
    sim = one_epoch("spread", 4, vms(4))
    assert hosts_used(sim) == 4
    assert all(m.powered_on for m in sim.machines)
    assert [len(m.vms) for m in sim.machines] == [1, 1, 1, 1]


def test_spread_holds_empty_machines_on_through_serving():
    sim = one_epoch("spread", 4, vms(3))
    assert [len(m.vms) for m in sim.machines] == [1, 1, 1, 0]
    # The empty machine serves the epoch at idle power, then powers off...
    idle_epoch_j = sim.machines[3].energy_joules
    assert idle_epoch_j > 0.0
    assert not sim.machines[3].powered_on
    assert sim.stats[-1].machines_on == 3
    # ...and the next plan holds it on again for another idle epoch.
    sim.run(10.0)
    assert sim.machines[3].energy_joules == pytest.approx(2 * idle_epoch_j)


def test_spread_overflows_to_next_machine():
    sim = one_epoch("spread", 2, vms(4, memory=4096), memory=8192)
    assert [len(m.vms) for m in sim.machines] == [2, 2]


def test_spread_memory_infeasible_raises():
    with pytest.raises(PlacementError):
        one_epoch("spread", 1, vms(2, memory=4096), memory=4096)


def test_repacking_clears_previous_assignment():
    # Each plan is computed from the VMs it is given alone: a smaller
    # population yields a smaller assignment, never a stale one.
    sim = one_epoch("consolidate-ffd", 3, vms(3))
    population = vms(3)
    for policy in (ConsolidateFFDPolicy(), SpreadPolicy()):
        for subset in (population, population[:1]):
            plan = policy.plan(
                sim.machines, subset, time=0.0, epoch_index=1, epoch_s=10.0, dvfs=True
            )
            assert sorted(plan.assignment) == [vm.name for vm in subset]


def test_first_fit_decreasing_order():
    big = ClusterVM("big", credit=10, memory_mb=8192, demand=lambda t: 1.0)
    small = [
        ClusterVM(f"s{i}", credit=10, memory_mb=2048, demand=lambda t: 1.0)
        for i in range(5)
    ]
    # FFD places the 8GB VM first; the small ones fill the gaps.
    sim = one_epoch("consolidate-ffd", 2, [*small, big], memory=10240)
    assert hosts_used(sim) == 2
    assert sum(len(m.vms) for m in sim.machines) == 6
    assert [vm.name for vm in sim.machines[0].vms] == ["big", "s0"]
