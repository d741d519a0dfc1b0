"""Property-based tests for cluster placement and fleet accounting."""

from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterVM, Orchestrator, PlacementError


@st.composite
def populations(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    vms = []
    for index in range(count):
        memory = draw(st.sampled_from([1024, 2048, 4096, 8192]))
        demand = draw(st.floats(min_value=0.0, max_value=30.0))
        vms.append(
            ClusterVM(
                f"vm{index}",
                credit=30.0,
                memory_mb=memory,
                demand=lambda t, d=demand: d,
            )
        )
    return vms


def fleet(vms, policy, dvfs=True, duration=10.0):
    """Six 16 GB machines under *policy*, run for *duration* seconds."""
    sim = Orchestrator(n_machines=6, vms=vms, policy=policy, dvfs=dvfs)
    sim.run(duration)
    return sim


@given(vms=populations())
@settings(max_examples=40, deadline=None)
def test_consolidation_never_violates_memory(vms):
    try:
        sim = fleet(vms, "consolidate-ffd")
    except PlacementError:
        return
    for machine in sim.machines:
        assert machine.memory_used_mb <= machine.spec.memory_mb


@given(vms=populations())
@settings(max_examples=40, deadline=None)
def test_every_vm_placed_exactly_once(vms):
    try:
        sim = fleet(vms, "consolidate-ffd")
    except PlacementError:
        return
    placed = [vm.name for machine in sim.machines for vm in machine.vms]
    assert sorted(placed) == sorted(vm.name for vm in vms)


@given(vms=populations())
@settings(max_examples=40, deadline=None)
def test_consolidation_uses_no_more_machines_than_spread(vms):
    try:
        packed = fleet(vms, "consolidate-ffd")
        spread = fleet(vms, "spread")
    except PlacementError:
        return

    # A machine that drew power this epoch was on while the fleet served.
    def burning(sim):
        return sum(1 for machine in sim.machines if machine.energy_joules > 0.0)

    assert burning(packed) <= burning(spread) == len(spread.machines)


@given(vms=populations())
@settings(max_examples=25, deadline=None)
def test_fleet_energy_with_dvfs_never_exceeds_without(vms):
    try:
        with_dvfs = fleet(vms, "consolidate-ffd", dvfs=True, duration=50.0)
        without = fleet(vms, "consolidate-ffd", dvfs=False, duration=50.0)
    except PlacementError:
        return
    assert with_dvfs.fleet_energy_joules <= without.fleet_energy_joules + 1e-6


@given(vms=populations())
@settings(max_examples=25, deadline=None)
def test_served_never_exceeds_demand(vms):
    try:
        sim = fleet(vms, "consolidate-ffd", duration=50.0)
    except PlacementError:
        return
    for stat in sim.stats:
        assert stat.served_percent <= stat.demand_percent + 1e-9
        assert 0.0 <= stat.sla_fraction <= 1.0 + 1e-9
