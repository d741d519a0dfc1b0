"""Property tests for the planner's host→VM index in ``_FleetState``.

After any sequence of :meth:`_FleetState.move` calls, everything the index
answers must equal a brute-force scan of ``assignment``: the VMs on each
host, the used-host count, per-host loads and free memory, and the host
:meth:`_FleetState.host_with_headroom` picks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterVM
from repro.cluster.machine import Machine, MachineSpec
from repro.cluster.policies import _FleetState
from repro.cpu import catalog


@st.composite
def fleets(draw):
    """(machines, vms, demands, current, order, moves) for one scratch state."""
    machines = [
        Machine(
            f"m{index}",
            MachineSpec(
                processor=draw(
                    st.sampled_from([catalog.CORE_I7_3770, catalog.BIG_LITTLE_44])
                ),
                memory_mb=draw(st.sampled_from([8192, 16384])),
            ),
        )
        for index in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    names = [machine.name for machine in machines]
    count = draw(st.integers(min_value=0, max_value=12))
    vms = [
        ClusterVM(
            f"vm{index:02d}",
            credit=30.0,
            memory_mb=draw(st.sampled_from([1024, 2048, 4096])),
            demand=lambda t: 0.0,
        )
        for index in range(count)
    ]
    demands = {
        vm.name: draw(st.floats(min_value=0.0, max_value=30.0)) for vm in vms
    }
    # A live assignment lists VMs machine by machine, as current_assignment
    # does; shuffle within that shape so hosts interleave VM names.
    placed = draw(st.permutations([(vm.name, draw(st.sampled_from(names))) for vm in vms]))
    current = {
        vm_name: host for name in names for vm_name, host in placed if host == name
    }
    order = draw(st.permutations(machines))
    moves = draw(
        st.lists(
            st.tuples(
                st.sampled_from([vm.name for vm in vms] or ["-"]),
                st.sampled_from(names),
            ),
            max_size=30 if vms else 0,
        )
    )
    return machines, vms, demands, current, order, moves


def _scan(state, machines, vms, demands):
    """Per-host VMs, loads and free memory recomputed from ``assignment``."""
    memory = {vm.name: vm.memory_mb for vm in vms}
    on = {machine.name: [] for machine in machines}
    for vm_name, host in state.assignment.items():
        on[host].append(vm_name)
    loads = {name: sum(demands[vm] for vm in held) for name, held in on.items()}
    free_mb = {
        machine.name: machine.spec.memory_mb
        - sum(memory[vm] for vm in on[machine.name])
        for machine in machines
    }
    return on, loads, free_mb


def _headroom_by_scan(state, on, order, vm_name, limit, exclude, powered_only):
    """``host_with_headroom`` with the used/empty split taken from *on*."""
    used = [m.name for m in order if m.name != exclude and on[m.name]]
    empty = [m.name for m in order if m.name != exclude and not on[m.name]]
    for name in used + ([] if powered_only else empty):
        budget = limit * state.capacity_scale(name) - state.overhead(name)
        if state.fits(vm_name, name) and state.load(name) + state.demand(vm_name) <= budget:
            return name
    return None


@given(fleet=fleets())
@settings(max_examples=150, deadline=None)
def test_index_matches_a_scan_of_the_assignment(fleet):
    machines, vms, demands, current, order, moves = fleet
    state = _FleetState(machines, vms, demands, current, order=order)
    for step in range(len(moves) + 1):
        on, loads, free_mb = _scan(state, machines, vms, demands)
        for name, held in on.items():
            indexed = state.vms_on(name)
            assert len(indexed) == len(set(indexed))
            assert sorted(indexed) == sorted(held)
            assert state.load(name) == pytest.approx(loads[name], abs=1e-9)
        assert state._free_mb == free_mb
        assert state.used_hosts() == sum(1 for held in on.values() if held)
        for vm in vms:
            for exclude in (current.get(vm.name), machines[0].name):
                for powered_only in (False, True):
                    assert state.host_with_headroom(
                        vm.name, 75.0, exclude=exclude, powered_only=powered_only
                    ) == _headroom_by_scan(
                        state, on, order, vm.name, 75.0, exclude, powered_only
                    )
        if step < len(moves):
            state.move(*moves[step])
    assert state.assignment.keys() == current.keys()


@given(fleet=fleets())
@settings(max_examples=60, deadline=None)
def test_vms_on_keeps_arrival_order(fleet):
    """Initial VMs in *current* order, then each arrival appended."""
    machines, vms, demands, current, order, moves = fleet
    state = _FleetState(machines, vms, demands, current, order=order)
    expected = {machine.name: [] for machine in machines}
    for vm_name, host in current.items():
        expected[host].append(vm_name)
    for vm_name, dest in moves:
        state.move(vm_name, dest)
        for held in expected.values():
            if vm_name in held:
                held.remove(vm_name)
        expected[dest].append(vm_name)
    for name, held in expected.items():
        assert state.vms_on(name) == held
