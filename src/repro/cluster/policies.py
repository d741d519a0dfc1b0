"""Orchestration policies: how the fleet re-evaluates itself each epoch.

An :class:`OrchestrationPolicy` is consulted by the
:class:`~repro.cluster.orchestrator.Orchestrator` at every epoch and answers
with an :class:`EpochPlan`: the VM→host assignment it wants (``None`` to
keep the current placement, so "no churn" is the explicit default) plus
per-host frequency floors and ceilings (the multi-host analogue of pinning
a cpufreq policy's ``scaling_min_freq``/``scaling_max_freq``).

Registry (:data:`POLICY_REGISTRY`, addressable by name from a
:class:`~repro.cluster.scenario.ClusterScenarioConfig`):

``static``
    Provision by *booked credit* once, never migrate.  The classic
    hosting-center baseline: SLA-safe by construction, blind to the fact
    that demand rarely reaches the booking.
``consolidate``
    Demand-aware incremental packing with power-off/on hysteresis:
    overloaded hosts spill immediately, but a host is only drained and
    powered down after ``hysteresis_epochs`` consecutive epochs agree the
    fleet fits on fewer machines — so a single quiet epoch never powers a
    host down just to drag it (and a batch of migrations) back up.
``load-balance``
    Spread demand evenly over the whole fleet, a bounded number of
    hot-to-cold migrations per epoch, triggered only when the hottest and
    coldest hosts drift more than ``imbalance_percent`` apart.
    SLA-friendliest, energy-worst.
``power-budget``
    Multi-host PAS: ``consolidate`` placement plus a cluster-wide watt
    cap, enforced by steering per-host frequency floors/ceilings.  Each
    epoch every used host starts at the P-state Listing 1.1 picks for its
    demand; while the fleet's predicted package power exceeds the budget,
    the highest-drawing host is stepped down one P-state.  Delivered
    utilisation can only be lower than the demand the prediction assumes,
    so the delivered per-epoch fleet power never exceeds the cap.
``spread``
    The §2.3 pre-consolidation hosting centre: VMs round-robin over the
    whole fleet and every machine stays on, empty or not.
``consolidate-ffd``
    The §2.3 consolidation packer: first-fit-decreasing by memory, empty
    machines off.  Memory alone bounds the packing, which is why the
    packed hosts stay CPU-underloaded and DVFS still pays.

Every policy is *memory-feasible by construction*: a VM is only placed
where its footprint fits, or :class:`PlacementError` is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..errors import ConfigurationError, ReproError
from ..units import check_positive
from .machine import Machine
from .vm import ClusterVM

#: A VM→host assignment: ``{vm name: machine name}``.
Assignment = Mapping[str, str]


class PlacementError(ReproError):
    """The fleet cannot host the VM set (memory-infeasible)."""


def current_assignment(machines: Sequence[Machine]) -> dict[str, str]:
    """The live VM→host assignment of a fleet."""
    return {vm.name: machine.name for machine in machines for vm in machine.vms}


# --------------------------------------------------------- placement orders


def efficiency_order(machines: Sequence[Machine]) -> list[Machine]:
    """Machines cheapest-to-run first (full-load watts per capacity percent).

    Efficiency-packing: fill the big.LITTLE blades before waking an i7.
    Stable on homogeneous fleets — equal efficiency everywhere, so the
    original (name) order survives and legacy placements are unchanged.
    """
    indexed = sorted(
        enumerate(machines),
        key=lambda pair: (pair[1].efficiency_w_per_percent, pair[0]),
    )
    return [machine for _, machine in indexed]


def performance_order(machines: Sequence[Machine]) -> list[Machine]:
    """Machines highest-capacity first (performance-bursting).

    Stable on homogeneous fleets for the same reason as
    :func:`efficiency_order`.
    """
    indexed = sorted(
        enumerate(machines),
        key=lambda pair: (-pair[1].capacity_percent, pair[0]),
    )
    return [machine for _, machine in indexed]


#: The heterogeneity-aware placement preferences policies accept, by name.
PLACEMENT_ORDERS: dict[str, Callable[[Sequence[Machine]], list[Machine]]] = {
    "efficiency": efficiency_order,
    "performance": performance_order,
}


def _placement_order(
    placement: str | None, default: str
) -> Callable[[Sequence[Machine]], list[Machine]]:
    name = default if placement is None else placement
    if name not in PLACEMENT_ORDERS:
        raise ConfigurationError(
            f"unknown placement preference {name!r}; "
            f"use one of: {', '.join(PLACEMENT_ORDERS)}"
        )
    return PLACEMENT_ORDERS[name]


@dataclass
class EpochPlan:
    """What a policy wants done before the fleet serves one epoch.

    ``assignment=None`` keeps the current placement (zero migrations);
    floors/ceilings are MHz bounds per machine name, applied after the
    machine's own DVFS choice.  ``hold_on`` names machines the
    orchestrator powers on and keeps on through serving even when they
    host no VM (they burn idle power this epoch).
    """

    assignment: Assignment | None = None
    freq_floors: Mapping[str, int] = field(default_factory=dict)
    freq_ceilings: Mapping[str, int] = field(default_factory=dict)
    hold_on: frozenset[str] = frozenset()


class OrchestrationPolicy:
    """Base class: re-evaluated by the orchestrator every epoch."""

    #: Registry name (set by subclasses).
    name = "abstract"

    def plan(
        self,
        machines: Sequence[Machine],
        vms: Sequence[ClusterVM],
        *,
        time: float,
        epoch_index: int,
        epoch_s: float,
        dvfs: bool,
    ) -> EpochPlan:
        """The plan for the epoch starting at *time*."""
        raise NotImplementedError


# ------------------------------------------------------------------ packing


def pack_first_fit(
    machines: Sequence[Machine],
    vms: Sequence[ClusterVM],
    weight: Callable[[ClusterVM], float],
    *,
    limit_percent: float,
) -> dict[str, str]:
    """First-fit-decreasing by *weight* under memory + CPU-share limits.

    VMs are sorted by descending weight (name-tiebroken) and placed on the
    first machine where the memory footprint fits and the accumulated
    weight plus the hypervisor overhead stays within *limit_percent* of
    that machine's max-frequency capacity (its ``capacity_percent``, so a
    smaller big.LITTLE blade admits proportionally less than an i7).  A VM
    whose weight alone exceeds the limit is still placed — alone on an
    empty machine — so overloads degrade to clipped service rather than
    unplaceable fleets.  Machines are tried in the order given: pass an
    :func:`efficiency_order` / :func:`performance_order` view to steer
    heterogeneous packing.
    """
    loads: dict[str, float] = {machine.name: 0.0 for machine in machines}
    free_mb: dict[str, int] = {machine.name: machine.spec.memory_mb for machine in machines}
    budgets: dict[str, float] = {
        machine.name: limit_percent * (machine.capacity_percent / 100.0)
        - machine.spec.overhead_percent
        for machine in machines
    }
    assignment: dict[str, str] = {}
    for vm in sorted(vms, key=lambda v: (-weight(v), v.name)):
        share = weight(vm)
        for name, budget in budgets.items():
            if vm.memory_mb > free_mb[name]:
                continue
            if loads[name] + share > budget and loads[name] > 0.0:
                continue
            assignment[vm.name] = name
            loads[name] += share
            free_mb[name] -= vm.memory_mb
            break
        else:
            raise PlacementError(
                f"VM {vm.name!r} ({vm.memory_mb} MB) fits no machine"
            )
    return assignment


def pack_balanced(
    machines: Sequence[Machine],
    vms: Sequence[ClusterVM],
    weight: Callable[[ClusterVM], float],
) -> dict[str, str]:
    """Worst-fit by *weight*: each VM goes to the least-loaded feasible host.

    Load is measured relative to each machine's capacity, so a half-full
    big.LITTLE blade is "hotter" than a half-full i7 of twice its size.
    """
    loads: dict[str, float] = {machine.name: 0.0 for machine in machines}
    free_mb: dict[str, int] = {machine.name: machine.spec.memory_mb for machine in machines}
    assignment: dict[str, str] = {}
    for vm in sorted(vms, key=lambda v: (-weight(v), v.name)):
        feasible = [m for m in machines if vm.memory_mb <= free_mb[m.name]]
        if not feasible:
            raise PlacementError(
                f"VM {vm.name!r} ({vm.memory_mb} MB) fits no machine"
            )
        target = min(
            feasible,
            key=lambda m: (loads[m.name] / (m.capacity_percent / 100.0), m.name),
        )
        assignment[vm.name] = target.name
        loads[target.name] += weight(vm)
        free_mb[target.name] -= vm.memory_mb
    return assignment


def _demands(vms: Sequence[ClusterVM], time: float) -> dict[str, float]:
    return {vm.name: vm.demand_at(time) for vm in vms}


def _hosts_used(assignment: Assignment) -> int:
    return len(set(assignment.values()))


class _FleetState:
    """A mutable scratch view of the fleet for incremental policies.

    Tracks per-host demand load and free memory as VMs are staged from
    host to host; ``assignment`` is the final VM→host mapping handed to
    the orchestrator (which executes only the diff).  *order* is the host
    preference used when shopping for headroom (default: name order, which
    every placement order degenerates to on a homogeneous fleet).

    A host→VMs index, kept in step by :meth:`move`, answers
    :meth:`vms_on` and the used/empty split in O(VMs on that host) rather
    than a scan of the whole assignment.  Each host's VMs sit in an
    insertion-ordered dict: the VMs placed there at construction in
    *current* order, then arrivals in the order they were moved in — so
    :meth:`vms_on` never depends on ``PYTHONHASHSEED``.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        vms: Sequence[ClusterVM],
        demands: Mapping[str, float],
        current: Assignment,
        *,
        order: Sequence[Machine] | None = None,
    ) -> None:
        self._machines = {machine.name: machine for machine in machines}
        self._vms = {vm.name: vm for vm in vms}
        self._demands = demands
        self._order = (
            [machine.name for machine in order]
            if order is not None
            else sorted(machine.name for machine in machines)
        )
        self.assignment = dict(current)
        self._on: dict[str, dict[str, None]] = {name: {} for name in self._machines}
        self._loads: dict[str, float] = {name: 0.0 for name in self._machines}
        self._capacity_scale: dict[str, float] = {
            name: machine.capacity_percent / 100.0
            for name, machine in self._machines.items()
        }
        self._free_mb: dict[str, int] = {
            name: machine.spec.memory_mb for name, machine in self._machines.items()
        }
        for vm_name, machine_name in self.assignment.items():
            self._on[machine_name][vm_name] = None
            self._loads[machine_name] += demands[vm_name]
            self._free_mb[machine_name] -= self._vms[vm_name].memory_mb

    def hosts(self) -> list[str]:
        return list(self._machines)

    def used_hosts(self) -> int:
        return sum(1 for on in self._on.values() if on)

    def vms_on(self, machine_name: str) -> list[str]:
        return list(self._on[machine_name])

    def demand(self, vm_name: str) -> float:
        return self._demands[vm_name]

    def load(self, machine_name: str) -> float:
        return self._loads[machine_name]

    def relative_load(self, machine_name: str) -> float:
        """Load as a fraction of the old 100 %-host scale (hetero-aware)."""
        return self._loads[machine_name] / self._capacity_scale[machine_name]

    def capacity_scale(self, machine_name: str) -> float:
        """``capacity_percent / 100`` — exactly 1.0 on legacy hosts."""
        return self._capacity_scale[machine_name]

    def overhead(self, machine_name: str) -> float:
        return self._machines[machine_name].spec.overhead_percent

    def fits(self, vm_name: str, machine_name: str) -> bool:
        return self._vms[vm_name].memory_mb <= self._free_mb[machine_name]

    def move(self, vm_name: str, dest: str) -> None:
        source = self.assignment[vm_name]
        self._loads[source] -= self._demands[vm_name]
        self._free_mb[source] += self._vms[vm_name].memory_mb
        self._loads[dest] += self._demands[vm_name]
        self._free_mb[dest] -= self._vms[vm_name].memory_mb
        self.assignment[vm_name] = dest
        del self._on[source][vm_name]
        self._on[dest][vm_name] = None

    def host_with_headroom(
        self,
        vm_name: str,
        limit_percent: float,
        *,
        exclude: str,
        powered_only: bool = False,
    ) -> str | None:
        """First host that can absorb *vm_name* under *limit_percent*.

        Already-used hosts are preferred (in the state's placement order);
        an empty host — a power-on — is the fallback unless
        ``powered_only``.  The limit scales with each host's capacity, so
        a small blade fills up (proportionally) as fast as a big one.
        """
        share = self._demands[vm_name]
        used = [n for n in self._order if n != exclude and self._on[n]]
        empty = [n for n in self._order if n != exclude and not self._on[n]]
        for name in used + ([] if powered_only else empty):
            budget = limit_percent * self._capacity_scale[name] - self.overhead(name)
            if self.fits(vm_name, name) and self._loads[name] + share <= budget:
                return name
        return None


# ----------------------------------------------------------------- policies


class StaticPolicy(OrchestrationPolicy):
    """Credit-reserved placement computed once; zero migrations forever.

    Defaults to *performance* placement on mixed fleets: a static booking
    is sized for the worst case, so it books the biggest machines first.
    """

    name = "static"

    def __init__(
        self,
        *,
        reserve_percent: float = 100.0,
        placement: str | None = None,
    ) -> None:
        self.reserve_percent = check_positive(reserve_percent, "reserve_percent")
        self._order = _placement_order(placement, "performance")
        self._assignment: dict[str, str] | None = None

    def plan(self, machines, vms, *, time, epoch_index, epoch_s, dvfs) -> EpochPlan:
        if self._assignment is None or set(self._assignment) != {v.name for v in vms}:
            self._assignment = pack_first_fit(
                self._order(machines),
                vms,
                lambda vm: vm.credit,
                limit_percent=self.reserve_percent,
            )
        return EpochPlan(assignment=self._assignment)


class ConsolidatePolicy(OrchestrationPolicy):
    """Demand-aware incremental packing with host power-off/on hysteresis.

    Three incremental rules instead of wholesale repacking (a fresh FFD
    every epoch would migrate half the fleet on every demand wiggle):

    * **spill** — a host whose demand exceeds ``spill_percent`` sheds its
      largest VMs to hosts with headroom (powering one on if none has any)
      until it is back under ``target_percent``; immediate, no hysteresis,
      because unserved demand is an SLA breach *now*;
    * **drain** — when a first-fit packing says the fleet would fit on
      fewer hosts for ``hysteresis_epochs`` consecutive epochs, the
      least-loaded host is drained (one host per epoch) and powers off;
    * otherwise — do nothing: the explicit no-churn default.

    Defaults to *efficiency* placement on mixed fleets: consolidation
    exists to cut watts, so it fills the cheapest machines (full-load W
    per capacity percent) first and wakes the big burners last.
    """

    name = "consolidate"

    def __init__(
        self,
        *,
        target_percent: float = 75.0,
        spill_percent: float = 88.0,
        hysteresis_epochs: int = 3,
        placement: str | None = None,
    ) -> None:
        self._order = _placement_order(placement, "efficiency")
        self.target_percent = check_positive(target_percent, "target_percent")
        self.spill_percent = check_positive(spill_percent, "spill_percent")
        if spill_percent <= target_percent:
            raise ConfigurationError(
                f"spill_percent ({spill_percent}) must exceed target_percent "
                f"({target_percent}) or every epoch would both spill and drain"
            )
        if hysteresis_epochs < 1:
            raise ConfigurationError(
                f"hysteresis_epochs must be >= 1, got {hysteresis_epochs}"
            )
        self.hysteresis_epochs = hysteresis_epochs
        self._shrink_streak = 0

    def plan(self, machines, vms, *, time, epoch_index, epoch_s, dvfs) -> EpochPlan:
        return self._place(
            machines, vms, _demands(vms, time), current_assignment(machines)
        )

    def _place(
        self,
        machines: Sequence[Machine],
        vms: Sequence[ClusterVM],
        demands: Mapping[str, float],
        current: Assignment,
    ) -> EpochPlan:
        """The placement half of :meth:`plan`, from this epoch's *demands*."""
        if set(current) != {vm.name for vm in vms}:
            # First epoch, or the VM population changed: pack from scratch.
            self._shrink_streak = 0
            return EpochPlan(
                assignment=pack_first_fit(
                    self._order(machines),
                    vms,
                    lambda vm: demands[vm.name],
                    limit_percent=self.target_percent,
                )
            )
        state = _FleetState(
            machines, vms, demands, current, order=self._order(machines)
        )
        moved = self._spill(state)
        if moved:
            self._shrink_streak = 0
            return EpochPlan(assignment=state.assignment)
        desired_hosts = _hosts_used(
            pack_first_fit(
                self._order(machines),
                vms,
                lambda vm: demands[vm.name],
                limit_percent=self.target_percent,
            )
        )
        if desired_hosts < state.used_hosts():
            self._shrink_streak += 1
            if self._shrink_streak >= self.hysteresis_epochs and self._drain(state):
                self._shrink_streak = 0
                return EpochPlan(assignment=state.assignment)
        else:
            self._shrink_streak = 0
        return EpochPlan()

    def _spill(self, state: "_FleetState") -> bool:
        """Shed load from every host above its (capacity-scaled) threshold."""
        moved = False
        for name in sorted(state.hosts()):
            while (
                state.load(name) + state.overhead(name)
                > self.spill_percent * state.capacity_scale(name)
                and len(state.vms_on(name)) > 1
            ):
                vm = max(state.vms_on(name), key=lambda v: (state.demand(v), v))
                dest = state.host_with_headroom(
                    vm, self.target_percent, exclude=name
                )
                if dest is None:
                    break
                state.move(vm, dest)
                moved = True
        return moved

    def _drain(self, state: "_FleetState") -> bool:
        """Empty the least-loaded host into the others; False if it won't fit."""
        used = [name for name in state.hosts() if state.vms_on(name)]
        if len(used) < 2:
            return False
        coldest = min(used, key=lambda name: (state.relative_load(name), name))
        staged: list[tuple[str, str]] = []
        for vm in sorted(
            state.vms_on(coldest), key=lambda v: (-state.demand(v), v)
        ):
            dest = state.host_with_headroom(
                vm, self.target_percent, exclude=coldest, powered_only=True
            )
            if dest is None:
                return False  # the drain would not fit; keep the host on
            state.move(vm, dest)
            staged.append((vm, dest))
        return bool(staged)


class LoadBalancePolicy(OrchestrationPolicy):
    """Even demand spread over the fleet, a few migrations at a time.

    When the hottest and coldest hosts drift more than
    ``imbalance_percent`` apart, up to ``max_moves_per_epoch`` VMs hop from
    hot to cold (each the VM whose demand best fills half the gap) — the
    classic iterative balancer, bounded so one noisy epoch never reshuffles
    the whole fleet.
    """

    name = "load-balance"

    def __init__(
        self, *, imbalance_percent: float = 15.0, max_moves_per_epoch: int = 2
    ) -> None:
        self.imbalance_percent = check_positive(imbalance_percent, "imbalance_percent")
        if max_moves_per_epoch < 1:
            raise ConfigurationError(
                f"max_moves_per_epoch must be >= 1, got {max_moves_per_epoch}"
            )
        self.max_moves_per_epoch = max_moves_per_epoch

    def plan(self, machines, vms, *, time, epoch_index, epoch_s, dvfs) -> EpochPlan:
        demands = _demands(vms, time)
        current = current_assignment(machines)
        if set(current) != {vm.name for vm in vms}:
            return EpochPlan(
                assignment=pack_balanced(machines, vms, lambda vm: demands[vm.name])
            )
        state = _FleetState(machines, vms, demands, current)
        moved = False
        for _ in range(self.max_moves_per_epoch):
            hosts = sorted(state.hosts())
            # Capacity-relative load, so a mixed fleet balances fill level
            # rather than absolute percent (identical on legacy fleets).
            hottest = max(hosts, key=lambda name: (state.relative_load(name), name))
            coldest = min(hosts, key=lambda name: (state.relative_load(name), name))
            gap = state.relative_load(hottest) - state.relative_load(coldest)
            if gap <= self.imbalance_percent:
                break
            scale = state.capacity_scale(hottest)
            # Strictly less than the gap: a move of exactly the gap just
            # swaps which host is hot and ping-pongs the VM forever.
            candidates = [
                vm
                for vm in state.vms_on(hottest)
                if state.fits(vm, coldest) and 0.0 < state.demand(vm) / scale < gap
            ]
            if not candidates:
                break
            # The VM whose demand lands closest to half the gap evens the
            # pair best without overshooting into a reverse imbalance.
            vm = min(
                candidates,
                key=lambda v: (abs(state.demand(v) / scale - gap / 2.0), v),
            )
            state.move(vm, coldest)
            moved = True
        if moved:
            return EpochPlan(assignment=state.assignment)
        return EpochPlan()


class PowerBudgetPolicy(ConsolidatePolicy):
    """Cluster-wide watt cap via per-host frequency steering (multi-host PAS).

    Placement is inherited from :class:`ConsolidatePolicy` (packing shrinks
    the fleet's idle-power floor, which frequency steering alone cannot
    touch); on top of it, every epoch distributes the watt budget: each
    used host starts at the P-state Listing 1.1 picks for its demand, and
    while the fleet's predicted package power exceeds the budget the
    highest-drawing host is stepped down one P-state.  The resulting
    frequency is pinned per host (floor = ceiling), so delivered power is
    never above the prediction: delivered utilisation can only fall short
    of the demand the prediction assumes, and hosts touched by this
    epoch's own migrations are predicted at full utilisation so dirty-page
    copy overhead cannot push them past the admitted draw.
    """

    name = "power-budget"

    def __init__(
        self,
        *,
        budget_w: float | None,
        target_percent: float = 75.0,
        spill_percent: float = 88.0,
        hysteresis_epochs: int = 3,
        placement: str | None = None,
    ) -> None:
        if budget_w is None:
            raise ConfigurationError(
                "the power-budget policy needs a cluster watt cap; "
                "set power_budget_w on the cluster scenario config"
            )
        super().__init__(
            target_percent=target_percent,
            spill_percent=spill_percent,
            hysteresis_epochs=hysteresis_epochs,
            placement=placement,
        )
        self.budget_w = check_positive(budget_w, "budget_w")

    def plan(self, machines, vms, *, time, epoch_index, epoch_s, dvfs) -> EpochPlan:
        demands = _demands(vms, time)
        current = current_assignment(machines)
        placement = self._place(machines, vms, demands, current)
        assignment = (
            placement.assignment if placement.assignment is not None else current
        )
        # Hosts a migration touches this epoch carry copy overhead the
        # demand numbers do not show; budget them at full utilisation.
        migrating = {
            host
            for vm_name, dest in assignment.items()
            if current.get(vm_name) not in (None, dest)
            for host in (current[vm_name], dest)
        }
        hosted: dict[str, float] = {}
        for vm_name, machine_name in assignment.items():
            hosted[machine_name] = hosted.get(machine_name, 0.0) + demands[vm_name]
        by_name = {machine.name: machine for machine in machines}
        chosen: dict[str, int] = {}
        for machine_name, demand in sorted(hosted.items()):
            machine = by_name[machine_name]
            total = demand + machine.spec.overhead_percent
            if dvfs:
                chosen[machine_name] = machine.plan_frequency(total)
            else:
                chosen[machine_name] = machine.max_freq_mhz

        def predicted(machine_name: str) -> float:
            machine = by_name[machine_name]
            total = hosted[machine_name] + machine.spec.overhead_percent
            return machine.predict_power(
                total,
                chosen[machine_name],
                full_util=machine_name in migrating,
            )

        # Only the host just stepped down changes its prediction; the cache
        # keeps *chosen*'s order, so the sum adds the same floats in the
        # same order as a fresh recomputation would.
        watts = {name: predicted(name) for name in chosen}
        while sum(watts.values()) > self.budget_w:
            candidates = [
                name for name in chosen if chosen[name] > by_name[name].min_freq_mhz
            ]
            if not candidates:
                break  # cap infeasible even at the floor; nothing left to shed
            hottest = max(candidates, key=lambda name: (watts[name], name))
            chosen[hottest] = by_name[hottest].step_down_choice(chosen[hottest])
            watts[hottest] = predicted(hottest)
        return EpochPlan(
            assignment=placement.assignment,
            freq_floors=dict(chosen),
            freq_ceilings=dict(chosen),
        )


class SpreadPolicy(OrchestrationPolicy):
    """Round-robin over the whole fleet; every machine stays on (§2.3).

    Models the pre-consolidation hosting centre: VM *i* (in name order)
    goes to machine ``i mod n``, or to the next machine round the ring
    with room for its memory.  Machines left empty are still held on, so
    a fleet with fewer VMs than machines pays their idle power.
    """

    name = "spread"

    def plan(self, machines, vms, *, time, epoch_index, epoch_s, dvfs) -> EpochPlan:
        free_mb = {machine.name: machine.spec.memory_mb for machine in machines}
        assignment: dict[str, str] = {}
        for index, vm in enumerate(sorted(vms, key=lambda v: v.name)):
            for offset in range(len(machines)):
                machine = machines[(index + offset) % len(machines)]
                if vm.memory_mb <= free_mb[machine.name]:
                    assignment[vm.name] = machine.name
                    free_mb[machine.name] -= vm.memory_mb
                    break
            else:
                raise PlacementError(
                    f"VM {vm.name!r} ({vm.memory_mb} MB) fits no machine"
                )
        return EpochPlan(
            assignment=assignment,
            hold_on=frozenset(machine.name for machine in machines),
        )


class ConsolidateFFDPolicy(OrchestrationPolicy):
    """First-fit-decreasing by memory: the classic consolidation packer (§2.3).

    VMs are packed onto as few machines as memory allows, in fleet order;
    CPU demand is ignored, and empty machines power off.  The packing
    depends on memory footprints only, so it migrates nothing once placed.
    """

    name = "consolidate-ffd"

    def plan(self, machines, vms, *, time, epoch_index, epoch_s, dvfs) -> EpochPlan:
        return EpochPlan(
            assignment=pack_first_fit(
                machines, vms, lambda vm: vm.memory_mb, limit_percent=math.inf
            )
        )


#: Orchestration policies addressable by name, in documentation order.
POLICY_REGISTRY: dict[str, type[OrchestrationPolicy]] = {
    StaticPolicy.name: StaticPolicy,
    ConsolidatePolicy.name: ConsolidatePolicy,
    LoadBalancePolicy.name: LoadBalancePolicy,
    PowerBudgetPolicy.name: PowerBudgetPolicy,
    SpreadPolicy.name: SpreadPolicy,
    ConsolidateFFDPolicy.name: ConsolidateFFDPolicy,
}


def policy_names() -> tuple[str, ...]:
    """Registered orchestration policy names, in documentation order."""
    return tuple(POLICY_REGISTRY)


def make_policy(
    name: str,
    *,
    power_budget_w: float | None = None,
    placement: str | None = None,
) -> OrchestrationPolicy:
    """Instantiate the registered policy *name*.

    ``power_budget_w`` feeds the ``power-budget`` policy (required there,
    ignored elsewhere); ``placement`` overrides the default heterogeneity
    preference of ``static``, ``consolidate`` and ``power-budget``
    (``"efficiency"`` / ``"performance"``, ``None`` keeps each policy's
    own default; the other policies take none).  Unknown names raise a
    :class:`ConfigurationError` listing the registry.
    """
    if name not in POLICY_REGISTRY:
        raise ConfigurationError(
            f"unknown orchestration policy {name!r}; "
            f"use one of: {', '.join(POLICY_REGISTRY)}"
        )
    if name == PowerBudgetPolicy.name:
        return PowerBudgetPolicy(budget_w=power_budget_w, placement=placement)
    if name in (StaticPolicy.name, ConsolidatePolicy.name):
        return POLICY_REGISTRY[name](placement=placement)
    return POLICY_REGISTRY[name]()
