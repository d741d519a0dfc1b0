"""The simulated physical machine.

A :class:`Host` wires together the engine, one processor, the cpufreq
subsystem with its governor, one VM scheduler, the domains and telemetry —
the same composition as a Xen box (§2).  It runs a slice-based dispatch loop:

* every scheduling decision goes through one method, :meth:`Host._switch`:
  natural slice ends, tick redispatches, wake and DVFS preemptions and
  :meth:`Host.kick` all call it.  It bills the ending slice (or idle gap),
  asks the scheduler one question —
  :meth:`~repro.schedulers.base.Scheduler.switch`, which charges and
  requeues the outgoing vCPU and names the next one with its slice — and
  arms that slice, for ``min(policy slice, time to drain its demand)``
  wall seconds;
* wall time converts to work at the processor's current ``ratio * cf`` —
  the paper's Eq. 1/2 is the substrate's definition of DVFS;
* P-state changes, wake-time preemptions and scheduler ticks all end the
  in-flight slice early (work accrual assumes constant capacity per slice);
* each interval is billed once, at its true boundary: slice end, a P-state
  change, a scheduler tick whose bookkeeping reads the books (a credit
  accounting pass, an SEDF period rollover), the end of :meth:`Host.run`,
  and the 1 s control loops that also read credits and caps.  Samplers
  never bill: the read accessors (:meth:`Host.busy_seconds`,
  :meth:`Host.cpu_seconds`, :meth:`Host.work_done`,
  :meth:`Host.energy_joules`, ...) add the open interval — the in-flight
  slice or the idle gap — to the billed counters without mutating them, so
  observing a run never moves a bit of it;
* the scheduler tick fires only where it has work to do
  (:meth:`~repro.schedulers.base.Scheduler.next_tick`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cpu import CpuFreq, Processor, ProcessorSpec, catalog
from ..errors import ConfigurationError, SchedulerError
from ..governors import Governor, make_governor
from ..obs import hooks as _obs
from ..sim import Engine, EventHandle, RngStreams
from ..telemetry import Recorder
from .domain import DOM0_CLASS, Domain, DomainConfig, GUEST_CLASS
from .load_monitor import LoadMonitor
from .vcpu import VCpu, VCpuState, WORK_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedulers.base import Scheduler


class Host:
    """A single-pCPU virtualized host.

    Parameters
    ----------
    processor:
        A :class:`ProcessorSpec` from :mod:`repro.cpu.catalog` (default: the
        paper's Optiplex 755 testbed).
    scheduler:
        A :class:`~repro.schedulers.base.Scheduler` instance or a registry
        name (``"credit"``, ``"sedf"``, ``"credit2"``, ``"pas"``).
    governor:
        A :class:`~repro.governors.base.Governor` instance or a registry name
        (``"performance"``, ``"powersave"``, ``"userspace"``, ``"ondemand"``,
        ``"conservative"``, ``"stable"``).
    monitor_period:
        Load-monitor sampling period in seconds (paper-scale: 1 s).
    seed:
        Root seed for every random stream in the run.
    """

    def __init__(
        self,
        *,
        processor: ProcessorSpec = catalog.OPTIPLEX_755,
        scheduler: "Scheduler | str" = "credit",
        governor: Governor | str = "performance",
        monitor_period: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.engine = Engine()
        self.processor = Processor(processor)
        self.cpufreq = CpuFreq(self.engine, self.processor, busy_seconds=self.busy_seconds)
        self.recorder = Recorder()
        self.rng = RngStreams(seed)

        if isinstance(scheduler, str):
            from ..schedulers.registry import make_scheduler

            scheduler = make_scheduler(scheduler)
        self.scheduler: "Scheduler" = scheduler
        self.scheduler.attach(self)

        if isinstance(governor, str):
            governor = make_governor(governor)
        self.governor: Governor = governor

        self._domains: dict[str, Domain] = {}
        #: Precomputed per-vCPU slice-event labels (f-strings per dispatch
        #: are measurable at 10^5 slices per run).
        self._slice_labels: dict[str, str] = {}
        self._monitor = LoadMonitor(self, self.recorder, period=monitor_period)

        # Dispatch-loop state: exactly one of (_current, _idle_from) is set.
        self._current: VCpu | None = None
        self._slice_start = 0.0
        self._slice_capacity = 1.0
        self._slice_end_event: EventHandle | None = None
        self._idle_from: float | None = 0.0
        self._tick_event: EventHandle | None = None
        self._started = False
        self._preemptions = 0
        #: Per-domain energy attribution (joules charged while dispatched).
        self._domain_energy: dict[str, float] = {}
        self._idle_energy = 0.0

        self.cpufreq.add_pre_observer(self._before_frequency_change)
        self.cpufreq.add_observer(self._on_frequency_change)

    # -------------------------------------------------------------- domains

    @property
    def domains(self) -> list[Domain]:
        """All domains in creation order."""
        return list(self._domains.values())

    def domain(self, name: str) -> Domain:
        """The domain called *name*."""
        try:
            return self._domains[name]
        except KeyError:
            known = ", ".join(self._domains) or "<none>"
            raise ConfigurationError(f"no domain {name!r}; have: {known}") from None

    def create_domain(
        self,
        name: str,
        credit: float,
        *,
        weight: float | None = None,
        cap: float | None = None,
        dom0: bool = False,
        sedf_period: float = 0.1,
        sedf_extra: bool = False,
    ) -> Domain:
        """Create a domain with *credit* percent of max-frequency capacity.

        The fix-credit defaults apply (weight = credit, cap = credit, null
        credit uncapped); keyword arguments override them.  ``dom0=True``
        puts the domain in the highest priority class (§5.3).
        """
        if name in self._domains:
            raise ConfigurationError(f"duplicate domain name {name!r}")
        if self._started:
            raise ConfigurationError("cannot add domains after the host has started")
        config = DomainConfig(
            credit=credit,
            weight=weight,
            cap=cap,
            priority_class=DOM0_CLASS if dom0 else GUEST_CLASS,
            sedf_period=sedf_period,
            sedf_extra=sedf_extra,
        )
        domain = Domain(name, config, self)
        self._domains[name] = domain
        self._slice_labels[name] = f"slice.{name}"
        self.scheduler.add_vcpu(domain.vcpu)
        return domain

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Install the governor, start timers and attached workloads."""
        if self._started:
            raise ConfigurationError("host already started")
        self._started = True
        self.cpufreq.set_governor(self.governor)
        if self.scheduler.tick_period is not None:
            self._tick_event = self.engine.schedule_at(
                self.scheduler.next_tick(self.engine.now),
                self._on_scheduler_tick,
                label=f"sched.{self.scheduler.name}",
            )
        self._monitor.start()
        for domain in self._domains.values():
            for workload in domain.workloads:
                workload.start()

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time *until* (auto-starts)."""
        if not self._started:
            self.start()
        self.engine.run_until(until)
        self.sync_accounting()

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    @property
    def preemptions(self) -> int:
        """Number of slices ended early by wake/DVFS/tick preemption."""
        return self._preemptions

    # -------------------------------------------------- dispatch-loop inputs

    def on_vcpu_wake(self, vcpu: VCpu) -> None:
        """A blocked vCPU acquired demand (called by its domain)."""
        scheduler = self.scheduler
        scheduler.wake(vcpu)
        current = self._current
        if current is None:
            self._switch(self.engine._now)
        elif scheduler.should_preempt(current, vcpu):
            now = self.engine._now
            self._preemptions += 1
            trace = _obs.TRACER
            if trace is not None:
                trace.sched_preempt(now, current.name, "wake")
            self._switch(now)

    def _on_scheduler_tick(self) -> None:
        # The scheduler bills the books itself when its bookkeeping needs
        # them (a credit accounting pass, an SEDF period rollover), then
        # names the next tick that has work to do.
        engine = self.engine
        now = engine._now
        scheduler = self.scheduler
        redispatch = scheduler.tick(now)
        event = self._tick_event
        engine.rearm(event, scheduler.next_tick(now), self._on_scheduler_tick, event.label)
        if redispatch:
            current = self._current
            # A tick that lands on the slice's own end instant finds
            # nothing left to cut short: that is no preemption.
            if current is not None and self._slice_end_event.time > now:
                self._preemptions += 1
                trace = _obs.TRACER
                if trace is not None:
                    trace.sched_preempt(now, current.name, "tick")
            self._switch(now)

    def _before_frequency_change(self, freq_mhz: int) -> None:
        # Bill the in-flight slice prefix (or idle gap) while the outgoing
        # P-state is still current: the prefix ran at the old state's
        # capacity *and* the old state's wattage, so billing it after the
        # flip would charge it at the wrong power and log it in the wrong
        # time-in-state bucket.
        self.sync_accounting()

    def _on_frequency_change(self, freq_mhz: int) -> None:
        # Work accrues at a constant capacity per slice; a P-state change
        # invalidates that, so end the slice and re-dispatch at the new rate.
        # A change that lands on the same effective capacity (two states with
        # equal ratio * cf) leaves the in-flight slice's accounting valid, so
        # it is not a preemption.
        current = self._current
        if current is not None and self.processor.capacity_fraction != self._slice_capacity:
            now = self.engine._now
            self._preemptions += 1
            trace = _obs.TRACER
            if trace is not None:
                trace.sched_preempt(now, current.name, "dvfs")
            self._switch(now)

    # ---------------------------------------------------- dispatch machinery

    def _on_slice_end(self) -> None:
        self._switch(self.engine._now)

    def _switch(self, now: float) -> None:
        """One scheduling decision at *now*: the host's only dispatch path.

        Bills the ending slice (or the idle gap), asks the scheduler one
        question — :meth:`~repro.schedulers.base.Scheduler.switch` charges
        and requeues the outgoing vCPU and names the next one with its
        slice — and arms that slice.  Natural slice ends, tick
        redispatches, wake and DVFS preemptions and :meth:`kick` all come
        here.
        """
        prev = self._current
        elapsed = 0.0
        runnable = False
        spare = None
        if prev is None:
            gap = now - self._idle_from
            if gap > 0:
                self._idle_energy += self.processor.account(gap, 0.0)
            self._idle_from = None
        else:
            event = self._slice_end_event
            self._slice_end_event = None
            if event.callback is None:
                # Natural slice end: the engine popped and fired this handle
                # and only we still reference it, so the next slice re-arms
                # it — the hottest allocation in a run otherwise.
                spare = event
            else:
                # Preempted: the handle is still in the heap, so it can only
                # be tombstoned — the pop loop discards it.
                event._cancelled = True
            self._current = None
            elapsed = now - self._slice_start
            if elapsed > 0:
                trace = _obs.TRACER
                if trace is not None:
                    trace.sched_slice(prev.name, self._slice_start, elapsed)
                # VCpu.consume, inlined (elapsed and capacity are positive).
                work = elapsed * self._slice_capacity
                pending = prev._pending_work - work
                prev._pending_work = pending if pending >= WORK_EPSILON else 0.0
                prev._work_done += work
                prev._cpu_seconds += elapsed
                energy = self.processor.account(elapsed, 1.0)
                name = prev.name
                domain_energy = self._domain_energy
                domain_energy[name] = domain_energy.get(name, 0.0) + energy
            # VCpu.mark_runnable / mark_blocked, inlined.
            if prev._pending_work > WORK_EPSILON:
                prev._state = VCpuState.RUNNABLE
                prev.runnable = runnable = True
            else:
                prev._state = VCpuState.BLOCKED
                prev.runnable = False
                prev._domain.notify_idle(now)
        decision = self.scheduler.switch(prev, elapsed, runnable, now)
        trace = _obs.TRACER
        engine = self.engine
        if decision is None:
            if trace is not None:
                trace.sched_pick(now, None, 0.0)
            self._idle_from = now
            if spare is not None:
                engine.release(spare)
            return
        vcpu, slice_len = decision
        if slice_len <= 0:
            raise SchedulerError(
                f"scheduler {self.scheduler.name!r} returned a non-positive slice "
                f"({slice_len}) for {vcpu.name!r}"
            )
        capacity = self.processor._capacity
        drain = vcpu._pending_work / capacity
        run_for = drain if drain < slice_len else slice_len
        if trace is not None:
            trace.sched_pick(now, vcpu.name, run_for)
        # VCpu.mark_running, inlined.
        if vcpu._state is VCpuState.BLOCKED:
            raise SchedulerError(f"cannot dispatch blocked vCPU {vcpu.name!r}")
        vcpu._state = VCpuState.RUNNING
        vcpu._dispatch_count += 1
        self._current = vcpu
        self._slice_start = now
        self._slice_capacity = capacity
        label = self._slice_labels[vcpu.name]
        if spare is None:
            self._slice_end_event = engine.schedule(run_for, self._on_slice_end, label=label)
        else:
            self._slice_end_event = engine.rearm(spare, now + run_for, self._on_slice_end, label)

    def kick(self) -> None:
        """Re-evaluate scheduling if the processor is idle.

        External policy changes (a user-level manager raising a cap, say) can
        make a parked vCPU runnable while nothing else would trigger a
        dispatch; this forces one.  A no-op while a slice is in flight — the
        next tick rebalances.
        """
        if self._current is None and self._started:
            self._switch(self.engine._now)

    # ------------------------------------------------------------ accounting

    def sync_accounting(self) -> None:
        """Bill the open interval (in-flight slice prefix or idle gap) now.

        Called at billing boundaries only: a P-state change, a credit
        accounting pass, an SEDF period rollover, the end of :meth:`run`,
        and the once-a-second control loops that also read scheduler
        state (QoS monitor, the user-level managers).  The in-flight
        slice keeps running; only its consumed prefix is billed.
        Samplers use the read accessors instead, which leave the books
        untouched.
        """
        current = self._current
        if current is not None:
            now = self.engine._now
            elapsed = now - self._slice_start
            if elapsed > 0:
                work = elapsed * self._slice_capacity
                current.consume(work, elapsed)
                energy = self.processor.account(elapsed, 1.0)
                name = current.name
                domain_energy = self._domain_energy
                domain_energy[name] = domain_energy.get(name, 0.0) + energy
                self.scheduler.charge(current, elapsed, now)
                self._slice_start = now
        else:
            idle_from = self._idle_from
            if idle_from is not None:
                now = self.engine._now
                gap = now - idle_from
                if gap > 0:
                    self._idle_energy += self.processor.account(gap, 0.0)
                self._idle_from = now

    # -------------------------------------------------------- exact reads
    #
    # Billed counter + open interval, without mutation.  Each read equals
    # what a sync_accounting() at this instant would leave in the counter,
    # bit for bit, while the run's own float stream stays untouched.

    def _open_slice(self, vcpu: VCpu) -> float:
        """Unbilled wall seconds *vcpu* has run in the in-flight slice."""
        if vcpu is self._current:
            return self.engine._now - self._slice_start
        return 0.0

    def busy_seconds(self) -> float:
        """Wall seconds with a vCPU dispatched, up to now."""
        busy = self.processor.busy_seconds
        if self._current is not None:
            busy += self.engine._now - self._slice_start
        return busy

    def cpu_seconds(self, name: str) -> float:
        """Wall seconds domain *name* has been dispatched, up to now."""
        vcpu = self.domain(name).vcpu
        return vcpu.cpu_seconds + self._open_slice(vcpu)

    def work_done(self, name: str) -> float:
        """Absolute seconds of work domain *name* has completed, up to now."""
        vcpu = self.domain(name).vcpu
        return vcpu.work_done + self._open_slice(vcpu) * self._slice_capacity

    def _open_energy(self) -> float:
        """Energy of the open interval at the current P-state."""
        now = self.engine._now
        if self._current is not None:
            return self.processor.energy_for(now - self._slice_start, 1.0)
        if self._idle_from is not None:
            return self.processor.energy_for(now - self._idle_from, 0.0)
        return 0.0

    def energy_joules(self) -> float:
        """Processor energy up to now."""
        return self.processor.energy_joules + self._open_energy()

    # -------------------------------------------------- energy attribution

    def domain_energy_joules(self, name: str) -> float:
        """Energy charged to domain *name* while dispatched, up to now.

        Attribution is at-the-meter: each slice's package energy (at the
        P-state and utilisation it ran under) goes to the domain that was
        running.  Idle-time energy is the provider's overhead
        (:attr:`idle_energy_joules`); the three always sum to
        :meth:`energy_joules`.
        """
        vcpu = self.domain(name).vcpu
        energy = self._domain_energy.get(name, 0.0)
        if vcpu is self._current:
            energy += self._open_energy()
        return energy

    @property
    def idle_energy_joules(self) -> float:
        """Energy burnt while no vCPU was dispatched, up to now."""
        if self._current is None:
            return self._idle_energy + self._open_energy()
        return self._idle_energy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self._current.name if self._current else "idle"
        return (
            f"Host({self.processor.spec.name!r}, sched={self.scheduler.name}, "
            f"gov={self.governor.name}, t={self.engine.now:.2f}, running={running})"
        )
