"""The scheduler interface the host dispatch loop drives.

The host owns wall-clock mechanics (slices, events, preemption); a scheduler
owns *policy*: which runnable vCPU goes next, for how long, and how consumed
time is charged.  The contract:

* the host calls :meth:`wake` / :meth:`sleep` on demand transitions;
* :meth:`pick_next` returns the vCPU to dispatch (or None to idle) — it must
  never return a vCPU the policy forbids running (e.g. cap-parked);
* :meth:`slice_for` bounds the slice so a policy budget is never overshot;
* :meth:`charge` accounts wall-time actually consumed (the host may end a
  slice early on blocking or P-state changes);
* :meth:`switch` is the one question the host asks per scheduling
  decision: charge the outgoing vCPU, requeue or sleep it, pick the next
  and bound its slice.  The default composes the four hooks above; a
  scheduler may override it with one fused body, which must match that
  composition bit for bit;
* :meth:`tick` fires on the :attr:`tick_period` grid and returns True when
  its bookkeeping may have changed who should run, so the host re-dispatches;
  :meth:`next_tick` names the next grid instant whose tick has work to do,
  so the host fires only those.  A tick that needs the books up to date
  (a credit accounting pass, an SEDF period rollover) bills them itself
  through :meth:`~repro.hypervisor.host.Host.sync_accounting`.

Caps are mutable at runtime via :meth:`set_cap` — that is the hook the PAS
scheduler and the user-level managers (§4.1) use to enforce Eq. 4.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.host import Host
    from ..hypervisor.vcpu import VCpu


@dataclass
class SchedulerStats:
    """Counters every scheduler maintains (telemetry & tests)."""

    decisions: int = 0
    preemptions: int = 0
    idle_picks: int = 0
    charged_seconds: float = 0.0
    charged_by_domain: dict[str, float] = field(default_factory=dict)

    def charge(self, name: str, dt: float) -> None:
        """Accumulate *dt* seconds against domain *name*."""
        self.charged_seconds += dt
        self.charged_by_domain[name] = self.charged_by_domain.get(name, 0.0) + dt


class Scheduler(ABC):
    """Base class for every VM scheduler."""

    #: Identifier used in experiment configs and telemetry.
    name: str = "abstract"

    #: Seconds between :meth:`tick` calls (None = no periodic bookkeeping).
    tick_period: float | None = None

    def __init__(self) -> None:
        self._host: "Host | None" = None
        self.stats = SchedulerStats()

    # ------------------------------------------------------------- plumbing

    def attach(self, host: "Host") -> None:
        """Called once by the host before any other method."""
        if self._host is not None:
            raise SchedulerError(f"scheduler {self.name!r} attached twice")
        self._host = host

    @property
    def host(self) -> "Host":
        """The owning host (raises before attachment)."""
        if self._host is None:
            raise SchedulerError(f"scheduler {self.name!r} is not attached to a host")
        return self._host

    # ------------------------------------------------------------ membership

    @abstractmethod
    def add_vcpu(self, vcpu: "VCpu") -> None:
        """Admit a vCPU (its domain config carries the parameters)."""

    @abstractmethod
    def remove_vcpu(self, vcpu: "VCpu") -> None:
        """Forget a vCPU."""

    # ---------------------------------------------------------- state change

    @abstractmethod
    def wake(self, vcpu: "VCpu") -> None:
        """The vCPU acquired demand (blocked -> runnable)."""

    @abstractmethod
    def sleep(self, vcpu: "VCpu") -> None:
        """The vCPU drained its demand (runnable/running -> blocked)."""

    # --------------------------------------------------------------- policy

    @abstractmethod
    def pick_next(self, now: float) -> "VCpu | None":
        """Choose the next vCPU to dispatch; None to idle the processor."""

    @abstractmethod
    def slice_for(self, vcpu: "VCpu", now: float) -> float:
        """Maximum wall seconds *vcpu* may run in the upcoming slice (> 0)."""

    @abstractmethod
    def charge(self, vcpu: "VCpu", wall_dt: float, now: float) -> None:
        """Account *wall_dt* seconds actually consumed by *vcpu*."""

    def switch(
        self, prev: "VCpu | None", elapsed: float, runnable: bool, now: float
    ) -> "tuple[VCpu, float] | None":
        """One scheduling decision at *now*: ``(next vCPU, slice)`` or None to idle.

        *prev* is the vCPU whose slice just ended (None when the processor
        was idle), *elapsed* the wall seconds it ran and *runnable* whether
        it still has demand; the host has already billed the slice and
        marked *prev*'s state.  The reference semantics, which overrides
        must reproduce exactly: :meth:`charge` (when *elapsed* > 0), then
        :meth:`put_back` or :meth:`sleep`, then :meth:`pick_next` and
        :meth:`slice_for`.
        """
        if prev is not None:
            if elapsed > 0:
                self.charge(prev, elapsed, now)
            if runnable:
                self.put_back(prev)
            else:
                self.sleep(prev)
        vcpu = self.pick_next(now)
        if vcpu is None:
            return None
        return vcpu, self.slice_for(vcpu, now)

    def put_back(self, vcpu: "VCpu") -> None:
        """The slice ended and *vcpu* is still runnable; requeue it.

        Default: treat like a wake.  Schedulers with distinct wake/requeue
        paths (e.g. BOOST handling) override this.
        """
        self.wake(vcpu)

    def tick(self, now: float) -> bool:
        """Periodic bookkeeping; True if the host should re-dispatch."""
        return False

    def next_tick(self, now: float) -> float:
        """Instant of the next tick with work to do, after the tick at *now*.

        Instants are the :attr:`tick_period` grid accumulated in floating
        point (``t += tick_period``), exactly as a periodic timer would
        fire them.  Default: every tick.
        """
        return now + self.tick_period

    def should_preempt(self, current: "VCpu", waking: "VCpu") -> bool:
        """True when *waking* must preempt *current* immediately."""
        return False

    # ----------------------------------------------------------- cap control

    def set_cap(self, domain: "Domain", cap_percent: float) -> None:
        """Change a domain's cap at runtime (PAS / user-level managers).

        Schedulers without a cap notion accept and ignore the call, so the
        user-level managers of §4.1 can be pointed at any scheduler.
        """

    def cap_of(self, domain: "Domain") -> float:
        """Current cap in nominal percent (0 = uncapped); default uncapped."""
        return 0.0

    def set_weight(self, domain: "Domain", weight: float) -> None:
        """Change a domain's proportional-share weight at runtime.

        The QoS controllers boost latency-critical domains through this
        knob; schedulers without a weight notion accept and ignore it.
        """

    def weight_of(self, domain: "Domain") -> float:
        """Current weight (0 = this scheduler has no weight notion)."""
        return 0.0
