"""The cpufreq subsystem.

Mirrors the Linux kernel component of the same name (§2.2): it owns the
processor's operating point, hosts exactly one *governor* at a time, samples
CPU utilisation on the governor's period, and applies the governor's
frequency decisions.  The hypervisor only ever touches the processor's
frequency through this object (or not at all, when the PAS scheduler drives
frequency itself — in that case cpufreq runs the ``userspace`` governor and
PAS calls :meth:`set_speed`, exactly like the paper's in-Xen implementation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from ..obs import hooks as _obs
from ..sim import Engine, PeriodicTimer
from .processor import Processor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..governors.base import Governor


class CpuFreq:
    """Governor host and frequency setter for one processor.

    Parameters
    ----------
    engine:
        The simulation engine (drives the governor's sampling timer).
    processor:
        The processor whose P-state this subsystem controls.
    busy_seconds:
        Reads the processor's busy wall seconds up to now.  The host passes
        its exact read (billed time plus the in-flight slice); the default
        reads the processor's billed counter.
    """

    def __init__(
        self,
        engine: Engine,
        processor: Processor,
        *,
        busy_seconds: Callable[[], float] | None = None,
    ) -> None:
        self._engine = engine
        self._processor = processor
        self._busy_seconds = busy_seconds or (lambda: processor.busy_seconds)
        self._governor: "Governor | None" = None
        self._timer: PeriodicTimer | None = None
        self._last_sample_time = 0.0
        self._last_busy_seconds = 0.0
        self._requests = 0
        self._last_load_percent = 0.0
        self._observers: list[Callable[[int], None]] = []
        self._pre_observers: list[Callable[[int], None]] = []
        self._min_freq: int | None = None
        self._max_freq: int | None = None

    # ------------------------------------------------------------- accessors

    @property
    def processor(self) -> Processor:
        """The processor under control."""
        return self._processor

    @property
    def governor(self) -> "Governor | None":
        """The active governor, or None before :meth:`set_governor`."""
        return self._governor

    @property
    def requests(self) -> int:
        """Total frequency requests made (including no-op repeats)."""
        return self._requests

    @property
    def last_load_percent(self) -> float:
        """Most recent sampled CPU load (nominal busy %, 0-100)."""
        return self._last_load_percent

    # ------------------------------------------------------------- governors

    def set_governor(self, governor: "Governor") -> None:
        """Install *governor* and start its sampling timer.

        Replaces any previous governor; the previous sampling timer is
        stopped first so exactly one policy is ever active.
        """
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self._governor = governor
        governor.attach(self)
        if governor.sampling_period is not None:
            self._timer = PeriodicTimer(
                self._engine,
                governor.sampling_period,
                self._sample_and_decide,
                label=f"cpufreq.{governor.name}",
            )
            self._timer.start()
        # Let static policies (performance/powersave/userspace) take effect
        # immediately instead of waiting for a sample that never comes.
        initial = governor.initial_frequency()
        if initial is not None:
            self.set_speed(initial)

    def stop(self) -> None:
        """Stop the sampling timer (used at end of experiment)."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------ frequency

    def set_policy_limits(self, min_mhz: int | None = None, max_mhz: int | None = None) -> None:
        """Constrain every future frequency request to ``[min, max]``.

        The simulated ``scaling_min_freq`` / ``scaling_max_freq`` policy
        knobs: the Table 2 platform models use the *min* limit to express how
        deep each vendor's governor is willing to clock down.
        """
        table = self._processor.table
        if min_mhz is not None:
            min_mhz = table.clamp(min_mhz).freq_mhz
        if max_mhz is not None:
            max_mhz = table.clamp_down(max_mhz).freq_mhz
        if min_mhz is not None and max_mhz is not None and min_mhz > max_mhz:
            raise ConfigurationError(
                f"policy min {min_mhz} MHz exceeds policy max {max_mhz} MHz"
            )
        self._min_freq = min_mhz
        self._max_freq = max_mhz

    @property
    def policy_limits(self) -> tuple[int | None, int | None]:
        """Current ``(min, max)`` policy limits in MHz."""
        return self._min_freq, self._max_freq

    def set_speed(self, freq_mhz: int) -> bool:
        """Apply *freq_mhz* (a table entry), within the policy limits.

        Returns True when the P-state actually changed.
        """
        self._requests += 1
        table = self._processor.table
        if self._min_freq is not None and freq_mhz < self._min_freq:
            freq_mhz = self._min_freq
        if self._max_freq is not None and freq_mhz > self._max_freq:
            freq_mhz = self._max_freq
        freq_mhz = table.state_for(freq_mhz).freq_mhz
        will_change = self._processor.table.state_for(freq_mhz) is not self._processor.state
        if will_change:
            for observer in self._pre_observers:
                observer(freq_mhz)
        changed = self._processor.set_frequency(freq_mhz)
        if changed:
            trace = _obs.TRACER
            if trace is not None:
                trace.pstate(self._engine.now, freq_mhz)
            for observer in self._observers:
                observer(freq_mhz)
        return changed

    def add_observer(self, callback: Callable[[int], None]) -> None:
        """Register *callback(new_freq_mhz)* to fire after each real change.

        The hypervisor uses this to preempt the in-flight scheduling slice:
        work accrual assumes a constant capacity during a slice, so a P-state
        change forces a re-dispatch at the new capacity.
        """
        self._observers.append(callback)

    def add_pre_observer(self, callback: Callable[[int], None]) -> None:
        """Register *callback(new_freq_mhz)* to fire just *before* a change.

        The hypervisor uses this to bill the in-flight slice prefix (or idle
        gap) into the books while the outgoing P-state is still current, so
        energy and time-in-state are billed at the state that actually ran.
        """
        self._pre_observers.append(callback)

    # ------------------------------------------------------------- sampling

    def measure_load_percent(self) -> float:
        """Nominal busy % of the processor since the previous measurement.

        "Nominal" means relative to the *current* frequency's wall-clock —
        this is what /proc/stat-style sampling sees and what the stock
        ondemand governor bases decisions on.  The ``userspace`` governor
        never samples, so the PAS control loop samples here on its own clock.
        """
        now = self._engine.now
        window = now - self._last_sample_time
        if window <= 0.0:
            return self._last_load_percent
        busy_seconds = self._busy_seconds()
        busy = busy_seconds - self._last_busy_seconds
        self._last_sample_time = now
        self._last_busy_seconds = busy_seconds
        load = max(0.0, min(100.0, 100.0 * busy / window))
        self._last_load_percent = load
        return load

    def _sample_and_decide(self, now: float) -> None:
        if self._governor is None:  # pragma: no cover - timer only runs with one
            raise ConfigurationError("cpufreq timer fired without a governor")
        load = self.measure_load_percent()
        target = self._governor.sampled(load, now)
        if target is not None:
            self.set_speed(target)
