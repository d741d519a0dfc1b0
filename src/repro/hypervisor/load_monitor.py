"""Per-domain and host-wide load sampling.

Implements the measurement vocabulary of §4.2:

* ``VM global load`` — the domain's contribution to processor load: its
  dispatched wall-time over the sampling window, in percent;
* ``VM load`` — the domain's load relative to its *allocated credit*
  (``VM_global_load = VM_load * VM_credit`` in the paper's notation);
* ``Global load`` — the sum over domains (equivalently the processor's busy
  fraction);
* ``Absolute load`` — ``Global_load * (CurrentFreq / Freq[max]) * cf`` —
  what the same demand would load the processor at full speed;
* per-domain ``absolute load`` — the domain's global load scaled the same
  way (Figs. 5/7/10 plot exactly this).

Samples land in a :class:`~repro.telemetry.Recorder` under
``{domain}.global_load``, ``{domain}.vm_load``, ``{domain}.absolute_load``,
``host.global_load``, ``host.absolute_load``, ``host.freq_mhz``,
``host.power_w`` and ``host.energy_j``.  Raw samples are stored; the paper's
3-sample averaging is applied at read time (:func:`repro.telemetry.rolling_mean`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import PeriodicTimer
from ..telemetry import Recorder
from ..units import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .host import Host


class LoadMonitor:
    """Samples domain and host loads every *period* seconds (default 1 s)."""

    def __init__(self, host: "Host", recorder: Recorder, *, period: float = 1.0) -> None:
        self._host = host
        self._recorder = recorder
        self._period = check_positive(period, "period")
        self._timer = PeriodicTimer(
            host.engine, self._period, self._sample, label="load-monitor"
        )
        self._last_cpu_seconds: dict[str, float] = {}
        self._last_energy = 0.0

    @property
    def period(self) -> float:
        """Sampling period in seconds."""
        return self._period

    def start(self) -> None:
        """Begin sampling (aligned to multiples of the period)."""
        host = self._host
        for domain in host.domains:
            self._last_cpu_seconds[domain.name] = host.cpu_seconds(domain.name)
        self._last_energy = host.energy_joules()
        self._timer.start()

    def stop(self) -> None:
        """Stop sampling."""
        self._timer.stop()

    # ------------------------------------------------------------ internals

    def _sample(self, now: float) -> None:
        # Exact reads: the open interval counts, and nothing is billed.
        host = self._host
        processor = host.processor
        scale = processor.ratio * processor.cf

        total_global = 0.0
        for domain in host.domains:
            used = host.cpu_seconds(domain.name)
            last = self._last_cpu_seconds.get(domain.name, 0.0)
            self._last_cpu_seconds[domain.name] = used
            global_load = 100.0 * (used - last) / self._period
            global_load = max(0.0, min(100.0, global_load))
            total_global += global_load
            prefix = domain.name
            self._recorder.record(f"{prefix}.global_load", now, global_load)
            self._recorder.record(f"{prefix}.absolute_load", now, global_load * scale)
            if domain.credit > 0:
                vm_load = 100.0 * global_load / domain.credit
                self._recorder.record(f"{prefix}.vm_load", now, vm_load)

        total_global = min(100.0, total_global)
        energy = host.energy_joules()
        self._recorder.record("host.global_load", now, total_global)
        self._recorder.record("host.absolute_load", now, total_global * scale)
        self._recorder.record("host.freq_mhz", now, float(processor.frequency_mhz))
        self._recorder.record("host.power_w", now, (energy - self._last_energy) / self._period)
        self._recorder.record("host.energy_j", now, energy)
        self._last_energy = energy
