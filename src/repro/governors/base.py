"""Governor interface.

A governor is a frequency policy attached to one :class:`~repro.cpu.CpuFreq`
instance.  Sampled governors declare a ``sampling_period``; cpufreq then
measures the nominal CPU load over each period and calls :meth:`decide`.
Static policies (performance, powersave, userspace) declare no period and
only provide :meth:`initial_frequency`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from ..core import laws
from ..errors import ConfigurationError
from ..obs import hooks as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.cpufreq import CpuFreq
    from ..cpu.freq_table import FrequencyTable


class Governor(ABC):
    """Base class for every frequency policy.

    Subclasses set :attr:`name` and either override :meth:`decide` (sampled
    policies) or :meth:`initial_frequency` (static policies), or both.
    """

    #: Identifier used in experiment configs and telemetry.
    name: str = "abstract"

    #: Seconds between load samples, or None for static policies.
    sampling_period: float | None = None

    def __init__(self) -> None:
        self._cpufreq: "CpuFreq | None" = None

    # ------------------------------------------------------------- plumbing

    def attach(self, cpufreq: "CpuFreq") -> None:
        """Called by cpufreq when this governor is installed."""
        self._cpufreq = cpufreq

    @property
    def cpufreq(self) -> "CpuFreq":
        """The owning cpufreq subsystem (raises before attachment)."""
        if self._cpufreq is None:
            raise ConfigurationError(f"governor {self.name!r} is not attached to cpufreq")
        return self._cpufreq

    @property
    def table(self) -> "FrequencyTable":
        """The controlled processor's frequency table."""
        return self.cpufreq.processor.table

    # --------------------------------------------------------------- policy

    def initial_frequency(self) -> int | None:
        """Frequency to apply at install time (None = leave unchanged)."""
        return None

    @abstractmethod
    def decide(self, load_percent: float, now: float) -> int | None:
        """Return the target frequency in MHz for this sample (None = keep).

        *load_percent* is the **nominal** busy percentage of the processor
        over the last sampling period — busy wall-time over wall-time, which
        is what /proc/stat-style accounting exposes.  Policies that reason in
        absolute terms convert with the processor's ``ratio * cf``.
        """

    def sampled(self, load_percent: float, now: float) -> int | None:
        """One sampling-period step: :meth:`decide`, then trace the decision.

        cpufreq routes its sampling timer through here rather than calling
        :meth:`decide` directly, so every sampled policy's decision lands in
        the ``cpufreq``-category trace under the governor's name — including
        "keep current" (``None``) decisions, which :meth:`decide` alone
        leaves invisible.
        """
        target = self.decide(load_percent, now)
        trace = _obs.TRACER
        if trace is not None:
            trace.governor_decide(now, self.name, load_percent, target)
        return target

    # --------------------------------------------------------------- helpers

    def absolute_load_percent(self, nominal_load_percent: float) -> float:
        """Convert a nominal load sample to the paper's *absolute load*.

        ``Absolute_load = Global_load * (CurrentFreq / Freq[max]) * cf`` —
        the processor load the same demand would impose at full speed (§4.2).
        """
        processor = self.cpufreq.processor
        return laws.absolute_load(nominal_load_percent, processor.ratio, processor.cf)
