"""The Power-Aware Scheduler (PAS) — in-hypervisor implementation (§4).

This is §4.1's third design, the one the paper evaluates: "implement it as an
extension of the VM scheduler.  DVFS and VM credit computations and
adaptations are then performed each time a scheduling decision is made."

Concretely, PAS extends the Credit scheduler.  On its tick it:

1. reads the processor's nominal load from cpufreq and converts it to the
   *absolute load* (``load * ratio * cf``, Eq. 1), keeping the paper's
   average of three successive utilisation samples (footnote 5);
2. computes the lowest frequency whose capacity absorbs the absolute load
   (Listing 1.1 / :func:`repro.core.laws.compute_new_frequency`);
3. rescales every domain's cap to ``C_init / (ratio * cf)`` (Eq. 4 /
   Listing 1.2) — active VMs get their lost capacity back, lazy VMs get a
   meaningless-but-harmless higher limit, and **no VM can ever consume more
   absolute capacity than it was sold**, which is what lets the frequency
   stay down (§3.2's design principles);
4. applies the new frequency through cpufreq (Listing 1.2 sets credits
   first, then the frequency — same order here).

Steps 1–3 are the shared :class:`~repro.core.control.ControlLoop`.  PAS
owns the frequency, so the host must run the ``userspace`` governor
(enforced at the first tick), as the real implementation bypasses Xen's.
"""

from __future__ import annotations

from ..schedulers.credit import CreditScheduler
from ..units import check_positive
from .control import ControlLoop, require_userspace


class PasScheduler(ControlLoop, CreditScheduler):
    """Credit scheduler + DVFS-aware credit enforcement (the contribution).

    Parameters
    ----------
    sample_period:
        Seconds of load history per utilisation sample (paper-scale: 1 s).
    Keyword arguments go to :class:`~repro.core.control.ControlLoop`
    (``window``, ``margin_percent``, ``update_dom0``, ``use_cf``; the paper
    rescales every VM the scheduler manages, Dom0 included), the rest to
    :class:`CreditScheduler`.
    """

    name = "pas"

    def __init__(self, *, sample_period: float = 1.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sample_period = check_positive(sample_period, "sample_period")
        self._last_sample_time = 0.0
        self._governor_checked = False
        self._freq_updates = 0
        self._cap_updates = 0

    # ------------------------------------------------------------------ tick

    def tick(self, now: float) -> bool:
        """Credit bookkeeping plus the PAS control loop (Listings 1.1/1.2)."""
        hint = super().tick(now)
        if not self._governor_checked:
            require_userspace(self.host, "the PAS scheduler")
            self._governor_checked = True
        if self._tick_due(now):
            self._last_sample_time = now
            self._sample(self.host)
            if self._update_dvfs_and_credits():
                hint = True
        return hint

    def _tick_due(self, now: float) -> bool:
        """A utilisation sample is due (one per *sample_period*)."""
        return now - self._last_sample_time >= self.sample_period - 1e-9

    def _update_dvfs_and_credits(self) -> bool:
        """Listing 1.2: apply the new caps first, then the new frequency."""
        decision = self._decide(self.host)
        if decision is None:
            return False
        new_freq, new_caps = decision
        changed = False
        for domain, cap in new_caps.items():
            if abs(self.cap_of(domain) - cap) > 1e-9:
                self.set_cap(domain, cap)
                self._cap_updates += 1
                changed = True
        if self.host.cpufreq.set_speed(new_freq):
            self._freq_updates += 1
            changed = True
        return changed

    # -------------------------------------------------------------- queries

    @property
    def frequency_updates(self) -> int:
        """Number of effective frequency changes PAS issued."""
        return self._freq_updates

    @property
    def cap_updates(self) -> int:
        """Number of effective per-domain cap changes PAS issued."""
        return self._cap_updates
