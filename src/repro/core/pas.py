"""The Power-Aware Scheduler (PAS) — in-hypervisor implementation (§4).

This is §4.1's third design, the one the paper evaluates: "implement it as an
extension of the VM scheduler.  DVFS and VM credit computations and
adaptations are then performed each time a scheduling decision is made."

Concretely, PAS extends the Credit scheduler.  On its tick it:

1. measures the processor's nominal load and converts it to the *absolute
   load* (``load * ratio * cf``, Eq. 1), keeping the paper's average of
   three successive utilisation samples (footnote 5);
2. computes the lowest frequency whose capacity absorbs the absolute load
   (Listing 1.1 / :func:`repro.core.laws.compute_new_frequency`);
3. rescales every domain's cap to ``C_init / (ratio * cf)`` (Eq. 4 /
   Listing 1.2) — active VMs get their lost capacity back, lazy VMs get a
   meaningless-but-harmless higher limit, and **no VM can ever consume more
   absolute capacity than it was sold**, which is what lets the frequency
   stay down (§3.2's design principles);
4. applies the new frequency through cpufreq (Listing 1.2 sets credits
   first, then the frequency — same order here).

PAS owns the frequency, so the host must run the ``userspace`` governor
(enforced at the first tick), mirroring how the real implementation bypasses
Xen's governors.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigurationError
from ..schedulers.credit import CreditScheduler
from ..units import check_non_negative, check_positive
from . import laws


class PasScheduler(CreditScheduler):
    """Credit scheduler + DVFS-aware credit enforcement (the contribution).

    Parameters
    ----------
    sample_period:
        Seconds of load history per utilisation sample (paper-scale: 1 s).
    window:
        Successive samples averaged (paper: 3).
    margin_percent:
        Optional head-room added to the absolute load before frequency
        selection (0 = the paper's strict ``>`` comparison).
    update_dom0:
        Whether Dom0's cap is rescaled too (the paper rescales every VM the
        scheduler manages; Dom0 is one of them).
    use_cf:
        Apply the per-P-state correction factor ``cf`` (True, the paper's
        algorithm).  False is the cf-blind ablation.
    Remaining keyword arguments go to :class:`CreditScheduler`.
    """

    name = "pas"

    def __init__(
        self,
        *,
        sample_period: float = 1.0,
        window: int = 3,
        margin_percent: float = 0.0,
        update_dom0: bool = True,
        use_cf: bool = True,
        **credit_kwargs,
    ) -> None:
        super().__init__(**credit_kwargs)
        self.sample_period = check_positive(sample_period, "sample_period")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self.margin_percent = check_non_negative(margin_percent, "margin_percent")
        self.update_dom0 = update_dom0
        self.use_cf = use_cf
        self._samples: deque[float] = deque(maxlen=window)
        self._last_sample_time = 0.0
        self._last_busy_seconds = 0.0
        self._governor_checked = False
        self._freq_updates = 0
        self._cap_updates = 0

    # ------------------------------------------------------------------ tick

    def tick(self, now: float) -> bool:
        """Credit bookkeeping plus the PAS control loop (Listings 1.1/1.2)."""
        hint = super().tick(now)
        if not self._governor_checked:
            self._require_userspace_governor()
        if self._tick_due(now):
            self._take_sample(now)
            if self._update_dvfs_and_credits():
                hint = True
        return hint

    def _tick_due(self, now: float) -> bool:
        """A utilisation sample is due (one per *sample_period*)."""
        return now - self._last_sample_time >= self.sample_period - 1e-9

    def _require_userspace_governor(self) -> None:
        governor = self.host.governor
        if governor.name != "userspace":
            raise ConfigurationError(
                "the PAS scheduler drives the frequency itself and needs the "
                f"'userspace' governor, but the host runs {governor.name!r}; "
                "build the host with governor='userspace'"
            )
        self._governor_checked = True

    # -------------------------------------------------------------- sampling

    def _take_sample(self, now: float) -> None:
        host = self.host
        processor = host.processor
        busy_seconds = host.busy_seconds()
        window_dt = now - self._last_sample_time
        busy = busy_seconds - self._last_busy_seconds
        self._last_sample_time = now
        self._last_busy_seconds = busy_seconds
        if window_dt <= 0:
            return
        nominal = max(0.0, min(100.0, 100.0 * busy / window_dt))
        cf = processor.cf if self.use_cf else 1.0
        self._samples.append(laws.absolute_load(nominal, processor.ratio, cf))

    @property
    def averaged_absolute_load(self) -> float:
        """Mean of retained absolute-load samples — the paper's footnote 5."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    # --------------------------------------------------- Listings 1.1 / 1.2

    def compute_new_frequency(self) -> int:
        """Listing 1.1 on the averaged absolute load."""
        return laws.compute_new_frequency(
            self.host.processor.table,
            self.averaged_absolute_load,
            margin_percent=self.margin_percent,
            use_cf=self.use_cf,
        )

    def _update_dvfs_and_credits(self) -> bool:
        """Listing 1.2: recompute caps for the new frequency, then apply it."""
        if len(self._samples) < self.window:
            return False
        host = self.host
        new_freq = self.compute_new_frequency()
        initial_credits = {
            domain.name: domain.credit
            for domain in host.domains
            if (self.update_dom0 or not domain.is_dom0) and domain.credit > 0
        }
        new_caps = laws.compensated_caps(
            host.processor.table, new_freq, initial_credits, use_cf=self.use_cf
        )
        changed = False
        for domain in host.domains:
            cap = new_caps.get(domain.name)
            if cap is None:
                continue
            if abs(self.cap_of(domain) - cap) > 1e-9:
                self.set_cap(domain, cap)
                self._cap_updates += 1
                changed = True
        if host.cpufreq.set_speed(new_freq):
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
