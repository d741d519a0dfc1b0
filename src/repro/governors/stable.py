"""The paper's own governor — "less aggressive and more stable" (§5.4).

The authors replaced the stock ondemand governor because its oscillations
made the figures unreadable; their governor keeps ondemand's *policy* (jump
to the maximum frequency under high load, fit the cheapest sufficient
frequency otherwise) but stabilises the *inputs and cadence*:

* samples once per second, so a sample spans many scheduling quanta;
* every decision uses the **mean of three successive samples**
  (footnote 5: "each time we consider the Global load, it represents an
  average of three successive processor utilization");
* a dwell time between changes ("consequently saves less energy" but is
  stable — Fig. 4 vs Fig. 3).

The high-load jump matters for a subtle reason the credit scheduler
creates: when every VM is pinned at its cap, the processor's *measured*
absolute load can never exceed the capacity of the current P-state, so a
governor that only fits measured load to capacity stalls below the maximum
frequency.  Nominal saturation (load above the up-threshold) is the signal
that demand is being clipped, and the answer is the top P-state — exactly
ondemand's rule.
"""

from __future__ import annotations

from collections import deque

from ..core import laws
from ..errors import ConfigurationError
from ..units import check_non_negative, check_percent, check_positive
from .base import Governor


class StableGovernor(Governor):
    """The paper's stabilised ondemand variant (Figs. 4–10).

    Parameters
    ----------
    window:
        Number of successive samples averaged (paper: 3).
    up_threshold:
        Mean nominal load (%) above which the top frequency is selected
        (demand is being clipped by the current capacity).
    margin_percent:
        Head-room (absolute percentage points) a P-state's capacity must
        have above the averaged absolute load to be selected in the
        fit-to-capacity band.
    dwell:
        Minimum seconds between two frequency changes.
    sampling_period:
        Seconds between samples (paper-scale: 1 s).
    """

    name = "stable"

    def __init__(
        self,
        *,
        window: int = 3,
        up_threshold: float = 80.0,
        margin_percent: float = 5.0,
        dwell: float = 3.0,
        sampling_period: float = 1.0,
    ) -> None:
        super().__init__()
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self.up_threshold = check_percent(up_threshold, "up_threshold", allow_zero=False)
        self.margin_percent = check_non_negative(margin_percent, "margin_percent")
        self.dwell = check_non_negative(dwell, "dwell")
        self.sampling_period = check_positive(sampling_period, "sampling_period")
        #: Retained (nominal, absolute) load sample pairs.
        self._samples: deque[tuple[float, float]] = deque(maxlen=window)
        self._last_change = -float("inf")

    @property
    def averaged_nominal_load(self) -> float:
        """Mean of the retained nominal-load samples (0 before any sample)."""
        if not self._samples:
            return 0.0
        return sum(nominal for nominal, _ in self._samples) / len(self._samples)

    @property
    def averaged_absolute_load(self) -> float:
        """Mean of the retained absolute-load samples (0 before any sample)."""
        if not self._samples:
            return 0.0
        return sum(absolute for _, absolute in self._samples) / len(self._samples)

    def decide(self, load_percent: float, now: float) -> int | None:
        # Convert *this* sample at the frequency it was measured under; the
        # running mean then mixes samples taken at different P-states, which
        # is exactly what averaging absolute loads is for.
        self._samples.append((load_percent, self.absolute_load_percent(load_percent)))
        if len(self._samples) < self.window:
            return None
        if now - self._last_change < self.dwell:
            return None
        if self.averaged_nominal_load >= self.up_threshold:
            target = self.table.max_state.freq_mhz
        else:
            target = laws.compute_new_frequency(
                self.table, self.averaged_absolute_load, margin_percent=self.margin_percent
            )
        if target != self.cpufreq.processor.frequency_mhz:
            self._last_change = now
            return target
        return None
