"""The stock ``ondemand`` governor — the aggressive policy of Fig. 3.

Per the paper's description (§2.2, citing Pallipadi & Starikovskiy): jump to
the highest frequency when load is high, drop to the lowest level when CPU
utilisation falls below 20 %, and otherwise pick the cheapest frequency that
keeps utilisation under the up-threshold.

The instability the paper observes ("quite aggressive and unstable", §5.4)
needs no artificial noise here: with a 100 ms sampling window over a CPU that
is time-sliced in 30 ms quanta, the measured load is quantised (a window sees
0, 1, 2 or 3 slices of a capped VM), so successive samples straddle the
thresholds and the governor bounces between P-states.
"""

from __future__ import annotations

from ..core import laws
from ..errors import ConfigurationError
from ..units import check_percent, check_positive
from .base import Governor


class OndemandGovernor(Governor):
    """Linux-style ondemand: threshold jumps with no history (§2.2, Fig. 3).

    Parameters
    ----------
    up_threshold:
        Nominal load (%) above which the governor jumps straight to the
        maximum frequency.  Linux default is 80.
    down_threshold:
        Nominal load (%) below which the governor drops straight to the
        minimum frequency (the paper's "less than 20 %").
    sampling_period:
        Seconds between load samples.  The 10 ms default matches the
        Linux/Xen ondemand sampling rate of the paper's era and sits under
        the 30 ms scheduling quantum, so load estimates are slice-quantised
        (a window containing one whole burst reads ~100 %, the next ~0 %) —
        the mechanism behind Fig. 3's oscillations.
    sampling_down_factor:
        Linux's anti-flap tunable: after a jump to the maximum frequency,
        skip this many - 1 sampling periods before considering a decrease
        (1 = re-evaluate immediately, the stock default of the paper's era
        — and the reason Fig. 3 flaps).
    """

    name = "ondemand"

    def __init__(
        self,
        *,
        up_threshold: float = 80.0,
        down_threshold: float = 20.0,
        sampling_period: float = 0.01,
        sampling_down_factor: int = 1,
    ) -> None:
        super().__init__()
        check_percent(up_threshold, "up_threshold", allow_zero=False)
        check_percent(down_threshold, "down_threshold")
        if down_threshold >= up_threshold:
            raise ConfigurationError(
                f"down_threshold ({down_threshold}) must be below up_threshold ({up_threshold})"
            )
        if sampling_down_factor < 1:
            raise ConfigurationError(
                f"sampling_down_factor must be >= 1, got {sampling_down_factor}"
            )
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.sampling_period = check_positive(sampling_period, "sampling_period")
        self.sampling_down_factor = sampling_down_factor
        self._hold_samples = 0

    def decide(self, load_percent: float, now: float) -> int | None:
        table = self.table
        if load_percent >= self.up_threshold:
            self._hold_samples = self.sampling_down_factor - 1
            return table.max_state.freq_mhz
        if self._hold_samples > 0:
            self._hold_samples -= 1
            return None
        if load_percent < self.down_threshold:
            return table.min_state.freq_mhz
        # Mid-band: cheapest frequency that would keep nominal utilisation
        # under the up-threshold for the demand just measured.  Like Linux's
        # `target = cur * load / up_threshold`, expressed through capacities.
        absolute = self.absolute_load_percent(load_percent)
        required = absolute * 100.0 / self.up_threshold
        return laws.compute_new_frequency(table, required)
