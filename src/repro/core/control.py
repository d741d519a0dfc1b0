"""The §4.1 control law, written once for the paper's three designs.

Sample the nominal load, convert it to the absolute load (Eq. 1), average
three samples (footnote 5), pick the lowest absorbing P-state (Listing 1.1)
and rescale the booked domains' caps by Eq. 4 (Listing 1.2).  Design 1 runs
only the caps step (:func:`booked_caps`) beside an autonomous governor;
design 2 runs the whole :class:`ControlLoop` from a user-level timer
(:class:`UserLevelManager`); PAS, design 3, runs it from the scheduler tick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from ..sim import PeriodicTimer
from ..units import check_non_negative, check_positive
from . import laws

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.host import Host


def booked_caps(
    host: "Host", freq_mhz: int, *, update_dom0: bool, use_cf: bool
) -> dict["Domain", float]:
    """Eq.-4 caps at *freq_mhz* for the booked domains, in host order.

    A domain is booked when its credit is positive (a null credit means
    uncapped, §3.1); Dom0 counts only with *update_dom0*.
    """
    credits = {
        domain: domain.credit
        for domain in host.domains
        if (update_dom0 or not domain.is_dom0) and domain.credit > 0
    }
    return laws.compensated_caps(host.processor.table, freq_mhz, credits, use_cf=use_cf)


def require_userspace(host: "Host", who: str) -> None:
    """Refuse a host whose governor would fight *who* for the frequency."""
    if host.governor.name != "userspace":
        raise ConfigurationError(
            f"{who} drives the frequency itself and needs the 'userspace' governor, "
            f"but the host runs {host.governor.name!r}; build the host with "
            "governor='userspace'"
        )


class ControlLoop:
    """Footnote-5 window → Listing 1.1 frequency → Eq.-4 caps (designs 2 and 3).

    Parameters
    ----------
    window:
        Successive samples averaged (paper footnote 5: 3).
    margin_percent:
        Head-room added to the absolute load before frequency selection
        (0 = the paper's strict ``>`` comparison).
    update_dom0:
        Whether Dom0's cap is rescaled too.
    use_cf:
        Apply the correction factor ``cf`` (False is the cf-blind ablation).
    Remaining keyword arguments go to the next class in the MRO.
    """

    def __init__(
        self,
        *,
        window: int = 3,
        margin_percent: float = 0.0,
        update_dom0: bool = True,
        use_cf: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self.margin_percent = check_non_negative(margin_percent, "margin_percent")
        self.update_dom0 = update_dom0
        self.use_cf = use_cf
        self._samples: deque[float] = deque(maxlen=window)

    @property
    def averaged_absolute_load(self) -> float:
        """Mean of the retained absolute-load samples — the paper's footnote 5."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def _sample(self, host: "Host") -> None:
        """Retain one absolute-load sample of cpufreq's nominal load (Eq. 1)."""
        processor = host.processor
        nominal = host.cpufreq.measure_load_percent()
        cf = processor.cf if self.use_cf else 1.0
        self._samples.append(laws.absolute_load(nominal, processor.ratio, cf))

    def _decide(self, host: "Host") -> tuple[int, dict["Domain", float]] | None:
        """The new frequency and caps, or None until the window is full."""
        if len(self._samples) < self.window:
            return None
        freq_mhz = laws.compute_new_frequency(
            host.processor.table,
            self.averaged_absolute_load,
            margin_percent=self.margin_percent,
            use_cf=self.use_cf,
        )
        caps = booked_caps(host, freq_mhz, update_dom0=self.update_dom0, use_cf=self.use_cf)
        return freq_mhz, caps


class UserLevelManager(ABC):
    """A §4.1 user-level design: polls on a timer, actuates after a latency.

    Parameters
    ----------
    host:
        The managed host.
    poll_period:
        Seconds between polls.
    reaction_latency_s:
        Seconds from a poll to its actuation: the user-level round trip
        through hypercalls/sysfs (why these designs "may lack reactivity").
    """

    #: Timer label, set by each design; actuations are ``<label>.apply``.
    label: str

    def __init__(
        self, host: "Host", *, poll_period: float = 1.0, reaction_latency_s: float = 0.05
    ) -> None:
        self._host = host
        self.poll_period = check_positive(poll_period, "poll_period")
        self.reaction_latency_s = check_non_negative(reaction_latency_s, "reaction_latency_s")
        self._timer = PeriodicTimer(host.engine, self.poll_period, self._poll, label=self.label)

    def start(self) -> None:
        """Begin polling."""
        self._timer.start()

    def stop(self) -> None:
        """Stop polling (pending actuations still fire)."""
        self._timer.stop()

    @abstractmethod
    def _poll(self, now: float) -> None:
        """Read the host, then :meth:`_actuate` a decision."""

    def _actuate(self, apply: Callable[[], None]) -> None:
        """Run *apply* after the reaction latency (now if it is zero)."""
        if self.reaction_latency_s > 0:
            self._host.engine.schedule(
                self.reaction_latency_s, apply, label=f"{self.label}.apply"
            )
        else:
            apply()
