"""§4.1 design 2: *user level — credit and DVFS management*.

"A user level application monitors the VM loads.  Periodically, it computes
and sets the processor frequency which can accept the load, and it also
computes and sets the updated VM credits."

Unlike design 1 this manager owns the frequency (the host must run the
``userspace`` governor) and so can update credits *whenever the frequency
changes* — but it still lives outside the hypervisor, paying the same
reaction latency on every actuation.  The in-scheduler PAS (design 3) is
this loop (:class:`~repro.core.control.ControlLoop`) moved into the
scheduler tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .control import ControlLoop, UserLevelManager, require_userspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.host import Host


class UserFullManager(ControlLoop, UserLevelManager):
    """Monitors loads; sets frequency and Eq.-4 caps (§4.1 design 2).

    *host* must run the ``userspace`` governor.  Keyword arguments are the
    :class:`~repro.core.control.ControlLoop` knobs (``window``,
    ``margin_percent``, ``update_dom0``, ``use_cf``) and the
    :class:`~repro.core.control.UserLevelManager` ones (``poll_period``:
    one utilisation window per poll; ``reaction_latency_s``).
    """

    label = "user-full-manager"

    def __init__(self, host: "Host", **kwargs) -> None:
        require_userspace(host, "UserFullManager")
        super().__init__(host=host, **kwargs)
        self._decisions = 0

    @property
    def decisions(self) -> int:
        """Number of frequency+caps decisions applied (telemetry/tests)."""
        return self._decisions

    # ------------------------------------------------------------ internals

    def _poll(self, now: float) -> None:
        host = self._host
        # A billing boundary: the loop also reads scheduler state.
        host.sync_accounting()
        self._sample(host)
        decision = self._decide(host)
        if decision is not None:
            self._actuate(lambda: self._apply(*decision))

    def _apply(self, freq_mhz: int, caps: dict["Domain", float]) -> None:
        host = self._host
        # Listing 1.2's order: credits first, then the frequency.
        for domain, cap in caps.items():
            host.scheduler.set_cap(domain, cap)
        host.cpufreq.set_speed(freq_mhz)
        self._decisions += 1
        host.kick()
