"""§4.1 design 1: *user level — credit management*.

"We let the Ondemand governor manage the processor frequency.  Then, a user
level application monitors the processor frequency, and periodically
computes and sets VM credits in order to guarantee initially allocated
credits."

This manager runs beside any frequency-autonomous governor (ondemand,
stable, conservative): every *poll_period* it reads the current P-state and
pushes Eq.-4 caps through the scheduler, *reaction latency* later — the
paper's reason to reject this design is exactly that system-call plumbing
"may lack reactivity", which the design-comparison ablation quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .control import UserLevelManager, booked_caps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.host import Host


class UserCreditManager(UserLevelManager):
    """Polls the frequency; rescales VM caps by Eq. 4 (§4.1 design 1).

    Parameters
    ----------
    host:
        The host whose scheduler's caps are managed (the scheduler must
        support caps, i.e. be the Credit family).
    update_dom0:
        Whether Dom0's cap is rescaled too.
    use_cf:
        Apply the correction factor ``cf`` in Eq. 4.
    Remaining keyword arguments (``poll_period``, ``reaction_latency_s``)
    go to :class:`~repro.core.control.UserLevelManager`.
    """

    label = "user-credit-manager"

    def __init__(
        self, host: "Host", *, update_dom0: bool = True, use_cf: bool = True, **kwargs
    ) -> None:
        super().__init__(host, **kwargs)
        self.update_dom0 = update_dom0
        self.use_cf = use_cf
        self._applied_caps = 0

    @property
    def applied_caps(self) -> int:
        """Number of cap applications performed (telemetry/tests)."""
        return self._applied_caps

    # ------------------------------------------------------------ internals

    def _poll(self, now: float) -> None:
        host = self._host
        freq_mhz = host.processor.frequency_mhz
        caps = booked_caps(host, freq_mhz, update_dom0=self.update_dom0, use_cf=self.use_cf)
        self._actuate(lambda: self._apply(caps))

    def _apply(self, caps: dict["Domain", float]) -> None:
        for domain, cap in caps.items():
            self._host.scheduler.set_cap(domain, cap)
            self._applied_caps += 1
        self._host.kick()
