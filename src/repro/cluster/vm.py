"""Cluster-level VM: booked credit, memory footprint, demand trace."""

from __future__ import annotations

import math
from typing import Callable

from ..errors import ConfigurationError
from ..units import check_percent, check_positive


class ClusterVM:
    """A VM as the consolidation layer sees it.

    Parameters
    ----------
    name:
        Unique identifier.
    credit:
        Booked share in percent of one *max-frequency* processor — the same
        SLA notion as everywhere else in the library.
    memory_mb:
        Physical memory the VM needs wherever it is placed (the §2.3
        bottleneck: this is owed even when the VM idles).
    demand:
        ``demand(epoch_time) -> percent`` of max-frequency capacity the VM
        wants at that time.  Delivery is capped at the booked credit.
    service_class:
        QoS class (``lc`` / ``be``); fleet QoS throttles only ``be`` VMs on
        machines whose ``lc`` VMs are short-served.  Inert without a fleet
        controller.
    """

    def __init__(
        self,
        name: str,
        *,
        credit: float,
        memory_mb: int,
        demand: Callable[[float], float],
        service_class: str = "be",
    ) -> None:
        if not name:
            raise ConfigurationError("VM name must be non-empty")
        if service_class not in ("lc", "be"):
            raise ConfigurationError(
                f"unknown service class {service_class!r}; use 'lc' or 'be'"
            )
        self.name = name
        self.credit = check_percent(credit, "credit", allow_zero=False)
        self.memory_mb = int(check_positive(memory_mb, "memory_mb"))
        self.service_class = service_class
        self._demand = demand
        # The last read (NaN equals no time): planning, serving and the
        # migration blackout all ask at the epoch start.
        self._read_time = math.nan
        self._read_demand = 0.0

    def demand_at(self, time: float) -> float:
        """Demand in percent at *time*, clamped to [0, credit].

        The clamp encodes fix-credit semantics at fleet scale: a VM can ask
        for at most what it bought (the thrashing case is a single-host
        scheduling problem, handled by :mod:`repro.core`).  The demand
        callable is asked once per distinct *time* in a row: a repeat read
        at the same instant returns the memoised value.
        """
        if time == self._read_time:
            return self._read_demand
        demand = self._demand(time)
        if demand < 0:
            raise ConfigurationError(
                f"VM {self.name!r} returned negative demand {demand} at t={time}"
            )
        demand = min(demand, self.credit)
        self._read_time = time
        self._read_demand = demand
        return demand

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterVM({self.name!r}, credit={self.credit}%, mem={self.memory_mb}MB)"
