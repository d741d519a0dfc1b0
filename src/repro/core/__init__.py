"""The paper's contribution (subsystem S6): the Power-Aware Scheduler.

Four pieces, matching §4:

* :mod:`~repro.core.laws` — the proportionality laws (Eqs. 1–4) and the
  frequency-selection rule (Listing 1.1), as pure functions;
* :mod:`~repro.core.control` — the §4.1 control loop on top of them,
  written once for all three designs;
* :class:`~repro.core.pas.PasScheduler` — the in-hypervisor implementation
  (§4.1 design 3, the one the paper evaluates): a Credit scheduler whose
  tick runs the control loop;
* :class:`~repro.core.user_credit_manager.UserCreditManager` and
  :class:`~repro.core.user_full_manager.UserFullManager` — the two
  user-level designs of §4.1 (credit-only under an autonomous governor, and
  credit+DVFS management), kept for the design-comparison ablation.
"""

from . import laws
from .pas import PasScheduler
from .user_credit_manager import UserCreditManager
from .user_full_manager import UserFullManager

__all__ = ["laws", "PasScheduler", "UserCreditManager", "UserFullManager"]
