"""The httperf-style open-loop request injector (§5.1).

httperf sends requests at a configured rate regardless of whether the server
keeps up — an *open-loop* generator.  The injector converts a
:class:`~repro.workloads.profiles.LoadProfile` into batches of requests every
*injection_period* seconds.  Deterministic fluid batches by default (exact
fractional request counts); optional Poisson arrivals reproduce the bursty
behaviour of real injectors.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigurationError
from ..sim import Engine, PeriodicTimer
from ..units import check_positive
from .profiles import LoadProfile


class HttperfInjector:
    """Delivers request batches to a sink callback.

    Parameters
    ----------
    engine:
        The simulation engine.
    profile:
        The request-rate schedule.
    sink:
        ``sink(n_requests, now)`` called each batch; fractional counts are
        carried over (fluid model) so long-run rates are exact.
    injection_period:
        Seconds between batches.
    poisson:
        Draw batch sizes from a Poisson distribution instead of the exact
        fluid count (uses the stream *rng*).
    rng:
        ``random.Random`` for Poisson mode.
    on_fire:
        ``on_fire(now)`` called at every fire, retiring fire included,
        before the batch reaches *sink*; :attr:`retired` already holds
        this fire's verdict.  Observers that would otherwise run their own
        timer on the injection grid ride here instead (the Web-app's
        latency poll).
    """

    def __init__(
        self,
        engine: Engine,
        profile: LoadProfile,
        sink: Callable[[float, float], None],
        *,
        injection_period: float = 0.05,
        poisson: bool = False,
        rng=None,
        on_fire: Callable[[float], None] | None = None,
    ) -> None:
        self._engine = engine
        self._profile = profile
        self._sink = sink
        self._on_fire = on_fire
        self.injection_period = check_positive(injection_period, "injection_period")
        self._poisson = poisson
        self._rng = rng
        if poisson and rng is None:
            raise ConfigurationError("poisson mode needs an rng stream")
        self._timer = PeriodicTimer(
            engine, self.injection_period, self._fire, label="httperf", fire_immediately=True
        )
        self._carry = 0.0
        self.requests_sent = 0.0
        # O(1) amortised rate lookup: _fire times are monotone, so a phase
        # cursor replaces LoadProfile.rate_at's per-call scan.  Identical
        # rates by construction (same phase tuple, same boundaries).
        phases = profile.phases
        self._phase_starts = tuple(phase.start for phase in phases)
        self._phase_rates = tuple(phase.rate_rps for phase in phases)
        self._phase_cursor = 0
        self._retire_at = profile.end_of_activity
        self._retired = False

    @property
    def retired(self) -> bool:
        """True once the injector stopped itself at the profile's end.

        After :attr:`~repro.workloads.profiles.LoadProfile.end_of_activity`
        the rate is zero forever and a fire's only effect would be resetting
        an already-zero carry, so the timer retires instead of stepping
        no-op events through the dead tail of the run (skip-ahead: the heap
        simply never sees them).
        """
        return self._retired

    def start(self) -> None:
        """Begin injecting."""
        self._timer.start()

    def stop(self) -> None:
        """Stop injecting."""
        self._timer.stop()

    @property
    def profile(self) -> LoadProfile:
        """The rate schedule driving this injector."""
        return self._profile

    def _fire(self, now: float) -> None:
        starts = self._phase_starts
        cursor = self._phase_cursor
        last = len(starts) - 1
        while cursor < last and starts[cursor + 1] <= now:
            cursor += 1
        self._phase_cursor = cursor
        rate = self._phase_rates[cursor] if now >= starts[cursor] else 0.0
        if rate <= 0.0 and now >= self._retire_at:
            self._retired = True
            self._timer.stop()
        on_fire = self._on_fire
        if on_fire is not None:
            on_fire(now)
        if rate <= 0.0:
            self._carry = 0.0
            return
        expected = rate * self.injection_period
        if self._poisson:
            count = float(self._poisson_sample(expected))
        else:
            # Fluid model with carry: exact long-run rate even when the
            # per-batch expectation is fractional.
            total = expected + self._carry
            count = total
            self._carry = 0.0
        if count > 0:
            self.requests_sent += count
            self._sink(count, now)

    def _poisson_sample(self, mean: float) -> int:
        # Knuth's method; fine for the small per-batch means used here.
        import math

        threshold = math.exp(-mean)
        count = 0
        product = self._rng.random()
        while product > threshold:
            count += 1
            product *= self._rng.random()
        return count
