"""The ordered set of P-states a processor supports.

Mirrors the kernel's ``scaling_available_frequencies``: an immutable,
ascending-by-frequency table with lookups by exact frequency and neighbours
for conservative (one-step) governors.  The paper's Listing 1.1 ("lowest
state that absorbs a given absolute load") walks this table in
:func:`repro.core.laws.compute_new_frequency`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..errors import ConfigurationError, FrequencyError
from .pstate import PState


class FrequencyTable:
    """Immutable ascending table of :class:`PState` entries.

    >>> table = FrequencyTable([PState(1600), PState(2667)])
    >>> table.min_state.freq_mhz, table.max_state.freq_mhz
    (1600, 2667)
    """

    def __init__(self, states: Sequence[PState]) -> None:
        if not states:
            raise ConfigurationError("a frequency table needs at least one P-state")
        ordered = sorted(states, key=lambda state: state.freq_mhz)
        freqs = [state.freq_mhz for state in ordered]
        if len(set(freqs)) != len(freqs):
            raise ConfigurationError(f"duplicate frequencies in table: {freqs}")
        self._states: tuple[PState, ...] = tuple(ordered)
        self._by_freq = {state.freq_mhz: state for state in ordered}

    # ------------------------------------------------------------- accessors

    @property
    def states(self) -> tuple[PState, ...]:
        """All P-states, ascending by frequency."""
        return self._states

    @property
    def min_state(self) -> PState:
        """The lowest-frequency P-state."""
        return self._states[0]

    @property
    def max_state(self) -> PState:
        """The highest-frequency P-state."""
        return self._states[-1]

    @property
    def frequencies(self) -> tuple[int, ...]:
        """All frequencies in MHz, ascending."""
        return tuple(state.freq_mhz for state in self._states)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[PState]:
        return iter(self._states)

    def __contains__(self, freq_mhz: int) -> bool:
        return freq_mhz in self._by_freq

    # --------------------------------------------------------------- lookups

    def state_for(self, freq_mhz: int) -> PState:
        """The P-state at exactly *freq_mhz*, or raise :class:`FrequencyError`."""
        try:
            return self._by_freq[freq_mhz]
        except KeyError:
            raise FrequencyError(
                f"{freq_mhz} MHz is not in the table {list(self.frequencies)}"
            ) from None

    def index_of(self, freq_mhz: int) -> int:
        """Position of *freq_mhz* in the ascending table."""
        state = self.state_for(freq_mhz)
        return self._states.index(state)

    def clamp(self, freq_mhz: int) -> PState:
        """The lowest P-state with frequency >= *freq_mhz* (max state if none)."""
        for state in self._states:
            if state.freq_mhz >= freq_mhz:
                return state
        return self.max_state

    def clamp_down(self, freq_mhz: int) -> PState:
        """The highest P-state with frequency <= *freq_mhz* (min state if none)."""
        for state in reversed(self._states):
            if state.freq_mhz <= freq_mhz:
                return state
        return self.min_state

    def step_up(self, freq_mhz: int) -> PState:
        """One P-state above *freq_mhz* (saturates at the top)."""
        index = self.index_of(freq_mhz)
        return self._states[min(index + 1, len(self._states) - 1)]

    def step_down(self, freq_mhz: int) -> PState:
        """One P-state below *freq_mhz* (saturates at the bottom)."""
        index = self.index_of(freq_mhz)
        return self._states[max(index - 1, 0)]

    def capacity_fraction(self, freq_mhz: int) -> float:
        """``ratio * cf`` of the state at *freq_mhz* (fraction of max speed)."""
        return self.state_for(freq_mhz).capacity_fraction(self.max_state.freq_mhz)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrequencyTable({list(self.frequencies)})"
