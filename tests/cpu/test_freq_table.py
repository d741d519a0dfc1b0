"""Unit tests for the frequency table."""

import pytest

from repro import FrequencyTable, PState
from repro.core import laws
from repro.errors import ConfigurationError, FrequencyError


@pytest.fixture
def table() -> FrequencyTable:
    return FrequencyTable([PState(f) for f in (2667, 1600, 2133, 1867, 2400)])


def test_states_sorted_ascending(table):
    assert table.frequencies == (1600, 1867, 2133, 2400, 2667)


def test_min_max(table):
    assert table.min_state.freq_mhz == 1600
    assert table.max_state.freq_mhz == 2667


def test_len_and_iter(table):
    assert len(table) == 5
    assert [s.freq_mhz for s in table] == [1600, 1867, 2133, 2400, 2667]


def test_contains(table):
    assert 1867 in table
    assert 1700 not in table


def test_state_for_exact(table):
    assert table.state_for(2133).freq_mhz == 2133


def test_state_for_unknown_raises(table):
    with pytest.raises(FrequencyError):
        table.state_for(9999)


def test_index_of(table):
    assert table.index_of(1600) == 0
    assert table.index_of(2667) == 4


def test_empty_table_rejected():
    with pytest.raises(ConfigurationError):
        FrequencyTable([])


def test_duplicate_frequencies_rejected():
    with pytest.raises(ConfigurationError):
        FrequencyTable([PState(1600), PState(1600)])


def test_clamp_rounds_up(table):
    assert table.clamp(1700).freq_mhz == 1867
    assert table.clamp(1600).freq_mhz == 1600


def test_clamp_above_max_saturates(table):
    assert table.clamp(9000).freq_mhz == 2667


def test_clamp_down_rounds_down(table):
    assert table.clamp_down(2300).freq_mhz == 2133
    assert table.clamp_down(2400).freq_mhz == 2400


def test_clamp_down_below_min_saturates(table):
    assert table.clamp_down(100).freq_mhz == 1600


def test_step_up_and_saturation(table):
    assert table.step_up(1600).freq_mhz == 1867
    assert table.step_up(2667).freq_mhz == 2667


def test_step_down_and_saturation(table):
    assert table.step_down(2667).freq_mhz == 2400
    assert table.step_down(1600).freq_mhz == 1600


def test_capacity_fraction(table):
    assert table.capacity_fraction(1600) == pytest.approx(1600 / 2667)
    assert table.capacity_fraction(2667) == pytest.approx(1.0)


# Listing 1.1 on this table.  The rule lives once, in
# ``laws.compute_new_frequency``; these cases pin it on the shuffled-input
# table above.


def test_lowest_absorbing_picks_first_sufficient(table):
    # Listing 1.1: capacity must STRICTLY exceed the load.
    assert laws.compute_new_frequency(table, 50.0) == 1600  # 60% > 50%


def test_lowest_absorbing_strict_inequality(table):
    capacity_1600 = 1600 / 2667 * 100
    assert laws.compute_new_frequency(table, capacity_1600) == 1867


def test_lowest_absorbing_with_margin(table):
    # 58% + 5 margin = 63% > 60% capacity of 1600 -> next state.
    assert laws.compute_new_frequency(table, 58.0, margin_percent=5.0) == 1867
    assert laws.compute_new_frequency(table, 58.0) == 1600


def test_lowest_absorbing_saturates_at_max(table):
    assert laws.compute_new_frequency(table, 99.9) == 2667
    assert laws.compute_new_frequency(table, 150.0) == 2667


def test_lowest_absorbing_respects_cf():
    table = FrequencyTable([PState(1000, cf=0.5), PState(2000)])
    # capacity of 1000 = 0.5 * 0.5 = 25%.
    assert laws.compute_new_frequency(table, 20.0) == 1000
    assert laws.compute_new_frequency(table, 30.0) == 2000
