"""Unit tests for the paper's proportionality laws (Eqs. 1-4, Listing 1.1)."""

import pytest

from repro import FrequencyTable, PState, catalog
from repro.core import laws
from repro.errors import ConfigurationError


def test_frequency_ratio():
    assert laws.frequency_ratio(1600, 2667) == pytest.approx(1600 / 2667)
    assert laws.frequency_ratio(2667, 2667) == 1.0


def test_frequency_ratio_above_max_rejected():
    with pytest.raises(ConfigurationError):
        laws.frequency_ratio(3000, 2667)


def test_eq1_load_at_frequency_paper_example():
    # §4.2: Fmax 3000, Fi 1500, load 10% at max -> 20% at Fi.
    assert laws.load_at_frequency(10.0, 0.5) == pytest.approx(20.0)


def test_eq1_absolute_load_inverts():
    nominal = laws.load_at_frequency(30.0, 0.6, 0.95)
    assert laws.absolute_load(nominal, 0.6, 0.95) == pytest.approx(30.0)


def test_eq2_execution_time_at_frequency():
    # Halving the frequency doubles the time (cf = 1).
    assert laws.execution_time_at_frequency(100.0, 0.5) == pytest.approx(200.0)


def test_eq2_with_cf():
    assert laws.execution_time_at_frequency(100.0, 0.5, 0.8) == pytest.approx(250.0)


def test_eq3_execution_time_at_credit_paper_example():
    # §4.2: credits 10% -> 20% halves the execution time.
    assert laws.execution_time_at_credit(100.0, 10.0, 20.0) == pytest.approx(50.0)


def test_eq4_paper_example():
    # §4.2: 20% credit, ratio 0.5, cf 1 -> 40% credit.
    assert laws.compensated_credit(20.0, 0.5) == pytest.approx(40.0)


def test_eq4_fig9_value():
    # Fig. 9: 20% at 1600/2667 -> 33.3%.
    ratio = 1600 / 2667
    assert laws.compensated_credit(20.0, ratio) == pytest.approx(33.34, abs=0.01)


def test_eq4_with_cf():
    assert laws.compensated_credit(20.0, 0.5, 0.8) == pytest.approx(50.0)


def test_eq4_may_exceed_100():
    # Listing 1.2 remark: "the sum of the VM credits may be more than 100%".
    assert laws.compensated_credit(70.0, 0.6) > 100.0


def test_eq4_round_trip_preserves_absolute_capacity():
    for ratio in (0.5, 0.6, 0.8):
        for cf in (0.8, 0.95, 1.0):
            credit = laws.compensated_credit(20.0, ratio, cf)
            assert credit * ratio * cf == pytest.approx(20.0)


def test_listing11_picks_lowest_absorbing():
    table = catalog.OPTIPLEX_755.table()
    assert laws.compute_new_frequency(table, 20.0) == 1600
    assert laws.compute_new_frequency(table, 50.0) == 1600  # 60% > 50%
    assert laws.compute_new_frequency(table, 55.0) == 1600
    assert laws.compute_new_frequency(table, 65.0) == 1867
    assert laws.compute_new_frequency(table, 95.0) == 2667


def test_listing11_strict_inequality():
    table = catalog.OPTIPLEX_755.table()
    capacity_1600 = 1600 / 2667 * 100
    # Exactly at capacity: NOT absorbed (strict >), go one state up.
    assert laws.compute_new_frequency(table, capacity_1600) == 1867


def test_listing11_saturates_at_max():
    table = catalog.OPTIPLEX_755.table()
    assert laws.compute_new_frequency(table, 99.9) == 2667
    assert laws.compute_new_frequency(table, 150.0) == 2667


def test_listing11_margin():
    table = catalog.OPTIPLEX_755.table()
    # 58% + 5 margin = 63% > 60% capacity of 1600 -> next state.
    assert laws.compute_new_frequency(table, 58.0, margin_percent=5.0) == 1867
    assert laws.compute_new_frequency(table, 58.0) == 1600


def test_listing11_cf_blind_mode():
    table = FrequencyTable([PState(1000, cf=0.5), PState(2000)])
    # With cf: capacity(1000) = 0.5 * 0.5 = 25% -> absorbs 20%, not 30%.
    assert laws.compute_new_frequency(table, 20.0) == 1000
    assert laws.compute_new_frequency(table, 30.0, use_cf=True) == 2000
    # Blind: believes capacity is 50% -> wrongly picks 1000.
    assert laws.compute_new_frequency(table, 30.0, use_cf=False) == 1000


def test_compensated_caps_for_all_domains():
    table = catalog.OPTIPLEX_755.table()
    caps = laws.compensated_caps(table, 1600, {"V20": 20.0, "V70": 70.0, "Dom0": 10.0})
    ratio = 1600 / 2667
    assert caps["V20"] == pytest.approx(20.0 / ratio)
    assert caps["V70"] == pytest.approx(70.0 / ratio)
    assert caps["Dom0"] == pytest.approx(10.0 / ratio)


def test_compensated_caps_at_max_are_original_credits():
    table = catalog.OPTIPLEX_755.table()
    caps = laws.compensated_caps(table, 2667, {"V20": 20.0})
    assert caps["V20"] == pytest.approx(20.0)


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigurationError):
        laws.load_at_frequency(-1.0, 0.5)
    with pytest.raises(ConfigurationError):
        laws.compensated_credit(20.0, 0.0)
    with pytest.raises(ConfigurationError):
        laws.execution_time_at_credit(10.0, 0.0, 20.0)
