"""The fleet policy comparison's shape checks, over every registered policy.

One ``dc-diurnal-small`` grid over all six orchestration policies at the
preset's root seed — what ``repro sweep --preset dc-diurnal-small
--fixed-seed --grid '{"policy": [...]}'`` runs — must show the §2.3
headline shapes: ``power-budget`` holds its watt cap, ``consolidate``
undercuts ``static`` on energy, and ``static`` never migrates.  Each sweep
cell must also equal a direct run of the same config, so the comparison
the sweep prints is the fleet a single ``run --preset`` would simulate.
"""

import pytest

from repro.cluster.policies import policy_names
from repro.cluster.scenario import run_cluster_scenario
from repro.experiments.presets import get_preset
from repro.sweep import run_sweep, SweepGrid
from repro.sweep.metrics import cluster_metrics

PRESET = get_preset("dc-diurnal-small")


@pytest.fixture(scope="module")
def by_policy():
    grid = SweepGrid({"policy": policy_names()}, base=PRESET.config, vary_seed=False)
    results = run_sweep(grid, metrics=PRESET.metrics)
    return {cell.params["policy"]: cell.metrics for cell in results.cells}


def test_grid_covers_every_registered_policy(by_policy):
    assert list(by_policy) == list(policy_names())
    assert len(by_policy) == 6


def test_power_budget_respects_its_cap(by_policy):
    assert PRESET.config.power_budget_w == 80.0
    assert by_policy["power-budget"]["power_peak_w"] <= PRESET.config.power_budget_w


def test_consolidate_undercuts_static_on_energy(by_policy):
    assert by_policy["consolidate"]["energy_kwh"] < by_policy["static"]["energy_kwh"]


def test_static_never_migrates(by_policy):
    assert by_policy["static"]["migrations"] == 0


@pytest.mark.parametrize("policy", policy_names())
def test_cell_equals_a_direct_run(by_policy, policy):
    direct = cluster_metrics(
        run_cluster_scenario(PRESET.config.with_changes(policy=policy))
    )
    assert {key: by_policy[policy][key] for key in direct} == direct
