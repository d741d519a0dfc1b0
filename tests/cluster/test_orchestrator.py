"""Orchestrator telemetry series and migration determinism.

The determinism contract extends PR 3's to the fleet layer: the same seed
produces byte-identical per-epoch CSV series, and sweeps of cluster presets
export byte-identically serial vs parallel and cold vs store-resumed.
"""

import pytest

from repro.cluster import ClusterScenarioConfig, run_cluster_scenario
from repro.experiments import preset_grid
from repro.store import ExperimentStore
from repro.sweep import SweepGrid, SweepRunner
from repro.telemetry.export import records_to_csv

#: A fleet whose policies migrate (day shapes + load-balance churn).
CONFIG = ClusterScenarioConfig(
    n_machines=5,
    n_vms=12,
    duration=200.0,
    day_length=200.0,
    vm_credit=30.0,
    vm_memory_mb=2048,
    dayshapes=("diurnal-office", "flash-crowd", "noisy-neighbor"),
    dayshape_scale=0.6,
    policy="consolidate",
    seed=21,
)


def epoch_csv(config):
    return records_to_csv(run_cluster_scenario(config).epoch_records())


# ----------------------------------------------------------------- series


def test_epoch_records_one_row_per_epoch():
    sim = run_cluster_scenario(CONFIG)
    records = sim.epoch_records()
    assert len(records) == 20
    assert records[0]["epoch"] == 0
    assert records[-1]["time"] == pytest.approx(200.0)
    expected_keys = {
        "epoch",
        "time",
        "machines_on",
        "demand_percent",
        "served_percent",
        "sla_fraction",
        "energy_joules",
        "power_w",
        "migrations",
    }
    assert all(set(record) == expected_keys for record in records)


def test_epoch_records_route_through_records_to_csv():
    text = epoch_csv(CONFIG)
    lines = text.splitlines()
    assert lines[0].startswith("epoch,time,machines_on,")
    assert len(lines) == 21  # header + one row per epoch


def test_power_column_is_energy_over_epoch():
    sim = run_cluster_scenario(CONFIG)
    for stat in sim.stats:
        assert stat.power_w == pytest.approx(stat.energy_joules / sim.epoch_s)


def test_host_records_cover_every_machine_every_epoch():
    sim = run_cluster_scenario(CONFIG)
    records = sim.host_records()
    assert len(records) == 20 * CONFIG.n_machines
    first_epoch = records[: CONFIG.n_machines]
    assert [record["machine"] for record in first_epoch] == [
        f"m{i:03d}" for i in range(CONFIG.n_machines)
    ]
    on = [record for record in records if record["powered_on"]]
    assert all(record["power_w"] > 0.0 for record in on)


def test_migration_records_match_epoch_counts():
    sim = run_cluster_scenario(CONFIG.with_changes(policy="load-balance"))
    assert sim.total_migrations > 0
    assert len(sim.migration_records()) == sim.total_migrations
    assert sum(stat.migrations for stat in sim.stats) == sim.total_migrations


# ------------------------------------------------------------ determinism


def test_same_seed_same_epoch_csv_bytes():
    assert epoch_csv(CONFIG) == epoch_csv(CONFIG)


def test_different_seed_different_epochs():
    assert epoch_csv(CONFIG) != epoch_csv(CONFIG.with_changes(seed=22))


@pytest.mark.parametrize("policy", ["consolidate", "load-balance", "power-budget"])
def test_migrating_policies_are_deterministic(policy):
    config = CONFIG.with_changes(policy=policy, power_budget_w=200.0)
    a = run_cluster_scenario(config)
    b = run_cluster_scenario(config)
    assert a.migration_records() == b.migration_records()
    assert records_to_csv(a.host_records()) == records_to_csv(b.host_records())


def _policy_grid():
    return SweepGrid(
        {"policy": ["static", "consolidate", "load-balance", "power-budget"]},
        base=CONFIG.with_changes(power_budget_w=200.0),
        vary_seed=True,
    )


def test_cluster_sweep_serial_vs_parallel_byte_identical():
    serial = SweepRunner(_policy_grid(), workers=1).run()
    parallel = SweepRunner(_policy_grid(), workers=2).run()
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()


def test_cluster_sweep_cold_vs_store_resumed_byte_identical(tmp_path):
    store = ExperimentStore(tmp_path / "store")
    cold = SweepRunner(_policy_grid(), workers=1, store=store).run()
    warm_runner = SweepRunner(_policy_grid(), workers=2, store=store)
    warm = warm_runner.run()
    assert warm_runner.cache_hits == len(cold)
    assert warm_runner.computed == 0
    assert warm.to_json() == cold.to_json()


def test_cluster_preset_sweep_resumes_across_worker_counts(tmp_path):
    store = ExperimentStore(tmp_path / "store")
    grid = preset_grid("dc-diurnal-small")
    cold = SweepRunner(grid, metrics=("fleet", "cluster"), workers=2, store=store).run()
    warm = SweepRunner(
        preset_grid("dc-diurnal-small"), metrics=("fleet", "cluster"), store=store
    )
    assert warm.run().to_json() == cold.to_json()
    assert warm.cache_hits == len(cold)
