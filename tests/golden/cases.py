"""Golden-trace case definitions shared by the generator and the tests.

A *golden case* renders one preset's full telemetry to CSV text at full
float precision (``repr`` floats via :func:`records_to_csv`), so the
fixture captures every low-order bit the simulation produces; the golden
tests assert the engine reproduces them byte for byte.  The fleet
fixtures date from the pre-refactor dispatch engine.  The host-tier
fixtures (the scenario cases and the stress-fleet sweep) were regenerated
when the host moved from folding its books at every scheduler tick to
billing each interval at its true boundary; ``pre-billing-totals.json``
keeps their totals from before that change, and
``test_billing_drift.py`` bounds the drift at 1e-9 relative.

Regenerate (only when an intentional physics change lands) with::

    python -m tests.golden.generate_fixtures
"""

from __future__ import annotations

import pathlib

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"

#: Scenario cases: fixture stem -> (preset name, config overrides).
SCENARIO_CASES: dict[str, tuple[str, dict]] = {
    "paper-5.3": ("paper-5.3", {}),
    "mixed-guests.credit": ("mixed-guests", {"scheduler": "credit"}),
    "mixed-guests.sedf": ("mixed-guests", {"scheduler": "sedf"}),
    "mixed-guests.pas": ("mixed-guests", {"scheduler": "pas"}),
}

#: Cluster cases: fixture stem -> (preset name, config overrides).
CLUSTER_CASES: dict[str, tuple[str, dict]] = {
    "dc-diurnal-small.consolidate": ("dc-diurnal-small", {"policy": "consolidate"}),
    "dc-diurnal-small.static": ("dc-diurnal-small", {"policy": "static"}),
    "dc-diurnal-small.spread": ("dc-diurnal-small", {"policy": "spread"}),
    "dc-diurnal-small.consolidate-ffd": (
        "dc-diurnal-small",
        {"policy": "consolidate-ffd"},
    ),
    # Fewer VMs than machines: spread keeps the empty host on through
    # serving, so its idle draw lands in the fleet energy.
    "dc-diurnal-small.spread-3vm": (
        "dc-diurnal-small",
        {"policy": "spread", "n_vms": 3},
    ),
    "dc-diurnal-small.power-budget": (
        "dc-diurnal-small",
        {"policy": "power-budget"},
    ),
    "dc-diurnal-small.load-balance": (
        "dc-diurnal-small",
        {"policy": "load-balance"},
    ),
    # 32 machines over 20 epochs: spill and drain fire many times, so the
    # incremental planner's host bookkeeping is exercised at fleet scale.
    "dc-fleet-large.consolidate": ("dc-fleet-large", {"policy": "consolidate"}),
    "dc-fleet-large.power-budget": ("dc-fleet-large", {"policy": "power-budget"}),
    # Mixed fleet under its default (efficiency) placement: the planner
    # shops for headroom in a host order that is not name order.
    "dc-hetero.consolidate": ("dc-hetero", {}),
}

#: Sweep cases: fixture stem -> preset name (serial cold run, JSON export).
SWEEP_CASES: dict[str, str] = {
    "stress-fleet.sweep": "stress-fleet",
}


def scenario_csv(stem: str) -> str:
    """Render one scenario case's recorder series as full-precision CSV."""
    from repro.experiments import get_preset, run_scenario
    from repro.telemetry.export import records_to_csv

    preset_name, overrides = SCENARIO_CASES[stem]
    config = get_preset(preset_name).config.with_changes(**overrides)
    result = run_scenario(config)
    recorder = result.host.recorder
    records = [
        {"series": name, "t": t, "v": v}
        for name in recorder.names()
        for t, v in zip(recorder.series(name).times, recorder.series(name).values)
    ]
    return records_to_csv(records, fieldnames=("series", "t", "v"))


def cluster_csv(stem: str) -> str:
    """Render one cluster case's per-epoch + per-host series as CSV."""
    from repro.cluster.scenario import run_cluster_scenario
    from repro.experiments import get_preset
    from repro.telemetry.export import records_to_csv

    preset_name, overrides = CLUSTER_CASES[stem]
    config = get_preset(preset_name).config.with_changes(**overrides)
    sim = run_cluster_scenario(config)
    return (
        records_to_csv(sim.epoch_records())
        + "==host_records==\n"
        + records_to_csv(sim.host_records())
    )


def sweep_json(stem: str) -> str:
    """One sweep case's cold serial JSON export (the sweep-level contract)."""
    from repro.experiments import preset_grid
    from repro.sweep import run_sweep

    return run_sweep(preset_grid(SWEEP_CASES[stem]), workers=1).to_json()


#: Host-tier fixtures whose totals are pinned in ``pre-billing-totals.json``.
HOST_TIER_STEMS = (*SCENARIO_CASES, *SWEEP_CASES)

#: Pinned totals of the host-tier fixtures as the per-tick fold engine
#: rendered them, before interval billing landed.
PRE_BILLING_TOTALS = FIXTURE_DIR / "pre-billing-totals.json"


def fixture_totals(stem: str) -> dict[str, float]:
    """Per-series totals of a host-tier fixture on disk.

    A scenario fixture sums each series' values (``math.fsum``); the sweep
    fixture keys each numeric cell metric as ``{cell label}/{metric}``.
    """
    import csv
    import json
    import math

    if stem in SWEEP_CASES:
        doc = json.loads((FIXTURE_DIR / f"{stem}.json").read_text())
        return {
            f"{cell['label']}/{name}": float(value)
            for cell in doc["cells"]
            for name, value in sorted(cell["metrics"].items())
            if isinstance(value, (int, float))
        }
    values: dict[str, list[float]] = {}
    with open(FIXTURE_DIR / f"{stem}.series.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            values.setdefault(row["series"], []).append(float(row["v"]))
    return {name: math.fsum(series) for name, series in sorted(values.items())}


def all_cases() -> dict[str, tuple]:
    """Every fixture stem mapped to (renderer, file suffix)."""
    cases: dict[str, tuple] = {}
    for stem in SCENARIO_CASES:
        cases[stem] = (scenario_csv, ".series.csv")
    for stem in CLUSTER_CASES:
        cases[stem] = (cluster_csv, ".epochs.csv")
    for stem in SWEEP_CASES:
        cases[stem] = (sweep_json, ".json")
    return cases
