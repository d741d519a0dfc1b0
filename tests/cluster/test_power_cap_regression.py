"""Pinned reproduction of the power-budget cap overshoot.

``repro sweep --preset dc-diurnal-small --seed 11 --replicates 10`` shows
it: under the ``power-budget`` policy, some replicates peak well above the
80 W fleet budget — 91.9 W on the worst one.  That epoch (t = 40 s) is a
consolidation epoch: two VMs migrate from ``m001`` to ``m000``, and the
drained source ``m001`` still draws 23.15 W for the dirty-page copy while
``m000`` draws 68.8 W.  ``PowerBudgetPolicy.plan`` sums predicted watts
over the hosts of the *new* assignment only, so a migration source that
ends the epoch empty is never counted against the budget nor
frequency-pinned, although the orchestrator holds it on through the epoch.

The test is ``xfail(strict=True)``: it documents the defect as a
reproducible failing case, and the moment a budget-policy fix makes the
fleet respect its cap, the unexpected pass flips the suite red so the
marker (and this docstring) get retired deliberately.
"""

import pytest

from repro.cluster.scenario import run_cluster_scenario
from repro.experiments.presets import get_preset
from repro.sweep.grid import derive_cell_seed

#: Root seed 11 with `repro sweep --preset dc-diurnal-small --replicates 10`;
#: the power-budget cell's replicate 0 seed is the worst observed offender.
OFFENDING_SEED = derive_cell_seed(11, "policy=power-budget,rep=0")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: PowerBudgetPolicy.plan leaves a drained migration "
        "source out of its power sum, so a dc-diurnal-small consolidation "
        f"epoch overshoots the 80 W budget (91.9 W peak at derived seed {OFFENDING_SEED})"
    ),
)
def test_power_budget_policy_respects_fleet_cap():
    assert OFFENDING_SEED == 202060482  # pin the derivation, not just the label
    config = get_preset("dc-diurnal-small").config.with_changes(
        policy="power-budget", seed=OFFENDING_SEED
    )
    sim = run_cluster_scenario(config)
    assert config.power_budget_w == 80.0
    assert sim.peak_power_w <= config.power_budget_w
