"""Drift record of the host-tier goldens across the move to interval billing.

``fixtures/pre-billing-totals.json`` pins the per-series totals (and the
stress-fleet cell metrics) the per-tick fold engine rendered.  Billing each
interval at its true boundary reorders float sums, so the regenerated
fixtures may differ in low-order bits — but no total may drift by more than
1e-9 relative.  Count metrics are excluded: a tie between a tick and a
slice end no longer counts as a preemption, by design.
"""

import json
import math

import pytest

from . import cases

#: Integer counters whose value the billing change moves on purpose.
COUNT_METRICS = ("preemptions",)


def _is_count(key: str) -> bool:
    return key.rsplit("/", 1)[-1] in COUNT_METRICS


@pytest.mark.parametrize("stem", cases.HOST_TIER_STEMS)
def test_totals_agree_with_pre_billing_record(stem):
    pinned = json.loads(cases.PRE_BILLING_TOTALS.read_text())[stem]
    totals = cases.fixture_totals(stem)
    assert sorted(totals) == sorted(pinned)
    drifted = {
        key: (pinned[key], value)
        for key, value in totals.items()
        if not _is_count(key) and not math.isclose(value, pinned[key], rel_tol=1e-9)
    }
    assert not drifted, f"{stem}: totals drifted beyond 1e-9 relative: {drifted}"
