"""Observing a run must not move a bit of it, and the books must balance.

A probe timer at an odd period (13.7 ms, off every grid the simulation
uses) calls every exact-read accessor of the host.  The reads are pure, so
the full export must stay byte-identical to the golden fixture, and at
every probe the open-interval books must conserve:

* per-domain energy + idle energy = processor energy (1e-12 relative);
* per-domain CPU seconds sum to busy seconds, which never exceed elapsed.
"""

import math

import pytest

from repro.experiments import scenario
from repro.sim import PeriodicTimer

from . import cases

PROBE_PERIOD = 0.0137


def _check_books(host, now: float) -> None:
    names = [domain.name for domain in host.domains]
    for name in names:
        host.work_done(name)
    energy = host.energy_joules()
    charged = math.fsum(host.domain_energy_joules(name) for name in names)
    assert math.isclose(charged + host.idle_energy_joules, energy, rel_tol=1e-12)
    busy = host.busy_seconds()
    used = math.fsum(host.cpu_seconds(name) for name in names)
    assert math.isclose(used, busy, rel_tol=1e-12, abs_tol=1e-12)
    assert busy <= now * (1 + 1e-12)


@pytest.mark.parametrize("stem", ["paper-5.3", "mixed-guests.pas"])
def test_probing_every_read_leaves_the_export_byte_identical(stem, monkeypatch):
    probes, hosts = [], []
    build = scenario.build_scenario

    def probed_build(config):
        host = build(config)
        hosts.append(host)

        def probe(now):
            _check_books(host, now)
            probes.append(now)

        PeriodicTimer(host.engine, PROBE_PERIOD, probe, label="probe").start()
        return host

    monkeypatch.setattr(scenario, "build_scenario", probed_build)
    rendered = cases.scenario_csv(stem)
    assert len(probes) >= int(hosts[0].now / PROBE_PERIOD) - 1
    assert rendered == (cases.FIXTURE_DIR / f"{stem}.series.csv").read_text()
