"""``Scheduler.switch`` overrides must match the base-class composition.

The host asks one question per scheduling decision,
:meth:`~repro.schedulers.base.Scheduler.switch`.  Its reference semantics
are the base class's composition of ``charge`` -> ``put_back``/``sleep``
-> ``pick_next`` -> ``slice_for``; the credit family overrides it with one
fused body that inlines the cap rule again.  Each registered scheduler runs
the same scripted host twice — through its own ``switch`` and through a
twin subclass forced back onto the composition — and every observable must
agree bit for bit, the scheduling and credit trace included.
"""

import pytest

from repro import Host
from repro.obs import Tracer, observed
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.workloads import ConstantLoad, LoadProfile, PiApp, WebApp

DURATION = 24.0


def _composed_twin(scheduler: Scheduler) -> Scheduler:
    """A fresh instance of *scheduler*'s class running the base composition."""
    cls = type(scheduler)
    twin_cls = type(f"Composed{cls.__name__}", (cls,), {"switch": Scheduler.switch})
    return twin_cls()


def _run(scheduler: Scheduler) -> dict:
    # PAS drives the frequency itself; the others run under ondemand so
    # P-state changes preempt slices too.
    governor = "userspace" if scheduler.name == "pas" else "ondemand"
    host = Host(scheduler=scheduler, governor=governor, seed=3)
    dom0 = host.create_domain("Dom0", credit=10, dom0=True, sedf_extra=True)
    web = host.create_domain("web", credit=20, sedf_period=0.05, sedf_extra=True)
    batch = host.create_domain("batch", credit=30)
    steady = host.create_domain("steady", credit=30, sedf_extra=True)
    # Dom0 wakes often and outranks the guests: wake preemptions.
    dom0.attach_workload(ConstantLoad(3, injection_period=0.013))
    # A thrashing web burst parks the capped guest, then drains its backlog.
    web.attach_workload(
        WebApp(LoadProfile.three_phase(4.0, 14.0, 150.0), max_backlog=1.0)
    )
    batch.attach_workload(PiApp(3.0, start_at=2.0))
    steady.attach_workload(ConstantLoad(25, start_at=1.0, stop_at=18.0))
    tracer = Tracer(categories=("sched", "credit"))
    with observed(tracer=tracer):
        host.run(until=DURATION)
    stats = host.scheduler.stats
    return {
        "energy": host.energy_joules(),
        "domain_energy": {d.name: host.domain_energy_joules(d.name) for d in host.domains},
        "charged_by_domain": dict(stats.charged_by_domain),
        "decisions": stats.decisions,
        "idle_picks": stats.idle_picks,
        "events_fired": host.engine.events_fired,
        "preemptions": host.preemptions,
        "work_done": {d.name: d.work_done for d in host.domains},
        "latency_p99": web.workload.latency.percentile(99),
        "trace": tracer.events,
    }


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_switch_matches_the_base_composition(name):
    own = make_scheduler(name)
    twin = _composed_twin(own)
    assert type(twin).switch is Scheduler.switch
    fused = _run(own)
    composed = _run(twin)
    assert fused == composed
    # The script exercises every dispatch path, so agreement means something.
    assert fused["decisions"] > fused["idle_picks"] > 0
    assert fused["preemptions"] > 0


@pytest.mark.parametrize("name", ["credit", "pas"])
def test_credit_family_runs_a_fused_switch(name):
    # Otherwise the contract above would compare the composition to itself.
    assert type(make_scheduler(name)).switch is not Scheduler.switch
