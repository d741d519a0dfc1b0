"""§5.2: verification of the two proportionality assumptions.

Three sweeps, matching the paper's validation experiments:

* **frequency vs load** (Eq. 1) — Web-app workloads at every frequency;
  the measured ``cf`` must be constant across workload intensities;
* **frequency vs execution time** (Eq. 2) — pi-app at every frequency;
  time ratios must track ``1 / (ratio * cf)``;
* **credit vs execution time** (Eq. 3) — pi-app at credits 10..100 at the
  maximum frequency; ``T * credit`` must be constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import laws
from ..cpu import catalog
from ..cpu.processor import ProcessorSpec
from ..hypervisor.host import Host
from ..platforms.calibration import measure_load
from ..workloads import PiApp
from .report import ExperimentReport


@dataclass(frozen=True)
class FrequencyLoadPoint:
    """One (workload, frequency) load measurement."""

    demand_percent: float
    freq_mhz: int
    ratio: float
    load_percent: float
    cf_measured: float


def validate_frequency_load(
    *,
    processor: ProcessorSpec = catalog.OPTIPLEX_755,
    demands: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0),
    settle: float = 5.0,
    window: float = 30.0,
) -> tuple[list[FrequencyLoadPoint], ExperimentReport]:
    """Eq. 1 validation: measured cf constant across workloads and frequencies."""
    points: list[FrequencyLoadPoint] = []
    table = processor.table()
    max_freq = table.max_state.freq_mhz
    for demand in demands:
        loads = {
            s.freq_mhz: measure_load(processor, s.freq_mhz, demand, settle=settle, window=window)
            for s in table
        }
        load_max = loads[max_freq]
        for state in table:
            ratio = state.freq_mhz / max_freq
            load = loads[state.freq_mhz]
            cf = load_max / (load * ratio) if load > 0 else float("nan")
            points.append(
                FrequencyLoadPoint(
                    demand_percent=demand,
                    freq_mhz=state.freq_mhz,
                    ratio=ratio,
                    load_percent=load,
                    cf_measured=cf,
                )
            )

    report = ExperimentReport(
        experiment="Validation (Eq. 1)",
        title="proportionality of frequency and load; cf constant across workloads",
    )
    for freq in table.frequencies:
        cfs = [p.cf_measured for p in points if p.freq_mhz == freq]
        spread = max(cfs) - min(cfs)
        spec_cf = table.state_for(freq).cf
        report.add_row(
            f"cf @ {freq} MHz",
            f"{spec_cf:.5f}",
            f"{sum(cfs) / len(cfs):.5f} (spread {spread:.5f})",
        )
        report.check(
            f"cf at {freq} MHz constant across {len(cfs)} workloads (spread < 0.02)",
            spread < 0.02,
        )
        report.check(
            f"cf at {freq} MHz within 2% of the substrate value",
            abs(sum(cfs) / len(cfs) - spec_cf) / spec_cf < 0.02,
        )
    return points, report


def pi_time_at(
    processor: ProcessorSpec, freq_mhz: int, credit: float, work: float, *, horizon: float
) -> float:
    """Pi-app time at a pinned *freq_mhz* under a *credit* cap (§5.2 probe, Fig. 1).

    Books ``min(credit, 100)``: a Fig. 1 compensated credit may exceed the
    whole processor.  Gives up at *horizon* seconds.
    """
    host = Host(processor=processor, scheduler="credit", governor="userspace")
    vm = host.create_domain("pi", credit=min(credit, 100.0), cap=credit)
    app = PiApp(work)
    vm.attach_workload(app)
    host.start()
    host.cpufreq.set_speed(freq_mhz)
    while not app.done and host.now < horizon:
        host.run(until=host.now + 100.0)
    return app.execution_time


def validate_frequency_time(
    *,
    processor: ProcessorSpec = catalog.OPTIPLEX_755,
    work: float = 30.0,
    credit: float = 50.0,
) -> ExperimentReport:
    """Eq. 2 validation: execution time ratios track 1 / (ratio * cf)."""
    table = processor.table()
    max_freq = table.max_state.freq_mhz
    report = ExperimentReport(
        experiment="Validation (Eq. 2)",
        title="proportionality of frequency and execution time (pi-app)",
    )
    time_max = pi_time_at(processor, max_freq, credit, work, horizon=4000.0)
    for state in table:
        time_i = pi_time_at(processor, state.freq_mhz, credit, work, horizon=8000.0)
        ratio = state.freq_mhz / max_freq
        expected = laws.execution_time_at_frequency(time_max, ratio, state.cf)
        report.add_row(
            f"T @ {state.freq_mhz} MHz",
            f"{expected:.1f}s (Eq. 2)",
            f"{time_i:.1f}s",
        )
        report.check(
            f"T({state.freq_mhz}) within 3% of Eq. 2 prediction",
            abs(time_i - expected) / expected < 0.03,
        )
    return report


def validate_credit_time(
    *,
    processor: ProcessorSpec = catalog.OPTIPLEX_755,
    work: float = 30.0,
    credits: tuple[float, ...] = (10.0, 20.0, 30.0, 50.0, 70.0, 100.0),
) -> ExperimentReport:
    """Eq. 3 validation: T * credit constant at fixed (max) frequency."""
    table = processor.table()
    max_freq = table.max_state.freq_mhz
    report = ExperimentReport(
        experiment="Validation (Eq. 3)",
        title="proportionality of credit and execution time (pi-app, max frequency)",
    )
    baseline_credit = credits[0]
    time_baseline = pi_time_at(processor, max_freq, baseline_credit, work, horizon=8000.0)
    for credit in credits:
        time_j = pi_time_at(processor, max_freq, credit, work, horizon=8000.0)
        expected = laws.execution_time_at_credit(time_baseline, baseline_credit, credit)
        report.add_row(
            f"T @ credit {credit:.0f}%",
            f"{expected:.1f}s (Eq. 3)",
            f"{time_j:.1f}s",
        )
        report.check(
            f"T(credit {credit:.0f}) within 3% of Eq. 3 prediction",
            abs(time_j - expected) / expected < 0.03,
        )
    return report
