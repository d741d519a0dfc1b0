"""The §5.2 calibration procedure: measuring ``cf_i`` per machine.

The paper measures, for several workloads, the load ratio
``L(freq_max)/L(freq)`` and the frequency ratio ``freq/freq_max``; by Eq. 1
their quotient is the correction factor ``cf`` of that frequency, which
Table 1 reports (at the minimum frequency) for five Grid'5000 machines.

This module replays that procedure against the simulated processors: pin a
frequency with the userspace governor, run a fixed-demand Web-app, measure
the load, and solve Eq. 1 for ``cf``.  Because the simulated substrate obeys
Eq. 1 *by construction*, the measurement recovers each catalog entry's
spec'd ``cf`` up to sampling noise — a round-trip validation of both the
procedure and the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.processor import ProcessorSpec
from ..cpu.pstate import PState
from ..hypervisor.host import Host
from ..units import check_positive
from ..workloads import ConstantLoad


@dataclass(frozen=True)
class CalibrationResult:
    """Measured cf for one (machine, frequency) pair."""

    processor: str
    freq_mhz: int
    ratio: float
    load_at_max: float
    load_at_freq: float
    cf_measured: float
    cf_spec: float

    @property
    def error(self) -> float:
        """Relative measurement error against the spec value."""
        return abs(self.cf_measured - self.cf_spec) / self.cf_spec


def measure_load(
    spec: ProcessorSpec, freq_mhz: int, demand_percent: float, *, settle: float, window: float
) -> float:
    """Mean nominal host load with *demand_percent* absolute demand at *freq_mhz*.

    The §5.2 load probe; the Eq. 1 validation runs it too.
    """
    host = Host(processor=spec, scheduler="credit", governor="userspace")
    vm = host.create_domain("load", credit=0)  # null credit: uncapped (§3.1)
    vm.attach_workload(ConstantLoad(demand_percent, injection_period=0.02))
    host.start()
    host.cpufreq.set_speed(freq_mhz)
    host.run(until=settle + window)
    return host.recorder.series("host.global_load").window(settle, settle + window).mean()


def calibrate_cf_min(
    spec: ProcessorSpec,
    *,
    demand_percent: float = 15.0,
    settle: float = 5.0,
    window: float = 30.0,
) -> CalibrationResult:
    """Measure ``cf`` at the minimum frequency (what Table 1 reports).

    *demand_percent* must fit the minimum frequency's capacity or the load
    saturates and Eq. 1 cannot be solved; 15 % fits every catalog machine.
    Probes only the maximum and minimum states.
    """
    return _calibrate(spec, spec.table().states[:1], demand_percent, settle, window)[0]


def calibrate_cf_table(
    spec: ProcessorSpec,
    *,
    demand_percent: float = 15.0,
    settle: float = 5.0,
    window: float = 30.0,
) -> list[CalibrationResult]:
    """Measure ``cf`` at every non-maximum frequency of *spec*.

    Implements §5.2: "we measured the loads L(freq) at the different freq
    processor frequencies and we drew for each workload the ratios
    L(freqmax)/L(freq) and freq/freqmax, in order to compute the cf values".
    """
    return _calibrate(spec, spec.table().states, demand_percent, settle, window)


def _calibrate(
    spec: ProcessorSpec,
    states: tuple[PState, ...],
    demand_percent: float,
    settle: float,
    window: float,
) -> list[CalibrationResult]:
    """Measure ``cf`` at each non-maximum state of *states* (each probe is its own host)."""
    check_positive(demand_percent, "demand_percent")
    max_freq = spec.table().max_state.freq_mhz
    load_at_max = measure_load(spec, max_freq, demand_percent, settle=settle, window=window)
    results = []
    for state in states:
        if state.freq_mhz == max_freq:
            continue
        load_at_freq = measure_load(
            spec, state.freq_mhz, demand_percent, settle=settle, window=window
        )
        ratio = state.freq_mhz / max_freq
        # Eq. 1: L_max / L_i = ratio * cf  =>  cf = L_max / (L_i * ratio).
        cf_measured = load_at_max / (load_at_freq * ratio)
        results.append(
            CalibrationResult(
                processor=spec.name,
                freq_mhz=state.freq_mhz,
                ratio=ratio,
                load_at_max=load_at_max,
                load_at_freq=load_at_freq,
                cf_measured=cf_measured,
                cf_spec=state.cf,
            )
        )
    return results
