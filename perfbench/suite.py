"""The three benchmark workloads, each runnable plain or traced.

A workload is prepared once from its seed (``prepare``) and then run in
*passes*: one pass performs the workload's fixed list of operations, checks
every output, and returns a :class:`PassResult`.  A traced pass runs the same
operations with a :class:`~repro.obs.profile.PhaseProfiler` wrapped around
public entry points from the outside, so no code under ``src/`` changes and
the simulated outputs stay identical (each pass's fingerprint proves it).

An *op* is the unit ``attempted``/``failed`` count:

* ``host-paper``: one §5.3 scenario run (a figure runner call);
* ``fleet-scale``: one fleet run;
* ``sweep-store``: one sweep cell (cold or warm) or one store query.

An op fails when it raises or fails a correctness check.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Host counts of the two fleet-scale points; the per-layer cluster metrics
#: carry them as ``.h64``/``.h256`` suffixes.
FLEET_HOSTS = (64, 256)
#: Fleet-scale shape per machine: VMs and watts of power budget.
FLEET_VMS_PER_HOST = 3
FLEET_WATTS_PER_HOST = 25.0
FLEET_POLICIES = ("consolidate", "power-budget")

#: Iterations of the machine-speed probe timed before the calls of a pass:
#: the loop of ``benchmarks/harness.py``'s calibration spin, cut to ~20 ms.
PROBE_LOOPS = 400_000
#: A call reuses the last probe when it is younger than this.
PROBE_MAX_AGE_S = 1.0

#: Store queries of the sweep-store workload: one per policy plus one
#: numeric range clause that matches every cell.
SWEEP_POLICIES = ("static", "consolidate", "load-balance", "power-budget")


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does (the benchmark uses the defaults)."""

    #: Fraction of the paper's 800 sim-s timeline the host runs simulate.
    host_time_scale: float = 1.0
    #: Orchestration epochs per fleet run.
    fleet_epochs: int = 20
    #: Replicates of the 4-policy ``dc-diurnal-small`` grid.
    sweep_replicates: int = 8
    #: Warm (lookup-only) sweep passes per cold pass.
    warm_passes: int = 8


FULL = Sizes()
#: The smallest sizes that still exercise every op and check.
TINY = Sizes(host_time_scale=0.25, fleet_epochs=2, sweep_replicates=1, warm_passes=1)


@dataclass(frozen=True)
class OpTiming:
    """The wall time of one timed call, which stands for *ops* ops."""

    #: Names the same call in every pass, so passes can be lined up.
    label: str
    wall_s: float
    ops: int
    #: Machine-seconds the call simulated (0 when it simulates nothing).
    sim_s: float
    #: Wall seconds of the machine-speed probe before the call (for a long
    #: call, the mean of the probes before and after it).
    probe_s: float


def speed_probe() -> float:
    """Wall seconds of a fixed pure-Python loop: how fast the machine is now."""
    began = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i & 7
    return time.perf_counter() - began


@dataclass
class PassResult:
    """What one pass did, how long it took, and what it produced."""

    #: Ops attempted, including ops that raised.
    ops: int = 0
    #: Failed check name -> number of ops it failed.
    failures: dict[str, int] = field(default_factory=dict)
    #: Failed op (or batch of ops) -> how many ops it stands for.
    failed_batches: dict[str, int] = field(default_factory=dict)
    timings: list[OpTiming] = field(default_factory=list)
    energy_kwh: float = 0.0
    sla_fraction: float = 0.0
    #: Deterministic outputs; identical on every pass of one seed.
    fingerprint: list[Any] = field(default_factory=list)
    #: Per-layer numbers (traced passes only).
    layers: dict[str, float] = field(default_factory=dict)
    #: (taken at, duration) of the latest speed probe.
    _probe: tuple[float, float] | None = field(default=None, repr=False)

    def timed(self, label: str, call: Callable[[], Any], ops: int, sim_s: float = 0.0):
        """Time *call* between fresh-enough speed probes; (its value, its wall).

        A call longer than a probe's useful age is probed after it too, and
        its timing carries the mean of the probes on either side.
        """
        before = self._fresh_probe()
        began = time.perf_counter()
        value = call()
        wall = time.perf_counter() - began
        probe_s = (before + self._fresh_probe()) / 2 if wall > PROBE_MAX_AGE_S else before
        self.timings.append(OpTiming(label, wall, ops, sim_s, probe_s))
        return value, wall

    def _fresh_probe(self) -> float:
        if self._probe is None or time.perf_counter() - self._probe[0] > PROBE_MAX_AGE_S:
            probe_s = speed_probe()
            self._probe = (time.perf_counter(), probe_s)
        return self._probe[1]

    @property
    def wall_s(self) -> float:
        """Wall seconds spent inside the pass's timed calls."""
        return sum(timing.wall_s for timing in self.timings)

    @property
    def failed_ops(self) -> int:
        return sum(self.failed_batches.values())

    def fail(self, check: str, op: str, ops: int = 1) -> None:
        """Record that *op* (a batch of *ops* ops) failed *check*."""
        self.failures[check] = self.failures.get(check, 0) + ops
        self.failed_batches[op] = ops

    def add_layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + value

    def digest(self) -> str:
        """sha256 of the fingerprint (JSON floats round-trip exactly)."""
        text = json.dumps(self.fingerprint, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def rebound(owner: Any, name: str, value: Any) -> Iterator[None]:
    """Temporarily rebind ``owner.name`` (a module global or attribute)."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def profiled_wall(profiler: Any) -> float:
    """Wall seconds the profiler saw (its phases plus its ``other`` row)."""
    return sum(row["self_s"] for row in profiler.phase_rows())


def _phase_self(profiler: Any, phase: str) -> float:
    return profiler.self_s.get(phase, 0.0)


# ------------------------------------------------------------- host-paper

#: Host profiler phase -> per-layer metric prefix (``scheduler`` is per run).
_HOST_PHASES = {
    "dispatch": "hypervisor.dispatch",
    "accounting": "hypervisor.accounting",
    "workload": "workloads",
    "governor": "governors",
    "cpufreq": "cpu.cpufreq",
    "telemetry": "telemetry",
}


@dataclass(frozen=True)
class HostPaper:
    """Fig. 5 (credit + stable governor) and Fig. 10 (PAS, thrashing V20)."""

    overrides: dict[str, Any]
    #: Simulated seconds of one run.
    sim_s: float
    #: (run label, figure runner) pairs; the label names the scheduler.
    runs: tuple[tuple[str, Callable[..., Any]], ...]

    @classmethod
    def prepare(cls, seed: int, sizes: Sizes, workdir: pathlib.Path) -> "HostPaper":
        from repro.experiments import figures
        from repro.experiments.presets import preset_config

        base = preset_config("paper-5.3")
        scale = sizes.host_time_scale
        overrides: dict[str, Any] = {"seed": seed}
        if scale != 1.0:
            overrides.update(
                duration=base.duration * scale,
                v20_active=tuple(t * scale for t in base.v20_active),
                v70_active=tuple(t * scale for t in base.v70_active),
            )
        runs = (("credit", figures.run_fig5), ("pas", figures.run_fig10))
        return cls(overrides, base.duration * scale, runs)

    def run_pass(self, traced: bool) -> PassResult:
        from repro.experiments import figures
        from repro.experiments.scenario import analysis_windows, effective_guests
        from repro.obs import profile_scenario

        out = PassResult()
        for label, runner in self.runs:
            out.ops += 1
            profilers: list[Any] = []

            def profiled_run(config: Any) -> Any:
                result, profiler = profile_scenario(config)
                profilers.append(profiler)
                return result

            profiling = contextlib.nullcontext()
            if traced:
                profiling = rebound(figures, "run_scenario", profiled_run)
            try:
                with profiling:
                    (result, report), wall = out.timed(
                        label, lambda: runner(**self.overrides), 1, self.sim_s
                    )
            except Exception as error:  # noqa: BLE001 - a failed op, not a crash
                out.fail(f"{label}: run raised {type(error).__name__}: {error}", label)
                continue
            out.energy_kwh += result.energy_joules / 3.6e6
            for check in report.failures:
                out.fail(f"{label}: {check.description}", label)
            out.fingerprint.append(
                [label, result.energy_joules, result.host.engine.events_fired]
            )
            if label == "pas":
                # The paper's claim: V20 receives its booked absolute
                # capacity in every phase, whatever the frequency.
                booked = effective_guests(result.config)[0].credit
                error_pp = max(
                    abs(result.phase_mean("V20.absolute_load", window) - booked)
                    for window in analysis_windows(result.config)
                )
                out.sla_fraction = 1.0 - error_pp / booked
            if traced:
                self._fold_layers(out, label, result, profilers[0], wall)
        sim_s = sum(timing.sim_s for timing in out.timings)
        if traced and sim_s:
            out.layers["sim.events_per_sim_s"] = out.layers.get("sim.events", 0.0) / sim_s
        return out

    @staticmethod
    def _fold_layers(
        out: PassResult, label: str, result: Any, profiler: Any, wall: float
    ) -> None:
        from repro.obs import MetricsRegistry, collect_outcome

        registry = MetricsRegistry()
        collect_outcome(registry, result)
        counters = registry.snapshot()
        run_wall = profiled_wall(profiler)
        for phase, prefix in _HOST_PHASES.items():
            out.add_layer(f"{prefix}.self_s", _phase_self(profiler, phase))
            out.add_layer(f"{prefix}.calls", profiler.calls.get(phase, 0))
        out.add_layer("sim.engine.self_s", run_wall - sum(profiler.self_s.values()))
        out.add_layer("experiments.self_s", wall - run_wall)
        out.add_layer(f"schedulers.self_s.{label}", _phase_self(profiler, "scheduler"))
        out.add_layer(f"schedulers.calls.{label}", profiler.calls.get("scheduler", 0))
        decisions = counters.get("sched.decisions", 0)
        out.add_layer(f"schedulers.decisions.{label}", decisions)
        out.add_layer(
            f"schedulers.idle_pick_ratio.{label}",
            counters.get("sched.idle_picks", 0) / decisions if decisions else 0.0,
        )
        out.add_layer("sim.events", counters.get("engine.events_fired", 0))
        out.add_layer("cpu.transitions", counters.get("cpufreq.transitions", 0))
        out.add_layer("telemetry.samples", counters.get("telemetry.samples", 0))


# ------------------------------------------------------------ fleet-scale


@dataclass(frozen=True)
class FleetScale:
    """The ``dc-fleet-large`` day-shape mix at 64 and 256 machines."""

    #: (hosts, config) per fleet run, small fleet first.
    runs: tuple[tuple[int, Any], ...]

    @classmethod
    def prepare(cls, seed: int, sizes: Sizes, workdir: pathlib.Path) -> "FleetScale":
        from repro.experiments.presets import get_preset

        base = get_preset("dc-fleet-large").config
        runs = tuple(
            (
                hosts,
                base.with_changes(
                    n_machines=hosts,
                    n_vms=FLEET_VMS_PER_HOST * hosts,
                    power_budget_w=FLEET_WATTS_PER_HOST * hosts,
                    duration=sizes.fleet_epochs * base.epoch_s,
                    policy=policy,
                    seed=seed,
                ),
            )
            for hosts in FLEET_HOSTS
            for policy in FLEET_POLICIES
        )
        return cls(runs)

    def run_pass(self, traced: bool) -> PassResult:
        from repro.cluster.scenario import run_cluster_scenario
        from repro.obs import profile_cluster

        out = PassResult()
        largest = max(FLEET_HOSTS)
        sla_sum = 0.0
        for hosts, config in self.runs:
            out.ops += 1
            name = f"{config.policy}@{hosts}"
            sim_s = hosts * config.duration if hosts == largest else 0.0
            try:
                if traced:
                    (sim, profiler), wall = out.timed(
                        name, lambda: profile_cluster(config), 1, sim_s
                    )
                else:
                    sim, wall = out.timed(name, lambda: run_cluster_scenario(config), 1, sim_s)
            except Exception as error:  # noqa: BLE001 - a failed op, not a crash
                out.fail(f"{name}: run raised {type(error).__name__}: {error}", name)
                continue
            epochs = len(sim.stats)
            if epochs != round(config.duration / config.epoch_s):
                out.fail(f"{name}: ran {epochs} epochs", name)
            if config.policy == "power-budget" and sim.peak_power_w > config.power_budget_w:
                out.fail(f"{name}: power-budget holds its cap", name)
            out.fingerprint.append(
                [name, sim.fleet_energy_joules, sim.total_migrations, sim.mean_sla_fraction]
            )
            if hosts == largest:
                out.energy_kwh += sim.energy_kwh
                sla_sum += sim.mean_sla_fraction
            if traced:
                self._fold_layers(out, hosts, sim, profiler, wall, epochs)
        out.sla_fraction = sla_sum / len(FLEET_POLICIES)
        if traced:
            small, large = (out.layers[f"cluster.planning.s_per_epoch.h{h}"] for h in FLEET_HOSTS)
            ratio = FLEET_HOSTS[1] / FLEET_HOSTS[0]
            out.layers["cluster.planning.growth_exponent"] = (
                math.log(large / small) / math.log(ratio) if small > 0 and large > 0 else 0.0
            )
        return out

    @staticmethod
    def _fold_layers(
        out: PassResult, hosts: int, sim: Any, profiler: Any, wall: float, epochs: int
    ) -> None:
        from repro.obs import MetricsRegistry, collect_cluster

        registry = MetricsRegistry()
        collect_cluster(registry, sim)
        suffix = f"h{hosts}"
        for phase in ("planning", "serving", "migration", "epoch"):
            out.add_layer(f"cluster.{phase}.self_s.{suffix}", _phase_self(profiler, phase))
        for phase in ("planning", "serving"):
            out.add_layer(f"cluster.{phase}.calls.{suffix}", profiler.calls.get(phase, 0))
        out.add_layer(
            f"cluster.planning.s_per_epoch.{suffix}",
            _phase_self(profiler, "planning") / (epochs * len(FLEET_POLICIES)),
        )
        out.add_layer(f"cluster.migrations.{suffix}", registry.counter("cluster.migrations"))
        out.add_layer("cluster.build.self_s", wall - profiled_wall(profiler))


# ------------------------------------------------------------ sweep-store


@dataclass(frozen=True)
class SweepStore:
    """The ``dc-diurnal-small`` grid through a fresh store: put, lookup, query."""

    grid: Any
    warm_passes: int
    #: ``to_results(where=...)`` clauses, each paired with the cold-export
    #: cells it must return.
    queries: tuple[tuple[dict[str, Any], Callable[[Any], bool]], ...]
    #: Where fresh store roots are made (inside the checkout).
    workdir: pathlib.Path

    @classmethod
    def prepare(cls, seed: int, sizes: Sizes, workdir: pathlib.Path) -> "SweepStore":
        from repro.experiments import preset_grid

        grid = preset_grid(
            "dc-diurnal-small", overrides={"seed": seed}, replicates=sizes.sweep_replicates
        )
        queries: list[tuple[dict[str, Any], Callable[[Any], bool]]] = [
            ({"policy": policy}, lambda cell, policy=policy: cell.params["policy"] == policy)
            for policy in SWEEP_POLICIES
        ]
        queries.append(({"seed": (">=", "0")}, lambda cell: True))
        return cls(grid, sizes.warm_passes, tuple(queries), workdir)

    def run_pass(self, traced: bool) -> PassResult:
        from repro import sweep
        from repro.obs import PhaseProfiler

        out = PassResult()
        profiler = PhaseProfiler() if traced else None
        self.workdir.mkdir(parents=True, exist_ok=True)
        root = pathlib.Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            with contextlib.ExitStack() as stack:
                if profiler is not None:
                    for name, phase in (("execute_config", "sweep.execute"),
                                        ("cell_key", "store.key")):
                        wrapped = profiler.wrap_phase(phase, getattr(sweep.runner, name))
                        stack.enter_context(rebound(sweep.runner, name, wrapped))
                cold = self._run_sweeps(out, root, profiler)
            if cold is not None:
                self._run_queries(out, cold, root, profiler)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if profiler is not None:
            for phase in ("sweep.execute", "store.put", "store.lookup", "store.query"):
                out.add_layer(f"{phase}.calls", profiler.calls.get(phase, 0))
            for phase in ("sweep.execute", "sweep.runner", "store.key", "store.put",
                          "store.lookup", "store.query"):
                out.add_layer(f"{phase}.self_s", _phase_self(profiler, phase))
        return out

    def _run_sweeps(self, out: PassResult, root: pathlib.Path, profiler: Any) -> Any:
        """The cold pass and the warm passes; the cold results (None if it raised)."""
        from repro import sweep
        from repro.obs import MetricsRegistry, collect_sweep
        from repro.store import ExperimentStore

        cells = len(self.grid)
        store = ExperimentStore(root)
        if profiler is not None:
            store.put = profiler.wrap_phase("store.put", store.put)
            store.lookup = profiler.wrap_phase("store.lookup", store.lookup)

        def one_sweep(kind: str, op: str, sim_s: float = 0.0) -> Any:
            runner = sweep.SweepRunner(self.grid, workers=1, store=store)
            if profiler is not None:
                runner.run = profiler.wrap_phase("sweep.runner", runner.run)
            out.ops += cells
            try:
                results, _ = out.timed(op, runner.run, cells, sim_s)
            except Exception as error:  # noqa: BLE001 - failed ops, not a crash
                out.fail(f"{kind} pass raised {type(error).__name__}: {error}", op, cells)
                return None
            if profiler is not None:
                registry = MetricsRegistry()
                collect_sweep(registry, runner)
                hit_ratio = registry.counter("store.cache_hits") / registry.counter("sweep.cells")
                out.add_layer(f"store.hit_ratio.{kind}", hit_ratio)
            expected_hits = 0 if kind == "cold" else cells
            if runner.cache_hits != expected_hits:
                out.fail(f"{kind} pass: {runner.cache_hits} of {cells} cells from the store",
                         op, cells)
            return results

        simulated = sum(cell.config.total_machines * cell.config.duration for cell in self.grid)
        cold = one_sweep("cold", "cold", simulated)
        if cold is None:
            return None
        cold_json = cold.to_json()
        out.energy_kwh = sum(cell.metrics["energy_kwh"] for cell in cold)
        out.sla_fraction = sum(cell.metrics["mean_sla_fraction"] for cell in cold) / cells
        out.fingerprint.append(hashlib.sha256(cold_json.encode("utf-8")).hexdigest())
        if profiler is not None:
            out.add_layer(
                "store.put.bytes", sum(path.stat().st_size for path in store.cells_dir.iterdir())
            )
        for index in range(self.warm_passes):
            warm = one_sweep("warm", f"warm{index}")
            if warm is not None and warm.to_json() != cold_json:
                out.fail("warm export is byte-identical to the cold export", f"warm{index}", cells)
        if profiler is not None and self.warm_passes:
            out.layers["store.hit_ratio.warm"] /= self.warm_passes
        return cold

    def _run_queries(self, out: PassResult, cold: Any, root: pathlib.Path, profiler: Any) -> None:
        """Query a freshly opened store, as ``repro store ls --where`` does."""
        from repro.store import ExperimentStore

        store = ExperimentStore(root)
        if profiler is not None:
            store.to_results = profiler.wrap_phase("store.query", store.to_results)
            reads = [0]
            read = store.read

            def counted_read(key: str) -> Any:
                reads[0] += 1
                return read(key)

            store.read = counted_read
        for index, (where, selects) in enumerate(self.queries):
            out.ops += 1
            try:
                results, _ = out.timed(f"query{index}", lambda: store.to_results(where=where), 1)
            except Exception as error:  # noqa: BLE001 - a failed op, not a crash
                out.fail(f"query {where} raised {type(error).__name__}: {error}", f"query{index}")
                continue
            expected = sorted((c for c in cold if selects(c)), key=lambda c: c.label)
            if _cell_export(results) != _cell_export(expected):
                out.fail(f"query {where} returns the cold export's cells", f"query{index}")
        if profiler is not None:
            out.add_layer("store.query.blobs_read", reads[0])


def _cell_export(cells: Any) -> str:
    """Cells as canonical JSON, without the position-dependent index."""
    return json.dumps(
        [
            {"label": c.label, "params": dict(c.params), "seed": c.seed, "metrics": dict(c.metrics)}
            for c in cells
        ],
        sort_keys=True,
        indent=2,
    )


# --------------------------------------------------------------- registry


#: Workload name -> its class, in the order BENCHMARK.json lists them.
WORKLOADS = {"host-paper": HostPaper, "fleet-scale": FleetScale, "sweep-store": SweepStore}


def prepare(name: str, seed: int, sizes: Sizes, workdir: pathlib.Path) -> Any:
    """Build workload *name*'s inputs from *seed* (the benchmark's set-up).

    *workdir* is where the workload may write (only sweep-store does).
    """
    return WORKLOADS[name].prepare(seed, sizes, workdir)
