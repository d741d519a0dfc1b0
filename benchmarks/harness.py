"""The unified benchmark harness behind ``python -m repro bench``.

One runner for two kinds of benchmark:

* **native benches** — fast, dependency-free timings of the hot paths the
  ROADMAP tracks (the slice-dispatch engine, the cold ``stress-fleet``
  sweep, the store's warm path, the cluster orchestration loop).  These
  form the ``smoke`` suite that CI gates on.
* **pytest benches** — every ``benchmarks/bench_*.py`` reproduction
  benchmark, each executed as its own timed pytest session (the ``full``
  suite; needs ``pytest`` installed).

Results are written as machine-readable ``BENCH_<rev>.json``::

    {
      "schema": "repro-bench/1",
      "rev": "<git short rev or 'unknown'>",
      "python": "3.12.1", "platform": "...", "suite": "smoke",
      "peak_rss_kb": 123456,
      "benches": {
        "stress-fleet-cold": {
          "ok": true, "wall_s": 1.23, "peak_rss_kb": 120000,
          "metrics": {"cells": 2, "cells_per_s": 1.63}
        }, ...
      }
    }

(``peak_rss_kb`` is the process high-water mark *as of* that bench —
monotone across the run, not an isolated per-bench peak.)

``compare_reports`` implements the regression gate: each bench's
``wall_s`` must stay within ``--max-regress`` of the baseline.  When both
reports carry the ``calibration`` bench (a fixed pure-Python spin), wall
times are first normalised by the calibration ratio so a slower/faster CI
runner does not read as a code-level regression.
"""

from __future__ import annotations

import json
import math
import pathlib
import platform
import subprocess
import sys
import time
from typing import Callable

SCHEMA = "repro-bench/1"

#: Calibration spin iterations — sized to ~200 ms on a 2020s laptop core.
_CALIBRATION_LOOPS = 4_000_000


# --------------------------------------------------------------- plumbing


def git_rev(root: pathlib.Path | None = None) -> str:
    """Short git revision of *root* (``"unknown"`` outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root or pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def peak_rss_kb() -> int | None:
    """Process high-water RSS in KiB (None where rusage is unavailable).

    This is the *cumulative* process peak: per-bench report entries record
    the high-water mark as of that bench's completion, so the series is
    monotone across a run and attributes a peak to the first bench that
    reached it — it is a capacity trace, not an isolated per-bench peak.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return usage // 1024 if sys.platform == "darwin" else usage


# ---------------------------------------------------------- native benches


def _bench_calibration() -> dict:
    """Fixed pure-Python spin — the machine-speed anchor for --compare.

    Best-of-three inner timings; the *best* spin approximates the machine's
    unloaded speed, which is the quantity the normalisation needs (transient
    scheduler noise must not rescale the whole comparison).
    """

    def spin() -> int:
        acc = 0
        for i in range(_CALIBRATION_LOOPS):
            acc += i & 7
        return acc

    best = float("inf")
    checksum = 0
    for _ in range(3):
        started = time.perf_counter()
        checksum = spin()
        best = min(best, time.perf_counter() - started)
    return {"loops": _CALIBRATION_LOOPS, "checksum": checksum, "best_spin_s": best}


def _bench_engine_events() -> dict:
    """Raw event-loop throughput: dense periodic timers, no hypervisor."""
    from repro.sim import Engine, PeriodicTimer

    engine = Engine()
    counts = [0]

    def tick(now: float) -> None:
        counts[0] += 1

    timers = [
        PeriodicTimer(engine, 0.001 * (i + 1), tick, label=f"bench.{i}")
        for i in range(8)
    ]
    for timer in timers:
        timer.start()
    started = time.perf_counter()
    engine.run_until(200.0)
    elapsed = time.perf_counter() - started
    return {
        "events": engine.events_fired,
        "events_per_s": engine.events_fired / elapsed if elapsed > 0 else 0.0,
    }


def _bench_paper_scenario() -> dict:
    """The paper's §5.3 default scenario end to end (800 simulated s)."""
    from repro.experiments import ScenarioConfig, run_scenario

    from repro.obs import collect_outcome, MetricsRegistry

    result = run_scenario(ScenarioConfig())
    registry = MetricsRegistry()
    collect_outcome(registry, result)
    return {
        "sim_seconds": result.host.now,
        "events": result.host.engine.events_fired,
        "energy_joules": result.energy_joules,
        "counters": registry.snapshot(),
    }


def _bench_stress_fleet_cold() -> dict:
    """Cold serial stress-fleet sweep — the ROADMAP's perf benchmark."""
    from repro.experiments import preset_grid
    from repro.sweep import run_sweep

    started = time.perf_counter()
    results = run_sweep(preset_grid("stress-fleet"), workers=1)
    elapsed = time.perf_counter() - started
    return {
        "cells": len(results),
        "cells_per_s": len(results) / elapsed if elapsed > 0 else 0.0,
    }


def _bench_store_warm() -> dict:
    """Cold-vs-warm sweep through a throwaway store (PR-3's contract)."""
    import tempfile

    from repro.experiments import preset_grid
    from repro.store import ExperimentStore
    from repro.sweep import SweepRunner

    grid = preset_grid("stress-fleet")
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store = ExperimentStore(root)
        timings = {}
        exports = {}
        for phase in ("cold", "warm"):
            runner = SweepRunner(grid, workers=1, store=store)
            started = time.perf_counter()
            results = runner.run()
            timings[phase] = time.perf_counter() - started
            exports[phase] = results.to_json()
    if exports["cold"] != exports["warm"]:
        raise AssertionError("warm store export diverged from cold export")
    return {
        "cold_s": timings["cold"],
        "warm_s": timings["warm"],
        "warm_speedup": timings["cold"] / timings["warm"]
        if timings["warm"] > 0
        else float("inf"),
    }


def _bench_tracing_off() -> dict:
    """Hook-overhead guard: disabled observability must cost nothing.

    Runs the stress-fleet grid plain and then traced+metered, asserts the
    two exports are byte-identical, and reports the overhead ratio.  The
    plain (tracing-off) wall time rides the same ``--compare`` envelope as
    every other bench, so a hook that sneaks per-event cost into the
    disabled hot path fails CI even though tracing is opt-in.
    """
    from repro.experiments import preset_grid
    from repro.obs import MetricsRegistry, observed, Tracer
    from repro.sweep import run_sweep

    grid = preset_grid("stress-fleet")
    started = time.perf_counter()
    plain = run_sweep(grid, workers=1)
    off_s = time.perf_counter() - started

    tracer = Tracer(categories=("sched", "cpufreq"))
    registry = MetricsRegistry()
    started = time.perf_counter()
    with observed(tracer=tracer, metrics=registry):
        traced = run_sweep(grid, workers=1)
    on_s = time.perf_counter() - started
    if plain.to_json() != traced.to_json():
        raise AssertionError("traced sweep export diverged from untraced export")
    return {
        "cells": len(plain.cells),
        "tracing_off_s": off_s,
        "tracing_on_s": on_s,
        "overhead_ratio": on_s / off_s if off_s > 0 else float("inf"),
        "trace_events": len(tracer.events),
        "counters": registry.snapshot(),
    }


def _bench_cluster_epoch() -> dict:
    """The dc-diurnal-small fleet day through the orchestration loop."""
    from repro.cluster.scenario import run_cluster_scenario
    from repro.experiments import get_preset

    config = get_preset("dc-diurnal-small").config
    sim = run_cluster_scenario(config)
    epochs = len(sim.stats)
    return {"epochs": epochs, "vms": config.n_vms, "machines": config.n_machines}


def _bench_hetero_fleet() -> dict:
    """The dc-hetero mixed fleet (frequency domains + C-state accounting)."""
    from repro.cluster.scenario import run_cluster_scenario
    from repro.experiments import get_preset

    config = get_preset("dc-hetero").config
    sim = run_cluster_scenario(config)
    residency = sim.cstate_residency()
    return {
        "epochs": len(sim.stats),
        "vms": config.n_vms,
        "machines": config.total_machines,
        "domain_samples": len(sim.domain_records()),
        "cstate_residency_s": sum(residency.values()),
    }


#: Fleet sizes of the ``fleet-scaling`` bench, as multiples of ``dc-fleet-large``.
FLEET_SCALES = (1, 4, 16)


def _bench_fleet_scaling() -> dict:
    """``dc-fleet-large`` under ``consolidate`` at 32, 128 and 512 hosts.

    VMs scale with the hosts (3 per machine).  Records each point's wall
    time per run and the growth exponent *k* of ``wall ∝ hosts^k`` fitted
    to the two largest points, where fixed per-run costs no longer
    dominate: 1.0 is linear planning.  Smaller fleets run proportionally
    more often, so every point times the same host-epochs: a short run
    cannot land wholly in a quiet spell of a shared machine and bend the
    exponent.
    """
    from repro.cluster.scenario import run_cluster_scenario
    from repro.experiments import get_preset

    base = get_preset("dc-fleet-large").config.with_changes(policy="consolidate")
    walls: dict[int, float] = {}
    for scale in FLEET_SCALES:
        config = base.with_changes(
            n_machines=base.n_machines * scale, n_vms=base.n_vms * scale
        )
        runs = max(FLEET_SCALES) // scale
        started = time.perf_counter()
        for _ in range(runs):
            run_cluster_scenario(config)
        walls[config.n_machines] = (time.perf_counter() - started) / runs
    (small, small_s), (large, large_s) = sorted(walls.items())[-2:]
    metrics: dict = {f"wall_s_h{hosts}": wall for hosts, wall in walls.items()}
    metrics["growth_exponent"] = math.log(large_s / small_s) / math.log(large / small)
    return metrics


#: Native benches in run order: name -> callable returning a metrics dict.
NATIVE_BENCHES: dict[str, Callable[[], dict]] = {
    "calibration": _bench_calibration,
    "engine-events": _bench_engine_events,
    "paper-5.3": _bench_paper_scenario,
    "stress-fleet-cold": _bench_stress_fleet_cold,
    "tracing-off": _bench_tracing_off,
    "store-warm": _bench_store_warm,
    "dc-diurnal-small": _bench_cluster_epoch,
    "dc-hetero": _bench_hetero_fleet,
    "fleet-scaling": _bench_fleet_scaling,
}


# ---------------------------------------------------------- pytest benches


def pytest_bench_files() -> list[pathlib.Path]:
    """Every ``bench_*.py`` module, sorted by name."""
    return sorted(pathlib.Path(__file__).parent.glob("bench_*.py"))


def run_pytest_bench(path: pathlib.Path) -> tuple[bool, str]:
    """Run one bench module in its own pytest process; (ok, tail-of-output)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(path), "-q", "--no-header"],
        capture_output=True,
        text=True,
        cwd=pathlib.Path(__file__).parent.parent,
    )
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-4:])
    return proc.returncode == 0, tail


# ----------------------------------------------------------------- running


def available_benches(suite: str) -> list[str]:
    """Bench names in *suite* (``smoke`` = native, ``full`` adds pytest)."""
    names = list(NATIVE_BENCHES)
    if suite == "full":
        names += [path.stem for path in pytest_bench_files()]
    return names


def run_benches(
    names: list[str],
    *,
    suite: str,
    progress: Callable[[str], None] = lambda line: None,
) -> dict:
    """Execute *names* and assemble the report dict (see module docstring)."""
    pytest_by_stem = {path.stem: path for path in pytest_bench_files()}
    benches: dict[str, dict] = {}
    for name in names:
        progress(f"bench {name} ...")
        entry: dict = {"ok": True, "metrics": {}}
        if name in NATIVE_BENCHES:
            # Best-of-two: the *minimum* wall is what the code can do; the
            # mean folds in whatever else the machine was running, which is
            # exactly what a CI regression gate must not measure.
            runner = NATIVE_BENCHES[name]
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                try:
                    metrics = runner()
                except Exception as error:  # a failing bench is a result
                    entry["ok"] = False
                    entry["error"] = f"{type(error).__name__}: {error}"
                    best = time.perf_counter() - started
                    break
                elapsed = time.perf_counter() - started
                if elapsed < best:
                    best = elapsed
                    entry["metrics"] = metrics
            entry["wall_s"] = round(best, 6)
        elif name in pytest_by_stem:
            started = time.perf_counter()
            ok, tail = run_pytest_bench(pytest_by_stem[name])
            entry["ok"] = ok
            entry["metrics"] = {"pytest_tail": tail}
            entry["wall_s"] = round(time.perf_counter() - started, 6)
        else:
            raise KeyError(
                f"unknown bench {name!r}; "
                f"choose from: {', '.join(available_benches('full'))}"
            )
        entry["peak_rss_kb"] = peak_rss_kb()
        benches[name] = entry
        status = "ok" if entry["ok"] else "FAILED"
        progress(f"bench {name}: {status} in {entry['wall_s']:.3f}s")
    return {
        "schema": SCHEMA,
        "rev": git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "suite": suite,
        "peak_rss_kb": peak_rss_kb(),
        "benches": benches,
    }


def default_report_path(report: dict) -> pathlib.Path:
    """``BENCH_<rev>.json`` in the current working directory."""
    return pathlib.Path(f"BENCH_{report['rev']}.json")


def write_report(report: dict, path: pathlib.Path) -> pathlib.Path:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------- compare


def parse_regress(text: str) -> float:
    """``"25%"`` / ``"25"`` -> 0.25; ``"0.25"`` -> 0.25; ``"1%"`` -> 0.01.

    An explicit ``%`` suffix always means percent; bare numbers above 1
    are taken as percent too (nobody means a 2500% allowance by ``25``).
    """
    explicit_percent = text.endswith("%")
    value = float(text.rstrip("%"))
    if value < 0:
        raise ValueError(f"--max-regress must be >= 0, got {text!r}")
    if explicit_percent or value > 1.0:
        return value / 100.0
    return value


#: Absolute slack added to every gate limit: sub-100 ms benches are pure
#: scheduler jitter at the ratio level, and 50 ms is far below any real
#: regression in the benches the suite gates on.
GRACE_SECONDS = 0.05


def compare_reports(
    current: dict,
    baseline: dict,
    *,
    max_regress: float,
    normalize: bool = True,
) -> tuple[list[str], list[str]]:
    """Gate *current* against *baseline* on per-bench wall time.

    Returns ``(lines, regressed)``: human-readable comparison lines for
    every shared bench, plus an informational ``UNGATED`` line for each
    current bench the baseline lacks, and the names of benches that
    regressed beyond *max_regress* (or failed / went missing outright).
    Ungated benches never count as regressions.  When both reports
    carry the ``calibration`` bench and *normalize* is on, baseline wall
    times are scaled by the machines' calibration ratio first.  Every
    limit gets :data:`GRACE_SECONDS` of absolute slack so
    millisecond-scale benches are not gated on timer noise.
    """
    scale = 1.0
    cur_benches = current.get("benches", {})
    base_benches = baseline.get("benches", {})
    if normalize:
        def _cal(benches: dict) -> float | None:
            entry = benches.get("calibration", {})
            return entry.get("metrics", {}).get("best_spin_s") or entry.get("wall_s")

        cur_cal = _cal(cur_benches)
        base_cal = _cal(base_benches)
        if cur_cal and base_cal:
            scale = cur_cal / base_cal
    lines: list[str] = []
    regressed: list[str] = []
    if scale != 1.0:
        lines.append(f"calibration scale: x{scale:.3f} (baseline walls rescaled)")
    for name, base in sorted(base_benches.items()):
        if name == "calibration":
            continue
        cur = cur_benches.get(name)
        if cur is None:
            lines.append(
                f"{name}: MISSING from current run (baseline {base['wall_s']:.3f}s)"
            )
            regressed.append(name)
            continue
        if not cur.get("ok", False):
            lines.append(f"{name}: FAILED ({cur.get('error', 'see report')})")
            regressed.append(name)
            continue
        allowed = base["wall_s"] * scale * (1.0 + max_regress) + GRACE_SECONDS
        ratio = cur["wall_s"] / (base["wall_s"] * scale) if base["wall_s"] else 1.0
        verdict = "ok"
        if cur["wall_s"] > allowed:
            verdict = f"REGRESSED (limit {allowed:.3f}s)"
            regressed.append(name)
        lines.append(
            f"{name}: {cur['wall_s']:.3f}s vs baseline {base['wall_s']:.3f}s "
            f"(x{ratio:.2f}) {verdict}"
        )
    for name in sorted(cur_benches.keys() - base_benches.keys() - {"calibration"}):
        lines.append(f"{name}: UNGATED (not in baseline)")
    return lines, regressed


def load_report(path: pathlib.Path) -> dict:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise ValueError(
            f"{path} is not a {SCHEMA} report "
            f"(schema: {data.get('schema') if isinstance(data, dict) else '?'})"
        )
    return data
