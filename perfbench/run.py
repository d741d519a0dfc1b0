"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload host-paper --seed 11 --seconds 20 --trace 0

Run from the root of a checkout.  The workload repeats whole passes until
``--seconds`` have elapsed and reports the median over passes.  With
``--trace 0`` it prints every end-to-end metric named in ``BENCHMARK.json``;
with ``--trace 1`` it alternates plain and traced passes and prints every
per-layer metric instead (zero for a layer the workload never calls).  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and how to read the numbers.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up probe times everything after STARTED
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh store roots of the sweep-store workload go here (git-ignored).
WORKDIR = ROOT / ".perfbench_tmp"
DEFAULT_SEED = 11
#: Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
#: Each call's wall is rescaled to a machine on which the speed probe before
#: it (``suite.speed_probe``) takes this long.  The shared machine's speed
#: drifts by tens of percent over tens of seconds; the probe drifts with it,
#: so the rescaled walls hold still while the program's own speed shows.
REFERENCE_PROBE_S = 0.02


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time this workload's set-up in a fresh interpreter and exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median set-up time (imports + input construction) of fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def _measure(bench, seconds: float, trace: bool) -> tuple[list, list]:
    """Plain passes (and, when tracing, one traced pass after each)."""
    plain, traced = [], []
    began = time.perf_counter()
    while True:
        plain.append(bench.run_pass(False))
        if trace:
            traced.append(bench.run_pass(True))
        if time.perf_counter() - began >= seconds:
            return plain, traced


def _check_fingerprints(plain: list, traced: list) -> None:
    """Every pass of one seed must simulate exactly what the first did."""
    reference = plain[0].digest()
    for kind, passes in (("plain", plain), ("traced", traced)):
        for index, result in enumerate(passes):
            if result.digest() != reference:
                result.fail(
                    f"{kind} pass fingerprint equals the first plain pass's",
                    f"fingerprint-{kind}{index}",
                    result.ops,
                )


def _median_pass(plain: list) -> list:
    """One timing per timed call: its median rescaled wall over the plain passes.

    Taking the median per call rather than per pass keeps a pass of
    unequal calls (a 64-host and a 256-host fleet run) from mixing them,
    and gives every call as many samples as there were passes.
    """
    by_label: dict[str, list] = {}
    for result in plain:
        for timing in result.timings:
            by_label.setdefault(timing.label, []).append(timing)
    return [
        (timings[0], statistics.median(t.wall_s * REFERENCE_PROBE_S / t.probe_s for t in timings))
        for timings in by_label.values()
    ]


def _end_to_end(args: argparse.Namespace, plain: list, ok_frac: float) -> dict[str, float]:
    from benchmarks.harness import peak_rss_kb

    calls = _median_pass(plain)
    simulating = [(timing, wall) for timing, wall in calls if timing.sim_s > 0]
    return {
        "setup_s": _setup_seconds(args),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
        "ok_frac": ok_frac,
        "ops_per_s": sum(t.ops for t, _ in calls) / sum(wall for _, wall in calls),
        "host_sim_s_per_s": sum(t.sim_s for t, _ in simulating)
        / sum(wall for _, wall in simulating),
        "energy_kwh": statistics.median(p.energy_kwh for p in plain),
        "sla_fraction": statistics.median(p.sla_fraction for p in plain),
    }


def _per_layer(plain: list, traced: list, names: list[str]) -> dict[str, float]:
    """Layer numbers averaged per traced pass, zero where never called."""
    unknown = sorted({name for p in traced for name in p.layers} - set(names))
    if unknown:
        raise RuntimeError(f"layer metrics missing from BENCHMARK.json: {unknown}")
    layers = {
        name: sum(p.layers.get(name, 0.0) for p in traced) / len(traced) for name in names
    }
    traced_wall = sum(p.wall_s for p in traced) / len(traced)
    layers["obs.traced_wall_s"] = traced_wall
    layers["obs.trace_overhead_ratio"] = traced_wall * len(traced) / sum(p.wall_s for p in plain)
    layers["obs.unattributed_s"] = traced_wall - sum(
        value for name, value in layers.items() if "self_s" in name.split(".")
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no repro checkout at {ROOT} (need src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"unknown workload {args.workload!r}; use one of: {', '.join(suite.WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = suite.prepare(args.workload, args.seed, suite.FULL, WORKDIR)
    if args.setup_probe:
        print(time.perf_counter() - STARTED)
        return 0

    spec = json.loads(spec_path.read_text())
    plain, traced = _measure(bench, args.seconds, bool(args.trace))
    _check_fingerprints(plain, traced)
    passes = plain + traced
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed_ops for p in passes)
    if args.trace:
        declared = spec["per_layer"]
        metrics = _per_layer(plain, traced, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        metrics = _end_to_end(args, plain, 1.0 - failed / attempted)

    from benchmarks.harness import _bench_calibration

    calibration = _bench_calibration()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"plain passes {len(plain)} traced passes {len(traced)}")
    for metric in declared:
        print(f"  {metric['name']:<40} {metrics[metric['name']]:>16.6g} {metric['unit']}")
    print(f"calibration spin (benchmarks/harness.py) best_spin_s {calibration['best_spin_s']:.4f}")
    probes = [t.probe_s for p in plain for t in p.timings]
    print(f"speed probe median {statistics.median(probes):.4f} s over {len(probes)} calls "
          f"(walls rescaled to {REFERENCE_PROBE_S} s)")
    failures: dict[str, int] = {}
    for result in passes:
        for check, ops in result.failures.items():
            failures[check] = failures.get(check, 0) + ops
    for check, ops in sorted(failures.items()):
        print(f"FAILED {check} ({ops} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
