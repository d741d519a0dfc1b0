"""Sim-time tracing in Chrome trace-event format (Perfetto-loadable).

A :class:`Tracer` collects trace events keyed on **simulated** time: every
timestamp is ``sim_seconds * 1e6`` microseconds, never a wall clock, so the
serialized trace is a pure function of (scenario spec, seed) and two runs of
the same preset produce byte-identical JSON.  Load the output at
https://ui.perfetto.dev or ``chrome://tracing``.

Event vocabulary (``cat`` / ``ph``):

* ``engine`` — one instant (``i``) per dispatched event, named by its label;
* ``sched`` — ``X`` (complete) spans per executed slice on the vCPU's own
  track, instants for pick/idle decisions and preemptions;
* ``credit`` — instants for cap-park and accounting-reset events;
* ``cpufreq`` — a ``C`` (counter) track of the P-state plus one instant per
  transition;
* ``cluster`` — ``X`` spans per orchestration epoch, instants per migration,
  and a fleet-power counter track;
* ``qos`` — a contention-score counter track (raw + windowed samples) plus
  one instant per controller decision (``throttle``/``restore``) on the
  ``qos.decisions`` track.

``docs/observability.md`` is the prose catalogue of the schema.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

#: Schema marker embedded in the trace's metadata (otherData).
TRACE_SCHEMA = "repro-trace/1"

#: Keys every Chrome trace event must carry.
_REQUIRED_EVENT_KEYS = frozenset({"name", "cat", "ph", "ts", "pid", "tid"})

#: Phases the writer emits (validation rejects anything else).
_KNOWN_PHASES = frozenset({"X", "i", "C", "M"})

#: The single simulated process every track lives under.
_PID = 1


class Tracer:
    """A deterministic sim-time trace-event collector.

    Parameters
    ----------
    categories:
        Iterable of category names to record (``engine``, ``sched``,
        ``credit``, ``cpufreq``, ``cluster``, ``qos``).  ``None`` records
        everything.
        The dense ``engine`` category dominates trace size; pass
        ``categories=("sched", "cpufreq")`` for slim scheduling traces.
    """

    __slots__ = ("events", "_wanted", "_tids", "_dropped")

    def __init__(self, categories: tuple[str, ...] | list[str] | None = None) -> None:
        self.events: list[dict[str, Any]] = []
        self._wanted: frozenset[str] | None = (
            frozenset(categories) if categories is not None else None
        )
        # Track ids are handed out in first-use order; sim determinism makes
        # the assignment (and hence the serialized ids) reproducible.
        self._tids: dict[str, int] = {}
        self._dropped = 0

    # ------------------------------------------------------------- plumbing

    def wants(self, category: str) -> bool:
        """True when *category* is being recorded."""
        return self._wanted is None or category in self._wanted

    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
            self.events.append(
                {
                    "name": "thread_name",
                    "cat": "__metadata",
                    "ph": "M",
                    "ts": 0,
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    # ------------------------------------------------------------ raw emits

    def instant(
        self,
        category: str,
        name: str,
        time_s: float,
        track: str,
        args: dict[str, Any] | None = None,
    ) -> None:
        """An instant (``ph: i``) event at sim time *time_s* on *track*."""
        if not self.wants(category):
            return
        event: dict[str, Any] = {
            "name": name,
            "cat": category,
            "ph": "i",
            "ts": time_s * 1e6,
            "pid": _PID,
            "tid": self._tid(track),
            "s": "t",
        }
        if args is not None:
            event["args"] = args
        self.events.append(event)

    def complete(
        self,
        category: str,
        name: str,
        start_s: float,
        dur_s: float,
        track: str,
        args: dict[str, Any] | None = None,
    ) -> None:
        """A complete span (``ph: X``) of *dur_s* starting at *start_s*."""
        if not self.wants(category):
            return
        event: dict[str, Any] = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": start_s * 1e6,
            "dur": dur_s * 1e6,
            "pid": _PID,
            "tid": self._tid(track),
        }
        if args is not None:
            event["args"] = args
        self.events.append(event)

    def counter(
        self, category: str, name: str, time_s: float, values: dict[str, float]
    ) -> None:
        """A counter sample (``ph: C``); *values* maps series name -> value."""
        if not self.wants(category):
            return
        self.events.append(
            {
                "name": name,
                "cat": category,
                "ph": "C",
                "ts": time_s * 1e6,
                "pid": _PID,
                "tid": self._tid(name),
                "args": values,
            }
        )

    # ----------------------------------------------------- domain emits
    #
    # One method per instrumented site keeps call sites one line and makes
    # the emit path a named node in the lint call graph: a wall-clock read
    # added to any of these is reachable from Engine.run_until and the
    # scheduler hooks, so RPL801 reports it (tests/lint/test_meta.py proves
    # this on a planted copy).

    def engine_event(self, time_s: float, label: str) -> None:
        """One dispatched engine event (dense; gate with ``categories``)."""
        self.instant("engine", label or "event", time_s, "engine")

    def sched_pick(self, time_s: float, picked: str | None, slice_s: float) -> None:
        """A scheduling decision: *picked* is the vCPU name or None (idle)."""
        if picked is None:
            self.instant("sched", "idle", time_s, "sched.decisions")
        else:
            self.instant(
                "sched",
                f"pick {picked}",
                time_s,
                "sched.decisions",
                args={"vcpu": picked, "slice_s": slice_s},
            )

    def sched_slice(self, vcpu: str, start_s: float, dur_s: float) -> None:
        """An executed slice on *vcpu*'s own track."""
        self.complete("sched", vcpu, start_s, dur_s, f"vcpu {vcpu}")

    def sched_preempt(self, time_s: float, vcpu: str, reason: str) -> None:
        """A slice ended early (*reason*: ``wake``/``tick``/``dvfs``)."""
        self.instant(
            "sched",
            f"preempt {vcpu}",
            time_s,
            "sched.decisions",
            args={"vcpu": vcpu, "reason": reason},
        )

    def credit_event(self, time_s: float, kind: str, vcpu: str) -> None:
        """A credit-scheduler bookkeeping event (``park`` / ``reset``)."""
        self.instant("credit", f"{kind} {vcpu}", time_s, "credit", args={"vcpu": vcpu})

    def pstate(self, time_s: float, freq_mhz: int) -> None:
        """A completed P-state transition plus a counter sample."""
        self.instant(
            "cpufreq",
            f"{freq_mhz} MHz",
            time_s,
            "cpufreq.transitions",
            args={"freq_mhz": freq_mhz},
        )
        self.counter("cpufreq", "freq_mhz", time_s, {"freq_mhz": float(freq_mhz)})

    def governor_decide(
        self,
        time_s: float,
        governor: str,
        load_percent: float,
        target_mhz: int | None,
    ) -> None:
        """A sampled governor decision (*target_mhz* ``None`` = keep current)."""
        self.instant(
            "cpufreq",
            f"{governor} decide",
            time_s,
            "cpufreq.governor",
            args={"load_percent": load_percent, "target_mhz": target_mhz},
        )

    def epoch(
        self, start_s: float, dur_s: float, index: int, args: dict[str, Any]
    ) -> None:
        """One orchestration epoch as a span on the cluster track."""
        self.complete("cluster", f"epoch {index}", start_s, dur_s, "cluster.epochs", args=args)
        power_w = args.get("power_w")
        if power_w is not None:
            self.counter("cluster", "fleet_power_w", start_s, {"power_w": power_w})

    def migration(self, time_s: float, vm: str, source: str, dest: str) -> None:
        """One executed live migration."""
        self.instant(
            "cluster",
            f"migrate {vm}",
            time_s,
            "cluster.migrations",
            args={"vm": vm, "source": source, "dest": dest},
        )

    def domain_freq(
        self,
        time_s: float,
        machine: str,
        domain: str,
        freq_mhz: int,
        power_w: float,
    ) -> None:
        """One frequency-domain sample: its own counter track per domain.

        Heterogeneous machines emit one track per (machine, domain) pair —
        ``domain.m000/little`` next to ``domain.m000/big`` — so Perfetto
        shows the clusters' P-states diverging under the same epoch spans.
        """
        self.counter(
            "cluster",
            f"domain.{machine}/{domain}",
            time_s,
            {"freq_mhz": float(freq_mhz), "power_w": power_w},
        )

    def qos_score(self, time_s: float, raw: float, windowed: float) -> None:
        """One contention-monitor sample (raw and window-mean scores)."""
        self.counter(
            "qos", "contention", time_s, {"raw": raw, "windowed": windowed}
        )

    def qos_decision(
        self,
        time_s: float,
        controller: str,
        action: str,
        scope: str,
        level: int,
        fraction: float,
        score: float,
    ) -> None:
        """One QoS controller actuation (*action*: ``throttle``/``restore``)."""
        self.instant(
            "qos",
            f"{controller} {action}",
            time_s,
            "qos.decisions",
            args={
                "controller": controller,
                "action": action,
                "scope": scope,
                "level": level,
                "fraction": fraction,
                "score": score,
            },
        )

    # ----------------------------------------------------------- serialise

    def to_json(self) -> str:
        """The canonical Chrome trace JSON (sorted keys, fixed separators).

        Canonical serialization is what turns per-seed determinism into
        *byte* identity: two runs that emit the same events serialize to
        the same bytes.
        """
        document = {
            "traceEvents": self.events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "clock": "sim"},
        }
        return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write :meth:`to_json` to *path*; returns the path written."""
        target = pathlib.Path(path)
        target.write_text(self.to_json())
        return target


# ------------------------------------------------------------- validation


def validate_trace_text(text: str) -> list[str]:
    """Problems with *text* as a Chrome trace-event document ([] = valid).

    Checks the structural contract Perfetto's legacy JSON importer relies
    on: a ``traceEvents`` list whose entries carry name/cat/ph/ts/pid/tid,
    ``X`` events a ``dur``, and numeric non-negative timestamps.  Used by
    the test suite and the CI observability smoke step.
    """
    problems: list[str] = []
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        return [f"not valid JSON: {error}"]
    if not isinstance(document, dict):
        return ["top level must be an object with a traceEvents list"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        missing = sorted(_REQUIRED_EVENT_KEYS - set(event))
        if missing:
            problems.append(f"{where}: missing key(s) {', '.join(missing)}")
            continue
        phase = event["ph"]
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: X event needs a numeric dur")
        if phase == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: C event needs an args mapping")
    return problems


def validate_trace_file(path: str | pathlib.Path) -> None:
    """Raise :class:`~repro.errors.TelemetryError` naming every problem."""
    from ..errors import TelemetryError

    problems = validate_trace_text(pathlib.Path(path).read_text())
    if problems:
        raise TelemetryError(
            f"{path} is not a valid Chrome trace: " + "; ".join(problems[:10])
        )
