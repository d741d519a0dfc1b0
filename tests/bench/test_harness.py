"""Unit tests for the unified benchmark harness and its regression gate."""

import json

import pytest

from benchmarks import harness


def make_report(benches: dict, *, calibration: float | None = None) -> dict:
    entries = {}
    if calibration is not None:
        entries["calibration"] = {
            "ok": True,
            "wall_s": calibration,
            "metrics": {"best_spin_s": calibration},
        }
    for name, wall in benches.items():
        if isinstance(wall, dict):
            entries[name] = wall
        else:
            entries[name] = {"ok": True, "wall_s": wall, "metrics": {}}
    return {"schema": harness.SCHEMA, "rev": "test", "benches": entries}


# ------------------------------------------------------------ parse_regress


@pytest.mark.parametrize(
    "text,expected",
    [
        ("25%", 0.25),
        ("25", 0.25),
        ("0.25", 0.25),
        ("15%", 0.15),
        ("0", 0.0),
        ("1%", 0.01),
        ("0.5%", 0.005),
    ],
)
def test_parse_regress(text, expected):
    assert harness.parse_regress(text) == pytest.approx(expected)


def test_parse_regress_rejects_negative():
    with pytest.raises(ValueError):
        harness.parse_regress("-5%")


# ---------------------------------------------------------- compare_reports


def test_compare_passes_within_threshold():
    base = make_report({"a": 1.0})
    cur = make_report({"a": 1.1})
    lines, regressed = harness.compare_reports(cur, base, max_regress=0.15)
    assert regressed == []
    assert any("a:" in line for line in lines)


def test_compare_flags_regression_beyond_threshold():
    base = make_report({"a": 1.0})
    cur = make_report({"a": 1.3})
    lines, regressed = harness.compare_reports(cur, base, max_regress=0.15)
    assert regressed == ["a"]
    assert any("REGRESSED" in line for line in lines)


def test_compare_small_benches_get_absolute_grace():
    # 3 ms vs 2 ms is a 1.5x ratio but far inside the absolute grace:
    # millisecond benches must not be gated on timer noise.
    base = make_report({"tiny": 0.002})
    cur = make_report({"tiny": 0.003})
    _, regressed = harness.compare_reports(cur, base, max_regress=0.1)
    assert regressed == []


def test_compare_flags_missing_and_failed_benches():
    base = make_report({"a": 1.0, "b": 1.0})
    cur = make_report(
        {"a": {"ok": False, "wall_s": 0.1, "error": "boom", "metrics": {}}}
    )
    _, regressed = harness.compare_reports(cur, base, max_regress=0.5)
    assert sorted(regressed) == ["a", "b"]  # a failed, b missing


def test_compare_normalizes_by_calibration():
    # Current machine is 2x slower (calibration 2.0 vs 1.0): a 2x wall is
    # expected, not a regression; without normalisation it flags.
    base = make_report({"a": 1.0}, calibration=1.0)
    cur = make_report({"a": 2.0}, calibration=2.0)
    _, regressed = harness.compare_reports(cur, base, max_regress=0.15)
    assert regressed == []
    _, raw_regressed = harness.compare_reports(
        cur, base, max_regress=0.15, normalize=False
    )
    assert raw_regressed == ["a"]


def test_compare_calibration_itself_is_not_gated():
    base = make_report({}, calibration=1.0)
    cur = make_report({}, calibration=99.0)
    _, regressed = harness.compare_reports(cur, base, max_regress=0.1)
    assert regressed == []


def test_compare_reports_benches_missing_from_baseline_as_ungated():
    base = make_report({"a": 1.0}, calibration=1.0)
    cur = make_report({"a": 1.0, "new": 9.0}, calibration=1.0)
    lines, regressed = harness.compare_reports(cur, base, max_regress=0.1)
    assert "new: UNGATED (not in baseline)" in lines
    assert not any("calibration" in line and "UNGATED" in line for line in lines)
    assert regressed == []


def test_fleet_scaling_bench_records_points_and_exponent(monkeypatch):
    import repro.cluster.scenario as scenario

    sizes = []
    monkeypatch.setattr(
        scenario,
        "run_cluster_scenario",
        lambda config: sizes.append((config.n_machines, config.n_vms)),
    )
    metrics = harness.NATIVE_BENCHES["fleet-scaling"]()
    # Equal work per point: 16 runs at 32 hosts, 4 at 128, 1 at 512.
    assert sizes == [(32, 96)] * 16 + [(128, 384)] * 4 + [(512, 1536)]
    assert set(metrics) == {"wall_s_h32", "wall_s_h128", "wall_s_h512", "growth_exponent"}


# ------------------------------------------------------------- run_benches


def test_run_benches_report_shape(monkeypatch, tmp_path):
    monkeypatch.setattr(
        harness, "NATIVE_BENCHES", {"tiny": lambda: {"value": 42}}
    )
    report = harness.run_benches(["tiny"], suite="smoke")
    assert report["schema"] == harness.SCHEMA
    assert report["benches"]["tiny"]["ok"] is True
    assert report["benches"]["tiny"]["metrics"] == {"value": 42}
    assert report["benches"]["tiny"]["wall_s"] >= 0.0
    path = harness.write_report(report, tmp_path / "BENCH_test.json")
    loaded = harness.load_report(path)
    assert loaded["benches"]["tiny"]["metrics"]["value"] == 42


def test_run_benches_captures_bench_failure(monkeypatch):
    def explode() -> dict:
        raise RuntimeError("kaput")

    monkeypatch.setattr(harness, "NATIVE_BENCHES", {"bad": explode})
    report = harness.run_benches(["bad"], suite="smoke")
    entry = report["benches"]["bad"]
    assert entry["ok"] is False
    assert "kaput" in entry["error"]


def test_run_benches_unknown_name_raises(monkeypatch):
    with pytest.raises(KeyError):
        harness.run_benches(["no-such-bench"], suite="smoke")


def test_load_report_rejects_foreign_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError):
        harness.load_report(path)


def test_suites_cover_pytest_benches():
    smoke = harness.available_benches("smoke")
    full = harness.available_benches("full")
    assert set(smoke) <= set(full)
    assert "stress-fleet-cold" in smoke
    assert "tracing-off" in smoke
    assert any(name.startswith("bench_") for name in full)


# -------------------------------------------------------------------- CLI


def test_cli_bench_list(capsys):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "stress-fleet-cold" in out


def test_cli_bench_compare_roundtrip(tmp_path, monkeypatch, capsys):
    from benchmarks import harness as real_harness
    from repro.cli import main

    monkeypatch.setattr(
        real_harness, "NATIVE_BENCHES", {"tiny": lambda: {"value": 1}}
    )
    first = tmp_path / "base.json"
    assert main(["bench", "--bench", "tiny", "--out", str(first)]) == 0
    second = tmp_path / "next.json"
    assert (
        main(
            [
                "bench",
                "--bench",
                "tiny",
                "--out",
                str(second),
                "--compare",
                str(first),
                "--max-regress",
                "10000%",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "no regressions" in out


def test_cli_bench_compare_retries_before_failing(tmp_path, monkeypatch, capsys):
    import time as time_mod

    from benchmarks import harness as real_harness
    from repro.cli import main

    calls = []

    def slow() -> dict:
        calls.append(1)
        time_mod.sleep(0.12)
        return {}

    monkeypatch.setattr(real_harness, "NATIVE_BENCHES", {"slow": slow})
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(make_report({"slow": 0.001})))
    code = main(
        [
            "bench",
            "--bench",
            "slow",
            "--out",
            str(tmp_path / "out.json"),
            "--compare",
            str(baseline),
            "--max-regress",
            "10%",
        ]
    )
    assert code == 1  # a genuine (reproduced) regression still fails
    # best-of-2 initial run + best-of-2 re-measure before the verdict.
    assert len(calls) == 4
    assert "regressed" in capsys.readouterr().out


def test_cli_bench_rejects_unknown_bench(capsys):
    from repro.cli import main

    assert main(["bench", "--bench", "nope"]) == 2
