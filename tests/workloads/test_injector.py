"""Unit tests for the httperf-style injector."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import Engine, RngStreams
from repro.workloads import HttperfInjector, LoadProfile


def collect(profile, *, duration=10.0, period=0.05, poisson=False, seed=0):
    engine = Engine()
    batches = []
    rng = RngStreams(seed).stream("injector") if poisson else None
    injector = HttperfInjector(
        engine,
        profile,
        lambda n, now: batches.append((now, n)),
        injection_period=period,
        poisson=poisson,
        rng=rng,
    )
    injector.start()
    engine.run_until(duration)
    return injector, batches


def test_fluid_rate_is_exact():
    injector, batches = collect(LoadProfile.constant(40.0))
    total = sum(n for _, n in batches)
    assert total == pytest.approx(40.0 * 10.0, rel=0.01)


def test_fractional_rates_carry_over():
    injector, batches = collect(LoadProfile.constant(0.3), period=1.0)
    total = sum(n for _, n in batches)
    assert total == pytest.approx(3.0, abs=0.4)


def test_zero_rate_produces_no_batches():
    injector, batches = collect(LoadProfile.constant(0.0))
    assert batches == []
    assert injector.requests_sent == 0


def test_profile_phases_respected():
    profile = LoadProfile.three_phase(3.0, 7.0, 10.0)
    injector, batches = collect(profile)
    before = [n for t, n in batches if t < 3.0]
    during = sum(n for t, n in batches if 3.0 <= t < 7.0)
    after = [n for t, n in batches if t >= 7.05]
    assert not before
    assert during == pytest.approx(40.0, rel=0.05)
    assert not after


def test_poisson_mode_total_approximates_rate():
    injector, batches = collect(LoadProfile.constant(40.0), poisson=True, duration=50.0)
    total = sum(n for _, n in batches)
    assert total == pytest.approx(2000.0, rel=0.1)


def test_poisson_batches_are_integers():
    injector, batches = collect(LoadProfile.constant(40.0), poisson=True)
    assert all(float(n).is_integer() for _, n in batches)


def test_poisson_reproducible_with_seed():
    _, first = collect(LoadProfile.constant(10.0), poisson=True, seed=5)
    _, second = collect(LoadProfile.constant(10.0), poisson=True, seed=5)
    assert first == second


def test_poisson_requires_rng():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        HttperfInjector(engine, LoadProfile.constant(1.0), lambda n, t: None, poisson=True)


def test_stop_halts_injection():
    engine = Engine()
    batches = []
    injector = HttperfInjector(engine, LoadProfile.constant(10.0), lambda n, t: batches.append(n))
    injector.start()
    engine.run_until(1.0)
    injector.stop()
    count = len(batches)
    engine.run_until(5.0)
    assert len(batches) == count


def test_on_fire_runs_before_each_batch_and_sees_retirement():
    engine = Engine()
    seen = []
    injector = None

    def on_fire(now):
        seen.append(("fire", now, injector.retired))

    injector = HttperfInjector(
        engine,
        LoadProfile.three_phase(0.1, 0.2, 100.0),
        lambda n, now: seen.append(("batch", now, injector.retired)),
        injection_period=0.05,
        on_fire=on_fire,
    )
    injector.start()
    engine.run_until(1.0)
    fires = [entry for entry in seen if entry[0] == "fire"]
    # One call per fire, the retiring fire (t = 0.2) included, and none after.
    assert [now for _, now, _ in fires] == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])
    assert [retired for _, _, retired in fires] == [False] * 4 + [True]
    # Each batch follows its own fire's hook call.
    for index, entry in enumerate(seen):
        if entry[0] == "batch":
            assert seen[index - 1] == ("fire", entry[1], False)
