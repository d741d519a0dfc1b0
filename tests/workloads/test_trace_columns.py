"""The column representation of :class:`TraceLoad`.

Generators build traces straight from ``(starts, percents)`` columns; a
trace built from :class:`TracePoint` objects unzips into the same columns.
These tests pin the two paths to each other, the generated values to the
pre-column generators (digests below), and the validation to the
:class:`TracePoint` error text.
"""

import hashlib
import math
import random

import pytest

from repro.cluster.scenario import ClusterScenarioConfig, make_population
from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import (
    SyntheticTrace,
    TraceLoad,
    TracePoint,
    dayshape_csv,
    dayshape_names,
    dayshape_points,
    dayshape_trace,
)

SEEDS = (0, 1, 2)

#: sha256 of ``dayshape_csv(name, path, seed=seed)`` as written when each
#: shape built one ``TracePoint`` per step.
CSV_SHA256 = {
    ("diurnal-office", 0): "6b6943603beb3f3b80e237ae1aadb3b01065c728cebbde229a8d2c2f0f62a68a",
    ("diurnal-office", 1): "7a5070044cce4c3aa9b62710621851fd4f353cd126c795d20c80a21e7168b603",
    ("diurnal-office", 2): "9569e86f7a0aca69827ee68c0f7f848e847f984f4a5d12a0d7bd9392a9e1c88c",
    ("weekend", 0): "471cbe9d705b70fe5631e5163e029b1f8c3c78b2b2756388cc47efe3c32b9a06",
    ("weekend", 1): "eb8935ef682d6dc5eb66ba34c5facfc91df208fb2f7d54e3ad20052eaad16de2",
    ("weekend", 2): "6932455e76de44baade88868082f7d8c87e2bcdc002cc3bdeab033e868651bc9",
    ("flash-crowd", 0): "440b6f2320b9ddfe1787c264545c16c7b6b5671ac70acdb1a3b130d1c1213134",
    ("flash-crowd", 1): "01f489f5a142f6ecc21add0cee13f37c9927356c65e35417beedc0995e7824d4",
    ("flash-crowd", 2): "fe4138c288b2e4c1a7dd869e9098e084f5361fd78e3ae04907af0341158052b9",
    ("batch-overnight", 0): "2718dcece1550953a4c746648a14baa4901a2a33fe915588213f829cedbf8c45",
    ("batch-overnight", 1): "68cdc306eaa467ba7b6e88b1e9294887bdcfff7a7b7ede68f502c7a0268b9255",
    ("batch-overnight", 2): "c309c00bc350531d9c7a98277aa863ecb5d15124c0f3d08beb2e0f2ec3b3cc23",
    ("noisy-neighbor", 0): "3616a06def58466b66fd63ed1924bf488e7510ab846728802edab1f8eb045bbe",
    ("noisy-neighbor", 1): "ea11a7e12e3be60fc19c4e7b6044c39a91977340872aafcbd49fcfb9d39c8b4a",
    ("noisy-neighbor", 2): "0c3928345218c29e6eefe121059689e3caedc3a087fccc0b2d09446ddc558512",
}

#: sha256 of ``SyntheticTrace().generate(random.Random(seed))`` rendered as
#: ``start!r,percent!r`` lines, from the per-point generator.
SYNTHETIC_SHA256 = {
    0: "340441da8499c5b6afbec9df43fdc853893aec5648d71d422c97b8a01f9edefb",
    1: "136213bc90634a5f973777a961ca8d7bf8c0067b5c46306b4d304b3034079653",
    2: "ce972e76f71ea2110d06edf2ffe211a4d8194ecd01a74e7acab64643f1422beb",
}


def column_traces(repeat):
    """(label, column-built trace) for every catalog shape and seed, plus
    :class:`SyntheticTrace`, as the cluster population builds them."""
    for name in dayshape_names():
        for seed in SEEDS:
            yield f"{name}/{seed}", dayshape_trace(name, random.Random(seed), repeat=repeat)
    for seed in SEEDS:
        yield f"synthetic/{seed}", SyntheticTrace().trace(random.Random(seed), repeat=repeat)


def probe_times(starts):
    """Every point boundary, its float neighbours, the midpoints, and
    the same instants one and two durations later (wrap-around)."""
    duration = starts[-1]
    base = [-1.0]
    for start, end in zip(starts, starts[1:] + (duration + 7.5,)):
        base += [
            start,
            math.nextafter(start, -math.inf),
            math.nextafter(start, math.inf),
            (start + end) / 2.0,
        ]
    return base + [t + k * duration for k in (1, 2) for t in base]


def scanned_demand(points, time, repeat):
    """The trace's demand by a linear scan over its points."""
    duration = points[-1].start
    if repeat and duration > 0:
        time = time % duration
    demand = 0.0
    for point in points:
        if point.start <= time:
            demand = point.percent
    return demand


@pytest.mark.parametrize("repeat", [False, True])
def test_column_and_point_traces_agree_bit_for_bit(repeat):
    for label, trace in column_traces(repeat):
        points = [TracePoint(start=p.start, percent=p.percent) for p in trace.points]
        reference = TraceLoad(points, repeat=repeat)
        for time in probe_times(tuple(p.start for p in points)):
            want = scanned_demand(points, time, repeat)
            assert trace.demand_at(time) == want, (label, time)
            assert reference.demand_at(time) == want, (label, time)


def test_points_round_trip_through_both_constructors():
    for label, trace in column_traces(repeat=True):
        points = trace.points
        assert TraceLoad(points, repeat=True).points == points, label
        starts, percents = zip(*((p.start, p.percent) for p in points))
        assert TraceLoad.from_columns(starts, percents).points == points, label
        assert trace.duration == points[-1].start


@pytest.mark.parametrize("name", dayshape_names())
def test_dayshape_views_match_the_trace(name):
    for seed in SEEDS:
        trace = dayshape_trace(name, random.Random(seed), scale=1.5)
        assert dayshape_points(name, random.Random(seed), scale=1.5) == list(trace.points)


@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_generate_is_the_trace_view(seed):
    generator = SyntheticTrace(bursts=3, noise_percent=4.0)
    trace = generator.trace(random.Random(seed))
    assert generator.generate(random.Random(seed)) == list(trace.points)


@pytest.mark.parametrize("name", dayshape_names())
@pytest.mark.parametrize("seed", SEEDS)
def test_dayshape_csv_bytes_are_unchanged(name, seed, tmp_path):
    path = dayshape_csv(name, tmp_path / "day.csv", seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[name, seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_values_are_unchanged(seed):
    points = SyntheticTrace().generate(random.Random(seed))
    text = "\n".join(f"{p.start!r},{p.percent!r}" for p in points)
    assert hashlib.sha256(text.encode()).hexdigest() == SYNTHETIC_SHA256[seed]


#: sha256 of a default (``dayshapes=()``) cluster population's demands on a
#: 2.5 s grid over two days, from the per-point generator.
POPULATION_SHA256 = {
    0: "91517d605c3085305f16e1426eef93560daa73e114050e880a47d40194ebf287",
    1: "d7a42a29057c7781cbfd969f14d877d2c6510dee68149e773dfb0fc46cb5dd69",
    2: "a8053c0928e6d9f6495962ed842fea7873e8fb2a944c30b0e186ce63982056b1",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_synthetic_cluster_population_is_unchanged(seed):
    config = ClusterScenarioConfig(seed=seed)
    assert config.dayshapes == ()
    vms = make_population(config)
    text = ",".join(repr(vm.demand_at(t * 2.5)) for vm in vms for t in range(400))
    assert hashlib.sha256(text.encode()).hexdigest() == POPULATION_SHA256[seed]


# ------------------------------------------------------------- validation

BAD_VALUES = [math.nan, math.inf, -math.inf, -1.0, -1e-300]


def point_error(column, value):
    """The message ``TracePoint`` raises for *value* in *column*."""
    fields = {"start": 1.0, "percent": 1.0, column: value}
    with pytest.raises(ConfigurationError) as caught:
        TracePoint(**fields)
    return str(caught.value)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize("column", ["start", "percent"])
def test_bad_column_value_raises_the_trace_point_message(column, value):
    columns = {"start": [0.0, 5.0, 10.0, 15.0], "percent": [10.0, 20.0, 30.0, 0.0]}
    columns[column][2] = value
    with pytest.raises(ConfigurationError) as caught:
        TraceLoad.from_columns(columns["start"], columns["percent"])
    assert str(caught.value) == point_error(column, value)


@pytest.mark.parametrize("column", ["start", "percent"])
def test_first_bad_value_is_the_one_reported(column):
    columns = {"start": [0.0, 5.0, 10.0, 15.0], "percent": [10.0, 20.0, 30.0, 0.0]}
    columns[column][1] = -2.0
    columns[column][3] = math.nan
    with pytest.raises(ConfigurationError) as caught:
        TraceLoad.from_columns(columns["start"], columns["percent"])
    assert str(caught.value) == point_error(column, -2.0)


def test_finite_values_whose_sum_overflows_are_accepted():
    trace = TraceLoad.from_columns([0.0, 1e308, 1.7e308], [1.0, 2.0, 0.0])
    assert trace.demand_at(1.5e308) == 2.0


def test_duplicate_starts_rejected_on_both_paths():
    with pytest.raises(WorkloadError, match="duplicate trace point times"):
        TraceLoad.from_columns([0.0, 5.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(WorkloadError, match="duplicate trace point times"):
        TraceLoad([TracePoint(5.0, 1.0), TracePoint(0.0, 2.0), TracePoint(5.0, 3.0)])


def test_unsorted_columns_come_out_sorted():
    trace = TraceLoad.from_columns([10.0, 0.0, 5.0], [1.0, 2.0, 3.0])
    assert trace.points == (TracePoint(0.0, 2.0), TracePoint(5.0, 3.0), TracePoint(10.0, 1.0))
    assert trace.demand_at(7.0) == 3.0


def test_empty_and_ragged_columns_rejected():
    with pytest.raises(WorkloadError, match="at least one point"):
        TraceLoad.from_columns([], [])
    with pytest.raises(WorkloadError, match="differ in length"):
        TraceLoad.from_columns([0.0, 1.0], [5.0])
