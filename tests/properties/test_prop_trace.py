"""Property tests for :meth:`TraceLoad.demand_at`'s bisected lookup.

The lookup must return exactly what a linear scan of the sorted points
returns, including at a point's own start, before the first point, past
the last point and across ``repeat=True`` wrap-around.
"""

from hypothesis import given, settings, strategies as st

from repro.workloads import TraceLoad, TracePoint


def _scan_demand(points, time, repeat):
    """The reference: last point starting at or before *time*, else 0."""
    ordered = sorted(points, key=lambda point: point.start)
    duration = ordered[-1].start
    if repeat and duration > 0:
        time = time % duration
    demand = 0.0
    for point in ordered:
        if time >= point.start:
            demand = point.percent
        else:
            break
    return demand


@st.composite
def traces(draw):
    starts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=1,
            max_size=45,
            unique=True,
        )
    )
    points = [
        TracePoint(start, draw(st.floats(min_value=0.0, max_value=100.0)))
        for start in starts
    ]
    return draw(st.permutations(points))


@given(
    points=traces(),
    repeat=st.booleans(),
    offsets=st.lists(st.floats(min_value=-50.0, max_value=1200.0), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_demand_at_matches_a_linear_scan(points, repeat, offsets):
    trace = TraceLoad(points, repeat=repeat)
    last = max(point.start for point in points)
    times = [point.start for point in points]  # exactly on each start
    times += [min(times) - 1.0, last + 1.0, last * 2.5 + 0.5, last * 3.0]
    times += offsets
    for time in times:
        assert trace.demand_at(time) == _scan_demand(points, time, repeat), time
