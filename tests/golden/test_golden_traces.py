"""Golden-trace tests: the engine must reproduce the pinned fixtures.

The fixtures under ``fixtures/`` are full-precision renders (see
``cases.py`` for their provenance).  Every case must match byte for
byte — a single low-order energy bit moving means a billing point was
added, removed or reordered, which is exactly the class of bug a
performance refactor of the hot path can introduce.
"""

import pytest

from . import cases


@pytest.mark.parametrize("stem", sorted(cases.all_cases()))
def test_export_byte_identical_to_seed_engine(stem):
    render, suffix = cases.all_cases()[stem]
    path = cases.FIXTURE_DIR / f"{stem}{suffix}"
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "'python -m tests.golden.generate_fixtures' on a known-good tree"
    )
    rendered = render(stem)
    expected = path.read_text()
    if rendered != expected:  # pinpoint the first divergence for the report
        got_lines = rendered.splitlines()
        want_lines = expected.splitlines()
        for index, (got, want) in enumerate(zip(got_lines, want_lines)):
            assert got == want, (
                f"{stem}: first divergence at line {index}: {got!r} != {want!r}"
            )
        assert len(got_lines) == len(want_lines), (
            f"{stem}: line count {len(got_lines)} != fixture {len(want_lines)}"
        )
    assert rendered == expected
