"""Fleet planning must not depend on Python's string-hash seed.

The planner's host→VM index is insertion-ordered, so its iteration order
(and every plan built from it) is the same under any ``PYTHONHASHSEED``.
This renders one large-fleet golden case in two interpreters with
different hash seeds and requires the same bytes from both.
"""

import os
import pathlib
import subprocess
import sys

from . import cases

ROOT = pathlib.Path(__file__).resolve().parents[2]
STEM = "dc-fleet-large.consolidate"


def _render(hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from tests.golden import cases; "
            f"sys.stdout.write(cases.cluster_csv({STEM!r}))",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
    )
    return proc.stdout


def test_fleet_golden_is_independent_of_hash_seed():
    first, second = _render("0"), _render("1")
    assert first == second
    assert first.decode() == (cases.FIXTURE_DIR / f"{STEM}.epochs.csv").read_text()
