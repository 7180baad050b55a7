"""Guards on the deletion of the alternative engines.

One kernel, one candidate scan, one link plane, no switch between them
and no optional dependency: a name that selected or fed a deleted engine
coming back under ``src/``, or NumPy being imported by the simulator,
fails here.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Written in two halves so that a repository-wide grep for a deleted
#: name finds nothing, this file included.
DELETED_NAMES = (
    "allow_fast" "_forward",
    "scheduler_fast" "_path",
    "colum" "nar",
    "network" "_arena",
    "_terms" "_dirty",
    "_legacy" "_kernel",
    "on" "_restore",
)

RUN_BOTH_HARNESSES = """
import sys
import repro
from repro.harness.network_experiment import NetworkExperiment, NetworkExperimentSpec
from repro.harness.single_router import ExperimentSpec, SingleRouterExperiment
SingleRouterExperiment(
    ExperimentSpec(target_load=0.3, warmup_cycles=100, measure_cycles=400)
).result()
NetworkExperiment(
    NetworkExperimentSpec(
        target_link_load=0.3, topology="mesh2x2", warmup_cycles=100, measure_cycles=400
    )
).result()
sys.exit("numpy" in sys.modules)
"""


def test_no_deleted_name_under_src():
    found = [
        f"{path.relative_to(SRC)}:{number}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for name in DELETED_NAMES
        if name in line
    ]
    assert not found, found


def test_the_simulator_never_imports_numpy():
    done = subprocess.run(
        [sys.executable, "-c", RUN_BOTH_HARNESSES],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
