"""The one engine did not move: every benchmark workload's digest, pinned.

With the alternative engines gone there is no engine-vs-engine identity
left to run, so the simulated behaviour is held to the values read at the
commit that deleted them.  A digest folds every delivered flit's
connection, sequence number and timing (``bench/workloads.py``); it moves
only when the model's behaviour does, and then the change must say why.
"""

import importlib.util
from pathlib import Path

import pytest

_WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: ``summary()["sim_digest"][:12]`` at (seed=11, scale=0.1).
GOLDEN = {
    "router_paper_load90": "47ff91f782cc",
    "router_sat_256vc": "f62a8c50b5f4",
    "mesh8_load60": "c5822211330a",
    "sparse_torus16": "1dbe8a72498c",
    "churn_mix": "01fe2b84be33",
    "fabric_grid": "ee3f6b9a9b65",
}


def test_every_benchmark_workload_is_pinned():
    assert [cls.name for cls in workloads.WORKLOADS] == list(GOLDEN)


@pytest.mark.parametrize("cls", workloads.WORKLOADS, ids=lambda cls: cls.name)
def test_digest_is_the_recorded_one(cls):
    workload = cls(seed=11, scale=0.1)
    try:
        workload.run()
        assert workload.summary()["sim_digest"][:12] == GOLDEN[cls.name]
    finally:
        workload.cleanup()
