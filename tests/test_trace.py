"""The flight recorder is the router's one observation channel: what the
router emits into it, and what a router without one pays for it."""

import subprocess
import sys
from pathlib import Path

from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.switch_scheduler import GreedyPriorityScheduler
from repro.core.virtual_channel import ServiceClass
from repro.obs import NULL_RECORDER, FlightRecorder
from repro.obs.trace_export import CONN_CLOSE, CONN_OPEN, CUTTHROUGH, DELIVER, ROUND
from repro.sim.engine import Simulator

SRC = Path(__file__).resolve().parent.parent / "src"

#: Imports the router with ``subprocess.run`` spied on; exits non-zero
#: when the import started a subprocess.
IMPORT_ROUTER = """
import subprocess
import sys
calls = []
real_run = subprocess.run
def spy(*args, **kwargs):
    calls.append(args[0] if args else kwargs.get("args"))
    return real_run(*args, **kwargs)
subprocess.run = spy
import repro.core.router
print(calls)
sys.exit(1 if calls else 0)
"""


def build(recorder=None):
    config = RouterConfig(
        num_ports=4, vcs_per_port=8, enforce_round_budgets=False,
        round_factor=1,
    )
    sim = Simulator()
    router = Router(
        config, BiasedPriority(), GreedyPriorityScheduler(), sim,
        recorder=recorder,
    )
    return router, sim, config


def kinds(recorder, *wanted):
    return [event for event in recorder.events if event[0] in wanted]


class TestRouterIntegration:
    def test_connection_events_traced(self):
        recorder = FlightRecorder()
        router, sim, config = build(recorder)
        vc_index = router.open_connection(
            1, 0, 2, BandwidthRequest(2), interarrival_cycles=5.0
        )
        router.close_connection(1, 0, vc_index, 2, BandwidthRequest(2))
        assert kinds(recorder, CONN_OPEN, CONN_CLOSE) == [
            (CONN_OPEN, 0, 0, vc_index, 1, -1),
            (CONN_CLOSE, 0, 0, vc_index, 1, -1),
        ]

    def test_round_boundary_traced(self):
        """One ``ROUND`` event per boundary, at the boundary's cycle."""
        recorder = FlightRecorder()
        router, sim, config = build(recorder)
        sim.run(config.round_length * 2)
        rounds = [event[1] for event in kinds(recorder, ROUND)]
        assert rounds == [config.round_length - 1, 2 * config.round_length - 1]

    def test_cut_through_traced(self):
        """The ``CUTTHROUGH`` event precedes the ``DELIVER`` it causes."""
        recorder = FlightRecorder()
        router, sim, config = build(recorder)
        vc_index = router.open_packet_vc(0, 3, ServiceClass.CONTROL, 60)
        flit = Flit(FlitType.CONTROL, connection_id=60, is_tail=True)
        router.inject(0, vc_index, flit)
        events = [
            event[0] for event in kinds(recorder, CUTTHROUGH, DELIVER)
            if event[5] == flit.flit_id
        ]
        assert events == [CUTTHROUGH, DELIVER]

    def test_default_router_holds_null_recorder(self):
        router, sim, config = build()
        assert router.recorder is NULL_RECORDER


def test_open_and_close_make_no_observation_call_when_disabled():
    """With the recorder disabled, opening and closing a connection calls
    nothing in ``repro/obs/`` and, of ``repro/sim/``, only the clock
    (``engine``) and the router's counters (``stats``): each emission
    site is a guarded attribute read, not a call."""
    router, sim, config = build()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        vc_index = router.open_connection(
            1, 0, 2, BandwidthRequest(2), interarrival_cycles=5.0
        )
        router.close_connection(1, 0, vc_index, 2, BandwidthRequest(2))
    finally:
        sys.setprofile(None)
    observing = sorted(
        str(path.relative_to(SRC / "repro"))
        for path in {Path(name).resolve() for name in called}
        if path.is_relative_to(SRC / "repro/obs")
        or (
            path.is_relative_to(SRC / "repro/sim")
            and path.name not in ("engine.py", "stats.py")
        )
    )
    assert observing == []


def test_importing_the_router_starts_no_subprocess():
    """The null recorder carries an empty manifest: building a real one
    runs ``git`` and ``uname`` for a recorder that never records."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_ROUTER],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
