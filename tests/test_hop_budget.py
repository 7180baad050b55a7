"""The per-hop budget (DESIGN.md §7h), enforced by counting calls.

Call counts of a seeded run repeat exactly, so unlike a timing gate this
cannot flake; a change that puts a method hop back on the per-flit path
fails here before anyone has to time it.  Two scenarios: a loaded mesh4x4
(transit hops) and the paper's single router at 90 % load (every hop a
last hop, the scheduler layers at their busiest).  Run with ``-s`` to
print the per-layer tables DESIGN.md quotes.
"""

from dataclasses import replace

import pytest

from repro.harness.network_experiment import NetworkExperiment
from repro.harness.single_router import SingleRouterExperiment
from tests.hop_budget import HopBudget, budget_spec, paper_spec

#: Calls per flit hop of :func:`budget_spec`.  31.02 while the candidate
#: scan re-validated each VC's priority terms and walked its mask a bit at
#: a time (the new head's terms cost nothing here: biased terms follow
#: the connection, not the flit); 33.84 while every source
#: arrival was a heap event and every delivery folded its statistics at
#: once; 45.53 while offers and grants were namedtuples ordered by key
#: functions; 46.68 until ``candidates`` became the scan itself instead of
#: dispatching to it (one frame per scan, 1.16 per hop); 78.85 before the
#: budget was written (7436230).
MEASURED_CALLS_PER_HOP = 30.44
#: Calls per flit hop of :func:`paper_spec`: 40.86 with a ``bit_length``
#: per eligible VC and the priority terms re-validated in the scan, 51.91
#: with heap-event arrivals and per-flit statistics, 90.21 with namedtuple
#: offers and grants.
MEASURED_PAPER_CALLS_PER_HOP = 34.38
#: What the switch scheduler may spend per hop on either scenario.
SCHEDULE_CALLS_PER_HOP = 4.0
#: The paper point's bookkeeping layers: ``_transmit`` + ``_deliver`` was
#: 14.39 calls per hop while the sink folded two Welford updates, an
#: ``abs`` and the ``switch_delay`` series per flit; sources were 9.60
#: while each arrival pushed and popped a new heap event.
PAPER_DELIVER_CALLS_PER_HOP = 8.5
PAPER_SOURCES_CALLS_PER_HOP = 6.5


@pytest.fixture(scope="module")
def budget():
    return HopBudget(NetworkExperiment(budget_spec()))


@pytest.fixture(scope="module")
def paper_budget():
    return HopBudget(SingleRouterExperiment(paper_spec()))


def test_calls_per_hop_within_budget(budget):
    """mesh4x4, XY routing, 60 % link load, 1 200 cycles, seed 11:
    1 385 748 calls for 45 519 flit hops = 30.44 per hop (was 1 412 027 =
    31.02 with the bit-at-a-time scan, ``candidates`` 6.13 per hop, now
    5.55; 1 540 501 =
    33.84 with heap-event arrivals and per-flit statistics, 2 072 507 =
    45.53 with namedtuple offers and grants — ``candidates`` 11.25 and
    ``schedule`` 9.46 per hop, now 6.13 and 2.15 — 2 124 807 = 46.68 with
    the ``candidates`` dispatch frame, 3 589 203 = 78.85 before the
    budget)."""
    print()
    print(budget.table())
    assert budget.hops == 45519  # the scenario itself has not moved
    assert budget.calls_per_hop <= MEASURED_CALLS_PER_HOP * 1.05


def test_paper_point_calls_per_hop_within_budget(paper_budget):
    """One 8x8 router, 90 % load, biased priority, ``per_output``
    candidates, greedy arbitration, 3 000 cycles, seed 11: 619 216 calls
    for 18 009 flit hops = 34.38 per hop (was 735 926 = 40.86 with a
    ``bit_length`` per eligible VC and the priority terms re-validated in
    the scan, ``candidates`` 14.46 per hop, now 7.97; 934 760 = 51.91 with
    heap-event arrivals and per-flit statistics, 1 624 531 = 90.21 with
    namedtuple offers and grants: ``candidates`` 41.86 and ``schedule``
    13.76 per hop, now 1.70).  Calls cover the warm-up too, so the figure
    reads higher than the same run's steady state."""
    print()
    print(paper_budget.table())
    assert paper_budget.hops == 18009  # the scenario itself has not moved
    assert paper_budget.calls_per_hop <= MEASURED_PAPER_CALLS_PER_HOP * 1.05


@pytest.mark.parametrize(
    "scenario, experiment, spec",
    [
        ("budget", NetworkExperiment, budget_spec),
        ("paper_budget", SingleRouterExperiment, paper_spec),
    ],
    ids=["mesh4x4", "paper_point"],
)
def test_disabled_recorder_adds_no_calls(scenario, experiment, spec, request):
    """A built but disabled flight recorder costs what none costs: every
    emission site is an attribute read and a branch, not a call (31.0206
    -> 31.0208 and 40.8643 -> 40.8648 calls per hop, the difference
    being round boundaries that return early)."""
    plain = request.getfixturevalue(scenario)
    observed = experiment(replace(spec(), telemetry=True))
    observed.recorder.set_enabled(False)
    disabled = HopBudget(observed)
    assert disabled.hops == plain.hops
    assert disabled.calls_per_hop - plain.calls_per_hop <= 0.01


@pytest.mark.parametrize("scenario", ["budget", "paper_budget"])
def test_schedule_layer_within_budget(scenario, request):
    measured = request.getfixturevalue(scenario)
    assert measured.layers["schedule"] / measured.hops <= SCHEDULE_CALLS_PER_HOP


@pytest.mark.parametrize("scenario", ["budget", "paper_budget"])
def test_offers_are_plain_tuples(scenario, request):
    """No key function orders an offer and no namedtuple wraps one: a
    namedtuple's generated ``__new__`` is a lambda compiled from a
    string."""
    measured = request.getfixturevalue(scenario)
    assert measured.calls("sort_key") == 0
    assert measured.calls("_winner_sort_key") == 0
    assert measured.calls("<lambda>", "<string>") == 0


def test_candidates_is_the_scan(budget):
    """One frame per scan: no body behind ``LinkScheduler.candidates``."""
    assert budget.calls("candidates", "core/link_scheduler.py") > 0
    assert budget.calls("_candidates_fused") == 0


def test_paper_point_bookkeeping_layers(paper_budget):
    """The sink appends and the sources re-file: ``_transmit`` +
    ``_deliver`` 8.47 calls per hop (was 14.39), sources 6.00 (was
    9.60)."""
    layers, hops = paper_budget.layers, paper_budget.hops
    assert layers["_transmit+_deliver"] / hops <= PAPER_DELIVER_CALLS_PER_HOP
    assert layers["sources"] / hops <= PAPER_SOURCES_CALLS_PER_HOP


def test_transit_hops_fold_no_statistics(budget):
    """No ``RunningStats.add`` during the run: the last router and the
    interface append delays, which are folded in batches by
    ``RunningStats.extend`` (it was delay + jitter at the interface and
    delay + jitter + ``switch_delay`` at the last router, per delivered
    flit)."""
    assert budget.calls("add", "sim/stats.py") == 0
    assert budget.calls("extend", "sim/stats.py") > 0
    assert budget.host_deliveries < budget.hops / 3  # most hops are transit


def test_arrivals_refile_one_event(paper_budget):
    """A CBR arrival re-files its source's own event: no ``Event`` is
    built per flit, and ``heappush`` runs once per new lane, not per
    arrival (3 003 lanes — about one per cycle — for 21 610 arrivals)."""
    arrivals = paper_budget.calls("_on_arrival", "traffic/cbr.py")
    assert paper_budget.calls("refile", caller="_on_arrival") == arrivals > 0
    assert paper_budget.calls("__init__", "sim/events.py") < arrivals / 20
    assert 0 < paper_budget.calls("heappush", caller="refile") < arrivals / 5


def test_buffer_length_is_read_once_per_inject(budget):
    injects = budget.calls("inject", "core/router.py")
    assert budget.calls("builtins.len", caller="inject") == injects > 0
    assert budget.calls("is_full", "core/virtual_channel.py") == 0


def test_one_call_per_lane_record(budget):
    """``Network._tick`` lands a flit with one ``inject`` and a credit
    with one ``replenish``; the handlers that queued them made at most
    one call each (the append)."""
    link_flits = budget.calls("send", "network/network.py")
    credits = budget.calls("credit", "network/network.py")
    landed = budget.calls("inject", "core/router.py", caller="_tick")
    replenished = budget.calls("replenish", caller="_tick")
    assert landed + budget.flits_in_flight == link_flits > 0
    assert replenished + budget.credits_in_flight == credits > 0
    assert budget.calls("_arrive", "network/network.py") == 0  # no best-effort here
    # (The first record of a cycle starts its lane instead of appending.)
    assert 0 < budget.calls("append", caller="send") <= link_flits
    assert 0 < budget.calls("append", caller="credit") <= credits
