"""The per-hop budget (DESIGN.md §7h), enforced by counting calls.

Call counts of a seeded run repeat exactly, so unlike a timing gate this
cannot flake; a change that puts a method hop back on the per-flit path
fails here before anyone has to time it.  Run with ``-s`` to print the
per-layer table DESIGN.md quotes.
"""

import pytest

from tests.hop_budget import HopBudget, budget_spec

#: Calls per flit hop of :func:`budget_spec`.  46.68 until ``candidates``
#: became the scan itself instead of dispatching to it (one frame per
#: scan, 1.16 per hop); 78.85 before the budget was written (7436230).
MEASURED_CALLS_PER_HOP = 45.53


@pytest.fixture(scope="module")
def budget():
    return HopBudget(budget_spec())


def test_calls_per_hop_within_budget(budget):
    """mesh4x4, XY routing, 60 % link load, 1 200 cycles, seed 11:
    2 072 507 calls for 45 519 flit hops = 45.53 per hop (was 2 124 807 =
    46.68 with the ``candidates`` dispatch frame, 3 589 203 = 78.85
    before the budget)."""
    print()
    print(budget.table())
    assert budget.hops == 45519  # the scenario itself has not moved
    assert budget.calls_per_hop <= MEASURED_CALLS_PER_HOP * 1.05


def test_candidates_is_the_scan(budget):
    """One frame per scan: no body behind ``LinkScheduler.candidates``."""
    assert budget.calls("candidates", "core/link_scheduler.py") > 0
    assert budget.calls("_candidates_fused") == 0


def test_transit_hops_fold_no_statistics(budget):
    """``RunningStats.add``: delay + jitter at the interface and delay +
    jitter + ``switch_delay`` at the last router, per delivered flit."""
    adds = budget.calls("add", "sim/stats.py")
    assert 0 < adds <= 5 * budget.host_deliveries
    assert budget.host_deliveries < budget.hops / 3  # most hops are transit


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
