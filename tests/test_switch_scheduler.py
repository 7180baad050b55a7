"""Tests for the switch schedulers: greedy, DEC (PIM) and perfect."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.switch_scheduler import (
    DecScheduler,
    GreedyPriorityScheduler,
    PerfectSwitchScheduler,
    validate_grants,
)
from repro.sim.rng import SeededRng

from tests.reference_switch import dec_spec, greedy_spec, perfect_spec

NUM_PORTS = 4


def candidate_lists(entries):
    """entries: list of (priority, input, vc, output) -> the offer lists
    ``schedule`` is handed: one ascending list per input port that
    offers anything."""
    lists = [[] for _ in range(NUM_PORTS)]
    for priority, input_port, vc, output in entries:
        lists[input_port].append((-priority, input_port, vc, output))
    return [sorted(lst) for lst in lists if lst]


# Strategy: a random candidate landscape over NUM_PORTS ports.
random_candidates = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False),
        st.integers(0, NUM_PORTS - 1),
        st.integers(0, 15),
        st.integers(0, NUM_PORTS - 1),
    ),
    max_size=30,
)


class TestGreedy:
    def test_no_candidates_no_grants(self):
        assert GreedyPriorityScheduler().schedule([[] for _ in range(4)], 0) == []

    def test_highest_priority_wins_conflict(self):
        lists = candidate_lists([
            (5.0, 0, 1, 2),
            (9.0, 1, 7, 2),  # same output, higher priority
        ])
        grants = GreedyPriorityScheduler().schedule(lists, 0)
        winners = {(input_port, vc) for input_port, vc, _ in grants}
        assert (1, 7) in winners
        assert (0, 1) not in winners

    def test_loser_can_use_other_output(self):
        lists = candidate_lists([
            (9.0, 1, 7, 2),
            (5.0, 0, 1, 2),
            (1.0, 0, 3, 3),  # port 0's fallback to a free output
        ])
        grants = GreedyPriorityScheduler().schedule(lists, 0)
        assert (1, 7, 2) in grants
        assert (0, 3, 3) in grants

    def test_matching_is_maximal(self):
        # Whenever an input has a candidate to a free output, it is used.
        lists = candidate_lists([
            (9.0, 0, 0, 0),
            (8.0, 1, 0, 1),
            (7.0, 2, 0, 2),
            (6.0, 3, 0, 3),
        ])
        grants = GreedyPriorityScheduler().schedule(lists, 0)
        assert len(grants) == 4

    def test_deterministic_tie_break(self):
        lists = candidate_lists([
            (5.0, 0, 3, 1),
            (5.0, 1, 3, 1),
        ])
        grants = GreedyPriorityScheduler().schedule(lists, 0)
        assert grants == [(0, 3, 1)]

    @given(random_candidates)
    def test_grants_always_valid(self, entries):
        grants = GreedyPriorityScheduler().schedule(candidate_lists(entries), 0)
        validate_grants(grants, NUM_PORTS, output_concurrency=1)

    @given(random_candidates)
    def test_maximality_property(self, entries):
        """After greedy matching, no (input, output) pair with an offered
        candidate is left with both sides free."""
        lists = candidate_lists(entries)
        grants = GreedyPriorityScheduler().schedule(lists, 0)
        used_inputs = {input_port for input_port, _, _ in grants}
        used_outputs = {output_port for _, _, output_port in grants}
        for lst in lists:
            for _, input_port, _, output_port in lst:
                free_both = (
                    input_port not in used_inputs
                    and output_port not in used_outputs
                )
                assert not free_both


class TestDec:
    def make(self, iterations=4):
        return DecScheduler(SeededRng(3, "dec"), iterations=iterations)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            DecScheduler(SeededRng(1, "x"), iterations=0)

    def test_single_candidate_granted(self):
        lists = candidate_lists([(1.0, 0, 2, 3)])
        assert self.make().schedule(lists, 0) == [(0, 2, 3)]

    def test_conflicting_requests_one_winner(self):
        lists = candidate_lists([
            (1.0, 0, 1, 2),
            (1.0, 1, 1, 2),
        ])
        grants = self.make().schedule(lists, 0)
        assert len(grants) == 1
        assert grants[0][2] == 2

    def test_iterations_improve_matching(self):
        # Input 0 can reach outputs {0,1}, input 1 only output 0.  A
        # one-shot random match may strand input 1; iteration recovers it.
        lists = candidate_lists([
            (1.0, 0, 0, 0),
            (1.0, 0, 1, 1),
            (1.0, 1, 0, 0),
        ])
        sizes = set()
        for seed in range(30):
            scheduler = DecScheduler(SeededRng(seed, "it"), iterations=4)
            sizes.add(len(scheduler.schedule(lists, 0)))
        assert 2 in sizes  # the full matching is regularly found

    @given(random_candidates, st.integers(0, 100))
    @settings(max_examples=60)
    def test_grants_always_valid(self, entries, seed):
        scheduler = DecScheduler(SeededRng(seed, "prop"))
        grants = scheduler.schedule(candidate_lists(entries), 0)
        validate_grants(grants, NUM_PORTS, output_concurrency=1)

    def test_reproducible_with_seed(self):
        lists = candidate_lists([
            (1.0, 0, 1, 2),
            (1.0, 1, 4, 2),
            (1.0, 2, 5, 1),
        ])
        a = DecScheduler(SeededRng(9, "same")).schedule(lists, 0)
        b = DecScheduler(SeededRng(9, "same")).schedule(lists, 0)
        assert a == b


class TestPerfect:
    def test_validation(self):
        with pytest.raises(ValueError):
            PerfectSwitchScheduler(0)

    def test_every_input_transmits_best(self):
        lists = candidate_lists([
            (9.0, 0, 1, 2),
            (8.0, 1, 4, 2),
            (7.0, 2, 6, 2),
        ])
        grants = PerfectSwitchScheduler(NUM_PORTS).schedule(lists, 0)
        assert len(grants) == 3
        assert all(output_port == 2 for _, _, output_port in grants)

    def test_one_flit_per_input(self):
        lists = candidate_lists([
            (9.0, 0, 1, 2),
            (5.0, 0, 3, 1),
        ])
        grants = PerfectSwitchScheduler(NUM_PORTS).schedule(lists, 0)
        assert grants == [(0, 1, 2)]

    @given(random_candidates)
    def test_grants_valid_with_full_concurrency(self, entries):
        scheduler = PerfectSwitchScheduler(NUM_PORTS)
        grants = scheduler.schedule(candidate_lists(entries), 0)
        validate_grants(grants, NUM_PORTS, output_concurrency=NUM_PORTS)


class TestValidateGrants:
    def test_detects_duplicate_input(self):
        with pytest.raises(ValueError, match="granted twice"):
            validate_grants([(0, 1, 1), (0, 2, 2)], 4)

    def test_detects_output_overcommit(self):
        with pytest.raises(ValueError, match="over-committed"):
            validate_grants([(0, 1, 1), (1, 2, 1)], 4)

    def test_concurrency_allows_sharing(self):
        validate_grants(
            [(0, 1, 1), (1, 2, 1)], 4, output_concurrency=2
        )

    def test_detects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            validate_grants([(5, 0, 0)], 4)
        with pytest.raises(ValueError, match="out of range"):
            validate_grants([(0, 0, 5)], 4)

    def test_detects_a_grant_nobody_offered(self):
        offers = candidate_lists([(5.0, 0, 1, 2), (4.0, 1, 3, 0)])
        validate_grants([(0, 1, 2), (1, 3, 0)], 4, offers=offers)
        with pytest.raises(ValueError, match=r"grant \(0, 2, 2\) matches no offer"):
            validate_grants([(0, 2, 2)], 4, offers=offers)
        with pytest.raises(ValueError, match="matches no offer"):
            validate_grants([(1, 3, 1)], 4, offers=offers)  # wrong output
        validate_grants([(0, 2, 2)], 4)  # without offers: structure only


# An 8-port landscape built to tie: few ranks (0.0 and -0.0 among them),
# so equal priorities across ports are the rule, not the exception.
RANKS = (0.0, -0.0, -1.0, -2.5, 1.0)
landscape = st.lists(
    st.tuples(
        st.sampled_from(RANKS),
        st.integers(0, 7),  # input port
        st.integers(0, 15),  # vc index
        st.integers(0, 7),  # output port
    ),
    max_size=40,
)


def offer_lists_of(entries, limit):
    """Ascending per-port offer lists of at most ``limit`` offers, one
    offer per (input port, VC), empty ports included."""
    lists = [[] for _ in range(8)]
    seen = set()
    for rank, input_port, vc, output in entries:
        if (input_port, vc) not in seen:
            seen.add((input_port, vc))
            lists[input_port].append((rank, input_port, vc, output))
    return [sorted(lst)[:limit] for lst in lists]


class TestAgainstTheSpecs:
    @settings(max_examples=200, deadline=None)
    @given(landscape, st.integers(1, 8))
    def test_greedy_equals_the_naive_spec(self, entries, limit):
        lists = offer_lists_of(entries, limit)
        offered = [lst for lst in lists if lst]
        assert GreedyPriorityScheduler().schedule(offered, 0) == greedy_spec(lists)

    @settings(max_examples=100, deadline=None)
    @given(landscape, st.integers(1, 8), st.integers(0, 1000), st.integers(1, 4))
    def test_dec_draws_as_over_port_indexed_lists(
        self, entries, limit, seed, iterations
    ):
        lists = offer_lists_of(entries, limit)
        spec_rng = SeededRng(seed, "dec-spec")
        expected = dec_spec(spec_rng, iterations, lists)
        scheduler = DecScheduler(SeededRng(seed, "dec-spec"), iterations)
        assert scheduler.schedule([lst for lst in lists if lst], 0) == expected
        assert scheduler.rng.getstate() == spec_rng.getstate()

    @given(landscape, st.integers(1, 8))
    def test_perfect_equals_the_spec(self, entries, limit):
        lists = offer_lists_of(entries, limit)
        offered = [lst for lst in lists if lst]
        assert PerfectSwitchScheduler(8).schedule(offered, 0) == perfect_spec(lists)
