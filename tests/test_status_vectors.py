"""Tests for status bit vectors and the per-link status bank."""

import pytest
from hypothesis import given, strategies as st

from repro.core.status_vectors import BitVector, StatusBank

index_sets = st.sets(st.integers(0, 63), max_size=20)


def vector_from(indices, width=64):
    v = BitVector(width)
    for i in indices:
        v.set(i)
    return v


class TestBitVector:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            BitVector(0)

    def test_rejects_bits_exceeding_width(self):
        with pytest.raises(ValueError):
            BitVector(4, bits=0x10)

    def test_set_test_clear(self):
        v = BitVector(8)
        assert not v.test(3)
        v.set(3)
        assert v.test(3)
        v.clear(3)
        assert not v.test(3)

    def test_assign(self):
        v = BitVector(8)
        v.assign(2, True)
        assert v.test(2)
        v.assign(2, False)
        assert not v.test(2)

    def test_out_of_range(self):
        v = BitVector(8)
        with pytest.raises(IndexError):
            v.set(8)
        with pytest.raises(IndexError):
            v.test(-1)

    def test_set_all_clear_all(self):
        v = BitVector(5)
        v.set_all()
        assert v.count() == 5
        v.clear_all()
        assert v.count() == 0

    def test_first_set(self):
        v = BitVector(16)
        assert v.first_set() == -1
        v.set(9)
        v.set(4)
        assert v.first_set() == 4

    @given(index_sets)
    def test_indices_match_set_semantics(self, indices):
        v = vector_from(indices)
        assert list(v.indices()) == sorted(indices)
        assert v.count() == len(indices)
        assert v.any() == bool(indices)

    @given(
        st.integers(1, 300).flatmap(
            lambda width: st.tuples(
                st.just(width), st.sets(st.integers(0, width - 1))
            )
        )
    )
    def test_indices_match_naive_scan(self, width_and_indices):
        # The byte walk (to_bytes + a table per byte) must agree with the
        # naive test-every-position scan on arbitrary widths, including
        # widths that are not multiples of the word size.
        width, indices = width_and_indices
        v = vector_from(indices, width=width)
        naive = [i for i in range(v.width) if v.as_int() >> i & 1]
        assert list(v.indices()) == naive

    @given(index_sets, index_sets)
    def test_and_is_intersection(self, a, b):
        result = vector_from(a) & vector_from(b)
        assert set(result.indices()) == a & b

    @given(index_sets, index_sets)
    def test_or_is_union(self, a, b):
        result = vector_from(a) | vector_from(b)
        assert set(result.indices()) == a | b

    @given(index_sets, index_sets)
    def test_xor_is_symmetric_difference(self, a, b):
        result = vector_from(a) ^ vector_from(b)
        assert set(result.indices()) == a ^ b

    @given(index_sets)
    def test_invert_is_complement(self, a):
        result = ~vector_from(a)
        assert set(result.indices()) == set(range(64)) - a

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitVector(4) & BitVector(8)

    def test_equality_and_hash(self):
        a = vector_from({1, 2}, width=8)
        b = vector_from({1, 2}, width=8)
        c = vector_from({1, 3}, width=8)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a vector"

    def test_as_int(self):
        assert vector_from({0, 2}, width=8).as_int() == 0b101

    def test_repr(self):
        assert "width=8" in repr(BitVector(8))


class TestStatusBank:
    def test_standard_vectors_exist(self):
        bank = StatusBank(16)
        for name in StatusBank.STANDARD_VECTORS:
            assert bank.vector(name).width == 16

    def test_credits_start_available(self):
        bank = StatusBank(8)
        assert bank.vector("credits_available").count() == 8

    def test_registered_custom_vector(self):
        bank = StatusBank(8)
        v = bank.register("custom_condition")
        assert v.count() == 0
        v.set(1)
        assert bank.vector("custom_condition").test(1)
        # Re-registering returns the same vector, state intact.
        assert bank.register("custom_condition") is v

    def test_unregistered_name_raises(self):
        # A typo ("flit_available" for "flits_available") used to yield a
        # fresh all-zero vector, making the condition silently
        # unsatisfiable; it must be a loud error instead.
        bank = StatusBank(8)
        with pytest.raises(KeyError, match="flit_available"):
            bank.vector("flit_available")

    def test_names_sorted(self):
        bank = StatusBank(8)
        bank.register("zzz")
        names = bank.names()
        assert names == sorted(names)
        assert "zzz" in names

    def test_eligible_for_service_is_and(self):
        bank = StatusBank(8)
        bank.vector("flits_available").set(2)
        bank.vector("flits_available").set(5)
        bank.vector("credits_available").clear(5)
        assert set(bank.eligible_for_service().indices()) == {2}

    @given(index_sets, index_sets, index_sets, index_sets)
    def test_schedulable_is_fused_and(self, flits, credits, routed, exhausted):
        # The fast-path mask: flits & credits & routed & ~exhausted, as
        # one wide boolean expression over all four vectors.
        bank = StatusBank(64)
        bank.vector("credits_available").clear_all()
        for name, indices in (
            ("flits_available", flits),
            ("credits_available", credits),
            ("routed", routed),
            ("round_budget_exhausted", exhausted),
        ):
            vector = bank.vector(name)
            for i in indices:
                vector.set(i)
        expected = (flits & credits & routed) - exhausted
        assert set(bank.schedulable().indices()) == expected

    def test_cbr_candidates_combination(self):
        # The paper's worked example: flits & credits & requested & ~serviced.
        bank = StatusBank(8)
        flits = bank.vector("flits_available")
        requested = bank.vector("cbr_service_requested")
        serviced = bank.vector("cbr_bandwidth_serviced")
        for i in (1, 2, 3):
            flits.set(i)
            requested.set(i)
        serviced.set(2)
        bank.vector("credits_available").clear(3)
        assert set(bank.cbr_candidates().indices()) == {1}
