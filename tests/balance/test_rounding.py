"""Apportionment helpers: proportional_allocation and round_allocation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balance import proportional_allocation, round_allocation
from repro.errors import AllocationError


class TestProportional:
    def test_exact_proportions(self):
        counts = proportional_allocation({"a": 3.0, "b": 1.0}, 8)
        assert counts == {"a": 6, "b": 2}

    def test_minimum_enforced_for_zero_weight(self):
        counts = proportional_allocation({"a": 10.0, "b": 0.0}, 8)
        assert counts["b"] == 1
        assert counts["a"] == 7

    def test_all_zero_weights_split_evenly(self):
        counts = proportional_allocation({"a": 0.0, "b": 0.0}, 8)
        assert counts == {"a": 4, "b": 4}

    def test_negative_weights_treated_as_zero(self):
        counts = proportional_allocation({"a": -5.0, "b": 1.0}, 4)
        assert counts["a"] == 1

    def test_infeasible_total_rejected(self):
        with pytest.raises(AllocationError):
            proportional_allocation({"a": 1.0, "b": 1.0, "c": 1.0}, 2)

    def test_empty_rejected(self):
        with pytest.raises(AllocationError):
            proportional_allocation({}, 4)

    def test_deterministic_regardless_of_dict_order(self):
        w1 = {"a": 1.0, "b": 2.0, "c": 3.0}
        w2 = {"c": 3.0, "a": 1.0, "b": 2.0}
        assert proportional_allocation(w1, 7) == proportional_allocation(w2, 7)

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.floats(0, 100, allow_nan=False),
                           min_size=1, max_size=10),
           st.integers(1, 200))
    @settings(max_examples=150, deadline=None)
    def test_sums_to_total_and_respects_floor(self, weights, extra):
        total = len(weights) + extra
        counts = proportional_allocation(weights, total)
        assert sum(counts.values()) == total
        assert all(c >= 1 for c in counts.values())

    @given(st.integers(2, 20), st.integers(0, 500))
    @settings(max_examples=100, deadline=None)
    def test_within_one_of_exact_share(self, workers, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        weights = {i: float(rng.uniform(0.1, 10)) for i in range(workers)}
        total = workers * 4
        counts = proportional_allocation(weights, total, minimum=1)
        distributable = total - workers
        wsum = sum(weights.values())
        for key, count in counts.items():
            exact = 1 + distributable * weights[key] / wsum
            assert abs(count - exact) <= 1.0 + 1e-9


class TestRoundAllocation:
    def test_preserves_lp_structure(self):
        continuous = {"a": 21.7, "b": 1.0, "c": 1.3}
        counts = round_allocation(continuous, 24)
        assert counts == {"a": 22, "b": 1, "c": 1}

    def test_distributes_slack_to_fractions(self):
        counts = round_allocation({"a": 2.5, "b": 2.5}, 6)
        assert sum(counts.values()) == 6
        assert counts["a"] >= 2 and counts["b"] >= 2

    def test_ulp_apart_ties_break_by_key(self):
        # Equal-demand workers an ulp apart (LP solver noise) over 6
        # cores, with one spare core: the key decides, not the noise.
        noisy = math.nextafter(2.5, math.inf)
        assert round_allocation({"a": 2.5, "b": noisy, "c": 1.0}, 6) \
            == {"a": 3, "b": 2, "c": 1}
        assert round_allocation({"a": noisy, "b": 2.5, "c": 1.0}, 6) \
            == {"a": 3, "b": 2, "c": 1}

    def test_below_floor_rejected(self):
        with pytest.raises(AllocationError):
            round_allocation({"a": 0.4, "b": 1.0}, 4)

    def test_over_total_rejected(self):
        with pytest.raises(AllocationError):
            round_allocation({"a": 3.0, "b": 3.0}, 4)

    @given(st.integers(1, 12), st.integers(0, 300))
    @settings(max_examples=100, deadline=None)
    def test_rounding_error_below_one(self, workers, seed):
        import numpy as np
        rng = np.random.default_rng(seed)
        values = {i: float(v) for i, v in
                  enumerate(1.0 + rng.uniform(0, 5, workers))}
        total = int(np.ceil(sum(values.values()))) + workers
        counts = round_allocation(values, total)
        assert sum(counts.values()) == total
        slack = total - sum(values.values())
        for key, count in counts.items():
            assert count >= int(values[key])        # never below floor
            # never more than floor+1 plus its share of the global slack
            assert count <= values[key] + 1 + slack
