"""Elimination baseline: result variants, op accounting, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hude.bench import generate_point
from hude.distributions import Dataset, OpCounter, QueryMultiset
from hude.elimination import eliminate
from hude.instances import gen_hude


def _query(n, draws):
    return QueryMultiset(n, np.asarray(draws, dtype=np.int64))


class TestSmallCases:
    def test_single_candidate_found_with_zero_ops(self):
        data = Dataset.from_supports(4, [[0, 1], [2, 3]])
        ctr = OpCounter()
        result = eliminate(data, np.asarray([1]), _query(4, [2, 3]), ctr)
        assert result.outcome == "found"
        assert result.index == 1
        assert ctr.membership_ops == 0

    def test_disjoint_pair_resolved_by_first_sample(self):
        data = Dataset.from_supports(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
        ctr = OpCounter()
        result = eliminate(data, np.arange(2), _query(8, [1, 0, 2]), ctr)
        assert result.outcome == "found"
        assert result.index == 0
        assert ctr.membership_ops == 2

    def test_exhausted_when_no_support_matches(self):
        data = Dataset.from_supports(4, [[0], [1]])
        result = eliminate(data, np.arange(2), _query(4, [2]), OpCounter())
        assert result.outcome == "exhausted"

    def test_ambiguous_returns_survivors(self):
        data = Dataset.from_supports(4, [[0, 1], [0, 1], [2, 3]])
        result = eliminate(data, np.arange(3), _query(4, [0, 1]), OpCounter())
        assert result.outcome == "ambiguous"
        assert result.survivors == (0, 1)

    def test_empty_candidates_rejected(self):
        data = Dataset.from_supports(4, [[0]])
        with pytest.raises(ValueError):
            eliminate(data, np.asarray([], dtype=np.int64), _query(4, [0]), OpCounter())

    def test_duplicate_candidates_rejected(self):
        data = Dataset.from_supports(4, [[0], [1]])
        with pytest.raises(ValueError):
            eliminate(data, np.asarray([1, 1]), _query(4, [0]), OpCounter())

    @pytest.mark.parametrize("candidates", [[0.5, 1.7], np.asarray([True, True])])
    def test_non_integer_candidates_rejected(self, candidates):
        # Cast to int64, [0.5, 1.7] answered as [0, 1], and the bool mask read
        # as the duplicate list [1, 1].
        data = Dataset.from_supports(4, [[0], [1]])
        with pytest.raises(ValueError, match="candidates must be integer dataset indices"):
            eliminate(data, candidates, _query(4, [0]), OpCounter())

    @pytest.mark.parametrize("candidate", [-1, 2])
    def test_candidate_outside_the_dataset_rejected(self, candidate):
        # k = 2 leaves padding bits in the alive bitmap that index 2 would land on.
        data = Dataset.from_supports(4, [[0], [1]])
        with pytest.raises(ValueError, match=r"candidate outside the dataset \[0, 2\)"):
            eliminate(data, np.asarray([candidate]), _query(4, [0]), OpCounter())

    def test_ops_follow_alive_sizes(self):
        # Hand trace: sample 0 keeps all three (3 ops), sample 1 drops the
        # middle support (3 ops), sample 2 drops the last rival (2 ops).
        data = Dataset.from_supports(6, [[0, 1, 2], [0, 3, 4], [0, 1, 5]])
        ctr = OpCounter()
        result = eliminate(data, np.arange(3), _query(6, [0, 1, 2]), ctr)
        assert result.outcome == "found"
        assert result.index == 0
        assert ctr.membership_ops == 3 + 3 + 2


class TestInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_truth_never_eliminated(self, seed):
        inst = gen_hude(60, 20, 0.5, 4.0, seed=seed)
        result = eliminate(inst.dataset, np.arange(inst.dataset.k), inst.query, OpCounter())
        assert result.outcome != "exhausted"
        if result.outcome == "found":
            assert result.index == inst.truth_index
        else:
            assert inst.truth_index in result.survivors

    def test_alive_sizes_monotone(self):
        inst = gen_hude(100, 40, 0.5, 5.0, seed=7)
        alive = np.arange(inst.dataset.k)
        sizes = [alive.size]
        for element in inst.query.order.tolist():
            alive = alive[inst.dataset.matrix[alive, element]]
            sizes.append(alive.size)
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_expected_ops_are_about_twice_k(self):
        # Survivors halve per processed sample, so the total op count is a
        # geometric series k + k/2 + ... ~ 2k; allow [1.5k, 3k].
        k, n, S = 10_000, 500, 50
        data, queries = generate_point(n, k, S, seed=11, point_id=0, num_queries=100)
        ops = []
        for truth, sample in queries:
            ctr = OpCounter()
            result = eliminate(data, np.arange(k), sample, ctr)
            assert result.outcome == "found" and result.index == truth
            ops.append(ctr.membership_ops)
        mean_ops = float(np.mean(ops))
        assert 1.5 * k <= mean_ops <= 3.0 * k
