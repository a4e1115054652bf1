"""Probe-subset index: buckets, probe scan, both query variants, parameter rule."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hude.bench import generate_point
from hude.distributions import (
    Dataset,
    OpCounter,
    QueryMultiset,
    random_bernoulli_supports,
    random_fixed_size_supports,
)
from hude.instances import gen_hude
from hude.rng import substream
from hude.subset_index import (
    MAX_INDEX_BYTES,
    MAX_PROBES,
    IndexParams,
    SubsetIndex,
    dump_index,
    preprocess,
    query,
    sample_probes,
    theoretical_params,
)
from hude.tradeoff import upper_exponent


def _masks(k, buckets):
    """Packed bucket masks (``SubsetIndex.masks``) from lists of dataset indices."""
    bits = np.zeros((len(buckets), k), dtype=bool)
    for row, bucket in zip(bits, buckets):
        row[bucket] = True
    return np.packbits(bits, axis=1)


def _query_from(n, draws):
    return QueryMultiset(n, np.asarray(draws, dtype=np.int64))


class TestSampleProbes:
    def test_rows_are_distinct_elements(self):
        probes = sample_probes(5, 500, 4, 60)
        assert probes.shape == (500, 4)
        assert probes.min() >= 0 and probes.max() < 60
        assert all(len(set(row)) == 4 for row in probes.tolist())

    def test_rows_depend_only_on_seed_and_position(self):
        # Schedule independence: probe i is a pure function of (seed, i),
        # so prefixes agree regardless of how many probes were requested.
        long = sample_probes(5, 200, 3, 50)
        short = sample_probes(5, 64, 3, 50)
        assert np.array_equal(long[:64], short)

    def test_uniform_marginals(self):
        probes = sample_probes(6, 40_000, 3, 25)
        counts = np.bincount(probes.ravel(), minlength=25).astype(float)
        expected = probes.size / 25
        assert np.all(np.abs(counts - expected) <= 5.0 * math.sqrt(expected))

    def test_oversized_probe_rejected(self):
        with pytest.raises(ValueError):
            sample_probes(1, 10, 11, 10)


class TestPreprocess:
    def test_empty_probe_buckets_everything(self):
        data = Dataset.from_supports(6, [[0, 1], [2], [3, 4, 5]])
        index = preprocess(data, IndexParams(4, 0), seed=1)
        for bucket in index.buckets:
            assert bucket.tolist() == [0, 1, 2]

    def test_bucket_correctness_toy(self):
        supports = [[0, 1, 2], [0, 1, 3], [2, 3, 4], [0, 4], [1, 2, 3, 4]]
        data = Dataset.from_supports(5, supports)
        index = preprocess(data, IndexParams(40, 2), seed=2)
        sets = [set(s) for s in supports]
        for i in range(40):
            probe = set(index.probes[i].tolist())
            expected = [j for j in range(5) if probe <= sets[j]]
            assert index.buckets[i].tolist() == expected

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_bucket_soundness_and_completeness(self, seed):
        rng = substream(seed, "bucket-prop")
        matrix = random_fixed_size_supports(30, 24, 12, rng).matrix
        data = Dataset(matrix)
        index = preprocess(data, IndexParams(25, 3), seed=seed)
        for i in range(25):
            probe = index.probes[i]
            member = matrix[:, probe].all(axis=1)
            assert np.array_equal(np.flatnonzero(member), index.buckets[i])

    # preprocess builds masks 64 probes per step: probe counts on, just
    # below and just past a block edge, and past two blocks and 1,024.
    @pytest.mark.parametrize("L", [1, 63, 64, 65, 129, 1025])
    @given(
        k=st.sampled_from([1, 7, 8, 9, 63, 64, 65, 130]),
        ell=st.integers(0, 4),
        n=st.integers(4, 24),
        w=st.sampled_from([0.5, 0.8, 0.95]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_masks_are_the_packed_and_of_probe_columns(self, L, k, ell, n, w, seed):
        matrix = random_bernoulli_supports(k, n, w, substream(seed, "mask-prop")).matrix
        index = preprocess(Dataset(matrix), IndexParams(L, ell), seed=seed)
        masks = index.masks
        assert masks.shape == (L, -(-k // 8)) and masks.dtype == np.uint8
        assert not masks.flags.writeable
        for probe, mask in zip(index.probes, masks):
            assert np.array_equal(mask, np.packbits(matrix[:, probe].all(axis=1)))
        padding = np.unpackbits(masks, axis=1)[:, k:]
        assert not padding.any()

    def test_mean_bucket_size_matches_hypergeometric_product(self):
        # E|bucket| = k * prod_{i<ell} (n/2 - i)/(n - i) for half supports.
        k, n, L = 2000, 500, 1500
        data = random_fixed_size_supports(k, n, n // 2, substream(3, "bs"))
        for ell in (2, 3):
            expected = k * math.prod((n / 2 - i) / (n - i) for i in range(ell))
            index = preprocess(data, IndexParams(L, ell), seed=ell)
            mean = float(np.mean([b.size for b in index.buckets]))
            assert abs(mean - expected) <= 0.15 * expected

    def test_deterministic_under_seed(self):
        data = Dataset.from_supports(8, [[0, 1, 2], [3, 4, 5], [0, 5, 6]])
        a = preprocess(data, IndexParams(30, 2), seed=9)
        b = preprocess(data, IndexParams(30, 2), seed=9)
        assert np.array_equal(a.probes, b.probes)
        assert all(np.array_equal(x, y) for x, y in zip(a.buckets, b.buckets))


class TestQuery:
    def _toy_index(self, variant="uj-certify"):
        # One probe {0, 1}, bucket containing only the true distribution.
        data = Dataset.from_supports(8, [[0, 1, 2, 3], [4, 5, 6, 7]])
        probes = np.asarray([[0, 1]], dtype=np.int64)
        masks = _masks(2, [[0]])
        params = IndexParams(1, 2, c_query=4.0, variant=variant)
        return SubsetIndex(probes, masks, params, data, seed=0)

    def test_single_candidate_cost_is_probe_plus_certificate(self):
        index = self._toy_index()
        q = _query_from(8, [0, 1, 2, 3, 0])
        ctr = OpCounter()
        result = query(index, q, 1.0, ctr, rng=substream(1, "q"))
        assert result.outcome == "found" and result.index == 0
        # cap = ceil(4 * ln(8) / 1) = 9 exceeds |distinct Q| = 4, so the
        # certificate consumes all four distinct elements: ops = 2 + 4.
        assert ctr.membership_ops == 2 + 4

    def test_bucket_eliminate_single_candidate_is_free_after_probe(self):
        index = self._toy_index(variant="bucket-eliminate")
        q = _query_from(8, [0, 1, 2])
        ctr = OpCounter()
        result = query(index, q, 1.0, ctr)
        assert result.outcome == "found" and result.index == 0
        assert ctr.membership_ops == 2  # the probe tests only

    def test_no_contained_probe_returns_not_found(self):
        index = self._toy_index()
        q = _query_from(8, [4, 5])
        ctr = OpCounter()
        result = query(index, q, 1.0, ctr, rng=substream(1, "q"))
        assert result.outcome == "not_found"
        assert ctr.membership_ops == 1  # short-circuits on the first element

    def test_certify_requires_rng(self):
        index = self._toy_index()
        with pytest.raises(ValueError):
            query(index, _query_from(8, [0, 1]), 1.0, OpCounter())

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("variant", ["uj-certify", "bucket-eliminate"])
    def test_certificate_separation_must_be_finite_and_positive(self, epsilon, variant):
        index = self._toy_index(variant)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            query(index, _query_from(8, [0, 1]), epsilon, OpCounter(), rng=substream(1, "q"))

    @pytest.mark.parametrize("c_query", [0.0, -5.0, math.nan, math.inf])
    def test_certificate_constant_must_be_finite_and_positive(self, c_query):
        with pytest.raises(ValueError, match="c_query must be finite and positive"):
            IndexParams(1, 2, c_query=c_query)
        with pytest.raises(ValueError, match="c_query must be finite and positive"):
            theoretical_params(0.5, 50.0, 100, 1.0, c_query=c_query)

    def test_num_probes_cap(self):
        assert IndexParams(MAX_PROBES, 3).num_probes == MAX_PROBES
        with pytest.raises(ValueError, match="num_probes must be at most 10,000,000"):
            IndexParams(MAX_PROBES + 1, 3)

    def test_mask_bytes_cap(self):
        # 10,000,000 masks of 250 bytes would be 2.5 GB; refused before any is built.
        data = Dataset(np.ones((2000, 4), dtype=bool))
        with pytest.raises(ValueError, match="--num-probes 10,000,000 over k=2,000 supports "
                                             "needs 2,500,000,000 bytes of bucket masks"):
            preprocess(data, IndexParams(MAX_PROBES, 1), 0)
        small = Dataset(np.ones((8, 4), dtype=bool))
        assert preprocess(small, IndexParams(MAX_INDEX_BYTES // 1000, 0), 0).masks.shape[1] == 1

    def test_failed_bucket_continues_to_next_probe(self):
        # Probe 0 hits but its bucket holds two wrong candidates that the
        # stream exhausts; the scan must move on to probe 1, whose bucket
        # holds the truth.  Every membership test is charged:
        # probe 0 (1 op) + eliminate {1,2} over stream [0,1] (2+2 ops)
        # + probe 1 (1 op) + single-candidate bucket (0 ops) = 6 ops.
        data = Dataset.from_supports(6, [[0, 1, 2], [0, 3, 4], [0, 4, 5]])
        probes = np.asarray([[0], [1]], dtype=np.int64)
        masks = _masks(3, [[1, 2], [0]])
        params = IndexParams(2, 1, variant="bucket-eliminate")
        index = SubsetIndex(probes, masks, params, data, seed=0)
        ctr = OpCounter()
        result = query(index, _query_from(6, [0, 1]), 1.0, ctr)
        assert result.outcome == "found" and result.index == 0
        assert ctr.membership_ops == 6

    def test_truth_containment_on_generated_instances(self):
        inst = gen_hude(100, 30, 0.5, 5.0, seed=5)
        index = preprocess(inst.dataset, IndexParams(300, 2), seed=6)
        qbits = inst.query.distinct.bits
        hits = qbits[index.probes].all(axis=1)
        assert hits.any()
        for i in np.flatnonzero(hits).tolist():
            assert inst.truth_index in index.buckets[i]

    def test_end_to_end_identification(self):
        inst = gen_hude(500, 500, 0.5, 10.0, seed=7)
        index = preprocess(inst.dataset, IndexParams(4000, 3), seed=8)
        for variant in ("bucket-eliminate", "uj-certify"):
            ctr = OpCounter()
            index.params = replace(index.params, variant=variant)
            result = query(index, inst.query, 1.0, ctr, rng=substream(9, variant))
            assert result.outcome == "found"
            assert result.index == inst.truth_index
            assert ctr.membership_ops > 0


def _certify_one_at_a_time(index, q, epsilon, rng):
    """uj-certify with one ``rng.permutation`` per candidate and one test at a time.

    Returns (outcome, index, ops, resolved); ``resolved`` lists, per nonempty
    bucket certified, its size and the accepted candidate's position or None.
    """
    data, member, pool = index.dataset, q.distinct.bits, q.distinct.indices
    cap = max(1, math.ceil(min(index.params.c_query * math.log(data.n) / epsilon, data.n)))
    matrix = data.matrix
    ops, resolved = 0, []
    for i, probe in enumerate(index.probes.tolist()):
        contained = True
        for element in probe:
            ops += 1
            if not member[element]:
                contained = False
                break
        bucket = index.bucket(i).tolist() if contained else []
        for position, j in enumerate(bucket):
            passed = True
            for element in rng.permutation(pool)[: min(cap, pool.size)].tolist():
                ops += 1
                if not matrix[j, element]:
                    passed = False
                    break
            if passed:
                resolved.append((len(bucket), position))
                return "found", j, ops, resolved
        if bucket:
            resolved.append((len(bucket), None))
    return "not_found", None, ops, resolved


class TestCertifyChunks:
    """uj-certify shuffles a chunk of candidates per ``rng.permuted`` call."""

    @staticmethod
    def _instance(seed):
        # Samples from the truth plus a little noise, so that the truth can
        # fail its certificate and a later bucket is tried on the same rng.
        gen = np.random.default_rng(seed)
        k, n = int(gen.integers(2, 60)), int(gen.integers(3, 40))
        matrix = gen.random((k, n)) < gen.uniform(0.5, 0.95)
        support = np.flatnonzero(matrix[int(gen.integers(k))])
        draws = gen.choice(support, size=int(gen.integers(1, 30))) if support.size else []
        noise = gen.integers(0, n, size=int(gen.integers(0, 3)))
        q = QueryMultiset(n, np.concatenate([draws, noise]).astype(np.int64))
        params = IndexParams(int(gen.integers(1, 40)), int(gen.integers(0, 3)), variant="uj-certify")
        return preprocess(Dataset(matrix), params, seed), q, float(gen.choice([0.5, 1.0, 2.0]))

    def test_random_instances_match_one_shuffle_per_candidate(self, monkeypatch):
        seen = set()
        for cells in (1, 7, 60):
            monkeypatch.setattr("hude.subset_index._CERTIFY_CELLS", cells)
            for seed in range(200):
                index, q, epsilon = self._instance(seed)
                ours, theirs = substream(seed, "certify"), substream(seed, "certify")
                counter = OpCounter()
                result = query(index, q, epsilon, counter, rng=ours)
                outcome, found, ops, resolved = _certify_one_at_a_time(index, q, epsilon, theirs)
                assert (result.outcome, result.index, counter.membership_ops) == (
                    outcome, found, ops
                ), (cells, seed)
                if outcome == "not_found":
                    # Failed buckets leave rng where one shuffle per candidate does.
                    assert ours.integers(2**62) == theirs.integers(2**62), (cells, seed)
                chunk = max(1, cells // max(q.distinct.cardinality, 1))
                if any(size > chunk for size, _ in resolved):
                    seen.add("bucket spans chunks")
                if len(resolved) > 1:
                    seen.add("failed bucket, then a later one")
                size, position = resolved[-1] if resolved else (0, None)
                if position is not None and position % chunk < chunk - 1 and position < size - 1:
                    seen.add("accepted mid-chunk")
        assert seen == {"bucket spans chunks", "failed bucket, then a later one",
                        "accepted mid-chunk"}

    @pytest.mark.parametrize("cells", [1, 7, 65_536])
    def test_empty_sample_accepts_the_first_candidate_free(self, monkeypatch, cells):
        # A sample with no elements (gen_urde can draw one) contains only
        # empty probes, and leaves every certificate empty.
        monkeypatch.setattr("hude.subset_index._CERTIFY_CELLS", cells)
        data = random_bernoulli_supports(20, 16, 0.5, substream(3, "empty-pool"))
        index = preprocess(data, IndexParams(3, 0, variant="uj-certify"), seed=4)
        q = QueryMultiset(16, np.empty(0, dtype=np.int64))
        counter = OpCounter()
        result = query(index, q, 1.0, counter, rng=substream(5, "certify"))
        assert (result.outcome, result.index, counter.membership_ops) == ("found", 0, 0)
        assert _certify_one_at_a_time(index, q, 1.0, substream(5, "certify"))[:3] == ("found", 0, 0)


class TestProbeHitProbability:
    def test_monte_carlo_matches_product_formula(self):
        # Conditioned on the realized number of distinct sample elements m,
        # a uniform probe is contained with probability
        # prod_{j<ell} (m - j)/(n - j).
        n, S, ell, trials = 500, 50, 3, 100_000
        data, queries = generate_point(n, 100, S, seed=13, point_id=0, num_queries=1)
        _, sample = queries[0]
        m = sample.distinct.cardinality
        p = math.prod((m - j) / (n - j) for j in range(ell))
        probes = sample_probes(99, trials, ell, n)
        hits = sample.distinct.bits[probes].all(axis=1)
        estimate = float(hits.mean())
        stderr = math.sqrt(p * (1.0 - p) / trials)
        assert abs(estimate - p) <= 3.0 * stderr


class TestCollisionBound:
    def test_planted_pair_at_exact_separation(self):
        # T_truth and T_other share exactly n(2-eps)/4 elements, so
        # P[probe within truth also within other] <= (1 - eps/2)^ell.
        n, ell, eps, trials = 400, 3, 1.0, 200_000
        half = n // 2
        shared = int(n * (2.0 - eps) / 4.0)
        truth = list(range(half))
        other = list(range(shared)) + list(range(half, half + (half - shared)))
        data = Dataset.from_supports(n, [truth, other])
        assert np.count_nonzero(data.distribution(0).bits & data.distribution(1).bits) == shared
        rng = substream(14, "plant")
        # Sample probes inside the truth support (the conditioning event).
        idx = np.asarray(truth)
        picks = np.argpartition(rng.random((trials, half)), ell - 1, axis=1)[:, :ell]
        probes = idx[picks]
        inside_other = data.matrix[1][probes].all(axis=1)
        bound = (1.0 - eps / 2.0) ** ell
        estimate = float(inside_other.mean())
        stderr = math.sqrt(bound * (1.0 - bound) / trials)
        assert estimate <= bound + 3.0 * stderr


class TestFalseAccepts:
    def test_certify_rejects_absent_distributions(self):
        # Queries drawn from fresh distributions farther than eps from every
        # dataset member must come back not_found (no false certificates).
        n, k, eps, trials = 500, 100, 0.5, 1000
        data = random_fixed_size_supports(k, n, n // 2, substream(15, "ds"))
        index = preprocess(data, IndexParams(2000, 3, variant="uj-certify"), seed=16)
        false_accepts = 0
        skipped = 0
        for t in range(trials):
            rng = substream(16, "absent", t)
            absent = random_fixed_size_supports(1, n, n // 2, rng).distribution(0)
            overlap = data.matrix[:, absent.bits].sum(axis=1)
            if (2.0 - 4.0 * overlap / n).min() <= eps:
                skipped += 1
                continue
            sample = absent.sample(50, substream(16, "absent-q", t))
            result = query(index, sample, eps, OpCounter(), rng=substream(16, "cand", t))
            if result.outcome == "found":
                false_accepts += 1
        assert skipped < trials // 10
        assert false_accepts == 0


class TestTheoreticalParams:
    def test_probe_count_follows_space_budget(self):
        choice = theoretical_params(0.5, 50.0, 10_000, 1.0)
        assert choice.params.num_probes == math.ceil(5.0 * 10_000**0.5)
        assert choice.params.probe_size == 1  # floor(1.171) = 1
        assert not choice.clamped

    def test_large_sample_ratio_exponent_limit(self):
        # As the sample ratio grows the exponent approaches
        # 1 - log(2) * rho_u / log(s) (evaluated at s = 1e6).
        choice = theoretical_params(0.5, 1e6, 10_000, 1.0)
        limit = 1.0 - math.log(2.0) / (2.0 * math.log(2e6))
        assert abs(choice.predicted_rho_q - limit) <= 0.05

    def test_zero_space_exponent_clamps(self):
        choice = theoretical_params(0.0, 50.0, 10_000, 1.0)
        assert choice.params.num_probes == 5  # ceil(C)
        assert choice.params.probe_size == 1
        assert choice.clamped

    @pytest.mark.parametrize("rho_u", [0.0, 0.5])
    @pytest.mark.parametrize("epsilon", [0.5, 1.999, 2.0])
    def test_prediction_is_the_upper_exponent(self, rho_u, epsilon):
        # With no extra space (rho_u = 0) the exponent is 1 at every
        # separation, also at epsilon = 2, where the power term diverges.
        choice = theoretical_params(rho_u, 50.0, 10_000, epsilon)
        assert choice.predicted_rho_q == max(0.0, upper_exponent(50.0, rho_u, epsilon))
        if rho_u == 0.0:
            assert choice.predicted_rho_q == 1.0

    def test_probe_count_cap(self):
        # c * k**rho_u = 10**7 exactly is allowed; one more probe is not.
        assert theoretical_params(1.0, 50.0, 10**6, 1.0, c=10.0).params.num_probes == MAX_PROBES
        message = r"exceeds 10,000,000 \(c=10.0, rho_u=1.0, k=1000001\)"
        with pytest.raises(ValueError, match=message):
            theoretical_params(1.0, 50.0, 10**6 + 1, 1.0, c=10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_params(0.5, 1.0, 100, 1.0)
        with pytest.raises(ValueError):
            theoretical_params(-0.1, 50.0, 100, 1.0)


class TestDump:
    def test_dump_format(self):
        data = Dataset.from_supports(6, [[0, 1, 2], [1, 2, 3]])
        index = preprocess(data, IndexParams(3, 2), seed=21)
        text = dump_index(index)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# L=3 ell=2")
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.startswith("probe: ")
            assert " | bucket:" in line
