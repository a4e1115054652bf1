"""Harness behavior: adaptive probe search, sweeps, determinism, accounting.

The op-count oracle here is a naive reference implementation that walks the
same algorithms with explicit single-bit membership calls; the library's
vectorized counters must agree with it exactly.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hude.bench import (
    MAX_DRAWS,
    MAX_QUERIES,
    AdaptiveSearchError,
    ExperimentConfig,
    ResultRow,
    adaptive_L_search,
    generate_point,
    run_elimination,
    run_sweep,
)
from hude.distributions import Dataset, OpCounter, QueryMultiset, contains, read_rows, write_rows
from hude.elimination import eliminate
from hude.rng import substream
from hude.subset_index import (
    MAX_INDEX_BYTES,
    MAX_PROBES,
    IndexParams,
    SubsetIndex,
    preprocess,
    query,
)
from test_subset_index import _masks


def _reference_eliminate(data, candidates, sample, counter):
    """Literal sample-by-sample elimination over unmetered Python loops.

    Returns (outcome, index, survivors), the fields of ``QueryResult``.
    """
    alive = list(candidates)
    if len(alive) == 1:
        return "found", alive[0], ()
    for element in sample.order.tolist():
        survivors = []
        for j in alive:
            if contains(data.distribution(j), element, counter):
                survivors.append(j)
        alive = survivors
        if len(alive) == 1:
            return "found", alive[0], ()
        if not alive:
            return "exhausted", None, ()
    return "ambiguous", None, tuple(sorted(alive))


def _reference_certify(data, j, pool, cap, counter, rng):
    """Literal certificate: up to ``cap`` shuffled distinct elements, stop at a miss."""
    for element in rng.permutation(pool)[: min(cap, pool.size)].tolist():
        if not contains(data.distribution(j), element, counter):
            return False
    return True


def _reference_subset_query(index, sample, counter, epsilon=1.0, rng=None,
                            variant="bucket-eliminate"):
    """Literal probe scan plus bucket resolution, one membership at a time."""
    distinct = sample.distinct
    cap = max(1, math.ceil(index.params.c_query * math.log(index.dataset.n) / epsilon))
    for i in range(index.probes.shape[0]):
        contained = True
        for element in index.probes[i].tolist():
            if not contains(distinct, element, counter):
                contained = False
                break
        if not contained:
            continue
        if variant == "uj-certify":
            for j in index.bucket(i).tolist():
                if _reference_certify(index.dataset, j, distinct.indices, cap, counter, rng):
                    return "found", j
            continue
        outcome, found, _ = _reference_eliminate(
            index.dataset, index.bucket(i).tolist(), sample, counter
        )
        if outcome == "found":
            return "found", found
    return "not_found", None


class TestReferenceOpCounts:
    def test_elimination_matches_reference(self):
        data, queries = generate_point(30, 12, 20, seed=5, point_id=0, num_queries=6)
        for truth, sample in queries:
            theirs = OpCounter()
            result = eliminate(data, np.arange(data.k), sample, theirs)
            ours = OpCounter()
            outcome, found, _ = _reference_eliminate(data, range(data.k), sample, ours)
            assert (result.outcome, result.index) == (outcome, found if outcome == "found" else result.index)
            assert theirs.membership_ops == ours.membership_ops

    def test_subset_query_matches_reference(self):
        data, queries = generate_point(40, 15, 25, seed=6, point_id=0, num_queries=6)
        index = preprocess(data, IndexParams(60, 2), seed=7)
        for truth, sample in queries:
            theirs = OpCounter()
            result = query(index, sample, 1.0, theirs)
            ours = OpCounter()
            outcome, found = _reference_subset_query(index, sample, ours)
            assert result.outcome == outcome
            assert result.index == found
            assert theirs.membership_ops == ours.membership_ops


    @given(
        k=st.integers(1, 24),
        n=st.integers(1, 16),
        S=st.integers(1, 24),
        ell=st.integers(0, 3),
        L=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=3, n=5, S=4, ell=2, L=6, seed=0)
    @example(k=13, n=9, S=6, ell=1, L=10, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_random_instances_match_reference(self, k, n, S, ell, L, seed):
        # k < 8 and k % 8 != 0 leave padding bits in every packed bitmap.
        rng = np.random.default_rng(seed)
        matrix = rng.random((k, n)) < rng.uniform(0.2, 0.9)
        truth = int(rng.integers(k))
        matrix[truth, rng.integers(n)] = True
        data = Dataset(matrix)
        index = preprocess(data, IndexParams(L, min(ell, n)), seed=seed)
        for i in range(L):
            expected = np.flatnonzero(matrix[:, index.probes[i]].all(axis=1))
            assert np.array_equal(index.bucket(i), expected)
        samples = [
            data.distribution(truth).sample(S, rng),
            QueryMultiset(n, rng.integers(0, n, size=S)),
        ]
        candidate_sets = [np.arange(k)] + [b for b in index.buckets if b.size]
        for sample in samples:
            for candidates in candidate_sets:
                theirs, ours = OpCounter(), OpCounter()
                result = eliminate(data, candidates, sample, theirs)
                expected = _reference_eliminate(data, candidates.tolist(), sample, ours)
                assert (result.outcome, result.index, result.survivors) == expected
                assert theirs.membership_ops == ours.membership_ops
            for variant in ("bucket-eliminate", "uj-certify"):
                theirs, ours = OpCounter(), OpCounter()
                index.params = replace(index.params, variant=variant)
                result = query(index, sample, 1.0, theirs, rng=substream(seed, "certify"))
                expected = _reference_subset_query(
                    index, sample, ours, 1.0, substream(seed, "certify"), variant
                )
                assert (result.outcome, result.index) == expected
                assert theirs.membership_ops == ours.membership_ops


# Probe-scan fixtures: the sample set is {0, 1, 2, 3} of an 8-element domain.
# Support 0 holds it (the truth); 1 and 2 miss element 3; 3 misses it all.
_SCAN_SUPPORTS = [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5], [4, 5, 6, 7]]
_SCAN_SAMPLE = [0, 1, 2, 3, 3, 2]
_MISSES = [[0, 4], [4, 5], [1, 6]]  # cost 2, 1 and 2 tests


def _scan_index(L, hits, ell=2, variant="bucket-eliminate"):
    """Hand-made index of L probes; ``hits`` maps a probe to its bucket.

    Every other probe misses the sample set and gets a bucket of its own
    (never resolved) so that a scan which resolves a miss is caught.
    """
    probes, buckets = [], []
    for i in range(L):
        if i in hits:
            probes.append([2, 0, 1][:ell])
            buckets.append(hits[i])
        else:
            probes.append(_MISSES[i % 3][:ell])
            buckets.append([3])
    data = Dataset.from_supports(8, _SCAN_SUPPORTS)
    probes = np.asarray(probes, dtype=np.int64).reshape(L, ell)
    return SubsetIndex(probes, _masks(4, buckets), IndexParams(L, ell, variant=variant), data, 0)


def _assert_scan_matches_reference(index, variant="bucket-eliminate"):
    sample = QueryMultiset(8, np.asarray(_SCAN_SAMPLE))
    theirs, ours = OpCounter(), OpCounter()
    result = query(index, sample, 1.0, theirs, rng=substream(4, "certify"))
    expected = _reference_subset_query(index, sample, ours, 1.0, substream(4, "certify"), variant)
    assert (result.outcome, result.index) == expected
    assert theirs.membership_ops == ours.membership_ops
    return result, theirs.membership_ops


class TestProbeScanBlocks:
    """The scan works 1,024 probes at a time; charges must not see the seams."""

    @pytest.mark.parametrize("first", [0, 1023, 1024, 1025, 2047, 2048])
    def test_first_contained_probe_at_block_edges(self, first):
        index = _scan_index(first + 600, {first: [0, 1, 2], first + 1: [3]})
        result, ops = _assert_scan_matches_reference(index)
        assert (result.outcome, result.index) == ("found", 0)
        # Misses before `first` cost 2, 1, 2, ... tests; the hit costs 2; the
        # bucket {0, 1, 2} is settled by the fourth sample, 3 * 3 + 3 ops.
        misses = sum(2 if i % 3 != 1 else 1 for i in range(first))
        assert ops == misses + 2 + 12

    def test_empty_and_failed_buckets_move_the_scan_to_a_later_block(self):
        # Block 0 holds an empty bucket and one that elimination exhausts;
        # the resolving hit is in block 1.
        index = _scan_index(2500, {300: [], 1000: [1, 2], 1030: [0, 3]})
        result, _ = _assert_scan_matches_reference(index)
        assert (result.outcome, result.index) == ("found", 0)

    def test_failed_bucket_in_a_later_block_falls_through_to_not_found(self):
        index = _scan_index(2500, {1023: [], 2100: [1, 2]})
        result, _ = _assert_scan_matches_reference(index)
        assert result.outcome == "not_found"

    def test_no_contained_probe_charges_every_block(self):
        index = _scan_index(2500, {})
        result, ops = _assert_scan_matches_reference(index)
        assert result.outcome == "not_found"
        assert ops == sum(2 if i % 3 != 1 else 1 for i in range(2500))

    def test_empty_probes_are_free_and_all_contained(self):
        # Every probe is contained; the first 1,500 buckets are empty.
        index = _scan_index(2500, {i: [] for i in range(1500)} | {1500: [1, 0]}, ell=0)
        result, ops = _assert_scan_matches_reference(index)
        assert (result.outcome, result.index) == ("found", 0)
        assert ops == 2 + 2 + 2 + 2  # elimination of {0, 1} only

    def test_certify_variant_across_a_block_boundary(self):
        # Candidates 1 and 2 fail their certificates in block 0; the truth
        # certifies from a bucket in block 1.
        index = _scan_index(2100, {1000: [1, 2], 1023: [], 1500: [3, 0]},
                            variant="uj-certify")
        result, _ = _assert_scan_matches_reference(index, variant="uj-certify")
        assert (result.outcome, result.index) == ("found", 0)


def _stream_dataset():
    """Four supports over 16 elements that all hold element 0; only support 2
    holds element 1; none holds element 15."""
    return Dataset.from_supports(16, [[0, 2], [0, 3], [0, 1, 4], [0, 5]])


class TestEliminationBlocks:
    """Elimination ANDs a block of samples at once; results must not see the seams."""

    @pytest.mark.parametrize("stop", range(1, 24))
    @pytest.mark.parametrize("last", [1, 15], ids=["found", "exhausted"])
    def test_stop_at_every_row_of_the_first_blocks(self, stop, last):
        # Four candidates: every sample of element 0 keeps all four (a
        # repeated element), so the stop falls at sample `stop`, on the
        # first, a middle or the last row of the first, second or third
        # block of samples.
        data = _stream_dataset()
        sample = QueryMultiset(16, np.asarray([0] * (stop - 1) + [last, 0]))
        theirs, ours = OpCounter(), OpCounter()
        result = eliminate(data, np.arange(4), sample, theirs)
        expected = _reference_eliminate(data, range(4), sample, ours)
        assert (result.outcome, result.index, result.survivors) == expected
        assert theirs.membership_ops == ours.membership_ops == 4 * stop
        assert (result.outcome, result.index) == (("found", 2) if last == 1 else ("exhausted", None))

    @pytest.mark.parametrize("length", [0, 1, 5, 30])
    def test_stream_that_never_decides_is_ambiguous(self, length):
        data = _stream_dataset()
        sample = QueryMultiset(16, np.zeros(length, dtype=np.int64))
        theirs, ours = OpCounter(), OpCounter()
        result = eliminate(data, np.asarray([3, 1, 2]), sample, theirs)
        expected = _reference_eliminate(data, [3, 1, 2], sample, ours)
        assert (result.outcome, result.index, result.survivors) == expected
        assert result.survivors == (1, 2, 3)
        assert theirs.membership_ops == ours.membership_ops == 3 * length

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 63, 64, 65, 130])
    def test_padding_bytes_and_words(self, k):
        # Bit k - 1 sits in the last byte and, for k not a multiple of 64,
        # in a word with padding; the found index is read from its byte.
        rng = np.random.default_rng(k)
        matrix = rng.random((k, 12)) < 0.5
        matrix[:, 0] = True
        data = Dataset(matrix)
        candidate_sets = [np.arange(k), np.arange(k)[::-1][: max(1, k // 3)],
                          np.asarray([k - 1]), np.asarray([0, k - 1])[: min(k, 2)]]
        streams = [data.distribution(t).sample(9, rng) for t in sorted({0, k // 2, k - 1})]
        streams.append(QueryMultiset(12, np.zeros(6, dtype=np.int64)))
        for sample in streams:
            for candidates in candidate_sets:
                theirs, ours = OpCounter(), OpCounter()
                result = eliminate(data, candidates, sample, theirs)
                expected = _reference_eliminate(data, candidates.tolist(), sample, ours)
                assert (result.outcome, result.index, result.survivors) == expected
                assert theirs.membership_ops == ours.membership_ops

    @pytest.mark.parametrize("k", [1, 7, 8, 63, 64, 65, 130])
    def test_last_index_found_across_the_padding(self, k):
        matrix = np.zeros((k, 4), dtype=bool)
        matrix[:, 0] = True
        matrix[k - 1, 1] = True
        result = eliminate(Dataset(matrix), np.arange(k), QueryMultiset(4, np.asarray([0, 1])),
                           OpCounter())
        assert (result.outcome, result.index) == ("found", k - 1)


class TestAdaptiveSearch:
    def test_single_probe_element_terminates_immediately(self):
        # At probe size 1 a couple hundred probes virtually always contain
        # one sampled element, so the search stops at its starting count.
        config = ExperimentConfig(
            sweep_param="ell", sweep_values=(1,), k=300, n=500, S=50,
            queries_per_point=40, seed=9,
        )
        data, queries = generate_point(500, 300, 50, seed=9, point_id=0, num_queries=40)
        L, trace, (accuracy, mean_ops, _) = adaptive_L_search(data, queries, config, ell=1)
        assert L == 200
        assert trace == [(200, 1.0)]
        assert accuracy == 1.0
        assert mean_ops > 0

    def test_cap_abort_carries_trace(self):
        # With far too few samples the index cannot reach full accuracy no
        # matter how many probes it draws; the cap must abort with context.
        config = ExperimentConfig(
            sweep_param="k", sweep_values=(200,), k=200, n=40, S=5, ell=2,
            queries_per_point=20, seed=10, L_init=8, L_cap=30,
        )
        data, queries = generate_point(40, 200, 5, seed=10, point_id=0, num_queries=20)
        with pytest.raises(AdaptiveSearchError) as err:
            adaptive_L_search(data, queries, config, ell=2)
        assert err.value.trace, "accuracy trace missing"
        assert all(accuracy < 1.0 for _, accuracy in err.value.trace)
        assert err.value.point["k"] == 200


class TestGeneratePoint:
    def test_peak_memory_at_k50k(self):
        # Supports are packed as they are drawn: the peak is the 3.1 MB of
        # columns plus one block's buffers, not a 25 MB (k, n) bool matrix.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            generate_point(500, 50_000, 50, seed=1, point_id=0, num_queries=100)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRunSweep:
    def test_rerun_is_deterministic(self):
        config = ExperimentConfig(
            sweep_param="k", sweep_values=(150, 300), n=64, S=30, ell=2,
            queries_per_point=12, seed=11,
        )
        first = run_sweep(config)
        second = run_sweep(config)
        for a, b in zip(first, second):
            assert (a.algorithm, a.k, a.L, a.accuracy, a.mean_ops) == (
                b.algorithm,
                b.k,
                b.L,
                b.accuracy,
                b.mean_ops,
            )

    def test_only_the_certify_variant_builds_query_generators(self, monkeypatch):
        # The uj-certify rows were recorded when every variant built one
        # generator per query; bucket-eliminate never reads one.
        import hude.bench as bench

        built = []
        real = bench.substream

        def counted(seed, *tags):
            built.append(tags[0])
            return real(seed, *tags)

        monkeypatch.setattr(bench, "substream", counted)
        config = ExperimentConfig(
            sweep_param="k", sweep_values=(150, 300), n=64, S=30, ell=2,
            queries_per_point=12, seed=11, variant="uj-certify",
        )
        rows = [(r.algorithm, r.k, r.L, r.accuracy, r.mean_ops) for r in run_sweep(config)]
        assert rows == [
            ("elimination", 150, None, 1.0, 319.6666666666667),
            ("subset", 150, 200, 1.0, 72.0),
            ("elimination", 300, None, 1.0, 648.5),
            ("subset", 300, 200, 1.0, 107.0),
        ]
        assert built.count("bench-certify") == 2 * 12  # one adaptive step per point
        built.clear()
        run_sweep(replace(config, variant="bucket-eliminate"))
        assert built and "bench-certify" not in built

    def test_bucket_eliminate_rows_are_pinned(self):
        # Recorded at the same config as the uj-certify rows above; every
        # field but the wall time.
        config = ExperimentConfig(
            sweep_param="k", sweep_values=(150, 300), n=64, S=30, ell=2,
            queries_per_point=12, seed=11,
        )
        rows = [replace(r, mean_time_ns=0.0) for r in run_sweep(config)]
        assert rows == [
            ResultRow("elimination", 150, 64, 30, 2, None, 1.0, 319.6666666666667, 0.0, 11),
            ResultRow("subset", 150, 64, 30, 2, 200, 1.0, 91.66666666666667, 0.0, 11),
            ResultRow("elimination", 300, 64, 30, 2, None, 1.0, 648.5, 0.0, 11),
            ResultRow("subset", 300, 64, 30, 2, 200, 1.0, 196.08333333333334, 0.0, 11),
        ]

    def test_scale_factor_applies_to_k(self):
        config = ExperimentConfig(
            sweep_param="S", sweep_values=(30,), k=500, n=64, ell=2,
            queries_per_point=5, seed=12, scale=0.2,
        )
        rows = run_sweep(config)
        assert all(row.k == 100 for row in rows)

    def test_elimination_accurate_when_samples_exceed_log2k(self):
        # S = 30 >= 3 log2(k) at k = 1000.
        data, queries = generate_point(500, 1000, 30, seed=13, point_id=0, num_queries=50)
        accuracy, _, _ = run_elimination(data, queries)
        assert accuracy == 1.0

    def test_csv_round_trip(self, tmp_path):
        config = ExperimentConfig(
            sweep_param="k", sweep_values=(120,), n=64, S=30, ell=2,
            queries_per_point=8, seed=14,
        )
        rows = run_sweep(config)
        path = tmp_path / "rows.csv"
        write_rows(rows, path, {"config": "toy"})
        back = read_rows(path, ResultRow)
        assert back == rows

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_param="m", sweep_values=(1,))
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_param="k", sweep_values=())
        with pytest.raises(ValueError):
            ExperimentConfig.from_json({"sweep_param": "k", "sweep_values": [2], "bogus": 1})
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_param="n", sweep_values=(63,), seed=0)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([{"sweep_param": "k"}], "config must be a JSON object, not list"),
            ("k", "config must be a JSON object, not str"),
            ({"sweep_param": "k", "sweep_values": [2], "k": "abc"}, "config key 'k'"),
            ({"sweep_param": "k", "sweep_values": [2], "k": True}, "config key 'k'"),
            ({"sweep_param": "k", "sweep_values": [2], "L_factor": None}, "config key 'L_factor'"),
            ({"sweep_param": "k", "sweep_values": 2}, "config key 'sweep_values'"),
            ({"sweep_param": "k", "sweep_values": [None]}, "config key 'sweep_values'"),
            ({"sweep_param": 3, "sweep_values": [2]}, "config key 'sweep_param'"),
        ],
    )
    def test_from_json_rejects_malformed_payload(self, payload, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(payload)

    def test_from_json_overrides_win(self):
        config = ExperimentConfig.from_json(
            {"sweep_param": "k", "sweep_values": [2], "seed": 1, "L_factor": 2}, {"seed": 5}
        )
        assert (config.seed, config.sweep_values, config.L_factor) == (5, (2,), 2)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("L_factor", 1.0, "L_factor must exceed 1"),
            ("L_factor", 0.5, "L_factor must exceed 1"),
            ("L_init", 0, "must be positive"),
        ],
    )
    def test_probe_growth_must_make_progress(self, field, value, message):
        # A factor of 1 (or an initial count of 0) never grows the probe
        # count, so the adaptive search would never stop.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(sweep_param="k", sweep_values=(10,), **{field: value})

    def test_default_probe_cap_fits_the_mask_bytes(self):
        # 6,250 bytes a mask at k=50,000: the default cap is as many as fit.
        config = ExperimentConfig(sweep_param="k", sweep_values=(10, 50_000))
        assert config.L_cap == MAX_INDEX_BYTES // 6250 == 343_597
        assert ExperimentConfig(sweep_param="k", sweep_values=(50_000,), L_cap=343_597).L_cap
        with pytest.raises(ValueError, match="L_cap 343,598 over k=50,000 supports needs "
                                             "2,147,487,500 bytes of bucket masks"):
            ExperimentConfig(sweep_param="k", sweep_values=(10, 50_000), L_cap=343_598)
        with pytest.raises(ValueError, match="L_init 400,000 exceeds L_cap 343,597"):
            ExperimentConfig(sweep_param="k", sweep_values=(50_000,), L_init=400_000)

    def test_sample_draws_are_bounded(self):
        # S * queries_per_point, checked at every point before any is drawn.
        assert ExperimentConfig(sweep_param="S", sweep_values=(MAX_DRAWS // 100,))
        with pytest.raises(ValueError, match="S=100,001 samples for each of 100 queries is "
                                             "10,000,100 draws; the most allowed is 10,000,000"):
            ExperimentConfig(sweep_param="S", sweep_values=(10, 100_001))
        with pytest.raises(ValueError, match="S=101 samples for each of 100,000 queries"):
            ExperimentConfig(sweep_param="k", sweep_values=(10,), S=101,
                             queries_per_point=MAX_QUERIES)

    def test_probe_count_range(self):
        base = dict(sweep_param="k", sweep_values=(10,))
        assert ExperimentConfig(**base, L_init=MAX_PROBES).L_cap == MAX_PROBES
        with pytest.raises(ValueError, match="L_cap must be at most 10,000,000"):
            ExperimentConfig(**base, L_cap=MAX_PROBES + 1)
        with pytest.raises(ValueError, match="L_init 101 exceeds L_cap 100"):
            ExperimentConfig(**base, L_init=101, L_cap=100)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(sweep_param="k", sweep_values=(10**10,)), "k=10,000,000,000 supports over n=500"),
            (dict(sweep_param="k", sweep_values=(10, 10**6)), "k=1,000,000 supports over n=500"),
            (dict(sweep_param="n", sweep_values=(400_000,)), "k=50,000 supports over n=400,000"),
            (dict(sweep_param="S", sweep_values=(5,), scale=100.0), "k=5,000,000 supports"),
            (dict(sweep_param="k", sweep_values=(10**400,)), "k \\* scale overflows"),
            (dict(sweep_param="k", sweep_values=(10,), scale=1e308), "k \\* scale overflows"),
            (dict(sweep_param="k", sweep_values=(10,), queries_per_point=MAX_QUERIES + 1),
             "queries_per_point must be at most 100,000 \\(got 100,001\\)"),
        ],
    )
    def test_dataset_and_query_counts_are_bounded(self, fields, message):
        # Every sweep point is checked when the config is made, before any is generated.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**fields)
        ExperimentConfig(**{**fields, "sweep_values": (10,), "scale": 1.0,
                            "queries_per_point": MAX_QUERIES})

    @pytest.mark.parametrize(
        "field, value",
        [("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", math.nan), ("epsilon", math.inf),
         ("c_query", 0.0), ("c_query", -5.0), ("c_query", math.inf)],
    )
    def test_certificate_parameters_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            ExperimentConfig(sweep_param="k", sweep_values=(10,), **{field: value})


class TestSweepShapes:
    def test_domain_growth_degrades_subset_but_not_elimination(self):
        # Larger domains shrink the chance that a probe lands inside the
        # sample set, so the subset side needs more probes and more scan
        # work, while elimination's cost tracks k only.
        config = ExperimentConfig(
            sweep_param="n", sweep_values=(250, 500, 750), k=5000, S=50, ell=3,
            queries_per_point=50, seed=15,
        )
        rows = run_sweep(config)
        elim = {r.n: r.mean_ops for r in rows if r.algorithm == "elimination"}
        subset = {r.n: r.mean_ops for r in rows if r.algorithm == "subset"}
        assert all(r.accuracy == 1.0 for r in rows)
        mean_elim = sum(elim.values()) / len(elim)
        assert all(abs(v - mean_elim) <= 0.3 * mean_elim for v in elim.values())
        assert subset[750] > 2.0 * subset[250]

    def test_dataset_growth_scales_both_algorithms_linearly(self):
        # Elimination is within a few percent of 2k ops, so consecutive
        # doublings land close to a 2x ratio.  The subset side pays a
        # k-independent probe-scan toll on top of a linear bucket term, so
        # its doubling ratios start below 2 and approach it from below; over
        # the full tenfold range the linear term dominates clearly.
        config = ExperimentConfig(
            sweep_param="k", sweep_values=(5000, 10000, 20000, 50000), n=500, S=50,
            ell=3, queries_per_point=100, seed=16,
        )
        rows = run_sweep(config)
        elim = {r.k: r.mean_ops for r in rows if r.algorithm == "elimination"}
        subset = {r.k: r.mean_ops for r in rows if r.algorithm == "subset"}
        assert all(r.accuracy == 1.0 for r in rows)
        for small, large in ((5000, 10000), (10000, 20000)):
            assert 1.6 <= elim[large] / elim[small] <= 2.4
        ks = sorted(subset)
        assert all(subset[a] < subset[b] for a, b in zip(ks, ks[1:]))
        assert subset[50000] >= 3.0 * subset[5000]
        for k in ks:
            assert subset[k] < elim[k]
