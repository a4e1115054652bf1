"""Supports, the metered membership primitive, distances, and sampling."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hude import distributions
from hude.distributions import (
    _ROW_BLOCK,
    MAX_DATASET_CELLS,
    Dataset,
    OpCounter,
    QueryMultiset,
    SupportSet,
    _parse_lines,
    check_dataset_size,
    contains,
    dumps_dataset,
    l1_distance,
    loads_dataset,
    random_bernoulli_supports,
    random_fixed_size_supports,
)
from hude.instances import gen_hude
from hude.rng import substream

CODEC_BLOCK = 1024  # support lines per block of the dataset file codec


def _dist(n, indices):
    return SupportSet.from_indices(n, indices)


def _argpartition_supports(k, n, m, rng):
    """Fixed-size rows drawn by argpartition of each row's uniforms, then a scatter."""
    out = np.zeros((k, n), dtype=bool)
    for start in range(0, k, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, k)
        chosen = np.argpartition(rng.random((stop - start, n)), m - 1, axis=1)[:, :m]
        out[np.arange(start, stop)[:, None], chosen] = True
    return out


def _per_line(lines, n):
    """The dataset the reference loop reads from support lines."""
    out = np.zeros((n, len(lines)), dtype=bool)
    _parse_lines(lines, n, 2, 0, out)
    return Dataset(out.T)


def _drawn_columns(drawn):
    """The packed columns of what a support generator returns."""
    return drawn.columns


class _QuarterRng:
    """Uniforms rounded down to quarters, so most rows tie at their m-th smallest draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        np.floor(u * 4, out=u)
        u /= 4
        return u


class TestContains:
    def test_member(self):
        ctr = OpCounter()
        assert contains(SupportSet.from_indices(8, [0, 1, 2, 3]), 2, ctr) is True
        assert ctr.membership_ops == 1

    def test_non_member(self):
        ctr = OpCounter()
        assert contains(SupportSet.from_indices(8, [0, 1, 2, 3]), 5, ctr) is False
        assert ctr.membership_ops == 1

    def test_out_of_range(self):
        ctr = OpCounter()
        with pytest.raises(ValueError):
            contains(SupportSet.from_indices(8, [0, 1]), 8, ctr)
        with pytest.raises(ValueError):
            contains(SupportSet.from_indices(8, [0, 1]), -1, ctr)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_op_per_call(self, data):
        n = data.draw(st.integers(2, 40))
        members = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        support = SupportSet.from_indices(n, members)
        ctr = OpCounter()
        elements = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
        for i, e in enumerate(elements, start=1):
            got = contains(support, e, ctr)
            assert got == (e in members)
            assert ctr.membership_ops == i

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            OpCounter().add(-1)


class TestL1Distance:
    def test_identical_supports(self):
        assert l1_distance(_dist(8, [0, 1, 2, 3]), _dist(8, [0, 1, 2, 3])) == 0.0

    def test_disjoint_supports(self):
        assert l1_distance(_dist(8, [0, 1, 2, 3]), _dist(8, [4, 5, 6, 7])) == 2.0

    def test_half_overlap(self):
        # Hand enumeration over the 8 coordinates: four coordinates carry
        # mass 1/4 on exactly one side, the shared two cancel.
        assert l1_distance(_dist(8, [0, 1, 2, 3]), _dist(8, [2, 3, 4, 5])) == pytest.approx(1.0)

    def test_mismatched_domain(self):
        with pytest.raises(ValueError):
            l1_distance(_dist(8, [0]), _dist(10, [0]))

    def test_empty_support(self):
        with pytest.raises(ValueError):
            l1_distance(_dist(8, [0]), SupportSet.from_indices(8, []))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_sizes_reduce_to_symmetric_difference(self, data):
        n = data.draw(st.integers(4, 30))
        m = data.draw(st.integers(1, n // 2))
        universe = list(range(n))
        a = data.draw(st.permutations(universe)).copy()[:m]
        b = data.draw(st.permutations(universe)).copy()[:m]
        p, q = _dist(n, a), _dist(n, b)
        sym_diff = len(set(a) ^ set(b))
        assert l1_distance(p, q) == pytest.approx(sym_diff / m)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_nonnegativity(self, data):
        n = data.draw(st.integers(2, 30))
        a = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        b = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        p, q = _dist(n, a), _dist(n, b)
        assert l1_distance(p, q) == pytest.approx(l1_distance(q, p))
        assert 0.0 <= l1_distance(p, q) <= 2.0

    def test_random_pairs_concentrate_around_one(self):
        # 1000 independent half-uniform pairs at n=500; the distances live
        # within 1 +/- 0.2 (they concentrate at rate ~ sqrt(1/n)).
        n = 500
        rng = substream(17, "l1-concentration")
        lo, hi = 1.0, 1.0
        for _ in range(1000):
            data = random_fixed_size_supports(2, n, n // 2, rng)
            d = l1_distance(data.distribution(0), data.distribution(1))
            lo, hi = min(lo, d), max(hi, d)
        assert 0.8 <= lo and hi <= 1.2


class TestSampling:
    def test_zero_samples(self):
        q = _dist(8, [1, 2]).sample(0, substream(1, "s"))
        assert q.order.size == 0
        assert q.distinct.cardinality == 0
        assert dict(q.pairs()) == {}

    def test_singleton_support(self):
        q = _dist(8, [5]).sample(3, substream(1, "s"))
        assert dict(q.pairs()) == {5: 3}
        assert q.order.size == 3

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            SupportSet.from_indices(8, []).sample(1, substream(1, "s"))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            _dist(8, [1]).sample(-1, substream(1, "s"))

    def test_expected_distinct_count(self):
        # Exact formula for m uniform draws from a half support:
        # E[|distinct|] = (n/2) * (1 - (1 - 2/n)^m).
        n, m, reps = 500, 50, 2000
        expected = (n / 2) * (1.0 - (1.0 - 2.0 / n) ** m)
        dist = SupportSet.from_indices(n, range(n // 2))
        rng = substream(23, "distinct-mc")
        counts = np.array(
            [dist.sample(m, rng).distinct.cardinality for _ in range(reps)], dtype=float
        )
        stderr = counts.std(ddof=1) / math.sqrt(reps)
        assert abs(counts.mean() - expected) <= 3.0 * stderr

    def test_monotone_relabeling_commutes_with_sampling(self):
        # The sampler depends only on support size and element ranks, so an
        # order-preserving relabeling of the support commutes with a seeded
        # draw path-by-path.
        n = 64
        rng = substream(3, "relabel")
        original = sorted(rng.choice(n, size=20, replace=False).tolist())
        target = sorted(rng.choice(n, size=20, replace=False).tolist())
        relabel = dict(zip(original, target))
        sample_a = _dist(n, original).sample(37, substream(5, "draw"))
        sample_b = _dist(n, target).sample(37, substream(5, "draw"))
        assert [relabel[e] for e in sample_a.order.tolist()] == sample_b.order.tolist()


class TestQueryMultiset:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_distinct_and_total(self, data):
        n = data.draw(st.integers(1, 30))
        draws = data.draw(st.lists(st.integers(0, n - 1), max_size=60))
        q = QueryMultiset(n, np.asarray(draws, dtype=np.int64))
        assert q.order.size == len(draws)
        assert sum(dict(q.pairs()).values()) == q.order.size
        assert set(dict(q.pairs())) == set(draws)
        assert q.pairs() == list(Counter(draws).items())  # first-appearance order
        assert q.distinct.cardinality == len(set(draws))
        assert q.distinct.cardinality <= max(q.order.size, 0) or q.order.size == 0

    def test_out_of_domain_sample_rejected(self):
        with pytest.raises(ValueError):
            QueryMultiset(4, np.asarray([0, 4]))

class TestOverlaps:
    @pytest.mark.parametrize("j", [0, 1029, 2499])
    def test_match_the_matrix_across_blocks(self, j):
        # 2,500 supports: two whole blocks of 1,024 and a last one of 452,
        # which ends inside a byte.
        matrix = substream(9, "overlaps").random((2500, 40)) < 0.5
        expected = matrix.astype(np.int64) @ matrix[j]
        np.testing.assert_array_equal(Dataset(matrix).overlaps(j), expected)


class TestDatasetSerialization:
    def test_round_trip_small(self):
        data = Dataset.from_supports(6, [[0, 2, 4], [1, 3], [], [5]])
        text = dumps_dataset(data, {"n": 6, "k": 4})
        back, meta = loads_dataset(text)
        assert back == data
        assert meta == {"n": 6, "k": 4}
        assert dumps_dataset(back, meta) == text

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(1, 40))
        k = data.draw(st.integers(1, 12))
        rows = [
            data.draw(st.sets(st.integers(0, n - 1), max_size=n)) for _ in range(k)
        ]
        ds = Dataset.from_supports(n, rows)
        back, _ = loads_dataset(dumps_dataset(ds))
        assert back == ds

    def test_header_mismatch_detected(self):
        with pytest.raises(ValueError):
            loads_dataset("4 2\n0 1\n")  # promises two supports, provides one

    @pytest.mark.parametrize(
        "text, message",
        [
            ("6 2\n0 -1\n3\n", "line 2: support 0 has element -1 outside the domain"),
            ("6 2\n0 1\n3 6\n", "line 3: support 1 has element 6 outside the domain"),
            ("6 2\n0 1 1\n3\n", "line 2: support 0 repeats element 1"),
            ("6 2\n0 4\n3 x\n", "line 3: support 1 is not a list of integers"),
            ("6 1\n99999999999999999999\n", "line 2: support 0 is not a list of integers"),
            ("6\n0\n", "line 1: malformed header"),
            ("6 2 1\n0\n1\n", "line 1: malformed header"),
            ("# {}\n6 two\n0\n1\n", "line 2: malformed header"),
            ("-6 1\n0\n", "line 1: malformed header"),
            ("# [1]\n6 1\n0\n", "line 1: metadata is not a JSON object"),
            ("# {oops\n6 1\n0\n", "line 1: metadata is not a JSON object"),
        ],
    )
    def test_corrupt_input_names_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            loads_dataset(text)

    @pytest.mark.parametrize(
        "bad, problem",
        [
            ("0 -1", "has element -1 outside the domain"),
            ("3 6", "has element 6 outside the domain"),
            ("0 1 1", "repeats element 1"),
            ("3 x", "is not a list of integers"),
            ("99999999999999999999", "is not a list of integers"),
        ],
    )
    @pytest.mark.parametrize("metadata", ["", "# {}\n"], ids=["bare", "metadata"])
    def test_corrupt_support_past_the_first_block_names_the_line(self, bad, problem, metadata):
        # Support 1,028 of 1,100 lies past the first block of the file codec;
        # a second bad support further on must not be the one reported.
        lines = ["0 4"] * 1100
        lines[1028], lines[1090] = bad, "9"
        text = metadata + "6 1100\n" + "\n".join(lines) + "\n"
        line = 1030 + (1 if metadata else 0)
        with pytest.raises(ValueError, match=f"line {line}: support 1028 {problem}"):
            loads_dataset(text)

    @pytest.mark.parametrize(
        "head, message",
        [
            ("6 1100 1\n", "line 1: malformed header"),
            ("# {}\n6 many\n", "line 2: malformed header"),
            ("# [1]\n6 1100\n", "line 1: metadata is not a JSON object"),
        ],
    )
    def test_corrupt_head_of_a_long_file_names_the_line(self, head, message):
        with pytest.raises(ValueError, match=message):
            loads_dataset(head + "0 4\n" * 1100)

    @pytest.mark.parametrize(
        "line, elements",
        [
            ("0  1", [0, 1]),
            ("0 1\r", [0, 1]),
            ("0\t1", [0, 1]),
            ("\t3 0", [0, 3]),
            ("+3", [3]),
            ("007", [7]),
            ("0 1 ", [0, 1]),
            (" 5", [5]),
            ("5 0 2", [0, 2, 5]),
        ],
    )
    @pytest.mark.parametrize("where", [0, 1030], ids=["first-block", "later-block"])
    def test_lenient_lines_load_as_their_elements(self, line, elements, where):
        supports = [[j % 10, (j + 3) % 10] for j in range(1100)]
        supports[where] = elements
        lines = [" ".join(map(str, sorted(s))) for s in supports]
        lines[where] = line
        expected = Dataset.from_supports(10, supports)
        text = "10 1100\n" + "\n".join(lines)
        assert loads_dataset(text + "\n")[0] == expected
        assert loads_dataset(text)[0] == expected  # no final newline

    @pytest.mark.parametrize("k", [1, 7, 8, 9, CODEC_BLOCK - 1, CODEC_BLOCK, CODEC_BLOCK + 1,
                                   2 * CODEC_BLOCK + 3])
    @pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 101, 1001])
    def test_text_matches_the_per_row_formatter(self, k, n):
        drawn = random_bernoulli_supports(k, n, 0.5, substream(k * 7919 + n, "codec"))
        matrix = drawn.matrix.copy()
        matrix[0] = n % 2 == 0  # full or empty, when it is the only support
        if k > 1:
            matrix[0], matrix[-1] = False, True
        data = Dataset(matrix)
        rows = (" ".join(str(e) for e in np.flatnonzero(row).tolist()) for row in matrix)
        expected = "# {\"tag\":1}\n" + f"{n} {k}\n" + "".join(row + "\n" for row in rows)
        text = dumps_dataset(data, {"tag": 1})
        assert text == expected
        back, meta = loads_dataset(text)
        assert back == data and np.array_equal(back.matrix, matrix)
        assert meta == {"tag": 1}

    def test_codec_block_is_the_size_the_tests_cross(self):
        assert _ROW_BLOCK == CODEC_BLOCK

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_parse_matches_the_per_line_parse(self, data):
        # Mostly canonical lines, with the variants the per-line parse accepts
        # or rejects: wide or tab separators, signs, leading zeros, trailing
        # characters, repeats and elements past the domain.
        n = data.draw(st.integers(1, 120))
        k = data.draw(st.integers(1, 12))
        lines = []
        for _ in range(k):
            elements = data.draw(st.lists(st.integers(0, n + 1), max_size=6))
            prefixes = st.sampled_from(["", "", "", "", "0", "+"])
            words = [data.draw(prefixes) + str(e) for e in elements]
            separator = data.draw(st.sampled_from([" ", " ", " ", "  ", "\t"]))
            ending = data.draw(st.sampled_from(["", "", "", " ", "\r", "x"]))
            lines.append(separator.join(words) + ending)
        text = f"{n} {k}\n" + "".join(line + "\n" for line in lines)
        outcomes = []
        for parse in (lambda: loads_dataset(text)[0], lambda: _per_line(lines, n)):
            try:
                outcomes.append(parse())
            except ValueError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]

    def test_canonical_text_skips_the_per_line_parse(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a canonical block went to the per-line parse")

        k = 2 * CODEC_BLOCK + 3
        matrix = random_bernoulli_supports(k, 1001, 0.5, substream(5, "codec")).matrix.copy()
        matrix[0], matrix[-1] = False, True
        text = dumps_dataset(Dataset(matrix))
        monkeypatch.setattr(distributions, "_parse_lines", refuse)
        assert np.array_equal(loads_dataset(text)[0].matrix, matrix)

    def test_from_columns_checks_shape_and_padding(self):
        data = Dataset.from_supports(5, [[0], [1, 4], [], [2]])
        columns = data.columns.copy()
        back = Dataset.from_columns(columns, 4)
        assert back == data and back.n == 5 and not columns.flags.writeable
        for wrong, k in ((data.columns.astype(np.int16), 4), (data.columns, 9),
                         (data.columns[0], 4)):
            with pytest.raises(ValueError, match="must be"):
                Dataset.from_columns(wrong, k)
        padded = data.columns.copy()
        padded[3, 0] |= 1
        with pytest.raises(ValueError, match="padding bit"):
            Dataset.from_columns(padded, 4)

    def test_codec_peak_memory(self):
        # tracemalloc peaks on the k=10,000 serve-size dataset, measured with the
        # per-line codec (16.16 MB to parse above the text, 28.92 MB to write).
        # The instance-file round trip must not raise the benchmark's peak RSS.
        data = gen_hude(500, 10_000, 0.5, 10.0, 1).dataset
        text = dumps_dataset(data)
        tracemalloc.start()
        try:
            for call, bound in ((lambda: loads_dataset(text), 16.2e6),
                                (lambda: dumps_dataset(data), 28.9e6)):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                assert tracemalloc.get_traced_memory()[1] - base <= bound
        finally:
            tracemalloc.stop()

    def test_header_above_the_size_cap_is_rejected_before_allocating(self):
        # A two-support file claiming 1e10 elements would need 20 GB of matrix.
        with pytest.raises(ValueError, match="k=2 supports over n=10,000,000,000 elements"):
            loads_dataset("10000000000 2\n0\n1\n")

    @pytest.mark.parametrize("k", [1, 7, 8, 13, _ROW_BLOCK + 5])
    def test_packed_columns_round_trip(self, k):
        matrix = random_bernoulli_supports(k, 9, 0.5, substream(k, "pack")).matrix
        ds = Dataset(matrix)
        assert ds.columns.shape == (9, -(-k // 8))
        assert np.array_equal(ds.matrix, matrix)
        assert all(np.array_equal(ds.row(j), matrix[j]) for j in (0, k // 2, k - 1))
        padding = np.unpackbits(ds.columns, axis=1)[:, k:]
        assert not padding.any()
        with pytest.raises(IndexError):
            ds.row(k)

    def test_holds_reads_bits_in_any_broadcast_shape(self):
        matrix = random_bernoulli_supports(21, 9, 0.5, substream(2, "holds")).matrix
        ds = Dataset(matrix)
        supports = np.asarray([[0], [8], [20]], dtype=np.int32)
        elements = substream(3, "holds").integers(0, 9, size=(3, 5))
        assert np.array_equal(ds.holds(supports, elements), matrix[supports, elements])
        assert np.array_equal(ds.holds(np.arange(21)), matrix.T)
        assert np.array_equal(ds.holds(13), matrix[13])

    def test_matrix_is_read_only(self):
        ds = Dataset.from_supports(4, [[0], [1]])
        with pytest.raises(ValueError):
            ds.matrix[0, 0] = False


class TestRandomSupports:
    def test_fixed_size_rows(self):
        matrix = random_fixed_size_supports(50, 30, 7, substream(2, "fs")).matrix
        assert matrix.shape == (50, 30)
        assert (matrix.sum(axis=1) == 7).all()

    @pytest.mark.parametrize(
        "k, n, m, seed",
        [(1, 1, 1, 0), (50, 30, 7, 1), (9, 8, 8, 2), (7, 500, 250, 3), (5000, 40, 20, 4)],
    )
    def test_threshold_selection_matches_argpartition(self, k, n, m, seed):
        ours = random_fixed_size_supports(k, n, m, substream(seed, "eq")).matrix
        assert np.array_equal(ours, _argpartition_supports(k, n, m, substream(seed, "eq")))

    def test_tied_rows_fall_back_to_argpartition(self):
        k, n, m = 40, 12, 5
        u = _QuarterRng(4).random((k, n))
        at_or_below = u <= np.partition(u, m - 1, axis=1)[:, m - 1 : m]
        assert (at_or_below.sum(axis=1) != m).any()  # the fallback path is taken
        ours = random_fixed_size_supports(k, n, m, _QuarterRng(4)).matrix
        assert np.array_equal(ours, _argpartition_supports(k, n, m, _QuarterRng(4)))
        assert (ours.sum(axis=1) == m).all()

    def test_bernoulli_mean(self):
        matrix = random_bernoulli_supports(200, 100, 0.3, substream(2, "bern")).matrix
        mean = matrix.mean()
        assert abs(mean - 0.3) < 3.0 * math.sqrt(0.3 * 0.7 / matrix.size)

    def test_degenerate_full(self):
        matrix = random_bernoulli_supports(5, 11, 1.0, substream(2, "full")).matrix
        assert matrix.all()

    def test_size_cap(self):
        check_dataset_size(MAX_DATASET_CELLS // 500, 500)
        with pytest.raises(ValueError, match="k=200,001 supports over n=500 elements"):
            check_dataset_size(MAX_DATASET_CELLS // 500 + 1, 500)

    # Row counts on, just below and just past the edges of 1,024- and
    # 4,096-row blocks and of a byte; domains with one, two, an odd number
    # and the benchmark's number of elements.
    @pytest.mark.parametrize(
        "k", [1, 7, 8, 9, 63, 1023, 1024, 1025, 4095, 4096, 4097, 8200, 12345]
    )
    @pytest.mark.parametrize("n", [1, 2, 9, 500])
    def test_columns_are_the_packed_reference_draw(self, k, n):
        m = max(1, n // 2)
        seed = k * 7919 + n
        fixed = random_fixed_size_supports(k, n, m, substream(seed, "pack-fs"))
        reference = _argpartition_supports(k, n, m, substream(seed, "pack-fs"))
        assert np.array_equal(_drawn_columns(fixed), np.packbits(reference, axis=0).T)
        bernoulli = random_bernoulli_supports(k, n, 0.5, substream(seed, "pack-bern"))
        reference = substream(seed, "pack-bern").random((k, n)) < 0.5
        assert np.array_equal(_drawn_columns(bernoulli), np.packbits(reference, axis=0).T)

    @pytest.mark.parametrize("k", [1023, 1025, 4097])
    def test_tied_rows_past_the_first_block(self, k):
        n, m = 12, 5
        drawn = random_fixed_size_supports(k, n, m, _QuarterRng(k))
        reference = _argpartition_supports(k, n, m, _QuarterRng(k))
        assert np.array_equal(_drawn_columns(drawn), np.packbits(reference, axis=0).T)

    @pytest.mark.parametrize(
        "draw",
        [lambda k, n, rng: random_fixed_size_supports(k, n, n // 2, rng),
         lambda k, n, rng: random_bernoulli_supports(k, n, 0.5, rng)],
    )
    @pytest.mark.parametrize("k, n", [(10**10, 100), (1, MAX_DATASET_CELLS + 1)])
    def test_generators_refuse_oversized_matrices(self, draw, k, n):
        # Checked before anything is allocated: 1e12 cells would be 931 GiB.
        with pytest.raises(ValueError, match=f"k={k:,} supports over n={n:,} elements"):
            draw(k, n, substream(0, "cap"))
