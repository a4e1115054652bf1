"""Instance generators, Poisson samplers, the reduction, and instance files."""

import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from hude import instances
from hude.distributions import l1_distance
from hude.instances import (
    _COUNT_BUFFER,
    GapssInstance,
    GenerationError,
    gen_gapss,
    gen_hude,
    gen_urde,
    load_instance,
    poisson,
    reduce_gapss_to_urde,
    required_w_q,
    save_instance,
)
from hude.distributions import QueryMultiset, SupportSet
from hude.rng import substream


def _knuth(lam, rng):
    threshold = math.exp(-lam)
    count = 0
    running = 1.0
    while True:
        running *= rng.random()
        if running <= threshold:
            return count
        count += 1


def poisson_reference(lam, rng):
    """Poisson draw by Knuth's product method, one ``rng.random()`` a uniform
    and chunked for large rates: the reference that instances.poisson's plain
    draws must match integer for integer."""
    from hude.instances import _KNUTH_CHUNK, _MAX_POISSON_RATE

    if not 0 < lam <= _MAX_POISSON_RATE:
        raise ValueError(
            f"rate must be positive and at most {_MAX_POISSON_RATE:g} (got {lam!r})"
        )
    total = 0
    while lam > _KNUTH_CHUNK:
        total += _knuth(_KNUTH_CHUNK, rng)
        lam -= _KNUTH_CHUNK
    return total + _knuth(lam, rng)


def poisson_plus(lam, rng):
    """Zero-truncated Poisson, one draw a call: the reference that
    instances.poisson's truncated draws must match integer for integer.

    Rejection of poisson_reference draws for moderate rates, inverse CDF below.
    """
    from hude.instances import _INVERSE_CDF_RATE

    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"rate must be finite and positive (got {lam!r})")
    if lam >= _INVERSE_CDF_RATE:
        while True:
            value = poisson_reference(lam, rng)
            if value > 0:
                return value
    u = rng.random()
    x = 1
    pmf = lam * math.exp(-lam) / -math.expm1(-lam)
    cumulative = pmf
    while u > cumulative:
        x += 1
        pmf *= lam / x
        cumulative += pmf
    return x


class TestGenHude:
    def test_single_distribution_toy(self):
        inst = gen_hude(4, 1, 1.0, 2.0, seed=0)
        assert inst.truth_index == 0
        assert inst.dataset.distribution(0).cardinality == 2
        assert inst.query.order.size == 2
        assert set(dict(inst.query.pairs())) <= set(inst.dataset.distribution(0).indices.tolist())

    def test_default_experiment_shape(self):
        # The benchmark default instance shape: k=50000 supports of size 250
        # over n=500, with S = n/s = 50 query samples.
        inst = gen_hude(500, 50000, 0.5, 10.0, seed=1)
        assert inst.dataset.k == 50000
        assert inst.dataset.n == 500
        assert inst.query.order.size == 50
        sizes = inst.dataset.matrix.sum(axis=1)
        assert (sizes == 250).all()

    def test_promise_holds_against_truth(self):
        inst = gen_hude(200, 150, 0.5, 10.0, seed=3)
        truth = inst.dataset.distribution(inst.truth_index)
        for j in range(inst.dataset.k):
            if j != inst.truth_index:
                assert l1_distance(truth, inst.dataset.distribution(j)) >= inst.epsilon

    def test_promise_passes_first_attempt_at_moderate_separation(self):
        # At n=500, eps=0.5, violations are far out in the tail; across 100
        # seeds every instance should clear the check without resampling.
        first_try = sum(
            gen_hude(500, 1000, 0.5, 10.0, seed=seed).attempts == 1 for seed in range(100)
        )
        assert first_try >= 99

    def test_separation_check_peak_memory_at_k50k(self):
        # The check unpacks one block of the truth's columns at a time, not
        # an (n/2, k) array (12.5 MB here); the peak stays near generation's.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gen_hude(500, 50_000, 0.5, 10.0, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20

    def test_unsatisfiable_promise_raises_with_pair(self):
        # eps=2 requires disjoint supports, impossible for half supports of
        # the same universe at k > 1.
        with pytest.raises(GenerationError, match=r"\|\|p_\d+ - p_\d+\|\|_1"):
            gen_hude(8, 4, 2.0, 2.0, seed=0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_hude(7, 2, 1.0, 2.0, seed=0)  # odd domain
        with pytest.raises(ValueError):
            gen_hude(8, 2, 1.0, 16.0, seed=0)  # fewer than one sample
        with pytest.raises(ValueError):
            gen_hude(8, 2, 3.0, 2.0, seed=0)  # separation above 2


class TestGenUrde:
    def test_degenerate_full_supports(self):
        inst = gen_urde(32, 5, 1.0, 4.0, seed=2)
        assert inst.dataset.matrix.all()

    def test_mean_query_total(self):
        # E[total] = E[|supp|]/(s*w_u) = n/s by the law of total expectation.
        n, s, reps = 1000, 10.0, 2000
        totals = np.array(
            [gen_urde(n, 2, 0.5, s, seed=seed).query.order.size for seed in range(reps)],
            dtype=float,
        )
        stderr = totals.std(ddof=1) / math.sqrt(reps)
        assert abs(totals.mean() - n / s) <= 3.0 * stderr

    def test_mean_support_size(self):
        inst = gen_urde(500, 100, 0.5, 10.0, seed=4)
        sizes = inst.dataset.matrix.sum(axis=1).astype(float)
        stderr = math.sqrt(500 * 0.25 / 100)
        assert abs(sizes.mean() - 250.0) <= 3.0 * stderr

    def test_query_supported_on_truth(self):
        inst = gen_urde(200, 20, 0.5, 8.0, seed=5)
        truth_bits = inst.dataset.row(inst.truth_index)
        assert truth_bits[inst.query.distinct.indices].all()

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_urde(16, 2, 0.0, 4.0, seed=0)
        with pytest.raises(ValueError):
            gen_urde(16, 2, 0.5, 0.0, seed=0)

    def test_truth_redraws_stay_within_the_cell_cap(self, monkeypatch):
        # At w_u = 1e-300 every redraw is empty; with a 45-cell cap, 4 rows of 10 fit.
        monkeypatch.setattr(instances, "MAX_DATASET_CELLS", 45)
        with pytest.raises(GenerationError, match="truth support still empty after 4 redraws"):
            gen_urde(10, 3, 1e-300, 1e300, seed=0)


class TestGenGapss:
    def test_query_is_subset_of_truth(self):
        inst = gen_gapss(10_000, 3, 0.5, 0.02, seed=6)
        truth = inst.dataset.matrix[inst.truth_index]
        assert not np.any(inst.query.bits & ~truth)

    def test_query_density(self):
        inst = gen_gapss(10_000, 3, 0.5, 0.02, seed=6)
        freq = inst.query.cardinality / inst.dataset.n
        assert abs(freq - 0.02) <= 3.0 * math.sqrt(0.02 * 0.98 / inst.dataset.n)

    def test_truth_marginal_density(self):
        # Column sums of the joint law: the truth's marginal inclusion
        # probability is w_q + (w_u - w_q) = w_u.
        inst = gen_gapss(10_000, 2, 0.5, 0.02, seed=7)
        freq = inst.dataset.matrix[inst.truth_index].mean()
        assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / inst.dataset.n)

    def test_near_equal_parameters_copy_the_truth(self):
        inst = gen_gapss(10_000, 2, 0.5, 0.5 - 1e-9, seed=8)
        truth = inst.dataset.matrix[inst.truth_index]
        agreement = np.mean(inst.query.bits == truth)
        assert agreement >= 1.0 - 1e-4

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError):
            gen_gapss(100, 2, 0.2, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_gapss(100, 2, 0.5, 0.5, seed=0)


class TestPoisson:
    def test_mean_small_rate(self):
        rng = substream(9, "poisson-mean")
        draws = poisson(0.04, 100_000, rng).astype(float)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.04) <= 3.0 * stderr

    def test_mean_large_rate_chunked(self):
        rng = substream(9, "poisson-large")
        draws = poisson(100.0, 5000, rng).astype(float)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 100.0) <= 3.0 * stderr

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            poisson(0.0, 1, substream(0, "x"))
        with pytest.raises(ValueError):
            poisson_plus(-1.0, substream(0, "x"))

    def test_truncated_point_mass(self):
        # P[X=1] = lam e^-lam / (1 - e^-lam) ~ 0.98013 at lam = 0.04.
        lam = 0.04
        expected = lam * math.exp(-lam) / (1.0 - math.exp(-lam))
        draws = poisson(lam, 40_000, substream(10, "plus-mass"), truncated=True)
        ones = float(np.mean(draws == 1))
        stderr = math.sqrt(expected * (1 - expected) / draws.size)
        assert abs(ones - expected) <= 3.0 * stderr

    def test_truncated_never_zero(self):
        rng = substream(10, "plus-positive")
        # Inverse-CDF branch gets the long run; the rejection branch a shorter one.
        assert poisson(0.004, 1_000_000, rng, truncated=True).min() >= 1
        assert poisson(0.4, 20_000, rng, truncated=True).min() >= 1
        assert poisson(4.0, 5_000, rng, truncated=True).min() >= 1

    # 8.0 is exactly one Knuth chunk; 8.5, 100 and 12,345.6 chain 2, 13 and
    # 1,544.  Each size spans at least three _COUNT_BUFFER refills.
    @pytest.mark.parametrize(
        "lam, size, seeds",
        [(0.04, 3 * _COUNT_BUFFER + 1, 20), (8.0, 100, 20), (8.5, 100, 20),
         (100.0, 10, 20), (12_345.6, 1, 5), (1e6, 1, 1)],
    )
    def test_same_counts_as_reference(self, lam, size, seeds):
        for seed in range(seeds):
            got = poisson(lam, size, substream(seed, "poisson-counts"))
            assert got.dtype == np.int64
            rng = substream(seed, "poisson-counts")
            assert got.tolist() == [poisson_reference(lam, rng) for _ in range(size)], (lam, seed)


class TestTruncatedCounts:
    """The reduction's buffered counts against poisson_plus, one call a draw."""

    @staticmethod
    def scalar(lam, size, seed):
        rng = substream(seed, "reduction-counts")
        return [poisson_plus(lam, rng) for _ in range(size)]

    # Both branches (inverse CDF below 0.01), the reduction's rate at s=10
    # (0.2), and rates that chain two and thirteen Knuth chunks.
    @pytest.mark.parametrize("lam", [0.004, 0.0099, 0.01, 0.2, 2.0, 8.5, 100.0])
    def test_same_counts_as_poisson_plus(self, lam):
        for seed in range(300):
            size = seed % 40  # a reduced query's element count
            got = poisson(lam, size, substream(seed, "reduction-counts"), truncated=True)
            assert got.dtype == np.int64
            assert got.tolist() == self.scalar(lam, size, seed), (lam, seed)

    @pytest.mark.parametrize("lam", [0.004, 0.2, 20.0])
    def test_long_runs_cross_buffer_refills(self, lam):
        size = 3 * _COUNT_BUFFER + 1
        got = poisson(lam, size, substream(5, "reduction-counts"), truncated=True)
        assert got.tolist() == self.scalar(lam, size, 5)

    def test_rates_rejected_like_poisson_plus(self):
        for lam in (0.0, -1.0, math.nan, math.inf, 2e6):
            with pytest.raises(ValueError) as expected:
                poisson_plus(lam, substream(0, "x"))
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                poisson(lam, 3, substream(0, "x"), truncated=True)
        assert poisson(-1.0, 0, substream(0, "x"), truncated=True).size == 0


class TestReduction:
    def test_matched_density_closed_form(self):
        # Independent coding of w_u (1 - e^{-1/(s w_u)}) at w_u=1/2, s=50.
        assert required_w_q(0.5, 50.0) == pytest.approx(
            0.5 * (1.0 - math.exp(-0.04)), rel=1e-12
        )
        assert required_w_q(0.5, 50.0) == pytest.approx(0.0196053, abs=1e-7)

    def test_truth_preserved_and_supported(self):
        g = gen_gapss(200, 10, 0.5, required_w_q(0.5, 10.0), seed=11)
        reduced = reduce_gapss_to_urde(g, 10.0, seed=12)
        assert reduced.truth_index == g.truth_index
        assert reduced.w_u == g.w_u
        query_elements = set(dict(reduced.query.pairs()))
        assert query_elements == set(g.query.indices.tolist())

    def test_empty_query_maps_to_empty_query(self):
        g = gen_gapss(64, 4, 0.5, required_w_q(0.5, 10.0), seed=13)
        silent = GapssInstance(
            g.dataset, g.w_u, g.w_q, g.truth_index, SupportSet.from_indices(64, []), g.seed
        )
        reduced = reduce_gapss_to_urde(silent, 10.0, seed=14)
        assert reduced.query.order.size == 0

    def test_mismatched_parameters_report_both_sides(self):
        g = gen_gapss(64, 4, 0.5, 0.05, seed=15)
        with pytest.raises(ValueError, match=r"0\.05"):
            reduce_gapss_to_urde(g, 10.0, seed=16)

    def test_per_element_counts_mean(self):
        # Each query element receives a positive-conditioned count whose
        # unconditional law is Poisson(1/(s*w_u)); check the mean quickly
        # (the full goodness-of-fit lives in the acceptance suite).
        s, w_u = 10.0, 0.5
        lam = 1.0 / (s * w_u)
        counts = []
        for seed in range(300):
            g = gen_gapss(200, 4, w_u, required_w_q(w_u, s), seed=seed)
            reduced = reduce_gapss_to_urde(g, s, seed=seed + 10_000)
            support = g.dataset.matrix[g.truth_index]
            per_element = np.zeros(200, dtype=float)
            for e, c in dict(reduced.query.pairs()).items():
                per_element[e] = c
            counts.extend(per_element[support].tolist())
        counts = np.asarray(counts)
        stderr = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - lam) <= 3.0 * stderr


class TestInstanceFiles:
    @pytest.mark.parametrize("problem", ["hude", "urde", "gapss"])
    def test_round_trip_bytes(self, problem, tmp_path):
        if problem == "hude":
            inst = gen_hude(100, 20, 0.5, 5.0, seed=17)
        elif problem == "urde":
            inst = gen_urde(100, 20, 0.5, 5.0, seed=17)
        else:
            inst = gen_gapss(100, 20, 0.5, 0.05, seed=17)
        first = tmp_path / "first"
        second = tmp_path / "second"
        save_instance(inst, first)
        back = load_instance(first)
        save_instance(back, second)
        for name in ("dataset.txt", "instance.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert back.truth_index == inst.truth_index
        assert back.dataset == inst.dataset

    def test_query_stream_survives_round_trip(self, tmp_path):
        inst = gen_hude(60, 10, 0.5, 3.0, seed=18)
        save_instance(inst, tmp_path / "inst")
        back = load_instance(tmp_path / "inst")
        assert np.array_equal(back.query.order, inst.query.order)

    def test_empty_queries_round_trip(self, tmp_path):
        # urde can draw 0 samples, and gapss can keep no element; the second
        # save writes the loaded query, so equal bytes mean it came back empty.
        g = gen_gapss(64, 4, 0.5, 0.05, seed=17)
        no_draws = QueryMultiset(64, np.empty(0, dtype=np.int64))
        no_elements = SupportSet.from_indices(64, [])
        for inst in (
            instances.UrdeInstance(g.dataset, 0.5, 5.0, g.truth_index, no_draws, g.seed),
            GapssInstance(g.dataset, g.w_u, g.w_q, g.truth_index, no_elements, g.seed),
        ):
            first, second = tmp_path / "first", tmp_path / "second"
            save_instance(inst, first)
            back = load_instance(first)
            save_instance(back, second)
            assert type(back) is type(inst)
            for name in ("dataset.txt", "instance.json"):
                assert (first / name).read_bytes() == (second / name).read_bytes()
            assert '"query":[]' in (first / "instance.json").read_text()

    def test_generation_is_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_instance(gen_urde(80, 12, 0.5, 6.0, seed=19), a)
        save_instance(gen_urde(80, 12, 0.5, 6.0, seed=19), b)
        for name in ("dataset.txt", "instance.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert os.path.getsize(a / "dataset.txt") > 0


# Instances whose counters are past their first value, each with the sha256 of
# its dataset.txt bytes followed by its instance.json bytes.
URDE_RESAMPLED = [  # gen_urde(3, 13, 0.05, 1.0, seed): (truth_resamples, sha256)
    (0, "70d15d0413a49a6b9baf0ffe3b119090b3088f249d9be653f51335ad2c00cdab"),
    (2, "b0ed682ab7d302dc739a5ffd97d40458e715c0f008c767468bfa5c8aa0042cb5"),
    (1, "f3075870f06a2a6017e5261b19e0328e23ceaf74249f9aba5a5a006bfc60ce13"),
    (0, "9a8bfe595b94b9ce4c3c04991fdb8773cd094d7a41c5834f0f6e34eef77601ff"),
    (9, "97165267c91d3e242c793bed01aa0f8520196f5b5b8475086ea7d8ea3686c649"),
    (6, "2619abd5bbe62fe651b5581aad2da0abfd7616b456a12b4e4c88010a0edd2e87"),
    (11, "5a2686661bde03c8e210d4c592077e90382da6c20a831b61391f4f1a2893b51b"),
    (10, "c22ad257f55d2c90c7b91532faf51108d7727beb180e1f7e7882fdf6914b8b43"),
]
HUDE_RETRIED = [  # gen_hude(40, 300, 0.5, 5.0, seed): (attempts, sha256)
    (1, "5a4dc6e6b6baa61e5e4462845ed867d9bc16e2a515593eaf3f9b2e753d02f9a2"),
    (1, "c578ff58b0aa714fdcbd3d0ba5550df42dac980a7b08c6afc078d05fe07e006d"),
    (1, "d841ffc54c43ffd6da7e8e2242b55484f6571c6b13ce01870d40e10246c43d12"),
    (1, "1fad84003a20f4fb4907fe0caf9c9fc6de00ce97c42ecab4af32f0461ed8a68a"),
    (1, "f3001ea3cb1615e2623486cccbbe3765834788925dcf5dafc00be57f943adbdc"),
    (1, "f476978234a182cce0b9b6a95372044f186d59f4d58f63a8a1e66482c6ebb29f"),
    (2, "b4a3e46468bddb2f7b7251e66d68e2fa008f11e4186b7aa5e48690833ee00f54"),
    (2, "4706173aaa85dad93ef46001c8649aa944769b9a8a67c01bcedfbf520a1d3e00"),
    (1, "b60df4cacd8b76358909bea2eed07a3c48f9d085ccf9d8335894325b5aa6895b"),
    (1, "c8834bc84c10923a9d24063b9c55550792b93b4d688f8209450f2f6e7a8d9a82"),
    (1, "57c1d68792f51f1eb388f9a4a476c293c6cc56fd7219002841d60bf5504438b7"),
    (1, "d390dc978e38b8953ff83b0fd11babbceb1349ec014def85de49aec7d7e6e7a7"),
]


def _file_digest(instance, outdir) -> str:
    save_instance(instance, outdir)
    return hashlib.sha256(
        (outdir / "dataset.txt").read_bytes() + (outdir / "instance.json").read_bytes()
    ).hexdigest()


class TestCounterPathBytes:
    """The truth-row resample of gen_urde and the dataset retry of gen_hude, pinned."""

    @pytest.mark.parametrize("seed", range(len(URDE_RESAMPLED)))
    def test_urde_truth_resamples(self, tmp_path, seed):
        inst = gen_urde(3, 13, 0.05, 1.0, seed)
        assert (inst.truth_resamples, _file_digest(inst, tmp_path)) == URDE_RESAMPLED[seed]

    @pytest.mark.parametrize("seed", range(len(HUDE_RETRIED)))
    def test_hude_attempts(self, tmp_path, seed):
        inst = gen_hude(40, 300, 0.5, 5.0, seed)
        assert (inst.attempts, _file_digest(inst, tmp_path)) == HUDE_RETRIED[seed]

    def test_both_paths_are_taken(self):
        assert sum(count > 0 for count, _ in URDE_RESAMPLED) == 6
        assert sum(count == 2 for count, _ in HUDE_RETRIED) == 2


def _corrupt_sidecar(tmp_path, edit, problem="hude"):
    params = {"hude": (0.5, 4.0), "urde": (0.5, 4.0), "gapss": (0.5, 0.05)}[problem]
    inst = instances.FAMILIES[problem].generator(40, 6, *params, seed=20)
    out = tmp_path / "inst"
    save_instance(inst, out)
    path = out / "instance.json"
    sidecar = json.loads(path.read_text())
    path.write_text(json.dumps(edit(sidecar)))
    return out


def _without(*keys):
    return lambda sidecar: {k: v for k, v in sidecar.items() if k not in keys}


def _with(**fields):
    return lambda sidecar: {**sidecar, **fields}


_NOT_INT64 = "malformed query: elements must be JSON integers within int64 (sidecar key '{}')"
_NOT_PAIRS = "malformed query: entries must be [element, 1] pairs (sidecar key 'query')"
_NOT_LIST = "malformed query: not a list of at most 10,000,000 entries (sidecar key '{}')"


class TestCorruptedSidecar:
    @pytest.mark.parametrize(
        "edit, problem, message",
        [
            (_without("truth_index"), "hude", "lacks key(s) 'truth_index'"),
            (_without("problem"), "hude", "lacks key 'problem'"),
            (_without("epsilon", "seed"), "hude", "lacks key(s) 'seed', 'epsilon'"),
            (_without("w_q"), "gapss", "lacks key(s) 'w_q'"),
            (_without("query", "query_stream"), "hude", "lacks key(s) 'query_stream'"),
            (_with(n=41), "hude", "sidecar has n = 41 but the dataset header has n = 40"),
            (_with(k=7), "hude", "sidecar has k = 7 but the dataset header has k = 6"),
            (_with(truth_index=6), "hude", "truth_index 6 is not an index in [0, 6)"),
            (_with(truth_index="0"), "hude", "truth_index '0' is not an index"),
            (_with(epsilon="0.5"), "hude", "sidecar epsilon '0.5' is not a number"),
            (_with(w_q=None), "gapss", "sidecar w_q None is not a number"),
            (_with(seed=2.5), "hude", "sidecar seed 2.5 is not an integer"),
            (_with(attempts="1"), "hude", "sidecar attempts '1' is not an integer"),
            (_with(attempts=1.5), "hude", "sidecar attempts 1.5 is not an integer"),
            (_with(problem="other"), "hude", "unknown problem type in sidecar: 'other'"),
            (_with(problem=["hude"]), "hude", "unknown problem type"),
            (lambda sidecar: [sidecar], "hude", "sidecar is not a JSON object"),
            (_with(query_stream=[0, 99]), "hude", "malformed query: sample outside domain"),
            (_with(query=[[1]]), "gapss", "malformed query"),
            *((_with(query_stream=bad), "hude", _NOT_INT64.format("query_stream"))
              for bad in ([1.5, 2.7], [True, False], [True, 1], ["1", 2], [[1], [2, 3]],
                          [2**70], [-(2**63) - 1])),
            *((_with(query=bad), "gapss", _NOT_INT64.format("query"))
              for bad in ([[1.7, 1]], [["1", 1]], [[2**70, 1]])),
            *((_with(query=bad), "gapss", _NOT_PAIRS)
              for bad in ([[1, -5]], [[1, 2]], [[1, True]], [[1, 1, 1]], [[1, 2**62]], [1, 2])),
            (_with(query_stream=3), "hude", _NOT_LIST.format("query_stream")),
            (_with(query_stream=None), "hude", _NOT_LIST.format("query_stream")),
            (_with(query={}), "gapss", _NOT_LIST.format("query")),
        ],
    )
    def test_rejected_with_named_cause(self, tmp_path, edit, problem, message):
        out = _corrupt_sidecar(tmp_path, edit, problem)
        with pytest.raises(ValueError) as err:
            load_instance(out)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "problem, key, value, interval",
        [
            ("hude", "epsilon", 7, "(0, 2]"),
            ("hude", "epsilon", 0, "(0, 2]"),
            ("hude", "epsilon", math.nan, "(0, 2]"),
            ("hude", "s", -5, "(0, inf)"),
            ("hude", "s", math.inf, "(0, inf)"),
            ("urde", "w_u", 0, "(0, 1]"),
            ("urde", "w_u", 1.5, "(0, 1]"),
            ("urde", "s", math.nan, "(0, inf)"),
            ("gapss", "w_u", 1, "(0, 1)"),
            ("gapss", "w_q", 0.5, "(0, w_u)"),
            ("gapss", "w_q", -math.inf, "(0, w_u)"),
        ],
    )
    def test_parameter_outside_its_domain_rejected(self, tmp_path, problem, key, value, interval):
        out = _corrupt_sidecar(tmp_path, _with(**{key: value}), problem)
        with pytest.raises(ValueError) as err:
            load_instance(out)
        assert f"sidecar {key} {value!r} is outside {interval}" in str(err.value)

    @pytest.mark.parametrize("problem, key, value", [("urde", "w_u", 1), ("urde", "s", 1e-9)])
    def test_domain_edges_past_the_generation_caps_load(self, tmp_path, problem, key, value):
        # Only the domain is checked: n/(s*w_u) = 4e10 is past gen_urde's query-rate cap.
        out = _corrupt_sidecar(tmp_path, _with(**{key: value}), problem)
        assert getattr(load_instance(out), key) == value

    def test_oversized_sidecar_refused_before_parsing(self, tmp_path, monkeypatch):
        out = _corrupt_sidecar(tmp_path, lambda sidecar: sidecar)
        path = out / "instance.json"
        monkeypatch.setattr(instances, "_MAX_SIDECAR_BYTES", path.stat().st_size)
        load_instance(out)
        monkeypatch.setattr(instances, "_MAX_SIDECAR_BYTES", path.stat().st_size - 1)
        monkeypatch.setattr(instances.json, "load", pytest.fail)
        with pytest.raises(ValueError) as err:
            load_instance(out)
        assert f"{path}: sidecar is {path.stat().st_size:,} bytes" in str(err.value)

    def test_sidecar_bound_covers_a_full_query(self):
        # A stream entry and a pair per sample, each element and count at its widest.
        element, count = str(instances.MAX_DATASET_CELLS - 1), str(instances._MAX_QUERY_SAMPLES)
        widest = len(f"[{element},{count}],") + len(f"{element},")
        assert instances._MAX_SIDECAR_BYTES >= instances._MAX_QUERY_SAMPLES * widest

    def test_query_pairs_without_stream_rejected(self, tmp_path):
        # The loader reads a hude or urde query from query_stream only; the
        # query pairs written alongside it are not read back.
        out = _corrupt_sidecar(tmp_path, _without("query_stream"))
        with pytest.raises(ValueError, match="lacks key\\(s\\) 'query_stream'"):
            load_instance(out)

    @pytest.mark.parametrize(
        "problem, key, value", [("hude", "query_stream", [1] * 3), ("gapss", "query", [[1, 1]] * 3)]
    )
    def test_query_length_capped(self, tmp_path, monkeypatch, problem, key, value):
        out = _corrupt_sidecar(tmp_path, _with(**{key: value}), problem)
        monkeypatch.setattr(instances, "_MAX_QUERY_SAMPLES", 3)
        load_instance(out)
        monkeypatch.setattr(instances, "_MAX_QUERY_SAMPLES", 2)
        with pytest.raises(ValueError, match="malformed query: not a list of at most 2 entries"):
            load_instance(out)
