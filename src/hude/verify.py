"""Self-contained invariant checks behind the ``verify`` CLI subcommand.

Each check is small, seeded, and independent; a check returns a failure
message or None.  These duplicate the cheapest assertions of the test suite
so a packaged installation can be validated without pytest.
"""
from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from . import bench, distributions, elimination, instances, subset_index, tradeoff
from .rng import substream


def _check_counter_discipline() -> str | None:
    support = distributions.SupportSet.from_indices(16, [1, 3, 5])
    counter = distributions.OpCounter()
    for element, expected in ((1, True), (2, False), (5, True)):
        got = distributions.contains(support, element, counter)
        if got is not expected:
            return f"contains({element}) returned {got}"
    if counter.membership_ops != 3:
        return f"three reads charged {counter.membership_ops} ops"
    return None


def _check_l1_values() -> str | None:
    def dist(n, a, b):
        support = distributions.SupportSet.from_indices
        return distributions.l1_distance(support(n, a), support(n, b))

    cases = [
        (8, [0, 1, 2, 3], [0, 1, 2, 3], 0.0),
        (8, [0, 1, 2, 3], [4, 5, 6, 7], 2.0),
        (8, [0, 1, 2, 3], [2, 3, 4, 5], 1.0),
    ]
    for n, a, b, expected in cases:
        got = dist(n, a, b)
        if abs(got - expected) > 1e-12:
            return f"l1({a}, {b}) = {got}, expected {expected}"
    return None


def _check_dataset_roundtrip() -> str | None:
    # Past one codec block, with an empty and a full support.
    k, n = distributions._ROW_BLOCK + 3, 29
    drawn = distributions.random_bernoulli_supports(k, n, 0.4, substream(11, "verify-roundtrip"))
    matrix = drawn.matrix.copy()
    matrix[5], matrix[k - 2] = False, True
    data = distributions.Dataset(matrix)
    text = distributions.dumps_dataset(data, {"tag": "verify"})
    back, meta = distributions.loads_dataset(text)
    if back != data:
        return "dataset round trip changed the supports"
    if distributions.dumps_dataset(back, meta) != text:
        return "dataset round trip changed the bytes"
    body = text.split("\n", 2)[2]
    per_line, block = np.zeros((n, k), dtype=bool), np.zeros((n, k), dtype=bool)
    distributions._parse_lines(body.split("\n")[:-1], n, 3, 0, per_line)
    if not distributions._parse_canonical(body.encode(), n, block):
        return "the block parse refused canonical text"
    if not np.array_equal(block, per_line):
        return "the block parse and the per-line parse disagree"
    return None


def _check_poisson_mean() -> str | None:
    rng = substream(12, "verify-poisson")
    draws = instances.poisson(0.04, 100_000, rng).astype(float)
    err = abs(draws.mean() - 0.04)
    limit = 3.0 * draws.std(ddof=1) / math.sqrt(draws.size)
    if err > limit:
        return f"mean off by {err:.2e} (> {limit:.2e})"
    return None


def _check_poisson_plus_positive() -> str | None:
    # The reduction's counts; a stream per rate, as poisson part-uses one.
    for i, lam in enumerate((0.004, 0.04, 0.4, 4.0)):
        rng = substream(13, "verify-poisson-plus", i)
        if instances.poisson(lam, 20_000, rng, truncated=True).min() < 1:
            return f"zero draw at rate {lam}"
    return None


def _check_reduction_relation() -> str | None:
    g = instances.gen_gapss(64, 5, 0.5, instances.required_w_q(0.5, 10.0), seed=5)
    reduced = instances.reduce_gapss_to_urde(g, 10.0, seed=6)
    if reduced.truth_index != g.truth_index:
        return "reduction changed the truth index"
    outside = np.flatnonzero(reduced.query.distinct.bits & ~g.dataset.row(g.truth_index))
    if outside.size:
        return f"reduced query contains {outside[0]} outside the truth support"
    try:
        instances.reduce_gapss_to_urde(g, 11.0, seed=6)
    except ValueError:
        pass
    else:
        return "mismatched rate parameter accepted"
    return None


def _check_gapss_subset() -> str | None:
    g = instances.gen_gapss(512, 4, 0.5, 0.05, seed=21)
    truth_bits = g.dataset.row(g.truth_index)
    if np.any(g.query.bits & ~truth_bits):
        return "query vector is not a subset of the truth vector"
    return None


def _check_hude_promise() -> str | None:
    inst = instances.gen_hude(200, 64, 0.5, 10.0, seed=31)
    truth = inst.dataset.distribution(inst.truth_index)
    for j in range(inst.dataset.k):
        if j == inst.truth_index:
            continue
        if distributions.l1_distance(truth, inst.dataset.distribution(j)) < inst.epsilon:
            return f"separation promise violated by pair ({inst.truth_index}, {j})"
    return None


# Small valid generator parameters for each family, in generator order.
_SAMPLE_PARAMS = {"hude": (0.5, 4.0), "urde": (0.5, 4.0), "gapss": (0.5, 0.05)}


def _check_sidecar_validation() -> str | None:
    for problem, family in instances.FAMILIES.items():
        inst = family.generator(40, 6, *_SAMPLE_PARAMS[problem], seed=32)
        with tempfile.TemporaryDirectory() as outdir:
            instances.save_instance(inst, outdir)
            path = os.path.join(outdir, instances.SIDECAR_FILENAME)
            with open(path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            back = instances.load_instance(outdir)
            if (back.truth_index, back.dataset) != (inst.truth_index, inst.dataset):
                return f"an intact {problem} sidecar did not load back"
            corrupted = {
                "k disagreeing with the dataset": {**sidecar, "k": inst.dataset.k + 1},
                "out-of-range truth_index": {**sidecar, "truth_index": inst.dataset.k},
                f"{family.params[0]} outside its domain": {**sidecar, family.params[0]: 7.0},
            }
            needed = ("truth_index", *family.params)
            if "query_stream" in sidecar:  # hude and urde: their query is read from it alone
                needed += ("query_stream",)
                corrupted["a non-integer query_stream entry"] = {**sidecar, "query_stream": [1.5]}
            for key in needed:
                corrupted[f"missing {key}"] = {k: v for k, v in sidecar.items() if k != key}
            for name, bad in corrupted.items():
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(bad, fh)
                try:
                    instances.load_instance(outdir)
                except ValueError:
                    continue
                return f"a {problem} sidecar with {name} was accepted"
    return None


def _check_bucket_soundness() -> str | None:
    # k = 45 leaves padding bits in every mask; L spans three build blocks, the last partial.
    inst = instances.gen_hude(60, 45, 0.5, 6.0, seed=41)
    count = 2 * subset_index._MASK_BLOCK + 13
    index = subset_index.preprocess(inst.dataset, subset_index.IndexParams(count, 3), seed=42)
    for i in range(count):
        probe = index.probes[i]
        in_bucket = set(index.bucket(i).tolist())
        for j in range(inst.dataset.k):
            holds = bool(inst.dataset.row(j)[probe].all())
            if holds != (j in in_bucket):
                return f"bucket {i} wrong about candidate {j}"
    padded = np.flatnonzero(np.unpackbits(index.masks, axis=1)[:, inst.dataset.k :].any(axis=1))
    if padded.size:
        return f"mask {padded[0]} has a padding bit set"
    return None


def _check_truth_containment() -> str | None:
    inst = instances.gen_hude(100, 30, 0.5, 5.0, seed=51)
    index = subset_index.preprocess(inst.dataset, subset_index.IndexParams(300, 2), seed=52)
    qbits = inst.query.distinct.bits
    for i in range(300):
        if np.all(qbits[index.probes[i]]):
            if inst.truth_index not in index.bucket(i):
                return f"probe {i} contained in the query but truth missing from bucket"
    return None


def _check_certify_batch() -> str | None:
    # uj-certify shuffles a chunk of candidates in one rng.permuted call, which
    # must give the rows and the generator state of one rng.permutation each.
    for size in (0, 1, 2, 7, 50, 300):
        pool = np.arange(size) * 3
        for count in (1, 3, 64):
            batched, single = (substream(81, "verify-permuted", size, count) for _ in range(2))
            rows = batched.permuted(np.tile(pool, (count, 1)), axis=1)
            if not all(np.array_equal(row, single.permutation(pool)) for row in rows):
                return f"permuted rows differ from permutation calls (pool {size}, {count} rows)"
            if batched.integers(2**62) != single.integers(2**62):
                return f"permuted moved the generator elsewhere (pool {size}, {count} rows)"
    # End to end, with two empty probes so every query certifies the whole
    # dataset (two chunks here); a uniform query fails both buckets.
    data, queries = bench.generate_point(200, 1000, 200, seed=82, point_id=0, num_queries=6)
    queries.append((None, distributions.QueryMultiset(200, np.arange(0, 200, 2))))
    index = subset_index.preprocess(data, subset_index.IndexParams(2, 0, variant="uj-certify"), 83)
    matrix = data.matrix
    cap = math.ceil(4.0 * math.log(200))  # c_query 4, epsilon 1
    for qid, (_, sample) in enumerate(queries):
        pool = sample.distinct.indices
        ours, theirs = (substream(84, "verify-certify", qid) for _ in range(2))
        counter = distributions.OpCounter()
        got = subset_index.query(index, sample, 1.0, counter, rng=ours)
        charge, found = 0, None
        for j in list(range(data.k)) * 2:
            inside = matrix[j, theirs.permutation(pool)[:cap]]
            charge += int(inside.argmin()) + 1 if not inside.all() else inside.size
            if inside.all():
                found = j
                break
        if (got.index, counter.membership_ops) != (found, charge):
            return (
                f"query {qid}: {got.index} at {counter.membership_ops} ops, but "
                f"{found} at {charge} with one shuffle per candidate"
            )
        if found is None and ours.integers(2**62) != theirs.integers(2**62):
            return f"query {qid}: failed buckets moved the generator elsewhere"
    return None


def _check_elimination_monotone() -> str | None:
    # One sample at a time, each charged the candidates alive before it,
    # stopping at the first sample that leaves at most one.
    inst = instances.gen_hude(80, 25, 0.5, 4.0, seed=61)
    alive = np.arange(inst.dataset.k)
    matrix = inst.dataset.matrix
    charge = 0
    for element in inst.query.order.tolist():
        charge += alive.size
        alive = alive[matrix[alive, element]]
        if alive.size <= 1:
            break
    counter = distributions.OpCounter()
    result = elimination.eliminate(inst.dataset, np.arange(inst.dataset.k), inst.query, counter)
    if counter.membership_ops != charge:
        return f"eliminate charged {counter.membership_ops} ops, the one-sample loop {charge}"
    if result.found and result.index != inst.truth_index:
        return "eliminated down to a wrong candidate"
    if result.outcome == "exhausted":
        return "the truth was eliminated"
    return None


def _check_entropy_bounds() -> str | None:
    xs = np.linspace(0.0, 1.0, 10_002)[1:-1]
    h = tradeoff.kl_binary(xs, 0.5)  # the paper's H(x) = d(x || 1/2)
    gap = (0.5 - xs) ** 2
    if not np.all(h >= 2.0 * gap):
        return "lower entropy bound violated"
    if not np.all(h <= 16.0 * gap):
        return "upper entropy bound violated"
    return None


def _check_objective_codings() -> str | None:
    rng = substream(71, "verify-codings")
    points = []
    for _ in range(2000):
        w_q = rng.uniform(0.001, 0.4)
        w_u = rng.uniform(w_q + 0.05, 0.95)
        t_u = rng.uniform(0.0, 1.0)
        if abs(t_u - w_u) < 0.05:
            continue
        t_q = rng.uniform(0.0, t_u)
        alpha = rng.uniform(0.0, 1.0)
        points.append((t_q, t_u, w_q, w_u, alpha))
    columns = np.asarray(points).T  # each coding evaluated once, elementwise
    a = tradeoff.objective(*columns)
    b = tradeoff.objective_from_divergences(*columns)
    bad = np.flatnonzero(np.abs(a - b) > 1e-12 * np.maximum(1.0, np.maximum(abs(a), abs(b))))
    if bad.size:
        i = bad[0]
        return f"codings disagree by {abs(a[i] - b[i]):.2e} at ({columns[0, i]}, {columns[1, i]})"
    return None


def _check_kl_nonnegative() -> str | None:
    rng = substream(72, "verify-klnn")
    points = []
    for _ in range(10_000):
        w_q = rng.uniform(0.01, 0.45)
        w_u = rng.uniform(w_q + 0.01, 0.99)
        t_u = rng.uniform(0.0, 1.0)
        t_q = rng.uniform(0.0, t_u)
        points.append((t_q, t_u, w_q, w_u))
    columns = np.asarray(points).T
    bad = np.flatnonzero(tradeoff.coupling_kl(*columns) < 0)
    if bad.size:
        i = bad[0]
        return f"negative divergence at ({columns[0, i]}, {columns[1, i]})"
    return None


def _check_below_profile_scan() -> str | None:
    # The exact profile min over t_q of F at 2,001 values of t_u, less t_u = w_u.
    w_q = instances.required_w_q(0.5, 100.0)
    alpha = 1.0 + 1.0 / math.log(w_q)
    got = tradeoff.minimize_objective(w_q, 0.5, alpha).value
    t_u = np.linspace(0.0, 1.0, 2001)
    t_u = t_u[t_u != 0.5]
    t_q = [tradeoff._inner_tq(u, w_q, 0.5, alpha) for u in t_u.tolist()]
    scan = float(tradeoff.objective_from_divergences(np.asarray(t_q), t_u, w_q, 0.5, alpha).min())
    if got > scan * (1.0 + 1e-12):
        return f"infimum {got!r} above the t_u scan's minimum {scan!r}"
    return None


def _check_upper_direction() -> str | None:
    for s in (2.0, 5.0, 20.0, 200.0, 5000.0):
        for rho_u in (0.1, 0.5, 0.9):
            for eps in (0.25, 0.5, 1.0, 1.5):
                exact = tradeoff.upper_exponent(s, rho_u, eps)
                simple = tradeoff.upper_exponent(s, rho_u, eps, simplified=True)
                if exact > simple + 1e-12:
                    return f"exact exponent above simplified at s={s} eps={eps}"
    return None


def _check_bench_determinism() -> str | None:
    config = bench.ExperimentConfig(
        sweep_param="k", sweep_values=(60,), n=40, S=30, ell=2, queries_per_point=5, seed=3
    )
    first = bench.run_sweep(config)
    second = bench.run_sweep(config)
    for a, b in zip(first, second):
        if (a.accuracy, a.mean_ops, a.L) != (b.accuracy, b.mean_ops, b.L):
            return f"reruns disagree: {a} vs {b}"
    return None


SUITES = {
    "distributions": {
        "counter-discipline": _check_counter_discipline,
        "l1-hand-values": _check_l1_values,
        "dataset-roundtrip": _check_dataset_roundtrip,
    },
    "instances": {
        "poisson-mean": _check_poisson_mean,
        "poisson-plus-positive": _check_poisson_plus_positive,
        "reduction-relation": _check_reduction_relation,
        "gapss-query-subset": _check_gapss_subset,
        "hude-promise": _check_hude_promise,
        "sidecar-validation": _check_sidecar_validation,
    },
    "index": {
        "bucket-soundness": _check_bucket_soundness,
        "truth-containment": _check_truth_containment,
        "certify-batch-matches-reference": _check_certify_batch,
        "elimination-monotone": _check_elimination_monotone,
    },
    "tradeoff": {
        "entropy-bounds": _check_entropy_bounds,
        "objective-two-codings": _check_objective_codings,
        "kl-nonnegative": _check_kl_nonnegative,
        "below-profile-scan": _check_below_profile_scan,
        "upper-bound-direction": _check_upper_direction,
    },
    "bench": {
        "sweep-determinism": _check_bench_determinism,
    },
}


def run_suite(suite: str = "all") -> list[tuple[str, bool, str]]:
    """Run the named suite; returns (check name, passed, detail) triples."""
    if suite == "all":
        groups = SUITES.values()
    elif suite in SUITES:
        groups = [SUITES[suite]]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {['all', *SUITES]}")
    results = []
    for group in groups:
        for name, fn in group.items():
            try:
                failure = fn()
            except Exception as exc:  # a crashed check is a failed check
                failure = f"raised {type(exc).__name__}: {exc}"
            results.append((name, failure is None, failure or "ok"))
    return results
