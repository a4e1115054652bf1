"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion; each test also prints an ``ACCEPTANCE <id> PASS`` line with the
measured numbers (visible under ``-s`` or in failure reports).
"""

import math
import os
import subprocess
import sys

import numpy as np
import scipy.stats

from hude.bench import ExperimentConfig, generate_point, run_elimination, run_sweep
from hude.distributions import random_fixed_size_supports
from hude.instances import gen_gapss, reduce_gapss_to_urde, required_w_q
from hude.rng import substream
from hude.subset_index import IndexParams, preprocess, sample_probes
from hude.tradeoff import (
    kl_binary,
    minimize_objective,
    objective,
    objective_from_divergences,
    tradeoff_rows,
)

LOG2 = math.log(2.0)


def test_criterion_01_subset_ops_at_desk_defaults():
    """Adaptive-probe subset search: 100/100 accuracy and <30000 mean ops
    per query at k=10000, n=500, S=50, ell=3, across 3 seeds."""
    worst_ops = 0.0
    for seed in (1, 2, 3):
        config = ExperimentConfig(
            sweep_param="k", sweep_values=(10_000,), n=500, S=50, ell=3,
            queries_per_point=100, seed=seed,
        )
        rows = run_sweep(config)
        subset = next(r for r in rows if r.algorithm == "subset")
        assert subset.accuracy == 1.0, f"seed {seed}: accuracy {subset.accuracy}"
        assert subset.mean_ops < 30_000, f"seed {seed}: {subset.mean_ops} ops"
        worst_ops = max(worst_ops, subset.mean_ops)
    print(f"ACCEPTANCE 01 PASS - subset 100/100 at k=1e4, worst mean ops {worst_ops:.0f} < 30000")


def test_criterion_02_subset_beats_elimination_by_2x():
    """At k=20000 the subset index needs at most half of elimination's ops."""
    config = ExperimentConfig(
        sweep_param="k", sweep_values=(20_000,), n=500, S=50, ell=3,
        queries_per_point=100, seed=1,
    )
    rows = run_sweep(config)
    subset = next(r for r in rows if r.algorithm == "subset")
    elimination = next(r for r in rows if r.algorithm == "elimination")
    assert subset.accuracy == 1.0
    ratio = subset.mean_ops / elimination.mean_ops
    assert ratio <= 0.5, f"subset/elimination ops ratio {ratio:.3f}"
    print(
        f"ACCEPTANCE 02 PASS - subset {subset.mean_ops:.0f} vs elimination "
        f"{elimination.mean_ops:.0f} ops (ratio {ratio:.3f} <= 0.5)"
    )


def test_criterion_03_elimination_always_accurate():
    """Elimination gets 100/100 on every S=50 sweep point with k <= 50000."""
    points = [(5_000, 500), (20_000, 500), (50_000, 500), (10_000, 250), (10_000, 1_000)]
    for seed in (1, 2, 3):
        for k, n in points:
            data, queries = generate_point(n, k, 50, seed=seed, point_id=0, num_queries=100)
            accuracy, _, _ = run_elimination(data, queries)
            assert accuracy == 1.0, f"seed {seed}, k={k}, n={n}: accuracy {accuracy}"
    print("ACCEPTANCE 03 PASS - elimination 100/100 at 5 sweep points x 3 seeds")


def test_criterion_04_bucket_size_law():
    """Mean bucket size over L=2000 probes within 15% of the exact
    hypergeometric product k * prod (n/2 - i)/(n - i), for ell in {2,3,4}."""
    k, n, L = 10_000, 500, 2_000
    data = random_fixed_size_supports(k, n, n // 2, substream(4, "bucket-law"))
    report = []
    for ell in (2, 3, 4):
        expected = k * math.prod((n / 2 - i) / (n - i) for i in range(ell))
        index = preprocess(data, IndexParams(L, ell), seed=40 + ell)
        mean = float(np.mean([bucket.size for bucket in index.buckets]))
        assert abs(mean - expected) <= 0.15 * expected, (
            f"ell={ell}: mean {mean:.1f} vs expected {expected:.1f}"
        )
        report.append(f"ell={ell}: {mean:.0f}/{expected:.0f}")
    print(f"ACCEPTANCE 04 PASS - bucket sizes within 15% ({'; '.join(report)})")


def test_criterion_05_probe_hit_probability():
    """Monte Carlo P[probe inside sample set] within 3 standard errors of
    prod (|Q| - j)/(n - j), conditioned on the realized |Q|, 1e5 trials."""
    n, S, ell, trials = 500, 50, 3, 100_000
    data, queries = generate_point(n, 50, S, seed=5, point_id=0, num_queries=1)
    _, sample = queries[0]
    m = sample.distinct.cardinality
    p = math.prod((m - j) / (n - j) for j in range(ell))
    probes = sample_probes(55, trials, ell, n)
    estimate = float(sample.distinct.bits[probes].all(axis=1).mean())
    stderr = math.sqrt(p * (1.0 - p) / trials)
    assert abs(estimate - p) <= 3.0 * stderr, f"{estimate} vs {p} (3se={3*stderr:.2e})"
    print(
        f"ACCEPTANCE 05 PASS - probe-hit estimate {estimate:.2e} vs product "
        f"{p:.2e} (|Q|={m}, 3se={3*stderr:.2e})"
    )


def test_criterion_06_poissonization_equivalence():
    """Per-element counts of reduced queries fit Poisson(1/(s*w_u)): at
    n=200, w_u=1/2, s=10, 5000 trials, the chi-square p-value exceeds 0.01
    in at least 2 of 3 seeded runs."""
    n, w_u, s, trials = 200, 0.5, 10.0, 5_000
    lam = 1.0 / (s * w_u)
    w_q = required_w_q(w_u, s)
    p_values = []
    for run in range(3):
        counts = np.zeros(4, dtype=np.int64)  # bins: 0, 1, 2, >=3
        total = 0
        for trial in range(trials):
            seed = run * 1_000_000 + trial
            g = gen_gapss(n, 4, w_u, w_q, seed=seed)
            reduced = reduce_gapss_to_urde(g, s, seed=seed + 500_000)
            support = np.flatnonzero(g.dataset.matrix[g.truth_index])
            per_element = np.zeros(n, dtype=np.int64)
            for element, count in dict(reduced.query.pairs()).items():
                per_element[element] = count
            observed = per_element[support]
            binned = np.minimum(observed, 3)
            counts += np.bincount(binned, minlength=4)
            total += observed.size
        pmf = np.array([
            math.exp(-lam),
            lam * math.exp(-lam),
            lam**2 / 2.0 * math.exp(-lam),
            0.0,
        ])
        pmf[3] = 1.0 - pmf[:3].sum()
        result = scipy.stats.chisquare(counts, f_exp=pmf * total)
        p_values.append(float(result.pvalue))
    passing = sum(p > 0.01 for p in p_values)
    assert passing >= 2, f"p-values {p_values}"
    print(f"ACCEPTANCE 06 PASS - chi-square p-values {[f'{p:.3f}' for p in p_values]}")


def test_criterion_07_entropy_bounds():
    """2(1/2-x)^2 <= H(x) <= 16(1/2-x)^2 on a 1e4-point grid, exactly."""
    xs = np.linspace(0.0, 1.0, 10_002)[1:-1]
    h = kl_binary(xs, 0.5)  # H(x) = d(x || 1/2)
    gap = (0.5 - xs) ** 2
    assert np.all(h >= 2.0 * gap)
    assert np.all(h <= 16.0 * gap)
    print("ACCEPTANCE 07 PASS - entropy bounds hold on all 10000 grid points")


def test_criterion_08_lower_bound_consistency():
    """The numeric infimum clears the closed-form inequality at three query
    densities, and the emitted curves order as
    analytic-lower <= numeric-lop <= upper-half-uniform within 0.02."""
    for w_q in (1e-3, 1e-4, 1e-5):
        alpha = 1.0 + 1.0 / math.log(w_q)
        result = minimize_objective(w_q, 0.5, alpha)
        floor = alpha - w_q ** (1.0 - LOG2 - 0.1)
        assert result.value >= floor, f"w_q={w_q}: {result.value} < {floor}"

    s_grid = np.geomspace(20.0, 10_000.0, 9)
    rows = tradeoff_rows(
        0.5, s_grid, curves=("numeric-lop", "analytic-lower", "upper-half-uniform")
    )
    by_curve = {}
    for row in rows:
        by_curve.setdefault(row.curve, {})[row.s] = row.rho_q
    margins = []
    for s in s_grid:
        lower = by_curve["analytic-lower"][s]
        numeric = by_curve["numeric-lop"][s]
        upper = by_curve["upper-half-uniform"][s]
        assert lower <= numeric + 0.02, f"s={s}: analytic {lower} > numeric {numeric} + 0.02"
        assert numeric <= upper + 0.02, f"s={s}: numeric {numeric} > upper {upper} + 0.02"
        margins.append(min(numeric + 0.02 - lower, upper + 0.02 - numeric))
    print(
        f"ACCEPTANCE 08 PASS - infimum inequalities hold; curve ordering holds on "
        f"{len(s_grid)} grid points (tightest margin {min(margins):.3f})"
    )


def test_criterion_09_two_coding_agreement():
    """The solver's chain-rule coding of the objective and its definitional
    coding agree to 1e-12 on 1e4 random feasible points."""
    rng = np.random.default_rng(9)
    points = []
    while len(points) < 10_000:
        w_q = float(rng.uniform(0.001, 0.4))
        w_u = float(rng.uniform(w_q + 0.05, 0.95))
        t_u = float(rng.uniform(0.0, 1.0))
        if abs(t_u - w_u) < 0.05:
            continue
        t_q = float(rng.uniform(0.0, t_u))
        alpha = float(rng.uniform(0.0, 1.0))
        points.append((t_q, t_u, w_q, w_u, alpha))
    # Each coding evaluated once over all points, elementwise.
    columns = np.asarray(points).T
    a = objective(*columns)
    b = objective_from_divergences(*columns)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    print("ACCEPTANCE 09 PASS - chain-rule and definitional codings agree to 1e-12 on 10000 points")


def test_criterion_10_determinism_across_thread_counts(tmp_path, src_path):
    """Identical (config, seed) produce byte-identical instance files and
    identical op counts across runs at different thread counts."""
    outputs = []
    for tag, threads in (("one", "1"), ("four", "4")):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_path)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        inst_dir = tmp_path / f"inst-{tag}"
        gen = subprocess.run(
            [sys.executable, "-m", "hude.cli", "gen", "--problem", "hude",
             "--n", "200", "--k", "500", "--s", "5", "--eps", "0.5",
             "--seed", "11", "--out", str(inst_dir)],
            env=env, capture_output=True, text=True,
        )
        assert gen.returncode == 0, gen.stderr
        csv_path = tmp_path / f"rows-{tag}.csv"
        ben = subprocess.run(
            [sys.executable, "-m", "hude.cli", "bench", "--sweep", "k",
             "--values", "200,400", "--seed", "11", "--queries", "10",
             "--out", str(csv_path)],
            env=env, capture_output=True, text=True,
        )
        assert ben.returncode == 0, ben.stderr
        rows = []
        for line in csv_path.read_text().splitlines():
            if line.startswith("#") or line.startswith("algorithm"):
                continue
            fields = line.split(",")
            del fields[8]  # wall time is the only nondeterministic column
            rows.append(",".join(fields))
        outputs.append(
            (
                (inst_dir / "dataset.txt").read_bytes(),
                (inst_dir / "instance.json").read_bytes(),
                rows,
            )
        )
    assert outputs[0][0] == outputs[1][0], "dataset bytes differ across thread counts"
    assert outputs[0][1] == outputs[1][1], "sidecar bytes differ across thread counts"
    assert outputs[0][2] == outputs[1][2], "op counts differ across thread counts"
    print("ACCEPTANCE 10 PASS - byte-identical files and op counts at 1 vs 4 threads")
