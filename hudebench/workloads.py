"""The three benchmark workloads.

Each workload runs in one single-threaded process as a closed loop with one
caller: the next request is issued only after the previous answer.  A
workload has a ``setup`` (repeated for ``setup_s``; it returns its own time
and any failed checks) and a ``measure`` pass that runs requests until a
deadline, or for exactly ``units`` requests when a traced pass replays an
untraced one.

* ``adaptive-k50k`` -- one ``hude bench`` sweep point (k=50,000, n=500, S=50,
  ell=3, 100 queries): ``run_elimination`` then ``adaptive_L_search``, the way
  ``run_sweep`` composes them; then a fixed L=11,543 index (the default
  seed's final L) serves queries, for latencies at k=50,000 and a peak
  memory that does not depend on the seed's final L.
* ``serve-k10k`` -- ``gen_hude`` plus the instance-file round trip plus a fixed
  L=7,695 index, then a stream of queries, each answered by the subset index
  and by elimination over the full dataset.
* ``tradeoff-curve`` -- ``tradeoff_rows`` with the default curves over the fixed
  5-point geometric grid from 20 to 10,000, one call per curve.  The seed
  does not change this workload.
"""
from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import hude
from hude import bench, elimination, instances, subset_index, tradeoff
from hude.distributions import OpCounter
from hude.rng import stream_key
from hude.subset_index import IndexParams

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

SIZES = {
    "adaptive-k50k": {"k": 50_000, "n": 500, "S": 50, "ell": 3, "queries": 100,
                      "fixed_L": 11_543, "min_queries": 300},
    "serve-k10k": {"k": 10_000, "n": 500, "eps": 0.5, "s": 10.0, "S": 50, "ell": 3,
                   "L": 7_695, "min_queries": 2_000},
    "tradeoff-curve": {"rho_u": 0.5, "eps": 1.0, "s_lo": 20.0, "s_hi": 10_000.0,
                       "points": 5},
}

# setup_s is the median of SETUP_SAMPLES set-ups, or of as many as fit in
# SETUP_BUDGET_S seconds after the measured pass, but at least SETUP_MIN.
SETUP_SAMPLES, SETUP_MIN, SETUP_BUDGET_S = 15, 5, 10.0
MAX_LISTED = 5  # wrong answers listed one by one; the rest are counted


@dataclass
class Pass:
    """One measured pass: request times, completed work, checks and exact counts."""

    request_s: list = field(default_factory=list)  # wall time of each request
    work: float = 0.0  # units of work completed in work_s
    work_s: float = 0.0
    attempted: int = 0
    failed: int = 0  # wrong answers
    problems: list = field(default_factory=list)  # failed correctness checks
    exact: dict = field(default_factory=dict)  # compared with recorded invariants
    report: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    total_s: float = 0.0


def percentile_us(seconds: list, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e6


def full_candidates(k: int):
    """Every dataset index, in the candidate form ``eliminate`` takes: a
    ``CandidateSet`` while that wrapper exists, else a plain index array."""
    candidate_set = getattr(elimination, "CandidateSet", None)
    return candidate_set.full(k) if candidate_set is not None else np.arange(k)


def draw_queries(data, S: int, rng: np.random.Generator, count: int):
    """``count`` (truth, sample) pairs: uniformly chosen truths, S draws each."""
    truths = rng.integers(0, data.k, size=count).tolist()
    return [(t, data.distribution(t).sample(S, rng)) for t in truths]


def serve_queries(p: Pass, index, data, epsilon, queries, deadline, minimum, units):
    """Closed loop: each query through ``query`` and then full ``eliminate``.

    ``queries`` yields (truth, sample) pairs; the loop stops after ``units``
    queries when given, else at the deadline once ``minimum`` are done.
    Returns the per-query times (subset + elimination), the mean ops of both
    algorithms and the exact counts over the first ``minimum`` queries.
    """
    candidates = full_candidates(data.k)
    sub_s, elim_s = [], []
    sub_ops = elim_ops = not_found = sub_wrong = elim_wrong = failed = 0
    first = {}
    for done, (truth, q) in enumerate(queries):
        if done == minimum:
            first = {"subset_ops": sub_ops, "elim_ops": elim_ops,
                     "subset_not_found": not_found, "failed": failed}
        if done == units or (units is None and done >= minimum and time.perf_counter() > deadline):
            break
        counter = OpCounter()
        t0 = time.perf_counter()
        answer = subset_index.query(index, q, epsilon, counter)
        t1 = time.perf_counter()
        elim_counter = OpCounter()
        t2 = time.perf_counter()
        baseline = elimination.eliminate(data, candidates, q, elim_counter)
        t3 = time.perf_counter()
        sub_s.append(t1 - t0)
        elim_s.append(t3 - t2)
        sub_ops += counter.membership_ops
        elim_ops += elim_counter.membership_ops
        not_found += not answer.found
        wrong = answer.found and answer.index != truth
        elim_bad = baseline.outcome != "found" or baseline.index != truth
        sub_wrong += wrong
        elim_wrong += elim_bad
        if wrong or elim_bad:
            failed += 1
            if failed <= MAX_LISTED:
                p.problems.append(
                    f"query {done}: truth {truth}, subset answered {answer.outcome} "
                    f"{answer.index}, elimination answered {baseline.outcome} {baseline.index}"
                )
    p.attempted += done
    p.failed += failed
    if failed > MAX_LISTED:
        p.problems.append(f"{failed} wrong answers in all ({MAX_LISTED} listed)")
    p.report.update({
        "subset_query_p50_us": (percentile_us(sub_s, 50), "us", done),
        "subset_query_p99_us": (percentile_us(sub_s, 99), "us", done),
        "elim_query_p50_us": (percentile_us(elim_s, 50), "us", done),
        "elim_query_p99_us": (percentile_us(elim_s, 99), "us", done),
        "subset_qps": (done / sum(sub_s), "1/s", done),
        "elim_qps": (done / sum(elim_s), "1/s", done),
        "subset_error_rate": ((not_found + sub_wrong) / done, "ratio", done),
        "elim_error_rate": (elim_wrong / done, "ratio", done),
    })
    return [a + b for a, b in zip(sub_s, elim_s)], sub_ops / done, elim_ops / done, first


def query_stream(first, data, S, seed):
    """``first`` queries, then an endless seeded stream from uniformly chosen truths."""
    yield from first
    rng = np.random.default_rng([seed, 7])
    while True:
        yield from draw_queries(data, S, rng, 64)


class Adaptive:
    name = "adaptive-k50k"

    def __init__(self, seed: int, size: dict):
        self.seed, self.size = seed, size
        self.data = self.queries = None

    def setup(self) -> tuple[float, list]:
        z = self.size
        self.data = self.queries = None
        start = time.perf_counter()
        self.data, self.queries = bench.generate_point(
            z["n"], z["k"], z["S"], self.seed, 0, z["queries"]
        )
        return time.perf_counter() - start, []

    def measure(self, deadline, units=None) -> Pass:
        z, p = self.size, Pass()
        start = time.perf_counter()
        config = bench.ExperimentConfig(
            "k", (z["k"],), k=z["k"], n=z["n"], S=z["S"], ell=z["ell"],
            queries_per_point=z["queries"], seed=self.seed,
        )
        e_acc, e_ops, _ = bench.run_elimination(self.data, self.queries)
        search_start = time.perf_counter()
        try:
            final_L, trace, (s_acc, s_ops, _) = bench.adaptive_L_search(
                self.data, self.queries, config, z["ell"], 0
            )
        except bench.AdaptiveSearchError as err:
            p.problems.append(f"adaptive search failed: {err} (trace {err.trace})")
            return p
        end = time.perf_counter()
        p.work, p.work_s = float(sum(L for L, _ in trace)), end - search_start
        p.attempted = 2 * z["queries"]
        p.failed = round((2.0 - e_acc - s_acc) * z["queries"])
        if e_acc != 1.0:
            p.problems.append(f"elimination accuracy {e_acc} != 1.0")
        if s_acc != 1.0:
            p.problems.append(f"subset accuracy {s_acc} != 1.0 at final L={final_L}")
        p.exact = {"final_L": final_L, "subset_mean_ops": s_ops, "elim_mean_ops": e_ops}
        p.report = {
            "sweep_point_s": (end - start, "s", 1),
            "final_L": (final_L, "probes", 1),
            "adaptive_steps": (len(trace), "steps", 1),
            "sweep_subset_mean_ops": (s_ops, "ops", z["queries"]),
            "sweep_elim_mean_ops": (e_ops, "ops", z["queries"]),
            "sweep_subset_error_rate": (1.0 - s_acc, "ratio", z["queries"]),
            "sweep_elim_error_rate": (1.0 - e_acc, "ratio", z["queries"]),
        }
        # Serving phase: a fixed-L index answers the sweep's queries, then fresh ones.
        L = z["fixed_L"]
        index = subset_index.preprocess(
            self.data, IndexParams(L, z["ell"]), stream_key(self.seed, "bench-preprocess", 0, L)
        )
        _, sub_mean, elim_mean, _ = serve_queries(
            p, index, self.data, config.epsilon,
            query_stream(self.queries, self.data, z["S"], self.seed),
            deadline, z["min_queries"], units,
        )
        p.report["subset_mean_ops"] = (sub_mean, "ops", p.attempted - 2 * z["queries"])
        p.report["elim_mean_ops"] = (elim_mean, "ops", p.attempted - 2 * z["queries"])
        p.total_s = time.perf_counter() - start
        return p

    def replay_units(self, p: Pass) -> int:
        return p.attempted - 2 * self.size["queries"]


class Serve:
    name = "serve-k10k"

    def __init__(self, seed: int, size: dict):
        self.seed, self.size = seed, size
        self.instance = self.data = self.index = None
        self.file_bytes = 0

    def setup(self) -> tuple[float, list]:
        z = self.size
        self.instance = self.data = self.index = None
        start = time.perf_counter()
        made = instances.gen_hude(z["n"], z["k"], z["eps"], z["s"], self.seed)
        os.makedirs(OUT_DIR, exist_ok=True)
        folder = tempfile.mkdtemp(prefix="instance-", dir=OUT_DIR)
        try:
            instances.save_instance(made, folder)
            loaded = instances.load_instance(folder)
            self.file_bytes = sum(
                os.path.getsize(os.path.join(folder, f)) for f in os.listdir(folder)
            )
        finally:
            shutil.rmtree(folder)
        self.index = subset_index.preprocess(
            loaded.dataset,
            IndexParams(z["L"], z["ell"]),
            stream_key(self.seed, "bench-preprocess", 0, z["L"]),
        )
        seconds = time.perf_counter() - start
        self.instance, self.data = loaded, loaded.dataset
        same = (
            loaded.dataset == made.dataset
            and np.array_equal(loaded.query.order, made.query.order)
            and (loaded.truth_index, loaded.epsilon, loaded.s, loaded.seed, loaded.attempts)
            == (made.truth_index, made.epsilon, made.s, made.seed, made.attempts)
        )
        return seconds, [] if same else ["loaded instance differs from the generated one"]

    def measure(self, deadline, units=None) -> Pass:
        z, p, inst = self.size, Pass(), self.instance
        start = time.perf_counter()
        first = [(inst.truth_index, inst.query)]
        p.request_s, sub_mean, elim_mean, p.exact = serve_queries(
            p, self.index, inst.dataset, inst.epsilon,
            query_stream(first, inst.dataset, z["S"], self.seed),
            deadline, z["min_queries"], units,
        )
        p.work, p.work_s = float(p.attempted), sum(p.request_s)
        p.report["subset_mean_ops"] = (sub_mean, "ops", p.attempted)
        p.report["elim_mean_ops"] = (elim_mean, "ops", p.attempted)
        p.total_s = time.perf_counter() - start
        return p

    def replay_units(self, p: Pass) -> int:
        return p.attempted


IMPORT_TIMER = """
import time, numpy
t = time.perf_counter()
import hude.tradeoff
print(time.perf_counter() - t)
"""


class Tradeoff:
    name = "tradeoff-curve"

    def __init__(self, seed: int, size: dict):
        self.seed, self.size = seed, size
        self.grid = np.geomspace(size["s_lo"], size["s_hi"], size["points"]).tolist()

    def setup(self) -> tuple[float, list]:
        """Cold import of ``hude.tradeoff`` in a fresh interpreter.

        The child imports numpy first and times only the import of the
        package's own modules, so interpreter and numpy start-up stay out of
        the figure; the child reports its time on stdout.
        """
        src = os.path.dirname(os.path.dirname(os.path.abspath(hude.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        return float(done.stdout), []

    def measure(self, deadline, units=None) -> Pass:
        """Whole curves: each one ``tradeoff_rows`` call over the fixed grid.

        Curves start until the deadline has passed; every curve must give the
        first curve's values.
        """
        z, p = self.size, Pass()
        start = time.perf_counter()
        first = None
        while True:
            done = len(p.request_s)
            if done == units or (units is None and done and time.perf_counter() > deadline):
                break
            t0 = time.perf_counter()
            rows = tradeoff.tradeoff_rows(z["rho_u"], self.grid, epsilon=z["eps"])
            p.request_s.append(time.perf_counter() - t0)
            rho = {(row.curve, row.s): row.rho_q for row in rows}
            broken = []
            for s in self.grid:
                lower = rho["analytic-lower", s]
                mid = rho["numeric-lop", s]
                upper = rho["upper-half-uniform", s]
                if not (lower <= mid + 0.02 and mid <= upper + 0.02):
                    broken.append(f"curve ordering broken at s={s!r}: analytic-lower "
                                  f"{lower}, numeric-lop {mid}, upper-half-uniform {upper}")
            if first is None:
                first = rho
            elif rho != first:
                broken.append(f"curve {done} differs from the first curve")
            if broken:
                p.failed += 1
                p.problems += broken
        p.exact = {"numeric_lop_rho_q": [first["numeric-lop", s] for s in self.grid]}
        p.attempted = len(p.request_s)
        p.work, p.work_s = float(p.attempted * len(self.grid)), sum(p.request_s)
        p.report = {"curve_s": (statistics.median(p.request_s), "s", p.attempted)}
        p.total_s = time.perf_counter() - start
        return p

    def replay_units(self, p: Pass) -> int:
        return p.attempted

WORKLOADS = {cls.name: cls for cls in (Adaptive, Serve, Tradeoff)}
