"""Benchmark for the hude library: one workload per process, metrics as JSON.

    python3 hudebench/run.py --workload serve-k10k [--seed 1] [--seconds 25] [--trace 0]

Workloads: adaptive-k50k, serve-k10k, tradeoff-curve (see workloads.py).  The
program is imported from ``src/`` next to this directory, never from an
installed copy, and the run exits with code 2 when it is missing.

``--trace 0`` prints a table of the workload's named metrics with unit and
sample count, then, as the last line, a JSON object whose ``metrics`` are the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` first repeats the
untraced pass, then replays the same requests with every layer wrapped (see
tracing.py); its JSON carries the per-layer metrics, its table the per-layer
self times and the tracing overhead, and the spans go to
``hudebench/out/spans-<workload>-seed<seed>.jsonl``.

Every run checks the outputs; at a seed recorded in ``invariants.json`` (or
at every seed, under ``"any"``) it also checks the exact op counts and values
recorded there.  A failed check prints ``"correct": false`` and exits with
code 1.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program() -> None:
    """Put ``src`` first on the path and check that ``hude`` comes from there."""
    sys.path.insert(0, SRC)
    import hude

    if os.path.dirname(os.path.dirname(os.path.abspath(hude.__file__))) != SRC:
        raise ImportError(f"hude was imported from {hude.__file__}, not from {SRC}")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def gate(exact: dict, recorded: dict | None) -> list:
    """Mismatches between this run's exact values and the recorded ones."""
    if recorded is None:
        return []
    problems = []
    for key, want in recorded.items():
        got = exact.get(key)
        if isinstance(want, list):
            same = (isinstance(got, list) and len(got) == len(want)
                    and all(math.isclose(a, b, rel_tol=0.0, abs_tol=1e-8)
                            for a, b in zip(got, want)))
        else:
            same = got == want
        if not same:
            problems.append(f"recorded invariant {key}: expected {want!r}, got {got!r}")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(setup_s: list, p, peak: float) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": p.work / p.work_s,
        "peak_rss_mb": peak,
    }


def per_layer(workload, untraced, traced, tracer) -> dict:
    """Per-layer metrics: span and hook figures from the traced replay, named
    workload metrics from the untraced pass, and the tracing overhead."""
    c = tracer.counts
    mean = lambda total, n: total / n if n else 0.0
    total = lambda name, under=None: sum(tracer.durations(name, under))
    preprocess = tracer.durations("subset_index.preprocess")
    searched = tracer.durations("subset_index.preprocess", under="bench.adaptive_L_search")
    index = tracer.last_index
    data = getattr(workload, "data", None)
    bucket_sizes = [len(b) for b in index.buckets] if index is not None else []
    ell = index.probes.shape[1] if index is not None else 0
    predicted_bucket = (
        data.k * math.prod((data.n / 2 - i) / (data.n - i) for i in range(ell))
        if index is not None else 0.0
    )
    lower_bound = tracer.durations("tradeoff.query_exponent_lower_bound")
    report = untraced.report
    named = lambda key: float(report[key][0]) if key in report else 0.0
    from tracing import array_bytes

    m = {
        "instances.gen_s": total("instances.gen_hude"),
        "instances.save_s": total("instances.save_instance"),
        "instances.load_s": total("instances.load_instance"),
        "instances.file_bytes": float(getattr(workload, "file_bytes", 0)),
        "distributions.dataset_bytes": float(array_bytes(data)) if data is not None else 0.0,
        "distributions.generate_s": total("distributions.random_fixed_size_supports"),
        "subset_index.preprocess_s": sum(preprocess),
        "subset_index.preprocess_calls": float(len(preprocess)),
        "subset_index.preprocess_s_final": searched[-1] if searched else
        (preprocess[-1] if preprocess else 0.0),
        "subset_index.sample_probes_s": total("subset_index.sample_probes"),
        "subset_index.gather_bytes_computed": c["gather_bytes"],
        "subset_index.bucket_bytes": float(sum(b.nbytes for b in index.buckets)) if index else 0.0,
        "subset_index.bucket_size_mean": statistics.fmean(bucket_sizes) if bucket_sizes else 0.0,
        "subset_index.bucket_size_predicted": predicted_bucket,
        "subset_index.probe_hit_rate": mean(c["hit_rate_sum"], c["queries"]),
        "subset_index.probe_hit_rate_predicted": mean(c["hit_pred_sum"], c["queries"]),
        "subset_index.scan_s": total("subset_index.query")
        - sum(tracer.durations("elimination.eliminate", under="subset_index.query")),
        "subset_index.scan_ops": c["scan_ops"],
        "subset_index.resolve_s": sum(tracer.durations("elimination.eliminate",
                                                       under="subset_index.query")),
        "subset_index.resolve_ops": c["resolve_ops"],
        "subset_index.split_checked": c["split_checked"],
        "subset_index.buckets_tried_mean": mean(c["resolve_calls"], c["queries"]),
        "subset_index.resolved_bucket_size_mean": mean(c["resolve_size_sum"], c["resolve_calls"]),
        "subset_index.useful_resolve_ratio": mean(c["resolve_found"], c["resolve_calls"]),
        "subset_index.query_p50_us": named("subset_query_p50_us"),
        "subset_index.query_p99_us": named("subset_query_p99_us"),
        "subset_index.qps": named("subset_qps"),
        "subset_index.mean_ops": named("subset_mean_ops"),
        "subset_index.error_rate": named("subset_error_rate"),
        "elimination.eliminate_s": total("elimination.eliminate"),
        "elimination.calls": c["elim_calls"],
        "elimination.candidates_in_mean": mean(c["elim_candidates"], c["elim_calls"]),
        "elimination.ops": c["elim_ops"],
        "elimination.query_p50_us": named("elim_query_p50_us"),
        "elimination.query_p99_us": named("elim_query_p99_us"),
        "elimination.qps": named("elim_qps"),
        "elimination.mean_ops": named("elim_mean_ops"),
        "elimination.error_rate": named("elim_error_rate"),
        "bench.sweep_point_s": named("sweep_point_s"),
        "bench.final_L": named("final_L"),
        "bench.adaptive_steps": named("adaptive_steps"),
        "bench.rebuild_share": mean(sum(searched[:-1]), sum(searched)),
        "tradeoff.curve_s": named("curve_s"),
        "tradeoff.lower_bound_s": mean(sum(lower_bound), len(lower_bound)),
        "tradeoff.minimize_objective_s": total("tradeoff.minimize_objective"),
        "tradeoff.kl_binary_calls": c["kl_calls"],
        "tradeoff.kl_binary_elems": c["kl_elems"],
    }
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = float(len(tracer.spans))
    m["trace.overhead_s"] = traced.total_s - untraced.total_s
    m["trace.overhead_share"] = mean(traced.total_s - untraced.total_s, untraced.total_s)
    return m


def run(name: str, seed: int, seconds: float, trace: bool, size=None, recorded=None) -> dict:
    """Run one workload; returns the result object printed as the last line,
    plus ``table`` (rows for the human-readable report) and ``problems``."""
    from tracing import Tracer
    from workloads import OUT_DIR, SETUP_BUDGET_S, SETUP_MIN, SETUP_SAMPLES, SIZES, WORKLOADS

    workload = WORKLOADS[name](seed, size or SIZES[name])
    problems, setup_s = [], []

    def set_up():
        took, failed_checks = workload.setup()
        problems.extend(failed_checks)
        setup_s.append(took)

    set_up()
    untraced = workload.measure(time.perf_counter() + seconds)
    problems += untraced.problems + gate(untraced.exact, recorded)
    if not untraced.work:
        return {"correct": False, "attempted": max(untraced.attempted, 1),
                "failed": untraced.failed, "metrics": {}, "table": [], "problems": problems,
                "exact": untraced.exact}
    # The peak of one set-up and the measured pass, as a user's process would
    # see it; the extra set-ups that time setup_s come after it.
    peak = peak_rss_mb()
    table = [(key, value, unit, n) for key, (value, unit, n) in untraced.report.items()]
    units = declared_units(trace)
    if not trace:
        budget_end = time.perf_counter() + SETUP_BUDGET_S
        while len(setup_s) < SETUP_MIN or (
            len(setup_s) < SETUP_SAMPLES and time.perf_counter() < budget_end
        ):
            set_up()
        values = end_to_end(setup_s, untraced, peak)
        samples = {"setup_s": len(setup_s), "throughput_per_s": int(untraced.work),
                   "peak_rss_mb": 1}
        table += [(key, value, units[key], samples[key]) for key, value in values.items()]
    else:
        with Tracer() as tracer:
            problems += workload.setup()[1]
            traced = workload.measure(None, units=workload.replay_units(untraced))
        problems += traced.problems + tracer.split_errors
        values = per_layer(workload, untraced, traced, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans)
        table = [(key, value, units[key], "") for key, value in values.items()]
        table.append(("spans", spans, "", len(tracer.spans)))
    if set(values) != set(units):
        problems.append(f"metrics emitted {sorted(set(values) ^ set(units))} "
                        "do not match BENCHMARK.json")
    return {
        "correct": not problems and not untraced.failed,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in values},
        "table": table,
        "problems": problems,
        "exact": untraced.exact,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("adaptive-k50k", "serve-k10k", "tradeoff-curve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as err:
        print(f"hudebench: cannot import the program: {err}", file=sys.stderr)
        return 2
    invariants = load_json(os.path.join(HERE, "invariants.json"))
    by_seed = invariants.get(args.workload, {})
    recorded = by_seed.get(str(args.seed), by_seed.get("any"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), recorded=recorded)
    print(f"# hudebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for key, value, unit, n in result.pop("table"):
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{key:<40} {shown:>14} {unit:<6} n={n}")
    print(f"# exact: {json.dumps(result.pop('exact'))}")
    for problem in result.pop("problems"):
        print(f"hudebench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
