"""Outside-in tracing for the traced benchmark run.

The tracer replaces public functions of the ``hude`` modules with wrappers,
under the names their callers look them up by (``hude.bench.preprocess`` is
the name ``_run_subset_once`` calls, ``hude.subset_index.eliminate`` the one
``query`` calls).  Each wrapper records a span (name, start, end, parent,
request id) in memory; spans are written out when the run ends.  Nothing
inside the package changes, so the untraced run measures the program as
shipped.

The query wrapper also splits each subset query's metered operations into
probe-scan and bucket-resolution parts.  Resolution ops are read from the
``OpCounter`` before and after each ``eliminate`` call made by ``query``;
scan ops are recomputed independently from the public ``SubsetIndex.probes``
and ``.buckets`` and the query's distinct set.  The two must sum exactly to
the query's ``membership_ops``.
"""
from __future__ import annotations

import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np

from hude import bench, distributions, elimination, instances, subset_index, tradeoff

LAYERS = ("instances", "distributions", "subset_index", "elimination", "bench", "tradeoff")


def array_bytes(obj) -> int:
    """Bytes of every numpy array an object holds directly or in a list attribute."""
    names = list(getattr(obj, "__dict__", {})) + list(getattr(type(obj), "__slots__", ()))
    total = 0
    for name in names:
        value = getattr(obj, name, None)
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


def _length(candidates) -> int:
    """Candidate count for any candidate container ``eliminate`` accepts."""
    return len(getattr(candidates, "alive", candidates))


def scan_cost(index, q) -> tuple[np.ndarray, np.ndarray]:
    """(hit mask, cumulative ops) of the in-order short-circuit probe scan.

    Probe elements are tested left to right and a probe's test stops at its
    first element outside the query's distinct set, so a probe costs the
    position of its first miss plus one, or ell tests when it is a hit.
    """
    member = q.distinct.bits[index.probes]
    ell = member.shape[1]
    if ell == 0:
        return np.ones(member.shape[0], dtype=bool), np.zeros(member.shape[0], dtype=np.int64)
    hits = member.all(axis=1)
    per_probe = np.where(hits, ell, member.argmin(axis=1) + 1)
    return hits, np.cumsum(per_probe)


class Tracer:
    """Installs span-recording wrappers; ``with Tracer() as t:`` traces a block."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._requests = 0
        self._installed: list[tuple] = []
        self._resolve: dict | None = None  # accumulator of the subset query in flight
        self._index: tuple | None = None  # (index, bucket sizes) of the last index seen
        self.counts: dict[str, float] = defaultdict(float)
        self.split_errors: list[str] = []
        self.last_index = None

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        span = self._span
        for module in (instances, bench):
            span(module, "random_fixed_size_supports", "distributions.random_fixed_size_supports")
        span(instances, "gen_hude", "instances.gen_hude")
        span(instances, "save_instance", "instances.save_instance")
        span(instances, "load_instance", "instances.load_instance")
        span(distributions, "save_dataset", "distributions.save_dataset")
        span(distributions, "load_dataset", "distributions.load_dataset")
        span(bench, "generate_point", "bench.generate_point")
        span(bench, "run_elimination", "bench.run_elimination")
        span(bench, "adaptive_L_search", "bench.adaptive_L_search")
        span(subset_index, "sample_probes", "subset_index.sample_probes")
        for module in (bench, subset_index):
            span(module, "preprocess", "subset_index.preprocess", around=self._around_preprocess)
            span(module, "query", "subset_index.query", request=True, around=self._around_query)
        for module in (bench, elimination):
            span(module, "eliminate", "elimination.eliminate", request=True,
                 around=self._around_eliminate)
        span(subset_index, "eliminate", "elimination.eliminate", around=self._around_resolve)
        span(tradeoff, "tradeoff_rows", "tradeoff.tradeoff_rows", request=True)
        span(tradeoff, "query_exponent_lower_bound", "tradeoff.query_exponent_lower_bound")
        span(tradeoff, "minimize_objective", "tradeoff.minimize_objective")
        self._count_kl_binary()
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    def _span(self, module, attr, name, request=False, around=None):
        """Wrap ``module.attr`` so every call records a span named ``name``.

        ``around(bound_args)`` runs before the call and returns a callback that
        receives the result once the span is closed.  A ``request`` span that
        is not inside another request starts a new request id.
        """
        original = getattr(module, attr)
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            finish = around(signature.bind(*args, **kwargs)) if around else None
            outer = request and tracer._request is None
            if outer:
                tracer._requests += 1
                tracer._request = tracer._requests
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer._request)
                if outer:
                    tracer._request = None
            if finish:
                finish(result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def _count_kl_binary(self) -> None:
        # The solver's kernel: counted, not spanned, since it runs ~10^4 times a point.
        original = tradeoff.kl_binary
        counts = self.counts

        def wrapper(p, q):
            counts["kl_calls"] += 1
            counts["kl_elems"] += np.broadcast(np.asarray(p), np.asarray(q)).size
            return original(p, q)

        tradeoff.kl_binary = wrapper
        self._installed.append((tradeoff, "kl_binary", original))

    # -- hooks ----------------------------------------------------------------

    def _around_preprocess(self, bound):
        params, data = bound.arguments["params"], bound.arguments["data"]
        self.counts["gather_bytes"] += params.num_probes * params.probe_size * data.k
        self._index = self.last_index = None  # let the previous index be freed

        def finish(index):
            self.last_index = index

        return finish

    def _bucket_sizes(self, index) -> np.ndarray:
        if self._index is None or self._index[0] is not index:
            self._index = (index, np.fromiter((len(b) for b in index.buckets), dtype=np.int64))
        return self._index[1]

    def _around_eliminate(self, bound):
        counter = bound.arguments["counter"]
        before = counter.membership_ops
        self.counts["elim_calls"] += 1
        self.counts["elim_candidates"] += _length(bound.arguments["candidates"])

        def finish(result):
            self.counts["elim_ops"] += counter.membership_ops - before

        return finish

    def _around_resolve(self, bound):
        counter = bound.arguments["counter"]
        before = counter.membership_ops
        size = _length(bound.arguments["candidates"])
        finish_elim = self._around_eliminate(bound)

        def finish(result):
            finish_elim(result)
            if self._resolve is not None:
                self._resolve["ops"] += counter.membership_ops - before
                self._resolve["sizes"].append(size)
                self._resolve["found"] += result.outcome == "found"

        return finish

    def _around_query(self, bound):
        counter = bound.arguments["counter"]
        before = counter.membership_ops
        resolve = {"ops": 0, "sizes": [], "found": 0}
        self._resolve = resolve

        def finish(result):
            self._resolve = None
            self._check_split(bound, result, counter.membership_ops - before, resolve)

        return finish

    def _check_split(self, bound, result, total_ops, resolve) -> None:
        index, q = bound.arguments["index"], bound.arguments["q"]
        variant = bound.arguments.get("variant") or index.params.variant
        c = self.counts
        c["queries"] += 1
        hits, cumulative = scan_cost(index, q)
        sizes = self._bucket_sizes(index)
        c["hit_rate_sum"] += float(hits.mean())
        distinct = q.distinct.cardinality
        ell, n = index.probes.shape[1], q.distinct.n
        c["hit_pred_sum"] += math.prod((distinct - j) / (n - j) for j in range(ell))
        tried = len(resolve["sizes"])
        c["resolve_ops"] += resolve["ops"]
        c["resolve_calls"] += tried
        c["resolve_size_sum"] += sum(resolve["sizes"])
        c["resolve_found"] += resolve["found"]
        if variant != subset_index.VARIANT_BUCKET_ELIMINATE:
            return  # certify resolution is not an eliminate call; no split to check
        positions = np.flatnonzero(hits & (sizes > 0))
        if result.found and 0 < tried <= positions.size:
            scanned = int(cumulative[positions[tried - 1]])
        else:
            scanned = int(cumulative[-1]) if cumulative.size else 0
        c["scan_ops"] += scanned
        c["split_checked"] += 1
        expected_sizes = sizes[positions[:tried]].tolist()
        if scanned + resolve["ops"] != total_ops or expected_sizes != resolve["sizes"]:
            self.split_errors.append(
                f"query {int(c['queries'])}: scan {scanned} + resolve {resolve['ops']} "
                f"!= membership_ops {total_ops} (buckets {resolve['sizes']} vs {expected_sizes})"
            )

    # -- reduction ------------------------------------------------------------

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations (s) of spans called ``name``, optionally only below an ``under`` span."""
        out = []
        for span in self.spans:
            if span[0] == name and (under is None or self._has_ancestor(span, under)):
                out.append((span[2] - span[1]) / 1e9)
        return out

    def _has_ancestor(self, span, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_times(self) -> dict[str, float]:
        """Per-layer self time (s): span durations minus their direct children's."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            totals[name.split(".")[0]] += (end - start - inner) / 1e9
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name","start_ns","end_ns","parent","request"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
