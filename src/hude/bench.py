"""Benchmark harness: parameter sweeps, adaptive probe-count search, accounting.

Reproduces the identification experiments: random half-uniform datasets,
100 queries per configuration (each drawn from a uniformly chosen input
distribution), the elimination baseline over the full dataset, and the
probe-subset index with its probe count grown geometrically from a modest
start until it answers every query correctly.  Wall time is measured around
the query call only; preprocessing is never billed.  Sweep rows are
:class:`ResultRow` records, written as CSV by :func:`hude.distributions.write_rows`.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .distributions import (
    Dataset,
    OpCounter,
    QueryMultiset,
    check_dataset_size,
    random_fixed_size_supports,
)
from .elimination import eliminate
from .rng import stream_key, substream
from .subset_index import (
    MAX_INDEX_BYTES,
    MAX_PROBES,
    VARIANT_BUCKET_ELIMINATE,
    VARIANT_UJ_CERTIFY,
    VARIANTS,
    IndexParams,
    check_index_size,
    preprocess,
    query,
)

SWEEP_PARAMS = ("k", "n", "S", "ell")
MAX_QUERIES = 100_000  # per point; about 0.5 GB and 8 s of generation at n=500, S=50
MAX_DRAWS = 10_000_000  # samples per point, S * queries_per_point: 80 MB of sample streams


def _json_type_ok(value, annotation: str) -> bool:
    """Whether a decoded JSON value fits a config field's annotation."""
    if annotation == "tuple":
        return isinstance(value, list | tuple) and all(_json_type_ok(v, "float") for v in value)
    if annotation == "int | None":
        return value is None or _json_type_ok(value, "int")
    want = {"str": str, "int": int, "float": int | float}[annotation]
    return isinstance(value, want) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    sweep_param: str
    sweep_values: tuple = ()
    k: int = 50000
    n: int = 500
    S: int = 50
    ell: int = 3
    queries_per_point: int = 100
    L_init: int = 200
    L_factor: float = 1.5
    L_cap: int | None = None  # None: MAX_PROBES, or fewer if their masks pass MAX_INDEX_BYTES
    seed: int = 0
    variant: str = VARIANT_BUCKET_ELIMINATE
    epsilon: float = 1.0  # certify-variant budget only; the data is promise-free
    c_query: float = 4.0
    scale: float = 1.0  # multiplies k; 0.2 is the desk-scale preset

    def __post_init__(self) -> None:
        if self.sweep_param not in SWEEP_PARAMS:
            raise ValueError(f"sweep parameter must be one of {SWEEP_PARAMS}")
        if not self.sweep_values:
            raise ValueError("sweep needs at least one value")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS} (got {self.variant!r})")
        if min(self.k, self.n, self.S, self.ell, self.queries_per_point, self.L_init) <= 0:
            raise ValueError("all dimensions must be positive")
        even = self.sweep_param == "n"  # half-uniform supports need an even domain
        for value in self.sweep_values:
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral and value > 0 and not (even and value % 2)):
                rule = "a positive even integer" if even else "a positive integer"
                raise ValueError(f"sweep value {value!r} for {self.sweep_param} must be {rule}")
        if not even and self.n % 2 != 0:
            raise ValueError(f"domain size n must be even for half-uniform supports (got {self.n})")
        if self.queries_per_point > MAX_QUERIES:
            raise ValueError(
                f"queries_per_point must be at most {MAX_QUERIES:,} (got {self.queries_per_point:,})"
            )
        if not (math.isfinite(self.L_factor) and self.L_factor > 1):
            raise ValueError(f"L_factor must exceed 1 (got {self.L_factor!r}) and be finite")
        for name in ("epsilon", "c_query", "scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive (got {value!r})")
        widest = 0
        for value in self.sweep_values:  # every point's dataset and samples, before any is drawn
            try:
                k, n, S, _ = self.resolved_point(value)
            except OverflowError:
                raise ValueError(f"k * scale overflows at sweep value {value!r}") from None
            check_dataset_size(k, n)
            draws = S * self.queries_per_point
            if draws > MAX_DRAWS:
                raise ValueError(
                    f"S={S:,} samples for each of {self.queries_per_point:,} queries is {draws:,} "
                    f"draws; the most allowed is {MAX_DRAWS:,}"
                )
            widest = max(widest, k)
        if self.L_cap is None:
            cap = min(MAX_PROBES, MAX_INDEX_BYTES // -(-widest // 8))
            object.__setattr__(self, "L_cap", cap)
        if self.L_cap > MAX_PROBES:
            raise ValueError(f"L_cap must be at most {MAX_PROBES:,} (got {self.L_cap:,})")
        check_index_size(self.L_cap, widest, "L_cap")
        if self.L_init > self.L_cap:
            raise ValueError(f"L_init {self.L_init:,} exceeds L_cap {self.L_cap:,}")

    def resolved_point(self, value) -> tuple[int, int, int, int]:
        """(k, n, S, ell) for one sweep value, with the desk-scale factor applied to k."""
        point = {"k": self.k, "n": self.n, "S": self.S, "ell": self.ell}
        point[self.sweep_param] = int(value)
        return max(1, round(point["k"] * self.scale)), point["n"], point["S"], point["ell"]

    @classmethod
    def from_json(cls, payload, overrides: dict | None = None) -> "ExperimentConfig":
        """Config from a decoded JSON object, with ``overrides`` taking precedence.

        A payload that is not an object, an unknown or missing key, or a value
        of the wrong type raises ValueError naming the key.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"config must be a JSON object, not {type(payload).__name__}")
        payload = {**payload, **(overrides or {})}
        known = {f.name: f.type for f in fields(cls)}
        unknown = set(payload) - set(known)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in payload]
        if missing:
            raise ValueError(f"config lacks key(s) {', '.join(map(repr, missing))}")
        for key, value in payload.items():
            if not _json_type_ok(value, known[key]):
                raise ValueError(f"config key {key!r} must be of type {known[key]}, got {value!r}")
        if "sweep_values" in payload:
            payload = dict(payload, sweep_values=tuple(payload["sweep_values"]))
        return cls(**payload)


@dataclass(frozen=True)
class ResultRow:
    algorithm: str  # "subset" | "elimination"
    k: int
    n: int
    S: int
    ell: int
    L: int | None  # probe count (subset only)
    accuracy: float
    mean_ops: float
    mean_time_ns: float
    seed: int


class AdaptiveSearchError(RuntimeError):
    """Probe-count search hit its cap without reaching full accuracy."""

    def __init__(self, message: str, point: dict, trace: list[tuple[int, float]]):
        super().__init__(message)
        self.point = point
        self.trace = trace


def generate_point(
    n: int, k: int, S: int, seed: int, point_id: int, num_queries: int
) -> tuple[Dataset, list[tuple[int, QueryMultiset]]]:
    """Random half-uniform dataset plus queries from uniformly chosen truths."""
    data = random_fixed_size_supports(k, n, n // 2, substream(seed, "bench-data", point_id))
    truths = substream(seed, "bench-truth", point_id).integers(0, k, size=num_queries)
    queries = []
    for qid, truth in enumerate(truths.tolist()):
        sample = data.distribution(truth).sample(S, substream(seed, "bench-query", point_id, qid))
        queries.append((truth, sample))
    return data, queries


def _score(queries: list[tuple[int, QueryMultiset]], answer) -> tuple[float, float, float]:
    """(accuracy, mean_ops, mean_time_ns) of one algorithm over ``queries``.

    ``answer(qid, sample, counter)`` prepares query ``qid`` and returns the
    call to time, with no arguments; only that call is inside the timer.
    """
    correct = total_ops = total_ns = 0
    for qid, (truth, sample) in enumerate(queries):
        counter = OpCounter()
        call = answer(qid, sample, counter)
        start = time.perf_counter_ns()
        result = call()
        total_ns += time.perf_counter_ns() - start
        total_ops += counter.membership_ops
        correct += result.found and result.index == truth
    count = len(queries)
    return correct / count, total_ops / count, total_ns / count


def run_elimination(
    data: Dataset, queries: list[tuple[int, QueryMultiset]]
) -> tuple[float, float, float]:
    """(accuracy, mean_ops, mean_time_ns) of the baseline over the full dataset."""
    candidates = np.arange(data.k)
    return _score(queries, lambda _, sample, c: partial(eliminate, data, candidates, sample, c))


def adaptive_L_search(
    data: Dataset,
    queries: list[tuple[int, QueryMultiset]],
    config: ExperimentConfig,
    ell: int,
    point_id: int = 0,
) -> tuple[int, list[tuple[int, float]], tuple[float, float, float]]:
    """Grow the probe count by L_factor from L_init until every query is correct.

    The same query instances are reused at every probe count; preprocessing
    re-randomizes probes (fresh sub-seed) at each step.  Returns the first
    fully accurate probe count, the (L, accuracy) trace, and that step's
    (accuracy, mean_ops, mean_time_ns).
    """
    trace: list[tuple[int, float]] = []
    L = config.L_init
    while L <= config.L_cap:
        params = IndexParams(L, ell, c_query=config.c_query, variant=config.variant)
        index = preprocess(data, params, stream_key(config.seed, "bench-preprocess", point_id, L))

        def answer(qid, sample, counter):
            rng = None  # only uj-certify draws candidates, so only it gets a generator
            if params.variant == VARIANT_UJ_CERTIFY:
                rng = substream(config.seed, "bench-certify", point_id, L, qid)
            return partial(query, index, sample, config.epsilon, counter, rng=rng)

        accuracy, mean_ops, mean_ns = _score(queries, answer)
        del index  # free this index before the next, larger one is built
        trace.append((L, accuracy))
        if accuracy == 1.0:
            return L, trace, (accuracy, mean_ops, mean_ns)
        L = math.ceil(min(config.L_factor * L, config.L_cap + 1))  # finite past L_cap
    best = max((a for _, a in trace), default=0.0)
    raise AdaptiveSearchError(
        f"no probe count up to {config.L_cap} reached full accuracy (best {best:.2f})",
        {"point_id": point_id, "k": data.k, "n": data.n, "ell": ell},
        trace,
    )


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """Both algorithms on identical query sets at every sweep value."""
    rows: list[ResultRow] = []
    for point_id, value in enumerate(config.sweep_values):
        k, n, S, ell = config.resolved_point(value)
        data, queries = generate_point(n, k, S, config.seed, point_id, config.queries_per_point)
        accuracy, mean_ops, mean_ns = run_elimination(data, queries)
        rows.append(
            ResultRow("elimination", k, n, S, ell, None, accuracy, mean_ops, mean_ns, config.seed)
        )
        try:
            L, _, (s_acc, s_ops, s_ns) = adaptive_L_search(data, queries, config, ell, point_id)
        except AdaptiveSearchError as err:
            err.point = dict(err.point, sweep_param=config.sweep_param, sweep_value=value)
            raise
        rows.append(ResultRow("subset", k, n, S, ell, L, s_acc, s_ops, s_ns, config.seed))
    return rows
