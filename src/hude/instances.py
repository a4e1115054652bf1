"""Seeded generation of the three benchmark problem families.

* half-uniform identification instances (fixed-size supports, a promised
  L1 separation from the truth, and a fixed number of query samples),
* random-support instances (Bernoulli supports, Poisson-sized query), and
* correlated subset-search instances, together with the reduction that
  rewrites a subset-search query into a random-support query by Poissonizing
  per-element sample counts.

Generators are pure functions of (parameters, seed); every random choice is
drawn from a named sub-stream so instances are byte-identical across runs.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# distributions.save_dataset and load_dataset are looked up at call time, for wrappers.
from . import __version__, distributions
from .distributions import (
    MAX_DATASET_CELLS,
    Dataset,
    QueryMultiset,
    SupportSet,
    random_bernoulli_supports,
    random_fixed_size_supports,
)
from .rng import substream
from .tradeoff import required_w_q


class GenerationError(RuntimeError):
    """Instance generation failed its post-generation validity check."""


@dataclass(frozen=True)
class HudeInstance:
    """k half-uniform distributions, a hidden truth index, and its query."""

    dataset: Dataset
    epsilon: float
    s: float
    truth_index: int
    query: QueryMultiset
    seed: int
    attempts: int = 1  # dataset resamples consumed by the separation check


@dataclass(frozen=True)
class UrdeInstance:
    """Random Bernoulli supports with a Poisson-sized query from the truth."""

    dataset: Dataset
    w_u: float
    s: float
    truth_index: int
    query: QueryMultiset
    seed: int
    truth_resamples: int = 0


@dataclass(frozen=True)
class GapssInstance:
    """Bernoulli dataset points plus a query drawn as a correlated subset.

    Coordinatewise, (query, truth) follows the joint law
    [[w_q, 0], [w_u - w_q, 1 - w_u]]: the query is 1 only where the truth
    is 1, so the query vector is always a subset of the truth vector.
    """

    dataset: Dataset
    w_u: float
    w_q: float
    truth_index: int
    query: SupportSet
    seed: int


# ---------------------------------------------------------------------------
# Poisson sampling
# ---------------------------------------------------------------------------

_KNUTH_CHUNK = 8.0  # product method stays exact; additivity handles large rates
# Largest rate :func:`poisson` accepts: its cost grows linearly with the rate
# (about 0.1 s a draw at this cap), so an unbounded rate would never return.
_MAX_POISSON_RATE = 1e6
# Below this rate a zero-truncated draw walks the truncated pmf: rejection
# would discard almost every Poisson draw.
_INVERSE_CDF_RATE = 0.01
_COUNT_BUFFER = 256  # uniforms fetched per refill in poisson


def poisson(
    lam: float, size: int, rng: np.random.Generator, *, truncated: bool = False
) -> np.ndarray:
    """``size`` exact Poisson(lam) draws, or zero-truncated ones if ``truncated``.

    Knuth's product method, one product threshold per chunk of the rate
    (``_KNUTH_CHUNK``), redrawn while zero when truncated; a truncated draw
    below _INVERSE_CDF_RATE walks the truncated pmf's inverse CDF instead.
    The uniforms come from ``rng.random(_COUNT_BUFFER)`` blocks (``random(m)``
    gives the doubles of m scalar calls) and are read strictly in order, so
    the counts are those of one draw at a time.  Up to one block more of the
    stream is drawn, so ``rng`` must not be used afterwards.  The rate must
    lie in (0, 1e6]: see _MAX_POISSON_RATE.
    """
    counts = np.empty(size, dtype=np.int64)
    if size == 0:
        return counts
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"rate must be finite and positive (got {lam!r})")
    if lam > _MAX_POISSON_RATE:
        raise ValueError(
            f"rate must be positive and at most {_MAX_POISSON_RATE:g} (got {lam!r})"
        )
    uniforms = itertools.chain.from_iterable(
        iter(lambda: rng.random(_COUNT_BUFFER).tolist(), None)
    )
    if truncated and lam < _INVERSE_CDF_RATE:  # one uniform a draw
        first = lam * math.exp(-lam) / -math.expm1(-lam)
        for i in range(size):
            u = next(uniforms)
            x = 1
            pmf = cumulative = first
            while u > cumulative:
                x += 1
                pmf *= lam / x
                cumulative += pmf
            counts[i] = x
        return counts
    thresholds = []
    while lam > _KNUTH_CHUNK:
        thresholds.append(math.exp(-_KNUTH_CHUNK))
        lam -= _KNUTH_CHUNK
    thresholds.append(math.exp(-lam))
    for i in range(size):
        value = 0
        while True:
            for threshold in thresholds:
                running = next(uniforms)
                while running > threshold:
                    value += 1
                    running *= next(uniforms)
            if value or not truncated:
                break
        counts[i] = value
    return counts


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


_HUDE_RETRIES = 10  # dataset resamples allowed after a failed separation check
# Redraws of an empty urde truth row: at most this many, and at most
# MAX_DATASET_CELLS draws in all (1,000 rows of n=10 take 0.05 s, of n=1e6 22 s).
_URDE_RESAMPLES = 1_000
_MAX_QUERY_SAMPLES = 10_000_000  # gen_hude's floor(n/s): 80 MB of int64 draws


def gen_hude(n: int, k: int, epsilon: float, s: float, seed: int) -> HudeInstance:
    """Half-uniform instance: k random size-n/2 supports plus floor(n/s) samples.

    After generation the L1 separation promise is checked against the truth
    index only; on a violation the whole dataset is resampled, up to
    ``_HUDE_RETRIES`` times.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError("domain size must be positive and even")
    if k <= 0:
        raise ValueError("need at least one distribution")
    if not 0 < epsilon <= 2:
        raise ValueError("separation must be in (0, 2]")
    if not (math.isfinite(s) and s > 0 and 1 <= n / s <= _MAX_QUERY_SAMPLES):
        raise ValueError(
            f"s must be finite and positive with n/s >= 1 query samples (got {s!r}), "
            f"and at most {_MAX_QUERY_SAMPLES:,} of them"
        )

    m_query = int(n // s)
    half = n // 2
    worst: tuple[int, int, float] | None = None
    for attempt in range(_HUDE_RETRIES + 1):
        dataset = random_fixed_size_supports(k, n, half, substream(seed, "hude-dataset", attempt))
        truth = int(substream(seed, "hude-truth", attempt).integers(0, k))
        # Equal-size supports: ||p_t - p_j||_1 = 2 - 4*|intersection|/n.
        dist = 2.0 - 4.0 * dataset.overlaps(truth) / n
        dist[truth] = np.inf
        j = int(np.argmin(dist))
        if k == 1 or dist[j] >= epsilon:
            query = dataset.distribution(truth).sample(
                m_query, substream(seed, "hude-query", attempt)
            )
            return HudeInstance(dataset, float(epsilon), float(s), truth, query, seed, attempt + 1)
        worst = (truth, j, float(dist[j]))
    truth, j, d = worst  # type: ignore[misc]
    raise GenerationError(
        f"separation promise failed after {_HUDE_RETRIES} retries: "
        f"||p_{truth} - p_{j}||_1 = {d:.6f} < epsilon = {epsilon}"
    )


def gen_urde(n: int, k: int, w_u: float, s: float, seed: int) -> UrdeInstance:
    """Random-support instance with a Poisson(|supp(truth)|/(s*w_u)) query.

    An empty truth support is redrawn, up to ``_URDE_RESAMPLES`` times and
    ``MAX_DATASET_CELLS`` draws.
    """
    if n <= 0 or k <= 0:
        raise ValueError("domain size and dataset size must be positive")
    if not 0 < w_u <= 1:
        raise ValueError("inclusion probability must be in (0, 1]")
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"s must be finite and positive (got {s!r})")
    if n > s * w_u * _MAX_POISSON_RATE:
        raise ValueError(
            f"s = {s!r} is too small: the query rate n/(s*w_u) = {n / s / w_u:.7g} "
            f"exceeds {_MAX_POISSON_RATE:g}"
        )

    dataset = random_bernoulli_supports(k, n, w_u, substream(seed, "urde-dataset"))
    truth = int(substream(seed, "urde-truth").integers(0, k))
    resamples, limit = 0, min(_URDE_RESAMPLES, MAX_DATASET_CELLS // n)
    support = dataset.row(truth)
    while not support.any():
        # Probability (1 - w_u)^n event; perturb only the truth row.
        if resamples == limit:
            raise GenerationError(
                f"truth support still empty after {limit:,} redraws: a support "
                f"over n={n} elements is empty with probability (1 - w_u)^n = "
                f"{math.exp(n * math.log1p(-w_u)):.6g} (w_u={w_u!r})"
            )
        redraw = random_bernoulli_supports(1, n, w_u, substream(seed, "urde-resample", resamples))
        support = redraw.row(0)
        resamples += 1
    if resamples:  # the truth row was empty: set its bit in each of its elements' columns
        columns = dataset.columns.copy()
        columns[support, truth >> 3] |= 0x80 >> (truth & 7)
        dataset = Dataset.from_columns(columns, k)
    card = int(np.count_nonzero(support))
    # The query size is the only draw on its substream, as poisson requires.
    (total,) = poisson(card / (s * w_u), 1, substream(seed, "urde-querysize")).tolist()
    query = dataset.distribution(truth).sample(total, substream(seed, "urde-query"))
    return UrdeInstance(dataset, float(w_u), float(s), truth, query, seed, resamples)


def gen_gapss(n: int, k: int, w_u: float, w_q: float, seed: int) -> GapssInstance:
    """Correlated subset-search instance with coordinatewise joint sampling."""
    if n <= 0 or k <= 0:
        raise ValueError("domain size and dataset size must be positive")
    if not 0 < w_q < w_u < 1:
        raise ValueError("parameters must satisfy 0 < w_q < w_u < 1")

    dataset = random_bernoulli_supports(k, n, w_u, substream(seed, "gapss-dataset"))
    truth = int(substream(seed, "gapss-truth").integers(0, k))
    # Conditioned on the truth coordinate being 1, the query coordinate is 1
    # with probability w_q / w_u; where the truth is 0 the query is 0.
    q = np.zeros(n, dtype=bool)
    ones = np.flatnonzero(dataset.row(truth))
    if ones.size:
        keep = substream(seed, "gapss-query").random(ones.size) < (w_q / w_u)
        q[ones[keep]] = True
    return GapssInstance(dataset, float(w_u), float(w_q), truth, SupportSet(q), seed)


# ---------------------------------------------------------------------------
# Reduction: subset-search query -> random-support query
# ---------------------------------------------------------------------------


_REDUCTION_TOLERANCE = 1e-9  # relative slack allowed between w_q and required_w_q


def reduce_gapss_to_urde(g: GapssInstance, s: float, seed: int) -> UrdeInstance:
    """Turn a subset-search instance into a random-support instance.

    Each dataset vector becomes a uniform distribution on its 1-coordinates.
    Every query coordinate that is 1 contributes a zero-truncated
    Poisson(1/(s*w_u)) number of copies to the output sample multiset, so the
    per-element appearance counts are exactly Poisson(1/(s*w_u)).
    """
    need = required_w_q(g.w_u, s)
    if abs(g.w_q - need) > _REDUCTION_TOLERANCE * max(abs(need), abs(g.w_q)):
        raise ValueError(
            f"parameter relation violated: instance w_q = {g.w_q!r} but the "
            f"reduction at s = {s!r} requires w_q = {need!r}"
        )
    lam = 1.0 / (s * g.w_u)
    rng_counts = substream(seed, "reduction-counts")
    q_elements = g.query.indices
    copies = poisson(lam, q_elements.size, rng_counts, truncated=True)
    draws = np.repeat(q_elements, copies)
    if draws.size:
        draws = draws[substream(seed, "reduction-order").permutation(draws.size)]
    query = QueryMultiset(g.dataset.n, draws)
    return UrdeInstance(g.dataset, g.w_u, float(s), g.truth_index, query, seed)


# ---------------------------------------------------------------------------
# The problem families: one row each drives generation and the instance files
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """What generation and the instance files need to know about one family."""

    instance_type: type
    generator: Callable  # generator(n, k, *params, seed)
    params: tuple[str, ...]  # generator parameters, in generator order
    counters: dict  # optional sidecar counters and their defaults
    # domain(*params) -> {param: (inside, interval)}: the domain a stored instance's
    # parameters must lie in, without generation's caps on the query size.
    domain: Callable


FAMILIES = {
    "hude": Family(HudeInstance, gen_hude, ("epsilon", "s"), {"attempts": 1},
                   lambda epsilon, s: {"epsilon": (0 < epsilon <= 2, "(0, 2]"),
                                       "s": (0 < s < math.inf, "(0, inf)")}),
    "urde": Family(UrdeInstance, gen_urde, ("w_u", "s"), {"truth_resamples": 0},
                   lambda w_u, s: {"w_u": (0 < w_u <= 1, "(0, 1]"),
                                   "s": (0 < s < math.inf, "(0, inf)")}),
    "gapss": Family(GapssInstance, gen_gapss, ("w_u", "w_q"), {},
                    lambda w_u, w_q: {"w_u": (0 < w_u < 1, "(0, 1)"),
                                      "w_q": (0 < w_q < w_u, "(0, w_u)")}),
}

# gapss stores its query as a set of elements; the others as a draw stream.
_SET_QUERY = "gapss"


# ---------------------------------------------------------------------------
# Instance files: the dataset text format plus a JSON sidecar
# ---------------------------------------------------------------------------

DATASET_FILENAME = "dataset.txt"
SIDECAR_FILENAME = "instance.json"

_FORMAT_VERSION = 1
# Largest sidecar save_instance writes at the query cap, checked before it is parsed: per
# sample a "[element,count]," pair and an "element," stream entry, with elements below
# n <= MAX_DATASET_CELLS, plus 4 KiB for the scalar keys.
_MAX_SIDECAR_BYTES = _MAX_QUERY_SAMPLES * (
    2 * len(str(MAX_DATASET_CELLS - 1)) + len(str(_MAX_QUERY_SAMPLES)) + 5
) + 4096


def _sidecar_dict(instance) -> dict:
    for problem, family in FAMILIES.items():
        if isinstance(instance, family.instance_type):
            break
    else:
        raise TypeError(f"not an instance type: {type(instance)!r}")
    sidecar = {
        "format": "hude-instance",
        "version": _FORMAT_VERSION,
        "library_version": __version__,
        "n": instance.dataset.n,
        "k": instance.dataset.k,
        "seed": instance.seed,
        "truth_index": instance.truth_index,
        "problem": problem,
    }
    for key in (*family.params, *family.counters):
        sidecar[key] = getattr(instance, key)
    if problem == _SET_QUERY:
        sidecar["query"] = [[int(e), 1] for e in instance.query.indices.tolist()]
    else:
        sidecar["query"] = [[e, c] for e, c in instance.query.pairs()]
        sidecar["query_stream"] = instance.query.order.tolist()
    return sidecar


def save_instance(instance, outdir) -> None:
    """Write dataset.txt plus instance.json into ``outdir`` (created if needed)."""
    os.makedirs(outdir, exist_ok=True)
    sidecar = _sidecar_dict(instance)
    dataset_meta = {key: sidecar[key] for key in sidecar if not key.startswith("query")}
    distributions.save_dataset(instance.dataset, os.path.join(outdir, DATASET_FILENAME), dataset_meta)
    with open(os.path.join(outdir, SIDECAR_FILENAME), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n")


def load_instance(outdir):
    """Rebuild the instance saved by :func:`save_instance`.

    Raises ValueError naming the sidecar key that is missing, malformed or
    outside its family's domain, the sidecar field that disagrees with the
    dataset header, or a sidecar larger than any instance's.
    """
    dataset, _ = distributions.load_dataset(os.path.join(outdir, DATASET_FILENAME))
    path = os.path.join(outdir, SIDECAR_FILENAME)
    size = os.path.getsize(path)
    if size > _MAX_SIDECAR_BYTES:
        raise ValueError(
            f"{path}: sidecar is {size:,} bytes, over the {_MAX_SIDECAR_BYTES:,} "
            f"of the largest instance"
        )
    with open(path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}: sidecar is not a JSON object")
    if "problem" not in sidecar:
        raise ValueError(f"{path}: sidecar lacks key 'problem'")
    problem = sidecar["problem"]
    if not isinstance(problem, str) or problem not in FAMILIES:
        raise ValueError(f"{path}: unknown problem type in sidecar: {problem!r}")
    family = FAMILIES[problem]
    query_key = "query" if problem == _SET_QUERY else "query_stream"
    needed = ["n", "k", "seed", "truth_index", *family.params, query_key]
    missing = [key for key in needed if key not in sidecar]
    if missing:
        raise ValueError(f"{path}: sidecar lacks key(s) {', '.join(map(repr, missing))}")
    for key, actual in (("n", dataset.n), ("k", dataset.k)):
        if sidecar[key] != actual:
            raise ValueError(
                f"{path}: sidecar has {key} = {sidecar[key]!r} but the dataset header "
                f"has {key} = {actual}"
            )
    for key in family.params:
        if type(sidecar[key]) not in (int, float):
            raise ValueError(f"{path}: sidecar {key} {sidecar[key]!r} is not a number")
    for key, (inside, interval) in family.domain(*map(sidecar.get, family.params)).items():
        if not inside:
            raise ValueError(f"{path}: sidecar {key} {sidecar[key]!r} is outside {interval}")
    counters = {key: sidecar.get(key, default) for key, default in family.counters.items()}
    for key, value in {"seed": sidecar["seed"], **counters}.items():
        if type(value) is not int:
            raise ValueError(f"{path}: sidecar {key} {value!r} is not an integer")
    truth = sidecar["truth_index"]
    if type(truth) is not int or not 0 <= truth < dataset.k:
        raise ValueError(f"{path}: truth_index {truth!r} is not an index in [0, {dataset.k})")
    values = sidecar[query_key]
    try:
        if type(values) is not list or len(values) > _MAX_QUERY_SAMPLES:
            raise ValueError(f"not a list of at most {_MAX_QUERY_SAMPLES:,} entries")
        if problem == _SET_QUERY:
            if not all(type(p) is list and len(p) == 2 and type(p[1]) is int and p[1] == 1
                       for p in values):
                raise ValueError("entries must be [element, 1] pairs")
            values = [e for e, _ in values]
        if not all(type(v) is int and -(2**63) <= v < 2**63 for v in values):
            raise ValueError("elements must be JSON integers within int64")
        if problem == _SET_QUERY:
            query = SupportSet.from_indices(dataset.n, values)
        else:
            query = QueryMultiset(dataset.n, values)
    except ValueError as err:
        raise ValueError(f"{path}: malformed query: {err} (sidecar key {query_key!r})") from None
    fields = {key: sidecar[key] for key in ("seed", "truth_index", *family.params)}
    return family.instance_type(dataset=dataset, query=query, **fields, **counters)
