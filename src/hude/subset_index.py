"""Probe-subset index: random ell-subsets mapped to the supports containing them.

Preprocessing samples L probe sets of ell distinct elements and stores, for
each probe, the bucket of all dataset indices whose support contains it, as
a packed bitmap.  A query scans probes in order until one is contained in
the observed sample set, then unpacks and resolves the matching bucket,
either by certifying candidates with random sample elements ("uj-certify")
or by running elimination restricted to the bucket ("bucket-eliminate", the
practical default).

The scan tests probes ``_PROBE_BLOCK`` at a time against the sample set and
stops in the block whose bucket resolves: a block without a contained probe
is charged its whole test count, and on a contained probe the block is
charged up to that probe before its bucket is resolved.  The charges equal
those of testing probe elements one at a time, in order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Dataset, OpCounter, QueryMultiset
from .elimination import QueryResult, eliminate
from .rng import keyed_uniform, mix64, stream_key

VARIANT_BUCKET_ELIMINATE = "bucket-eliminate"
VARIANT_UJ_CERTIFY = "uj-certify"
VARIANTS = (VARIANT_BUCKET_ELIMINATE, VARIANT_UJ_CERTIFY)
MAX_PROBES = 10_000_000  # largest index; also the adaptive search's default cap
MAX_INDEX_BYTES = 2**31  # largest set of bucket masks, L * ceil(k/8) bytes


def check_index_size(num_probes: int, k: int, name: str) -> None:
    """Raise ValueError naming ``name`` if L=num_probes masks over k supports pass the cap."""
    size = num_probes * -(-k // 8)
    if size > MAX_INDEX_BYTES:
        raise ValueError(
            f"{name} {num_probes:,} over k={k:,} supports needs {size:,} bytes of bucket "
            f"masks; the most allowed is {MAX_INDEX_BYTES:,}"
        )


@dataclass(frozen=True)
class IndexParams:
    """Knobs of the index: probe count L, probe size ell, certify constant."""

    num_probes: int
    probe_size: int
    c_query: float = 4.0
    variant: str = VARIANT_BUCKET_ELIMINATE

    def __post_init__(self) -> None:
        if self.num_probes < 1:
            raise ValueError("need at least one probe")
        if self.num_probes > MAX_PROBES:
            raise ValueError(f"num_probes must be at most {MAX_PROBES:,} (got {self.num_probes:,})")
        if self.probe_size < 0:
            raise ValueError("probe size cannot be negative")
        if not (math.isfinite(self.c_query) and self.c_query > 0):
            raise ValueError(f"c_query must be finite and positive (got {self.c_query!r})")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown query variant {self.variant!r}")


def sample_probes(seed: int, count: int, size: int, n: int) -> np.ndarray:
    """(count, size) probe matrix, each row a uniform size-subset of [0, n).

    Row i is a pure function of (seed, i) — Floyd's sampling driven by a
    per-probe splitmix64 key — so the result is independent of how probes
    might be partitioned across workers.  The matrix is column-major, so
    that each probe position is one contiguous column.
    """
    if size > n:
        raise ValueError("probe size cannot exceed the domain size")
    base = np.uint64(stream_key(seed, "probes"))
    keys = mix64(base + np.arange(count, dtype=np.uint64))
    selected = np.empty((count, size), dtype=np.int64, order="F")
    for r in range(size):
        j = n - size + r
        draw = (keyed_uniform(keys, r) * (j + 1)).astype(np.int64)
        duplicate = np.zeros(count, dtype=bool)
        for c in range(r):
            duplicate |= selected[:, c] == draw
        selected[:, r] = np.where(duplicate, j, draw)
    return selected


# Probes a query tests against the sample set per step.
_PROBE_BLOCK = 1024
# Probes whose masks are ANDed per step; the temporary, 64 * ceil(k/8) bytes, fits in L2.
_MASK_BLOCK = 64
_CERTIFY_CELLS = 65_536  # cells uj-certify shuffles per step: candidates x pool, at least one row


class SubsetIndex:
    """Preprocessing output: probe sets with their buckets as packed bitmaps.

    ``masks[i]`` is the packed bitmap, over dataset indices in the
    ``Dataset.columns`` bit order, of the supports that contain probe i.
    """

    __slots__ = ("probes", "masks", "params", "dataset", "seed")

    def __init__(
        self,
        probes: np.ndarray,
        masks: np.ndarray,
        params: IndexParams,
        dataset: Dataset,
        seed: int,
    ):
        self.probes = probes
        self.masks = masks
        self.params = params
        self.dataset = dataset
        self.seed = seed

    def bucket(self, i: int) -> np.ndarray:
        """Sorted int32 indices of the supports that contain probe i."""
        # Through a bool view: np.flatnonzero is about 10x faster on bool than on uint8.
        bits = np.unpackbits(self.masks[i], count=self.dataset.k).view(bool)
        return np.flatnonzero(bits).astype(np.int32)

    @property
    def buckets(self) -> list[np.ndarray]:
        """Every bucket, unpacked on each access; queries unpack only what they resolve."""
        return [self.bucket(i) for i in range(self.masks.shape[0])]

    def __repr__(self) -> str:
        return (
            f"SubsetIndex(L={self.probes.shape[0]}, ell={self.probes.shape[1]}, "
            f"k={self.dataset.k})"
        )


def preprocess(data: Dataset, params: IndexParams, seed: int) -> SubsetIndex:
    """Sample probes; each bucket mask is the AND of its probe's packed columns."""
    check_index_size(params.num_probes, data.k, "--num-probes")
    probes = sample_probes(seed, params.num_probes, params.probe_size, data.n)
    if params.probe_size == 0:
        everyone = np.packbits(np.ones(data.k, dtype=bool))
        masks = np.tile(everyone, (params.num_probes, 1))
    else:
        # A fresh gather, not np.take(out=), which numpy buffers (writes twice).
        masks = data.columns[probes[:, 0]]
        for start in range(0, params.num_probes, _MASK_BLOCK):
            rows = masks[start : start + _MASK_BLOCK]
            for elements in probes[start : start + _MASK_BLOCK, 1:].T:
                rows &= data.columns[elements]
    masks.flags.writeable = False
    return SubsetIndex(probes, masks, params, data, seed)


def _scan_cost(prefixes: list[np.ndarray], a: int, b: int) -> int:
    """Membership tests of a block's probes a..b-1, from their prefix masks.

    Probe elements are tested left to right and a probe's test stops at its
    first element outside the sample set, so a probe costs 1 + [e1 in Q] +
    [e1 in Q][e2 in Q] + ... tests, and a probe without elements none.
    """
    if not prefixes:
        return 0
    return (b - a) + sum(int(np.count_nonzero(prefix[a:b])) for prefix in prefixes[:-1])


def query(
    index: SubsetIndex,
    q: QueryMultiset,
    epsilon: float,
    counter: OpCounter,
    rng: np.random.Generator | None = None,
) -> QueryResult:
    """Scan probes in order; resolve the first contained probe's bucket.

    If a bucket is empty or fails to produce an answer the scan continues
    with the next contained probe, in the same block or a later one.  All
    probe-element and candidate-element tests are charged to ``counter``;
    ``epsilon`` (the certificate budget's separation) must be finite and
    positive.

    uj-certify shuffles a chunk of candidates in one ``rng.permuted`` call,
    equal to one ``rng.permutation`` per candidate in turn; after an accept
    ``rng`` may have moved further, so pass a fresh generator per query.
    """
    variant = index.params.variant
    if variant == VARIANT_UJ_CERTIFY and rng is None:
        raise ValueError("uj-certify needs an rng for candidate sampling")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive (got {epsilon!r})")
    data = index.dataset
    member = q.distinct.bits
    probes = index.probes
    num_probes, ell = probes.shape
    for start in range(0, num_probes, _PROBE_BLOCK):
        stop = min(start + _PROBE_BLOCK, num_probes)
        # prefixes[j][i]: the first j + 1 elements of probe start + i are all in Q.
        prefixes = [member[probes[start:stop, 0]]] if ell else []
        for j in range(1, ell):
            prefixes.append(prefixes[-1] & member[probes[start:stop, j]])
        hits = prefixes[-1] if ell else np.ones(stop - start, dtype=bool)
        charged = 0
        for i in np.flatnonzero(hits).tolist():
            counter.add(_scan_cost(prefixes, charged, i + 1))
            charged = i + 1
            bucket = index.bucket(start + i)
            if bucket.size == 0:
                continue
            if variant == VARIANT_BUCKET_ELIMINATE:
                result = eliminate(data, bucket, q, counter)
                if result.found:
                    return result
                continue
            pool = q.distinct.indices
            # The certificate budget; clamping it at n first keeps ceil finite.
            cap = max(1, math.ceil(min(index.params.c_query * math.log(data.n) / epsilon, data.n)))
            take = min(cap, pool.size)
            chunk = max(1, _CERTIFY_CELLS // max(pool.size, 1))
            for first in range(0, bucket.size, chunk):
                candidates = bucket[first : first + chunk]
                orders = rng.permuted(np.tile(pool, (candidates.size, 1)), axis=1)[:, :take]
                inside = data.holds(candidates[:, None], orders)
                # Each candidate's tests before its first miss, which is charged too.
                leading = np.logical_and.accumulate(inside, axis=1).sum(axis=1)
                passed = np.flatnonzero(leading == take)
                last = passed[0] if passed.size else candidates.size - 1
                counter.add(int(np.minimum(leading[: last + 1] + 1, take).sum()))
                if passed.size:
                    return QueryResult("found", int(candidates[last]))
        counter.add(_scan_cost(prefixes, charged, stop - start))
    return QueryResult("not_found")


@dataclass(frozen=True)
class TheoreticalChoice:
    """Parameter rule output: index params plus the predicted query exponent."""

    params: IndexParams
    predicted_rho_q: float
    clamped: bool


def theoretical_params(
    rho_u: float,
    s: float,
    k: int,
    epsilon: float,
    c: float = 5.0,
    c_query: float = 4.0,
    variant: str = VARIANT_UJ_CERTIFY,
) -> TheoreticalChoice:
    """Probe count and size realizing a target space exponent.

    The probe count is L = ceil(c * k^rho_u) and the probe size solves
    L = c * base^ell for base = 2/(1 - e^{-2/s}), floored to an integer and
    clamped to at least 1 (``clamped`` flags the degenerate case).  The
    predicted query exponent is :func:`~hude.tradeoff.upper_exponent`,
    1 + rho_u * log(1 - epsilon/2) / log(base), floored at 0.  A probe count
    above :data:`MAX_PROBES` raises ValueError rather than being allocated.
    """
    from .tradeoff import upper_exponent

    predicted = max(0.0, upper_exponent(s, rho_u, epsilon))  # validates s, rho_u, epsilon
    if k < 2:
        raise ValueError("need at least two distributions")
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and positive (got {c!r})")
    # base**ell_exact == k**rho_u by construction; the direct form is exact
    # when k**rho_u is (ceil would otherwise pick up float noise).
    try:
        num_probes = math.ceil(c * k**rho_u)
    except OverflowError:
        num_probes = math.inf
    if num_probes > MAX_PROBES:
        raise ValueError(
            f"probe count c * k**rho_u = {float(num_probes):.10g} exceeds {MAX_PROBES:,} "
            f"(c={c!r}, rho_u={rho_u!r}, k={k})"
        )
    base = 2.0 / -math.expm1(-2.0 / s)
    ell_exact = rho_u * math.log(k) / math.log(base)
    clamped = ell_exact < 1.0
    ell = max(1, math.floor(ell_exact))
    return TheoreticalChoice(
        IndexParams(num_probes, ell, c_query=c_query, variant=variant),
        predicted,
        clamped,
    )


def dump_index(index: SubsetIndex) -> str:
    """Debug rendering: '# param' headers then 'probe: ... | bucket: ...' lines."""
    lines = [
        f"# L={index.probes.shape[0]} ell={index.probes.shape[1]} "
        f"c_query={index.params.c_query} variant={index.params.variant} seed={index.seed}"
    ]
    for i in range(index.probes.shape[0]):
        probe = " ".join(str(e) for e in index.probes[i].tolist())
        bucket = " ".join(str(j) for j in index.bucket(i).tolist())
        lines.append(f"probe: {probe} | bucket: {bucket}")
    return "\n".join(lines) + "\n"
