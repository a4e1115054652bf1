"""Baseline identification: discard candidates whose support misses a sample.

The procedure walks the query's sample stream in draw order.  Each sample
element is membership-tested (counted) against every still-alive candidate;
candidates that miss it are dropped.  It stops as soon as exactly one
candidate survives.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import Dataset, OpCounter, QueryMultiset


@dataclass(frozen=True)
class EliminationResult:
    outcome: str  # "found" | "ambiguous" | "exhausted"
    index: int | None = None
    survivors: tuple[int, ...] = field(default_factory=tuple)


def eliminate(
    data: Dataset,
    candidates: np.ndarray,
    query: QueryMultiset,
    counter: OpCounter,
) -> EliminationResult:
    """Run the elimination pass over distinct dataset indices ``candidates``.

    The alive set is a packed bitmap over the dataset; each sample ANDs in
    its element's column and is charged one op per candidate alive before it.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("candidate set must be nonempty")
    if candidates.min() < 0 or candidates.max() >= data.k:
        raise ValueError(f"candidate outside the dataset [0, {data.k})")
    bits = np.zeros(data.columns.shape[1] * 8, dtype=bool)
    bits[candidates] = True
    if np.count_nonzero(bits) != candidates.size:
        raise ValueError("candidate list contains duplicates")
    if candidates.size == 1:
        return EliminationResult("found", int(candidates[0]))
    alive = np.packbits(bits)
    alive_count = candidates.size
    columns = data.columns
    for element in query.order.tolist():
        counter.add(alive_count)
        alive &= columns[element]
        alive_count = int(np.bitwise_count(alive).sum())
        if alive_count == 1:
            return EliminationResult("found", int(np.flatnonzero(np.unpackbits(alive))[0]))
        if alive_count == 0:
            return EliminationResult("exhausted")
    survivors = np.flatnonzero(np.unpackbits(alive))
    return EliminationResult("ambiguous", None, tuple(survivors.tolist()))
