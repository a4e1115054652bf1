"""Baseline identification: discard candidates whose support misses a sample.

The procedure walks the query's sample stream in draw order.  Each sample
element is membership-tested (counted) against every still-alive candidate;
candidates that miss it are dropped.  It stops as soon as at most one
candidate survives.

The alive set is a packed bitmap over the dataset, zero-padded to whole
64-bit words.  Samples are taken a block at a time: the block's columns are
ANDed cumulatively onto the alive set in one ``np.bitwise_and.accumulate``,
and a popcount per row gives the survivors after each sample.  The first row
with at most one survivor decides the outcome; the charge is the alive count
before each sample up to that row, exactly as a one-sample-at-a-time loop
would count it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Dataset, OpCounter, QueryMultiset


@dataclass(frozen=True)
class QueryResult:
    """Answer of ``eliminate`` and of the subset index's ``query``."""

    outcome: str  # "found" | "not_found" | "ambiguous" | "exhausted"
    index: int | None = None
    survivors: tuple[int, ...] = ()

    @property
    def found(self) -> bool:
        return self.outcome == "found"


def eliminate(
    data: Dataset,
    candidates: np.ndarray,
    query: QueryMultiset,
    counter: OpCounter,
) -> QueryResult:
    """Run the elimination pass over distinct dataset indices ``candidates``
    (any integer dtype; floats and bools raise ValueError rather than being cast).

    Each sample is charged one op per candidate alive before it.  A block
    holds ``alive_count.bit_length() + 4`` samples, so that it usually
    reaches the stop while survivors about halve per sample.
    """
    candidates = np.asarray(candidates)
    if candidates.size == 0:
        raise ValueError("candidate set must be nonempty")
    if candidates.dtype.kind not in "iu":
        raise ValueError(
            f"candidates must be integer dataset indices (got dtype {candidates.dtype})"
        )
    if candidates.min() < 0 or candidates.max() >= data.k:
        raise ValueError(f"candidate outside the dataset [0, {data.k})")
    columns = data.columns
    width = columns.shape[1]
    words = -(-width // 8)
    bits = np.zeros(words * 64, dtype=bool)
    bits[candidates] = True
    if np.count_nonzero(bits) != candidates.size:
        raise ValueError("candidate list contains duplicates")
    if candidates.size == 1:
        return QueryResult("found", int(candidates[0]))
    alive = np.packbits(bits).view(np.uint64)
    alive_count = candidates.size
    order = query.order
    start = 0
    while start < order.size:
        elements = order[start : start + alive_count.bit_length() + 4]
        start += elements.size
        # Row 0 is the alive set; row r is it ANDed with the first r columns.
        block = np.zeros((elements.size + 1, words * 8), dtype=np.uint8)
        block[1:, :width] = columns[elements]
        rows = block.view(np.uint64)
        rows[0] = alive
        np.bitwise_and.accumulate(rows, axis=0, out=rows)
        counts = np.bitwise_count(rows).sum(axis=1)
        # Each sample is charged the candidates alive before it: counts[r - 1].
        decided = np.flatnonzero(counts[1:] <= 1)
        if decided.size:
            r = int(decided[0]) + 1
            counter.add(int(counts[:r].sum()))
            if counts[r] == 0:
                return QueryResult("exhausted")
            byte = int(block[r].argmax())  # the one nonzero byte
            return QueryResult("found", byte * 8 + 8 - int(block[r, byte]).bit_length())
        counter.add(int(counts[:-1].sum()))
        alive = rows[-1].copy()
        alive_count = int(counts[-1])
    survivors = np.flatnonzero(np.unpackbits(alive.view(np.uint8)).view(bool))
    return QueryResult("ambiguous", None, tuple(survivors.tolist()))
