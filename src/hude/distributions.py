"""Supports, each also the uniform distribution on it, and query sample sets.

:class:`OpCounter` meters membership operations.  The query paths charge their
tests to it in bulk; :func:`contains`, which reads one bit of a support and
charges exactly one operation, is the definition the oracles check them
against.  Everything else (generation, distances, serialization) is unmetered,
since setup work is never billed to a query.
"""
from __future__ import annotations

import csv
import json
from dataclasses import fields
from typing import Iterable

import numpy as np


class OpCounter:
    """Counts metered membership operations for a single query."""

    __slots__ = ("membership_ops",)

    def __init__(self) -> None:
        self.membership_ops = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("op counter is monotone; cannot add a negative amount")
        self.membership_ops += int(amount)

    def __repr__(self) -> str:
        return f"OpCounter(membership_ops={self.membership_ops})"


class SupportSet:
    """Fixed-width bit vector over the domain [0, n), and the uniform distribution on it.

    For strict half-uniform instances the support has exactly n/2 elements;
    random-support instances keep whatever cardinality the draw produced.
    """

    __slots__ = ("bits", "n", "_cardinality", "_indices")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 1:
            raise ValueError("support bits must be one-dimensional")
        self.bits = bits
        self.n = int(bits.shape[0])
        self._cardinality: int | None = None
        self._indices: np.ndarray | None = None

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "SupportSet":
        bits = np.zeros(int(n), dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise ValueError(f"index outside domain [0, {n})")
            bits[idx] = True
        return cls(bits)

    @property
    def cardinality(self) -> int:
        if self._cardinality is None:
            self._cardinality = int(np.count_nonzero(self.bits))
        return self._cardinality

    @property
    def indices(self) -> np.ndarray:
        """Sorted element indices; materialized once, reused for sampling."""
        if self._indices is None:
            self._indices = np.flatnonzero(self.bits)
        return self._indices

    def sample(self, m: int, rng: np.random.Generator) -> "QueryMultiset":
        """Draw m i.i.d. elements, uniform on the support, in recorded order."""
        if m < 0:
            raise ValueError("sample count must be nonnegative")
        idx = self.indices
        if idx.size == 0:
            raise ValueError("cannot sample from an empty support")
        return QueryMultiset(self.n, idx[rng.integers(0, idx.size, size=int(m))])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SupportSet):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __repr__(self) -> str:
        return f"SupportSet(n={self.n}, cardinality={self.cardinality})"


def contains(support: SupportSet, element: int, counter: OpCounter) -> bool:
    """Metered membership test: one bit read, exactly one op charged."""
    if not 0 <= element < support.n:
        raise ValueError(f"element {element} outside domain [0, {support.n})")
    counter.add(1)
    return bool(support.bits[element])


class QueryMultiset:
    """Multiset of sampled elements, plus the set of distinct elements.

    ``order`` preserves the original draw order; elimination consumes the
    stream in that order so op counts are reproducible.
    """

    __slots__ = ("distinct", "order")

    def __init__(self, n: int, order: np.ndarray):
        order = np.asarray(order, dtype=np.int64)
        if order.ndim != 1:
            raise ValueError("sample stream must be one-dimensional")
        if order.size and (order.min() < 0 or order.max() >= n):
            raise ValueError(f"sample outside domain [0, {n})")
        self.order = order
        bits = np.zeros(int(n), dtype=bool)
        bits[order] = True
        self.distinct = SupportSet(bits)

    def pairs(self) -> list[tuple[int, int]]:
        """(element, multiplicity) pairs in first-appearance order."""
        elements, first, counts = np.unique(self.order, return_index=True, return_counts=True)
        by_first = np.argsort(first)
        return list(zip(elements[by_first].tolist(), counts[by_first].tolist()))

    def __repr__(self) -> str:
        return f"QueryMultiset(total={self.order.size}, distinct={self.distinct.cardinality})"


def l1_distance(p: SupportSet, q: SupportSet) -> float:
    """L1 distance between two uniform-on-support distributions.

    Uses the general unequal-size formula; for equal support sizes m it
    reduces to |symmetric difference| / m.
    """
    if p.n != q.n:
        raise ValueError(f"domain sizes differ: {p.n} != {q.n}")
    a, b = p.cardinality, q.cardinality
    if a == 0 or b == 0:
        raise ValueError("distances need nonempty supports")
    c = int(np.count_nonzero(p.bits & q.bits))
    return abs(1.0 / a - 1.0 / b) * c + (a - c) / a + (b - c) / b


# Supports per block when drawing, packing, writing or parsing them: a multiple
# of 8, so a block is whole bytes of ``Dataset.columns``.  It sizes buffers (about
# 1 MB of text at n=500), not output: row i takes the same doubles, and a file
# the same bytes, whatever the block size.
_ROW_BLOCK = 1024

# Weights of the 8 rows that share a byte, in ``np.packbits`` bit order.
_BIT_WEIGHTS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)


def _pack_rows(block: np.ndarray, columns: np.ndarray, start: int) -> None:
    """Write the (r, n) bool rows ``block`` into ``columns`` as supports start, ..., start + r - 1.

    ``start`` is a multiple of 8.  The bytes are ``np.packbits(block, axis=0).T``:
    row i is bit 7 - i % 8, and the bits past the last row are zero.
    """
    rows, n = block.shape
    if rows % 8:
        block = np.concatenate([block, np.zeros((-rows % 8, n), dtype=bool)])
    octets = block.view(np.uint8).reshape(len(block) // 8, 8, n)
    packed = np.einsum("jbn,b->nj", octets, _BIT_WEIGHTS, dtype=np.uint8)
    columns[:, start // 8 : start // 8 + len(octets)] = packed


class Dataset:
    """Ordered collection of k supports over a shared domain [0, n).

    Stored column-major and bit-packed: ``columns`` is a read-only
    (n, ceil(k/8)) uint8 array whose row e is the bitmap of the supports
    that contain element e (support j is bit 7 - j % 8 of byte j // 8, the
    ``np.packbits`` order; padding bits are zero).  A probe's bucket is the
    AND of its elements' bitmaps and elimination ANDs one bitmap per sample.
    """

    __slots__ = ("columns", "k", "n")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2:
            raise ValueError("dataset matrix must be (k, n)")
        self.k, self.n = (int(d) for d in matrix.shape)
        columns = np.empty((self.n, -(-self.k // 8)), dtype=np.uint8)
        for start in range(0, self.k, _ROW_BLOCK):
            _pack_rows(matrix[start : start + _ROW_BLOCK], columns, start)
        columns.flags.writeable = False
        self.columns = columns

    @classmethod
    def from_columns(cls, columns: np.ndarray, k: int) -> "Dataset":
        """Dataset of k supports over already packed ``columns``, made read-only in place.

        Raises ValueError unless ``columns`` is (n, ceil(k/8)) uint8 with zero padding bits.
        """
        width = -(-k // 8)
        if k < 0 or columns.dtype != np.uint8 or columns.ndim != 2 or columns.shape[1] != width:
            raise ValueError(f"packed columns of k={k} supports must be (n, {width}) uint8")
        if k % 8 and (columns[:, -1] & (0xFF >> (k % 8))).any():
            raise ValueError("packed columns have a padding bit set")
        dataset = cls.__new__(cls)
        columns.flags.writeable = False
        dataset.columns, dataset.k, dataset.n = columns, int(k), int(columns.shape[0])
        return dataset

    @classmethod
    def from_supports(cls, n: int, supports: Iterable[Iterable[int]]) -> "Dataset":
        rows = [SupportSet.from_indices(n, s).bits for s in supports]
        if not rows:
            raise ValueError("dataset needs at least one support")
        return cls(np.vstack(rows))

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (k, n) boolean matrix, unpacked on every access."""
        matrix = np.unpackbits(self.columns, axis=1, count=self.k).view(bool).T
        matrix.flags.writeable = False
        return matrix

    def holds(self, supports, elements=slice(None)) -> np.ndarray:
        """Unchecked bits: whether each of ``supports`` holds each of ``elements`` (broadcast)."""
        return (self.columns[elements, supports >> 3] & (0x80 >> (supports & 7))) != 0

    def row(self, j: int) -> np.ndarray:
        """Support j as an (n,) boolean vector."""
        if not 0 <= j < self.k:
            raise IndexError(f"support {j} outside [0, {self.k})")
        return self.holds(j)

    def overlaps(self, j: int) -> np.ndarray:
        """|supp(j) & supp(i)| for every support i, unpacking ``_ROW_BLOCK`` supports at a time."""
        columns = self.columns[self.row(j)]
        overlap = np.empty(self.k, dtype=np.int64)
        for start in range(0, self.k, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, self.k)
            bits = np.unpackbits(columns[:, start // 8 : -(-stop // 8)], axis=1, count=stop - start)
            overlap[start:stop] = bits.sum(axis=0)
        return overlap

    def distribution(self, j: int) -> SupportSet:
        """Support j, which is also the uniform distribution on it."""
        return SupportSet(self.row(j))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.k == other.k and bool(np.array_equal(self.columns, other.columns))

    def __repr__(self) -> str:
        return f"Dataset(k={self.k}, n={self.n})"


# ---------------------------------------------------------------------------
# Random supports (building blocks for the instance generators)
# ---------------------------------------------------------------------------


# Largest dataset a generator draws or a file declares, in k * n cells.  At the
# cap, `hude gen --problem hude` peaks at 0.1 GB resident with n=500; a long
# domain costs more (with k=2, n=5e7 its query alone is 1e7 samples).
MAX_DATASET_CELLS = 100_000_000


def check_dataset_size(k: int, n: int) -> None:
    """Raise ValueError if k supports over n elements exceed MAX_DATASET_CELLS."""
    if k * n > MAX_DATASET_CELLS:
        raise ValueError(
            f"dataset of k={k:,} supports over n={n:,} elements has {k * n:,} cells; "
            f"the most allowed is {MAX_DATASET_CELLS:,}"
        )


def random_fixed_size_supports(k: int, n: int, m: int, rng: np.random.Generator) -> Dataset:
    """k supports, each a uniform random m-subset of [0, n).

    Row i keeps the elements of its m smallest uniform draws: those at or
    below the row's m-th smallest draw.  A row tied at that threshold would
    keep more than m, so it takes ``np.argpartition``'s m instead; without a
    tie the two choices are the same set.  Rows are drawn into buffers made
    once and packed ``_ROW_BLOCK`` at a time; no (k, n) matrix is built.
    """
    if not 0 < m <= n:
        raise ValueError("support size must be in [1, n]")
    check_dataset_size(k, n)
    columns = np.empty((n, -(-k // 8)), dtype=np.uint8)
    u = np.empty((min(k, _ROW_BLOCK), n))
    ordered = np.empty_like(u)
    block = np.empty(u.shape, dtype=bool)
    for start in range(0, k, _ROW_BLOCK):
        if k - start < len(u):
            u, ordered, block = u[: k - start], ordered[: k - start], block[: k - start]
        rng.random(out=u)
        np.copyto(ordered, u)
        ordered.partition(m - 1, axis=1)
        np.less_equal(u, ordered[:, m - 1 : m], out=block)
        tied = np.flatnonzero(np.count_nonzero(block, axis=1) != m)
        if tied.size:
            block[tied] = False
            block[tied[:, None], np.argpartition(u[tied], m - 1, axis=1)[:, :m]] = True
        _pack_rows(block, columns, start)
    return Dataset.from_columns(columns, k)


def random_bernoulli_supports(k: int, n: int, w: float, rng: np.random.Generator) -> Dataset:
    """k supports over [0, n) holding each element independently with probability w.

    Drawn into buffers made once and packed ``_ROW_BLOCK`` rows at a time.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("inclusion probability must be in (0, 1]")
    check_dataset_size(k, n)
    columns = np.empty((n, -(-k // 8)), dtype=np.uint8)
    u = np.empty((min(k, _ROW_BLOCK), n))
    block = np.empty(u.shape, dtype=bool)
    for start in range(0, k, _ROW_BLOCK):
        if k - start < len(u):
            u, block = u[: k - start], block[: k - start]
        np.less(rng.random(out=u), w, out=block)
        _pack_rows(block, columns, start)
    return Dataset.from_columns(columns, k)


# ---------------------------------------------------------------------------
# Dataset serialization: '# ...' metadata lines, then 'n k', then one support
# per line as sorted element indices.  Round trips are byte-exact.  Both
# directions work _ROW_BLOCK support lines at a time with numpy: canonical
# text makes no Python string per line, and no (k, n) matrix is made.
# ---------------------------------------------------------------------------


def _metadata_line(metadata: dict) -> str:
    """The '# {json}' line heading an output file: sorted keys, compact, finite numbers."""
    return "# " + json.dumps(metadata, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _encoded_blocks(dataset: Dataset, metadata: dict | None):
    """The text of :func:`dumps_dataset` as UTF-8 bytes: the head, then a block of lines at a time.

    Row e of a fixed-width byte table holds ``b" " + str(e)`` zero-padded and row
    n the line end.  A block's bits, read row-major with a set end column, give
    its token stream; gathering the tokens' table rows and dropping the zero
    bytes and each line's leading space gives its text.
    """
    n = dataset.n
    head = (_metadata_line(metadata) + "\n" if metadata else "") + f"{n} {dataset.k}\n"
    yield head.encode()
    width = len(str(max(n - 1, 0))) + 1
    table = np.zeros((n + 1, width), dtype=np.uint8)
    digits = np.char.add(b" ", np.arange(n).astype(f"S{width - 1}"))
    table[:n] = digits.view(np.uint8).reshape(n, width)
    table[n, 0] = ord("\n")
    for start in range(0, dataset.k, _ROW_BLOCK):
        count = min(_ROW_BLOCK, dataset.k - start)
        bits = np.empty((count, n + 1), dtype=bool)
        packed = dataset.columns[:, start // 8 : (start + count + 7) // 8]
        bits[:, :n] = np.unpackbits(packed, axis=1, count=count).T.view(bool)
        bits[:, n] = True
        tokens = np.flatnonzero(bits) % (n + 1)
        ends = tokens == n
        first = ~ends  # a line's first element: one just after a line end
        first[1:] &= ends[:-1]
        text = np.take(table, tokens, axis=0)
        text[first, 0] = 0
        yield text[text != 0].tobytes()


def dumps_dataset(dataset: Dataset, metadata: dict | None = None) -> str:
    return "".join(block.decode() for block in _encoded_blocks(dataset, metadata))


def _parse_lines(lines: list[str], n: int, first_line: int, first_support: int,
                 out: np.ndarray) -> None:
    """Set column j of the (n, len(lines)) bool ``out`` to the support on ``lines[j]``.

    The reference parse, one line at a time: it accepts any whitespace and
    anything ``int`` reads (``+3``, ``007``).  A non-integer, negative,
    out-of-range or repeated element raises ``ValueError`` naming the 1-based
    line ``first_line + j`` and the support ``first_support + j``.
    """
    for j, line in enumerate(lines):
        where = f"line {first_line + j}: support {first_support + j}"
        try:
            row = np.asarray(line.split(), dtype=np.int64)
        except (ValueError, OverflowError):
            raise ValueError(f"{where} is not a list of integers") from None
        if row.size == 0:
            continue
        bad = row[(row < 0) | (row >= n)]
        if bad.size:
            raise ValueError(f"{where} has element {bad[0]} outside the domain [0, {n})")
        out[row, j] = True
        if np.count_nonzero(out[:, j]) != row.size:
            ordered = np.sort(row)
            repeated = ordered[1:][ordered[1:] == ordered[:-1]][0]
            raise ValueError(f"{where} repeats element {repeated}")


def _parse_canonical(raw: bytes, n: int, out: np.ndarray) -> bool:
    """Set ``out`` as :func:`_parse_lines` does, if every line of ``raw`` is canonical.

    Canonical is what :func:`dumps_dataset` writes, in any element order:
    elements of ASCII digits, no more than n - 1 has, one space between
    elements, '\n' ending every line, no element outside the domain or
    repeated.  Returns False on anything else, with ``out`` to be cleared.
    """
    chars = np.frombuffer(raw, dtype=np.uint8)
    value = chars - np.uint8(ord("0"))
    separators = np.flatnonzero(value >= 10)
    kinds = chars[separators]
    spaces = kinds == ord(" ")
    line_ends = np.flatnonzero(kinds == ord("\n"))  # one per column of ``out``
    if line_ends.size + np.count_nonzero(spaces) != kinds.size:
        return False
    # The digits between a separator and the one before it.
    lengths = np.diff(separators, prepend=-1)
    lengths -= 1
    empty = lengths == 0
    if (spaces & empty).any() or (spaces[:-1] & empty[1:]).any():
        return False  # a space not between two elements
    elements_per_line = np.diff(line_ends, prepend=-1) - empty[line_ends]
    if empty.any():  # only at the end of an empty line
        if empty.all():
            return True
        separators, lengths = separators[~empty], lengths[~empty]
    del kinds, spaces, empty
    stops = separators  # each element's last digit
    stops -= 1
    width = int(lengths.max())
    if width > len(str(n - 1)):
        return False
    elements = value[stops].astype(np.int64)
    for place in range(1, width):
        stops -= 1
        elements += np.where(lengths > place, value[stops], 0) * np.int64(10**place)
    if int(elements.max()) >= n:
        return False
    elements *= out.shape[1]
    elements += np.repeat(np.arange(out.shape[1]), elements_per_line)
    out.ravel()[elements] = True
    return np.count_nonzero(out) == elements.size


def loads_dataset(text: str) -> tuple[Dataset, dict]:
    """Parse :func:`dumps_dataset` output.

    A malformed metadata or header line, a wrong number of support lines,
    and a support line holding a non-integer, negative, out-of-range or
    repeated element each raise ``ValueError`` naming the 1-based line; a
    header above ``MAX_DATASET_CELLS`` raises it naming k and n.  A block of
    canonical lines is parsed with numpy; any other block by the reference
    loop :func:`_parse_lines`, so both accept and reject the same text.
    """
    metadata: dict = {}
    pos, number = 0, 1  # offset and 1-based number of the next line

    def next_line() -> str:
        nonlocal pos, number
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        line, pos, number = text[pos:end], end + 1, number + 1
        return line

    while pos < len(text) and text.startswith("#", pos):
        payload = next_line()[1:].strip()
        if payload:
            try:
                entry = json.loads(payload)
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                raise ValueError(f"line {number - 1}: metadata is not a JSON object")
            metadata.update(entry)
    if pos >= len(text):
        raise ValueError("dataset text has no header line")
    line = next_line()
    try:
        n, k = (int(field) for field in line.split())
    except ValueError:
        n = k = -1
    if min(n, k) < 0:
        raise ValueError(f"line {number - 1}: malformed header {line!r}; expected 'n k'")
    check_dataset_size(k, n)
    found = 0 if pos >= len(text) else text.count("\n", pos) + (not text.endswith("\n"))
    if found != k:
        raise ValueError(f"expected {k} support lines, found {found}")
    columns = np.empty((n, -(-k // 8)), dtype=np.uint8)
    for start in range(0, k, _ROW_BLOCK):
        count = min(_ROW_BLOCK, k - start)
        end = pos
        for _ in range(count):
            end = text.find("\n", end) + 1 or len(text)
        block = np.zeros((n, count), dtype=bool)
        try:
            raw = text[pos:end].encode("ascii")
            parsed = _parse_canonical(raw if raw.endswith(b"\n") else raw + b"\n", n, block)
        except UnicodeEncodeError:
            parsed = False
        if not parsed:
            block[:] = False
            lines = text[pos:end].split("\n")[:count]
            _parse_lines(lines, n, number + start, start, block)
        columns[:, start // 8 : (start + count + 7) // 8] = np.packbits(block, axis=1)
        pos = end
    return Dataset.from_columns(columns, k), metadata


def save_dataset(dataset: Dataset, path, metadata: dict | None = None) -> None:
    with open(path, "wb") as fh:
        for block in _encoded_blocks(dataset, metadata):
            fh.write(block)


def load_dataset(path) -> tuple[Dataset, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_dataset(fh.read())


# ---------------------------------------------------------------------------
# Results CSVs: a '# ...' metadata line, the row dataclass's field names, then
# one line per row.  A cell is empty for None and str() of anything else.
# ---------------------------------------------------------------------------


def write_rows(rows: list, path, metadata: dict | None = None) -> None:
    """Write dataclass rows of one type as CSV, headed by their field names."""
    if not rows:
        raise ValueError("no rows to write")
    names = [f.name for f in fields(rows[0])]
    head = _metadata_line(metadata) + "\n" if metadata else ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([getattr(row, name) for name in names] for row in rows)


# Field annotation (a string, under postponed evaluation) -> cell parser.
_PARSERS = {"str": str, "int": int, "float": float, "int | None": lambda t: int(t) if t else None}


def read_rows(path, row_type) -> list:
    """Parse :func:`write_rows` output into ``row_type`` instances, skipping '#' lines.

    A header other than the field names, a row of the wrong width, a cell that
    does not parse as its field's annotation, and a file with no rows each
    raise ``ValueError`` naming the 1-based line.
    """
    columns = fields(row_type)
    names = [f.name for f in columns]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        kept = [(number, line) for number, line in enumerate(fh, 1) if not line.startswith("#")]
    reader = csv.reader(line for _, line in kept)
    if next(reader, None) != names:
        where = kept[0][0] if kept else 1
        raise ValueError(f"line {where}: expected the header {','.join(names)!r}")
    rows = []
    for record in reader:
        where = f"line {kept[reader.line_num - 1][0]}"
        if len(record) != len(names):
            raise ValueError(f"{where}: {len(record)} cells, expected {len(names)}")
        cells = []
        for text, field in zip(record, columns):
            try:
                cells.append(_PARSERS[field.type](text))
            except ValueError:
                raise ValueError(f"{where}: {field.name} {text!r} is not {field.type}") from None
        rows.append(row_type(*cells))
    if not rows:
        raise ValueError(f"line {kept[-1][0]}: no rows after the header")
    return rows
