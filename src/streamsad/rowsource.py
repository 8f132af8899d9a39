"""Row sources: (N, D) float64 data that training reads in fixed-size blocks.

Training sums its statistics block by block (EM counts and moments, LDA scatter, PCA moments,
MLP losses and class embeddings), so what a stage holds at once does not grow with the corpus.
A row source has len(), a row width `dim`, `blocks(size, start, stop)` (rows start..stop-1 in
order, as blocks of `size` rows, the last one shorter) and `rows(index)` (the given rows, in
the given order). Two kinds exist:

- `ArrayRows` wraps an in-memory array; its blocks are slices;
- `SpilledRows` appends rows to a raw float64 file and reads them back with plain file reads
  (`rows`: one `os.preadv` per run of consecutive rows). It never maps the file: mapped pages
  count toward the resident size once touched, so a mapped corpus would grow peak memory again.

Both refuse the same out-of-range requests: `rows` with an index outside 0..N-1 and `blocks`
with a negative start raise IndexError, and `blocks` past row N raises EOFError.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

MAX_RUN_ROWS = 1024  # the most buffers one os.preadv takes: IOV_MAX on Linux, macOS and the BSDs


def _block_stop(count: int, start: int, stop: int | None) -> int:
    """stop (default: count) once rows start..stop-1 are known to exist among count rows."""
    stop = count if stop is None else stop
    if start < 0:
        raise IndexError(f"block start {start} out of range for {count} rows")
    if stop > count:
        raise EOFError(f"rows up to {stop} requested from {count} rows")
    return stop


def _row_index(index, count: int) -> np.ndarray:
    """index as an intp array once every entry is known to be in 0..count-1."""
    index = np.asarray(index, dtype=np.intp)
    if index.size and not (0 <= index.min() and index.max() < count):
        raise IndexError(f"row index out of range for {count} rows")
    return index


class ArrayRows:
    """An in-memory (N, D) array as a row source."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"expected an (n, D) array, got shape {self.data.shape}")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def blocks(self, size: int, start: int = 0, stop: int | None = None):
        stop = _block_stop(len(self), start, stop)
        for i in range(start, stop, size):
            yield self.data[i : min(i + size, stop)]

    def rows(self, index) -> np.ndarray:
        return self.data[_row_index(index, len(self))]


class SpilledRows:
    """Float64 rows of width dim kept in a file at path, appended in any pieces."""

    def __init__(self, path, dim: int):
        self.path = Path(path)
        self.dim = dim
        self.count = 0
        self.path.write_bytes(b"")

    def __len__(self) -> int:
        return self.count

    def append(self, rows) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) rows, got shape {rows.shape}")
        with open(self.path, "ab") as fh:
            fh.write(rows)
        self.count += len(rows)

    def blocks(self, size: int, start: int = 0, stop: int | None = None):
        stop = _block_stop(len(self), start, stop)
        with open(self.path, "rb") as fh:
            fh.seek(start * self.dim * 8)
            for i in range(start, stop, size):
                block = np.empty((min(size, stop - i), self.dim))
                if fh.readinto(block) != block.nbytes:
                    raise EOFError(f"{self.path}: fewer rows than written")
                yield block

    def rows(self, index) -> np.ndarray:
        """The given rows in the given order, read straight into the rows returned."""
        index = _row_index(index, len(self))
        out, order = np.empty((len(index), self.dim)), np.argsort(index)
        wanted, targets = index[order], [out[k] for k in order.tolist()]
        cuts = (np.diff(wanted, prepend=-2) != 1) | (np.arange(len(index)) % MAX_RUN_ROWS == 0)
        starts, width = np.flatnonzero(cuts).tolist(), self.dim * 8
        with open(self.path, "rb", buffering=0) as fh:
            for start, stop in zip(starts, starts[1:] + [len(index)]):
                got = os.preadv(fh.fileno(), targets[start:stop], int(wanted[start]) * width)
                if got != (stop - start) * width:
                    raise EOFError(f"{self.path}: fewer rows than written")
        return out


def as_rows(data):
    """data itself if it is a row source, else the in-memory array as one."""
    return data if isinstance(data, (ArrayRows, SpilledRows)) else ArrayRows(data)
