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
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

MAX_RUN_ROWS = 1024  # the most buffers one os.preadv takes: IOV_MAX on Linux, macOS and the BSDs


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
        stop = len(self) if stop is None else stop
        for i in range(start, stop, size):
            yield self.data[i : min(i + size, stop)]

    def rows(self, index) -> np.ndarray:
        return self.data[np.asarray(index, dtype=np.intp)]


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
        stop = len(self) if stop is None else stop
        with open(self.path, "rb") as fh:
            fh.seek(start * self.dim * 8)
            for i in range(start, stop, size):
                block = np.empty((min(size, stop - i), self.dim))
                if fh.readinto(block) != block.nbytes:
                    raise EOFError(f"{self.path}: fewer rows than written")
                yield block

    def rows(self, index) -> np.ndarray:
        """The given rows in the given order, read straight into the rows returned."""
        index = np.asarray(index, dtype=np.intp)
        if index.size and not (0 <= index.min() and index.max() < len(self)):
            raise IndexError(f"row index out of range for {len(self)} rows")
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
