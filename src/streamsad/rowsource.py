"""Row sources: (N, D) float64 data that training reads in fixed-size blocks.

Training sums its statistics block by block (EM counts and moments, LDA
scatter, PCA moments, MLP losses and class embeddings), so what a stage
holds at once does not grow with the corpus. A row source has len(), a row
width `dim`, `blocks(size, start, stop)` (rows start..stop-1 in order, as
blocks of `size` rows, the last one shorter) and `rows(index)` (the given
rows, in the given order). Two kinds exist:

- `ArrayRows` wraps an in-memory array; its blocks are slices;
- `SpilledRows` appends rows to a raw float64 file and reads them back
  with plain file reads. It never maps the file: mapped pages count toward
  the resident size once touched, so a mapped corpus would grow the
  process's peak memory with the corpus again.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


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
                yield self._read(fh, min(size, stop - i))

    def rows(self, index) -> np.ndarray:
        index = np.asarray(index, dtype=np.intp)
        if index.size and not (0 <= index.min() and index.max() < len(self)):
            raise IndexError(f"row index out of range for {len(self)} rows")
        out = np.empty((len(index), self.dim))
        width = self.dim * 8
        with open(self.path, "rb", buffering=0) as fh:
            for k, i in enumerate(index.tolist()):
                fh.seek(i * width)
                if fh.readinto(out[k]) != width:
                    raise EOFError(f"{self.path}: fewer rows than written")
        return out

    def _read(self, fh, n: int) -> np.ndarray:
        block = np.empty((n, self.dim))
        if fh.readinto(block) != block.nbytes:
            raise EOFError(f"{self.path}: fewer rows than written")
        return block


def as_rows(data):
    """data itself if it is a row source, else the in-memory array as one."""
    return data if isinstance(data, (ArrayRows, SpilledRows)) else ArrayRows(data)
