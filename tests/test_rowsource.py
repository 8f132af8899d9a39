import mmap
import os
import tracemalloc

import numpy as np
import pytest

from streamsad import rowsource
from streamsad.rowsource import ArrayRows, SpilledRows, as_rows


@pytest.fixture
def data():
    return np.random.default_rng(3).standard_normal((23, 5))


@pytest.fixture
def spilled(tmp_path, data):
    store = SpilledRows(tmp_path / "rows.f64", 5)
    for piece in (data[:1], data[1:1], data[1:9], data[9:]):
        store.append(piece)
    return store


class TestArrayRows:
    def test_blocks_are_slices_in_order(self, data):
        rows = ArrayRows(data)
        blocks = list(rows.blocks(7))
        assert [len(b) for b in blocks] == [7, 7, 7, 2]
        assert all(np.shares_memory(b, data) for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), data)

    def test_range_and_rows(self, data):
        rows = ArrayRows(data)
        assert [len(b) for b in rows.blocks(4, 3, 12)] == [4, 4, 1]
        np.testing.assert_array_equal(np.concatenate(list(rows.blocks(4, 3, 12))), data[3:12])
        np.testing.assert_array_equal(rows.rows([5, 0, 5]), data[[5, 0, 5]])
        assert (len(rows), rows.dim) == (23, 5)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match=r"\(n, D\)"):
            ArrayRows(np.zeros(4))

    def test_as_rows_passes_sources_through(self, data, spilled):
        rows = ArrayRows(data)
        assert as_rows(rows) is rows and as_rows(spilled) is spilled
        assert isinstance(as_rows(data), ArrayRows)


@pytest.mark.parametrize("kind", ["array", "spilled"])
def test_out_of_range_requests_are_refused_alike(kind, data, spilled):
    # an array slice or index would wrap a negative row and cut a block short at the end
    source = ArrayRows(data) if kind == "array" else spilled
    for index in ([-1], [23], [0, 5, 24], [-23]):
        with pytest.raises(IndexError):
            source.rows(index)
    with pytest.raises(IndexError):
        list(source.blocks(2, -1))
    for start, stop in [(0, 24), (20, 30), (23, 24)]:
        with pytest.raises(EOFError):
            list(source.blocks(2, start, stop))
    assert [len(b) for b in source.blocks(2, 20, 23)] == [2, 1]


class TestSpilledRows:
    def test_file_holds_raw_float64_rows(self, spilled, data):
        assert (len(spilled), spilled.dim) == (23, 5)
        assert spilled.path.read_bytes() == data.astype("<f8").tobytes()

    @pytest.mark.parametrize("size", [1, 4, 23, 100])
    def test_blocks_equal_the_array_blocks(self, spilled, data, size):
        for start, stop in [(0, None), (3, 12), (22, 23), (5, 5)]:
            got = list(spilled.blocks(size, start, stop))
            want = list(ArrayRows(data).blocks(size, start, stop))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_rows_in_any_order(self, spilled, data):
        index = [22, 0, 7, 7, 13]
        np.testing.assert_array_equal(spilled.rows(index), data[index])
        assert spilled.rows([]).shape == (0, 5)
        with pytest.raises(IndexError):
            spilled.rows([23])
        with pytest.raises(IndexError):
            spilled.rows([-1])

    @pytest.mark.parametrize("index", [[], [4], [4, 5, 6, 7], [7, 6, 5, 4, 5], [22, 0, 21, 1, 0, 11, 12],
                                       list(range(23))[::-1], [9, 9, 9]])
    def test_rows_equal_the_array_rows(self, spilled, data, index):
        # unsorted, repeated, adjacent and empty requests
        want = ArrayRows(data).rows(index)
        got = spilled.rows(np.array(index, dtype=np.intp))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_rows_read_each_run_of_consecutive_rows_once(self, spilled, data, monkeypatch):
        reads = []
        preadv = os.preadv

        def counted(fd, buffers, offset):
            reads.append((offset, sum(memoryview(b).nbytes for b in buffers)))
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", counted)
        index = np.random.default_rng(5).permutation(23)[:19]
        np.testing.assert_array_equal(spilled.rows(index), data[index])
        runs = np.count_nonzero(np.diff(np.sort(index), prepend=-2) != 1)
        assert len(reads) == runs < len(index)
        assert sum(n for _, n in reads) == index.size * 5 * 8
        assert [offset for offset, _ in reads] == sorted(offset for offset, _ in reads)

    def test_long_runs_are_split_at_max_run_rows(self, spilled, data, monkeypatch):
        reads = []
        preadv = os.preadv

        def counted(fd, buffers, offset):
            reads.append(len(buffers))
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", counted)
        monkeypatch.setattr(rowsource, "MAX_RUN_ROWS", 4)
        for index in (np.arange(23), np.arange(23)[::-1], np.arange(3, 12)):
            reads.clear()
            np.testing.assert_array_equal(spilled.rows(index), data[index])
            assert reads == [4] * (len(index) // 4) + [len(index) % 4] * (len(index) % 4 > 0)

    def test_rows_hold_nothing_but_the_requested_rows(self, tmp_path):
        store = SpilledRows(tmp_path / "rows.f64", 256)
        store.append(np.random.default_rng(6).standard_normal((400, 256)))
        index = np.random.default_rng(7).permutation(400)[:300]
        tracemalloc.start()
        try:
            rows = store.rows(index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 600 KB of rows returned, a view per row and the sorted index
        assert peak < 1.2 * rows.nbytes

    def test_append_checks_width(self, spilled):
        with pytest.raises(ValueError, match=r"\(n, 5\)"):
            spilled.append(np.zeros((2, 4)))
        with pytest.raises(ValueError, match=r"\(n, 5\)"):
            spilled.append(np.zeros(5))
        assert len(spilled) == 23

    def test_any_input_layout_is_stored_as_float64(self, tmp_path, data):
        store = SpilledRows(tmp_path / "rows.f64", 5)
        store.append(np.asfortranarray(data[::2]).astype(np.float32))
        np.testing.assert_array_equal(store.rows(range(12)), data[::2].astype(np.float32))

    def test_reads_are_plain_file_reads(self, spilled, data, monkeypatch):
        # mapped pages count toward the resident size once touched
        def refuse(*args, **kwargs):
            raise AssertionError("the store must not map its file")

        monkeypatch.setattr(mmap, "mmap", refuse)
        monkeypatch.setattr(np, "memmap", refuse)
        np.testing.assert_array_equal(np.concatenate(list(spilled.blocks(6))), data)
        np.testing.assert_array_equal(spilled.rows([4, 2]), data[[4, 2]])

    def test_truncated_file_is_an_error(self, spilled):
        with open(spilled.path, "r+b") as fh:
            fh.truncate(8 * 5 * 20)
        with pytest.raises(EOFError, match="fewer rows"):
            list(spilled.blocks(10))
        with pytest.raises(EOFError, match="fewer rows"):
            spilled.rows([21])
