import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrupt import corrupted
from iadt import _fork, data
from iadt.errors import DimensionError, IadtError, ParameterError, ParseError
from iadt.losses import KernelSpec, mmd_sq
from iadt.roi_names import AAL90


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "subject_id,domain,label,roi_1,roi_2,roi_3",
            "a,source,1,1.0,2.0,3.0",
            "b,source,0,4.0,5.0,6.0",
            "c,target,NA,7.0,8.0,9.0",
            "d,Target,1,1.5,2.5,3.5",
        ])
        ds = data.load_csv(f)
        assert len(ds) == 4
        assert ds.feature_count == 3
        assert np.isnan(ds.labels[2])
        assert ds.domains[3] == "target"  # case-insensitive

    def test_non_numeric_feature_names_row(self, tmp_path):
        f = tmp_path / "d.csv"
        rows = ["subject_id,domain,label,roi_1,roi_2"]
        for i in range(1, 10):
            rows.append(f"s{i},source,1,{i}.0,{i}.5")
        rows[7] = "s7,source,1,abc,7.5"
        write_lines(f, rows)
        with pytest.raises(ParseError, match="row 7"):
            data.load_csv(f)

    def test_unknown_domain(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["subject_id,domain,label,roi_1", "a,middle,1,1.0"])
        with pytest.raises(ParseError, match="domain"):
            data.load_csv(f)

    def test_bad_label(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["subject_id,domain,label,roi_1", "a,source,2,1.0"])
        with pytest.raises(ParseError, match="label"):
            data.load_csv(f)

    def test_duplicate_id_within_domain(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "subject_id,domain,label,roi_1",
            "a,source,1,1.0",
            "a,source,0,2.0",
        ])
        with pytest.raises(ParseError, match="duplicate"):
            data.load_csv(f)

    def test_same_id_across_domains_ok(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "subject_id,domain,label,roi_1",
            "a,source,1,1.0",
            "a,target,NA,2.0",
        ])
        assert len(data.load_csv(f)) == 2

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["subject_id,label,roi_1", "a,1,1.0"])
        with pytest.raises(ParseError):
            data.load_csv(f)

    def test_roundtrip(self, tmp_path):
        src, tgt = data.synth_domains(10, 6, [0.5, -0.25], 0.3, 2.0, 0.5, 4, seed=3)
        merged = src.concat(tgt)
        f = tmp_path / "round.csv"
        data.write_csv(merged, f)
        back = data.load_csv(f)
        assert back.feature_names == merged.feature_names
        np.testing.assert_array_equal(back.x, merged.x)
        assert back.ids.tolist() == merged.ids.tolist()
        assert back.domains.tolist() == merged.domains.tolist()
        np.testing.assert_array_equal(back.labels, merged.labels)


def _assert_same_dataset(a, b):
    """Bit-equal columns: x compared as integers, so -0.0 and NaN payloads count."""
    assert a.feature_names == b.feature_names
    assert a.ids.tolist() == b.ids.tolist()
    assert a.domains.tolist() == b.domains.tolist()
    np.testing.assert_array_equal(a.labels.view(np.int64), b.labels.view(np.int64))
    np.testing.assert_array_equal(a.x.view(np.int64), b.x.view(np.int64))


def _entry(path):
    return path.parent / data.CACHE_DIR / (path.name + ".rows")


def _flip(raw, at):
    """raw with the lowest bit of byte `at` flipped."""
    return raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :]


def _one_row_more(raw):
    """A cache entry whose head announces one row more than its length prefix covers."""
    at = len(data._CACHE_FORMAT) + hashlib.sha256().digest_size + _fork.LENGTH.size
    k, name_bytes, n, id_bytes = data._HEAD.unpack_from(raw, at)
    return raw[:at] + data._HEAD.pack(k, name_bytes, n + 1, id_bytes) + raw[at + data._HEAD.size :]


def _no_parse(path, split):
    raise AssertionError(f"{path} was parsed instead of read from the cache")


def _parses(monkeypatch):
    """The paths `load_csv` parses from now on, in order."""
    parsed, parse = [], data._load_csv
    monkeypatch.setattr(data, "_load_csv", lambda p, split: parsed.append(p) or parse(p, split))
    return parsed


class TestLoadCsvCache:
    def _file(self, tmp_path):
        ds = data.Dataset(
            ["räf", "roi\x00"],
            ["α\x00", "b", "c\x00\x00", "日本"],
            ["source", "target", "target", "source"],
            [1.0, np.nan, 0.0, 1.0],
            np.array([[0.1, -0.0], [1e-300, 5e300], [3.0, 4.0], [np.pi, -2.5]]),
        )
        path = tmp_path / "d.csv"
        data.write_csv(ds, path)
        return path, ds

    def test_second_load_is_bit_equal_and_skips_the_parse(self, tmp_path, monkeypatch):
        path, ds = self._file(tmp_path)
        os.chmod(path, 0o640)
        first = data.load_csv(path)
        _assert_same_dataset(first, ds)
        assert os.stat(_entry(path)).st_mode & 0o777 == 0o640
        monkeypatch.setattr(data, "_load_csv", _no_parse)
        _assert_same_dataset(data.load_csv(path), first)
        _assert_same_dataset(data.load_csv(str(path)), first)

    def test_edit_keeping_size_and_mtime_is_picked_up(self, tmp_path):
        path, _ = self._file(tmp_path)
        data.load_csv(path)
        before = os.stat(path)
        path.write_bytes(path.read_bytes().replace(b"3.0,4.0", b"3.5,4.5"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        assert data.load_csv(path).x[2].tolist() == [3.5, 4.5]
        assert data.load_csv(path).x[2].tolist() == [3.5, 4.5]

    def test_file_rewritten_during_the_parse_is_not_cached(self, tmp_path, monkeypatch):
        path, ds = self._file(tmp_path)
        parse = data._load_csv

        def parse_then_edit(p, split):
            parsed = parse(p, split)
            path.write_bytes(path.read_bytes().replace(b"3.0,4.0", b"3.5,4.5"))
            return parsed

        monkeypatch.setattr(data, "_load_csv", parse_then_edit)
        _assert_same_dataset(data.load_csv(path), ds)
        assert not _entry(path).exists()
        monkeypatch.undo()
        assert data.load_csv(path).x[2].tolist() == [3.5, 4.5]

    @pytest.mark.parametrize("damage", [
        lambda raw, ds: raw[: len(raw) // 2],
        lambda raw, ds: b"garbage",
        lambda raw, ds: b"",
        # a feature byte: still a finite float, so only the CRC tells
        lambda raw, ds: raw.replace(ds.x.tobytes(), b"\x00" + ds.x.tobytes()[1:]),
        lambda raw, ds: _one_row_more(raw),
        # still UTF-8 (U+03B1 becomes U+03F1): only the CRC tells
        lambda raw, ds: _flip(raw, raw.index("".join(ds.ids).encode())),
        # the NaN label's payload: still NaN, a label the Dataset accepts
        lambda raw, ds: _flip(raw, raw.index(ds.labels.tobytes()) + 8),
        lambda raw, ds: raw + b"\x00",
    ], ids=["truncated", "garbage", "empty", "crc", "bad-counts", "ids-byte", "labels-byte",
            "trailing-byte"])
    def test_damaged_entry_is_reparsed(self, tmp_path, monkeypatch, damage):
        path, ds = self._file(tmp_path)
        data.load_csv(path)
        entry = _entry(path)
        raw = entry.read_bytes()
        assert raw.count(ds.x.tobytes()) == 1
        damaged = damage(raw, ds)
        assert damaged != raw
        entry.write_bytes(damaged)
        parsed = _parses(monkeypatch)
        _assert_same_dataset(data.load_csv(path), ds)
        _assert_same_dataset(data.load_csv(path), ds)
        assert len(parsed) == 1

    def test_counts_are_checked_before_anything_is_allocated(self, tmp_path):
        # A head that announces 2^40 rows of 2^20 features after a length
        # prefix of one row: numpy could not even allocate that x.
        chunks = data._packed(["a"], ["i"], [False], [0.0], [np.zeros((1, 1))])
        chunks[0] = data._HEAD.pack(2**20, 1, 2**40, 1)
        stream = tmp_path / "stream"
        with open(stream, "wb") as fh:
            _fork.send(fh.fileno(), chunks)
        with open(stream, "rb") as fh:
            assert data._unpacked(fh.fileno()) is None

    def test_entry_of_other_bytes_is_not_used(self, tmp_path):
        path, ds = self._file(tmp_path)
        other = tmp_path / "other" / "d.csv"
        other.parent.mkdir()
        src, tgt = data.synth_domains(4, 4, [0.5], 0.0, 2.0, 0.5, 2, seed=0)
        data.write_csv(src.concat(tgt), other)
        data.load_csv(other)
        _entry(path).parent.mkdir()
        _entry(path).write_bytes(_entry(other).read_bytes())
        _assert_same_dataset(data.load_csv(path), ds)

    def test_read_only_directory_loads_and_writes_no_entry(self, tmp_path, monkeypatch):
        path, ds = self._file(tmp_path)
        os.chmod(tmp_path, 0o555)
        try:
            if os.access(tmp_path, os.W_OK):
                # Permission bits do not bind this user (root): refuse the
                # directory creation as a read-only file system would.
                def refuse(*args, **kwargs):
                    raise PermissionError(30, "Read-only file system")

                monkeypatch.setattr(data.os, "makedirs", refuse)
            _assert_same_dataset(data.load_csv(path), ds)
            _assert_same_dataset(data.load_csv(path), ds)
        finally:
            os.chmod(tmp_path, 0o755)
        assert sorted(os.listdir(tmp_path)) == ["d.csv"]

    def test_v1_entry_is_ignored(self, tmp_path, monkeypatch):
        # An entry of the previous format, np.savez's zip of the same columns
        # under the same file's key, holding other features.
        path, ds = self._file(tmp_path)
        v1 = path.parent / data.CACHE_DIR / (path.name + ".npz")
        v1.parent.mkdir()
        key = b"iadt-csv-cache v1\n" + hashlib.sha256(path.read_bytes()).digest()
        names, name_lengths = data._pack_text(ds.feature_names)
        ids, id_lengths = data._pack_text(ds.ids)
        np.savez(v1, key=np.frombuffer(key, dtype=np.uint8), names=names,
                 name_lengths=name_lengths, ids=ids, id_lengths=id_lengths,
                 is_target=ds.domains == "target", labels=ds.labels, x=ds.x + 1.0)
        v1_bytes = v1.read_bytes()
        parsed = _parses(monkeypatch)
        _assert_same_dataset(data.load_csv(path), ds)
        _assert_same_dataset(data.load_csv(path), ds)
        assert len(parsed) == 1
        assert v1.read_bytes() == v1_bytes
        assert sorted(os.listdir(v1.parent)) == ["d.csv.npz", "d.csv.rows"]

    def test_entry_is_written_without_a_copy_of_x(self, tmp_path):
        # The entry of a small file, written with a 20k x 90 parse (the
        # cohort's size) in place of the file's own.
        path, _ = self._file(tmp_path)
        src, tgt = data.synth_domains(10000, 10000, [0.5], 0.0, 2.0, 0.5, 90, seed=0)
        ds = src.concat(tgt)
        entry, key, _ = data._scan(path)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            data._write_entry(path, entry, key, ds)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # A copy of x would be 14.4 MB; what is left is the file's hash and
        # the packed ids.
        assert peak < ds.x.nbytes / 4
        stored, got = data._read_entry(entry)
        assert stored == key
        _assert_same_dataset(got, ds)

    def test_malformed_csv_raises_same_error_twice_and_leaves_no_entry(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["subject_id,domain,label,roi_1", "a,source,1,1.0", "b,source,1,x"])
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                data.load_csv(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "row 2" in messages[0]
        assert not (tmp_path / data.CACHE_DIR).exists()

    def test_fifo_is_parsed_once_and_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_THREAD_BYTES", 0)
        path, ds = self._file(tmp_path)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        loaded, threads = [], threading.active_count()

        def load():
            try:
                loaded.append(data.load_csv(fifo))
            except Exception as exc:  # reported by the assertion below
                loaded.append(exc)

        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
        reader = threading.Thread(target=load, daemon=True)
        reader.start()
        writer.start()
        writer.join(timeout=10)
        reader.join(timeout=10)
        if reader.is_alive():  # it opened the pipe a second time: end that read
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert not writer.is_alive()
        assert len(loaded) == 1 and isinstance(loaded[0], data.Dataset), loaded
        _assert_same_dataset(loaded[0], ds)
        assert not _entry(fifo).exists()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.parametrize("case", ["hit", "miss", "stale", "damaged", "missing", "directory"])
    def test_no_thread_outlives_the_load(self, tmp_path, monkeypatch, case, threaded):
        # Threaded: every regular file is scanned on a helper thread while
        # the entry is read. The FIFO case is in the test above.
        monkeypatch.setattr(data, "_THREAD_BYTES", 0 if threaded else 2**62)
        path, ds = self._file(tmp_path)
        if case in ("hit", "stale", "damaged"):
            data.load_csv(path)
        if case == "stale":  # the entry holds the bytes before this edit
            path.write_bytes(path.read_bytes().replace(b"3.0,4.0", b"3.5,4.5"))
            ds = data._load_csv(path, None)
        if case == "damaged":
            _entry(path).write_bytes(_entry(path).read_bytes()[:-1])
        path = {"missing": tmp_path / "absent.csv", "directory": tmp_path}.get(case, path)
        threads = threading.active_count()
        if case in ("missing", "directory"):
            with pytest.raises(OSError):
                data.load_csv(path)
        else:
            _assert_same_dataset(data.load_csv(path), ds)
        assert threading.active_count() == threads

    def test_an_error_in_the_scan_thread_is_raised_by_the_load(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_THREAD_BYTES", 0)
        path, _ = self._file(tmp_path)
        threads = threading.active_count()

        def scan(p):
            raise MemoryError("scan")

        monkeypatch.setattr(data, "_scan", scan)
        with pytest.raises(MemoryError, match="scan"):
            data.load_csv(path)
        assert threading.active_count() == threads


def _columns(n=3, k=2):
    """Valid Dataset columns for n rows and k features."""
    return {
        "feature_names": [f"roi_{j + 1}" for j in range(k)],
        "ids": [f"s{i}" for i in range(n)],
        "domains": ["source"] * n,
        "labels": [1.0, 0.0, np.nan][:n],
        "x": np.arange(n * k, dtype=float).reshape(n, k),
    }


class TestDataset:
    @pytest.mark.parametrize("field, value, error", [
        ("feature_names", ["roi_1", "roi_1"], ParameterError),
        ("x", np.zeros((3, 3)), DimensionError),
        ("ids", ["s0", "s1"], DimensionError),
        ("domains", ["source", "middle", "target"], ParameterError),
        ("labels", [1.0, 0.5, 0.0], ParameterError),
        ("x", np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]), ParameterError),
    ])
    def test_invalid_columns_rejected(self, field, value, error):
        cols = _columns()
        cols[field] = value
        with pytest.raises(error):
            data.Dataset(**cols)

    def test_columns_are_read_only(self):
        ds = data.Dataset(**_columns())
        with pytest.raises(ValueError):
            ds.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 0.0

    def test_take_follows_index_order(self):
        ds = data.Dataset(**_columns())
        out = ds.take(np.array([2, 0, 2]))
        assert out.ids.tolist() == ["s2", "s0", "s2"]
        np.testing.assert_array_equal(out.labels, [np.nan, 1.0, np.nan])
        np.testing.assert_array_equal(out.x, ds.x[[2, 0, 2]])

    def test_concat_needs_equal_feature_names(self):
        a = data.Dataset(**_columns())
        b = data.dataset_from_arrays(np.zeros((2, 2)), feature_names=["roi_2", "roi_1"])
        with pytest.raises(DimensionError):
            a.concat(b)


class TestStandardizer:
    def test_two_point_column(self):
        ds = data.dataset_from_arrays(np.array([[0.0], [2.0]]), [1, 0])
        stats = data.fit_standardizer(ds)
        assert stats.means[0] == pytest.approx(1.0)
        assert stats.sds[0] == pytest.approx(np.sqrt(2.0))

    def test_constant_column_floored(self):
        ds = data.dataset_from_arrays(np.array([[5.0], [5.0], [5.0]]), [1, 0, 1])
        stats = data.fit_standardizer(ds)
        assert stats.sds[0] == pytest.approx(1e-8)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 3.0, size=(20, 4))
        ds = data.dataset_from_arrays(x)
        stats = data.fit_standardizer(ds)
        mean_oracle = np.array([sum(col) / 20 for col in x.T])
        var_oracle = np.array([
            sum((v - m) ** 2 for v in col) / 19 for col, m in zip(x.T, mean_oracle)
        ])
        np.testing.assert_allclose(stats.means, mean_oracle, atol=1e-12)
        np.testing.assert_allclose(stats.sds, np.sqrt(var_oracle), atol=1e-12)

    def test_too_few_samples(self):
        ds = data.dataset_from_arrays(np.array([[1.0]]), [1])
        with pytest.raises(ParameterError):
            data.fit_standardizer(ds)

    def test_apply_self_fit_centers(self):
        rng = np.random.default_rng(1)
        ds = data.dataset_from_arrays(rng.normal(5.0, 2.0, size=(15, 3)))
        x = data.apply_standardizer(ds, data.fit_standardizer(ds))
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(x.std(axis=0, ddof=1), 1.0, atol=1e-8)

    def test_identity_stats_noop(self):
        rng = np.random.default_rng(2)
        ds = data.dataset_from_arrays(rng.normal(size=(6, 3)))
        out = data.apply_standardizer(ds, data.identity_stats(3))
        np.testing.assert_array_equal(out, ds.x)

    def test_source_stats_leave_target_off_center(self):
        rng = np.random.default_rng(3)
        src = data.dataset_from_arrays(rng.normal(0.0, 1.0, size=(30, 2)))
        tgt = data.dataset_from_arrays(rng.normal(4.0, 1.0, size=(30, 2)), domain="target")
        out = data.apply_standardizer(tgt, data.fit_standardizer(src))
        assert np.abs(out.mean(axis=0)).min() > 1.0

    def test_length_mismatch(self):
        ds = data.dataset_from_arrays(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            data.apply_standardizer(ds, data.identity_stats(5))

    @pytest.mark.parametrize("value, mean, sd", [(1e301, 0.0, data.SD_FLOOR),
                                                 (-1e308, 1e308, 1.0)])
    def test_overflowing_z_score_raises(self, value, mean, sd):
        ds = data.dataset_from_arrays(np.array([[value, 0.0], [1.0, 0.0]]))
        stats = data.FeatureStats(means=np.array([mean, 0.0]), sds=np.array([sd, 1.0]))
        with pytest.raises(ParameterError, match="^standardized features overflow float64$"):
            data.apply_standardizer(ds, stats)


class TestDuplicateToBalance:
    """`balancing_index`: the rows that regrow the smaller domain by duplication."""

    @staticmethod
    def copies(idx, size):
        """How many times each of the `size` row indices appears in `idx`."""
        return np.bincount(idx, minlength=size)

    def test_copy_counts_two_to_five(self):
        idx = data.balancing_index(2, 5, seed=0)
        assert len(idx) == 5
        assert sorted(self.copies(idx, 2)) == [2, 3]

    def test_same_size_is_permutation(self):
        idx = data.balancing_index(4, 4, seed=1)
        assert sorted(idx) == [0, 1, 2, 3]

    def test_table_sized_counts(self):
        idx = data.balancing_index(76, 360, seed=2)
        assert len(idx) == 360
        counts = self.copies(idx, 76)
        assert set(counts) <= {4, 5}
        assert counts.sum() == 360

    def test_empty_target_rejected(self):
        with pytest.raises(ParameterError):
            data.balancing_index(0, 3, seed=0)

    def test_labels_travel_with_rows(self):
        x = np.arange(5.0)[:, None]
        ds = data.dataset_from_arrays(x, [1, 0, np.nan, 1, 0], domain="target")
        out = ds.take(data.balancing_index(len(ds), 12, seed=4))
        np.testing.assert_array_equal(out.labels, ds.labels[out.x[:, 0].astype(int)])

    def test_n_source_too_small(self):
        with pytest.raises(ParameterError):
            data.balancing_index(4, 3, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_duplicate_size_and_spread_property(size, extra, seed):
    n = size + extra
    idx = data.balancing_index(size, n, seed=seed)
    assert len(idx) == n
    counts = np.bincount(idx, minlength=size)
    assert counts.size == size
    assert counts.min() >= 1
    assert counts.max() - counts.min() <= 1


class TestSplitStratified:
    def _labeled(self, n_pos, n_neg):
        x = np.zeros((n_pos + n_neg, 2))
        y = np.array([1] * n_pos + [0] * n_neg)
        return data.dataset_from_arrays(x, y, domain="target")

    def test_cohort_sized_fraction(self):
        ds = self._labeled(24, 52)
        taken, rest = data.split_stratified(ds, 0.1, seed=0)
        y_taken = taken.labels_strict()
        assert int(y_taken.sum()) == 3
        assert len(taken) == 9  # 3 pos + 6 neg
        assert len(rest) == 67

    def test_half_split(self):
        ds = self._labeled(4, 4)
        taken, rest = data.split_stratified(ds, 0.5, seed=1)
        assert int(taken.labels_strict().sum()) == 2
        assert len(taken) == 4 and len(rest) == 4

    def test_determinism(self):
        ds = self._labeled(10, 14)
        a1 = data.split_stratified(ds, 0.3, seed=7)
        a2 = data.split_stratified(ds, 0.3, seed=7)
        assert a1[0].ids.tolist() == a2[0].ids.tolist()

    def test_unlabeled_rejected(self):
        ds = data.dataset_from_arrays(np.zeros((3, 1)), [1, 0, np.nan], domain="target")
        with pytest.raises(ParameterError):
            data.split_stratified(ds, 0.5, seed=0)

    def test_bad_fraction(self):
        ds = self._labeled(2, 2)
        with pytest.raises(ParameterError):
            data.split_stratified(ds, 1.0, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_split_ceiling_and_disjoint_property(n_pos, n_neg, fraction, seed):
    x = np.zeros((n_pos + n_neg, 1))
    y = np.array([1] * n_pos + [0] * n_neg)
    ds = data.dataset_from_arrays(x, y, domain="target")
    taken, rest = data.split_stratified(ds, fraction, seed=seed)
    y_taken = taken.labels_strict()
    assert int(y_taken.sum()) == int(np.ceil(fraction * n_pos))
    assert len(y_taken) - int(y_taken.sum()) == int(np.ceil(fraction * n_neg))
    ids_taken = set(taken.ids)
    ids_rest = set(rest.ids)
    assert not ids_taken & ids_rest
    assert len(ids_taken | ids_rest) == n_pos + n_neg


class TestSynthDomains:
    def test_identical_distributions_small_mmd(self):
        src, tgt = data.synth_domains(2000, 2000, [0.0], 0.0, 2.0, 0.5, 2, seed=0)
        value = mmd_sq(src.x, tgt.x, KernelSpec("linear"))
        assert value <= 0.05

    def test_separable_data_transfers(self):
        from iadt.baselines import logistic_fit, logistic_predict
        from iadt.evaluation import evaluate_predictions

        src, tgt = data.synth_domains(400, 200, [0.0], 0.0, 6.0, 0.5, 4, seed=1)
        model = logistic_fit(src.x, src.labels_strict())
        probs = logistic_predict(model, tgt.x)
        _, report = evaluate_predictions(tgt.labels_strict().astype(int), probs)
        assert report.bac >= 0.99

    def test_determinism(self):
        a = data.synth_domains(20, 10, [1.0], 0.2, 3.0, 0.6, 5, seed=9)
        b = data.synth_domains(20, 10, [1.0], 0.2, 3.0, 0.6, 5, seed=9)
        np.testing.assert_array_equal(a[0].x, b[0].x)
        np.testing.assert_array_equal(a[1].x, b[1].x)

    def test_balanced_labels(self):
        src, tgt = data.synth_domains(30, 12, [0.0], 0.0, 2.0, 0.5, 3, seed=2)
        assert src.labels_strict().sum() == 15
        assert tgt.labels_strict().sum() == 6

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            data.synth_domains(10, 10, [0.0], 0.0, 1.0, 0.5, 1, seed=0)
        with pytest.raises(ParameterError):
            data.synth_domains(2, 10, [0.0], 0.0, 1.0, 0.5, 3, seed=0)
        with pytest.raises(ParameterError):
            data.synth_domains(11, 10, [0.0], 0.0, 1.0, 0.5, 3, seed=0)


class TestDefaults:
    def test_90_dim_gets_atlas_names(self):
        ds = data.dataset_from_arrays(np.zeros((2, 90)))
        assert ds.feature_names == AAL90
        assert ds.feature_names[66] == "Precuneus left"

    def test_other_widths_get_generic_names(self):
        ds = data.dataset_from_arrays(np.zeros((2, 4)))
        assert ds.feature_names == ["roi_1", "roi_2", "roi_3", "roi_4"]

    def test_by_domain(self):
        src, tgt = data.synth_domains(8, 6, [0.0], 0.0, 2.0, 0.5, 3, seed=4)
        merged = src.concat(tgt)
        back_src, back_tgt = data.by_domain(merged)
        assert len(back_src) == 8 and len(back_tgt) == 6


CSV_TOKENS = [b",", b"\n", b"\r", b'"', b"\x00", b"NA", b"0", b"1", b"source", b"Target",
              b"nan", b"inf", b"1e999", b"roi_1", b"\xff"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_csv_loads_or_raises_iadt_error(tmp_path_factory, data_strategy):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    src, tgt = data.synth_domains(4, 4, [0.5], 0.0, 2.0, 0.5, 2, seed=0)
    data.write_csv(src.concat(tgt), path)
    path.write_bytes(data_strategy.draw(corrupted(path.read_bytes(), CSV_TOKENS)))
    try:
        first = data.load_csv(path)
    except IadtError as exc:
        with pytest.raises(type(exc)) as again:
            data.load_csv(path)
        assert str(again.value) == str(exc)
        assert not _entry(path).exists()
    else:
        _assert_same_dataset(data.load_csv(path), first)


def _csv_writer_reference(header, columns, terminator):
    """The rows as csv.writer writes them for a CRLF file, one row at a time,
    floats as their repr, each row's CRLF then replaced by `terminator`: the
    bytes `_write_rows` must reproduce. So a field with a comma, a quote, CR
    or LF is quoted (RFC 4180) whatever the terminator; csv.writer with an LF
    terminator would leave a bare CR unquoted, and csv.reader would split
    that row in two."""
    rows = [header]
    for i in range(len(columns[0])):
        row = []
        for col in columns:
            if np.ndim(col) == 2:
                row += [repr(v) for v in col[i].tolist()]
            else:
                row.append(col[i])
        rows.append(row)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    text = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        text.append(buf.getvalue()[:-2] + terminator)
    return "".join(text)


# Fields that the writer quotes (comma, quote, CR, LF, under either
# terminator) or passes through (NUL, space, non-ASCII); surrogates cannot
# be encoded, so they are left out.
CSV_TEXT = st.one_of(
    st.sampled_from(["", "a\rb", "\r", "x\ny", "\r\n", "a,b", 'q"q', "\x00", " é日"]),
    st.text(alphabet=st.one_of(st.sampled_from(',"\r\n\x00 éß日'),
                               st.characters(blacklist_categories=("Cs",))),
            max_size=6),
)
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, sys.float_info.max,
                  -sys.float_info.max, 0.1 + 0.2, 1 / 3, 1.0000000000000002,
                  123456789.12345679]
CSV_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False,
                                                                   allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_write_rows_matches_csv_writer(data_strategy):
    draw = data_strategy.draw
    terminator = draw(st.sampled_from(["\r\n", "\n"]))
    n = draw(st.sampled_from([0, 1, 2, 3, data._BLOCK_ROWS - 1, data._BLOCK_ROWS,
                              data._BLOCK_ROWS + 1]))
    header = draw(st.lists(CSV_TEXT, min_size=2, max_size=5))
    kinds = draw(st.lists(st.sampled_from(["text", "label", "floats"]), min_size=2, max_size=5))
    columns = []
    for kind in kinds:
        # a few drawn values cycled over the rows, at a drawn stride
        stride = draw(st.integers(1, 7))
        if kind == "floats":
            width = draw(st.integers(0, 3))
            pool = draw(st.lists(CSV_FLOATS, min_size=1, max_size=8))
            values = [pool[i * stride % len(pool)] for i in range(n * width)]
            columns.append(np.array(values, dtype=np.float64).reshape(n, width))
        else:
            pool = (["0", "1", "NA"] if kind == "label"
                    else draw(st.lists(CSV_TEXT, min_size=1, max_size=5)))
            columns.append(np.array([pool[i * stride % len(pool)] for i in range(n)],
                                    dtype=object))
    # csv.writer writes a row of one empty field as "", which no caller writes
    assume(sum(c.shape[1] if c.ndim == 2 else 1 for c in columns) >= 2)
    _assert_same_text(_written(header, columns, terminator),
                      _csv_writer_reference(header, columns, terminator))


def _assert_same_text(got, want):
    # equal iff both match from the first difference on and have one length; a
    # failure then shows 80 characters, not pytest's diff of two whole files
    at = len(os.path.commonprefix([got, want]))
    assert (got[at:at + 80], len(got)) == (want[at:at + 80], len(want))


def _forking_columns():
    """A header and columns just above `_write_rows`'s fork cut-over: a row
    count that is no multiple of `_BLOCK_ROWS`, ids that need quoting under
    either terminator, a zero-width block and a one-column block."""
    n = 2 * data._BLOCK_ROWS + 5
    k = max(1, -(-data._FORK_CELLS // n) - 4)  # 3 text columns + 1 + k floats
    rng = np.random.default_rng(3)
    pool = ["plain", "s,1", 'q"i', "a\rb", "x\ny", "\r\n", " é日", ""]
    x = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-30, 30, size=(n, k))
    x[:len(SPECIAL_FLOATS), 0] = SPECIAL_FLOATS
    columns = [np.array([f"{pool[i % len(pool)]}{i}" for i in range(n)], dtype=object),
               np.array(["source", "target"] * (n // 2) + ["target"], dtype=object),
               np.array(["0", "1", "NA"] * (n // 3) + ["1"] * (n % 3), dtype=object),
               np.empty((n, 0)), rng.random((n, 1)), x]
    header = ["subject_id", "domain", "label", "prob", *(f"z_{j}" for j in range(k))]
    assert n * (4 + k) >= data._FORK_CELLS
    return header, columns


def _written(header, columns, terminator):
    buf = io.BytesIO()
    data._write_rows(buf, header, columns, terminator)
    return buf.getvalue().decode("utf-8")


@pytest.fixture
def forks(monkeypatch):
    """The pids `os.fork` returned to the parent, with two CPUs allowed."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


class TestForkedRowWriter:
    """`_write_rows` above the fork cut-over. conftest.py's autouse fixture
    fails each of these tests if it leaves a child process behind."""

    @pytest.mark.parametrize("terminator", ["\r\n", "\n"])
    def test_bytes_equal_serial_and_csv_writer(self, tmp_path, monkeypatch, forks, terminator):
        header, columns = _forking_columns()
        forked = _written(header, columns, terminator)
        path = tmp_path / "rows.csv"
        with open(path, "wb") as fh:
            data._write_rows(fh, header, columns, terminator)
        assert len(forks) == 2
        monkeypatch.setattr(data, "_FORK_CELLS", 2**62)
        serial = _written(header, columns, terminator)
        assert len(forks) == 2
        _assert_same_text(forked, serial)
        _assert_same_text(serial, _csv_writer_reference(header, columns, terminator))
        assert path.read_bytes() == serial.encode("utf-8")

    @pytest.mark.parametrize("reason", ["one CPU", "another thread"])
    def test_serial_without_a_second_cpu_or_with_threads(self, monkeypatch, reason):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0} if reason == "one CPU" else {0, 1}, raising=False)
        header, columns = _forking_columns()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if reason == "another thread":
            thread.start()
        try:
            got = _written(header, columns, "\n")
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        _assert_same_text(got, _csv_writer_reference(header, columns, "\n"))

    def test_failing_child_raises_oserror(self, monkeypatch, forks):
        def fail(fd, chunks):
            raise MemoryError

        monkeypatch.setattr(_fork, "send", fail)
        with pytest.raises(OSError, match="exited with status 1"):
            _written(*_forking_columns(), "\n")
        assert len(forks) == 1

    def test_short_child_output_raises_oserror(self, monkeypatch, forks):
        def truncate(fd, chunks):
            body = b"".join(chunks)
            os.write(fd, _fork.LENGTH.pack(len(body)) + body[:10])

        monkeypatch.setattr(_fork, "send", truncate)
        with pytest.raises(OSError, match=r"sent 10 of \d+ bytes"):
            _written(*_forking_columns(), "\n")
        assert len(forks) == 1

    def test_parent_write_error_propagates(self, forks):
        class Full(io.BytesIO):
            def write(self, chunk):
                if self.tell():
                    raise OSError(28, "No space left on device")
                return super().write(chunk)

        with pytest.raises(OSError, match="No space left"):
            data._write_rows(Full(), *_forking_columns(), "\n")
        assert len(forks) == 1


def _parse(path, fork):
    """`_load_csv`'s Dataset or exception, parsed in two processes or serially."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_FORK_BYTES", 0 if fork else 2**62)
        mp.setattr(_fork, "can_fork", lambda: True)
        try:
            return data._load_csv(path, data._scan(path)[2])
        except Exception as exc:
            return exc


def _assert_same_parse(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert isinstance(got, data.Dataset), got
        _assert_same_dataset(got, want)


def _dataset_bytes(n=6, k=2):
    src, tgt = data.synth_domains(n, n, [0.5], 0.0, 2.0, 0.5, k, seed=0)
    buf = io.BytesIO()
    data._write_rows(buf, ["subject_id", "domain", "label", *src.feature_names],
                     [np.concatenate([src.ids, tgt.ids]), ["source"] * n + ["target"] * n,
                      ["1", "0"] * n, np.concatenate([src.x, tgt.x])], "\r\n")
    return buf.getvalue()


BOM = "\ufeff".encode()
# Tokens that change a parse near the split: record ends, a BOM, UTF-8 cut short.
FORK_TOKENS = CSV_TOKENS + [b"\r\n", b"\n\n", BOM, b"\xc3"]


@st.composite
def shuffled_rows(draw):
    """A header and a shuffled subset of a valid file's rows, perhaps with one
    row repeated, up to three tokens spliced in (quotes and undecodable
    bytes more often than the rest) and mixed line ends."""
    lines = _dataset_bytes().split(b"\r\n")[:-1]
    rows = draw(st.permutations(lines[1:]))[:draw(st.integers(0, len(lines) - 1))]
    if rows and draw(st.booleans()):  # an id twice, in one half or across the split
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    out = [lines[0], *rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(out) - 1))
        # at a field's start half the time, where a quote opens a quoted field
        starts = [0] + [j + 1 for j, c in enumerate(out[i]) if c == ord(",")]
        at = draw(st.one_of(st.sampled_from(starts), st.integers(0, len(out[i]))))
        token = draw(st.one_of(st.sampled_from(FORK_TOKENS), st.sampled_from([b'"', b"\xff"])))
        out[i] = out[i][:at] + token + out[i][at:]
    ends = st.sampled_from([b"\r\n", b"\n", b"\r", b"\n\n", b"\r\r\n"])
    return draw(st.sampled_from([b"", BOM])) + b"".join(line + draw(ends) for line in out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forked_parse_equals_serial(tmp_path_factory, data_strategy):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(data_strategy.draw(
        st.one_of(corrupted(_dataset_bytes(), FORK_TOKENS), shuffled_rows())))
    pids = []
    with pytest.MonkeyPatch.context() as mp:
        fork = os.fork
        mp.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
        forked = _parse(path, fork=True)
    serial = _parse(path, fork=False)
    _assert_same_parse(forked, serial)
    raw = path.read_bytes()
    middle = raw.find(b"\n", len(raw) // 2)
    eligible = b'"' not in raw and 0 <= middle < len(raw) - 1
    # a file with a bad header fails before the fork
    assert len(pids) == eligible if isinstance(serial, data.Dataset) else len(pids) <= eligible


class _CountedFile(io.FileIO):
    """A binary file that adds the count of bytes read from it to `read[0]`."""

    def __init__(self, path, read):
        super().__init__(path, "rb")
        self._read = read

    def _counted(self, got):
        self._read[0] += got if isinstance(got, int) else len(got or b"")
        return got

    def read(self, size=-1):
        return self._counted(super().read(size))

    def readall(self):
        return self._counted(super().readall())

    def readinto(self, buffer):
        return self._counted(super().readinto(buffer))


def _reads_of(monkeypatch, path):
    """A one-item list holding the count of bytes that `data` reads from
    `path` in this process from now on; other files are opened as usual."""
    read, builtin_open = [0], open

    def counted_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
        if os.fspath(file) != os.fspath(path):
            return builtin_open(file, mode, buffering, encoding, errors, newline)
        assert mode in ("r", "rb"), mode
        raw = _CountedFile(file, read)
        if mode == "rb":
            return raw if buffering == 0 else io.BufferedReader(raw)
        return io.TextIOWrapper(io.BufferedReader(raw), encoding, errors, newline)

    monkeypatch.setattr(data, "open", counted_open, raising=False)
    return read


@pytest.fixture
def forked_parse(monkeypatch, forks):
    """The pids of forks, with every file parsed in two processes where it may."""
    monkeypatch.setattr(data, "_FORK_BYTES", 0)
    return forks


class TestForkedParse:
    """`_load_csv` above the fork cut-over, which is patched to 0 bytes.
    conftest.py's autouse fixture fails each test that leaves a child."""

    def test_cohort_file_is_bit_equal_to_serial(self, tmp_path, forked_parse):
        path = tmp_path / "d.csv"
        path.write_bytes(_dataset_bytes(n=3000, k=3))
        got = data._load_csv(path, data._scan(path)[2])
        assert len(forked_parse) == 1 and len(got) == 6000
        _assert_same_parse(got, _parse(path, fork=False))

    def test_parent_holds_the_head_and_one_array(self, tmp_path):
        # The rows of a file whose Dataset is known, parsed in two processes.
        # Measured in a fresh process from the end of the first half's
        # parse on, when this process holds the head blocks: the child's
        # rows land in the final feature array and each head block is
        # dropped as it is copied in, so resident memory grows by less than
        # that array (about 0.8 of it here); joining the blocks and the
        # child's rows with np.concatenate grew it by 1.8 times the array.
        # glibc's mmap threshold is fixed so that a freed block goes back to
        # the system, and numpy's huge-page advice is off so that the kernel
        # maps only the pages that are written.
        n, k = 32768, 90
        path = tmp_path / "d.csv"
        features = ",".join(["1.5"] * k)
        with open(path, "w") as fh:
            fh.write("subject_id,domain,label," + ",".join(f"r{j}" for j in range(k)) + "\n")
            fh.writelines(f"s{i},{('source', 'target')[i % 2]},{i % 2},{features}\n"
                          for i in range(n))
        probe = textwrap.dedent("""
            import sys
            import numpy as np
            from iadt import _fork, data

            np._core.multiarray._set_madvise_hugepage(False)

            def kib(field):
                # this process's own counters: ru_maxrss would include the
                # memory of the process that started it
                with open("/proc/self/status") as fh:
                    line = next(line for line in fh if line.startswith(field + ":"))
                return int(line.split()[1]) * 1024

            receive, at_head = data._unpacked, []
            data._unpacked = lambda *args: at_head.append(kib("VmRSS")) or receive(*args)
            data._FORK_BYTES, _fork.can_fork = 0, lambda: True
            ds = data._load_csv(sys.argv[1], data._scan(sys.argv[1])[2])
            peak = kib("VmHWM")
            same = (ds.ids.tolist() == [f"s{i}" for i in range(len(ds))]
                    and ds.domains.tolist() == ["source", "target"] * (len(ds) // 2)
                    and ds.labels.tolist() == [0.0, 1.0] * (len(ds) // 2)
                    and bool((ds.x == 1.5).all()))
            print(len(at_head), same, len(ds), ds.x.nbytes, peak - at_head[0])
        """)
        env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072",
                   PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        forks, same, rows, nbytes, growth = result.stdout.split()
        assert (forks, same, rows, nbytes) == ("1", "True", str(n), str(n * k * 8))
        assert int(growth) < int(nbytes), int(growth) / int(nbytes)

    @pytest.mark.parametrize("fault", ["failing", "short", "corrupt"])
    def test_failed_child_gives_the_serial_result(self, tmp_path, monkeypatch, forked_parse,
                                                  fault):
        send = _fork.send

        def failing(fd, chunks):
            raise MemoryError

        def short(fd, chunks):
            body = b"".join(_fork.byte_view(c).tobytes() for c in chunks)
            os.write(fd, _fork.LENGTH.pack(len(body)) + body[:-8])

        def corrupt(fd, chunks):
            # one byte of the child's features flipped after the CRC was taken
            at = next(i for i, c in enumerate(chunks) if getattr(c, "ndim", 0) == 2)
            block = chunks[at].copy()
            block.view(np.uint8)[0] ^= 1
            send(fd, [*chunks[:at], block, *chunks[at + 1 :]])

        path = tmp_path / "d.csv"
        path.write_bytes(_dataset_bytes(n=50))
        monkeypatch.setattr(_fork, "send", {"failing": failing, "short": short,
                                            "corrupt": corrupt}[fault])
        got = data._load_csv(path, data._scan(path)[2])
        assert len(forked_parse) == 1
        _assert_same_parse(got, _parse(path, fork=False))

    def test_id_in_both_halves_raises_the_serial_error(self, tmp_path, forked_parse):
        lines = _dataset_bytes(n=50).split(b"\r\n")
        lines[-2] = lines[1]  # the first source row again, as the last row
        path = tmp_path / "d.csv"
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ParseError, match="row 100, column subject_id: duplicate id"):
            data._load_csv(path, data._scan(path)[2])
        assert len(forked_parse) == 1

    def test_error_in_the_first_half_takes_the_serial_error(self, tmp_path, forked_parse):
        lines = _dataset_bytes(n=50).split(b"\r\n")
        lines[3] = lines[3].replace(b",1,", b",2,", 1)
        path = tmp_path / "d.csv"
        path.write_bytes(b"\r\n".join(lines))
        serial = _parse(path, fork=False)
        assert isinstance(serial, ParseError) and "row 3, column label" in str(serial)
        _assert_same_parse(_parse(path, fork=True), serial)
        assert len(forked_parse) == 1

    def test_undecodable_bytes_past_the_split_take_the_serial_error(self, tmp_path,
                                                                   forked_parse):
        lines = _dataset_bytes(n=4).split(b"\r\n")
        lines[4] = lines[4].replace(b",source,", b",middle,")  # the first half's last row
        lines[5] = b"\xff" + lines[5]
        path = tmp_path / "d.csv"
        path.write_bytes(b"\r\n".join(lines))
        serial = _parse(path, fork=False)
        assert isinstance(serial, UnicodeDecodeError)
        _assert_same_parse(_parse(path, fork=True), serial)

    @pytest.mark.parametrize("reason", ["quote", "FIFO", "one CPU", "another thread"])
    def test_no_fork(self, tmp_path, monkeypatch, forked_parse, reason):
        if reason == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        raw = _dataset_bytes(n=50)
        if reason == "quote":
            raw = raw.replace(b"sou_0007", b'"sou_0007"')
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if reason == "FIFO":
            monkeypatch.setattr(_fork, "can_fork", lambda: True)
            path = tmp_path / "pipe.csv"
            os.mkfifo(path)
            thread = threading.Thread(target=path.write_bytes, args=(raw,))
        if reason in ("FIFO", "another thread"):
            thread.start()
        try:
            got = data._load_csv(path, data._scan(path)[2])
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(got) == 100 and "sou_0007" in got.ids.tolist()
        assert forked_parse == []

    def test_large_cold_load_forks_once_the_scan_thread_is_joined(self, tmp_path, forks):
        # At the real cut-overs and under the real `_fork.can_fork`, which
        # says no while another thread runs: the scan thread of a file above
        # both is joined before the parse decides to fork.
        raw = _dataset_bytes(n=2500, k=90)
        assert len(raw) >= max(data._FORK_BYTES, data._THREAD_BYTES) and b'"' not in raw
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        forks.clear()  # the forked write of the bytes above
        threads = threading.active_count()
        cold = data.load_csv(path)
        assert len(forks) == 1 and len(cold) == 5000
        _assert_same_dataset(data.load_csv(path), cold)
        assert len(forks) == 1 and threading.active_count() == threads

    def test_file_is_read_once_before_the_parse(self, tmp_path, monkeypatch, forked_parse):
        # A cold load reads the whole file in the scan that takes its key and
        # split, the first half in this process's parse, and the whole file
        # again to check the key before the entry is stored; a cached load
        # reads it in the scan alone. The child's reads are its own.
        raw = _dataset_bytes(n=50)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        monkeypatch.setattr(_fork, "can_fork", lambda: True)
        read = _reads_of(monkeypatch, path)
        cold = data.load_csv(path)
        assert len(forked_parse) == 1
        split = raw.index(b"\n", len(raw) // 2) + 1
        assert read == [2 * len(raw) + split]
        read[0] = 0
        _assert_same_dataset(data.load_csv(path), cold)
        assert read == [len(raw)] and len(forked_parse) == 1

    def test_scan_thread_reads_the_file_once_before_the_parse(self, tmp_path, monkeypatch,
                                                              forked_parse):
        # As above with every scan on the helper thread and the real
        # `_fork.can_fork`: a miss is parsed with that scan's split, not
        # scanned again, and the fork waits for the thread.
        monkeypatch.setattr(data, "_THREAD_BYTES", 0)
        raw = _dataset_bytes(n=50)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        read = _reads_of(monkeypatch, path)
        cold = data.load_csv(path)
        assert len(forked_parse) == 1
        split = raw.index(b"\n", len(raw) // 2) + 1
        assert read == [2 * len(raw) + split]
        read[0] = 0
        _assert_same_dataset(data.load_csv(path), cold)
        assert read == [len(raw)] and len(forked_parse) == 1

    @pytest.mark.parametrize("fork", [False, True])
    def test_leading_bom_is_skipped_and_a_later_one_kept(self, tmp_path, fork):
        raw = _dataset_bytes(n=50)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        plain = _parse(path, fork)
        at = raw.index(b"\n", len(raw) // 2) + 1  # where the second half starts
        path.write_bytes(BOM + raw[:at] + BOM + raw[at:])
        bommed = path.read_bytes()
        assert bommed.index(b"\n", len(bommed) // 2) + 1 == at + len(BOM)
        got = _parse(path, fork)
        assert isinstance(got, data.Dataset), got
        changed = [i for i, (a, b) in enumerate(zip(got.ids, plain.ids)) if a != b]
        assert len(changed) == 1 and got.ids[changed[0]] == "\ufeff" + plain.ids[changed[0]]
        _assert_same_dataset(got.take(np.arange(len(got)) != changed[0]),
                             plain.take(np.arange(len(plain)) != changed[0]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_write_csv_load_csv_round_trip_is_bit_equal(tmp_path_factory, data_strategy):
    draw = data_strategy.draw
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, 3))
    ds = data.Dataset(
        draw(st.lists(CSV_TEXT, min_size=k, max_size=k, unique=True)),
        draw(st.lists(CSV_TEXT, min_size=n, max_size=n, unique=True)),
        draw(st.lists(st.sampled_from(["source", "target"]), min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from([0.0, 1.0, np.nan]), min_size=n, max_size=n)),
        np.array(draw(st.lists(CSV_FLOATS, min_size=n * k, max_size=n * k))).reshape(n, k),
    )
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    data.write_csv(ds, path)
    _assert_same_dataset(data.load_csv(path), ds)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_write_csv_raises_or_round_trips_bit_equal(tmp_path_factory, data_strategy):
    # Ids are compared as the text written, so the int 1 and "1" repeat each
    # other; a file load_csv would reject (no feature column, or an id
    # repeated within a domain) is refused before it exists. The ids are
    # distinct as text, and at most one of them is then repeated.
    draw = data_strategy.draw
    ids = draw(st.lists(st.one_of(CSV_TEXT, st.sampled_from(["s1", "1", 1])),
                        max_size=8, unique_by=str))
    domains = draw(st.lists(st.sampled_from(["source", "target"]),
                            min_size=len(ids), max_size=len(ids)))
    if ids and draw(st.booleans()):
        repeated = draw(st.sampled_from(ids))
        ids.append(draw(st.sampled_from([repeated, str(repeated)])))
        domains.append(draw(st.sampled_from(["source", "target"])))
    n, k = len(ids), draw(st.integers(0, 3))
    ds = data.Dataset(
        draw(st.lists(CSV_TEXT, min_size=k, max_size=k, unique=True)),
        ids,
        domains,
        draw(st.lists(st.sampled_from([0.0, 1.0, np.nan]), min_size=n, max_size=n)),
        np.array(draw(st.lists(CSV_FLOATS, min_size=n * k, max_size=n * k))).reshape(n, k),
    )
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    try:
        data.write_csv(ds, path)
    except ParameterError:
        assert not path.exists()
        return
    as_text = data.Dataset(ds.feature_names, list(map(str, ds.ids)), ds.domains, ds.labels, ds.x)
    _assert_same_dataset(data.load_csv(path), as_text)


def test_write_csv_refuses_what_load_csv_rejects(tmp_path):
    path = tmp_path / "d.csv"
    ds = data.Dataset(["roi_1"], ["s1", "s1", "s1"], ["source", "target", "source"],
                      [0.0, 1.0, 0.0], np.zeros((3, 1)))
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: row 3, column subject_id: duplicate id "
                                             "'s1' in domain source$"):
        data.write_csv(ds, path)
    with pytest.raises(ParameterError, match="at least one feature column"):
        data.write_csv(data.Dataset([], ["s1"], ["source"], [0.0], np.zeros((1, 0))), path)
    assert not path.exists()


@pytest.mark.parametrize("case", ["serial", "forked", "header"])
def test_write_csv_refuses_a_surrogate_before_the_file_exists(tmp_path, monkeypatch, forks, case):
    # A str may hold a lone surrogate, which UTF-8 cannot encode. The forked
    # case is 3000 x 50 features, above the fork cut-over, with the surrogate
    # in the child's half; the refusal comes before any fork.
    n, k = (3000, 50) if case == "forked" else (2, 1)
    assert case != "forked" or n * (k + 3) >= data._FORK_CELLS
    ds = data.dataset_from_arrays(np.zeros((n, k)), [0.0, 1.0] * (n // 2))
    ids, names = ds.ids.tolist(), ds.feature_names
    if case == "header":
        names = ["r\udc80", *names[1:]]
    else:
        ids[-1] = "\ud800"
    monkeypatch.setattr(_fork, "can_fork", lambda: True)
    path = tmp_path / "d.csv"
    where = "header: 'r\\udc80'" if case == "header" else f"row {n}, column subject_id: '\\ud800'"
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{path}: {where}')} holds a surrogate"):
        data.write_csv(data.Dataset(names, ids, ds.domains, ds.labels, ds.x), path)
    assert not path.exists()
    assert forks == []
