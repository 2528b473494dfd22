"""Dataset ingestion and preparation for tabular ROI features.

The on-disk format is a UTF-8 CSV with header
``subject_id,domain,label,<name_1>,...,<name_k>``, one row per subject,
``domain`` in {source, target} (case-insensitive) and ``label`` in
{0, 1, NA}. Row numbers in error messages count data rows, header excluded.
A byte-order mark at the start of the file is skipped.

`load_csv` caches each regular file's parse in ``__iadtcache__/<name>.rows``
beside it: the key (a format line and the sha256 of the file's bytes)
followed by the columns in the packed layout of `_packed`, which ends in a
CRC-32 of them. A reload of unchanged bytes rebuilds the Dataset from the
entry instead of parsing the text; a stale or damaged entry is parsed over.
The entry's path, the sha256 pass, the CRC trailer and the atomic store are
`_cache`'s, shared with `network.load_model`; the layout is this module's.
One pass over the file, `_scan`, takes both the key and the forked parse's
split; a second one checks the key after a parse, before the entry is stored.
From `_THREAD_BYTES` on, the first pass runs on a helper thread while this
thread reads and checks the entry, which is used only once the thread is
joined and its key is the file's (`_scan_and_read`). The thread is joined
before the load returns, raises or forks, so `_fork.can_fork` never sees it.

Every CSV the package writes (`write_csv`, `training.export_latent` and the
CLI's predictions, history and sweep files) goes through one row writer,
`_write_table`: it refuses text that UTF-8 cannot encode before it creates
the file, quotes a field holding a comma, a quote, CR or LF (RFC 4180),
writes floats as their repr and formats and encodes `_BLOCK_ROWS` rows at a
time with one C-level join per row. The floats' text comes from
`_floattext.rows`, which computes repr's digits and layout in numpy; a
`_Masked` block's missing values are written as empty fields. Dataset and
latent files end rows with CRLF, the CLI's other files with LF.

From `_FORK_CELLS` cells (rows x fields) on the writer, and from
`_FORK_BYTES` on the first parse of a file without quotes, splits its work
with one forked child (`_fork.Child`) when `_fork.can_fork` allows: the
child formats the second half of the rows into UTF-8 bytes, which this
process copies unchanged into the file after writing the first half; or it
parses the rows after the first LF past the middle byte and sends them back
in the packed layout while this process parses the header and the first
half (see `_load_csv`). The bytes written, and the Dataset or error of a
parse, are the same either way; any failure of the forked parse sends the
file through the serial parse.
"""

import csv
import io
import math
import os
import re
import stat
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import _cache, _floattext, _fork
from ._cache import CACHE_DIR  # where `load_csv`'s entries lie
from .errors import DimensionError, ParameterError, ParseError
from .roi_names import AAL90

SD_FLOOR = 1e-8

# Rows per block of float64 storage that load_csv parses into, and per
# chunk of text that _write_rows formats.
_BLOCK_ROWS = 4096

# Cells (rows x fields) from which _write_rows formats in two processes; the
# derivation is in its docstring.
_FORK_CELLS = 2**18
# File size from which load_csv parses in two processes; the derivation is in
# `_load_csv`'s docstring.
_FORK_BYTES = 2**21
# File size from which load_csv reads a cache entry while a helper thread
# scans the file; the derivation is in `_scan_and_read`'s docstring.
_THREAD_BYTES = 2**23
# Head of `_packed`'s layout: feature count, name bytes, row count, id bytes.
_HEAD = struct.Struct("<QQQQ")

_DOMAINS = ("source", "target")

# What a str may hold and UTF-8 cannot encode.
_SURROGATE = re.compile("[\ud800-\udfff]")

# Prefix of every cache key; bump it when the entry layout changes.
_CACHE_FORMAT = b"iadt-csv-cache v2\n"


def _frozen(values, dtype):
    """A read-only view of `values` as a `dtype` array (the caller's array stays writable)."""
    out = np.asarray(values, dtype=dtype).view()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Subjects sharing one feature space, stored column by column.

    Row i is subject `ids[i]` of domain `domains[i]` ("source" or "target")
    with label `labels[i]` (0.0, 1.0 or NaN when unlabeled) and features
    `x[i]`. The arrays are validated once here and kept read-only; every
    derived dataset is built by `take` (row selection) or `concat`.
    """

    feature_names: list[str]
    ids: np.ndarray
    domains: np.ndarray
    labels: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        names = list(self.feature_names)
        if len(set(names)) != len(names):
            raise ParameterError("feature names must be unique")
        x = _frozen(self.x, np.float64)
        if x.ndim != 2 or x.shape[1] != len(names):
            raise DimensionError(
                f"features have shape {x.shape}, expected (n_samples, {len(names)})"
            )
        ids = _frozen(self.ids, object)
        domains = _frozen(self.domains, object)
        labels = _frozen(self.labels, np.float64)
        if any(col.shape != (x.shape[0],) for col in (ids, domains, labels)):
            raise DimensionError(
                f"ids, domains and labels must each hold one entry per row ({x.shape[0]})"
            )
        bad = ~np.isin(domains, _DOMAINS)
        if bad.any():
            raise ParameterError(f"unknown domain {domains[bad][0]!r}")
        bad = ~(np.isnan(labels) | (labels == 0.0) | (labels == 1.0))
        if bad.any():
            raise ParameterError(f"label must be 0/1/NaN, got {labels[bad][0]!r}")
        if not np.all(np.isfinite(x)):
            raise ParameterError("features must be finite")
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "x", x)

    def __len__(self):
        return self.x.shape[0]

    @property
    def feature_count(self):
        return len(self.feature_names)

    def take(self, idx):
        """The rows selected by an index array or boolean mask, in that order."""
        return Dataset(
            self.feature_names, self.ids[idx], self.domains[idx], self.labels[idx], self.x[idx]
        )

    def concat(self, other):
        """This dataset's rows followed by `other`'s; feature names must match."""
        if other.feature_names != self.feature_names:
            raise DimensionError("cannot concatenate datasets with different feature names")
        return Dataset(
            self.feature_names,
            np.concatenate([self.ids, other.ids]),
            np.concatenate([self.domains, other.domains]),
            np.concatenate([self.labels, other.labels]),
            np.concatenate([self.x, other.x]),
        )

    def labels_strict(self):
        """Label vector; raises if any sample is unlabeled."""
        missing = np.isnan(self.labels)
        if missing.any():
            raise ParameterError(f"unlabeled samples present: {self.ids[missing][:5].tolist()}")
        return self.labels

    def label_tokens(self):
        """Labels as CSV tokens: "0", "1" or "NA"."""
        return np.where(np.isnan(self.labels), "NA", np.where(self.labels == 1.0, "1", "0"))


def dataset_from_arrays(x, y=None, domain="source", feature_names=None):
    """Build a Dataset from a feature matrix and optional labels.

    Rows get the ids ``<first three letters of domain>_0000`` onward.
    90-dimensional data defaults to the AAL region names; other widths get
    generic ``roi_i`` names.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-D, got shape {x.shape}")
    n, k = x.shape
    if feature_names is None:
        feature_names = list(AAL90) if k == 90 else [f"roi_{i + 1}" for i in range(k)]
    ids = np.char.add(f"{domain[:3]}_", np.char.mod("%04d", np.arange(n)))
    labels = np.full(n, np.nan) if y is None else y
    return Dataset(feature_names, ids, np.full(n, domain, dtype=object), labels, x)


def by_domain(ds):
    """Split a mixed dataset into (source, target) datasets."""
    is_source = ds.domains == "source"
    return ds.take(is_source), ds.take(~is_source)


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean and sample standard deviation (floored at 1e-8)."""

    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        sds = np.asarray(self.sds, dtype=np.float64)
        if means.shape != sds.shape or means.ndim != 1:
            raise DimensionError("means and sds must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sds))):
            raise ParameterError("means and sds must be finite")
        if np.any(sds < SD_FLOOR):
            raise ParameterError(f"sds must be >= {SD_FLOOR}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)


def identity_stats(k):
    """Stats that leave features unchanged (used when standardization is off)."""
    return FeatureStats(means=np.zeros(k), sds=np.ones(k))


def load_csv(path):
    """Parse a dataset file, validating header, domains, labels and features.

    A regular file whose bytes were parsed before is rebuilt from its cache
    entry; pipes, devices and unwritable directories are parsed every time.
    """
    entry, key, split, ds = _scan_and_read(path)
    if ds is not None:
        return ds
    try:
        ds = _load_csv(path, split)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV file ({exc})") from None
    if key is not None:
        _write_entry(path, entry, key, ds)
    return ds


def _scan_and_read(path):
    """`_scan`'s (entry path, key, split) of `path` and the Dataset its entry
    holds under that key, or None when it holds none.

    From `_THREAD_BYTES` on, a regular file is scanned on a helper thread
    while this thread reads the entry, so the sha256 and the entry's reads,
    CRC and Dataset checks overlap. Nothing in the entry is trusted until
    the thread is joined and its key equals the file's; a miss is parsed
    with that one scan's split, so a load still reads the file once before
    the parse. The thread calls nothing but `_scan`, which stats before it
    opens, and is joined before this function returns or raises.

    The cut-over is where the saving first reaches ten times the thread's
    fixed cost, as for `_FORK_BYTES`. On 2 vCPUs, starting and joining the
    thread and handing the interpreter lock between the two threads cost
    about 0.25 ms: a warm load of a 0.1 MiB file took 0.54 ms threaded
    against 0.29 ms serial. The overlap saves about 0.33 ns per byte of the
    file, less than the entry read takes (the entry is about 0.4x the file),
    because the scan waits for the lock while this thread runs Python. So
    the saving reaches 10 x 0.25 ms at about 2.5 ms / 0.33 ns = 7.6 MB, the
    nearest power of two being 2^23. Measured (medians of 81), the thread
    saved 18 % of an 8 MiB warm load and 11 % of a 4 MiB one; below the
    cut-over the scan and the read run one after the other on this thread.
    """
    try:
        info = os.stat(path)
        threaded = stat.S_ISREG(info.st_mode) and info.st_size >= _THREAD_BYTES
        entry = _cache.entry_path(path, ".rows") if threaded else None
    except (OSError, TypeError, ValueError):
        entry = None
    if entry is None:
        entry, key, split = _scan(path)
        stored, ds = (None, None) if key is None else _read_entry(entry)
        return entry, key, split, ds if stored == key else None
    scanned = []

    def scan():
        try:
            scanned.append(_scan(path))
        except BaseException as exc:  # raised again by the joining thread
            scanned.append(exc)

    helper = threading.Thread(target=scan, name="iadt-csv-scan")
    helper.start()
    try:
        stored, ds = _read_entry(entry)
    finally:
        helper.join()
    if isinstance(scanned[0], BaseException):
        raise scanned[0]
    entry, key, split = scanned[0]
    return entry, key, split, ds if stored == key else None


def _scan(path):
    """(entry path, key, split) of `path`, from one stat and one pass over its bytes.

    The key is the cache format line and the sha256 of the bytes
    (`_cache.digest`); it and the entry path are None when the file is not
    cached: it is no regular file or lies under /dev/ or /proc/. `split` is
    where a forked child may start parsing, just past the first LF at or
    after the middle byte, or None when the file is to be parsed serially:
    it is no regular file, is below `_FORK_BYTES`, holds a quote (then an LF
    may sit inside a field) or has no LF in its second half. The pass looks
    for it in the chunks it hashes. Whether a fork may run at all is
    `_load_csv`'s check, made when it parses. The stat comes first, so a
    pipe is never read here; a bad path gives (None, None, None) and the
    parse reports it as it always has.
    """
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode):
            return None, None, None
        entry = _cache.entry_path(path, ".rows")
        middle = info.st_size // 2 if info.st_size >= _FORK_BYTES else None
        if entry is None and middle is None:
            return None, None, None
        split, pos = None, 0

        def find_split(chunk, got):
            nonlocal middle, split, pos
            if middle is not None:
                if chunk.find(b'"', 0, got) >= 0:
                    middle = split = None
                elif split is None and pos + got > middle:
                    at = chunk.find(b"\n", max(middle - pos, 0), got)
                    split = None if at < 0 else pos + at + 1
            pos += got

        with open(path, "rb", buffering=0) as fh:
            digest = _cache.digest(fh, None if middle is None else find_split)
    except (OSError, TypeError, ValueError):
        return None, None, None
    if split == pos:  # the LF ends the file: no second half
        split = None
    return entry, None if entry is None else _CACHE_FORMAT + digest, split


def _pack_text(strings):
    """Strings as one UTF-8 byte blob plus their lengths in code points."""
    blob = "".join(strings).encode("utf-8")
    return np.frombuffer(blob, dtype=np.uint8), np.array([len(s) for s in strings], dtype=np.int64)


def _unpack_text(blob, lengths):
    text = blob.tobytes().decode("utf-8")
    if (lengths < 0).any() or lengths.sum() != len(text):
        raise ValueError("text lengths do not match the blob")
    ends = np.cumsum(lengths)
    return [text[a:b] for a, b in zip((ends - lengths).tolist(), ends.tolist())]


def _read_entry(entry):
    """The key an entry was stored under and the Dataset it holds, or
    (None, None) if the entry is missing or damaged or holds another format.
    The caller uses the Dataset only if that key is the file's."""

    def unpack(fd):
        columns = _unpacked(fd)
        return None if columns is None else _dataset(*columns)

    return _cache.read(entry, _CACHE_FORMAT, unpack)


def _write_entry(path, entry, key, ds):
    """Store a parse atomically under `key`, unless the file changed while it
    was parsed. A directory that cannot be written is left as it is."""
    _cache.store(path, entry, key, lambda: _scan(path)[1],
                 _packed(ds.feature_names, ds.ids, ds.domains == "target", ds.labels, [ds.x]))


def _packed(names, ids, is_target, labels, blocks):
    """`_fork.send`'s chunks for parsed columns, the layout of cache entries
    and of a forked parser's rows: a `_HEAD` of counts, the names and the ids
    as UTF-8 each followed by their lengths, `is_target`, `labels`, the
    feature rows of `blocks` in order, and `_cache.with_crc`'s trailer.
    Arrays are sent as they are, without a copy."""
    name_text, name_lengths = _pack_text(names)
    id_text, id_lengths = _pack_text(ids)
    return _cache.with_crc([_HEAD.pack(len(names), name_text.size, len(ids), id_text.size),
                            name_text, name_lengths, id_text, id_lengths,
                            np.asarray(is_target, dtype=np.bool_),
                            np.asarray(labels, dtype=np.float64), *blocks])


def _unpacked(fd, above=0):
    """The (names, ids, is_target, labels, x) of `_packed`'s chunks as
    `_fork.send` wrote them to fd, or None when the counts disagree with the length
    prefix, fewer or more bytes arrive, the CRC differs or a text does not
    decode. Nothing is allocated before the counts are checked; each array
    is then allocated once at its announced size. x has `above` rows more
    than were sent: the first ones, left for the caller to fill."""
    got = _cache.head(fd, _HEAD)
    if got is None:
        return None
    total, (k, name_bytes, n, id_bytes), crc = got
    # per row: an id length, is_target, a label and k features
    if (total != _HEAD.size + name_bytes + 8 * k + id_bytes + n * (8 + 1 + 8 + 8 * k)
            + _cache.CRC.size):
        return None
    x = np.empty((above + n, k))
    arrays = (np.empty(name_bytes, dtype=np.uint8), np.empty(k, dtype=np.int64),
              np.empty(id_bytes, dtype=np.uint8), np.empty(n, dtype=np.int64),
              np.empty(n, dtype=np.bool_), np.empty(n), x[above:])
    if not _cache.filled(fd, arrays, crc):
        return None
    name_text, name_lengths, id_text, id_lengths, is_target, labels, _ = arrays
    try:
        return (_unpack_text(name_text, name_lengths), _unpack_text(id_text, id_lengths),
                is_target, labels, x)
    except ValueError:  # UnicodeDecodeError included
        return None


def _dataset(names, ids, is_target, labels, x):
    """The Dataset of parsed columns, with one `is_target` bool per row."""
    domains = np.array(_DOMAINS, dtype=object)[np.asarray(is_target, dtype=np.intp)]
    return Dataset(names, ids, domains, labels, x)


def _load_csv(path, split):
    """Parse a dataset file (see `load_csv`), in two processes when `split`,
    from the same `_scan` pass that took the cache key, is not None and
    `_fork.can_fork` allows.

    A forked child then parses the rows from byte `split` on while this
    process parses the first half (`_load_forked`); a None split, a refused
    fork and every case `_load_forked` leaves open take the serial parse.
    The Dataset, or the exception's type and message, is the same either
    way.

    The cut-over is where half the parsing time first reaches ten times the
    fork's fixed cost, as for `_FORK_CELLS`: on 2 vCPUs the parse runs at
    37-40 ns per byte and fork, exit and reap of a 110 MB process take
    2.5-5 ms, so half the parse reaches 10 x 5 ms at about
    2 x 50 ms / 40 ns = 2.5 MB, the nearest power of two being 2^21. Measured
    there (medians of 9), the fork saved 35 % of a 2 MiB parse and 25 % of
    a 1 MiB one; paper-scale files (about 0.8 MB) stay serial.
    """
    if split is not None and _fork.can_fork():
        ds = _load_forked(path, split)
        if ds is not None:
            return ds
    # A leading BOM (Excel's "CSV UTF-8") is dropped; a U+FEFF elsewhere is text.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        names = _read_header(path, reader)
        rows = _Rows(path, names).read(reader)
    x = _assemble(rows.blocks, np.empty((len(rows.ids), len(names))))
    return _dataset(names, rows.ids, rows.is_target, rows.labels, x)


def _assemble(blocks, x):
    """Copy the row blocks of `_Rows` into the first rows of x, in order, and
    return x. Each block is dropped from `blocks` as soon as it is copied:
    the pages of a fresh array are not resident until written, so the
    memory held grows by about one block, never by a second copy of them
    all."""
    at = 0
    while blocks:
        block = blocks.pop(0)
        x[at : at + len(block)] = block
        at += len(block)
    return x


def _read_header(path, reader):
    """The feature names of a CSV's header row."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if len(header) < 4 or header[:3] != ["subject_id", "domain", "label"]:
        raise ParseError(
            f"{path}: header must start with subject_id,domain,label followed by feature names"
        )
    names = header[3:]
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: duplicate feature names in header")
    return names


class _Rows:
    """The data rows of a CSV with feature columns `names`, checked as they are
    read: ids, is_target bools and labels as lists, features in float64 blocks
    of `_BLOCK_ROWS` rows (the last one cut to length), and the sets of ids
    seen in each domain, source first."""

    def __init__(self, path, names):
        self.path, self.names = path, names
        self.ids, self.is_target, self.labels, self.blocks = [], [], [], []
        self.seen = (set(), set())

    def read(self, reader):
        path, names = self.path, self.names
        ids, is_target, labels, blocks = self.ids, self.is_target, self.labels, self.blocks
        seen_in = self.seen
        width, k = len(names) + 3, len(names)
        for row_idx, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"{path}: row {row_idx} has {len(row)} fields, expected {width}")
            subject_id, domain_raw, label_raw = row[0], row[1], row[2]
            domain = domain_raw.strip().lower()
            if domain not in _DOMAINS:
                raise ParseError(
                    f"{path}: row {row_idx}, column domain: unknown domain {domain_raw!r}"
                )
            target = domain == "target"
            label_token = label_raw.strip()
            if label_token.upper() == "NA":
                label = np.nan
            elif label_token in ("0", "1"):
                label = 1.0 if label_token == "1" else 0.0
            else:
                raise ParseError(
                    f"{path}: row {row_idx}, column label: expected 0, 1 or NA, got {label_raw!r}"
                )
            seen = seen_in[target]
            if subject_id in seen:
                raise ParseError(_duplicate_id(path, row_idx, subject_id, domain))
            seen.add(subject_id)
            tokens = row[3:]
            try:
                values = list(map(float, tokens))
            except ValueError:
                for name, token in zip(names, tokens):
                    try:
                        float(token)
                    except ValueError:
                        raise ParseError(f"{path}: row {row_idx}, column {name}: "
                                         f"non-numeric feature value {token!r}") from None
            # a sum of finite values is finite unless it overflows: then look closer
            if not math.isfinite(sum(values)):
                for name, value in zip(names, values):
                    if not math.isfinite(value):
                        raise ParseError(
                            f"{path}: row {row_idx}, column {name}: non-finite feature value"
                        )
            r = len(ids) % _BLOCK_ROWS
            if r == 0:
                blocks.append(np.empty((_BLOCK_ROWS, k)))
            blocks[-1][r] = values
            ids.append(subject_id)
            is_target.append(target)
            labels.append(label)
        if blocks:
            blocks[-1] = blocks[-1][: len(ids) - (len(blocks) - 1) * _BLOCK_ROWS]
        return self


class _Upto(io.RawIOBase):
    """The first `stop` bytes of the unbuffered binary file `raw`."""

    def __init__(self, raw, stop):
        self._raw, self._left = raw, stop

    def readable(self):
        return True

    def readinto(self, buffer):
        got = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= got
        return got


def _load_forked(path, split):
    """The Dataset of `path` with its rows from byte `split` on parsed by a
    forked child, or None where only the serial parse gives its result or
    its exact error.

    Without quotes every LF ends a record, so the two halves hold the same
    records as the whole file. This process parses the header and the rows
    up to `split` through a stream that ends there, as the serial parse
    would, while the child parses the rest and sends it in `_packed`'s
    layout. Any failure in either half (an error in a row, a child that
    fails, short or damaged bytes from it) and a (domain, id) found in both
    halves leave the answer to the serial parse, which stops at the same
    first bad row, so only a file that fails pays for both. The child's
    features arrive straight in the last rows of the one array that then
    takes the first half's blocks, so this process holds no more than the
    serial parse does.
    """
    try:
        with open(path, "rb", buffering=0) as raw, io.TextIOWrapper(
                io.BufferedReader(_Upto(raw, split)), encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            names = _read_header(path, reader)
            with _fork.Child(lambda: _child_rows(path, split, names)) as child:
                head = _Rows(path, names).read(reader)
                tail = _unpacked(child.fd, len(head.ids))
    except Exception:  # the serial parse gives the result or its exact error
        return None
    if tail is None:
        return None
    _, ids, is_target, labels, x = tail
    is_target = is_target.tolist()
    if any(i in head.seen[t] for t, i in zip(is_target, ids)):
        return None
    return _dataset(names, head.ids + ids, head.is_target + is_target,
                    np.concatenate([head.labels, labels]), _assemble(head.blocks, x))


def _child_rows(path, split, names):
    """`_packed`'s chunks for the rows of `path` from byte `split` on."""
    with open(path, "rb") as raw:
        raw.seek(split)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
            rows = _Rows(path, names).read(csv.reader(fh))
    return _packed(names, rows.ids, rows.is_target, rows.labels, rows.blocks)


def _duplicate_id(path, row_idx, subject_id, domain):
    """The error text for a (domain, id) pair seen on an earlier row."""
    return f"{path}: row {row_idx}, column subject_id: duplicate id {subject_id!r} in domain {domain}"


def write_csv(ds, path):
    """Write a dataset in the canonical CSV format (round-trips via load_csv).

    Rows end with CRLF, as csv.writer's default dialect ends them. A dataset
    that load_csv would reject, with no feature column or with an id (as
    text) repeated within a domain, raises ParameterError before the file
    is created.
    """
    if not ds.feature_names:
        raise ParameterError(f"{path}: a dataset CSV needs at least one feature column")
    seen = set()
    for row_idx, key in enumerate(zip(ds.domains, map(str, ds.ids)), start=1):
        if key in seen:
            raise ParameterError(_duplicate_id(path, row_idx, key[1], key[0]))
        seen.add(key)
    _write_labeled(ds, ds.feature_names, ds.x, path)


def _write_labeled(ds, names, x, path):
    """Write ds's id, domain and label columns followed by the columns `names`
    of `x` (one row per row of ds) in write_csv's format."""
    _write_table(path, ["subject_id", "domain", "label", *names],
                 [ds.ids, ds.domains, ds.label_tokens(), x], "\r\n")


@dataclass(frozen=True)
class _Masked:
    """A 2-D float block for `_write_rows` whose values where the boolean
    array `missing` (of its shape) is set are written as empty fields."""

    values: np.ndarray
    missing: np.ndarray
    ndim = 2

    @property
    def shape(self):
        return self.values.shape

    def __len__(self):
        return len(self.values)


def _write_table(path, header, columns, terminator):
    """Write `_write_rows`'s header and rows to the UTF-8 file `path` as
    bytes, so every platform writes the same ones; text that UTF-8 cannot
    encode is refused before the file is created (`_refuse_surrogates`)."""
    _refuse_surrogates(path, header, columns)
    with open(path, "wb") as fh:
        _write_rows(fh, header, columns, terminator)


def _refuse_surrogates(path, header, columns):
    """Raise ParameterError naming the header, or the first text column of
    `_write_rows`'s columns and its first row, that holds a surrogate code
    point: a str may hold one, and UTF-8 cannot encode it. Only non-ASCII
    text is searched."""
    named = [("header", header)]
    at = 0
    for col in columns:
        if getattr(col, "ndim", 1) == 2:
            at += col.shape[1]
        else:
            named.append((f"column {header[at]}", col))
            at += 1
    for where, fields in named:
        fields = _texts(fields)
        text = "".join(fields)
        if not text.isascii() and _SURROGATE.search(text):
            row, field = next((i, f) for i, f in enumerate(fields, start=1)
                              if _SURROGATE.search(f))
            where = where if where == "header" else f"row {row}, {where}"
            raise ParameterError(f"{path}: {where}: {field!r} holds a surrogate code point, "
                                 "which UTF-8 cannot encode")


def _texts(fields):
    """A text column's fields as a list of str, each through `str`. A numpy
    array's items are taken as one list first: `_quoted` on a 4096-row
    label column took 1.67 ms with `str` on each `np.str_`, 0.32 ms so."""
    return list(map(str, fields.tolist() if isinstance(fields, np.ndarray) else fields))


def _quoted(fields):
    """`fields` as strings, each one that holds a comma, a quote, CR or LF
    quoted (RFC 4180), whatever the file's row ending."""
    fields = _texts(fields)
    special = ',"\r\n'
    joined = "".join(fields)
    if not any(c in joined for c in special):
        return fields
    return ['"' + f.replace('"', '""') + '"' if any(c in f for c in special) else f
            for f in fields]


def _write_rows(fh, header, columns, terminator):
    """Write `header` and then one row per row of `columns` to the binary
    file fh as UTF-8, each row ended by `terminator`, with csv.writer's bytes
    for a CRLF file but for the row ending.

    A column is a 1-D sequence of text fields, or a 2-D float block (or a
    `_Masked` one) whose values are written as their repr, the shortest
    text that reads back to the same bits (`_floattext.rows`). Rows are
    formatted and encoded `_BLOCK_ROWS` at a time, so the text held at once
    is one block's. Every row must have at least two fields (csv.writer
    writes a lone empty field as ``""``).

    From `_FORK_CELLS` cells (rows x fields) on, a forked child formats the
    second half of the rows while this process writes the first half (see
    `_write_forked`), unless `_fork.can_fork` says no. The cut-over is
    where the saving first reaches ten times the fork's fixed cost: measured
    on 2 vCPUs in a process of about 110 MB, fork, exit and reap take
    2.8-5.2 ms and formatting takes 0.27-0.31 us per cell (3 text columns
    and 32 to 90 floats), so half the formatting time reaches 10 x 5 ms at
    about 2 x 50 ms / 0.3 us = 333k cells, the nearest power of two being
    2^18. At 2^17 cells, with repr's 0.6-1.0 us per cell, the fork saved
    40 % with a free second CPU and cost 19 % with both processes held to
    one CPU.
    """
    fh.write((",".join(_quoted(header)) + terminator).encode("utf-8"))
    # (column, is a float block); a block without columns adds no field
    columns = [(col, getattr(col, "ndim", 1) == 2) for col in columns]
    columns = [(col, block) for col, block in columns if not block or col.shape[1]]
    n = len(columns[0][0])
    width = sum(col.shape[1] if block else 1 for col, block in columns)
    if n * width >= _FORK_CELLS and _fork.can_fork():
        _write_forked(fh, columns, n, terminator)
    else:
        fh.writelines(_row_bytes(columns, 0, n, terminator))


def _row_bytes(columns, start, stop, terminator):
    """Rows `start` to `stop` of `_write_rows`'s columns as UTF-8, one chunk
    of at most `_BLOCK_ROWS` rows at a time, each row ended by `terminator`.
    Each float block's `_floattext.Layout` serves every chunk of the pass."""
    layouts = [_floattext.Layout(min(stop - start, _BLOCK_ROWS), col.shape[1]) if block
               else None for col, block in columns]
    for lo in range(start, stop, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, stop)
        fields = [_quoted(col[lo:hi]) if not block
                  else _floattext.rows(col.values[lo:hi], col.missing[lo:hi], layout)
                  if isinstance(col, _Masked) else _floattext.rows(col[lo:hi], layout=layout)
                  for (col, block), layout in zip(columns, layouts)]
        yield (terminator.join(map(",".join, zip(*fields))) + terminator).encode("utf-8")


def _write_forked(fh, columns, n, terminator):
    """Write `_write_rows`'s n rows to fh, the second half formatted by a
    forked child.

    The child formats and encodes its whole half before it writes any of it
    to the pipe: streaming would stall it on the pipe buffer until this
    process had formatted the first half, and the halves would run one after
    the other. This process formats and writes the first half, then copies
    the child's bytes into fh unchanged. A child that failed or sent short
    output raises OSError.
    """
    split = n // 2
    with _fork.Child(lambda: list(_row_bytes(columns, split, n, terminator))) as child:
        fh.writelines(_row_bytes(columns, 0, split, terminator))
        sent, received = _fork.copy(child.fd, fh)
    if received != sent:
        raise OSError(f"row formatting process sent {received} of {sent} bytes")


def fit_standardizer(ds):
    """Per-feature mean and n-1 standard deviation of a dataset."""
    if len(ds) < 2:
        raise ParameterError("standardizer needs at least 2 samples")
    means = ds.x.mean(axis=0)
    sds = np.maximum(ds.x.std(axis=0, ddof=1), SD_FLOOR)
    return FeatureStats(means=means, sds=sds)


def apply_standardizer(ds, stats):
    """The z-scores (x - means) / sds of the dataset's features, as a new matrix.

    Raises ParameterError, without numpy warnings, when a z-score overflows.
    """
    return _zscores(ds.x, stats)


def _zscores(x, stats, out=None):
    """The z-scores (x - means) / sds of the feature rows `x`, written into
    `out` when given (rows are independent, so any block of rows gives the
    bits of the whole matrix's same rows).

    Raises ParameterError, without numpy warnings, when a z-score overflows.
    """
    if stats.means.shape[0] != x.shape[1]:
        raise DimensionError(
            f"stats cover {stats.means.shape[0]} features, dataset has {x.shape[1]}"
        )
    with np.errstate(over="ignore"):
        z = np.subtract(x, stats.means, out=out)
        z /= stats.sds
    if not np.isfinite(z).all():
        raise ParameterError("standardized features overflow float64")
    return z


def balancing_index(size, n, seed):
    """Row indices that enlarge `size` rows to exactly n by cycled duplication.

    The rows are shuffled once (seeded) and then cycled, so per-row copy
    counts differ by at most one.
    """
    if size == 0:
        raise ParameterError("cannot duplicate an empty dataset")
    if n < size:
        raise ParameterError(f"n ({n}) must be >= dataset size ({size})")
    order = np.random.default_rng(seed).permutation(size)
    return order[np.arange(n) % size]


def split_stratified(ds, fraction, seed):
    """Split a fully labeled dataset into (taken, rest), stratified by class.

    The first part receives ceil(fraction * n_c) samples of each class c,
    drawn by a seeded shuffle. Parts are disjoint and their union is ds;
    both keep ds's row order.
    """
    if not (0.0 < fraction < 1.0):
        raise ParameterError(f"fraction must be in (0, 1), got {fraction}")
    y = ds.labels_strict()
    rng = np.random.default_rng(seed)
    taken = np.zeros(len(ds), dtype=bool)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size == 0:
            continue
        count = int(np.ceil(fraction * idx.size))
        taken[rng.permutation(idx)[:count]] = True
    return ds.take(taken), ds.take(~taken)


def synth_domains(n_source, n_target, shift, rotation_angle, class_sep, noise_sd,
                  dim, seed):
    """Generate a labeled two-class source/target pair with a controlled shift.

    Both domains are a balanced mixture of two isotropic Gaussians with
    means at +/- (class_sep / 2) along the first axis. Target points are
    additionally rotated by `rotation_angle` in the plane of the first two
    axes and translated by `shift`. Target labels are attached for
    evaluation only.
    """
    if dim < 2:
        raise ParameterError("dim must be >= 2")
    if n_source < 4 or n_target < 4:
        raise ParameterError("need at least 4 samples per domain")
    if n_source % 2 or n_target % 2:
        raise ParameterError("sample counts must be even for balanced classes")
    shift_vec = np.zeros(dim)
    shift_arr = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift_arr.size > dim:
        raise ParameterError(f"shift has {shift_arr.size} entries, dim is {dim}")
    shift_vec[: shift_arr.size] = shift_arr

    rot = np.eye(dim)
    c, s = np.cos(rotation_angle), np.sin(rotation_angle)
    rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c

    rng = np.random.default_rng(seed)

    def draw(n, domain):
        half = n // 2
        y = np.concatenate([np.ones(half), np.zeros(half)])
        means = np.zeros((n, dim))
        means[:, 0] = np.where(y == 1, class_sep / 2.0, -class_sep / 2.0)
        x = means + rng.normal(0.0, noise_sd, size=(n, dim))
        if domain == "target":
            x = x @ rot.T + shift_vec
        return x, y

    # huge class_sep, noise_sd or shift overflow to inf/nan; report that once
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = draw(n_source, "source")
        xt, yt = draw(n_target, "target")
    if not (np.isfinite(xs).all() and np.isfinite(xt).all()):
        raise ParameterError("generated features overflow float64; "
                             "class_sep, noise_sd or shift is too large")
    names = [f"roi_{i + 1}" for i in range(dim)]
    source = dataset_from_arrays(xs, ys, "source", feature_names=names)
    target = dataset_from_arrays(xt, yt, "target", feature_names=names)
    return source, target
