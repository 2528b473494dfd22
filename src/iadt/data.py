"""Dataset ingestion and preparation for tabular ROI features.

The on-disk format is a UTF-8 CSV with header
``subject_id,domain,label,<name_1>,...,<name_k>``, one row per subject,
``domain`` in {source, target} (case-insensitive) and ``label`` in
{0, 1, NA}. Row numbers in error messages count data rows, header excluded.

`load_csv` caches each regular file's parse in ``__iadtcache__/<name>.npz``
beside it, keyed by the sha256 of the file's bytes; a reload of unchanged
bytes rebuilds the Dataset from the entry instead of parsing the text.
"""

import contextlib
import csv
import hashlib
import os
import stat
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, ParameterError, ParseError
from .roi_names import AAL90

SD_FLOOR = 1e-8

# Rows per block of float64 storage that load_csv parses into.
_BLOCK_ROWS = 4096

_DOMAINS = ("source", "target")

CACHE_DIR = "__iadtcache__"

# Prefix of every cache key; bump it when the entry layout changes.
_CACHE_FORMAT = b"iadt-csv-cache v1\n"


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


def dataset_from_arrays(x, y=None, domain="source", ids=None, feature_names=None):
    """Build a Dataset from a feature matrix and optional labels.

    90-dimensional data defaults to the AAL region names; other widths get
    generic ``roi_i`` names.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-D, got shape {x.shape}")
    n, k = x.shape
    if feature_names is None:
        feature_names = list(AAL90) if k == 90 else [f"roi_{i + 1}" for i in range(k)]
    if ids is None:
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
    entry, key = _cache_slot(path)
    if key is not None:
        ds = _read_entry(entry, key)
        if ds is not None:
            return ds
    try:
        ds = _load_csv(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV file ({exc})") from None
    if key is not None:
        _write_entry(path, entry, key, ds)
    return ds


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.digest()


def _cache_slot(path):
    """(entry path, key) of a regular file; (None, None) when it is not cached."""
    try:
        path = os.path.abspath(path)
        if path.startswith(("/dev/", "/proc/")) or not stat.S_ISREG(os.stat(path).st_mode):
            return None, None
        key = _CACHE_FORMAT + _sha256(path)
    except (OSError, TypeError, ValueError):
        return None, None  # the parse reports a bad path as it always has
    head, name = os.path.split(path)
    return os.path.join(head, CACHE_DIR, name + ".npz"), key


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


_ENTRY_ARRAYS = {
    "key": (np.uint8, 1),
    "names": (np.uint8, 1),
    "name_lengths": (np.int64, 1),
    "ids": (np.uint8, 1),
    "id_lengths": (np.int64, 1),
    "is_target": (np.bool_, 1),
    "labels": (np.float64, 1),
    "x": (np.float64, 2),
}


def _read_entry(entry, key):
    """The Dataset cached under `key`, or None if the entry is missing, stale or damaged."""
    try:
        with np.load(entry, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in _ENTRY_ARRAYS}
        for name, (dtype, ndim) in _ENTRY_ARRAYS.items():
            if arrays[name].dtype != dtype or arrays[name].ndim != ndim:
                return None
        if arrays["key"].tobytes() != key:
            return None
        return Dataset(
            _unpack_text(arrays["names"], arrays["name_lengths"]),
            _unpack_text(arrays["ids"], arrays["id_lengths"]),
            np.array(_DOMAINS, dtype=object)[arrays["is_target"].astype(np.intp)],
            arrays["labels"],
            arrays["x"],
        )
    except Exception:  # the entry is only a copy: whatever is wrong with it, parse the CSV
        return None


def _write_entry(path, entry, key, ds):
    """Store a parse atomically under `key`, unless the file changed while it
    was parsed. A directory that cannot be written is left as it is."""
    tmp = None
    try:
        if _CACHE_FORMAT + _sha256(path) != key:
            return
        names, name_lengths = _pack_text(ds.feature_names)
        ids, id_lengths = _pack_text(ds.ids)
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(entry))
        with os.fdopen(fd, "wb") as fh:
            # The entry holds the file's data, so whoever may read one may read both.
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            np.savez(
                fh, key=np.frombuffer(key, dtype=np.uint8), names=names,
                name_lengths=name_lengths, ids=ids, id_lengths=id_lengths,
                is_target=ds.domains == "target", labels=ds.labels, x=ds.x,
            )
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _load_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) < 4 or header[:3] != ["subject_id", "domain", "label"]:
            raise ParseError(
                f"{path}: header must start with subject_id,domain,label followed by feature names"
            )
        feature_names = header[3:]
        if len(set(feature_names)) != len(feature_names):
            raise ParseError(f"{path}: duplicate feature names in header")
        k = len(feature_names)
        ids, domains, labels, blocks = [], [], [], []
        seen = set()
        for row_idx, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_idx} has {len(row)} fields, expected {len(header)}"
                )
            subject_id, domain_raw, label_raw = row[0], row[1], row[2]
            domain = domain_raw.strip().lower()
            if domain not in _DOMAINS:
                raise ParseError(
                    f"{path}: row {row_idx}, column domain: unknown domain {domain_raw!r}"
                )
            label_token = label_raw.strip()
            if label_token.upper() == "NA":
                label = np.nan
            elif label_token in ("0", "1"):
                label = float(label_token)
            else:
                raise ParseError(
                    f"{path}: row {row_idx}, column label: expected 0, 1 or NA, got {label_raw!r}"
                )
            key = (domain, subject_id)
            if key in seen:
                raise ParseError(
                    f"{path}: row {row_idx}, column subject_id: duplicate id {subject_id!r} in domain {domain}"
                )
            seen.add(key)
            r = len(ids) % _BLOCK_ROWS
            if r == 0:
                blocks.append(np.empty((_BLOCK_ROWS, k)))
            feats = blocks[-1][r]
            for j, token in enumerate(row[3:]):
                try:
                    feats[j] = float(token)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_idx}, column {feature_names[j]}: "
                        f"non-numeric feature value {token!r}"
                    ) from None
            if not np.all(np.isfinite(feats)):
                j = int(np.argmax(~np.isfinite(feats)))
                raise ParseError(
                    f"{path}: row {row_idx}, column {feature_names[j]}: non-finite feature value"
                )
            ids.append(subject_id)
            domains.append(domain)
            labels.append(label)
    if blocks:
        blocks[-1] = blocks[-1][: len(ids) - (len(blocks) - 1) * _BLOCK_ROWS]
    x = np.concatenate(blocks) if blocks else np.empty((0, k))
    return Dataset(feature_names, ids, domains, labels, x)


def write_csv(ds, path):
    """Write a dataset in the canonical CSV format (round-trips via load_csv)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "domain", "label"] + list(ds.feature_names))
        for sid, domain, label, row in zip(ds.ids, ds.domains, ds.label_tokens(), ds.x):
            writer.writerow([sid, domain, label] + [repr(v) for v in row.tolist()])


def fit_standardizer(ds):
    """Per-feature mean and n-1 standard deviation of a dataset."""
    if len(ds) < 2:
        raise ParameterError("standardizer needs at least 2 samples")
    means = ds.x.mean(axis=0)
    sds = np.maximum(ds.x.std(axis=0, ddof=1), SD_FLOOR)
    return FeatureStats(means=means, sds=sds)


def apply_standardizer(ds, stats):
    """Return a copy of the dataset with features replaced by z-scores."""
    if stats.means.shape[0] != ds.feature_count:
        raise DimensionError(
            f"stats cover {stats.means.shape[0]} features, dataset has {ds.feature_count}"
        )
    return replace(ds, x=(ds.x - stats.means) / stats.sds)


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


def duplicate_to_balance(ds, n, seed):
    """Enlarge a dataset to exactly n rows by cycled duplication
    (`balancing_index`). Ids and labels travel with their rows."""
    return ds.take(balancing_index(len(ds), n, seed))


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

    xs, ys = draw(n_source, "source")
    xt, yt = draw(n_target, "target")
    names = [f"roi_{i + 1}" for i in range(dim)]
    source = dataset_from_arrays(xs, ys, "source", feature_names=names)
    target = dataset_from_arrays(xt, yt, "target", feature_names=names)
    return source, target
