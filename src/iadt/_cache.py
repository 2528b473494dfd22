"""The format-independent half of the package's parse caches.

`data.load_csv` keeps the parse of a dataset CSV, and `network.load_model`
that of a model file, in an entry ``__iadtcache__/<file name><suffix>``
beside the file (`entry_path`). Every entry starts with its key: a format
line of its loader's own followed by the sha256 of the file's bytes, taken
in one pass (`digest`, `key`). What follows the key is the parse, written
as `_fork.send` writes chunks: a length prefix, the chunks, and a CRC-32
trailer over them (`with_crc`, read back with `head` and `filled`). The
chunks' layout and the checks a hit re-runs are the loader's own.

A loader uses an entry only when its key is the file's current one
(`read`); an entry that is missing, cut short, too long, damaged or of
another format is parsed over. `store` writes an entry atomically, through
a temporary file and `os.replace`, once the file's key has been taken
again after the parse, so an entry never holds a parse of bytes the file no
longer has. Files that are not regular, and files under /dev/ or /proc/,
are never cached; a directory that cannot be written means no caching.
"""

import contextlib
import hashlib
import os
import stat
import struct
import tempfile
import zlib

import numpy as np

from . import _fork

CACHE_DIR = "__iadtcache__"

# The bytes of the sha256 that ends every key.
DIGEST_SIZE = hashlib.sha256().digest_size

# The trailer of an entry's chunks: the CRC-32 of every byte between the
# length prefix and itself.
CRC = struct.Struct("<I")


def entry_path(path, suffix):
    """Where the cache entry of `path` lies, or None when `path` lies under
    /dev/ or /proc/ and so is not cached."""
    absolute = os.path.abspath(path)
    if absolute.startswith(("/dev/", "/proc/")):
        return None
    head, name = os.path.split(absolute)
    return os.path.join(head, CACHE_DIR, name + suffix)


def digest(fh, visit=None):
    """The sha256 digest of the rest of the unbuffered binary file fh, from
    one pass; `visit(chunk, got)`, when given, sees each read: the buffer and
    the count of its bytes that the read filled."""
    found = hashlib.sha256()
    # One reused buffer: a fresh chunk per read would be a new mapping whose
    # pages fault in again. 2^18 bytes scan as fast as 2^20 and add less to
    # the peak resident memory.
    chunk = bytearray(1 << 18)
    with memoryview(chunk) as view:
        while got := fh.readinto(chunk):
            found.update(view[:got])
            if visit is not None:
                visit(chunk, got)
    return found.digest()


def key(path, suffix, fmt):
    """(entry path, key) of `path`, the key being the format line `fmt` and
    the sha256 of the file's bytes; (None, None) when the file is not cached:
    it is no regular file, lies under /dev/ or /proc/, or cannot be read.
    The stat comes first, so a pipe is never read here; the parse reports a
    bad path as it always has."""
    try:
        entry = entry_path(path, suffix)
        if entry is None or not stat.S_ISREG(os.stat(path).st_mode):
            return None, None
        with open(path, "rb", buffering=0) as fh:
            return entry, fmt + digest(fh)
    except (OSError, TypeError, ValueError):
        return None, None


def read(entry, fmt, unpack):
    """The key `entry` was stored under and what `unpack(fd)` makes of the
    rest of it, or (None, None) when the entry is missing, its key is not of
    the format `fmt`, or `unpack` returns None or raises. The caller uses
    the value only if that key is the file's."""
    try:
        with open(entry, "rb", buffering=0) as fh:
            stored = fh.read(len(fmt) + DIGEST_SIZE)
            value = unpack(fh.fileno()) if stored.startswith(fmt) else None
    except Exception:  # the entry is only a copy: whatever is wrong with it, parse the file
        return None, None
    return (None, None) if value is None else (stored, value)


def store(path, entry, key, rekey, chunks):
    """Write `key` and then `chunks` (as `_fork.send` writes them) to `entry`
    atomically, unless `rekey()`, the file's key taken again now, differs
    from `key`: the file changed while it was parsed. A directory that
    cannot be written is left as it is."""
    tmp = None
    try:
        if rekey() != key:
            return
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(entry))
        with os.fdopen(fd, "wb") as fh:
            # The entry holds the file's data, so whoever may read one may read both.
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            fh.write(key)
            fh.flush()
            _fork.send(fd, chunks)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def with_crc(chunks):
    """`chunks` (bytes or C-contiguous arrays, sent as they are, without a
    copy) followed by the `CRC` trailer over all their bytes."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(_fork.byte_view(chunk), crc)
    return [*chunks, CRC.pack(crc)]


def head(fd, fields):
    """The length prefix and the struct `fields` that `_fork.send` wrote
    first to fd, as (announced byte count, the fields, the CRC-32 of the
    fields' bytes), or None when they do not arrive whole."""
    raw = np.empty(_fork.LENGTH.size + fields.size, dtype=np.uint8)
    if not _fork.fill(fd, raw):
        return None
    return (_fork.LENGTH.unpack_from(raw)[0], fields.unpack_from(raw, _fork.LENGTH.size),
            zlib.crc32(raw[_fork.LENGTH.size :]))


def filled(fd, arrays, crc):
    """Whether each of `arrays`, filled in turn from fd, arrived whole, the
    `CRC` trailer that follows them is the CRC-32 of their bytes continuing
    `crc` (that of the bytes read before them), and nothing follows it."""
    for array in arrays:
        if not _fork.fill(fd, array):
            return False
        crc = zlib.crc32(_fork.byte_view(array), crc)
    trailer = np.empty(CRC.size, dtype=np.uint8)
    return _fork.fill(fd, trailer) and CRC.unpack(trailer)[0] == crc and not os.read(fd, 1)
