"""The forked child of `iadt._fork`: its failure rule, its cleanup when the
block raises, and a forked CSV write whose child's bytes are copied as they
are. conftest.py's autouse fixture fails each test that leaves a child
process behind, so each one also checks that the child was reaped."""

import io
import os
import time

import numpy as np
import pytest

from iadt import _fork, data


def test_failing_work_makes_the_block_raise_oserror_with_its_status():
    def work():
        raise MemoryError

    with pytest.raises(OSError, match="exited with status 1$"):
        with _fork.Child(work) as child:
            assert _fork.copy(child.fd, io.BytesIO()) == (None, 0)


def test_a_raising_block_gets_its_own_exception_and_the_child_is_killed():
    # The child would sleep for a minute; the block's error kills it at once.
    error = ValueError("the block's own")
    start = time.monotonic()
    with pytest.raises(ValueError) as raised:
        with _fork.Child(lambda: time.sleep(60) or []):
            raise error
    assert raised.value is error
    assert time.monotonic() - start < 30


def test_forked_write_with_characters_across_64_kib_boundaries_equals_serial(tmp_path,
                                                                             monkeypatch):
    # Every row is R bytes: an id of W bytes, ",0.5" and LF. Three ASCII
    # bytes of an id are replaced by one 3-byte character, so rows keep
    # their length and the child's half can be laid out in advance: a
    # character straddles each 64 KiB boundary of the child's stream, counted
    # from its length prefix and from the body after it. Where a pipe read
    # ends depends on the kernel, so `copy` also reads the stream from a
    # file, whose reads end exactly at the body's boundaries.
    R, W, boundaries = 1000, 995, 4
    char = "日".encode()
    n = 2 * (boundaries * 2**16 // R + 2)
    split = n // 2
    ids = [bytearray(b"x" * W) for _ in range(n)]
    for k in range(1, boundaries + 1):
        for at in (k * 2**16 - _fork.LENGTH.size, k * 2**16):  # offsets in the body
            row, p = divmod(at, R)
            assert 1 <= p <= W - 2
            ids[split + row][p - 1 : p + 2] = char
    columns = [np.array([i.decode() for i in ids], dtype=object), np.full((n, 1), 0.5)]

    pids, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    monkeypatch.setattr(_fork, "can_fork", lambda: True)

    def written(fork_cells):
        monkeypatch.setattr(data, "_FORK_CELLS", fork_cells)
        buf = io.BytesIO()
        data._write_rows(buf, ["subject_id", "p"], columns, "\n")
        return buf.getvalue()

    forked, serial = written(0), written(2**62)
    assert len(pids) == 1
    assert forked == serial
    body = serial[len(b"subject_id,p\n") + split * R :]
    assert len(body) == (n - split) * R
    stream = _fork.LENGTH.pack(len(body)) + body
    for at in [k * 2**16 + shift for k in range(1, boundaries + 1)
               for shift in (0, _fork.LENGTH.size)]:
        assert stream[at - 1] >= 0x80 and 0x80 <= stream[at] < 0xC0  # inside a character
    path = tmp_path / "stream"
    with open(path, "wb") as fh:
        _fork.send(fh.fileno(), [body])
    copied = io.BytesIO()
    with open(path, "rb") as fh:
        assert _fork.copy(fh.fileno(), copied) == (len(body), len(body))
    assert copied.getvalue() == body
