"""The one forked child process the package uses, and the pipe it sends through.

`data` splits two jobs across two CPUs with it: a large CSV write, whose
child formats the second half of the rows, and the first parse of a large
CSV, whose child parses the second half of the file. No other module forks,
opens a pipe or sends a signal; which work is split, and from what size
on, is `data`'s decision.

A `Child` runs one function and sends the chunks it returns through a pipe
with `send`: a `LENGTH` prefix, then the chunks' bytes. This process reads
them either with `fill`, an array's worth at a time, or with `copy`, which
copies them unchanged into a binary file.

`can_fork` says whether forking may pay at all: fork exists, this process
may run on more than one CPU and no other thread runs. The package's one
thread, `data`'s scan of a large CSV beside its cache entry read, is
joined before `data` asks. It cannot see whether the second CPU is free.
On a 2-vCPU VM whose neighbours load it, two processes ran from 1.0x to
2.0x the speed of one, varying from minute to minute, and with both
processes held to one CPU a forked write of 2^17 cells took 19 % longer
than the serial one.
"""

import os
import signal
import struct
import threading

import numpy as np

# Length prefix of the bytes `send` writes.
LENGTH = struct.Struct("<Q")


def can_fork():
    """Whether a caller may fork: the platform has fork, this process may run
    on more than one CPU, and no other thread runs (a forked child inherits
    the locks other threads hold, never their owners). Whether the second
    CPU is free is not known."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class Child:
    """A forked process that sends the chunks `work()` returns through a pipe
    (see `send`) and exits.

    Used as a context manager: the block runs in this process with the
    pipe's read end as `fd`. The child touches only what `work` touches and
    the pipe, and always leaves through os._exit, so it never flushes a
    buffer it inherited or returns into the caller. On leaving the block the
    child is killed first if the block raised, then always reaped. The
    block's exception propagates unchanged; a block that finished raises
    OSError naming the child's exit status unless it is 0, that is, unless
    `work` returned and its chunks were sent.
    """

    def __init__(self, work):
        self._work = work

    def __enter__(self):
        r, w = os.pipe()
        try:
            self._pid = os.fork()
        except BaseException:
            os.close(r)
            os.close(w)
            raise
        if self._pid == 0:
            status = 1
            try:
                os.close(r)
                send(w, self._work())
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self.fd = r
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is not None:
                os.kill(self._pid, signal.SIGKILL)
        finally:
            # closed first: a child still writing gets EPIPE, not a wait forever
            os.close(self.fd)
            status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        if exc_type is None and status:
            raise OSError(f"forked process exited with status {status}")


def send(fd, chunks):
    """Write the total byte count of `chunks` (bytes or C-contiguous arrays)
    and then the chunks to the file descriptor fd."""
    views = [byte_view(chunk) for chunk in chunks]
    for view in (byte_view(LENGTH.pack(sum(map(len, views)))), *views):
        while view:
            view = view[os.write(fd, view):]


def fill(fd, array):
    """Read array's bytes from fd; False if the pipe ends first."""
    view = byte_view(array)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def byte_view(buffer):
    """A flat byte view of a bytes object or a C-contiguous array."""
    return memoryview(np.frombuffer(buffer, dtype=np.uint8))


def copy(fd, fh):
    """Copy what `send` wrote to fd, up to end of file, into the binary file
    fh byte for byte.

    Returns the byte count the length prefix announced (None if the prefix
    did not arrive whole) and the count of bytes that followed it.
    """
    head = bytearray(LENGTH.size)
    sent = LENGTH.unpack(head)[0] if fill(fd, head) else None
    received = 0
    while chunk := os.read(fd, 1 << 16):
        received += len(chunk)
        fh.write(chunk)
    return sent, received
