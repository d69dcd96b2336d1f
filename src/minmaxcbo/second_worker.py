"""The second consensus worker: a process forked for one run, which evaluates every other row block.

``consensus._second_worker`` decides whether a run gets one and imports
this module only then, so a process whose runs fit one block never loads
it.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import sys
import warnings

import numpy as np

from .consensus import _row_blocks
from .objectives import ObjectiveFunction

_CATEGORIES = ("divide", "over", "under", "invalid")  # numpy's error categories, one shared flag each


class Helper:
    """A forked process that evaluates the odd row blocks of each call, with arrays shared with its parent.

    The parent makes an anonymous shared ``mmap`` that holds the ensembles,
    the call's rows of ``row_max``, ``row_arg`` and ``yhat`` and three
    slots: beta, one flag per numpy error category that the caller's
    ``np.geterr()`` does not ignore, and the index of the helper's first
    failing block (-1 when none fails).  Then it forks.  Per call it
    writes the ensembles and the first two slots there and sends the
    helper one byte over a pipe.  The helper evaluates its blocks under an
    errstate that raises in each flagged category and ignores the others,
    with every Python warning raised as an error, writes its rows and the
    failing block, and replies one byte.  It reports no exception: the caller
    evaluates the failing block and the helper's later blocks itself, so
    every error, warning and ``np.seterrcall`` callback comes from the
    caller's own evaluation, as on one worker.  The two sides alternate the
    blocks that one worker steps, each computed as one worker computes it,
    so every result is bitwise that of one worker.

    The helper ignores SIGINT, leaves by ``os._exit`` at EOF of its request
    pipe (also when the parent dies) and never returns into the parent's
    code.  ``close`` reaps it.  A child forked while a helper is open closes
    that helper's pipes, so its copy neither keeps the helper alive nor
    uses it.
    """

    def __init__(self, obj: ObjectiveFunction, xs_shape: tuple[int, ...], ys_shape: tuple[int, ...]):
        self.obj, rows = obj, xs_shape[:-1]
        layout = [(xs_shape, np.float64), (ys_shape, np.float64), (rows, np.float64), (rows, np.intp),
                  ((*rows, ys_shape[-1]), np.float64), ((), np.float64), ((), np.intp),
                  ((len(_CATEGORIES),), np.bool_)]
        buffer = mmap.mmap(-1, sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout))
        views, offset = [], 0
        for shape, dtype in layout:
            views.append(np.frombuffer(buffer, dtype, math.prod(shape), offset).reshape(shape))
            offset += views[-1].nbytes
        self.xs, self.ys, self.row_max, self.row_arg, self.yhat, self.beta, self.failed_block, self.flags = views
        requests_r, self._requests = os.pipe()
        self._replies, replies_w = os.pipe()
        for stream in (sys.stdout, sys.stderr):  # so the child's streams start empty
            with contextlib.suppress(Exception):
                stream.flush()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests_r, self._requests, self._replies, replies_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self._requests)
            os.close(self._replies)
            self._serve(requests_r, replies_w)
        os.close(requests_r)
        os.close(replies_w)
        self._pending = False
        _open_helpers.add(self)

    def _serve(self, requests: int, replies: int) -> None:
        """The helper's loop, in the child: each request's odd blocks, then the reply; never returns."""
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            warnings.simplefilter("error")
            while os.read(requests, 1):
                with np.errstate(**{c: "raise" if flag else "ignore" for c, flag in zip(_CATEGORIES, self.flags)}):
                    failure = _row_blocks(self.obj, self.xs, self.ys, float(self.beta), 1, 2,
                                          self.row_max, self.row_arg, self.yhat)
                self.failed_block[()] = -1 if failure is None else failure[0]
                os.write(replies, b"\0")
        finally:  # EOF of the requests, or a reply the parent no longer reads
            for stream in (sys.stdout, sys.stderr):
                with contextlib.suppress(Exception):
                    stream.flush()
            os._exit(0)

    def fits(self, obj: ObjectiveFunction, xs: np.ndarray, ys: np.ndarray) -> bool:
        """Whether this open helper was made for ``obj`` and ensembles of these shapes."""
        return self.pid is not None and obj is self.obj and xs.shape == self.xs.shape and ys.shape == self.ys.shape

    def call(self, xs: np.ndarray, ys: np.ndarray, beta: float):
        """One call's row_max, row_arg and yhat: the even blocks evaluated here, the odd ones in the helper.

        A block that fails in the helper is evaluated again here, with the
        helper's later blocks.  Raises the exception of the lowest failing
        block once both sides are done, and ChildProcessError when the
        helper is gone.
        """
        self.xs[...], self.ys[...], self.beta[()] = xs, ys, beta
        self.flags[...] = [mode != "ignore" for mode in map(np.geterr().get, _CATEGORIES)]
        self._pending = True
        try:
            os.write(self._requests, b"\0")
        except BrokenPipeError:
            raise self._lost() from None
        mine = _row_blocks(self.obj, xs, ys, beta, 0, 2, self.row_max, self.row_arg, self.yhat)
        if not os.read(self._replies, 1):  # EOF: no reply
            raise self._lost()
        self._pending = False
        block = int(self.failed_block)
        theirs = None if block < 0 else _row_blocks(self.obj, xs, ys, beta, block, 2,
                                                    self.row_max, self.row_arg, self.yhat)
        failures = [f for f in (mine, theirs) if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        return self.row_max, self.row_arg, self.yhat.copy()

    def _lost(self) -> ChildProcessError:
        """Reap a helper that died during a call; the error to raise for it."""
        pid = self.pid
        self.close()
        return ChildProcessError(f"the consensus helper process {pid} exited during a call")

    def close(self) -> None:
        """End and reap the helper: at EOF of its requests when idle, by SIGKILL when a call was cut short."""
        pid = self.pid
        if pid is None:
            return
        self._forget()
        if self._pending:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):  # already reaped, e.g. with SIGCHLD ignored
            os.waitpid(pid, 0)

    def _forget(self) -> None:
        """Close this side's pipes and mark the helper closed, without reaping it."""
        _open_helpers.discard(self)
        os.close(self._requests)
        os.close(self._replies)
        self.pid = None


_open_helpers: set[Helper] = set()


def _forget_open_helpers() -> None:
    for helper in list(_open_helpers):
        helper._forget()


os.register_at_fork(after_in_child=_forget_open_helpers)  # loaded only where os.fork exists
