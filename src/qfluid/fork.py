"""One call made in a forked child process while the caller goes on.

:func:`beside` is how the package uses a second core: ``qfluid compare``
runs the wave oracle in the child beside the fluid run, ``qfluid run``
writes half of its snapshot files there, and a ``verify`` suite
integrates one lane of its preset runs there (:meth:`RunCache.fill
<qfluid.verify.RunCache.fill>`). The child sends what the call returned,
or what it raised, back through a pipe as a pickle.
"""

from __future__ import annotations

import os
import pickle
import signal

__all__ = ["beside"]


def _outcome(fn) -> bytes:
    """The pickled pair ``(True, fn())``, or ``(False, error)`` for what
    ``fn`` raised. An outcome that will not pickle becomes a
    ChildProcessError that names it and says why."""
    try:
        outcome = (True, fn())
    except Exception as e:
        outcome = (False, e)
    try:
        return pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as e:
        what = "result" if outcome[0] else "error"
        return pickle.dumps((False, ChildProcessError(
            f"the child's {what}, of type {type(outcome[1]).__name__}, "
            f"would not pickle: {type(e).__name__}: {e}")))


def beside(fn):
    """Start ``fn()`` in a forked child process and return the pair
    ``(result, cancel)``, so the caller can work while the child runs.

    ``result()`` waits for the child and returns what ``fn`` returned or
    raises what it raised; ``cancel()`` kills the child with SIGKILL.
    Each reaps the child, and ``cancel()`` after ``result()`` does
    nothing, so a ``finally`` can always call it. A child that dies by a
    signal or without sending its outcome raises ChildProcessError, as
    does an outcome that will not pickle in the child or unpickle here.
    Where ``os.fork`` does not exist, ``result()`` makes the call itself.
    """
    if not hasattr(os, "fork"):
        return fn, (lambda: None)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's code
        code = 1
        try:
            os.close(read)
            blob = _outcome(fn)
            with open(write, "wb") as f:
                f.write(blob)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    pipe, live = open(read, "rb"), [pid]

    def reap(kill: bool) -> int:
        pipe.close()
        if not live:
            return 0
        if kill:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
        live.clear()
        return os.waitstatus_to_exitcode(status)

    def result():
        data = pipe.read()
        code = reap(kill=False)
        if code < 0:
            raise ChildProcessError(f"child process {pid} was killed by "
                                    f"{signal.Signals(-code).name}")
        if code:
            raise ChildProcessError(
                f"child process {pid} exited with status {code}")
        try:
            ok, value = pickle.loads(data)
        except Exception as e:
            raise ChildProcessError(
                f"the outcome of child process {pid} would not unpickle: "
                f"{type(e).__name__}: {e}") from e
        if ok:
            return value
        raise value

    return result, lambda: reap(kill=True)
