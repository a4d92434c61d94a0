"""The forked call: outcomes cross the pipe whole, or fail by name."""

import os
import threading

import pytest

from qfluid.fork import beside
from qfluid.madelung import SolverAbort


def raises(error):
    def call():
        raise error
    return call


class TwoArgumentError(Exception):
    """Pickles, but its args do not rebuild it."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def test_beside_returns_the_value_and_cancel_after_result_does_nothing():
    result, cancel = beside(lambda: {"lanes": [1, 2]})
    assert result() == {"lanes": [1, 2]}
    cancel()


def test_solver_abort_crosses_the_pipe_whole():
    abort = SolverAbort("vacuum", "density floor crossed at t=0.25", 0.25)
    result, cancel = beside(raises(abort))
    try:
        with pytest.raises(SolverAbort) as info:
            result()
    finally:
        cancel()
    assert (info.value.kind, str(info.value), info.value.t) == \
        ("vacuum", "density floor crossed at t=0.25", 0.25)


@pytest.mark.parametrize("fn,match", [
    (threading.Lock, r"child's result, of type lock, would not pickle"),
    (raises(ValueError(threading.Lock())),
     r"child's error, of type ValueError, would not pickle"),
])
def test_an_outcome_that_will_not_pickle_is_named(fn, match):
    result, cancel = beside(fn)
    try:
        with pytest.raises(ChildProcessError, match=match):
            result()
    finally:
        cancel()


def test_an_outcome_that_will_not_unpickle_is_named():
    result, cancel = beside(raises(TwoArgumentError("vacuum", 0.25)))
    try:
        with pytest.raises(ChildProcessError,
                           match="would not unpickle: TypeError: .*where"):
            result()
    finally:
        cancel()


def test_without_fork_the_call_is_made_when_its_result_is_asked(monkeypatch):
    monkeypatch.delattr(os, "fork")
    calls = []
    result, cancel = beside(lambda: calls.append(os.getpid()) or "done")
    assert calls == []
    assert result() == "done" and calls == [os.getpid()]
    cancel()
