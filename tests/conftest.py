"""Shared test fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def reaps_its_children():
    """Fail a test that leaves a child process unreaped, running or not:
    ``qfluid compare`` forks the oracle, ``qfluid run``'s writer a child
    that writes half the snapshot files, and a verify suite one lane of
    its preset runs; each must wait for its child on every path."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child left
    pytest.fail("the test left a child process unreaped"
                + (f" (pid {pid} exited)" if pid else " (still running)"))
