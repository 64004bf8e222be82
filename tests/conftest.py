"""Suite-wide guards."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leftover_threads():
    """Fail a test that returns while a thread it started is still alive:
    no engine may leave a thread running after it returns."""
    before = set(threading.enumerate())
    yield
    left = [th.name for th in threading.enumerate() if th not in before]
    assert not left, f"threads still alive after the test: {left}"
