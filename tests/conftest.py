"""Suite-wide guards, and the hypothesis profile CI loads."""

import os
import threading

import pytest
from hypothesis import settings

# CI (which sets CI) prints, with a falsifying example that random search
# found, the @reproduce_failure blob that replays it; the example counts
# and the random draws stay as they are
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def no_leftover_threads():
    """Fail a test that returns while a thread it started is still alive:
    no engine may leave a thread running after it returns."""
    before = set(threading.enumerate())
    yield
    left = [th.name for th in threading.enumerate() if th not in before]
    assert not left, f"threads still alive after the test: {left}"
