from collections import OrderedDict

import pytest

from permac import point


@pytest.fixture
def fresh_memos(monkeypatch):
    """Start the test with an empty per-point store; the old store comes back
    afterwards, so nothing the test builds leaks into later tests.  Returns a
    function that swaps in another empty store, to start cold again."""
    def reset():
        monkeypatch.setattr(point, "_store", OrderedDict())

    reset()
    return reset
