import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` wraps every binding of ``fn`` in the lipcheck
    modules (``lipcheck.metric.validate``, ``lipcheck.cli.validate``, ...)
    with a counter and returns the list that records one entry per call."""

    def install(fn):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "lipcheck" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
        return calls

    return install
