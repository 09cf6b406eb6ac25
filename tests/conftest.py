import json
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


@pytest.fixture(scope="session")
def acceptance_report(tmp_path_factory):
    """One ``lipcheck report`` run shared by the acceptance tests: its exit
    code, the JSON report, the markdown summary and the JSON report's path
    (the summary sits beside it with suffix ``.md``)."""
    from lipcheck.cli import main

    path = tmp_path_factory.mktemp("report") / "acc.json"
    code = main(["report", "--out", str(path)])
    report = json.loads(path.read_text(encoding="utf-8"))
    return code, report, path.with_suffix(".md").read_text(encoding="utf-8"), path
