"""The eleven-point acceptance suite, one pass/fail line per criterion."""

import pytest

from lipcheck import acceptance, freespace


@pytest.mark.parametrize(
    "index",
    range(len(acceptance.CRITERIA)),
    ids=[f"criterion_{i:02d}" for i in range(1, len(acceptance.CRITERIA) + 1)],
)
def test_criterion(acceptance_report, index):
    row = acceptance_report[1]["criteria"][index]
    assert row["id"] == index + 1
    assert row["passed"], row


def test_criterion_7_runs_one_transport_per_element(count_calls):
    """Each nonzero element of criterion 7 is solved by one transport: the
    free norm and its certificate come from the same solve."""
    calls = count_calls(freespace._transport)
    row = acceptance.criterion_7()
    assert row["passed"]
    assert len(calls) == 231


def test_markdown_summary_shape():
    stub = {
        "seed": 1,
        "backend": "fractions",
        "passed": False,
        "criteria": [
            {"id": 1, "title": "alpha", "passed": True},
            {"id": 2, "title": "beta", "passed": False},
        ],
    }
    text = acceptance.markdown_summary(stub)
    lines = text.splitlines()
    assert lines[0] == "# Acceptance suite"
    assert "- overall: FAIL" in lines
    assert "| 1 | alpha | pass |" in lines
    assert "| 2 | beta | FAIL |" in lines
