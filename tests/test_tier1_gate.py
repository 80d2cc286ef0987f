"""tools/tier1_gate.py on synthetic JUnit XML reports."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "tier1_gate", Path(__file__).resolve().parents[1] / "tools" / "tier1_gate.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

PASS = '<testcase classname="tests.test_physics" name="test_ok" time="0.001" />'
SKIP = (
    '<testcase classname="tests.test_physics" name="test_skipped" time="0.000">'
    '<skipped type="pytest.skip" message="r">r</skipped></testcase>'
)
EXTRA_FAILURE = (
    '<testcase classname="tests.test_oracle" name="test_broken" time="0.001">'
    '<failure message="AssertionError">assert 1 == 2</failure></testcase>'
)
COLLECTION_ERROR = (
    '<testcase classname="" name="tests.test_missing" time="0.000">'
    '<error message="collection failure">ModuleNotFoundError</error></testcase>'
)


def designed(passing=()):
    """The three designed failures as test cases; those named in ``passing`` pass."""
    cases = []
    for test_id in sorted(gate.DESIGNED_FAILURES):
        classname, name = test_id.split("::")
        body = "" if test_id in passing else '<failure message="AssertionError">bound</failure>'
        cases.append(f'<testcase classname="{classname}" name="{name}">{body}</testcase>')
    return cases


def run(tmp_path, monkeypatch, cases):
    report = tmp_path / "tier1.xml"
    report.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
        + "".join(cases)
        + "</testsuite></testsuites>"
    )
    monkeypatch.setattr("sys.argv", ["tier1_gate.py", str(report)])
    return gate.main()


def test_exactly_the_designed_failures_pass_the_gate(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, [PASS, *designed()]) == 0
    assert capsys.readouterr().out.endswith("4 tests, 3 designed failures, ok\n")


@pytest.mark.parametrize(
    "extra, passing, line",
    [
        ([EXTRA_FAILURE], (), "tests.test_oracle::test_broken: failure"),
        (
            [],
            ("tests.test_acceptance::test_c01_enhancement_bound",),
            "tests.test_acceptance::test_c01_enhancement_bound: passed",
        ),
        ([SKIP], (), "tests.test_physics::test_skipped: skipped"),
        ([COLLECTION_ERROR], (), "::tests.test_missing: error"),
    ],
    ids=["extra_failure", "designed_failure_passes", "skip", "collection_error"],
)
def test_any_departure_fails_the_gate(tmp_path, monkeypatch, capsys, extra, passing, line):
    assert run(tmp_path, monkeypatch, [PASS, *designed(passing), *extra]) == 1
    out = capsys.readouterr().out
    assert f"tier1 gate: {line}\n" in out and out.endswith("FAIL\n")


def test_missing_designed_failure_fails_the_gate(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, [PASS, *designed()[1:]]) == 1
    assert ": did not run" in capsys.readouterr().out
