"""Tier-1 gate: pass only when the suite fails exactly its designed failures.

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --junitxml=tier1.xml
    python tools/tier1_gate.py tier1.xml

Three acceptance tests fail by design: their bounds disagree with the exact
solution (see ROADMAP.md), and they run and fail on every run.  The gate
reads pytest's JUnit XML report and exits 1 when any other test fails or
errors (collection errors included), when any test is skipped or xfailed,
or when a designed failure passes or does not run; otherwise it exits 0.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

DESIGNED_FAILURES = frozenset(
    {
        "tests.test_acceptance::test_c01_enhancement_bound",
        "tests.test_acceptance::test_c04_mirror_boundary[0.5]",
        "tests.test_acceptance::test_c04_mirror_boundary[1.0]",
    }
)
_OUTCOMES = ("failure", "error", "skipped")


def outcomes(path: str) -> dict[str, set[str]]:
    """{classname::name: the failure, error and skipped tags} of each test case."""
    cases: dict[str, set[str]] = {}
    for case in ET.parse(path).getroot().iter("testcase"):
        tags = cases.setdefault(f"{case.get('classname')}::{case.get('name')}", set())
        tags.update(child.tag for child in case if child.tag in _OUTCOMES)
    return cases


def problems(cases: dict[str, set[str]]) -> list[str]:
    """Every way the report departs from 'only the designed failures fail'."""
    found = [f"{test_id}: did not run" for test_id in sorted(DESIGNED_FAILURES - cases.keys())]
    for test_id, tags in sorted(cases.items()):
        expected = {"failure"} if test_id in DESIGNED_FAILURES else set()
        if tags != expected:
            found.append(f"{test_id}: {', '.join(sorted(tags)) or 'passed'}")
    return found


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: tier1_gate.py REPORT.xml", file=sys.stderr)
        return 2
    cases = outcomes(sys.argv[1])
    found = problems(cases)
    for line in found:
        print(f"tier1 gate: {line}")
    print(
        f"tier1 gate: {len(cases)} tests, {len(DESIGNED_FAILURES)} designed failures, "
        f"{'FAIL' if found else 'ok'}"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
