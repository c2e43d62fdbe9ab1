"""Determinism rules (REP1xx) against the known-bad/known-good fixtures."""

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, run_analysis

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "lint_fixtures"

#: Fixture paths are outside the repo's sim paths, so REP102 fixtures
#: opt in by configuring the fixture directory as simulation code.
CONFIG = AnalysisConfig(exclude=(), sim_paths=("lint_fixtures",))

CASES = [
    ("REP101", 4),
    ("REP102", 3),
    ("REP103", 2),
    ("REP104", 2),
    ("REP105", 5),
]


def _lint(path: Path, rule: str):
    return run_analysis([str(path)], CONFIG, select=(rule,))


@pytest.mark.parametrize("rule,expected", CASES)
def test_bad_fixture_fires(rule, expected):
    findings = _lint(FIXTURES / f"{rule.lower()}_bad.py", rule)
    assert len(findings) == expected
    assert all(f.rule == rule for f in findings)
    assert all(f.severity == "error" for f in findings)


@pytest.mark.parametrize("rule,_expected", CASES)
def test_good_fixture_silent(rule, _expected):
    assert _lint(FIXTURES / f"{rule.lower()}_good.py", rule) == []


def test_rep101_names_the_offending_api():
    findings = _lint(FIXTURES / "rep101_bad.py", "REP101")
    messages = "\n".join(f.message for f in findings)
    assert "random.shuffle" in messages
    assert "numpy.random.rand" in messages
    assert "derive_rng" in messages  # points at the sanctioned idiom


def test_rep102_off_outside_sim_paths():
    """The same file is clean when it does not lie on a sim path."""
    config = AnalysisConfig(exclude=(), sim_paths=("repro/runtime",))
    findings = run_analysis([str(FIXTURES / "rep102_bad.py")], config,
                            select=("REP102",))
    assert findings == []


def test_findings_are_positioned_and_sorted():
    findings = _lint(FIXTURES / "rep101_bad.py", "REP101")
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    assert all(f.line >= 1 and f.col >= 1 for f in findings)
    text = findings[0].format()
    assert "rep101_bad.py" in text and "REP101" in text


def test_rep105_off_outside_sim_paths():
    config = AnalysisConfig(exclude=(), sim_paths=("repro/core",))
    assert run_analysis([str(FIXTURES / "rep105_bad.py")], config,
                        select=("REP105",)) == []


def test_rep105_suppression_needs_a_reason(tmp_path):
    """A bare or reasonless suppression leaves REP105 standing; a named
    one with its reason after the bracket silences it."""
    f = tmp_path / "lint_fixtures_tmp.py"
    f.write_text("import numpy as np\n"
                 "a = np.argsort(x)  # repro: ignore\n"
                 "b = np.argsort(x)  # repro: ignore[REP105]\n"
                 "c = np.argsort(x)  # repro: ignore[REP105] x is distinct\n"
                 "d = np.argsort(x)  # repro: ignore[REP104] x is distinct\n")
    config = AnalysisConfig(exclude=(), sim_paths=("lint_fixtures_tmp",))
    findings = run_analysis([str(f)], config, select=("REP105",))
    assert [x.line for x in findings] == [2, 3, 5]
