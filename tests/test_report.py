import pytest

from steinberg import CheckResult, VerificationReport
from steinberg.report import timed_check


def sample_report():
    return VerificationReport(
        target={"n": 5, "m": 4, "canonical_digest": "abc123"},
        checks=(
            CheckResult("first", True, details={"nodes": 7}, duration_s=0.25),
            CheckResult(
                "second",
                False,
                witness={"vertices": (0, 1, 2)},
                duration_s=0.001,
            ),
        ),
    )


def test_passed_requires_every_check():
    r = sample_report()
    assert not r.passed
    ok = VerificationReport(target={}, checks=(CheckResult("x", True),))
    assert ok.passed
    assert VerificationReport(target={}, checks=()).passed


def test_check_lookup():
    r = sample_report()
    assert r.check("second").passed is False
    with pytest.raises(KeyError):
        r.check("missing")


def test_render_text_shape():
    text = sample_report().render_text()
    lines = text.splitlines()
    assert lines[0].startswith("target:")
    assert any(line.startswith("  [PASS] first") for line in lines)
    assert any(line.startswith("  [FAIL] second") for line in lines)
    assert "witness:" in text
    assert lines[-1] == "overall: FAIL"


def test_timed_check_times_the_body_and_keeps_its_witness():
    # a check body hands over its witness as a JSON value, stored as given
    witness = {"3": [1, 2]}
    got = timed_check("sample", lambda: (False, witness, {"k": 1}))
    assert got.name == "sample"
    assert not got.passed
    assert got.witness is witness
    assert got.details == {"k": 1}
    assert got.duration_s >= 0.0
