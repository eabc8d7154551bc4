import pytest

from steinberg import CheckResult, VerificationReport
from steinberg.report import timed_check, witness_json


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


def test_json_round_trip_is_exact():
    r = sample_report()
    data = r.to_json_bytes()
    back = VerificationReport.from_json_bytes(data)
    assert back.to_json_bytes() == data
    assert back.passed == r.passed
    assert back.target == r.target
    assert [c.name for c in back.checks] == ["first", "second"]
    assert back.check("first").details == {"nodes": 7}


def test_witness_json_lowers_tuples_and_sets():
    assert witness_json({"a": (1, 2), "b": frozenset({3, 1})}) == {
        "a": [1, 2],
        "b": [1, 3],
    }


def test_render_text_shape():
    text = sample_report().render_text()
    lines = text.splitlines()
    assert lines[0].startswith("target:")
    assert any(line.startswith("  [PASS] first") for line in lines)
    assert any(line.startswith("  [FAIL] second") for line in lines)
    assert "witness:" in text
    assert lines[-1] == "overall: FAIL"


def test_timed_check_times_the_body_and_lowers_the_witness():
    got = timed_check("sample", lambda: (False, {3: (1, 2)}, {"k": 1}))
    assert got.name == "sample"
    assert not got.passed
    assert got.witness == {"3": [1, 2]}
    assert got.details == {"k": 1}
    assert got.duration_s >= 0.0
