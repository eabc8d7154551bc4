"""Verification reports: one named check per claim, JSON and text views.

Each check body hands over its witness and details as JSON values, so
this module knows nothing of the objects the checks inspect.  The JSON
emitter is deterministic (``formats.dump_json``, fixed rounding): ASCII,
keys sorted, one item a line indented two spaces a level, ``,`` between
items, ``": "`` after keys, ``{}`` and ``[]`` when empty, a final newline,
the bytes of ``json.dumps(indent=2, sort_keys=True)`` plus ``"\n"``,
so reports can be archived and diffed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable

from . import __version__
from .formats import dump_json


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named check.

    ``witness`` is present exactly when the check fails; ``details``
    optionally carries small always-on evidence such as an UNSAT search
    transcript summary.
    """

    name: str
    passed: bool
    witness: Any = None
    details: dict[str, Any] | None = None
    duration_s: float = 0.0

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "verdict": "pass" if self.passed else "fail",
            "duration_s": round(self.duration_s, 6),
        }
        if self.witness is not None:
            d["witness"] = self.witness
        if self.details is not None:
            d["details"] = self.details
        return d


def timed_check(name: str, fn: Callable[[], tuple[bool, Any, Any]]) -> CheckResult:
    """Run one check body, which returns ``(passed, witness, details)``
    with the witness and details already JSON values, and time it."""
    t0 = time.perf_counter()
    passed, witness, details = fn()
    return CheckResult(
        name=name,
        passed=passed,
        witness=witness,
        details=details,
        duration_s=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class VerificationReport:
    target: dict[str, Any]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "tool_version": __version__,
            "overall": "pass" if self.passed else "fail",
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_json_bytes(self) -> bytes:
        return dump_json(self.to_json_dict())

    def render_text(self) -> str:
        lines = []
        t = self.target
        head = ", ".join(f"{k}={t[k]}" for k in sorted(t))
        lines.append(f"target: {head}")
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.name}"
            if c.duration_s >= 0.0005:
                line += f"  ({c.duration_s:.3f}s)"
            lines.append(line)
            if c.witness is not None:
                lines.append(f"         witness: {witness_text(c.witness)}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def witness_text(obj: Any) -> str:
    """A witness as one line of JSON with sorted keys, cut at 200
    characters: the report text's rendering and the contract refusal's."""
    text = json.dumps(obj, sort_keys=True)
    if len(text) > 200:
        text = text[:197] + "..."
    return text

