"""Verification reports: one named check per claim, JSON and text views.

The JSON emitter is deterministic (sorted keys, fixed rounding), and
parse(emit(report)) == report, so reports can be archived and diffed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import __version__ as _tool_version


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

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "CheckResult":
        return cls(
            name=d["name"],
            passed=d["verdict"] == "pass",
            witness=d.get("witness"),
            details=d.get("details"),
            duration_s=d.get("duration_s", 0.0),
        )


def timed_check(name: str, fn: Callable[[], tuple[bool, Any, Any]]) -> CheckResult:
    """Run one check body, which returns ``(passed, witness, details)``,
    and time it; the witness is lowered to JSON."""
    t0 = time.perf_counter()
    passed, witness, details = fn()
    return CheckResult(
        name=name,
        passed=passed,
        witness=witness_json(witness),
        details=details,
        duration_s=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class VerificationReport:
    target: dict[str, Any]
    checks: tuple[CheckResult, ...]
    tool_version: str = field(default=_tool_version)

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
            "tool_version": self.tool_version,
            "overall": "pass" if self.passed else "fail",
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_json_bytes(self) -> bytes:
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
        return (text + "\n").encode("ascii")

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "VerificationReport":
        return cls(
            target=d["target"],
            checks=tuple(CheckResult.from_json_dict(c) for c in d["checks"]),
            tool_version=d.get("tool_version", "unknown"),
        )

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "VerificationReport":
        return cls.from_json_dict(json.loads(data.decode("utf-8")))

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
                lines.append(f"         witness: {_compact(c.witness)}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _compact(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True)
    if len(text) > 200:
        text = text[:197] + "..."
    return text


def witness_json(obj: Any) -> Any:
    """Lower witness objects (cycles, colorings, paths...) to JSON."""
    from .analysis import CycleWitness, PlanarityCertificate

    if obj is None:
        return None
    if isinstance(obj, CycleWitness):
        return {"type": "cycle", "vertices": list(obj.vertices)}
    if isinstance(obj, PlanarityCertificate):
        if obj.planar:
            return {"type": "embedding", "faces": "validated"}
        return {
            "type": "kuratowski",
            "kind": obj.kind,
            "edges": [list(e) for e in obj.obstruction_edges or ()],
        }
    if isinstance(obj, dict):
        return {str(k): witness_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [witness_json(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(witness_json(x) for x in obj)
    return obj
