"""Verification reports."""

from __future__ import annotations

_VIOLATION_CAP = 200


class CheckReport:
    """Outcome of one verifier: pass/fail plus the exact violations found.

    A report starts passing and empty, and each violation added fails it.
    A plain class rather than a dataclass: `dataclasses` imports `inspect`
    and, through it, `ast`, `dis` and `tokenize`, a fixed cost of every
    process that reports a check.
    """

    def __init__(self, check: str, checked: int = 0):
        self.check = check
        self.passed = True
        self.checked = checked
        self.violations = []
        self.details = {}

    def add_violation(self, violation: dict) -> None:
        self.passed = False
        if len(self.violations) < _VIOLATION_CAP:
            self.violations.append(violation)
        else:
            self.details["violations_truncated"] = self.details.get("violations_truncated", 0) + 1

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "pass": self.passed,
            "checked": self.checked,
            "violations": self.violations,
        }
        if self.details:
            out["details"] = self.details
        return out

    def summary(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        tail = "" if self.passed else f", {len(self.violations)} violation(s)"
        return f"{word} {self.check} ({self.checked} checked{tail})"
