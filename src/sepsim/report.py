"""Verification report model shared by all construction verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest


@dataclass
class CheckResult:
    """Outcome of one named invariant check.

    name identifies the invariant; detail carries the counterexample
    (stage, actor, element) when the check failed.
    """

    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        if self.passed:
            return f"check {self.name} pass"
        return f"check {self.name} fail {self.detail}".rstrip()


def first_counterexample(name, violations, template) -> CheckResult:
    """The check `name`: it passes when `violations` is empty, and otherwise
    fails naming the first violation, a tuple, filled into `template`."""
    if violations:
        return CheckResult(name, False, template.format(*violations[0]))
    return CheckResult(name, True)


def first_divergence(recorded, fresh) -> str:
    """'' when two record sequences are equal; otherwise the first record that
    differs, numbered from 1 and shown as its fields joined by spaces (a
    sequence that ends early shows `end` there)."""
    for i, (got, want) in enumerate(zip_longest(recorded, fresh, fillvalue=("end",))):
        if got != want:
            got, want = (" ".join(map(str, rec)) for rec in (got, want))
            return f"record {i + 1}: {got} (fresh run: {want})"
    return ""


@dataclass
class VerificationReport:
    construction: str
    scenario_hash: str
    checks: list[CheckResult] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = ["sepsim-report 1"]
        lines.append(f"construction {self.construction}")
        lines.append(f"scenariohash {self.scenario_hash}")
        for c in self.checks:
            lines.append(c.line())
        for cv in self.caveats:
            lines.append(f"caveat {cv}")
        lines.append(f"result {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"
