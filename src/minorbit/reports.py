"""Structured verification reports shared by all check suites."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


class SpanError(ValueError):
    """An element could not be expanded in the model basis."""


class ModelInvariantError(RuntimeError):
    """A structural invariant of a graded model failed."""


class QuadratureError(RuntimeError):
    """A quadrature did not converge, or a K value or integral is not finite."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: Any = 0
    exact: bool = True
    samples: int | None = None
    inconclusive: bool = False
    detail: str = ""
    # Monte Carlo statistics: the estimate, its standard error, and the
    # signed z of the estimate against the value the identity predicts
    estimate: float | None = None
    stderr: float | None = None
    z: float | None = None

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": _plain(self.residual),
            "exact": bool(self.exact),
        }
        if self.samples is not None:
            d["samples"] = int(self.samples)
        if self.inconclusive:
            d["inconclusive"] = True
        if self.detail:
            d["detail"] = self.detail
        for key in ("estimate", "stderr", "z"):
            value = getattr(self, key)
            if value is not None:
                d[key] = float(value)
        return d


def _plain(x):
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if hasattr(x, "numerator") and hasattr(x, "denominator") and not isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, *args, **kwargs) -> CheckResult:
        res = CheckResult(*args, **kwargs)
        self.checks.append(res)
        return res

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def inconclusive(self) -> bool:
        return any(c.inconclusive for c in self.checks)

    @property
    def hard_failed(self) -> bool:
        """A check failed outright (as opposed to being undecidable)."""
        return any(not c.passed and not c.inconclusive for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "checks": [c.as_dict() for c in self.checks],
            "meta": _plain_meta(self.meta),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else ("INCONCLUSIVE" if c.inconclusive else "FAIL")
            lines.append(f"[{status}] {self.suite}: {c.name}")
        return lines


def _plain_meta(meta: dict) -> dict:
    return {k: _plain(v) for k, v in sorted(meta.items())}
