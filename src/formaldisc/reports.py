"""Machine-readable check reports shared by the verification suites and CLI,
and the one schema-1 JSON payload (`envelope`) both write."""

from __future__ import annotations

import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from .sparse import exact_str


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None
    detail: str = ""

    def to_json(self):
        out = {"name": self.name, "status": "pass" if self.passed else "fail"}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        return out


def envelope(command: str, params: dict, **fields) -> dict:
    """The schema-1 JSON payload of a command: schema, command, params, then
    `fields` in the order given, each made JSON-ready."""
    return {
        "schema": 1,
        "command": command,
        "params": _jsonable(params),
        **{k: _jsonable(v) for k, v in fields.items()},
    }


def _jsonable(value):
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    # a plain list or tuple only: a value built on a tuple, such as a
    # `series.Monomial`, is written as it prints
    if type(value) in (list, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return exact_str(value, ratio=True)
    return str(value)


@dataclass
class Report:
    command: str
    params: dict
    seed: int | None = None
    checks: list[CheckResult] = field(default_factory=list)
    started: float = field(default_factory=time.monotonic)
    duration: float = 0.0

    def add(self, name: str, passed: bool, witness=None, detail=""):
        self.checks.append(CheckResult(name, passed, witness, detail))

    def run(self, name: str, fn, *args, **kwargs):
        """Run a check callable; CheckFailure becomes a failed entry."""
        from .errors import CheckFailure

        try:
            detail = fn(*args, **kwargs)
            self.add(name, True, detail="" if detail is None else str(detail))
            return True
        except CheckFailure as exc:
            witness = exc.witness if exc.witness is not None else {"message": str(exc)}
            self.add(name, False, witness=witness, detail=str(exc))
            return False

    def finish(self) -> "Report":
        self.duration = time.monotonic() - self.started
        return self

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_json(self):
        seed = {} if self.seed is None else {"seed": self.seed}
        return envelope(
            self.command,
            self.params,
            checks=[c.to_json() for c in self.checks],
            duration_s=round(self.duration, 6),
            **seed,
        )

    def render_text(self) -> str:
        lines = [f"# {self.command}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
            if not c.passed and c.witness is not None:
                lines.append(f"       witness: {json.dumps(_jsonable(c.witness))}")
        lines.append(
            f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed "
            f"in {self.duration:.2f}s"
        )
        return "\n".join(lines)
