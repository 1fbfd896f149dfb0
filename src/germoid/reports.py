"""Experiment reports: per-check verdicts with residuals, JSON round-trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "germoid-report/1"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_OBSTRUCTION = 2


@dataclass
class Check:
    name: str
    kind: str          # "exact" or "numeric"
    passed: bool
    residual: float = None
    witness: object = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "passed": self.passed,
            "residual": self.residual,
            "witness": self.witness,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Check":
        return cls(d["name"], d["kind"], d["passed"], d.get("residual"), d.get("witness"))


@dataclass
class ExperimentReport:
    experiment: str
    inputs: dict
    seed: int = None
    checks: list = field(default_factory=list)
    obstruction: str = None
    wall_time_s: float = 0.0

    def exact(self, name: str, passed: bool, witness=None):
        self.checks.append(Check(name, "exact", bool(passed), None, witness))
        return passed

    def numeric(self, name: str, passed: bool, residual: float, witness=None):
        self.checks.append(Check(name, "numeric", bool(passed), float(residual), witness))
        return passed

    @property
    def passed(self) -> bool:
        return self.obstruction is None and all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        if self.obstruction is not None:
            return EXIT_OBSTRUCTION if all(c.passed for c in self.checks) else EXIT_FAILURE
        return EXIT_OK if self.passed else EXIT_FAILURE

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "inputs": self.inputs,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "obstruction": self.obstruction,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        if d.get("schema") != SCHEMA:
            raise ValueError(f"unknown report schema {d.get('schema')!r}")
        return cls(
            experiment=d["experiment"],
            inputs=d["inputs"],
            seed=d.get("seed"),
            checks=[Check.from_dict(c) for c in d["checks"]],
            obstruction=d.get("obstruction"),
            wall_time_s=d.get("wall_time_s", 0.0),
        )

    def to_json(self) -> str:
        """Compact JSON: with any ``indent``, ``json`` leaves its C encoder
        for the pure-Python one, several times slower on a large witness."""
        return json.dumps(self.to_dict())

    def render_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for key, val in self.inputs.items():
            lines.append(f"  {key}: {val}")
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            extra = ""
            if c.residual is not None:
                extra += f"  residual={c.residual:.3e}"
            if c.witness is not None and not c.passed:
                extra += f"  witness={c.witness}"
            lines.append(f"[{mark}] {c.name}{extra}")
        if self.obstruction is not None:
            lines.append(f"OBSTRUCTION: {self.obstruction}")
        verdict = {0: "all checks passed", 1: "FAILURES PRESENT", 2: "documented obstruction"}
        lines.append(f"result: {verdict[self.exit_code]} ({self.wall_time_s:.2f}s)")
        return "\n".join(lines)
