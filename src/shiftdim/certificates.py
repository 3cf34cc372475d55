"""Self-contained certificates of verified claims.

A certificate echoes the full parameter set of a run, lists every checked
clause with its witness, and carries one overall verdict.  Serialization
is canonical JSON (sorted keys, exact rationals as "p/q" strings, no
timestamps), so identical runs are byte-identical and diffs are
reviewable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

TOOL_VERSION = "shiftdim-0.1.0"
SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    witness: str = ""


def _canon(value):
    """Make a value JSON-stable: fractions to 'p/q', sets sorted."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if value is None:
        return None
    if isinstance(value, float):
        raise TypeError("floats are banned from certificates; use Fraction")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(_canon(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return str(value)


# Top-level keys every certificate has, with their JSON types.
_SHAPE = {
    "kind": (str, "a string"),
    "params": (dict, "an object"),
    "clauses": (list, "an array"),
    "verdict": (str, "a string"),
}


@dataclass(frozen=True)
class Certificate:
    kind: str
    params: dict
    clauses: tuple[Clause, ...]
    verdict: str
    tool_version: str = TOOL_VERSION
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def build(cls, kind: str, params: dict, clauses) -> "Certificate":
        clauses = tuple(clauses)
        verdict = PASS if all(c.passed for c in clauses) else FAIL
        return cls(kind=kind, params=_canon(params), clauses=clauses, verdict=verdict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def first_failure(self) -> str:
        for c in self.clauses:
            if not c.passed:
                return f"{c.name}: {c.witness}"
        return ""

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "kind": self.kind,
            "params": self.params,
            "clauses": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.clauses
            ],
            "verdict": self.verdict,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_dict(cls, data) -> "Certificate":
        """Raises ``ValueError`` unless ``data`` has the shape of
        :meth:`to_dict`'s output."""
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        for key, (expected, name) in _SHAPE.items():
            if key not in data:
                raise ValueError(f"no {key!r}")
            if not isinstance(data[key], expected):
                raise ValueError(f"{key!r} is not {name}")
        for c in data["clauses"]:
            if not (
                isinstance(c, dict)
                and isinstance(c.get("name"), str)
                and isinstance(c.get("passed"), bool)
                and isinstance(c.get("witness", ""), str)
            ):
                raise ValueError(f"malformed clause {c!r}")
        return cls(
            kind=data["kind"],
            params=data["params"],
            clauses=tuple(
                Clause(c["name"], c["passed"], c.get("witness", ""))
                for c in data["clauses"]
            ),
            verdict=data["verdict"],
            tool_version=data.get("tool_version", TOOL_VERSION),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))
