"""Self-contained certificates of verified claims.

A certificate echoes the full parameter set of a run, lists every checked
clause with its witness, and carries one overall verdict.  Serialization
is canonical JSON (sorted keys, exact rationals as "p/q" strings, no
timestamps), so identical runs are byte-identical and diffs are
reviewable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

TOOL_VERSION = "shiftdim-0.1.0"
SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"


class Clause(NamedTuple):
    name: str
    passed: bool
    witness: str = ""


# Types ``_canon`` passes through unchanged.
_PLAIN = frozenset({str, int, bool, type(None)})
_STR = frozenset({str})
_SEQUENCES = frozenset({list, tuple})


def _canon(value):
    """Make a value JSON-stable: fractions to 'p/q', sets sorted, tuples
    to lists.  A value of any other type than these, strings, integers,
    booleans, None, dicts and lists raises ``TypeError``, so that no float,
    no record and no ``repr`` reaches a certificate."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        raise TypeError("floats are banned from certificates; use Fraction")
    if isinstance(value, dict):
        if _STR.issuperset(map(type, value)) and _PLAIN.issuperset(map(type, value.values())):
            return dict(value)
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted(_canon(v) for v in value)
    if type(value) in _SEQUENCES:  # a record is a tuple too, but not one of these
        if _PLAIN.issuperset(map(type, value)):
            return list(value)
        return [_canon(v) for v in value]
    raise TypeError(f"{type(value).__name__} values cannot go into a certificate")


# JSON's scalar types: a container holding only these is written in one call.
_SCALARS = _PLAIN | {float}


@lru_cache(maxsize=None)
def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The encoder of a container of scalars nested ``depth`` deep.  With no
    ``indent`` it runs in C and puts each member on a line of its own,
    indented, after the first."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + " " * (depth + 1), ": "))


def _write(value, depth: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=1)`` for a value nested
    ``depth`` deep, whose dicts that hold containers have string keys.
    Only the containers that hold containers are walked here."""
    enc = _flat_encoder(depth)
    if isinstance(value, dict):
        members = value.values()
    elif isinstance(value, (list, tuple)):
        members = value
    else:
        return enc.encode(value)
    pad = " " * depth
    key = json.encoder.encode_basestring_ascii
    strings = isinstance(value, dict) and value and _STR.issuperset(map(type, value))
    if strings and _STR.issuperset(map(type, members)):
        # strings keyed by strings, such as a map point: one join, no encoder call
        body = enc.item_separator.join([f"{key(k)}: {key(v)}" for k, v in sorted(value.items())])
        return f"{{\n {pad}{body}\n{pad}}}"
    if _SCALARS.issuperset(map(type, members)):
        text = enc.encode(value)
        if len(text) == 2:  # empty
            return text
        return f"{text[0]}\n {pad}{text[1:-1]}\n{pad}{text[-1]}"
    if isinstance(value, dict):
        body = enc.item_separator.join(
            f"{key(k)}: {_write(v, depth + 1)}" for k, v in sorted(value.items())
        )
        return f"{{\n {pad}{body}\n{pad}}}"
    body = enc.item_separator.join(_write(m, depth + 1) for m in value)
    return f"[\n {pad}{body}\n{pad}]"


# Scalar types whose equal values have one JSON text: not bool (True == 1)
# nor float (0.0 == -0.0, and NaN is not equal to itself).
_EXACT = frozenset({str, int, type(None)})


def same_json(a, b) -> bool:
    """Whether ``a`` and ``b`` are the same JSON value: equal, with the same
    type at every node (``true`` is not ``1``, ``1.0`` is not ``1``), and
    floats compared by ``repr`` (``0.0`` is not ``-0.0``, NaN is NaN).  On
    the values ``json.loads`` returns and ``Certificate.build`` makes, that
    is ``json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)``,
    with no text written."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is dict:
        if a.keys() != b.keys():
            return False
        if _EXACT.issuperset(map(type, a.values())) and _EXACT.issuperset(map(type, b.values())):
            return a == b
        return all(same_json(v, b[k]) for k, v in a.items())
    if kind is list:
        if len(a) != len(b):
            return False
        if _EXACT.issuperset(map(type, a)) and _EXACT.issuperset(map(type, b)):
            return a == b
        return all(map(same_json, a, b))
    if kind is float:
        return repr(a) == repr(b)
    return a == b


# Top-level keys every certificate has, with their JSON types.
_SHAPE = {
    "kind": (str, "a string"),
    "params": (dict, "an object"),
    "clauses": (list, "an array"),
    "verdict": (str, "a string"),
}


class Certificate(NamedTuple):
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

    def with_params(self, extra: dict, canonical: dict | None = None) -> "Certificate":
        """This certificate with ``extra`` and ``canonical`` added to its
        params.  Only ``extra`` is normalised: ``build`` already normalised
        the params, and ``canonical`` holds values already in canonical
        form that were made for this certificate, which no caller holds."""
        return self._replace(params={**self.params, **_canon(extra), **(canonical or {})})

    def canonical_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\\n"``,
        byte for byte."""
        return _write(self.to_dict()) + "\n"

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
