"""One reader for every JSON config document: scene, waveform, A1 policy, experiment.

A document is read against a field table that maps each key to the parser of
its value. Every failure is raised as the document's own error class, naming
the document and, where there is one, the field. A number is a finite JSON int
or float, never a bool or a string; a count or seed is a JSON integer >= 0.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def load_json(path: str | Path, error: type[Exception]):
    """Parse the JSON document at ``path``; invalid JSON raises ``error`` naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:     # JSONDecodeError, or an integer too long to read
        raise error(f"{path}: not valid JSON: {e}") from e


def read_document(doc, build, fields: dict, error: type[Exception], where: str,
                  required=()):
    """Parse each key of the JSON object ``doc`` by ``fields`` and return ``build(**values)``.
    An unknown or missing ``required`` key is refused; a left-out key keeps its default."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in fields:
            raise error(f"{where} field {key!r}: no such field")
    for key in required:
        if key not in doc:
            raise error(f"{where}: missing field {key!r}")
    values = {}
    for key, value in doc.items():
        try:
            values[key] = fields[key](value)
        except (OverflowError, TypeError, ValueError) as e:
            raise error(f"{where} field {key!r}: {e}") from e
    try:
        return build(**values)
    except (OverflowError, TypeError, ValueError) as e:
        raise error(f"{where}: {e}") from e


def _expect(value, kind, name: str):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected a JSON {name}, got {value!r}")
    return value


def json_int(value) -> int:
    """A count or seed: a JSON integer >= 0, not a bool, float or string."""
    if _expect(value, int, "integer") < 0:
        raise ValueError(f"expected a JSON integer >= 0, got {value}")
    return value


def json_float(value) -> float:
    """A finite JSON number; an integer beyond float range raises ``OverflowError``."""
    if not math.isfinite(_expect(value, (int, float), "number")):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def json_str(value) -> str:
    return _expect(value, str, "string")


def json_list(parse):
    """Parser of a JSON list whose items ``parse`` reads, returning a tuple."""
    return lambda value: tuple(parse(item) for item in _expect(value, list, "list"))


def checked(parse, ok, rule: str):
    """Parser that runs ``parse`` and refuses a value failing ``ok``; ``rule`` says what passes."""
    def check(value):
        parsed = parse(value)
        if not ok(parsed):
            raise ValueError(f"expected {rule}, got {parsed!r}")
        return parsed
    return check
