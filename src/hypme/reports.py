"""Canonical report files, and the JSON objects the CLI reads.

Every CLI run emits one JSON report that embeds the tool version, the full
configuration echo (including seed and budget), and the payload.  Identical
configurations produce byte-identical files: keys are sorted and no
timestamps or machine identifiers are recorded.

Payloads hold raw values; `encode` turns them into JSON data by one rule:

  - a Fraction becomes the exact "p/q" string, and a FracInterval the list
    [lo, hi] of two such strings, even when lo == hi;
  - a dataclass becomes a dict of its fields, where field metadata `key`
    renames a field and `inline` merges a dict field into its parent;
  - tuples and lists become lists, dicts stay dicts, both encoded item by item;
  - everything else passes through unchanged.  In particular a float stays a
    JSON number, so an uncertified float never looks like an exact "p/q".

The CLI's input files, a coupling spec and a cycle embedding, are JSON
objects with fixed keys; `read_object` checks that shape for both, and
each caller checks its own fields.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

from . import __version__
from .errors import ParseError
from .rational import FracInterval, format_fraction


def encode(obj):
    """JSON data for a payload, by the rule in the module docstring."""
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, FracInterval):
        return [format_fraction(obj.lo), format_fraction(obj.hi)]
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            value = encode(getattr(obj, f.name))
            if f.metadata.get("inline"):
                out.update(value)
            else:
                out[f.metadata.get("key", f.name)] = value
        return out
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    return obj


def render_report(config: dict, payload) -> str:
    doc = {
        "tool": "hypme",
        "version": __version__,
        "config": config,
        "report": payload,
    }
    return json.dumps(encode(doc), sort_keys=True, indent=2) + "\n"


def write_report(path: str, config: dict, payload) -> None:
    text = render_report(config, payload)
    with open(path, "w") as fh:
        fh.write(text)


def read_object(source, what: str, required, optional=()) -> dict:
    """The JSON object in `source`, text or already decoded, with every key
    of `required` and no key outside `required` and `optional`; anything
    else raises a ParseError that starts with `what`."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{what} is not JSON: {exc}") from None
    if not isinstance(source, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(source).__name__}")
    unknown = sorted(set(source) - {*required, *optional})
    if unknown:
        raise ParseError(f"{what} has unknown key(s) {', '.join(unknown)}")
    missing = [k for k in required if k not in source]
    if missing:
        raise ParseError(f"{what} lacks key(s) {', '.join(missing)}")
    return source
