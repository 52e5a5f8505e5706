import json
from dataclasses import dataclass, field
from fractions import Fraction

from hypme.reports import encode, render_report


@dataclass(frozen=True)
class Inner:
    value: Fraction
    width: float


@dataclass(frozen=True)
class Outer:
    name: str = field(metadata={"key": "check"})
    inner: Inner
    bounds: tuple
    ok: bool
    extra: dict = field(metadata={"inline": True})


def test_encode_rule():
    obj = Outer("x", Inner(Fraction(3, 6), 0.5), (Fraction(2), 1), True, {"radius": Fraction(7)})
    assert encode(obj) == {
        "check": "x",
        "inner": {"value": "1/2", "width": 0.5},
        "bounds": ["2/1", 1],
        "ok": True,
        "radius": "7/1",
    }
    text = render_report({}, obj)
    assert '"width": 0.5' in text and '"ok": true' in text
    assert json.loads(text)["report"]["inner"]["width"] == 0.5
