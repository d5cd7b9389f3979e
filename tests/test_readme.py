"""README's library example runs as printed."""

import re
from pathlib import Path

import pytest

from marscore.numerics import RngStream
from marscore.sim import Example2Config, generate_example2

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.DOTALL | re.MULTILINE)
    data = generate_example2(Example2Config(n=500), RngStream(1, 0))
    exec(block, {"x": data.x, "d": data.d, "y_observed": data.y_complete})
    s1_z, s1_p, s2_z, s2_p = map(float, capsys.readouterr().out.split())
    assert s1_z == pytest.approx(-1.2035, abs=1e-4)
    assert s2_z == pytest.approx(-1.2116, abs=1e-4)
    assert 0.0 < s1_p < 1.0 and 0.0 < s2_p < 1.0
