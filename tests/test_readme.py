"""README's library example runs as printed, and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from marscore import cli
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


def test_command_lines_parse():
    blocks = re.findall(r"^```bash\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("marscore ")]
    assert len(commands) == 4
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(cli._merge_negative_values(argv))
