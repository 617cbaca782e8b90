"""The README's library example and its Layout block, against the code."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_library_example_prints_what_its_comments_say():
    (code,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_layout_names_exactly_the_modules():
    layout = README.split("\n## Layout\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", layout, re.S | re.M).group(1)
    named = re.findall(r"^  (\S+\.py) ", block, re.M)
    assert len(named) == len(set(named))
    assert set(named) == {p.name for p in (ROOT / "src" / "g2schur").glob("*.py")}
