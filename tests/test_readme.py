"""The README's library example, command lines and Layout block, against
the code."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from g2schur.cli import main

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


def command_line_reports():
    """Each line of the README's command-line block, in order, in the
    current directory, as (argv, exit code, report): the lines reading
    table.json see the one the first line writes."""
    section = README.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(argv[0] == "g2schur" for argv in lines)
    for _, *argv in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        # table's --out is the table file; its report goes to stdout
        if "--out" in argv and argv[0] != "table":
            report = json.loads(Path(argv[argv.index("--out") + 1]).read_text())
        else:
            report = json.loads(out.getvalue())
        yield argv, code, report


def test_command_line_block_runs_and_passes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, code, report in command_line_reports():
        assert code == 0, argv
        assert not [c for c in report["checks"] if c.get("status") == "fail"], argv
