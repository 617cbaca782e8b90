"""The direct report writer against ``json.dumps(..., indent=1)``, its oracle."""

import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from g2schur.cli import main
from g2schur.report import Report, to_json_text

ROOT = Path(__file__).resolve().parents[1]


def readme_commands():
    """The argument lists of the README's command-line block."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    return [shlex.split(line.split("#", 1)[0])[1:] for block in blocks
            for line in block.splitlines() if line.startswith("g2schur ")]


def perfbench_commands(monkeypatch):
    """The argument lists of every ``perfbench/run.py`` command."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclass
    spec.loader.exec_module(module)
    return [argv for argv, _ in module.COMMANDS.values()]


@pytest.mark.parametrize("source", ["readme", "perfbench"])
def test_every_command_report_matches_json_dumps(source, tmp_path, monkeypatch,
                                                 capsys):
    argvs = readme_commands() if source == "readme" else perfbench_commands(monkeypatch)
    monkeypatch.chdir(tmp_path)
    rendered = []
    real = Report.to_json

    def recorded(self):
        text = real(self)
        rendered.append((self.to_dict(), text))
        return text

    monkeypatch.setattr(Report, "to_json", recorded)
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert len(rendered) >= len(argvs) > 5
    for report, text in rendered:
        assert text == json.dumps(report, indent=1) + "\n", report["suite"]


@pytest.mark.parametrize("value", [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": [{}]},
    {"witness": {"monomial": [2, 0, 0], "closed_form": "-1", "nested": [[1, [2]], {"x": None}]}},
    {"text": "x12^-1 + (1/3)", "quote": 'say "hi"\\ \n\t\r\x00\x1f\x7f'},
    {"non-ascii": "κ λ ε – ü   \U0001d11e", "κ": "key"},
    {"constants": [None, True, False], "t": True, "f": False, "n": None},
    {"ints": [0, -1, 10 ** 40, -(10 ** 40)], "tuple": (1, (2, 3), ())},
    [[[[[[{"deep": [1]}]]]]]],
    "a bare string",
    3,
    None,
], ids=["empty-dict", "empty-list", "empty-nested", "witness", "escapes",
        "non-ascii", "constants", "ints", "deep",
        "bare-string", "bare-int", "bare-none"])
def test_adversarial_values_match_json_dumps(value):
    assert to_json_text(value) == json.dumps(value, indent=1)


@pytest.mark.parametrize("value", [
    {"x": [0.0, 1.5, float("inf"), float("nan")]},
    {"x": {1: "int key"}},
    {None: "null key"},
], ids=["floats", "non-string-keys", "null-key"])
def test_inexact_values_and_non_string_keys_are_type_errors(value):
    # every report value is exact and every key a string; json.dumps would
    # write these, the report writer refuses them
    with pytest.raises(TypeError):
        to_json_text(value)


def test_unserializable_value_is_a_type_error():
    with pytest.raises(TypeError, match="not JSON serializable"):
        to_json_text({"x": {1, 2}})
    with pytest.raises(TypeError):
        json.dumps({"x": {1, 2}}, indent=1)


def test_report_is_one_string():
    report = Report("verify-pieri", {"max_level": 0})
    report.checks.append({"status": "pass"})
    report.elapsed_ms = 3
    text = report.to_json()
    assert isinstance(text, str) and text.endswith("}\n")
    assert json.loads(text)["elapsed_ms"] == 3
    report.elapsed_ms = None
    assert "elapsed_ms" not in json.loads(report.to_json())
